"""Divisor-class arithmetic on a split-model hyperelliptic curve
W: y^2 = F(x), deg F = 2g + 2, lc(F) = 1, over an exact field of
characteristic != 2.

The curve has two rational points at infinity, distinguished by the branch
of sqrt(F): y/x^(g+1) -> +1 at inf+ and -1 at inf-.  A divisor class is
carried as an affine semi-reduced Mumford pair (u, v) plus explicit integer
weights (n+, n-) at the infinite points, normalized so the total degree is
zero.  Composition is the usual ideal product (Cantor, Math. Comp. 48,
1987), with two fast paths for the cases the group law meets most: a
doubling with gcd(u, 2v) = 1 lifts v mod u^2 from one inverse of 2v mod u,
and an addition with gcd(u1, u2) = 1 glues v1 and v2 by the Chinese
remainder theorem from one extended gcd, so neither needs the second gcd
of the general composition.  Every other input (a common factor of u1 and
u2, a doubling through a Weierstrass point) takes the general composition,
and every path checks the Mumford invariant v^2 = F mod u.

Every class has exactly one balanced representative (Paulus and Rueck,
Math. Comp. 68, 1999; Galbraith, Harrison and Mireles Morales, ANTS VIII,
LNCS 5011, 2008): deg u <= g and 0 <= n+ + ceil(g/2) <= g - deg u, so that
n- + floor(g/2) >= 0 too.  One step function reaches it (`_reduce_once`):
a step of sign s subtracts the divisor of y - vt, vt = Vs - ((Vs - v) mod u)
for the polynomial part Vs = s V+ of y at inf_s.  Its pole at the far point
inf_-s has order deg(vt + Vs), g + 1 when deg(Vs - vt) <= g, and its order
at the near point follows from the degree balance.  Steps of sign +1 reduce
until deg u <= g (`_reduced`); signed steps then balance the weights
(`_balanced`).  Two classes are equal iff their balanced forms are
(`classes_equal`), and the symmetric form (x^2 - A, c, -1, -1) of a class in
the anti-invariant part of the covering involution i(x, y) = (-x, -y) is
its balanced form (`canonicalize_prym`).  `parshin` takes its class
3[P - i(P)] from one exact division on the elliptic quotient y^2 = G(t),
t = x^2, instead.

Local expansions take one series square root, `_series_sqrt` (a
coefficient recurrence), on payload lists: on integers over Q and through
the payload protocol over every other field.  At inf+- y = +-x^(g+1) S(1/x)
(`sqrt_series`), whose top coefficients give V+; at an affine point
y = y0 S(x - x0), with S the root of F(x0 + t)/y0^2 (`_local_root`).
`point_minus_i_point` truncates that branch to the Mumford pair of
n[P - i(P)] in one step, with no Cantor composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Element, FieldError, Polynomial, RationalField,
                      poly_gcd, poly_xgcd)
from .algebra.poly import _poly, _taylor_shift, _trim


# ---------------------------------------------------------------------------
# the one series square root (payload lists, lowest first)
# ---------------------------------------------------------------------------


def _series_sqrt(F, a, prec):
    """The first prec coefficients of the square root s of a payload series a
    over F with a[0] = 1, s[0] = 1, by the recurrence
    2 s_n = a_n - sum_{0<k<n} s_k s_(n-k) (no division by n, so it holds
    whatever the characteristic, 2 apart); on integers over Q, through the
    payload protocol over every other field."""
    one, zero = F._one_val(), F._zero_val()
    if a[0] != one:
        raise FieldError("series sqrt needs constant term 1")
    out = [one]
    if isinstance(F, RationalField):
        # with a_n = A_n/d, T_n = s_n (4d)^n are even integers with
        # 2 T_n = A_n 4^n d^(n-1) - sum_{0<k<n} T_k T_(n-k), and
        # A_n 4^n d^(n-1) = a_n (4d)^n
        step = 4 * math.lcm(*[c.denominator for c in a[:prec]])
        T, scale = [1], 1
        for n in range(1, prec):
            scale *= step
            acc = 0
            if n < len(a):
                acc = a[n].numerator * (scale // a[n].denominator)
            acc -= 2 * sum(T[k] * T[n - k] for k in range(1, (n + 1) // 2))
            if n % 2 == 0:
                acc -= T[n // 2] * T[n // 2]
            T.append(acc // 2)
            out.append(Fraction(T[n], scale))
        return out
    sub, mul = F._sub, F._mul
    half = F._inv(F._add(one, one))
    for n in range(1, prec):
        acc = a[n] if n < len(a) else zero
        for k in range(1, n):
            acc = sub(acc, mul(out[k], out[n - k]))
        out.append(mul(acc, half))
    return out


def _local_root(field, rhs, x0, y0, prec):
    """The payloads of S(t) to order prec with y = y0 S(t) at (x0, y0) on
    y^2 = rhs(x): the series root of rhs(x0 + t)/y0^2, with t = x - x0."""
    mul = field._mul
    inv = field._inv(mul(y0, y0))
    return _series_sqrt(field, [mul(c, inv) for c in
                                _taylor_shift(field, rhs.vals, x0)[:prec]], prec)


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------


class SplitCurve:
    def __init__(self, F: Polynomial):
        if F.degree % 2 != 0 or F.degree < 4:
            raise FieldError("split model needs even degree >= 4")
        if not F.leading().is_one():
            raise FieldError("leading coefficient must be 1")
        if F.field.char == 2:
            raise FieldError("characteristic 2 is unsupported here")
        if not poly_gcd(F, F.derivative()).is_one():
            raise FieldError("F must be squarefree")
        self.F = F
        self.field = F.field
        self.g = (F.degree - 2) // 2
        self.Vplus = self._sqrt_poly_part()

    def _sqrt_poly_part(self) -> Polynomial:
        """V with deg V = g + 1 and deg(F - V^2) <= g (top coefficients of
        the square root at infinity)."""
        # the coefficient of x^(g+1-k) is S[k]; S[0] = 1 leads
        V = _poly(self.field, self.sqrt_series(self.g + 2)[::-1])
        if (self.F - V * V).degree > self.g:
            raise ArithmeticError("polynomial square-root truncation failed")
        return V

    def sqrt_series(self, prec: int):
        """The payloads of S(T) with S^2 = T^(2g+2) F(1/T), S(0) = 1;
        y = +-x^(g+1) S(1/x) at the two infinite points."""
        return _series_sqrt(self.field, self.F.vals[::-1], prec)

    def is_even_model(self) -> bool:
        return all(self.F[i].is_zero() for i in range(1, self.F.degree + 1, 2))

    def on_curve(self, x0: Element, y0: Element) -> bool:
        return self.F.evaluate(x0) == y0 * y0


# ---------------------------------------------------------------------------
# Mumford classes with infinity weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MumfordClass:
    """div(u, v) + n+ inf+ + n- inf- of total degree zero."""
    u: Polynomial
    v: Polynomial
    n_plus: int
    n_minus: int

    def degree_check(self):
        return self.u.degree + self.n_plus + self.n_minus


def identity_class(curve: SplitCurve) -> MumfordClass:
    return MumfordClass(Polynomial.one(curve.field),
                        Polynomial.zero(curve.field), 0, 0)


def point_class(curve: SplitCurve, x0, y0) -> MumfordClass:
    """[(x0, y0) - inf+] as a class (degree balanced at inf+)."""
    field = curve.field
    x0, y0 = field(x0), field(y0)
    if not curve.on_curve(x0, y0):
        raise FieldError("point is not on the curve")
    u = Polynomial(field, [-x0, field.one])
    return MumfordClass(u, Polynomial.constant(field, y0), -1, 0)


def point_minus_i_point(curve: SplitCurve, x0, y0, n: int = 1) -> MumfordClass:
    """n [P - i(P)] for P = (x0, y0) and n >= 1, as the semi-reduced class
    n P + n iota(i(P)) - n inf+ - n inf- (iota(i(P)) = (-x0, y0)) on an even
    model F(x) = G(x^2): u = (x^2 - x0^2)^n and v = w(x^2), with w the
    branch y0 S(X - X0) of sqrt(G) at X0 = x0^2 mod (X - X0)^n (`_local_root`).
    v agrees with the branch s through P mod (x - x0)^n, and as F is even the
    branch through (-x0, y0) is s(-x), which v(-x) = v(x) matches mod
    (x + x0)^n.  For n = 1, v = y0 needs no series.

    If y0 = 0, P and i(P) are Weierstrass points, so the class
    E = P + i(P) - inf+ - inf- has 2E = div(x^2 - x0^2) ~ 0 and
    nE ~ (n mod 2) E: odd n gives E, even n the identity."""
    field = curve.field
    x0, y0 = field(x0), field(y0)
    if n < 1:
        raise FieldError("the multiple must be positive")
    if not curve.on_curve(x0, y0):
        raise FieldError("point is not on the curve")
    if x0.is_zero():
        raise FieldError("point lies over x = 0")
    u = Polynomial(field, [-x0 * x0, field.zero, field.one])
    v = Polynomial.constant(field, y0)
    if n > 1 and not y0.is_zero():
        X0, zero = (x0 * x0).val, field._zero_val()
        S = _local_root(field, _poly(field, curve.F.vals[::2]), X0, y0.val, n)
        w = _taylor_shift(field, [field._mul(y0.val, s) for s in S],
                          field._neg(X0))
        vals = [zero] * (2 * n - 1)
        vals[::2] = w
        u, v = u ** n, _poly(field, _trim(vals, zero))
    if (v * v - curve.F) % u != Polynomial.zero(field):
        raise FieldError("not an even model or point data inconsistent")
    if y0.is_zero() and n % 2 == 0:
        return identity_class(curve)
    return MumfordClass(u, v, -(u.degree // 2), -(u.degree // 2))


# -- composition and reduction --------------------------------------------------


def _compose(curve: SplitCurve, D1: MumfordClass, D2: MumfordClass):
    """The semi-reduced sum D3 of D1 and D2 (Cantor, Math. Comp. 48, 1987),
    and the monic s with (u1, y - v1)(u2, y - v2) = s (u3, y - v3), so
    div(u1, v1) + div(u2, v2) = div(s) + div(u3, v3).
    A doubling with gcd(u, 2v) = 1 lifts v to v + u k, k = (F - v^2)/u
    (2v)^-1 mod u; an addition with gcd(u1, u2) = 1 glues v1 and v2 by the
    Chinese remainder theorem, v1 + u1 (e1 (v2 - v1) mod u2) for
    e1 u1 + e2 u2 = 1.  Both give s = 1, u3 = u1 u2 and the one v3 mod u3
    that agrees with v1 mod u1 and v2 mod u2, as the general composition
    does; every other input takes the general composition."""
    u1, v1, u2, v2 = D1.u, D1.v, D2.u, D2.v
    if u1 == u2 and v1 == v2 and not u1.is_constant():
        s, _, c3 = poly_xgcd(u1, v1 + v1)
        if s.is_one():
            k = ((curve.F - v1 * v1).exact_div(u1) * c3) % u1
            return _checked_sum(curve, D1, D2, u1 * u1, v1 + u1 * k, s)
        g0, e1, e2 = poly_xgcd(u1, u2)
    else:
        g0, e1, e2 = poly_xgcd(u1, u2)
        if g0.is_one():
            return _checked_sum(curve, D1, D2, u1 * u2,
                                v1 + u1 * ((e1 * (v2 - v1)) % u2), g0)
    s, c1, c3 = poly_xgcd(g0, v1 + v2)
    # s = c1*(e1 u1 + e2 u2) + c3 (v1 + v2)
    u3 = (u1 * u2).exact_div(s * s)
    num = c1 * e1 * u1 * v2 + c1 * e2 * u2 * v1 + c3 * (v1 * v2 + curve.F)
    return _checked_sum(curve, D1, D2, u3, num.exact_div(s) % u3, s)


def _checked_sum(curve: SplitCurve, D1: MumfordClass, D2: MumfordClass,
                 u3: Polynomial, v3: Polynomial, s: Polynomial):
    """The class (u3, v3) of D1 + D2, whose weights grow by deg s, after the
    Mumford invariant v3^2 = F mod u3 is checked; and s."""
    u3 = u3.monic()
    if u3.is_constant():
        v3 = Polynomial.zero(curve.field)
    else:
        if v3.degree >= u3.degree:
            v3 = v3 % u3
        if not ((v3 * v3 - curve.F) % u3).is_zero():
            raise ArithmeticError("composition broke the Mumford invariant")
    return MumfordClass(u3, v3, D1.n_plus + D2.n_plus + s.degree,
                        D1.n_minus + D2.n_minus + s.degree), s


def _reduce_once(curve: SplitCurve, D: MumfordClass, sign: int) -> MumfordClass:
    """One step toward inf_sign, the near point, where y has the polynomial
    part Vs = sign V+: D minus the divisor of y - vt, vt = Vs - r for
    r = (Vs - v) mod u, so vt = v mod u and w = (F - vt^2)/u.  As y + Vs
    vanishes at the far point inf_-sign, y - vt has a pole of order
    deg(vt + Vs) there, which is g + 1 when deg r <= g.  The order at the
    near point follows from the degree balance of div(y - vt): its affine
    zeros have degree deg u + deg w, so the order is deg u + deg w - far
    (deg r when r != 0; r = 0 makes y - Vs vanish there, which happens in
    balancing steps).  With sign = +1 and deg u >= g + 1 the step reduces."""
    field = curve.field
    u, v = D.u, D.v
    Vs = curve.Vplus if sign > 0 else -curve.Vplus
    r = (Vs - v) % u
    vt = Vs - r                   # = v mod u
    w = (curve.F - vt * vt).exact_div(u).monic()
    v_new = (-vt) % w if not w.is_constant() else Polynomial.zero(field)
    far = curve.g + 1 if r.degree <= curve.g else (vt + Vs).degree
    near = u.degree + w.degree - far
    pole_plus, pole_minus = (near, far) if sign > 0 else (far, near)
    return MumfordClass(w, v_new, D.n_plus + pole_plus - w.degree,
                        D.n_minus + pole_minus - w.degree)


def _reduced(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    while D.u.degree > curve.g:
        D = _reduce_once(curve, D, 1)
    return D


def _balanced(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    """The one balanced representative of the class of D: reduced, with
    n+ + ceil(g/2) >= 0 and n- + floor(g/2) >= 0, which sum to g - deg u
    (Paulus and Rueck, Math. Comp. 68, 1999; Galbraith, Harrison and
    Mireles Morales, ANTS VIII, LNCS 5011, 2008).  On a reduced class a
    step of sign s lowers n_s by g + 1 - deg u and raises the other
    weight, so a step toward inf+ runs while n- is too low, one toward inf-
    while n+ is, and neither takes its weight below the bound.  A class of
    nonzero degree has no such form."""
    if D.degree_check() != 0:
        raise FieldError("the class must have total degree zero")
    D = _reduced(curve, D)
    low = curve.g // 2
    while True:
        if D.n_minus + low < 0:
            D = _reduce_once(curve, D, 1)
        elif D.n_plus + curve.g - low < 0:
            D = _reduce_once(curve, D, -1)
        else:
            return D


def mumford_add(curve: SplitCurve, D1: MumfordClass, D2: MumfordClass) -> MumfordClass:
    return _reduced(curve, _compose(curve, D1, D2)[0])


def mumford_neg(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    field = curve.field
    u = D.u
    if u.is_constant():
        return MumfordClass(u, D.v, -D.n_plus, -D.n_minus)
    v = (-D.v) % u
    return MumfordClass(u, v, -u.degree - D.n_plus, -u.degree - D.n_minus)


def mumford_scalar(curve: SplitCurve, D: MumfordClass, n: int) -> MumfordClass:
    if n == 0:
        return identity_class(curve)
    if n < 0:
        return mumford_scalar(curve, mumford_neg(curve, D), -n)
    result = None
    base = D
    while n:
        if n & 1:
            result = base if result is None else mumford_add(curve, result, base)
        n >>= 1
        if n:
            base = mumford_add(curve, base, base)
    return result


def i_star(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    """Pushforward under i(x, y) = (-x, -y); needs an even model."""
    if not curve.is_even_model():
        raise FieldError("the covering involution needs an even F")
    field = curve.field
    u = _compose_neg(D.u).monic()
    v = (-_compose_neg(D.v)) % u \
        if not u.is_constant() else Polynomial.zero(field)
    return MumfordClass(u, v, D.n_minus, D.n_plus)


def _compose_neg(p: Polynomial) -> Polynomial:
    """p(-x): the odd coefficients change sign."""
    neg = p.field._neg
    return _poly(p.field, [neg(c) if i % 2 else c for i, c in enumerate(p.vals)])


def iota_star(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    """Pushforward under the hyperelliptic involution (x, y) -> (x, -y)."""
    field = curve.field
    u = D.u
    v = (-D.v) % u if not u.is_constant() else Polynomial.zero(field)
    return MumfordClass(u, v, D.n_minus, D.n_plus)


# ---------------------------------------------------------------------------
# comparisons of balanced forms
# ---------------------------------------------------------------------------


def classes_equal(curve: SplitCurve, D1: MumfordClass, D2: MumfordClass) -> bool:
    """D1 ~ D2: equal representatives are, classes of different total
    degree are not, and otherwise the balanced forms decide."""
    if (D1.u, D1.v, D1.n_plus, D1.n_minus) == (D2.u, D2.v, D2.n_plus, D2.n_minus):
        return True
    if D1.degree_check() != D2.degree_check():
        return False
    return _balanced(curve, D1) == _balanced(curve, D2)


def canonicalize_prym(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    """The representative (x^2 - A, c, -1, -1) of a class in the
    anti-invariant part of the covering involution i(x, y) = (-x, -y), or
    the identity when D ~ 0.  For g >= 2 that shape is balanced, so a class
    has it iff its balanced form does; every other class is refused with
    one error (for g = 1 every class but the identity, as deg u <= 1 in a
    balanced form there).  D need not be reduced."""
    if not curve.is_even_model():
        raise FieldError("anti-invariant classes need an even model")
    B = _balanced(curve, D)
    if B == identity_class(curve) or (
            B.u.degree == 2 and B.u[1].is_zero() and B.v.is_constant()
            and (B.n_plus, B.n_minus) == (-1, -1)):
        return B
    raise ArithmeticError("class is not anti-invariant (or is special)")
