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
and every path checks the Mumford invariant v^2 = F mod u.  Reduction
replaces v by its representative congruent to the polynomial square root
V+ of F, which makes each step drop deg u below g + 1.

A small Riemann-Roch engine (linear algebra on functions (a + b y)/d with
prescribed vanishing) provides principality tests - used as the independent
oracle for the group law - and the canonical presentation of classes in the
anti-invariant part of the Jacobian of the covering involution
i(x, y) = (-x, -y) (`canonicalize_prym`).  `parshin` builds no space: its
class 3[P - i(P)] is the pullback of a class on the elliptic quotient
y^2 = G(t), t = x^2, and takes its form from one exact division there.

Local expansions take one series square root, `_series_sqrt` (a
coefficient recurrence).  At inf+- y = +-x^(g+1) S(1/x), and
`y_coeff_at_infinity` reads the coefficient of x^j in x^i y off S; at an
affine point y = y0 S(x - x0), with S the root of F(x0 + t)/y0^2
(`_local_root`).  `point_minus_i_point` truncates that branch to the
Mumford pair of n[P - i(P)] in one step, with no Cantor composition.  A
Riemann-Roch space of div(u1, v1) - div(u2, v2) + n+ inf+ + n- inf- takes
its affine conditions from one Cantor composition: h u1 = a + b y lies in
the ideal of iota div(u1, v1) + div(u2, v2), which `_compose` writes as
s (u3, y - v3), so h = (a + b y)/(u1/s) with a + b v3 = 0 mod u3 (rows
from `coeff_vec`).

The Riemann-Roch engine runs on payloads, like the kernel of
`algebra.poly`: the series S (`sqrt_series` caches it), the condition rows
of `coeff_vec` and of the infinite points, and the kernel vectors from
`linalg.kernel_basis` are lists of field payloads.  The series root runs
on integers over Q and through the payload protocol over every other
field.  Elements and Polynomials appear only at the API: classes and the
triples of `rr_space`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Element, FieldError, Polynomial, RationalField,
                      poly_gcd, poly_xgcd, sqrt)
from .algebra.linalg import kernel_basis
from .algebra.poly import _poly, _rem, _taylor_shift, _trim


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
        self._series_cache = {}
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
        S = self._series_cache.get(prec)
        if S is None:
            S = self._series_cache[prec] = _series_sqrt(
                self.field, self.F.vals[::-1], prec)
        return S

    def is_even_model(self) -> bool:
        return all(self.F[i].is_zero() for i in range(1, self.F.degree + 1, 2))

    def on_curve(self, x0: Element, y0: Element) -> bool:
        return self.F.evaluate(x0) == y0 * y0

    def y_coeff_at_infinity(self, i: int, j: int, sign: int, S):
        """The payload of the coefficient of x^j in x^i * y at inf+-
        (y = sign * x^(g+1) S(1/x)): sign * S[i + g + 1 - j], zero beyond
        the payload series S."""
        k = i + self.g + 1 - j
        if not 0 <= k < len(S):
            return self.field._zero_val()
        return S[k] if sign > 0 else self.field._neg(S[k])


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


def _reduce_once(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    """One V+-adapted reduction step for deg u >= g + 1: D minus the divisor
    of y - vt, vt = v mod u.  As y - V+ vanishes at inf+, y - vt has a pole
    of order deg r at inf+ and, as y + V+ vanishes at inf-, one of order
    deg(vt + V+) at inf-, which is g + 1 when deg r <= g."""
    field = curve.field
    u, v = D.u, D.v
    r = (curve.Vplus - v) % u
    vt = curve.Vplus - r          # = v mod u
    diff = curve.F - vt * vt
    w = diff.exact_div(u).monic()
    v_new = (-vt) % w if not w.is_constant() else Polynomial.zero(field)
    if r.is_zero():
        raise ArithmeticError("reduction degenerated (F a perfect square?)")
    pole_minus = (curve.g + 1 if r.degree <= curve.g
                  else (vt + curve.Vplus).degree)
    n_plus = D.n_plus + r.degree - w.degree
    n_minus = D.n_minus + pole_minus - w.degree
    return MumfordClass(w, v_new, n_plus, n_minus)


def _reduced(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    while D.u.degree > curve.g:
        D = _reduce_once(curve, D)
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
# Riemann-Roch spaces: the independent class-group oracle
# ---------------------------------------------------------------------------


@dataclass
class WDivisor:
    """div(u1, v1) - div(u2, v2) + n+ inf+ + n- inf- for the semi-reduced
    Mumford pairs pos = (u1, v1) and neg = (u2, v2), u1 and u2 monic."""
    pos: tuple
    neg: tuple
    n_plus: int
    n_minus: int

    def degree(self):
        return (self.pos[0].degree - self.neg[0].degree
                + self.n_plus + self.n_minus)


def divisor_of_class(curve: SplitCurve, D: MumfordClass) -> WDivisor:
    field = curve.field
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    return WDivisor((D.u, D.v), (one, zero), D.n_plus, D.n_minus)


def divisor_difference(D1: MumfordClass, D2: MumfordClass) -> WDivisor:
    return WDivisor((D1.u, D1.v), (D2.u, D2.v),
                    D1.n_plus - D2.n_plus, D1.n_minus - D2.n_minus)


def coeff_vec(poly_for_a, poly_for_b, modulus, na, nb, cols):
    """Payload rows of the conditions A*a + B*b = 0 mod modulus on
    a = sum a_i x^i (i <= na) and b = sum b_i x^i (i <= nb), for
    A = poly_for_a and B = poly_for_b: one row per x^d below deg modulus,
    columns a_i then b_i.  The column of x^i A is x times that of x^(i-1) A,
    reduced mod modulus."""
    F, m = modulus.field, modulus.vals
    zero = F._zero_val()
    rows = [[zero] * cols for _ in range(modulus.degree)]
    for poly, first, count in ((poly_for_a, 0, na + 1),
                               (poly_for_b, na + 1, nb + 1)):
        rem = _rem(F, poly.vals, m)
        for i in range(first, first + count):
            if i > first and rem:
                rem = _rem(F, [zero] + rem, m)
            for d, c in enumerate(rem):
                rows[d][i] = c
    return rows


def rr_space(curve: SplitCurve, div: WDivisor):
    """Basis of L(div) = {h : (h) + div >= 0} as triples (a, b, den) with
    h = (a + b y)/den.

    For div = div(u1, v1) - div(u2, v2) + ..., h u1 is regular on the affine
    part, so it is a + b y, and as div(u1) = div(u1, v1) + iota div(u1, v1)
    it lies in the ideal of iota div(u1, v1) + div(u2, v2).  Cantor's
    composition of (u1, -v1) with (u2, v2) writes that ideal as
    s (u3, y - v3); so den = u1/s, and the affine conditions on
    h = (a + b y)/den are a + b v3 = 0 mod u3."""
    field = curve.field
    (u1, v1), (u2, v2) = div.pos, div.neg
    E, s = _compose(curve, MumfordClass(u1, (-v1) % u1, 0, 0),
                    MumfordClass(u2, v2, 0, 0))
    den = u1.exact_div(s)
    na = den.degree + max(0, div.n_plus, div.n_minus)
    nb = na - (curve.g + 1)
    cols = (na + 1) + (nb + 1 if nb >= 0 else 0)
    if cols <= 0:
        return []

    zero = field._zero_val()
    rows = coeff_vec(Polynomial.one(field), E.v, E.u, na, nb, cols)
    # infinity conditions
    for sign, weight in ((1, div.n_plus), (-1, div.n_minus)):
        w = -weight - den.degree
        top = max(na, nb + curve.g + 1) if nb >= 0 else na
        jmin = -w + 1
        if top < jmin:
            continue
        S = curve.sqrt_series(top - jmin + curve.g + 3)
        for j in range(jmin, top + 1):
            row = [zero] * cols
            if 0 <= j <= na:
                row[j] = field._one_val()
            for i in range(nb + 1):
                row[na + 1 + i] = curve.y_coeff_at_infinity(i, j, sign, S)
            rows.append(row)
    out = []
    for vec in kernel_basis(field, rows, cols):
        a = _poly(field, _trim(vec[:na + 1], zero))
        b = _poly(field, _trim(vec[na + 1:], zero))
        out.append((a, b, den))
    return out


def is_principal(curve: SplitCurve, div: WDivisor) -> bool:
    if div.degree() != 0:
        return False
    return len(rr_space(curve, div)) == 1


def classes_equal(curve: SplitCurve, D1: MumfordClass, D2: MumfordClass) -> bool:
    if (D1.u, D1.v, D1.n_plus, D1.n_minus) == (D2.u, D2.v, D2.n_plus, D2.n_minus):
        return True
    return is_principal(curve, divisor_difference(D1, D2))


# ---------------------------------------------------------------------------
# canonical symmetric presentation of anti-invariant classes
# ---------------------------------------------------------------------------


def _norm_quotient(curve: SplitCurve, a, b, den, div: WDivisor) -> Polynomial:
    """The monic x-projection of the affine part of div(h) + div for
    h = (a + b y)/den and div = div(u1, v1) - div(u2, v2) + ...: the norm
    a^2 - b^2 F times u1, divided exactly by den^2 u2.  The division leaves
    a remainder iff the reduced quotient has a nonconstant denominator."""
    u_s, rem = divmod((a * a - b * b * curve.F) * div.pos[0],
                      den * den * div.neg[0])
    if not rem.is_zero():
        raise ArithmeticError("unexpected denominator in the norm quotient")
    return u_s.monic()


def canonicalize_prym(curve: SplitCurve, D: MumfordClass) -> MumfordClass:
    """The representative (x^2 - A, const, -1, -1) of an anti-invariant class
    (i_* D = -D), or the identity when D ~ 0, from L(D + inf+ + inf-).

    One Riemann-Roch space decides both the identity and the sign.  For
    g >= 2 the only g^1_2 is |inf+ + inf-|, so l(D + inf+ + inf-) >= 2 iff
    D ~ 0: a space of dimension 1 already proves D not principal, and
    `is_principal` runs only otherwise (always for g = 1, where l is 2).
    D and D + inf+ + inf- share their Mumford pairs, hence their one
    composition, so either order of the two spaces raises the same errors.
    When h = (a + b y)/den spans the space, E' = div(h) + D + inf+ + inf-
    is the one effective divisor of the system, its x-projection is u_s,
    and (u_s, c, -1, -1) ~ D iff div(u_s, c) = E'.  If gcd(u_s, den) = 1, no
    point over u_s lies in the support of D or of den, so there E' is the
    zero divisor of a + b y; by Cantor's test (Math. Comp. 48, 1987)
    a + b y vanishes on div(u_s, c) iff u_s | a + b c, and as both divisors
    have degree 2 that is the equality.  Otherwise the sign is tested with
    `classes_equal`.  D need not be reduced: the space, and so the form,
    depends only on the class."""
    field = curve.field
    if not curve.is_even_model():
        raise FieldError("anti-invariant classes need an even model")
    base = divisor_of_class(curve, D)
    lifted = WDivisor(base.pos, base.neg, base.n_plus + 1, base.n_minus + 1)
    space = rr_space(curve, lifted)
    if len(space) != 1:
        if is_principal(curve, base):
            return identity_class(curve)
        raise ArithmeticError("class has no unique degree-2 presentation")
    a, b, den = space[0]
    u_s = _norm_quotient(curve, a, b, den, base)
    if u_s.degree != 2 or not u_s[1].is_zero():
        raise ArithmeticError("class is not anti-invariant (or is special)")
    rem = curve.F % u_s
    if not rem.is_constant():
        raise ArithmeticError("even-model reduction failed")
    b0 = sqrt(rem.constant_coeff())
    disjoint = poly_gcd(u_s, den).is_one()
    for cand in (b0, -b0):
        candidate = MumfordClass(u_s, Polynomial.constant(field, cand), -1, -1)
        if (((a + b * cand) % u_s).is_zero() if disjoint
                else classes_equal(curve, D, candidate)):
            return candidate
    raise ArithmeticError("no matching square root for the symmetric form")
