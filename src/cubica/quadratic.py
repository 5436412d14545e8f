"""Genus-zero quadratic extensions K'/K of K = k(x): canonical square /
Artin-Schreier class data, branch loci, splitting of places, rational-point
parametrizations with the explicit involution, complementary extensions,
and the quadratic invariants (closure and resolvent) of cubic models.

Square classes are canonicalized as c * m(x) with m monic squarefree and c
a fixed class representative of k^*/(k^*)^2 (1 or the smallest non-square
for finite k; the signed squarefree integer over Q).  Characteristic-2
quadratic data is an Artin-Schreier class, reduced so that every pole has
odd order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import (Element, FieldError, Polynomial, PrimeField,
                      RationalFunction, ResidueField, is_irreducible,
                      is_square, poly_gcd, smallest_nonsquare,
                      sqrt, squarefree_decomposition, trace_to_f2)
from .algebra.fields import _factor_int
from .algebra.poly import _add, _mul, _poly
from .function_field import Place, place_factors, pole_divisor, value_at
from .models import CubicModel


# ---------------------------------------------------------------------------
# square classes (characteristic != 2)
# ---------------------------------------------------------------------------


def _squarefree_int(n: int) -> int:
    """Signed squarefree part of an integer."""
    if n == 0:
        raise ZeroDivisionError("square class of zero")
    out = -1 if n < 0 else 1
    for r, e in _factor_int(abs(n)):
        if e % 2:
            out *= r
    return out


def canonical_square_const(c: Element) -> Element:
    """Class representative of c in k^*/(k^*)^2."""
    field = c.field
    if c.is_zero():
        raise ZeroDivisionError("square class of zero")
    if field.order is None:
        v = c.val
        return field(Fraction(_squarefree_int(v.numerator * v.denominator)))
    if field.char == 2:
        return field.one
    if is_square(c):
        return field.one
    return smallest_nonsquare(field)


class SquareClass:
    """d in K^* modulo squares, canonicalized as const * monic squarefree."""

    __slots__ = ("field", "const", "poly")

    def __init__(self, const: Element, poly: Polynomial):
        self.field = const.field
        self.const = const
        self.poly = poly

    @staticmethod
    def of(d) -> "SquareClass":
        if isinstance(d, Element):
            d = RationalFunction.from_const(d.field, d)
        if isinstance(d, Polynomial):
            d = RationalFunction(d)
        if d.is_zero():
            raise ZeroDivisionError("square class of zero")
        field = d.field
        if field.char == 2:
            raise FieldError("square classes require characteristic != 2")
        prod = d.num * d.den
        lc = prod.leading()
        odd = Polynomial.one(field)
        for g, m in squarefree_decomposition(prod):
            if m % 2 == 1:
                odd = odd * g
        return SquareClass(canonical_square_const(lc), odd)

    @staticmethod
    def trivial(field) -> "SquareClass":
        return SquareClass(field.one, Polynomial.one(field))

    def is_trivial(self) -> bool:
        return self.const.is_one() and self.poly.is_one()

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        rep = RationalFunction(self.poly * other.poly) * self.const * other.const
        return SquareClass.of(rep)

    def __eq__(self, other):
        return (isinstance(other, SquareClass) and self.const == other.const
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.const._hash_val(), hash(self.poly)))

    def is_constant_class(self) -> bool:
        return self.poly.is_one()

    def __repr__(self):
        return f"sqclass({self.const!r} * {self.poly!r})"


# ---------------------------------------------------------------------------
# Artin-Schreier classes (characteristic 2)
# ---------------------------------------------------------------------------


def nonsplit_as_constant(field) -> Element:
    """Smallest constant a with z^2 + z = a irreducible over k."""
    for e in field.elements():
        if trace_to_f2(e) == 1:
            return e
    raise FieldError("no trace-1 constant found")


class ASClass:
    """gamma in K modulo the Artin-Schreier operator h -> h^2 + h.

    Stored reduced: every finite pole of odd order, polynomial part with an
    odd-degree leading term plus a constant normalized to 0 or the field's
    canonical trace-1 element.
    """

    __slots__ = ("field", "gamma")

    def __init__(self, gamma: RationalFunction):
        self.field = gamma.field
        self.gamma = gamma

    @staticmethod
    def of(gamma) -> "ASClass":
        if isinstance(gamma, Element):
            gamma = RationalFunction.from_const(gamma.field, gamma)
        if isinstance(gamma, Polynomial):
            gamma = RationalFunction(gamma)
        field = gamma.field
        if field.char != 2:
            raise FieldError("Artin-Schreier classes require characteristic 2")
        return ASClass(_as_reduce(gamma))

    @staticmethod
    def trivial(field) -> "ASClass":
        return ASClass(RationalFunction.zero(field))

    def is_trivial(self) -> bool:
        if not self.gamma.den.is_one():
            return False
        if self.gamma.num.degree > 0:
            return False
        c = self.gamma.num.constant_coeff()
        return trace_to_f2(c) == 0 if not c.is_zero() else True

    def __add__(self, other: "ASClass") -> "ASClass":
        return ASClass.of(self.gamma + other.gamma)

    def __eq__(self, other):
        return isinstance(other, ASClass) and (self + other).is_trivial()

    def __hash__(self):
        # only what _as_reduce makes a class invariant: every pole order is
        # odd, so equal classes share the denominator and the degree of the
        # polynomial part (gamma itself is not unique: x^2 ~ x)
        g = self.gamma
        return hash((self.field, g.den, max(g.num.degree - g.den.degree, 0)))

    def ramified_places(self) -> list:
        """Branch places of z^2 + z = gamma (odd poles of the reduced form)."""
        return list(pole_divisor(self.gamma))

    def splits_at(self, place: Place) -> str:
        """'split' | 'inert' | 'ramified' for z^2 + z = gamma at the place."""
        value = value_at(self.gamma, place)
        if value is None:
            return "ramified"
        return "split" if trace_to_f2(value) == 0 else "inert"

    def __repr__(self):
        return f"asclass({self.gamma!r})"


def _as_reduce(gamma: RationalFunction) -> RationalFunction:
    field = gamma.field
    if gamma.is_zero():
        return gamma
    # finite poles: drive every even pole order up by subtracting (s/p^m)^2 + s/p^m
    while not gamma.is_zero():
        even = place_factors(gamma.den, used=lambda mult: mult % 2 == 0)
        if not even:
            break
        place, mult = even[0]
        p, m, R = place.poly, mult // 2, place.residue_field
        # leading coefficient of gamma at p: (gamma * p^(2m)) mod p
        scaled = gamma * RationalFunction(p ** (2 * m))
        s = R.lift(sqrt(R(scaled.num) / R(scaled.den)))  # unique root in char 2
        h = RationalFunction(s, p ** m)
        gamma = gamma - (h * h + h)
    # polynomial part: kill even-degree leading terms >= 2
    while True:
        num, den = gamma.num, gamma.den
        if den.degree >= num.degree or num.is_zero():
            break
        polypart, _ = divmod(num, den)
        d = polypart.degree
        if d <= 0 or d % 2 == 1:
            break
        s = sqrt(polypart.leading())
        h = RationalFunction(Polynomial(field, [field.zero] * (d // 2) + [s]))
        gamma = gamma - (h * h + h)
    # constant normalization
    num, den = gamma.num, gamma.den
    if not num.is_zero() and den.degree <= num.degree:
        polypart, rem = divmod(num, den)
        c = polypart.constant_coeff()
    else:
        polypart = Polynomial.zero(field)
        c = field.zero
    if not c.is_zero():
        if trace_to_f2(c) == 0:
            gamma = gamma - c
        else:
            a0 = nonsplit_as_constant(field)
            if c != a0:
                # c ~ a0 since both have trace 1
                gamma = gamma - c + a0
    return gamma


# ---------------------------------------------------------------------------
# quadratic models
# ---------------------------------------------------------------------------


INERT = "inert"
SPLIT = "split"
RAMIFIED = "ramified"


class QuadraticModel:
    """A (geometric or constant) quadratic extension of K = k(x) of genus 0.

    Characteristic != 2: y^2 = f(x), f squarefree of degree <= 2 (degree 0
    means the constant extension by a non-square).  Characteristic 2:
    y^2 + y = gamma with gamma = x or a trace-1 constant.
    """

    def __init__(self, kind: str, field, f: Polynomial = None,
                 gamma: RationalFunction = None):
        self.kind = kind
        self.field = field
        self.f = f
        self.gamma = gamma
        self._par = None
        if kind == "kummer":
            if field.char == 2:
                raise FieldError("Kummer quadratic model needs characteristic != 2")
            if f.is_zero() or f.degree > 2:
                raise FieldError("genus-zero model needs nonzero f of degree <= 2")
            if f.degree >= 1:
                for _, m in squarefree_decomposition(f):
                    if m > 1:
                        raise FieldError("f must be squarefree")
            if f.degree == 0 and is_square(f.constant_coeff()):
                raise FieldError("constant extension needs a non-square")
            self._branch = [place for place, _ in place_factors(f, _q_hints(f))]
            if f.degree % 2 == 1:
                self._branch.append(Place.infinity(field))
        elif kind == "artin_schreier":
            if field.char != 2:
                raise FieldError("Artin-Schreier model needs characteristic 2")
            self._as_class = ASClass.of(gamma)
            self._branch = self._as_class.ramified_places()
        else:
            raise FieldError(f"unknown quadratic model kind {kind!r}")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def kummer(f: Polynomial) -> "QuadraticModel":
        return QuadraticModel("kummer", f.field, f=f)

    @staticmethod
    def constant(field, d: Element) -> "QuadraticModel":
        return QuadraticModel.kummer(Polynomial.constant(field, d))

    @staticmethod
    def artin_schreier_x(field) -> "QuadraticModel":
        return QuadraticModel("artin_schreier", field,
                              gamma=RationalFunction.x(field))

    @staticmethod
    def artin_schreier_const(field, a: Element) -> "QuadraticModel":
        return QuadraticModel("artin_schreier", field,
                              gamma=RationalFunction.from_const(field, a))

    # -- class data ------------------------------------------------------------

    def is_constant_extension(self) -> bool:
        if self.kind == "kummer":
            return self.f.degree == 0
        return self.gamma.is_constant()

    def is_trivial(self) -> bool:
        return self.class_data().is_trivial()

    def class_data(self):
        if self.kind == "kummer":
            return SquareClass.of(self.f)
        return self._as_class

    def branch_places(self) -> list:
        """The branch locus S on K, found when the model is built."""
        return list(self._branch)

    # -- splitting ---------------------------------------------------------------

    def split_kind(self, place: Place) -> str:
        """SPLIT, INERT or RAMIFIED at place, decided from squareness alone
        (no square root is taken)."""
        if self.kind == "artin_schreier":
            if place in self._branch:
                return RAMIFIED
            return self._as_class.splits_at(place)
        fbar = self._residue(place)
        if fbar is None:
            return RAMIFIED
        return SPLIT if is_square(fbar) else INERT

    def canonical_rho(self, place: Place):
        """The residue rho of y at a split place, decided by the square root
        itself: sqrt of f at a finite place, of lc(f) at infinity, None for
        an Artin-Schreier model.  FieldError where the place does not split."""
        if self.kind == "artin_schreier":
            if self.split_kind(place) != SPLIT:
                raise FieldError(f"{place!r} does not split")
            return None
        fbar = self._residue(place)
        if fbar is not None:
            try:
                return sqrt(fbar)
            except FieldError:
                pass
        raise FieldError(f"{place!r} does not split")

    def _residue(self, place: Place):
        """`kummer_residue` of f, refused at a finite place over Q, where
        squareness in the residue field is not decided."""
        fbar = kummer_residue(self.f, place)
        if fbar is not None and not place.infinite and self.field.order is None:
            raise FieldError("splitting over Q requires caller-certified data")
        return fbar

    # -- parametrization -----------------------------------------------------------

    def parametrize(self, point=None):
        """The parametrization of K'; the one through the default point is
        built once per model."""
        if self.kind == "artin_schreier":
            raise FieldError("characteristic-2 models are not parametrized")
        if point is not None and not self.is_constant_extension():
            return ConicParametrization(self, point=point)
        if self._par is None:
            self._par = (ConstantParametrization(self) if self.is_constant_extension()
                         else ConicParametrization(self))
        return self._par

    def __repr__(self):
        if self.kind == "kummer":
            return f"y^2 = {self.f!r}"
        return f"y^2 + y = {self.gamma!r}"


def kummer_residue(f: Polynomial, place: Place):
    """f at a finite place, lc(f) at infinity when deg f is even: the
    constant whose squareness decides how the place splits in y^2 = f;
    None where the place ramifies."""
    if place.infinite:
        return f.leading() if f.degree % 2 == 0 else None
    fbar = place.residue_field(f)
    return None if fbar.is_zero() else fbar


# ---------------------------------------------------------------------------
# parametrizations
# ---------------------------------------------------------------------------


class ConicParametrization:
    """K' = K(y), y^2 = f(x) with deg f in {1, 2}: an isomorphism K' = k(m)
    with x = X(m), y = Y(m), the involution sigma as a rational function of
    degree one in m, and m expressed back as m = (P + y)/D with P, D in
    k[x], stored as the pair `m`.

    Every value the descent reads off the m-line is built here, once per
    parametrization.  When it is built: `infinity_pullback`, the divisor of
    poles of X as {place: mult}, and `y_over_x`, the function Y/X whose
    residues tell the poles of X apart.  On first use: `m_powers`, the
    payload pairs (A_i, B_i) with (P + y)^i = A_i + B_i y that `at_m`
    extends; `stable_place`, the odd case's Galois-stable point; and
    `mirror`, case_2b's mirror function.  `upstairs_place` is the one map
    from places of K to the m-line."""

    def __init__(self, model: QuadraticModel, point=None):
        field = model.field
        f = model.f
        self.model = model
        self.field = field
        one = Polynomial.one(field)
        x = Polynomial.x(field)
        if f.degree == 1:
            # y^2 = f1 x + f0: m = y, x = (m^2 - f0)/f1
            f1, f0 = f[1], f[0]
            self.X = RationalFunction((x * x - f0) * f1.inverse())
            self.Y = RationalFunction(x)
            self.sigma = RationalFunction(-x)
            self.m = (Polynomial.zero(field), one)
        elif is_square(f.leading()):
            # m = y - s x with s^2 = lc(f); x = (f0 - m^2)/(2 s m - f1)
            s = sqrt(f.leading())
            f1, f0 = f[1], f[0]
            two_s = field(2) * s
            self.X = RationalFunction(-(x * x) + f0, Polynomial(field, [-f1, two_s]))
            self.Y = RationalFunction(x) + self.X * s
            self.sigma = RationalFunction(Polynomial(field, [-two_s * f0, f1]),
                                          Polynomial(field, [-f1, two_s]))
            self.m = (Polynomial(field, [field.zero, -s]), one)
        else:
            # slope parametrization through an affine point (x0, y0), y0 != 0
            x0, y0 = self._find_point(point)
            f2, f1 = f[2], f[1]
            fp = field(2) * f2 * x0 + f1   # f'(x0)
            t = RationalFunction(Polynomial(field, [fp, -field(2) * y0]),
                                 Polynomial(field, [-f2, field.zero, field.one]))
            self.X = t + x0
            self.Y = RationalFunction(x) * t + y0
            self.sigma = RationalFunction(Polynomial(field, [field(2) * f2 * y0, -fp]),
                                          Polynomial(field, [fp, -field(2) * y0]))
            # m = (y - y0)/(x - x0)
            self.m = (Polynomial.constant(field, -y0),
                      Polynomial(field, [-x0, field.one]))
        self._check()
        self.infinity_pullback = pole_divisor(self.X, _q_hints(self.X.den))
        self.y_over_x = self.Y / self.X
        self.m_powers = [([field._one_val()], [])]

    def _find_point(self, point):
        field = self.field
        f = self.model.f
        if point is not None:
            x0, y0 = field(point[0]), field(point[1])
        else:
            if field.order is None:
                raise FieldError("parametrizing a pointless-looking conic over Q "
                                 "needs a caller-supplied rational point")
            x0 = y0 = None
            for e in field.elements():
                v = f.evaluate(e)
                if not v.is_zero() and is_square(v):
                    x0, y0 = e, sqrt(v)
                    break
            if x0 is None:
                raise FieldError("no affine rational point off the branch locus")
        if y0.is_zero() or f.evaluate(x0) != y0 * y0:
            raise FieldError("invalid rational point for parametrization")
        return x0, y0

    def _check(self):
        # Y(m)^2 = f(X(m)) and sigma is an involution other than the
        # identity with X o sigma = X
        f = self.model.f
        lhs = self.Y * self.Y
        rhs = RationalFunction(f).compose(self.X)
        if lhs != rhs:
            raise ArithmeticError("parametrization does not satisfy the model")
        sig = self.sigma
        if self.X.compose(sig) != self.X:
            raise ArithmeticError("involution does not fix x")
        m = RationalFunction.x(self.field)
        if sig == m:
            raise ArithmeticError("sigma is the identity")
        if sig.compose(sig) != m:
            raise ArithmeticError("sigma is not an involution")

    # -- places and functions of the m-line -------------------------------------

    @cached_property
    def stable_place(self):
        """The Galois-stable degree-one place of the m-line that takes
        theta's poles in the odd case: the point above a degree-one branch
        place b of K, where y = 0 (so rho = 0).  b is infinity when it
        branches, else the root of f smallest by the field's sort key; None
        when no branch place has degree one, and then sigma fixes no
        rational point."""
        ones = [b for b in self.model.branch_places() if b.degree == 1]
        if not ones:
            return None
        # () sorts before every key, so infinity comes first
        b = min(ones, key=lambda b: () if b.infinite else (-b.poly[0]).sort_key())
        return self.upstairs_place(
            b, self.field.zero if b.infinite else b.residue_field.zero)

    @cached_property
    def mirror(self):
        """(l, c) for case_2b, where sigma moves infinity: the triple of
        l = 1/(m - sigma(infinity)), with div(l) = kappa^- - kappa^+ for
        kappa^- = infinity and the finite kappa^+ = sigma(infinity), rescaled
        so that the constant c = l * sigma(l) is the canonical square-class
        representative."""
        field = self.field
        kappa_plus = Polynomial(field, [-value_at(self.sigma, Place.infinity(field)),
                                        field.one])
        U, V, N = self.at_m(RationalFunction(Polynomial.one(field), kappa_plus))
        c0 = _norm((U, V, N), self.model.f,
                   "l * sigma(l) is not constant (internal error)")
        c = canonical_square_const(c0)
        s = sqrt(c / c0)
        return (U * s, V * s, N), c

    def upstairs_place(self, place: Place, rho):
        """The place of the m-line above `place` selected by the residue rho
        of y; returns a Place over k (polynomial in m) or an infinite place."""
        field = self.field
        if place.infinite:
            # match rho against the residue of y/x at the poles of X
            for cand in self.infinity_pullback:
                val = value_at(self.y_over_x, cand)
                if val is not None and val == rho:
                    return cand
            raise ArithmeticError("no pole of X matches the sign choice at infinity")
        R = place.residue_field
        P, D = self.m
        dbar = R(D)
        if dbar.is_zero():
            # m has its single pole above this place; only possible in degree 1
            return self._upstairs_degree_one_special(place, rho)
        mbar = (R(P) + rho) / dbar
        mp = R.min_poly(mbar)
        if mp.degree != place.degree:
            raise ArithmeticError("residue of m does not generate the residue field")
        return Place.finite(mp, check=False)

    def _upstairs_degree_one_special(self, place: Place, rho):
        # Only the slope parametrization m = (y - y0)/(x - x0) has a pole in
        # its defining expressions, at the center (x0, +-y0) itself.
        if place.degree != 1:
            raise ArithmeticError("m-pole above a place of degree > 1")
        field = self.field
        x0 = -place.poly[0]
        y0 = -self.m[0].evaluate(x0)
        if place.residue_field.lift(rho).constant_coeff() == y0:
            # 0/0 at the center of projection: the tangent slope f'(x0)/(2 y0)
            val = self.model.f.derivative().evaluate(x0) / (field(2) * y0)
            return Place.finite(Polynomial(field, [-val, field.one]), check=False)
        return Place.infinity(field)

    def at_m(self, rf: RationalFunction):
        """rf(m) for m = (P + y)/D in K' = K(y), y^2 = f, as the triple
        (U, V, N) with rf(m) = (U + V y)/N.

        With n = max(deg num, deg den), num(m) and den(m) times D^n are the
        sums c_i (A_i + B_i y) D^(n-i) over the powers (P + y)^i = A_i + B_i y
        reduced by y^2 = f: scalar multiples added on payload lists, with a
        Horner pass in D on the slope chart, where D = x - x0 is not 1.  The
        powers are the list `m_powers`, extended to n + 1 entries when it is
        shorter.  Dividing by A_2 + B_2 y through its norm
        N = A_2^2 - B_2^2 f leaves U = A_1 A_2 - B_1 B_2 f, V = B_1 A_2 - A_1 B_2.
        Nothing is reduced to normal form on the way."""
        f = self.model.f
        F, zero = self.field, self.field._zero_val()
        P, D = (g.vals for g in self.m)
        n = max(rf.num.degree, rf.den.degree, 0)
        pows = self.m_powers
        while len(pows) <= n:
            A, B = pows[-1]
            pows.append((_add(F, _mul(F, A, P), _mul(F, B, f.vals)),
                         _add(F, A, _mul(F, B, P))))

        def homogenized(poly):
            A = B = []
            for i, (Ai, Bi) in zip(range(n + 1), pows):
                if len(D) > 1:   # the slope chart
                    A, B = _mul(F, A, D), _mul(F, B, D)
                c = poly.vals[i] if i <= poly.degree else zero
                if c != zero:
                    A, B = _add(F, A, _mul(F, [c], Ai)), _add(F, B, _mul(F, [c], Bi))
            return _poly(F, A), _poly(F, B)

        a1, b1 = homogenized(rf.num)
        a2, b2 = homogenized(rf.den)
        return (a1 * a2 - b1 * b2 * f, b1 * a2 - a1 * b2,
                a2 * a2 - b2 * b2 * f)


def _norm(t, f, message):
    """The norm t * sigma(t) = (U^2 - V^2 f)/N^2 of t = (U + V y)/N in
    K' = K(y), y^2 = f, which must be a constant; ArithmeticError(message)
    when it is not."""
    U, V, N = t
    num, den = U * U - V * V * f, N * N
    lam = num.leading() / den.leading()
    if num != den * lam:
        raise ArithmeticError(message)
    return lam


def _q_hints(poly: Polynomial):
    """The place hints `place_factors` needs for a polynomial of degree <= 2
    over Q: its monic irreducible factors, the linear ones from the
    quadratic formula's roots.  None over a finite field, which needs none."""
    field = poly.field
    if field.order is not None:
        return None
    if poly.degree <= 1:
        return [poly.monic()]
    a, b, c = poly[2], poly[1], poly[0]
    disc = b * b - field(4) * a * c
    if not is_square(disc):
        return [poly.monic()]
    r = sqrt(disc)
    return [Polynomial(field, [(b - s) / (field(2) * a), field.one]) for s in (r, -r)]


class ConstantParametrization:
    """K' = qK for the constant quadratic extension q = k(sqrt(d)) of k: the
    coordinate is x itself, sigma acts on constants, and the line of K' is
    q(x), with `infinity_pullback` its infinity."""

    def __init__(self, model: QuadraticModel):
        field = model.field
        self.model = model
        self.field = field
        if not isinstance(field, PrimeField):
            raise FieldError("quadratic extensions are only built over prime fields")
        self.d = model.f.constant_coeff()
        self.qfield = canonical_quadratic_field(field)
        self.root_d = sqrt(self.qfield(self.d.val))
        self.infinity_pullback = {Place.infinity(self.qfield): 1}

    def split(self, e: Element):
        """(e0, e1) over k with e = e0 + e1 sqrt(d) for e in q."""
        c, r = self.qfield.lift(e), self.qfield.lift(self.root_d)
        e1 = c[1] / r[1]
        return c[0] - e1 * r[0], e1

    def upstairs_place(self, place: Place, rho) -> Place:
        """The place of q(x) above `place` picked by the embedding sqrt(d)
        -> rho: the monic irreducible factor over q of the place polynomial."""
        if place.infinite:
            raise FieldError("infinity is inert in a constant extension")
        q = self.qfield
        pq = place.poly.map_coeffs(q, q)
        rho_lift = place.residue_field.lift(rho).map_coeffs(q, q)
        g = poly_gcd(pq, rho_lift - Polynomial.constant(q, self.root_d))
        if 2 * g.degree != place.degree:
            raise ArithmeticError("sign choice does not pick out a conjugate factor")
        return Place.finite(g, check=False)

    def at_m(self, rf: RationalFunction):
        """rf over q(x) as the triple (A, B, 1) with rf = A + B sqrt(d), A
        and B over k(x), for rf with denominator 1: the only shape of theta
        the even case builds over qK."""
        if not rf.den.is_one():
            raise ArithmeticError("theta over qK has a denominator (internal error)")
        parts = [self.split(e) for e in rf.num.coeffs]
        return (Polynomial(self.field, [a for a, _ in parts]),
                Polynomial(self.field, [b for _, b in parts]),
                Polynomial.one(self.field))


def canonical_quadratic_field(field: PrimeField) -> ResidueField:
    """F_p[t]/(t^2 - a t - b) for the first irreducible t^2 - a t - b, b
    varying fastest: the F_{p^2} of a 'p^2' field spec and of a constant
    extension.  Built once per PrimeField object, which keeps it, so the
    constant closures over one field share its cached smallest non-square."""
    R = getattr(field, "_quadratic", None)
    if R is not None:
        return R
    for a in range(field.p):
        for b in range(field.p):
            m = Polynomial(field, [-b, -a, 1])
            if is_irreducible(m):
                field._quadratic = R = ResidueField(m, check=False)
                return R
    raise FieldError("no irreducible quadratic found")


# ---------------------------------------------------------------------------
# complementary extension and cubic invariants
# ---------------------------------------------------------------------------


def complementary(q1, q2):
    """The third entry of the subfield lattice generated by two degree <= 2
    extensions: the product of square classes (or sum of AS classes)."""
    if isinstance(q1, SquareClass) and isinstance(q2, SquareClass):
        return q1 * q2
    if isinstance(q1, ASClass) and isinstance(q2, ASClass):
        return q1 + q2
    raise FieldError("mismatched quadratic data")


def zeta3_class(field):
    """The class of K(zeta_3) over K: sqrt(-3) in characteristic != 2 and
    the constant Artin-Schreier class of 1 in characteristic 2 (trivial
    exactly when zeta_3 already lies in k)."""
    if field.char == 2:
        return ASClass.of(RationalFunction.from_const(field, field.one))
    return SquareClass.of(RationalFunction.from_const(field, field(-3)))


def purely_cubic_closure(model: CubicModel):
    """The quadratic class over which the model becomes purely cubic: trivial
    for y^3 = beta; the class of alpha^2 - 4c^3 for y^3 = 3c y + alpha
    (c^3/alpha^2 as an AS class in characteristic 2)."""
    field = model.base
    if model.kind == "pure":
        if field.char == 2:
            return ASClass.trivial(field)
        return SquareClass.trivial(field)
    c3 = model.c ** 3
    if field.char == 2:
        if model.alpha.is_zero():
            raise FieldError("degenerate model: alpha = 0")
        return ASClass.of(RationalFunction.from_const(field, c3) / (model.alpha * model.alpha))
    disc = model.alpha * model.alpha - field(4) * c3
    if disc.is_zero():
        raise FieldError("degenerate model: alpha^2 = 4c^3")
    return SquareClass.of(disc)


def resolvent(model: CubicModel):
    """The quadratic class cutting out the Galois closure: complementary to
    the purely cubic closure and K(zeta_3)."""
    return complementary(purely_cubic_closure(model), zeta3_class(model.base))


def classify(model: CubicModel):
    """(purely_cubic, galois) over a finite base field."""
    return purely_cubic_closure(model).is_trivial(), resolvent(model).is_trivial()
