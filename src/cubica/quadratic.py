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

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Element, FieldError, Polynomial, PrimeField,
                      QuadraticField, RationalFunction, ResidueField,
                      is_square, poly_factor, smallest_nonsquare, sqrt,
                      squarefree_decomposition, trace_to_f2)
from .algebra.quadring import ConstantRing, KummerRing
from .function_field import Place
from .models import CubicModel


# ---------------------------------------------------------------------------
# square classes (characteristic != 2)
# ---------------------------------------------------------------------------


def _squarefree_int(n: int) -> int:
    """Signed squarefree part of an integer."""
    if n == 0:
        raise ZeroDivisionError("square class of zero")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2 == 1:
            out *= d
        d += 1
    return sign * out * n


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
    def of(gamma, seed: int = 0) -> "ASClass":
        if isinstance(gamma, Element):
            gamma = RationalFunction.from_const(gamma.field, gamma)
        if isinstance(gamma, Polynomial):
            gamma = RationalFunction(gamma)
        field = gamma.field
        if field.char != 2:
            raise FieldError("Artin-Schreier classes require characteristic 2")
        return ASClass(_as_reduce(gamma, seed))

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
        return hash(self.gamma)

    def ramified_places(self) -> list:
        """Branch places of z^2 + z = gamma (odd poles of the reduced form)."""
        out = []
        if not self.gamma.den.is_one():
            for p, _ in poly_factor(self.gamma.den):
                out.append(Place.finite(p, check=False))
        if self.gamma.num.degree > self.gamma.den.degree:
            out.append(Place.infinity(self.field))
        return out

    def splits_at(self, place: Place) -> str:
        """'split' | 'inert' | 'ramified' for z^2 + z = gamma at the place."""
        g = self.gamma
        if place.infinite:
            if g.num.degree > g.den.degree:
                return "ramified"
            if g.num.degree < g.den.degree:
                value_trace = 0
            else:
                value_trace = trace_to_f2(g.num.leading() / g.den.leading())
            return "split" if value_trace == 0 else "inert"
        R = place.residue_field
        den_bar = R(g.den)
        if den_bar.is_zero():
            return "ramified"
        return "split" if trace_to_f2(R(g.num) / den_bar) == 0 else "inert"

    def __repr__(self):
        return f"asclass({self.gamma!r})"


def _as_reduce(gamma: RationalFunction, seed: int = 0) -> RationalFunction:
    field = gamma.field
    if gamma.is_zero():
        return gamma
    # finite poles: drive every even pole order up by subtracting (s/p^m)^2 + s/p^m
    changed = True
    while changed:
        changed = False
        if gamma.is_zero():
            break
        for p, mult in poly_factor(gamma.den, seed=seed):
            if mult % 2 != 0:
                continue
            m = mult // 2
            R = ResidueField(p, check=False)
            # leading coefficient of gamma at p: (gamma * p^(2m)) mod p
            scaled = gamma * RationalFunction(p ** (2 * m))
            s = sqrt(R(scaled.num) / R(scaled.den)).val  # unique root in char 2
            h = RationalFunction(s, p ** m)
            gamma = gamma - (h * h + h)
            changed = True
            break
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


@dataclass(frozen=True)
class SplittingResult:
    kind: str
    rho_minus: object = None   # Element of the residue field at p, or of k at infinity
    rho_plus: object = None


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
        elif kind == "artin_schreier":
            if field.char != 2:
                raise FieldError("Artin-Schreier model needs characteristic 2")
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
        return ASClass.of(self.gamma)

    def branch_places(self) -> list:
        """The branch locus S on K."""
        if self.kind == "kummer":
            out = []
            if self.f.degree >= 1:
                if self.field.order is not None:
                    for p, _ in poly_factor(self.f):
                        out.append(Place.finite(p, check=False))
                else:
                    for p, _ in _factor_quadratic_over_q(self.f):
                        out.append(Place.finite(p, check=False))
            if self.f.degree % 2 == 1:
                out.append(Place.infinity(self.field))
            return out
        return ASClass.of(self.gamma).ramified_places()

    # -- splitting ---------------------------------------------------------------

    def split_kind(self, place: Place) -> str:
        """SPLIT, INERT or RAMIFIED at place, decided from squareness alone
        (no square root is taken)."""
        if self.kind == "artin_schreier":
            cls = ASClass.of(self.gamma)
            if place in cls.ramified_places():
                return RAMIFIED
            return cls.splits_at(place)
        f = self.f
        if place.infinite:
            if f.degree % 2 == 1:
                return RAMIFIED
            return SPLIT if is_square(f.leading()) else INERT
        R = place.residue_field
        fbar = R(f)
        if fbar.is_zero():
            return RAMIFIED
        if self.field.order is None:
            raise FieldError("splitting over Q requires caller-certified data")
        return SPLIT if is_square(fbar) else INERT

    def splitting_type(self, place: Place) -> SplittingResult:
        """The splitting kind at place, with the two square roots rho of f
        at it when a Kummer model splits there."""
        kind = self.split_kind(place)
        if kind != SPLIT or self.kind == "artin_schreier":
            return SplittingResult(kind)
        if place.infinite:
            r = sqrt(self.f.leading())
        else:
            r = sqrt(place.residue_field(self.f))
        return SplittingResult(SPLIT, rho_minus=r, rho_plus=-r)

    def canonical_rho(self, place: Place):
        res = self.splitting_type(place)
        if res.kind != SPLIT:
            raise FieldError(f"{place!r} does not split")
        return res.rho_minus

    # -- parametrization -----------------------------------------------------------

    def parametrize(self, point=None):
        if self.kind == "artin_schreier":
            if self.gamma == RationalFunction.x(self.field):
                return ArtinSchreierParametrization(self)
            raise FieldError("only y^2 + y = x is parametrized in characteristic 2")
        if self.is_constant_extension():
            return ConstantParametrization(self)
        return ConicParametrization(self, point=point)

    def __repr__(self):
        if self.kind == "kummer":
            return f"y^2 = {self.f!r}"
        return f"y^2 + y = {self.gamma!r}"


# ---------------------------------------------------------------------------
# parametrizations
# ---------------------------------------------------------------------------


INF_MARK = "inf"


@dataclass(frozen=True)
class Moebius:
    """m -> (a m + b)/(c m + d)."""
    a: Element
    b: Element
    c: Element
    d: Element

    def apply(self, v):
        if v == INF_MARK:
            if self.c.is_zero():
                return INF_MARK
            return self.a / self.c
        den = self.c * v + self.d
        if den.is_zero():
            return INF_MARK
        return (self.a * v + self.b) / den

    def as_rational_function(self, field) -> RationalFunction:
        num = Polynomial(field, [self.b, self.a])
        den = Polynomial(field, [self.d, self.c])
        return RationalFunction(num, den)


class ConicParametrization:
    """K' = K(y), y^2 = f(x) with deg f in {1, 2}: an isomorphism K' = k(m)
    with x = X(m), y = Y(m), the involution sigma as a Moebius map in m and
    m expressed back as an element of K[y]."""

    def __init__(self, model: QuadraticModel, point=None):
        field = model.field
        f = model.f
        self.model = model
        self.field = field
        self.ring = KummerRing(f)
        one = Polynomial.one(field)
        x = Polynomial.x(field)
        if f.degree == 1:
            # y^2 = f1 x + f0: m = y, x = (m^2 - f0)/f1
            f1, f0 = f[1], f[0]
            self.X = RationalFunction((x * x - f0) * f1.inverse())
            self.Y = RationalFunction(x)
            self.sigma = Moebius(-field.one, field.zero, field.zero, field.one)
            self.m_expr = self.ring.gen()
        elif is_square(f.leading()):
            # m = y - s x with s^2 = lc(f); x = (f0 - m^2)/(2 s m - f1)
            s = sqrt(f.leading())
            f1, f0 = f[1], f[0]
            two_s = field(2) * s
            self.X = RationalFunction(-(x * x) + f0, Polynomial(field, [-f1, two_s]))
            self.Y = RationalFunction(x) + self.X * s
            self.sigma = Moebius(f1, -two_s * f0, two_s, -f1)
            self.m_expr = self.ring.element(
                RationalFunction(Polynomial(field, [field.zero, -s])),
                RationalFunction(one))
        else:
            # slope parametrization through an affine point (x0, y0), y0 != 0
            x0, y0 = self._find_point(point)
            f2, f1 = f[2], f[1]
            fp = field(2) * f2 * x0 + f1   # f'(x0)
            t = RationalFunction(Polynomial(field, [fp, -field(2) * y0]),
                                 Polynomial(field, [-f2, field.zero, field.one]))
            self.X = t + x0
            self.Y = RationalFunction(x) * t + y0
            self.sigma = Moebius(-fp, field(2) * f2 * y0, -field(2) * y0, fp)
            # m = (y - y0)/(x - x0)
            self.m_expr = self.ring.element(
                RationalFunction(Polynomial.constant(field, -y0),
                                 Polynomial(field, [-x0, field.one])),
                RationalFunction(one, Polynomial(field, [-x0, field.one])))
        self._check()

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
        # Y(m)^2 = f(X(m)) and sigma is an involution with X o sigma = X
        f = self.model.f
        lhs = self.Y * self.Y
        rhs = RationalFunction(f).compose(self.X)
        if lhs != rhs:
            raise ArithmeticError("parametrization does not satisfy the model")
        sig = self.sigma.as_rational_function(self.field)
        if self.X.compose(sig) != self.X:
            raise ArithmeticError("involution does not fix x")
        if sig.compose(sig) != RationalFunction.x(self.field):
            raise ArithmeticError("sigma is not an involution")

    # -- places of the m-line ---------------------------------------------------

    def infinity_pullback(self):
        """Divisor of poles of X(m) on the m-line as {place: mult}."""
        out = {}
        den = self.X.den
        if den.degree >= 1:
            if self.field.order is not None:
                for p, m in poly_factor(den):
                    out[Place.finite(p, check=False)] = m
            else:
                for p, m in _factor_quadratic_over_q(den):
                    out[Place.finite(p, check=False)] = m
        plus = self.X.num.degree - den.degree
        if plus > 0:
            out[Place.infinity(self.field)] = plus
        return out

    def sigma_fixed_points(self):
        """Rational fixed points of sigma on the m-line (the ramification
        points), each with the x-coordinate of the branch place below."""
        s = self.sigma
        field = self.field
        out = []
        if s.c.is_zero():
            if s.a == s.d:
                raise ArithmeticError("sigma is the identity")
            # fixed: infinity and b/(d - a)
            out.append((INF_MARK, _value_at(self.X, INF_MARK)))
            v = s.b / (s.d - s.a)
            out.append((v, _value_at(self.X, v)))
        else:
            # c m^2 + (d - a) m - b = 0
            a, b, c, d = s.a, s.b, s.c, s.d
            disc = (d - a) * (d - a) + field(4) * c * b
            if is_square(disc):
                r = sqrt(disc)
                for sgn in (r, -r):
                    v = (a - d + sgn) / (field(2) * c)
                    out.append((v, _value_at(self.X, v)))
        return out

    def upstairs_place(self, place: Place, rho):
        """The place of the m-line above `place` selected by the residue rho
        of y; returns a Place over k (polynomial in m) or an infinite place."""
        field = self.field
        if place.infinite:
            # match rho against the residue of y/x at the poles of X
            candidates = list(self.infinity_pullback().keys())
            ratio = self.Y / self.X
            for cand in candidates:
                val = _value_at_place(ratio, cand)
                if val is not None and val == rho:
                    return cand
            raise ArithmeticError("no pole of X matches the sign choice at infinity")
        R = place.residue_field
        a_num, a_den = self.m_expr.a.num, self.m_expr.a.den
        b_num, b_den = self.m_expr.b.num, self.m_expr.b.den
        ad, bd = R(a_den), R(b_den)
        if ad.is_zero() or bd.is_zero():
            # m has its single pole above this place; only possible in degree 1
            return self._upstairs_degree_one_special(place, rho)
        mbar = R(a_num) / ad + R(b_num) / bd * rho
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
        y0 = -self.m_expr.a.num.evaluate(x0)
        if rho.val.constant_coeff() == y0:
            # 0/0 at the center of projection: the tangent slope f'(x0)/(2 y0)
            val = self.model.f.derivative().evaluate(x0) / (field(2) * y0)
            return Place.finite(Polynomial(field, [-val, field.one]), check=False)
        return Place.infinity(field)

    def sigma_place(self, place: Place) -> Place:
        """Image of a degree-one m-line place under sigma."""
        if place.infinite:
            v = self.sigma.apply(INF_MARK)
        else:
            if place.degree != 1:
                raise FieldError("sigma_place implemented for degree-one places")
            v = self.sigma.apply(-place.poly[0])
        if v == INF_MARK:
            return Place.infinity(self.field)
        return Place.finite(Polynomial(self.field, [-v, self.field.one]), check=False)


def _factor_quadratic_over_q(den: Polynomial):
    """Factor a polynomial of degree <= 2 over Q by the quadratic formula."""
    field = den.field
    if den.degree <= 1:
        return [(den.monic(), 1)]
    a, b, c = den[2], den[1], den[0]
    disc = b * b - field(4) * a * c
    if is_square(disc):
        r = sqrt(disc)
        m1 = (-b + r) / (field(2) * a)
        m2 = (-b - r) / (field(2) * a)
        if m1 == m2:
            return [(Polynomial(field, [-m1, field.one]), 2)]
        return [(Polynomial(field, [-m1, field.one]), 1),
                (Polynomial(field, [-m2, field.one]), 1)]
    return [(den.monic(), 1)]


def _value_at(rf: RationalFunction, v):
    if v == INF_MARK:
        d = rf.degree_at_infinity()
        if d > 0:
            return rf.field.zero
        if d < 0:
            return INF_MARK
        return rf.num.leading() / rf.den.leading()
    den = rf.den.evaluate(v)
    if den.is_zero():
        return INF_MARK
    return rf.num.evaluate(v) / den


def _value_at_place(rf: RationalFunction, place: Place):
    """Residue of rf at a place of the m-line (None on a pole)."""
    if place.infinite:
        v = _value_at(rf, INF_MARK)
        return None if v == INF_MARK else v
    R = place.residue_field
    den = R(rf.den)
    if den.is_zero():
        return None
    val = R(rf.num) / den
    if place.degree == 1:
        return val.val.constant_coeff()
    return val


class ConstantParametrization:
    """K' = qK for the constant quadratic extension q/k: the coordinate is x
    itself and sigma acts on constants."""

    def __init__(self, model: QuadraticModel):
        field = model.field
        self.model = model
        self.field = field
        if not isinstance(field, PrimeField):
            raise FieldError("quadratic extensions are only built over prime fields")
        d = model.f.constant_coeff()
        self.d = d
        self.qfield = canonical_quadratic_field(field)
        self.ring = ConstantRing(self.qfield, d)

    def upstairs_place(self, place: Place, rho) -> Polynomial:
        """The monic irreducible factor of the place polynomial over q picked
        by the embedding sqrt(d) -> rho; returned as a polynomial over q."""
        if place.infinite:
            raise FieldError("infinity is inert in a constant extension")
        q = self.qfield
        pq = place.poly.map_coeffs(q, q)
        rho_lift = rho.val.map_coeffs(q, q)
        from .algebra.poly import poly_gcd
        g = poly_gcd(pq, rho_lift - Polynomial.constant(q, self.ring.root_d))
        if 2 * g.degree != place.degree:
            raise ArithmeticError("sign choice does not pick out a conjugate factor")
        return g

    def conj_poly(self, poly: Polynomial) -> Polynomial:
        return poly.map_coeffs(self.qfield.conj, self.qfield)


class ArtinSchreierParametrization:
    """y^2 + y = x in characteristic 2: m = y, x = m^2 + m, sigma(m) = m + 1."""

    def __init__(self, model: QuadraticModel):
        field = model.field
        self.model = model
        self.field = field
        x = Polynomial.x(field)
        self.X = RationalFunction(x * x + x)
        self.Y = RationalFunction(x)
        self.sigma = Moebius(field.one, field.one, field.zero, field.one)


def canonical_quadratic_field(field: PrimeField) -> QuadraticField:
    """F_p[t]/(t^2 - a t - b) for the first irreducible t^2 - a t - b, b
    varying fastest: the F_{p^2} of a 'p^2' field spec and of a constant
    extension."""
    for a in range(field.p):
        for b in range(field.p):
            try:
                return QuadraticField(field, a, b)
            except FieldError:
                pass
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
