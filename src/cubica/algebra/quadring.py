"""Arithmetic in a quadratic extension K' of K = k(x).

Two shapes:
  * KummerRing: K' = K(y), y^2 = f(x) with f in k[x] (nonconstant model);
    elements are pairs (A, B) of rational functions meaning A + B*y.  They
    multiply but do not divide: the descent evaluates theta(m) and
    sigma(theta)/theta as pairs of polynomials over k[x][y] and reduces
    each part to normal form once (`descent._at_m`).
  * ConstantRing: K' = q(x) for q = F_{p^2}; elements are rational
    functions with q-coefficients, the conjugation is the coefficient-wise
    Frobenius.

Both expose trace / norm / as_pair with respect to a Kummer generator r
(r = y, resp. r = sqrt(d) in q), so the descent machinery can treat them
uniformly.
"""

from __future__ import annotations

from .fields import Element, FieldError, QuadraticField, is_square, sqrt
from .poly import Polynomial
from .ratfunc import RationalFunction


class KummerRingElement:
    """A + B*y with A, B in K, multiplied by ring elements and constants."""
    __slots__ = ("ring", "a", "b")

    def __init__(self, ring, a: RationalFunction, b: RationalFunction):
        self.ring = ring
        self.a = a
        self.b = b

    def __mul__(self, other):
        if isinstance(other, Element):
            return KummerRingElement(self.ring, self.a * other, self.b * other)
        f = self.ring.f_rat
        return KummerRingElement(
            self.ring,
            self.a * other.a + self.b * other.b * f,
            self.a * other.b + self.b * other.a)

    def __repr__(self):
        return f"({self.a!r}) + ({self.b!r})*r"


class KummerRing:
    """K(y)/K with y^2 = f(x); generator r = y has minimal polynomial
    X^2 - f (so a = 0, b = f in the X^2 - aX - b convention)."""

    def __init__(self, f_poly: Polynomial):
        self.field = f_poly.field
        self.f_poly = f_poly
        self.f_rat = RationalFunction(f_poly)

    def element(self, a, b=None):
        if isinstance(a, Polynomial):
            a = RationalFunction(a)
        if b is None:
            b = RationalFunction.zero(self.field)
        if isinstance(b, Polynomial):
            b = RationalFunction(b)
        return KummerRingElement(self, a, b)

    def gen(self):
        return KummerRingElement(
            self, RationalFunction.zero(self.field), RationalFunction.one(self.field))

    def trace(self, e) -> RationalFunction:
        return self.field(2) * e.a

    def norm(self, e) -> RationalFunction:
        return e.a * e.a - e.b * e.b * self.f_rat

    def as_pair(self, e):
        """(P, Q) with e = P + Q*r, r^2 = f."""
        return e.a, e.b


class ConstantRing:
    """q(x) over k(x) for the constant quadratic extension q/k; elements are
    RationalFunctions over the QuadraticField q."""

    def __init__(self, qfield: QuadraticField, d: Element):
        # d: the nonsquare of k with q = k(sqrt(d))
        self.qfield = qfield
        self.base = qfield.base
        if is_square(d):
            raise FieldError("constant quadratic extension needs a non-square")
        self.d = d
        self.root_d = sqrt(self.qfield(d.val))

    def element(self, rf: RationalFunction) -> RationalFunction:
        if rf.field != self.qfield:
            rf = rf.map_coeffs(lambda c: self.qfield(c), self.qfield)
        return rf

    def conj(self, e: RationalFunction) -> RationalFunction:
        return e.map_coeffs(self.qfield.conj, self.qfield)

    def trace(self, e: RationalFunction) -> RationalFunction:
        t = e + self.conj(e)
        return self._descend(t)

    def norm(self, e: RationalFunction) -> RationalFunction:
        n = e * self.conj(e)
        return self._descend(n)

    def _descend(self, e: RationalFunction) -> RationalFunction:
        def down(c):
            c0, c1 = self.qfield.base_pair(c)
            if not c1.is_zero():
                raise ArithmeticError("element does not lie in the base function field")
            return c0

        return e.map_coeffs(down, self.base)

    def as_pair(self, e: RationalFunction):
        """(P, Q) over k(x) with e = P + Q*sqrt(d).

        2P = e + conj(e) and 2Q sqrt(d) = e - conj(e); both sides are
        conjugation-invariant, so their reduced forms have k-coefficients."""
        conj_e = self.conj(e)
        two = self.qfield(2)
        p_part = self._descend((e + conj_e) / two)
        q_part = self._descend((e - conj_e) / (two * self.root_d))
        return p_part, q_part
