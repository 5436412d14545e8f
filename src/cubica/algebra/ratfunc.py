"""Rational functions N(x)/D(x) in normal form: D monic, gcd(N, D) = 1.

Also provides FunctionField, which wraps k(x) as a coefficient *field* so
that polynomials over k(lambda) can be formed for generic-parameter
identity checks.
"""

from __future__ import annotations

from .fields import Element, FieldError
from .poly import Polynomial, poly_gcd


class RationalFunction:
    __slots__ = ("field", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.one(num.field)
        if num.field != den.field:
            raise FieldError("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.leading()
        if not lc.is_one():
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        self.field = num.field
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_const(field, c):
        return RationalFunction(Polynomial.constant(field, field(c)))

    @staticmethod
    def x(field):
        return RationalFunction(Polynomial.x(field))

    @staticmethod
    def zero(field):
        return RationalFunction(Polynomial.zero(field))

    @staticmethod
    def one(field):
        return RationalFunction(Polynomial.one(field))

    # -- predicates ---------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self) -> Element:
        if not self.is_constant():
            raise FieldError("not a constant")
        return self.num.constant_coeff()

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field != self.field:
                raise FieldError("rational functions over different fields")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (Element, int)):
            return RationalFunction.from_const(self.field, self.field(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or other.field != self.field:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    # -- function-field structure ---------------------------------------------------

    def degree_at_infinity(self):
        """v_infinity = deg(den) - deg(num)."""
        if self.is_zero():
            raise ZeroDivisionError("valuation of zero")
        return self.den.degree - self.num.degree

    def compose(self, g: "RationalFunction") -> "RationalFunction":
        """self(g(x)) as a rational function.

        With g = a/b and n = max(deg num, deg den), both num(a/b) and
        den(a/b) are multiplied through by b^n: the quotient of the
        polynomials sum c_i a^i b^(n-i) is reduced to normal form once."""
        n = max(self.num.degree, self.den.degree, 0)
        F = self.field
        num = den = Polynomial.zero(F)
        a_pow = Polynomial.one(F)
        b_pows = [Polynomial.one(F)]
        for _ in range(n):
            b_pows.append(b_pows[-1] * g.den)
        for i in range(n + 1):
            if i:
                a_pow = a_pow * g.num
            w = a_pow * b_pows[n - i]
            num = num + w * self.num[i]
            den = den + w * self.den[i]
        return RationalFunction(num, den)

    def __repr__(self):
        if self.den.is_one():
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


class FunctionField:
    """k(t) wrapped as a coefficient field (payload: RationalFunction over k).

    Used for identity checks with a generic parameter, e.g. polynomials over
    Q(lambda)."""

    def __init__(self, base, name="t"):
        self.base = base
        self.name = name
        self.char = base.char
        self.order = None
        self._hash = hash(("funcfield", hash(base)))
        self.zero = Element(self, RationalFunction.zero(base))
        self.one = Element(self, RationalFunction.one(base))
        self.gen = Element(self, RationalFunction.x(base))

    def __call__(self, v):
        if isinstance(v, Element):
            if v.field == self:
                return v
            if v.field == self.base:
                return Element(self, RationalFunction.from_const(self.base, v))
            raise FieldError("cannot coerce element into function field")
        if isinstance(v, RationalFunction):
            return Element(self, v)
        if isinstance(v, Polynomial):
            return Element(self, RationalFunction(v))
        return Element(self, RationalFunction.from_const(self.base, self.base(v)))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return a.inverse()

    def _zero_val(self):
        return RationalFunction.zero(self.base)

    def _one_val(self):
        return RationalFunction.one(self.base)

    def sort_key(self, v):
        return (v.num.sort_key(), v.den.sort_key())

    def format_element(self, v):
        return repr(v)

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.base == self.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.base!r}({self.name})"
