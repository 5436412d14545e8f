"""Exact base fields: prime fields F_p, quadratic extensions F_p(t), and Q.

Every field is an immutable descriptor object; elements are thin wrappers
around a payload (int residue, coefficient pair, or Fraction) whose
arithmetic is delegated to the descriptor.  Characteristic 3 is rejected:
all constructions downstream assume a separable cubic X^3 - 3X - a or
X^3 - b normal form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice


class FieldError(ValueError):
    pass


class Element:
    """An element of one of the fields below; payload interpretation is
    owned by ``self.field``."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.field != self.field:
                raise FieldError("element from a different field")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Element(self.field, self.field._add(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Element(self.field, self.field._sub(self.val, o.val))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Element(self.field, self.field._mul(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __neg__(self):
        return Element(self.field, self.field._neg(self.val))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Element(self.field, self.field._inv(self.val))

    def is_zero(self):
        return self.val == self.field._zero_val()

    def is_one(self):
        return self.val == self.field._one_val()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        if not isinstance(other, Element) or other.field != self.field:
            return NotImplemented
        return self.val == other.val

    def __hash__(self):
        return hash((self.field._hash, self._hash_val()))

    def _hash_val(self):
        v = self.val
        return tuple(v) if isinstance(v, list) else v

    def sort_key(self):
        return self.field.sort_key(self.val)

    def __repr__(self):
        return self.field.format_element(self.val)


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p for a prime p != 3.  Payload: int in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 3:
            raise FieldError("characteristic 3 is unsupported")
        self.p = p
        self.char = p
        self.order = p
        self._hash = hash(("Fp", p))
        self.zero = Element(self, 0)
        self.one = Element(self, 1)

    def __call__(self, v):
        if isinstance(v, Element):
            if v.field == self:
                return v
            if isinstance(v.field, RationalField):
                fr = v.val
                return self(fr.numerator) / self(fr.denominator)
            raise FieldError("cannot coerce element into prime field")
        if isinstance(v, Fraction):
            return self(v.numerator) / self(v.denominator)
        return Element(self, v % self.p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def _zero_val(self):
        return 0

    def _one_val(self):
        return 1

    def sort_key(self, v):
        return (v,)

    def elements(self):
        for v in range(self.p):
            yield Element(self, v)

    def format_element(self, v):
        return str(v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"F{self.p}"


class QuadraticField:
    """F_{p^2} presented as F_p[t] / (t^2 - a t - b).

    Payload: [c0, c1] for c0 + c1*t.  The nontrivial automorphism is
    t -> a - t (the Frobenius x -> x^p).
    """

    def __init__(self, base: PrimeField, a, b):
        if not isinstance(base, PrimeField):
            raise FieldError("quadratic extensions are only built over prime fields")
        self.base = base
        p = base.p
        self.a = a % p
        self.b = b % p
        # irreducibility of t^2 - a t - b over F_p
        for t in range(p):
            if (t * t - self.a * t - self.b) % p == 0:
                raise FieldError("t^2 - a t - b is reducible over the base field")
        self.p = p
        self.char = p
        self.order = p * p
        self._hash = hash(("Fp2", p, self.a, self.b))
        self.zero = Element(self, (0, 0))
        self.one = Element(self, (1, 0))
        self.gen = Element(self, (0, 1))

    def __call__(self, v):
        if isinstance(v, Element):
            if v.field == self:
                return v
            if v.field == self.base:
                return Element(self, (v.val, 0))
            raise FieldError("cannot coerce element into quadratic field")
        if isinstance(v, Fraction):
            return self(v.numerator) / self(v.denominator)
        if isinstance(v, tuple):
            return Element(self, (v[0] % self.p, v[1] % self.p))
        return Element(self, (v % self.p, 0))

    def _add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def _sub(self, x, y):
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def _mul(self, x, y):
        # (x0 + x1 t)(y0 + y1 t) with t^2 = a t + b
        p, a, b = self.p, self.a, self.b
        c0, c1 = x
        d0, d1 = y
        t2 = c1 * d1
        return ((c0 * d0 + b * t2) % p, (c0 * d1 + c1 * d0 + a * t2) % p)

    def _neg(self, x):
        p = self.p
        return ((-x[0]) % p, (-x[1]) % p)

    def _inv(self, x):
        # norm(c0 + c1 t) = (c0 + c1 t)(c0 + c1(a - t)) = c0^2 + a c0 c1 - b c1^2
        p, a, b = self.p, self.a, self.b
        c0, c1 = x
        n = (c0 * c0 + a * c0 * c1 - b * c1 * c1) % p
        ninv = pow(n, p - 2, p)
        conj = ((c0 + a * c1) % p, (-c1) % p)
        return ((conj[0] * ninv) % p, (conj[1] * ninv) % p)

    def conj(self, e: Element) -> Element:
        """The nontrivial automorphism over the base field, t -> a - t."""
        c0, c1 = e.val
        return Element(self, ((c0 + self.a * c1) % self.p, (-c1) % self.p))

    def norm(self, e: Element) -> Element:
        """Norm down to the base field."""
        c0, c1 = e.val
        n = (c0 * c0 + self.a * c0 * c1 - self.b * c1 * c1) % self.p
        return Element(self.base, n)

    def from_base_pair(self, c0: Element, c1: Element) -> Element:
        return Element(self, (c0.val, c1.val))

    def base_pair(self, e: Element):
        c0, c1 = e.val
        return Element(self.base, c0), Element(self.base, c1)

    def _zero_val(self):
        return (0, 0)

    def _one_val(self):
        return (1, 0)

    def sort_key(self, v):
        return (v[1], v[0])

    def elements(self):
        for c1 in range(self.p):
            for c0 in range(self.p):
                yield Element(self, (c0, c1))

    def format_element(self, v):
        c0, c1 = v
        if c1 == 0:
            return str(c0)
        if c0 == 0:
            return f"{c1}*t"
        return f"{c0}+{c1}*t"

    def __eq__(self, other):
        return (isinstance(other, QuadraticField) and other.base == self.base
                and other.a == self.a and other.b == self.b)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"F{self.p}[t]/(t^2-{self.a}t-{self.b})"


class RationalField:
    """The rationals; payload: Fraction in lowest terms."""

    def __init__(self):
        self.char = 0
        self.order = None
        self._hash = hash("QQ")
        self.zero = Element(self, Fraction(0))
        self.one = Element(self, Fraction(1))

    def __call__(self, v):
        if isinstance(v, Element):
            if v.field == self:
                return v
            raise FieldError("cannot coerce element into Q")
        return Element(self, Fraction(v))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def _zero_val(self):
        return Fraction(0)

    def _one_val(self):
        return Fraction(1)

    def sort_key(self, v):
        return (v < 0, abs(v.numerator), v.denominator)

    def format_element(self, v):
        return str(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Q"


QQ = RationalField()


def smallest_nonsquare(field):
    """The first non-square in the canonical element order of a finite field
    of odd characteristic.

    In F_{p^2} the p constants come first in that order and are all squares
    (F_p^* lies in the squares of F_{p^2}^*, as (p^2 - 1)/2 is a multiple of
    p - 1), so the scan starts after them."""
    if field.char == 2:
        raise FieldError("every element of a char-2 finite field is a square")
    elements = field.elements()
    if isinstance(field, QuadraticField):
        elements = islice(elements, field.p, None)
    for e in elements:
        if not e.is_zero() and not is_square(e):
            return e
    raise FieldError("no non-square found")


def is_square(e: Element) -> bool:
    """Whether e is a square of a finite field F_q.

    By the norm criterion chi_{p^k}(e) = chi_p(N(e)), with N the norm down
    to F_p, one Legendre symbol in F_p decides it: in F_{p^2} this is
    Euler's criterion on field.norm(e), in F_p on e itself.  In
    characteristic 2 squaring is a bijection, so everything is a square."""
    field = e.field
    if field.order is None:
        raise FieldError("is_square is only decided over finite fields")
    if e.is_zero():
        return True
    if field.char == 2:
        return True
    if isinstance(field, QuadraticField):
        e = field.norm(e)
    p = field.p
    return pow(e.val, (p - 1) // 2, p) == 1


def sqrt(e: Element) -> Element:
    """A square root in a finite field (Tonelli-Shanks with the smallest
    non-residue), canonicalized to the smaller of the two roots."""
    field = e.field
    if field.order is None:
        raise FieldError("sqrt is only computed over finite fields")
    if e.is_zero():
        return field.zero
    q = field.order
    if field.char == 2:
        return e ** (q // 2)
    if not is_square(e):
        raise FieldError(f"{e} is not a square")
    if q % 4 == 3:
        r = e ** ((q + 1) // 4)
    else:
        # Tonelli-Shanks: q - 1 = m * 2^s with m odd
        m, s = q - 1, 0
        while m % 2 == 0:
            m //= 2
            s += 1
        z = smallest_nonsquare(field)
        c = z ** m
        r = e ** ((m + 1) // 2)
        t = e ** m
        while not t.is_one():
            # find least i with t^(2^i) = 1
            i, tt = 0, t
            while not tt.is_one():
                tt = tt * tt
                i += 1
            b = c ** (1 << (s - i - 1))
            r = r * b
            c = b * b
            t = t * c
            s = i
        # fallthrough below normalizes the sign
    if (-r).sort_key() < r.sort_key():
        r = -r
    return r
