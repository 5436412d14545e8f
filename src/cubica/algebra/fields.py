"""Exact base fields: prime fields F_p and Q, and the shared element type.

Every field is an immutable descriptor object; elements are thin wrappers
around a payload (an int residue, a Fraction, or the coefficient tuple of a
``residue.ResidueField``, the one finite-extension field, F_{p^2}
included) whose arithmetic is delegated to the descriptor.  Characteristic
3 is rejected: all constructions downstream assume a separable cubic
X^3 - 3X - a or X^3 - b normal form.

The descriptors share one payload protocol: ``_add``, ``_sub``, ``_mul``,
``_neg``, ``_inv``, ``_zero_val``, ``_one_val``, ``sort_key``, ``char`` and
``order``; a finite field also has ``elements()`` in its canonical order and
its degree ``deg`` over ``base``, and an extension ``_norm`` and ``_trace``
down to ``base``, ``_embed`` up from it and the Frobenius map ``_frob`` over
it (a quadratic one also ``_disc_root``).  Every field, ``residue.ResidueField`` included, also has
``zero``, ``one``, ``__eq__``/``__hash__`` by value and a ``__call__`` that
returns an ``Element``, so elements of all of them compute, compare and
serve as polynomial coefficients alike, and ``is_square``, ``sqrt``,
``smallest_nonsquare`` and ``trace_to_f2`` below serve every field of the
library.  Square roots in residue fields of degree 1, 2 and every odd
degree descend to the base field; F_p and the residue fields of even degree
above 2 run Tonelli-Shanks.  Over Q
squares are decided by exact integer square roots of numerator and
denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
        return Element(self.field, _pow(self.field, self.val, n))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Element(self.field, self.field._inv(self.val))

    def is_zero(self):
        return self.val == self.field._zero_val()

    def is_one(self):
        return self.val == self.field._one_val()

    def __eq__(self, other):
        # no coercion: an int, a Fraction or an Element of another field is
        # never equal, so equal values hash alike
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


def _factor_int(n):
    """The (prime, exponent) pairs of an integer n >= 2 in increasing order,
    by trial division by 2 and then by odd d; none for n < 2.  A generator,
    so a caller may stop at the first prime found."""
    d, step = 2, 1
    while d * d <= n:
        e = 0
        while n % d == 0:
            e, n = e + 1, n // d
        if e:
            yield d, e
        d, step = d + step, 2
    if n > 1:
        yield n, 1


def _is_prime(n):
    return n >= 2 and next(_factor_int(n))[0] == n


class PrimeField:
    """F_p for a prime p != 3.  Payload: int in [0, p)."""

    deg = 1

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
        return pow(a, -1, self.p)

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


# CPython refuses str(int) and int(str) beyond 4,300 decimal digits by
# default (a process-wide limit, sys.set_int_max_str_digits); integers larger
# than a block convert block by block, split in halves at a power of 10.
_BLOCK_DIGITS = 4000


def decimal_str(n: int) -> str:
    """str(n), for an int of any size."""
    if n < 0:
        return "-" + decimal_str(-n)
    if n.bit_length() <= 3 * _BLOCK_DIGITS:       # at most 3,613 digits
        return str(n)
    k = n.bit_length() * 3 // 20                   # about half the digits
    hi, lo = divmod(n, 10 ** k)
    return decimal_str(hi) + decimal_str(lo).zfill(k)


def decimal_int(text: str) -> int:
    """int(text), for a decimal text of any length: past a block only an
    optional sign and ASCII digits, surrounding whitespace aside."""
    if len(text) <= _BLOCK_DIGITS:
        return int(text)
    digits = text.strip()
    sign = -1 if digits[:1] == "-" else 1
    digits = digits[1:] if digits[:1] in "+-" else digits
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("invalid decimal integer")
    k = len(digits) // 2
    return sign * (decimal_int(digits[:-k]) * 10 ** k + decimal_int(digits[-k:]))


def decimal_fraction(text: str) -> Fraction:
    """Fraction(text) for a text "a/b" of any length."""
    if len(text) <= _BLOCK_DIGITS:
        return Fraction(text)
    num, _, den = text.partition("/")
    return Fraction(decimal_int(num), decimal_int(den))


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
        """str(v), for numerators and denominators of any size."""
        num = decimal_str(v.numerator)
        return num if v.denominator == 1 else f"{num}/{decimal_str(v.denominator)}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Q"


QQ = RationalField()


def _pow(field, v, n):
    """v^n for a payload v and n >= 0, by square-and-multiply on payloads
    (over F_p by the built-in pow)."""
    if isinstance(field, PrimeField):
        return pow(v, n, field.p)
    result = None
    while n:
        if n & 1:
            result = v if result is None else field._mul(result, v)
        n >>= 1
        if n:
            v = field._mul(v, v)
    return field._one_val() if result is None else result


def _rational_sqrt(v: Fraction):
    """The non-negative rational square root of v, or None."""
    n, d = v.numerator, v.denominator
    if n < 0:
        return None
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def smallest_nonsquare(field):
    """The first non-square in the canonical element order of a finite field
    of odd characteristic.

    That order starts with the elements of the base field.  In an extension
    of odd degree k a base element is a square exactly when it is one in the
    base (its norm is its k-th power), so the answer is the base's.  In an
    extension of even degree the base elements are all squares (F_q^* lies
    in the squares of F_{q^2}^*, as (q^2 - 1)/2 is a multiple of q - 1, and
    F_{q^2} lies in F_{q^k} for even k), so the scan starts after them.  The
    result is kept on the field object."""
    found = getattr(field, "_nonsquare", None)
    if found is not None:
        return found
    if field.char == 2:
        raise FieldError("every element of a char-2 finite field is a square")
    if field.deg % 2 == 0:
        elements = field.elements(skip_base=True)
    elif isinstance(field, PrimeField):
        elements = field.elements()
    else:
        elements = [Element(field, field._embed(smallest_nonsquare(field.base).val))]
    for e in elements:
        if not e.is_zero() and not is_square(e):
            field._nonsquare = e
            return e
    raise FieldError("no non-square found")


def is_square(e: Element) -> bool:
    """Whether e is a square of its field: a finite field or Q.

    Over F_{p^k} by the norm criterion chi_{p^k}(e) = chi_p(N(e)): the norms
    down the tower of bases reach F_p, where one Legendre symbol decides.
    In characteristic 2 squaring is a bijection, so everything is a square.
    Over Q by exact integer roots."""
    field, v = e.field, e.val
    if isinstance(field, RationalField):
        return _rational_sqrt(v) is not None
    if field.order is None:
        raise FieldError("squareness is only decided over finite fields and Q")
    if field.char == 2 or v == field._zero_val():
        return True
    while not isinstance(field, PrimeField):
        v = field._norm(v)
        field = field.base
    p = field.p
    return pow(v, (p - 1) // 2, p) == 1


def sqrt(e: Element) -> Element:
    """The square root of e that is smaller by sort_key.

    Over Q the non-negative root, by exact integer roots.  In characteristic
    2 the unique root e^(q/2).  Otherwise a root from ``_root``: residue
    fields of degree 1, 2 and every odd degree descend to their base, F_p
    and residue fields of even degree above 2 run Tonelli-Shanks."""
    field, v = e.field, e.val
    if isinstance(field, RationalField):
        r = _rational_sqrt(v)
        if r is None:
            raise FieldError("constant is not a rational square")
        return Element(field, r)
    if field.order is None:
        raise FieldError("sqrt is only computed over finite fields and Q")
    if e.is_zero():
        return e
    if field.char == 2:
        return Element(field, _pow(field, v, field.order // 2))
    r = _root(field, v)
    if r is None:
        raise FieldError(f"{e} is not a square")
    neg = field._neg(r)
    if field.sort_key(neg) < field.sort_key(r):
        r = neg
    return Element(field, r)


def _root(field, v):
    """A square root of the nonzero payload v of a finite field of odd
    characteristic, or None when v is not a square.

    A residue field of degree 1, 2 or any odd degree descends to its base,
    which may itself descend (norm descent; Adj and Rodriguez-Henriquez, IEEE Trans. Comput.
    63, 2014).  In degree 1 the root is the base's.  In degree 2, with n a
    base root of N(a): a root b of a has b Tr(b) = a + N(b) and Tr(b)^2 =
    Tr(a) + 2 N(b), so (a + d)/sqrt(t) is a root for the d in {n, -n} that
    makes t = Tr(a) + 2d a nonzero square of the base.  No d does only when
    a is a base element c that is not a square there; then u sqrt(c/u^2) is
    a root, for the u of ``_disc_root``.  In odd degree k >= 3 over a base
    of order q, with s = (q^k - 1)/(q - 1) odd and a^s = N(a), the root is
    a^((s+1)/2)/sqrt(N(a)); as (s + 1)/2 = 1 + q (q + 1)/2 (1 + q^2 + ... +
    q^(k-3)), a^((s+1)/2) is a c c^(q^2) ... c^(q^(k-3)) for c =
    (a^((q+1)/2))^q, by the Frobenius map ``_frob`` (a c for k = 3).  F_p
    and residue fields of even degree above 2 run Tonelli-Shanks."""
    if isinstance(field, PrimeField):
        p = field.p
        return _tonelli_shanks(field, v) if pow(v, (p - 1) // 2, p) == 1 else None
    from .residue import ResidueField  # residue imports this module
    k = field.deg
    if not isinstance(field, ResidueField) or (k > 2 and k % 2 == 0):
        return _tonelli_shanks(field, v) if is_square(Element(field, v)) else None
    B = field.base
    if k == 1:
        r = _root(B, field._trace(v))
        return None if r is None else field._embed(r)
    n = _root(B, field._norm(v))
    if n is None:
        return None
    if k > 2:
        c = acc = field._frob(_pow(field, v, (B.order + 1) // 2))
        for _ in range((k - 3) // 2):
            c = field._frob(field._frob(c))
            acc = field._mul(acc, c)
        return field._mul(field._mul(v, acc), field._embed(B._inv(n)))
    tr = field._trace(v)
    for d in (n, B._neg(n)):
        t = B._add(tr, B._add(d, d))
        s = None if t == B._zero_val() else _root(B, t)
        if s is not None:
            return field._mul(field._add(v, field._embed(d)), field._embed(B._inv(s)))
    # v = c in the base, Tr(v) = 2c
    u, disc = field._disc_root()
    s = _root(B, B._mul(tr, B._inv(B._add(disc, disc))))
    return field._mul(u, field._embed(s))


def _tonelli_shanks(field, v):
    """A square root of the nonzero square v of F_q, q odd, with the
    smallest non-square."""
    q, mul, one = field.order, field._mul, field._one_val()
    if q % 4 == 3:
        return _pow(field, v, (q + 1) // 4)
    # q - 1 = m * 2^s with m odd
    m, s = q - 1, 0
    while m % 2 == 0:
        m //= 2
        s += 1
    c = _pow(field, smallest_nonsquare(field).val, m)
    w = _pow(field, v, (m - 1) // 2)
    r = mul(v, w)  # v^((m + 1)/2)
    t = mul(r, w)  # v^m
    while t != one:
        # find least i with t^(2^i) = 1
        i, tt = 0, t
        while tt != one:
            tt = mul(tt, tt)
            i += 1
        b = _pow(field, c, 1 << (s - i - 1))
        r = mul(r, b)
        c = mul(b, b)
        t = mul(t, c)
        s = i
    return r


def trace_to_f2(e: Element) -> int:
    """Absolute trace of e in a finite field of characteristic 2 down to
    F_2: the sum of the Frobenius powers e^(2^i)."""
    field = e.field
    if field.char != 2 or field.order is None:
        raise FieldError("trace_to_f2 needs a finite field of characteristic 2")
    zero = field._zero_val()
    acc, t = zero, e.val
    for _ in range(field.order.bit_length() - 1):
        acc = field._add(acc, t)
        t = field._mul(t, t)
    if acc == zero:
        return 0
    if acc != field._one_val():
        raise ArithmeticError("trace did not land in the prime field")
    return 1
