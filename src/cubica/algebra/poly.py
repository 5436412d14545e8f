"""Dense univariate polynomials over any of the exact fields.

A Polynomial keeps its coefficients in ``vals`` as field payloads, lowest
degree first with a nonzero leading coefficient (the zero polynomial has an
empty list): an int in [0, p) over F_p, a Fraction over Q, a coefficient
tuple over a residue field (F_{p^2} included), a RationalFunction over
k(t).  Arithmetic runs on these lists through the field's payload protocol
(``_add``/``_sub``/``_mul``/``_inv``/``_zero_val``); the kernels also take
tuples, on which a residue field runs its own arithmetic.  Over F_p the
product, the long division, the remainder and the Frobenius map run on raw
ints with one reduction mod p per output coefficient; every other kernel
runs one loop on every field.  A polynomial over Q (a ``_QPolynomial``)
stores the integer form ``q``: integer numerators over one positive
denominator, the layout of FLINT's ``fmpq_poly``.  Its arithmetic, ``==``,
degree and predicates, ``evaluate``, ``poly_gcd`` and ``poly_xgcd`` run on
that form (pseudo-division, Knuth's Algorithm R, for the division) and
reduce each result by one content gcd; ``vals``, the lowest-terms
Fractions, is built only when something reads it (``coeffs``, ``hash``,
``sort_key``, ``repr``, an encoder).  Lists of Fractions handed to the
payload kernels (by residue fields over Q) run the generic payload loops.  ``Element``s appear only at the boundary: the
constructor takes them, ``coeffs``, ``leading()``, ``constant_coeff()``,
``f[i]`` and ``evaluate`` return them, and ``map_coeffs`` hands them to
its function.

Factorization over finite fields runs squarefree / distinct-degree /
equal-degree splitting.  The factors are unique and sorted canonically, so
the random draws of the equal-degree stage (a fixed stream keyed by the
polynomial) decide only how long a split takes, and factoring takes no
seed.  Both splitting stages and the irreducibility test raise to the q-th
power modulo m by one ``_Frobenius`` map, a table of the rows x^(iq) mod m
built once from x^q mod m, so that g^q mod m is a linear combination of
rows and needs no exponentiation (von zur Gathen and Shoup, Comput.
Complexity 2, 1992); the distinct-degree and equal-degree stages reduce
the rows modulo each factor they split off instead of rebuilding them.
Residue fields of odd degree take their square roots with the same map.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .fields import (Element, FieldError, PrimeField, RationalField,
                     _factor_int, _pow)


# -- the kernel: payload lists, lowest degree first -------------------------------
#
# Inputs are trimmed lists or tuples that are never mutated, so Polynomials
# may share them; every list a kernel returns is trimmed.


def _trim(cs, zero):
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


# Over Q the kernels take and return the integer form (nums, d): a trimmed
# list of integer numerators over one denominator d > 0 with
# gcd(d, nums) = 1, so d = 1 for the zero polynomial.  The form is unique,
# so equal polynomials have equal forms.  Each result is reduced by one
# content gcd.


def _q_form(vals):
    """The integer form of a trimmed list of lowest-terms Fractions: the
    numerators over their least common denominator, which already has no
    factor in common with all of them."""
    d = math.lcm(*[c.denominator for c in vals])
    return [c.numerator * (d // c.denominator) for c in vals], d


def _q_vals(a):
    """The lowest-terms Fractions of the integer form a."""
    nums, d = a
    return [Fraction(c, d) for c in nums]


def _q_normal(nums, d):
    """The integer form of the trimmed integer list nums over the nonzero
    integer d: both divided by the gcd of d and every numerator, signed so
    that d > 0."""
    g = math.gcd(d, *nums)
    if d < 0:
        g = -g
    if g == 1:
        return nums, d
    return [x // g for x in nums], d // g


def _convolve(a, b):
    """The product of two integer lists ([] if one is empty)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_sub(a, b):
    out = [x - y for x, y in zip(a, b)]
    if len(a) > len(b):
        return out + a[len(b):]
    out += [-y for y in b[len(a):]]
    return _trim(out, 0)


def _pdivmod(a, b):
    """Pseudo-division of integer lists, b nonzero (Knuth, TAOCP 2,
    4.6.1, Algorithm R): (q, r, c) with c a = q b + r, deg r < deg b and c a
    nonzero integer.  A step scales by lc(b)/gcd(t, lc(b)) only, t the
    coefficient it cancels, so c is 1 when b is monic over Z."""
    n = len(b) - 1
    if len(a) <= n:
        return [], list(a), 1
    lc, low = b[-1], b[:-1]
    r, q, c = list(a), [0] * (len(a) - n), 1
    for k in range(len(a) - n - 1, -1, -1):
        t = r[k + n]
        if t:
            g = math.gcd(t, lc)
            s = lc // g
            if s != 1:
                r = [x * s for x in r[:k + n]]
                q[k + 1:] = [x * s for x in q[k + 1:]]
                c *= s
            t = q[k] = t // g
            for i, y in enumerate(low, k):
                r[i] -= t * y
    return q, _trim(r[:n], 0), c


def _primitive(*lists):
    """The integer lists divided by the gcd of all their entries."""
    g = math.gcd(*[x for a in lists for x in a])
    if g > 1:
        return [[x // g for x in a] for a in lists]
    return list(lists)


def _q_common(a, b):
    """The numerators of the integer forms a and b over one common
    denominator, and that denominator."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return an, bn, ad
    g = math.gcd(ad, bd)
    return [x * (bd // g) for x in an], [y * (ad // g) for y in bn], ad // g * bd


def _q_add(a, b):
    an, bn, d = _q_common(a, b)
    if len(an) < len(bn):
        an, bn = bn, an
    return _q_normal(_trim([x + y for x, y in zip(an, bn)] + an[len(bn):], 0), d)


def _q_sub(a, b):
    an, bn, d = _q_common(a, b)
    return _q_normal(_int_sub(an, bn), d)


def _q_mul(a, b):
    (an, ad), (bn, bd) = a, b
    return _q_normal(_convolve(an, bn), ad * bd)


def _q_divmod(a, b):
    """(quotient, remainder) of the integer form a by the nonzero b: with
    c A = q B + r on the numerators, a = (q bd / (c ad)) b + r / (c ad)."""
    (an, ad), (bn, bd) = a, b
    if len(an) < len(bn):
        return ([], 1), a
    q, r, c = _pdivmod(an, bn)
    return _q_normal([x * bd for x in q], c * ad), _q_normal(r, c * ad)


def _q_rem(a, b):
    """The remainder of the integer form a by the nonzero b."""
    (an, ad), bn = a, b[0]
    if len(an) < len(bn):
        return a
    _, r, c = _pdivmod(an, bn)
    return _q_normal(r, c * ad)


def _q_monic(a):
    """a over its leading coefficient: its numerators over the leading one."""
    nums, d = a
    if not nums or nums[-1] == d:
        return a
    return _q_normal(nums, nums[-1])


def _add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = F._add
    out = [add(x, y) for x, y in zip(a, b)]
    if len(a) > len(b):
        out += a[len(b):]
        return out
    return _trim(out, F._zero_val())


def _sub(F, a, b):
    sub = F._sub
    out = [sub(x, y) for x, y in zip(a, b)]
    if len(a) > len(b):
        out += a[len(b):]
    elif len(b) > len(a):
        neg = F._neg
        out += [neg(y) for y in b[len(a):]]
    else:
        return _trim(out, F._zero_val())
    return out


def _neg(F, a):
    neg = F._neg
    return [neg(x) for x in a]


def _monic(F, a):
    if not a or a[-1] == F._one_val():
        return a
    return _mul(F, a, [F._inv(a[-1])])


def _mul(F, a, b):
    if not a or not b:
        return []
    if isinstance(F, PrimeField):
        # not through _convolve: on the tiny products of the descent a call
        # more per product is a measurable share of the time
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = F.p
        return [c % p for c in out]
    add, mul, zero = F._add, F._mul, F._zero_val()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return out


def _divmod(F, a, b):
    """(quotient, remainder) of a by the nonzero b, by long division."""
    n = len(b) - 1
    if len(a) <= n:
        return [], a
    if isinstance(F, PrimeField):
        r, low, inv, p = list(a), b[:-1], F._inv(b[-1]), F.p
        q = [0] * (len(a) - n)
        for k in range(len(a) - n - 1, -1, -1):
            c = r[k + n] * inv % p
            if c:
                q[k] = c
                for i, y in enumerate(low, k):
                    r[i] -= c * y
        return q, _trim([x % p for x in r[:n]], 0)
    r, low, inv = list(a), b[:-1], F._inv(b[-1])
    sub, mul, zero = F._sub, F._mul, F._zero_val()
    q = [zero] * (len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        if r[k + n] != zero:
            c = q[k] = mul(r[k + n], inv)
            for i, y in enumerate(low, k):
                r[i] = sub(r[i], mul(c, y))
    return q, _trim(r[:n], zero)


def _rem(F, a, b):
    """The remainder of a by the nonzero b.  Over F_p a loop of its own that
    keeps no quotient and inverts the leading coefficient of b only when it
    is not 1 (the moduli of residue fields and of factoring are monic)."""
    n = len(b) - 1
    if len(a) <= n:
        return a
    if not isinstance(F, PrimeField):
        return _divmod(F, a, b)[1]
    r, low, p = list(a), b[:-1], F.p
    inv = 1 if b[-1] == 1 else F._inv(b[-1])
    for k in range(len(a) - n - 1, -1, -1):
        c = r[k + n] * inv % p
        if c:
            for i, y in enumerate(low, k):
                r[i] -= c * y
    return _trim([x % p for x in r[:n]], 0)


def _taylor_shift(F, a, c):
    """The payloads of a(x + c), by the classical Taylor shift: n - 1
    Horner passes, each adding c times a coefficient into the one below it,
    n(n - 1)/2 multiply-adds for n coefficients (von zur Gathen and Gerhard,
    ISSAC 1997).  The leading coefficient stays, so a trimmed input gives a
    trimmed output."""
    b = list(a)
    n = len(b)
    add, mul = F._add, F._mul
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] = add(b[j], mul(c, b[j + 1]))
    return b


def _field_of(f, g):
    if f.field is not g.field and f.field != g.field:
        raise FieldError("polynomials over different fields")
    return f.field


def _poly(field, vals):
    """The Polynomial on a trimmed payload list, taken over as it is (a
    ``_QPolynomial`` over Q)."""
    f = object.__new__(_QPolynomial if isinstance(field, RationalField) else Polynomial)
    f.field = field
    f.vals = vals
    return f


def _plain(field, vals):
    """``_poly`` for a field other than Q, with no test of the field: the
    results of the arithmetic a ``_QPolynomial`` overrides, and of the
    finite-field algorithms."""
    f = object.__new__(Polynomial)
    f.field = field
    f.vals = vals
    return f


def _qpoly(field, q):
    """The polynomial over Q on an integer form, taken over as it is."""
    f = object.__new__(_QPolynomial)
    f.field = field
    f.q = q
    return f


class Polynomial:
    """A polynomial over a field that follows the payload protocol of
    ``.fields`` (residue fields and ``FunctionField`` included).

    ``vals`` holds the coefficients as the field's payloads, lowest degree
    first and trimmed; the constructor accepts Elements, ints and Fractions,
    and ``coeffs`` is the read-only list of the coefficients as Elements.
    A polynomial over Q is a ``_QPolynomial``, which also has ``q``, the
    integer form its arithmetic runs on."""

    __slots__ = ("field", "vals")

    def __new__(cls, field=None, coeffs=None):
        # no arguments when copy or pickle rebuild a polynomial of class cls
        return object.__new__(_QPolynomial if isinstance(field, RationalField) else cls)

    def __init__(self, field, coeffs):
        self.field = field
        self.vals = _trim([c.val if isinstance(c, Element) and c.field is field
                           else field(c).val for c in coeffs], field._zero_val())

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(field):
        return _poly(field, [])

    @staticmethod
    def one(field):
        return _poly(field, [field._one_val()])

    @staticmethod
    def x(field):
        return _poly(field, [field._zero_val(), field._one_val()])

    @staticmethod
    def constant(field, c):
        return Polynomial(field, [c])

    # -- basics ----------------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as Elements, lowest degree first (a new list)."""
        field = self.field
        return [Element(field, v) for v in self.vals]

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.vals) - 1

    def is_zero(self):
        return not self.vals

    def is_one(self):
        return len(self.vals) == 1 and self.vals[0] == self.field._one_val()

    def is_constant(self):
        return len(self.vals) <= 1

    def leading(self):
        if not self.vals:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Element(self.field, self.vals[-1])

    def constant_coeff(self):
        return self[0]

    def __getitem__(self, i):
        if 0 <= i < len(self.vals):
            return Element(self.field, self.vals[i])
        return self.field.zero

    def monic(self):
        vals = _monic(self.field, self.vals)
        return self if vals is self.vals else _plain(self.field, vals)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.vals == other.vals

    def __hash__(self):
        return hash((self.field._hash,) + tuple(self.vals))

    def sort_key(self):
        key = self.field.sort_key
        return (self.degree, tuple(key(v) for v in reversed(self.vals)))

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            _field_of(self, other)
            return other.vals
        if isinstance(other, (Element, int, Fraction)):
            return Polynomial.constant(self.field, other).vals
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _plain(self.field, _add(self.field, self.vals, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _plain(self.field, _sub(self.field, self.vals, o))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _plain(self.field, _neg(self.field, self.vals))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _plain(self.field, _mul(self.field, self.vals, o))

    __rmul__ = __mul__

    def __pow__(self, n):
        F = self.field
        result, base = [F._one_val()], self.vals
        while n:
            if n & 1:
                result = _mul(F, result, base)
            n >>= 1
            if n:
                base = _mul(F, base, base)
        return _poly(F, result)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.field, self.vals, o)
        return _plain(self.field, q), _plain(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        return _plain(self.field, _rem(self.field, self.vals, o))

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division is not exact")
        return q

    def derivative(self):
        F = self.field
        out, i, one = [], F._zero_val(), F._one_val()
        for c in self.vals[1:]:
            i = F._add(i, one)
            out.append(F._mul(c, i))
        return _plain(F, _trim(out, F._zero_val()))

    def evaluate(self, x):
        """The value at x, an element of the field (or an int), by Horner's
        rule; ``compose`` substitutes a polynomial."""
        F = self.field
        if not isinstance(x, (Element, int, Fraction)):
            raise TypeError("evaluate takes a field element; compose takes a polynomial")
        if isinstance(x, Element) and x.field != F:
            raise FieldError("element from a different field")
        xv = F(x).val
        acc = F._zero_val()
        for c in reversed(self.vals):
            acc = F._add(F._mul(acc, xv), c)
        return Element(F, acc)

    def compose(self, g: "Polynomial") -> "Polynomial":
        """self(g(x))."""
        F, zero = self.field, self.field._zero_val()
        acc = []
        for c in reversed(self.vals):
            acc = _add(F, _mul(F, acc, g.vals), [c] if c != zero else [])
        return _poly(F, acc)

    def map_coeffs(self, fn, field=None) -> "Polynomial":
        """The polynomial with coefficients fn(c), fn taking and returning
        Elements (of ``field``, when given)."""
        return Polynomial(field or self.field, [fn(c) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "0"
        fmt, one, zero = (self.field.format_element, self.field._one_val(),
                          self.field._zero_val())
        parts = []
        for i, c in enumerate(self.vals):
            if c == zero:
                continue
            if i == 0:
                parts.append(fmt(c))
            elif i == 1:
                parts.append("x" if c == one else f"{fmt(c)}*x")
            else:
                parts.append(f"x^{i}" if c == one else f"{fmt(c)}*x^{i}")
        return " + ".join(parts)


def _q_binary(kernel):
    """The operator of a polynomial over Q that runs kernel on the integer
    forms of both operands."""
    def op(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _qpoly(self.field, kernel(self.q, o))
    return op


class _QPolynomial(Polynomial):
    """A polynomial over Q.  Arithmetic, ``==``, the degree and the
    predicates run on ``q``, the integer form; ``vals`` is built when first
    read, and ``q`` when a polynomial made from Fractions first needs it.
    ``leading()`` and ``f[i]`` form only the Fraction asked for."""

    __slots__ = ("q",)

    def __getattr__(self, name):
        # called only for an unset slot: at least one of the two is set
        if name == "vals":
            self.vals = vals = _q_vals(self.q)
            return vals
        if name == "q":
            self.q = q = _q_form(self.vals)
            return q
        raise AttributeError(name)

    @property
    def degree(self):
        return len(self.q[0]) - 1

    def is_zero(self):
        return not self.q[0]

    def is_one(self):
        nums, d = self.q
        return nums == [1] and d == 1

    def is_constant(self):
        return len(self.q[0]) <= 1

    def leading(self):
        nums, d = self.q
        if not nums:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Element(self.field, Fraction(nums[-1], d))

    def __getitem__(self, i):
        nums, d = self.q
        if 0 <= i < len(nums):
            return Element(self.field, Fraction(nums[i], d))
        return self.field.zero

    def monic(self):
        q = _q_monic(self.q)
        return self if q is self.q else _qpoly(self.field, q)

    def __eq__(self, other):
        if isinstance(other, _QPolynomial):
            return self.q == other.q
        return super().__eq__(other)

    __hash__ = Polynomial.__hash__

    def _coerce(self, other):
        # every polynomial over Q is a _QPolynomial; a Polynomial over
        # another field raises
        if isinstance(other, _QPolynomial):
            return other.q
        if isinstance(other, Polynomial):
            _field_of(self, other)
        if isinstance(other, (Element, int, Fraction)):
            return Polynomial.constant(self.field, other).q
        return NotImplemented

    __add__ = __radd__ = _q_binary(_q_add)
    __sub__ = _q_binary(_q_sub)
    __mul__ = __rmul__ = _q_binary(_q_mul)

    def __neg__(self):
        nums, d = self.q
        return _qpoly(self.field, ([-x for x in nums], d))

    def derivative(self):
        nums, d = self.q
        return _qpoly(self.field, _q_normal([i * c for i, c in enumerate(nums)][1:], d))

    def evaluate(self, x):
        """The value at x = a/b by Horner's rule on the numerators:
        sum n_i a^i b^(deg - i) over d b^deg."""
        F = self.field
        if not isinstance(x, (Element, int, Fraction)):
            raise TypeError("evaluate takes a field element; compose takes a polynomial")
        if isinstance(x, Element) and x.field != F:
            raise FieldError("element from a different field")
        nums, d = self.q
        if not nums:
            return F.zero
        xv = x.val if isinstance(x, Element) else Fraction(x)
        a, b = xv.numerator, xv.denominator
        acc, bpow = nums[-1], 1
        for c in reversed(nums[:-1]):
            bpow *= b
            acc = acc * a + c * bpow
        return Element(F, Fraction(acc, d * bpow))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o[0]:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _q_divmod(self.q, o)
        return _qpoly(self.field, q), _qpoly(self.field, r)

    def __mod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o[0]:
            raise ZeroDivisionError("polynomial division by zero")
        return _qpoly(self.field, _q_rem(self.q, o))


# -- gcd machinery ----------------------------------------------------------------


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm (over Q, on the primitive parts
    of the integer numerators)."""
    F = _field_of(f, g)
    if isinstance(F, RationalField):
        a, b = f.q[0], g.q[0]
        while b:
            a, b = b, _primitive(_pdivmod(a, b)[1])[0]
        return _qpoly(F, _q_monic((a, 1)))
    a, b = f.vals, g.vals
    while b:
        a, b = b, _rem(F, a, b)
    return _plain(F, _monic(F, a))


def poly_xgcd(f: Polynomial, g: Polynomial):
    """(g, s, t) with g = s f + t g monic."""
    F = _field_of(f, g)
    if isinstance(F, RationalField):
        return _q_xgcd(F, f.q, g.q)
    one = [F._one_val()]
    r0, r1 = f.vals, g.vals
    s0, s1 = one, []
    t0, t1 = [], one
    while r1:
        q, r = _divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(F, s0, _mul(F, q, s1))
        t0, t1 = t1, _sub(F, t0, _mul(F, q, t1))
    if r0:
        inv = [F._inv(r0[-1])]
        r0, s0, t0 = _mul(F, r0, inv), _mul(F, s0, inv), _mul(F, t0, inv)
    return _plain(F, r0), _plain(F, s0), _plain(F, t0)


def _q_xgcd(F, a, b):
    """poly_xgcd over Q on the integer forms a = A/da and b = B/db: each
    triple keeps r = s A + t B; a pseudo-division step c r0 = q r1 + r
    gives the next triple c (r0, s0, t0) - q (r1, s1, t1), divided by the
    gcd of its entries.  The results are the last nonzero triple over
    lc(r)."""
    (r0, da), (r1, db) = a, b
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r, c = _pdivmod(r0, r1)
        s = _int_sub([c * x for x in s0], _convolve(q, s1))
        t = _int_sub([c * x for x in t0], _convolve(q, t1))
        r0, s0, t0, (r1, s1, t1) = r1, s1, t1, _primitive(r, s, t)
    lc = r0[-1] if r0 else 1
    return (_qpoly(F, _q_normal(r0, lc)), _qpoly(F, _q_normal([x * da for x in s0], lc)),
            _qpoly(F, _q_normal([x * db for x in t0], lc)))


def pow_mod(f: Polynomial, n: int, m: Polynomial) -> Polynomial:
    """f^n mod m by square-and-multiply (1 mod m for n = 0)."""
    F, mv = _field_of(f, m), m.vals
    if not mv:
        raise ZeroDivisionError("polynomial division by zero")
    result, base = None, _rem(F, f.vals, mv)
    while n:
        if n & 1:
            result = base if result is None else _rem(F, _mul(F, result, base), mv)
        n >>= 1
        if n:
            base = _rem(F, _mul(F, base, base), mv)
    if result is None:
        result = _rem(F, [F._one_val()], mv)
    return _poly(F, result)


class _Frobenius:
    """The map g -> g^q mod m on F_q[x]/(m), for a payload list m of
    degree at least 1 over a finite field F of order q.

    Every coefficient c of g has c^q = c, so g^q = sum g_i x^(iq), and
    g^q mod m is the combination sum g_i row_i of the rows x^(iq) mod m.
    Row 1 is x^q mod m, by one exponentiation, and row i + 1 is row i times
    row 1 mod m; rows are built the first time an input reaches them."""

    __slots__ = ("field", "m", "rows")

    def __init__(self, F, m, rows=None):
        self.field, self.m = F, m
        self.rows = [[F._one_val()]] if rows is None else rows

    def __call__(self, g):
        """g^q mod m, a payload list, for a payload list or tuple g of
        degree below deg m."""
        F, m, rows = self.field, self.m, self.rows
        while len(rows) < len(g):
            if len(rows) == 1:
                x = _plain(F, [F._zero_val(), F._one_val()])
                rows.append(pow_mod(x, F.order, _plain(F, m)).vals)
            else:
                rows.append(_rem(F, _mul(F, rows[-1], rows[1]), m))
        if isinstance(F, PrimeField):
            out = [0] * (len(m) - 1)
            for c, row in zip(g, rows):
                if c:
                    for j, y in enumerate(row):
                        out[j] += c * y
            p = F.p
            return _trim([c % p for c in out], 0)
        add, mul, zero = F._add, F._mul, F._zero_val()
        out = [zero] * (len(m) - 1)
        for c, row in zip(g, rows):
            if c != zero:
                for j, y in enumerate(row):
                    out[j] = add(out[j], mul(c, y))
        return _trim(out, zero)

    def mod(self, v):
        """The map of F_q[x]/(v) for a monic divisor v of m: the rows built
        so far, reduced mod v."""
        F = self.field
        return _Frobenius(F, v, [_rem(F, r, v) for r in self.rows[:len(v) - 1]])


# -- squarefree decomposition -------------------------------------------------


def _pth_root(f: Polynomial) -> Polynomial:
    """p-th root of a polynomial in F_q[x^p], q any power of p."""
    field = f.field
    e = field.order // field.char
    # c^(q/p) is the p-th root of c in F_q
    return _plain(field, [_pow(field, c, e) for c in f.vals[::field.char]])


def squarefree_decomposition(f: Polynomial):
    """[(g_i, i)] with f = lc * prod g_i^i, the g_i squarefree, monic and
    pairwise coprime.  Handles characteristic p via p-th root extraction
    and characteristic 0 by Yun's algorithm."""
    if f.is_zero():
        raise ZeroDivisionError("squarefree decomposition of zero")
    field = f.field
    f = f.monic()
    if f.is_one():
        return []
    out = {}

    def accumulate(g, mult):
        if g.degree >= 1:
            out[g] = out.get(g, 0) + mult

    def decompose(h, outer):
        if h.is_one():
            return
        d = h.derivative()
        if d.is_zero():
            # h is a p-th power
            decompose(_pth_root(h), outer * field.char)
            return
        w = poly_gcd(h, d)
        v = h.exact_div(w)
        # v = product of squarefree parts with multiplicity not divisible by p
        i = 1
        while not v.is_one():
            y = poly_gcd(v, w)
            piece = v.exact_div(y)
            accumulate(piece, i * outer)
            v = y
            w = w.exact_div(y)
            i += 1
        if not w.is_one():
            decompose(w, outer)

    decompose(f, 1)
    return sorted(out.items(), key=lambda t: (t[1], t[0].sort_key()))


# -- factorization over finite fields ----------------------------------------------


def _ddf(f: Polynomial, frob: _Frobenius):
    """Distinct-degree factorization of a monic squarefree f over F_q, with
    frob the Frobenius map mod f: [(product of degree-d irreducibles, d)]."""
    field = f.field
    out = []
    x = Polynomial.x(field)
    h = x % f
    v = f
    d = 0
    while v.degree > 2 * d + 1:
        d += 1
        h = _plain(field, frob(h.vals))  # x^(q^d) mod v
        g = poly_gcd(v, h - x)
        if not g.is_one():
            out.append((g, d))
            v = v.exact_div(g)
            h = h % v
            frob = frob.mod(v.vals)
    if v.degree > 0:
        out.append((v, v.degree))
    return out


def _edf(f: Polynomial, d: int, rng: random.Random, frob: _Frobenius):
    """Equal-degree splitting (Cantor-Zassenhaus); f is monic squarefree,
    all irreducible factors of degree d, and frob is the Frobenius map
    modulo a multiple of f.

    In odd characteristic a^((q^d - 1)/2) is (a a^q ... a^(q^(d-1)))^((q-1)/2),
    by d - 1 applications of frob and one exponentiation by (q - 1)/2.

    No gcd(f, a) is taken first: an irreducible factor phi of f that divides
    a has b = a^((q^d - 1)/2) = 0 mod phi, so gcd(f, b - 1) leaves phi to
    f/g, and in characteristic 2 the trace T(a) = 0 mod phi puts phi into
    gcd(f, T(a)); the sorted factor list is the same either way."""
    field = f.field
    q = field.order
    n = f.degree
    if n == d:
        return [f]
    if d > 1:
        frob = frob.mod(f.vals)
    while True:
        a = _plain(field, _trim([_random_element(field, rng) for _ in range(n)],
                               field._zero_val()))
        if a.degree < 1:
            continue
        if field.char == 2:
            # trace map T(a) = a + a^2 + a^4 + ... over F_{2^(k*d)}
            k_bits = (q ** d).bit_length() - 1
            t = a % f
            acc = t
            for _ in range(k_bits - 1):
                t = (t * t) % f
                acc = (acc + t) % f
            g = poly_gcd(f, acc)
        else:
            norm = t = a.vals
            for _ in range(d - 1):
                t = frob(t)
                norm = _rem(field, _mul(field, norm, t), f.vals)
            b = pow_mod(_plain(field, norm), (q - 1) // 2, f)
            g = poly_gcd(f, b - Polynomial.one(field))
        if not g.is_one() and g.degree < n:
            break
    return _edf(g, d, rng, frob) + _edf(f.exact_div(g), d, rng, frob)


def _random_element(field, rng: random.Random):
    """A uniform payload of a finite field: of F_p, or of a residue field
    from one uniform base payload per coefficient, lowest degree first."""
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return field(tuple(_random_element(field.base, rng)
                       for _ in range(field.deg))).val


def poly_factor(f: Polynomial, used=None):
    """Full factorization over a finite field: sorted [(monic irreducible, mult)],
    or its entries whose multiplicity the predicate `used` accepts: the
    squarefree pieces of the other multiplicities are not split.

    The result is deterministic: the factors are unique and sorted
    canonically, whatever the equal-degree stage draws.
    """
    if f.is_zero():
        raise ZeroDivisionError("factorization of zero")
    field = f.field
    if isinstance(field, RationalField):
        raise FieldError("factorization over Q is unsupported; supply factored input")
    if field.order is None:
        raise FieldError("factorization requires a finite field")
    # the former seed-0 key, so each split draws as in earlier measurements
    rng = random.Random(f"0:{field.order}:{tuple(f.vals)}")
    out = []
    for g, mult in squarefree_decomposition(f):
        if used is not None and not used(mult):
            continue
        frob = _Frobenius(field, g.vals)
        for part, d in _ddf(g, frob):
            for irr in _edf(part, d, rng, frob):
                out.append((irr.monic(), mult))
    out.sort(key=lambda t: (t[0].sort_key(), t[1]))
    return out


def is_irreducible(f: Polynomial) -> bool:
    """Irreducibility test.

    Over a finite field: Rabin's test, x^(q^d) by iterating the Frobenius
    map mod f.  Over Q: a deterministic certificate (linear, rational-root
    criterion for degrees 2-3, or a modular irreducibility witness); raises
    if no certificate is found.
    """
    if f.degree < 1:
        return False
    field = f.field
    if isinstance(field, RationalField):
        return _is_irreducible_over_q(f)
    n = f.degree
    if n == 1:
        return True
    # f is irreducible iff x^(q^n) = x mod f and gcd(f, x^(q^d) - x) = 1 for
    # d = n/r, r a prime divisor of n; x^(q^d) by iterating the Frobenius
    frob = _Frobenius(field, f.vals)
    x = Polynomial.x(field)
    coprime_at = {n // r for r, _ in _factor_int(n)}
    h = x
    for d in range(1, n + 1):
        h = _plain(field, frob(h.vals))
        if d in coprime_at and not poly_gcd(f, h - x).is_one():
            return False
    return h == x


def _is_irreducible_over_q(f: Polynomial) -> bool:
    n = f.degree
    if n == 1:
        return True
    # the primitive integer polynomial of f
    ints = _primitive(f.q[0])[0]
    if ints[0] == 0:
        return False  # x divides f
    if n <= 3:
        # rational roots suffice for degrees 2 and 3
        for r in _rational_root_candidates(ints):
            if sum(Fraction(c) * r ** i for i, c in enumerate(ints)) == 0:
                return False
        return True
    # modular witness for higher degree
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67):
        if ints[-1] % p == 0:
            continue
        fp = PrimeField(p)
        fbar = Polynomial(fp, ints)
        if poly_gcd(fbar, fbar.derivative()).is_one() and is_irreducible(fbar):
            return True
    raise FieldError("no irreducibility certificate found over Q; certify the input")


def _divisors(n):
    """The positive divisors of n, increasing; none for n = 0."""
    out = [1] if n else []
    for r, e in _factor_int(abs(n)):
        out = [d * r ** i for d in out for i in range(e + 1)]
    return sorted(out)


def _rational_root_candidates(ints):
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            yield Fraction(num, den)
            yield Fraction(-num, den)
