"""Dense univariate polynomials over any of the exact fields.

A Polynomial keeps its coefficients in ``vals`` as field payloads, lowest
degree first with a nonzero leading coefficient (the zero polynomial has an
empty list): an int in [0, p) over F_p, a pair over F_{p^2}, a Fraction over
Q, a reduced Polynomial over a residue field, a RationalFunction over k(t).
Arithmetic runs on these lists through the field's payload protocol
(``_add``/``_sub``/``_mul``/``_inv``/``_zero_val``); over F_p, chosen by the
field's type, the product and the long division run on raw ints with one
reduction mod p per output coefficient.  ``Element``s appear only at the
boundary: the constructor takes them, ``coeffs``, ``leading()``,
``constant_coeff()``, ``f[i]`` and ``evaluate`` return them, and
``map_coeffs`` hands them to its function.

Factorization over finite fields runs squarefree / distinct-degree /
equal-degree splitting; the equal-degree stage is probabilistic but seeded,
and the factor list is sorted canonically so output never depends on the
seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .fields import (Element, FieldError, PrimeField, QuadraticField,
                     RationalField, _pow)


# -- the kernel: payload lists, lowest degree first -------------------------------
#
# Inputs are trimmed lists that are never mutated, so Polynomials may share
# them; every list a kernel returns is trimmed.


def _trim(cs, zero):
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def _add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = F._add
    out = [add(x, y) for x, y in zip(a, b)]
    if len(a) > len(b):
        return out + a[len(b):]
    return _trim(out, F._zero_val())


def _sub(F, a, b):
    return _add(F, a, _neg(F, b))


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
    r, low, inv = list(a), b[:-1], F._inv(b[-1])
    if isinstance(F, PrimeField):
        p = F.p
        q = [0] * (len(a) - n)
        for k in range(len(a) - n - 1, -1, -1):
            c = r[k + n] * inv % p
            if c:
                q[k] = c
                for i, y in enumerate(low, k):
                    r[i] -= c * y
        return q, _trim([x % p for x in r[:n]], 0)
    sub, mul, zero = F._sub, F._mul, F._zero_val()
    q = [zero] * (len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        if r[k + n] != zero:
            c = q[k] = mul(r[k + n], inv)
            for i, y in enumerate(low, k):
                r[i] = sub(r[i], mul(c, y))
    return q, _trim(r[:n], zero)


def _rem(F, a, b):
    return _divmod(F, a, b)[1]


def _field_of(f, g):
    if f.field is not g.field and f.field != g.field:
        raise FieldError("polynomials over different fields")
    return f.field


def _poly(field, vals):
    """The Polynomial on a trimmed payload list, taken over as it is."""
    f = object.__new__(Polynomial)
    f.field = field
    f.vals = vals
    return f


class Polynomial:
    """A polynomial over a field that follows the payload protocol of
    ``.fields`` (residue fields and ``FunctionField`` included).

    ``vals`` holds the coefficients as the field's payloads, lowest degree
    first and trimmed; the constructor accepts Elements, ints and Fractions,
    and ``coeffs`` is the read-only list of the coefficients as Elements."""

    __slots__ = ("field", "vals")

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
        return self if vals is self.vals else _poly(self.field, vals)

    def __eq__(self, other):
        if isinstance(other, (int,)):
            other = Polynomial.constant(self.field, self.field(other))
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
        return _poly(self.field, _add(self.field, self.vals, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _poly(self.field, _sub(self.field, self.vals, o))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly(self.field, _neg(self.field, self.vals))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _poly(self.field, _mul(self.field, self.vals, o))

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
        return _poly(self.field, q), _poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
        return _poly(F, _trim(out, F._zero_val()))

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

    def shift(self, n: int) -> "Polynomial":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return _poly(self.field, [self.field._zero_val()] * n + self.vals)

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


# -- gcd machinery ----------------------------------------------------------------


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    F = _field_of(f, g)
    a, b = f.vals, g.vals
    while b:
        a, b = b, _rem(F, a, b)
    return _poly(F, _monic(F, a))


def poly_xgcd(f: Polynomial, g: Polynomial):
    """(g, s, t) with g = s f + t g monic."""
    F = _field_of(f, g)
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
    return _poly(F, r0), _poly(F, s0), _poly(F, t0)


def inverse_mod(f: Polynomial, m: Polynomial) -> Polynomial:
    g, s, _ = poly_xgcd(f, m)
    if not g.is_one():
        raise ArithmeticError("element is not invertible modulo the given modulus")
    return s % m


def pow_mod(f: Polynomial, n: int, m: Polynomial) -> Polynomial:
    """f^n mod m by square-and-multiply (1 for n = 0)."""
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
    return Polynomial.one(F) if result is None else _poly(F, result)


# -- squarefree decomposition -------------------------------------------------


def _pth_root(f: Polynomial) -> Polynomial:
    """p-th root of a polynomial in F_q[x^p] (q = p or p^2)."""
    field = f.field
    e = field.order // field.char
    # c^(q/p) is the p-th root of c in F_q
    return _poly(field, [_pow(field, c, e) for c in f.vals[::field.char]])


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
    merged = {}
    for g, m in out.items():
        merged[g] = merged.get(g, 0) + m
    return sorted(merged.items(), key=lambda t: (t[1], t[0].sort_key()))


def squarefree_part(f: Polynomial) -> Polynomial:
    """The monic product of the distinct irreducible factors of f."""
    result = Polynomial.one(f.field)
    for g, _ in squarefree_decomposition(f):
        result = result * g
    return result


def radical_with_odd_part(f: Polynomial):
    """(radical, odd) where odd is the product of factors of odd multiplicity."""
    rad = Polynomial.one(f.field)
    odd = Polynomial.one(f.field)
    for g, m in squarefree_decomposition(f):
        rad = rad * g
        if m % 2 == 1:
            odd = odd * g
    return rad, odd


# -- factorization over finite fields ----------------------------------------------


def _ddf(f: Polynomial):
    """Distinct-degree factorization of a monic squarefree f over F_q:
    [(product of degree-d irreducibles, d)]."""
    field = f.field
    q = field.order
    out = []
    x = Polynomial.x(field)
    h = x % f
    v = f
    d = 0
    while v.degree > 2 * (d + 1) - 1 and v.degree > 0:
        d += 1
        h = pow_mod(h, q, v)
        g = poly_gcd(v, h - x)
        if not g.is_one():
            out.append((g, d))
            v = v.exact_div(g)
            h = h % v
    if v.degree > 0:
        out.append((v, v.degree))
    return out


def _edf(f: Polynomial, d: int, rng: random.Random):
    """Equal-degree splitting (Cantor-Zassenhaus); f is monic squarefree,
    all irreducible factors of degree d."""
    field = f.field
    q = field.order
    n = f.degree
    if n == d:
        return [f]
    while True:
        a = _poly(field, _trim([_random_element(field, rng) for _ in range(n)],
                               field._zero_val()))
        if a.degree < 1:
            continue
        g = poly_gcd(f, a)
        if not g.is_one() and g.degree < n:
            break
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
            b = pow_mod(a, (q ** d - 1) // 2, f)
            g = poly_gcd(f, b - Polynomial.one(field))
        if not g.is_one() and g.degree < n:
            break
    return _edf(g, d, rng) + _edf(f.exact_div(g), d, rng)


def _random_element(field, rng: random.Random):
    """A uniform payload of F_p or F_{p^2}."""
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    if isinstance(field, QuadraticField):
        return (rng.randrange(field.p), rng.randrange(field.p))
    raise FieldError("random elements only over finite fields")


def _fingerprint(f: Polynomial):
    return tuple(f.vals)


def poly_factor(f: Polynomial, seed: int = 0):
    """Full factorization over a finite field: sorted [(monic irreducible, mult)].

    The result is deterministic: the equal-degree stage is driven by a seed
    mixed with the coefficients, and factors are sorted canonically.
    """
    if f.is_zero():
        raise ZeroDivisionError("factorization of zero")
    field = f.field
    if isinstance(field, RationalField):
        raise FieldError("factorization over Q is unsupported; supply factored input")
    if not isinstance(field, (PrimeField, QuadraticField)):
        raise FieldError("factorization requires a finite field")
    rng = random.Random(f"{seed}:{field.order}:{_fingerprint(f)}")
    out = []
    for g, mult in squarefree_decomposition(f):
        for part, d in _ddf(g):
            for irr in _edf(part, d, rng):
                out.append((irr.monic(), mult))
    out.sort(key=lambda t: (t[0].sort_key(), t[1]))
    return out


def is_irreducible(f: Polynomial, seed: int = 0) -> bool:
    """Irreducibility test.

    Over a finite field: Rabin's test via x^(q^d) iterates.  Over Q: a
    deterministic certificate (linear, rational-root criterion for degrees
    2-3, or a modular irreducibility witness); raises if no certificate is
    found.
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
    q = field.order
    x = Polynomial.x(field)
    coprime_at = {n // r for r in _prime_divisors(n)}
    h = x
    for d in range(1, n + 1):
        h = pow_mod(h, q, f)
        if d in coprime_at and not poly_gcd(f, h - x).is_one():
            return False
    return h == x


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible_over_q(f: Polynomial) -> bool:
    n = f.degree
    if n == 1:
        return True
    # clear denominators to a primitive integer polynomial
    den = 1
    for c in f.vals:
        den = math.lcm(den, c.denominator)
    ints = [int(c * den) for c in f.vals]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
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
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_root_candidates(ints):
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            yield Fraction(num, den)
            yield Fraction(-num, den)
