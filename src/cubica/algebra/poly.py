"""Dense univariate polynomials over any of the exact fields.

Coefficients are stored lowest degree first with a nonzero leading
coefficient (the zero polynomial has an empty list).  Factorization over
finite fields runs squarefree / distinct-degree / equal-degree splitting;
the equal-degree stage is probabilistic but seeded, and the factor list is
sorted canonically so output never depends on the seed.
"""

from __future__ import annotations

import random

from .fields import Element, FieldError, PrimeField, QuadraticField, RationalField


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = [c if isinstance(c, Element) else field(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(field):
        return Polynomial(field, [])

    @staticmethod
    def one(field):
        return Polynomial(field, [field.one])

    @staticmethod
    def x(field):
        return Polynomial(field, [field.zero, field.one])

    @staticmethod
    def constant(field, c):
        return Polynomial(field, [c])

    # -- basics ----------------------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_coeff(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else self.field.zero

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        if lc.is_one():
            return self
        inv = lc.inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, (int,)):
            other = Polynomial.constant(self.field, self.field(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field._hash,) + tuple(c._hash_val() for c in self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in reversed(self.coeffs)))

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        from fractions import Fraction
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise FieldError("polynomials over different fields")
            return other
        if isinstance(other, (Element, int, Fraction)):
            return Polynomial.constant(self.field, self.field(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(self.field, [self[i] + o[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(self.field, [self[i] - o[i] for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Polynomial.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero] * max(0, self.degree - o.degree + 1)
        r = list(self.coeffs)
        inv = o.leading().inverse()
        while len(r) >= len(o.coeffs) and r:
            k = len(r) - len(o.coeffs)
            c = r[-1] * inv
            q[k] = c
            for i, b in enumerate(o.coeffs):
                r[k + i] = r[k + i] - c * b
            while r and r[-1].is_zero():
                r.pop()
        return Polynomial(self.field, q), Polynomial(self.field, r)

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
        field = self.field
        return Polynomial(field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        """Horner evaluation; x may be any object with ring operators
        (a field Element, a Polynomial, a RationalFunction, ...)."""
        if self.is_zero():
            return x * 0 if not isinstance(x, Element) else self.field.zero
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def compose(self, g: "Polynomial") -> "Polynomial":
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * g + Polynomial.constant(self.field, c)
        return acc

    def shift(self, n: int) -> "Polynomial":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return Polynomial(self.field, [self.field.zero] * n + self.coeffs)

    def reverse(self, n=None) -> "Polynomial":
        """Coefficient reversal x^n f(1/x); n defaults to deg f."""
        if n is None:
            n = self.degree
        cs = [self[n - i] for i in range(n + 1)]
        return Polynomial(self.field, cs)

    def map_coeffs(self, fn, field=None) -> "Polynomial":
        return Polynomial(field or self.field, [fn(c) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"{c!r}")
            elif i == 1:
                parts.append("x" if c.is_one() else f"{c!r}*x")
            else:
                parts.append(f"x^{i}" if c.is_one() else f"{c!r}*x^{i}")
        return " + ".join(parts)


# -- gcd machinery ----------------------------------------------------------------


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    if f.field != g.field:
        raise FieldError("gcd of polynomials over different fields")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_xgcd(f: Polynomial, g: Polynomial):
    """(g, s, t) with g = s f + t g monic."""
    field = f.field
    r0, r1 = f, g
    s0, s1 = Polynomial.one(field), Polynomial.zero(field)
    t0, t1 = Polynomial.zero(field), Polynomial.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.leading().inverse()
    return r0.monic(), s0 * inv, t0 * inv


def inverse_mod(f: Polynomial, m: Polynomial) -> Polynomial:
    g, s, _ = poly_xgcd(f, m)
    if not g.is_one():
        raise ArithmeticError("element is not invertible modulo the given modulus")
    return s % m


def pow_mod(f: Polynomial, n: int, m: Polynomial) -> Polynomial:
    result = Polynomial.one(f.field)
    base = f % m
    while n:
        if n & 1:
            result = (result * base) % m
        base = (base * base) % m
        n >>= 1
    return result


# -- squarefree decomposition -------------------------------------------------


def _pth_root(f: Polynomial) -> Polynomial:
    """p-th root of a polynomial in F_q[x^p] (q = p or p^2)."""
    field = f.field
    p = field.char
    q = field.order
    cs = []
    for i in range(0, f.degree + 1, p):
        c = f[i]
        # c^(q/p) is the p-th root of c in F_q
        cs.append(c ** (q // p))
    return Polynomial(field, cs)

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
        a = Polynomial(field, [_random_element(field, rng) for _ in range(n)])
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
    if isinstance(field, PrimeField):
        return field(rng.randrange(field.p))
    if isinstance(field, QuadraticField):
        return field((rng.randrange(field.p), rng.randrange(field.p)))
    raise FieldError("random elements only over finite fields")


def _fingerprint(f: Polynomial):
    return tuple(c._hash_val() for c in f.coeffs)


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
    q = field.order
    x = Polynomial.x(field)
    h = pow_mod(x, q ** n, f)
    if not (h - x % f).is_zero():
        return False
    for d in {n // r for r in _prime_divisors(n)}:
        h = pow_mod(x, q ** d, f)
        if not poly_gcd(f, h - x).is_one():
            return False
    return True


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
    from fractions import Fraction

    n = f.degree
    if n == 1:
        return True
    # clear denominators to a primitive integer polynomial
    den = 1
    for c in f.coeffs:
        den = den * c.val.denominator // _gcd_int(den, c.val.denominator)
    ints = [int(c.val * den) for c in f.coeffs]
    g = 0
    for c in ints:
        g = _gcd_int(g, abs(c))
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
        fbar = Polynomial(fp, [fp(c) for c in ints])
        if poly_gcd(fbar, fbar.derivative()).is_one() and is_irreducible(fbar):
            return True
    raise FieldError("no irreducibility certificate found over Q; certify the input")


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


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
    from fractions import Fraction

    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            yield Fraction(num, den)
            yield Fraction(-num, den)
