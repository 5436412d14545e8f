"""Field, polynomial and residue-field arithmetic against brute-force oracles."""

import random
import time
from fractions import Fraction
from itertools import islice, product
from math import isqrt

import pytest

from cubica.algebra import (Element, FunctionField, Polynomial, PrimeField, QQ,
                            RationalField, RationalFunction, ResidueField,
                            FieldError, is_irreducible, is_square, poly_factor,
                            poly_gcd, poly_xgcd, pow_mod, smallest_nonsquare,
                            sqrt, squarefree_decomposition, trace_to_f2)
from cubica.algebra.fields import _factor_int, _is_prime
from cubica.algebra.poly import _divisors, _divmod, _mul, _rem, _taylor_shift
from cubica.function_field import Place
from cubica.hyper import MumfordClass
from cubica.quadratic import (ASClass, SquareClass, _squarefree_int,
                              canonical_quadratic_field)

F5 = PrimeField(5)
F7 = PrimeField(7)


def quadratic(field, a, b):
    """F_p[t]/(t^2 - a t - b)."""
    return ResidueField(Polynomial(field, [-b, -a, 1]))


def random_element(F, rng):
    """A uniform element of a finite field, one base element per
    coefficient of a residue."""
    if isinstance(F, PrimeField):
        return F(rng.randrange(F.p))
    return F(tuple(random_element(F.base, rng) for _ in range(F.deg)))


def poly(field, coeffs):
    return Polynomial(field, coeffs)


def test_prime_field_rejects_three_and_composites():
    with pytest.raises(Exception):
        PrimeField(3)
    with pytest.raises(Exception):
        PrimeField(6)


def _ref_is_prime(n):
    return n == 2 or (n > 2 and n % 2 == 1
                      and all(n % d for d in range(3, isqrt(n) + 1, 2)))


def _ref_prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _ref_divisors(n):
    n = abs(n)
    return sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})


def _ref_squarefree_int(n):
    sign, n, out, d = -1 if n < 0 else 1, abs(n), 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        out *= d if e % 2 else 1
        d += 1
    return sign * out * n


def test_one_integer_factorization_gives_the_four_trial_divisions():
    """Primality, prime divisors, divisors and the signed squarefree part,
    all read off `_factor_int`, against one trial-division loop each, on
    every n in [-1000, 10^4], the benchmark's primes and seeded n up to 10^18
    (two factors below 10^9, one 1000-smooth, so the references stay fast;
    the O(sqrt n) divisor reference stops at 10^10); and a composite with a
    small factor is refused at its first prime, not after 5 * 10^8 divisions."""
    rng = random.Random("factor-int")
    smooth = [1]
    for _ in range(60):
        s = 1
        while s * 1000 < 10 ** 9:
            s *= rng.randrange(2, 1000)
        smooth.append(s)
    big = [s * rng.randrange(1, 10 ** 9) for s in smooth]
    primes = [5, 7, 11, 13, 101, 257, 1009, 998244353, 10 ** 9 + 7, 10 ** 9 + 9]
    mid = [rng.randrange(10 ** 10) for _ in range(20)]
    for n in list(range(-1000, 10 ** 4 + 1)) + big + primes + [p - 1 for p in primes]:
        assert _is_prime(n) == _ref_is_prime(n), n
        assert [r for r, _ in _factor_int(n)] == _ref_prime_divisors(n), n
        if n:
            assert _squarefree_int(n) == _ref_squarefree_int(n), n
    for n in list(range(-1000, 10 ** 4 + 1)) + mid + primes:
        assert _divisors(n) == _ref_divisors(n), n
    with pytest.raises(ZeroDivisionError):
        _squarefree_int(0)
    start = time.perf_counter()
    assert not _is_prime(2 * (10 ** 18 + 3)) and time.perf_counter() - start < 1.0


def test_poly_gcd_examples():
    x = Polynomial.x(F5)
    assert poly_gcd(x ** 2 - 1, x - 1) == x - 1
    # x^2 + 2 has no root mod 5, so it is coprime to x
    assert poly_gcd(x ** 2 + 2, x).is_one()
    f = 2 * (x ** 3 + x)
    assert poly_gcd(Polynomial.zero(F5), f) == f.monic()


def brute_force_factor(f):
    """All monic irreducible divisors with multiplicity, by trial division
    over every monic polynomial of degree <= deg f."""
    field = f.field
    found = []
    rem = f.monic()

    def monic_polys(d):
        elems = list(field.elements())

        def rec(i):
            if i == 0:
                yield []
            else:
                for rest in rec(i - 1):
                    for c in elems:
                        yield [c] + rest

        for low in rec(d):
            yield Polynomial(field, low + [field.one])

    d = 1
    while rem.degree > 0:
        progress = False
        for cand in monic_polys(d):
            while True:
                q, r = divmod(rem, cand)
                if r.is_zero():
                    found.append(cand)
                    rem = q
                    progress = True
                else:
                    break
        if not progress:
            d += 1
        if d > f.degree:
            break
    out = {}
    for g in found:
        out[g] = out.get(g, 0) + 1
    return sorted(out.items(), key=lambda t: (t[0].sort_key(), t[1]))


def test_factor_frozen_examples():
    x = Polynomial.x(F5)
    assert poly_factor(x ** 2 - 1) == [((x + 1), 1), ((x + 4), 1)]
    assert poly_factor(x ** 2 + 2) == [((x ** 2 + 2), 1)]
    x7 = Polynomial.x(F7)
    f = x7 ** 4 + 4 * x7 ** 3 + 4 * x7 ** 2 - 5
    assert poly_factor(f) == brute_force_factor(f)


@pytest.mark.parametrize("field", [F5, F7])
def test_factor_reassembles_random_inputs(field):
    rng = random.Random(1234)
    x = Polynomial.x(field)
    for _ in range(40):
        coeffs = [field(rng.randrange(field.p)) for _ in range(rng.randrange(2, 9))]
        f = Polynomial(field, coeffs)
        if f.degree < 1:
            continue
        prod = Polynomial.constant(field, f.leading())
        for g, m in poly_factor(f):
            assert is_irreducible(g)
            assert g.leading().is_one()
            prod = prod * g ** m
        assert prod == f


def test_factor_over_quadratic_field():
    F25 = canonical_quadratic_field(F5)
    x = Polynomial.x(F25)
    # x^2 + 2 = (x - t)(x + t) with t^2 = 2... over F25, x^2+2 = x^2 - 3 and
    # 3 = 2*4 = (2t)^2, so roots are +-2t
    f = x ** 2 + 2
    factors = poly_factor(f)
    assert len(factors) == 2
    prod = Polynomial.one(F25)
    for g, m in factors:
        assert g.degree == 1 and m == 1
        prod = prod * g
    assert prod == f


def test_factor_char2_fields():
    F2 = PrimeField(2)
    x = Polynomial.x(F2)
    f = (x ** 2 + x + 1) * x ** 2 * (x + 1)
    fac = dict(poly_factor(f))
    assert fac[x ** 2 + x + 1] == 1
    assert fac[x] == 2
    assert fac[x + 1] == 1
    F4 = canonical_quadratic_field(F2)
    x4 = Polynomial.x(F4)
    g = x4 ** 2 + x4 + 1  # splits over F4
    fac4 = poly_factor(g)
    assert len(fac4) == 2 and all(p.degree == 1 for p, _ in fac4)


@pytest.mark.parametrize("q_field", [F5, F7, PrimeField(13),
                                     canonical_quadratic_field(F5),
                                     canonical_quadratic_field(PrimeField(2)),
                                     ResidueField(Polynomial(PrimeField(2),
                                                             [1, 1, 0, 1]))],
                         ids=["F5", "F7", "F13", "F25", "F4", "F8"])
def test_factor_x_to_the_q_minus_x(q_field):
    """x^q - x is the product of the q monic linear factors x - a.  A
    random a of the equal-degree split has a root in F_q, hence a common
    factor with x^q - x, more often than not: the splitting must put such
    factors on the right side without a gcd(f, a) of its own."""
    x = Polynomial.x(q_field)
    q = q_field.order
    linear = sorted((x - a for a in q_field.elements()), key=Polynomial.sort_key)
    assert poly_factor(x ** q - x) == [(g, 1) for g in linear]


@pytest.mark.parametrize("q_field", [F5, F7, PrimeField(11),
                                     canonical_quadratic_field(F5),
                                     canonical_quadratic_field(PrimeField(2))])
def test_square_table_exhaustive(q_field):
    elems = list(q_field.elements())
    squares = {(e * e)._hash_val() for e in elems}
    for e in elems:
        assert is_square(e) == (e._hash_val() in squares)
        if is_square(e):
            r = sqrt(e)
            assert r * r == e


def test_sqrt_frozen():
    assert is_square(F7(2)) and sqrt(F7(2)) in (F7(3), F7(4))
    assert sqrt(F7(2)) * sqrt(F7(2)) == F7(2)
    assert not is_square(F7(3))
    assert sqrt(F7(1)) == F7(1)
    assert smallest_nonsquare(F5) == F5(2)


def test_residue_field_ops():
    x = Polynomial.x(F5)
    R = ResidueField(x ** 2 + 2)
    # 2 is a square in F_25 (Euler: 2^12 = 1)
    assert is_square(R(2))
    r = sqrt(R(2))
    assert r * r == R(2)
    # the residue xbar has xbar^2 = -2 = 3
    xb = R(x)
    assert xb * xb == R(3)
    assert is_square(xb) == pow_mod(R.lift(xb), 12, R.modulus).is_one()
    # evaluation residue field at x - 1 is F5 itself
    R1 = ResidueField(x - 1)
    assert R1.deg == 1 and R1.order == 5


def test_residue_min_poly():
    x = Polynomial.x(F5)
    R = ResidueField(x ** 2 + 2)
    xb = R(x)
    assert R.min_poly(xb) == x ** 2 + 2
    assert R.min_poly(R(3)) == x - 3


def test_squarefree_decomposition_char_p():
    x = Polynomial.x(F5)
    f = (x + 1) ** 5 * (x ** 2 + 2) ** 2 * x
    dec = dict(squarefree_decomposition(f))
    assert dec[x + 1] == 5
    assert dec[x ** 2 + 2] == 2
    assert dec[x] == 1


def test_irreducibility_over_q():
    x = Polynomial.x(QQ)
    assert is_irreducible(x ** 2 - 2)
    assert not is_irreducible(x ** 2 - 1)
    assert is_irreducible(x ** 3 - 3 * x - 1)
    assert not is_irreducible(x ** 3 - 1)
    # degree >= 4 needs a prime modulo which f stays irreducible: x^4 - 2
    # has one (5); a product of quadratics and x^4 + 1 (irreducible over Q)
    # are reducible modulo every prime and refused
    assert is_irreducible(x ** 4 - 2)
    for f in ((x ** 2 + 1) * (x ** 2 + 2), x ** 4 + 1):
        with pytest.raises(FieldError, match="no irreducibility certificate found over Q"):
            is_irreducible(f)


def test_rational_function_normalization():
    x = Polynomial.x(F5)
    f = RationalFunction((x ** 2 - 1) * 2, (x - 1) * 3)
    # gcd stripped, denominator monic
    assert f.den.is_one() is False or True
    g = RationalFunction(2 * (x + 1) * 2, Polynomial.constant(F5, F5(3)) * 2)
    assert f == RationalFunction(4 * (x + 1))
    assert (f * f.inverse()).is_one()
    h = RationalFunction(x ** 2 + 1, x - 2)
    assert h + (-h) == RationalFunction.zero(F5)
    # composition: (x^2)(x+1) = (x+1)^2
    sq = RationalFunction(x ** 2)
    assert sq.compose(RationalFunction(x + 1)) == RationalFunction((x + 1) ** 2)


def ref_rf_compose(r, g):
    """Reference: r(g) summed term by term, every partial sum in normal form."""
    n = max(r.num.degree, r.den.degree, 0)
    num = den = RationalFunction.zero(r.field)
    gn, gd = RationalFunction(g.num), RationalFunction(g.den)
    for i in range(n + 1):
        w = gn ** i * gd ** (n - i)
        num = num + r.num[i] * w
        den = den + r.den[i] * w
    return num / den


def random_rf(field, rng, max_deg):
    def coeff():
        if field.order is None:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return rng.randrange(field.order)
    while True:
        num = Polynomial(field, [coeff() for _ in range(rng.randint(0, max_deg) + 1)])
        den = Polynomial(field, [coeff() for _ in range(rng.randint(0, max_deg) + 1)])
        if not den.is_zero():
            return RationalFunction(num, den)


@pytest.mark.parametrize("field", [F5, PrimeField(101), QQ], ids=repr)
def test_rational_compose_matches_the_term_by_term_sum(field):
    rng = random.Random(f"rf-compose:{field!r}")
    x = Polynomial.x(field)
    cases = [(RationalFunction.from_const(field, 3),
              RationalFunction(x + 1, x * x + 2)),
             (RationalFunction(x * x + 1, x - 1),
              RationalFunction(x * 2 + 1, x * x + x + 3))]
    cases += [(random_rf(field, rng, 4), random_rf(field, rng, 3))
              for _ in range(12)]
    for r, g in cases:
        try:
            ref = ref_rf_compose(r, g)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                r.compose(g)
            continue
        out = r.compose(g)
        assert (out.num.vals, out.den.vals) == (ref.num.vals, ref.den.vals)


# -- norm criterion for squares, against Euler's criterion and the full scan ----


def euler_is_square_residue(R, a):
    """Reference: Euler's criterion a^((q^k - 1)/2) = 1 in F_q[x]/(m)."""
    return a.is_zero() or pow_mod(R.lift(a), (R.order - 1) // 2, R.modulus).is_one()


def euler_is_square(e):
    """Reference: Euler's criterion e^((q - 1)/2) = 1 in F_p or F_{p^2}."""
    return e.is_zero() or (e ** ((e.field.order - 1) // 2)).is_one()


def full_scan_nonsquare_residue(R):
    """Reference: the first non-square by Euler's criterion over every
    residue, constant coefficient varying fastest, constants included."""
    for coeffs in product(list(R.base.elements()), repeat=R.deg):
        e = R(Polynomial(R.base, list(reversed(coeffs))))
        if not e.is_zero() and not euler_is_square_residue(R, e):
            return e


def full_scan_nonsquare(field):
    """Reference: the first non-square by Euler's criterion over every
    element in canonical order, constants included."""
    for e in field.elements():
        if not e.is_zero() and not euler_is_square(e):
            return e


def random_irreducible(field, deg, rng):
    while True:
        m = Polynomial(field, [rng.randrange(field.p) for _ in range(deg)] + [1])
        if is_irreducible(m):
            return m


def random_residue(R, rng):
    return R(Polynomial(R.base, [rng.randrange(R.base.p) for _ in range(R.deg)]))


RESIDUE_CASES = [(p, d) for p in (5, 7, 11, 13, 101, 257) for d in (1, 2, 3, 4)]


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_norm_criterion_matches_euler(p, deg):
    rng = random.Random(f"residue-squares:{p}:{deg}")
    field = PrimeField(p)
    R = ResidueField(random_irreducible(field, deg, rng), check=False)
    for _ in range(10):
        a = random_residue(R, rng)
        assert is_square(a) == euler_is_square_residue(R, a)
        # the square of a unit is a square; the norm is multiplicative
        b = random_residue(R, rng)
        if not b.is_zero():
            sq = b * b
            assert is_square(sq)
            assert R.norm(a * b) == R.norm(a) * R.norm(b)


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_trace_is_the_sum_of_the_conjugates(p, deg):
    rng = random.Random(f"residue-trace:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    for _ in range(4):
        a = conjugate = random_residue(R, rng)
        total = R.zero
        for _ in range(deg):
            total, conjugate = total + conjugate, conjugate ** p
        assert total == R(Element(R.base, R._trace(a.val)))


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_nonsquare_is_the_full_scan_element(p, deg):
    rng = random.Random(f"residue-nonsquare:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    assert smallest_nonsquare(R) == full_scan_nonsquare_residue(R)


@pytest.mark.parametrize("p,deg", [(5, 2), (5, 4), (7, 3), (13, 2)])
def test_elements_past_the_base_are_the_tail_of_the_full_order(p, deg):
    rng = random.Random(f"residue-skip:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    assert list(R.elements(skip_base=True)) == list(islice(R.elements(), p, None))
    if deg == 2:
        q = quadratic_field(p)
        assert list(q.elements(skip_base=True)) == list(islice(q.elements(), p, None))


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_sqrt_is_the_smaller_root(p, deg):
    rng = random.Random(f"residue-sqrt:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    for _ in range(4):
        b = random_residue(R, rng)
        a = b * b
        r = sqrt(a)
        assert r * r == a
        assert r.sort_key() <= (-r).sort_key()
        assert r in (b, -b)


def quadratic_field(p):
    """F_{p^2} = F_p[t]/(t^2 - b) for the smallest non-square b of F_p."""
    field = PrimeField(p)
    return quadratic(field, 0, full_scan_nonsquare(field).val)


class PairField:
    """Reference F_{p^2} = F_p[t]/(t^2 - a t - b) on int pairs (c0, c1) for
    c0 + c1*t, a closed formula for each operation; the nontrivial
    automorphism is t -> a - t.  It follows the payload protocol, so
    ``is_square``, ``sqrt`` and ``smallest_nonsquare`` run on it."""

    deg = 2

    def __init__(self, base, a, b):
        p = base.p
        self.base, self.p, self.a, self.b = base, p, a % p, b % p
        self.char, self.order = p, p * p
        self._hash = hash(("pairs", p, self.a, self.b))
        self.zero, self.one = Element(self, (0, 0)), Element(self, (1, 0))

    def __call__(self, v):
        if isinstance(v, Element):
            return v
        return Element(self, (v[0] % self.p, v[1] % self.p))

    def __eq__(self, other):
        return isinstance(other, PairField) and (other.p, other.a, other.b) == (
            self.p, self.a, self.b)

    def __hash__(self):
        return self._hash

    def _add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def _sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def _neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def _mul(self, x, y):
        # (x0 + x1 t)(y0 + y1 t) with t^2 = a t + b
        p, a, b = self.p, self.a, self.b
        t2 = x[1] * y[1]
        return ((x[0] * y[0] + b * t2) % p, (x[0] * y[1] + x[1] * y[0] + a * t2) % p)

    def _norm(self, x):
        # (c0 + c1 t)(c0 + c1 (a - t)) = c0^2 + a c0 c1 - b c1^2
        c0, c1 = x
        return (c0 * c0 + self.a * c0 * c1 - self.b * c1 * c1) % self.p

    def _inv(self, x):
        p = self.p
        ninv = pow(self._norm(x), p - 2, p)
        return (((x[0] + self.a * x[1]) * ninv) % p, (-x[1] * ninv) % p)

    def _zero_val(self):
        return (0, 0)

    def _one_val(self):
        return (1, 0)

    def norm(self, e):
        return Element(self.base, self._norm(e.val))

    def sort_key(self, v):
        return (v[1], v[0])

    def elements(self, skip_base=False):
        for c1 in range(1 if skip_base else 0, self.p):
            for c0 in range(self.p):
                yield Element(self, (c0, c1))

    def format_element(self, v):
        c0, c1 = v
        if c1 == 0:
            return str(c0)
        if c0 == 0:
            return f"{c1}*t"
        return f"{c0}+{c1}*t"


PAIR_FIELDS = {"F4": (2, 1, 1), "F25": (5, 0, 2), "F49": (7, 1, 4),
               "F169": (13, 0, 2), "F257^2": (257, 0, 3)}


@pytest.mark.parametrize("name", list(PAIR_FIELDS))
def test_residue_field_matches_the_pair_formulas(name):
    """ResidueField(t^2 - a t - b) against the pair formulas under
    c0 + c1*t <-> (c0, c1): element order, sort_key order, products,
    inverses, norms, squares, canonical square roots, the smallest
    non-square and printing (every pair on the small fields, a seeded
    sample of 300 on F_{257^2})."""
    p, a, b = PAIR_FIELDS[name]
    P, R = PairField(PrimeField(p), a, b), quadratic(PrimeField(p), a, b)
    pairs = [e.val for e in P.elements()]
    assert [R(v) for v in pairs] == list(R.elements())
    assert [R(v) for v in pairs[p:]] == list(R.elements(skip_base=True))
    if len(pairs) > 200:
        pairs = random.Random(f"pairs:{name}").sample(pairs, 300)
    assert ([R(v) for v in sorted(pairs, key=P.sort_key)]
            == sorted((R(v) for v in pairs), key=Element.sort_key))
    for x in pairs:
        ex, rx = P(x), R(x)
        assert repr(rx) == repr(ex)
        assert R.norm(rx) == P.norm(ex)
        assert is_square(rx) == is_square(ex)
        if not rx.is_zero():
            assert rx.inverse() == R(ex.inverse().val)
        if is_square(rx):
            assert sqrt(rx) == R(sqrt(ex).val)
        for y in pairs[:40]:
            assert rx * R(y) == R((ex * P(y)).val)
    if p != 2:
        assert smallest_nonsquare(R) == R(smallest_nonsquare(P).val)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 257])
def test_quadratic_field_norm_criterion(p):
    rng = random.Random(f"fp2-squares:{p}")
    Q = quadratic_field(p)
    assert smallest_nonsquare(Q) == full_scan_nonsquare(Q)
    assert smallest_nonsquare(Q.base) == full_scan_nonsquare(Q.base)
    for _ in range(40):
        e = Q((rng.randrange(p), rng.randrange(p)))
        assert is_square(e) == euler_is_square(e)
        sq = e * e
        r = sqrt(sq)
        assert r * r == sq
        assert r.sort_key() <= (-r).sort_key()


# -- one is_square / sqrt / trace_to_f2 for every kind of field -----------------


def residue_field(p, coeffs):
    F = PrimeField(p)
    return ResidueField(Polynomial(F, [F(c) for c in coeffs]))


F25 = canonical_quadratic_field(F5)
# F_625 as a residue field over F_25: t is not a square in F_25
F25_X2_T = ResidueField(Polynomial(F25, [F25((0, -1)), 0, 1]))

FIELD_KINDS = {
    "F2": PrimeField(2),
    "F5": F5,
    "F13": PrimeField(13),
    "F4": canonical_quadratic_field(PrimeField(2)),
    "F25": F25,
    "F7[x]/(x-3)": residue_field(7, [-3, 1]),
    "F5[x]/(x^2+2)": residue_field(5, [2, 0, 1]),
    "F5[x]/(x^3+x+1)": residue_field(5, [1, 1, 0, 1]),
    "F13[x]/(x^3-2)": residue_field(13, [-2, 0, 0, 1]),
    "F2[x]/(x^3+x+1)": residue_field(2, [1, 1, 0, 1]),
    "F25[x]/(x^2-t)": F25_X2_T,
    "Q": QQ,
}


def sample_elements(name, field):
    if field.order is None:
        return [field(Fraction(n, d)) for n, d in ((0, 1), (1, 1), (-3, 2), (12, 35))]
    elements = list(field.elements())
    if len(elements) > 40:
        elements = random.Random(f"field-kinds:{name}").sample(elements, 40)
    return elements


@pytest.mark.parametrize("name", list(FIELD_KINDS))
def test_square_root_and_trace_on_every_field_kind(name):
    field = FIELD_KINDS[name]
    for b in sample_elements(name, field):
        sq = b * b
        assert is_square(sq)
        r = sqrt(sq)
        assert r in (b, -b)
        assert r.sort_key() <= (-r).sort_key()
        if field.char != 2:
            with pytest.raises(FieldError):
                trace_to_f2(b)
            continue
        # the sum of the Frobenius powers b^(2^i), 2^i < |field|
        acc, t = b, b
        for _ in range(field.order.bit_length() - 2):
            t = t * t
            acc = acc + t
        assert acc.is_zero() or acc.is_one()
        assert trace_to_f2(b) == (0 if acc.is_zero() else 1)


# -- square roots by descent against Tonelli-Shanks over the whole field --------


def tonelli_shanks_root(e, nonsquare):
    """Reference: the square root as taken before the descent to the base,
    Tonelli-Shanks over the whole field F_q with a non-square of it, and the
    root that is smaller by sort_key."""
    q = e.field.order
    if q % 4 == 3:
        r = e ** ((q + 1) // 4)
    else:
        m, s = q - 1, 0
        while m % 2 == 0:
            m //= 2
            s += 1
        c, r, t = nonsquare ** m, e ** ((m + 1) // 2), e ** m
        while not t.is_one():
            i, tt = 0, t
            while not tt.is_one():
                tt = tt * tt
                i += 1
            b = c ** (1 << (s - i - 1))
            r, c = r * b, b * b
            t, s = t * c, i
    return min(r, -r, key=Element.sort_key)


DESCENT_FIELDS = {
    **{f"F101[x]/(x-{a})": residue_field(101, [-a, 1]) for a in (0, 1, 17, 100)},
    **{f"F{p}^2": canonical_quadratic_field(PrimeField(p)) for p in (5, 7, 13, 101)},
    "F49": quadratic(F7, 1, 4),
    "F25[x]/(x^2-t)": F25_X2_T,
    "F5[x]/(x^3+x+1)": residue_field(5, [1, 1, 0, 1]),
    "F5[x]/(x^5-x-1)": residue_field(5, [-1, -1, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("name", list(DESCENT_FIELDS))
def test_descent_roots_match_tonelli_shanks(name):
    """Every nonzero square, the base elements of the quadratic fields
    among them (the base non-squares take the u sqrt(c/u^2) branch), has
    the root of the reference, sign included; every non-square raises."""
    field = DESCENT_FIELDS[name]
    nonsquare = full_scan_nonsquare(field)
    squares = {b * b for b in field.elements() if not b.is_zero()}
    for a in field.elements():
        if a in squares:
            assert sqrt(a) == tonelli_shanks_root(a, nonsquare)
        elif not a.is_zero():
            with pytest.raises(FieldError):
                sqrt(a)
    if field.deg == 2:
        base_nonsquares = [c for c in field.base.elements()
                           if not c.is_zero() and not is_square(c)]
        assert base_nonsquares and all(field(c) in squares for c in base_nonsquares)


# name: (field, sampled elements); odd degree over F_101, F_257 and F_25
SAMPLED_DESCENT_FIELDS = {
    "F101[x]/(x^3+x^2+1)": (residue_field(101, [1, 0, 1, 1]), 2000),
    "F257[x]/(x^3+x^2+1)": (residue_field(257, [1, 0, 1, 1]), 2000),
    "F25[x]/(x^3+x^2+1)": (ResidueField(Polynomial(F25, [1, 0, 1, 1])), 400),
}


@pytest.mark.parametrize("name", list(SAMPLED_DESCENT_FIELDS))
def test_odd_degree_roots_match_tonelli_shanks_on_samples(name):
    """Seeded samples of squares b^2 and non-squares n b^2, n the first
    non-square: each square has the root of the reference, sign included,
    and each non-square raises."""
    field, size = SAMPLED_DESCENT_FIELDS[name]
    nonsquare = full_scan_nonsquare(field)
    rng = random.Random(f"roots:{name}")
    for _ in range(size // 2):
        b = random_element(field, rng)
        while b.is_zero():
            b = random_element(field, rng)
        a = b * b
        assert sqrt(a) == tonelli_shanks_root(a, nonsquare) and sqrt(a) in (b, -b)
        with pytest.raises(FieldError):
            sqrt(nonsquare * a)


# -- the hash/eq contract across equal field instances --------------------------


PROTOCOL_FIELDS = {
    "F5": lambda: PrimeField(5),
    "F25": lambda: canonical_quadratic_field(PrimeField(5)),
    "F7[x]/(x-3)": lambda: residue_field(7, [-3, 1]),
    "F5[x]/(x^2+2)": lambda: residue_field(5, [2, 0, 1]),
    "F13[x]/(x^3-2)": lambda: residue_field(13, [-2, 0, 0, 1]),
    "F2[x]/(x^3+x+1)": lambda: residue_field(2, [1, 1, 0, 1]),
    "Q": RationalField,
}


@pytest.mark.parametrize("name", list(PROTOCOL_FIELDS))
def test_every_field_follows_the_element_protocol(name):
    """Every field, residue fields included, returns Elements from F(v) that
    compute with ints, hash and compare by value across equal instances, and
    serve as polynomial coefficients."""
    F, G = PROTOCOL_FIELDS[name](), PROTOCOL_FIELDS[name]()
    assert F is not G and F == G and hash(F) == hash(G)
    assert isinstance(F(1), Element)
    assert F.zero + 1 == F.one
    for a, b in zip(sample_elements(name, F), sample_elements(name, G)):
        assert a.field is F and b.field is G
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert F(b) == a
        coeffs = Polynomial(F, [1, a]).coeffs
        assert all(isinstance(c, Element) and c.field == F for c in coeffs)
        if isinstance(F, ResidueField):
            sq = a * a
            assert F.sqrt(F(sq.val)) == sqrt(sq)


def test_equal_values_over_equal_fields_hash_alike():
    assert len({PrimeField(5)(2), PrimeField(5)(2)}) == 1
    assert len({Polynomial.x(PrimeField(5)), Polynomial.x(PrimeField(5))}) == 1
    Q1, Q2 = quadratic(PrimeField(7), 0, 3), quadratic(PrimeField(7), 0, 3)
    assert len({Q1((1, 2)), Q2((1, 2))}) == 1
    assert len({FunctionField(QQ).gen, FunctionField(QQ).gen}) == 1


def _class_values(F5_, Q):
    """SquareClass, ASClass, Place and MumfordClass values.  The four
    Artin-Schreier classes over F_2 are two equal pairs whose reduced
    representatives differ: x^3 + x^2 ~ x^3 + x and 1/x^3 + 1/x^2 ~
    1/x^3 + 1/x, since x^2 + x and 1/x^2 + 1/x are h^2 + h."""
    F2_ = PrimeField(2)
    t = RationalFunction.x(F2_)
    x, xq = Polynomial.x(F5_), Polynomial.x(Q)
    out = [ASClass.of(g) for g in (t ** 3 + t ** 2, t ** 3 + t, t.inverse() ** 3
                                   + t.inverse() ** 2, t.inverse() ** 3 + t.inverse(), t)]
    out += [ASClass.trivial(F2_), ASClass.of(F2_(1))]
    out += [SquareClass.trivial(F5_), SquareClass.of(x), SquareClass.of(x * x * F5_(2)),
            SquareClass.trivial(Q), SquareClass.of(xq * Q(3))]
    out += [Place.finite(x), Place.finite(x * x + 2), Place.infinity(F5_),
            Place.finite(xq), Place.infinity(Q)]
    out += [MumfordClass(Polynomial.one(F5_), Polynomial.zero(F5_), 0, 0),
            MumfordClass(x - 1, Polynomial.constant(F5_, F5_(2)), -1, 0),
            MumfordClass(xq - 1, Polynomial.constant(Q, Q(2)), -1, 0)]
    return out


def _value_twins():
    """Values of every type the algebra hands out, built twice through
    separate field objects: Elements of F_5, F_7, Q, F_25,
    F5[x]/(x^3 + x + 1) and F_5(x), Polynomials and RationalFunctions
    over F_5, Q and F_25, constants among them, and the class and place
    values of `_class_values`.  Returns the two lists."""
    twins = []
    for _ in range(2):
        pool = []
        F5_, F7_ = PrimeField(5), PrimeField(7)
        R = canonical_quadratic_field(F5_)
        S = ResidueField(Polynomial(F5_, [1, 1, 0, 1]))
        K = FunctionField(F5_)
        for field, consts in ((F5_, (0, 1, 3)), (F7_, (1, 3)),
                              (QQ, (0, 1, Fraction(1, 2))), (R, (0, 1, 3, (1, 2))),
                              (S, (1, 3)), (K, (1, 3))):
            elems = [field(c) for c in consts]
            pool += elems
            if field in (F5_, QQ, R):
                x = Polynomial.x(field)
                polys = [Polynomial.constant(field, e) for e in elems]
                polys += [x, x + elems[-1]]
                pool += polys
                pool += [RationalFunction(f) for f in polys]
                pool.append(RationalFunction(Polynomial.one(field), x))
        pool.append(K(RationalFunction.x(F5_)))
        pool += _class_values(F5_, QQ)
        twins.append(pool)
    return twins


def test_equal_values_hash_alike():
    """a == b implies hash(a) == hash(b) for every pair of values, mixed
    types and fields included.  Equality does not coerce: an Element, a
    Polynomial or a RationalFunction equals only a value of its own type
    over an equal field, never an int, a Fraction, a constant of another
    type or a value over another field (R(3) against F5(3) on R = F_25)."""
    first, second = _value_twins()
    assert all(a == b for a, b in zip(first, second))
    pool = first + second + [0, 1, 3, -1, Fraction(1, 2), Fraction(6, 2)]
    for a in pool:
        for b in pool:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                assert type(a) is type(b) or {type(a), type(b)} <= {int, Fraction}
            assert (a == b) == (b == a) == (not a != b), (a, b)
    a, b = _class_values(F5, QQ)[:2]
    assert a == b and a.gamma != b.gamma and len({a, b}) == 1
    R = canonical_quadratic_field(F5)
    assert R(3) != F5(3) and R(F5(3)) == R(3)
    assert F5(1) != 1 and Polynomial.one(F5) != 1 and Polynomial.one(F5) != F5(1)
    assert QQ(Fraction(1, 2)) != Fraction(1, 2)
    assert RationalFunction.one(F5) != Polynomial.one(F5)
    assert len({F5(1), 1}) == 2 and len({F5(1), PrimeField(5)(1)}) == 1


def test_coercion_accepts_an_equal_field():
    F13, G13 = PrimeField(13), PrimeField(13)
    assert F13(G13(3)) == F13(3)
    Q1, Q2 = quadratic(F13, 0, 2), quadratic(F13, 0, 2)
    assert Q1(Q2((1, 4))) == Q1((1, 4))
    with pytest.raises(Exception, match="cannot coerce"):
        PrimeField(5)(F13(3))


# -- the payload kernel against a schoolbook over boxed Elements ----------------


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_at(F, cs, i):
    return cs[i] if i < len(cs) else F.zero


def ref_add(F, a, b):
    return ref_trim([ref_at(F, a, i) + ref_at(F, b, i)
                     for i in range(max(len(a), len(b)))])


def ref_sub(F, a, b):
    return ref_trim([ref_at(F, a, i) - ref_at(F, b, i)
                     for i in range(max(len(a), len(b)))])


def ref_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_trim(out)


def ref_divmod(F, a, b):
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = q[k] = r[-1] / b[-1]
        for i, y in enumerate(b):
            r[k + i] = r[k + i] - c * y
        r = ref_trim(r)
    return ref_trim(q), r


def ref_monic(a):
    return [c / a[-1] for c in a]


def ref_gcd(F, a, b):
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    return ref_monic(a)


def ref_xgcd(F, a, b):
    r0, r1, s0, s1, t0, t1 = a, b, [F.one], [], [], [F.one]
    while r1:
        q, r = ref_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(F, s0, ref_mul(F, q, s1))
        t0, t1 = t1, ref_sub(F, t0, ref_mul(F, q, t1))
    if not r0:
        return r0, s0, t0
    inv = [r0[-1].inverse()]
    return ref_monic(r0), ref_mul(F, s0, inv), ref_mul(F, t0, inv)


def ref_pow_mod(F, a, n, m):
    result, base = ref_divmod(F, [F.one], m)[1], ref_divmod(F, a, m)[1]
    while n:
        if n & 1:
            result = ref_divmod(F, ref_mul(F, result, base), m)[1]
        base = ref_divmod(F, ref_mul(F, base, base), m)[1]
        n >>= 1
    return result


def ref_compose(F, a, b):
    acc = []
    for c in reversed(a):
        acc = ref_add(F, ref_mul(F, acc, b), [c])
    return acc


def ref_derivative(a):
    return ref_trim([a[i] * i for i in range(1, len(a))])


KERNEL_FIELDS = {
    "F2": PrimeField(2),
    "F5": F5,
    "F101": PrimeField(101),
    "F(10^9+7)": PrimeField(10 ** 9 + 7),
    "F25": F25,
    "F5[x]/(x^2+2)": residue_field(5, [2, 0, 1]),
    "F5[x]/(x^3+x+1)": residue_field(5, [1, 1, 0, 1]),
    "F25[x]/(x^2-t)": F25_X2_T,
    "Q": QQ,
}


def kernel_element(F, rng):
    if rng.random() < 0.25:
        return F.zero
    if F.order is None:
        return F(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return random_element(F, rng)


def kernel_pairs(name, F):
    """Random coefficient lists (trailing zeros included) in pairs, with the
    zero polynomial on either side, a polynomial against itself, and pairs
    whose leading terms cancel in the sum and in the difference."""
    rng = random.Random(f"kernel:{name}")
    lists = [[kernel_element(F, rng) for _ in range(rng.randrange(0, 8))]
             for _ in range(16)]
    pairs = list(zip(lists[::2], lists[1::2]))
    for a in lists[:4]:
        low = [kernel_element(F, rng) for _ in range(max(len(a) - 1, 0))]
        pairs += [(a, []), ([], a), (a, a), (a, [-c for c in a]),
                  (a, ref_add(F, a, low)), (a, ref_sub(F, low, a))]
    return pairs


@pytest.mark.parametrize("name", list(KERNEL_FIELDS))
def test_polynomial_kernel_matches_the_boxed_schoolbook(name):
    F = KERNEL_FIELDS[name]
    exps = (0, 1, 2, 5) if F.order is None else (0, 1, 2, 5, 13, F.order + 3)
    for a, b in kernel_pairs(name, F):
        f, g = Polynomial(F, a), Polynomial(F, b)
        a, b = ref_trim(a), ref_trim(b)
        assert f.coeffs == a and g.coeffs == b
        assert f == Polynomial(F, a + [F.zero]) and (f == g) == (a == b)
        assert hash(f) == hash((F._hash,) + tuple(c._hash_val() for c in a))
        assert f.sort_key() == (len(a) - 1, tuple(c.sort_key() for c in reversed(a)))
        assert (f + g).coeffs == ref_add(F, a, b)
        assert (f - g).coeffs == ref_sub(F, a, b)
        assert (-g).coeffs == ref_sub(F, [], b)
        assert (f * g).coeffs == ref_mul(F, a, b)
        assert f.derivative().coeffs == ref_derivative(a)
        assert f.compose(g).coeffs == ref_compose(F, a, b)
        if a:
            assert f.monic().coeffs == ref_monic(a)
        if a or b:
            assert poly_gcd(f, g).coeffs == ref_gcd(F, a, b)
            assert [h.coeffs for h in poly_xgcd(f, g)] == list(ref_xgcd(F, a, b))
        x0 = kernel_element(F, random.Random(len(a)))
        assert f.evaluate(x0) == sum((c * x0 ** i for i, c in enumerate(a)), F.zero)
        if b:
            q, r = divmod(f, g)
            assert [q.coeffs, r.coeffs] == list(ref_divmod(F, a, b))
            for n in exps:
                assert pow_mod(f, n, g).coeffs == ref_pow_mod(F, a, n, g.coeffs)


@pytest.mark.parametrize("p", [2, 5, 101, 10 ** 9 + 7])
def test_remainder_loop_matches_the_quotient_building_divmod(p):
    """The F_p remainder loop against _divmod(...)[1] on seeded dividends
    and monic or non-monic divisors: every degree gap 0-10, dividends
    shorter than the divisor (returned as they are) and the zero dividend."""
    F, rng = PrimeField(p), random.Random(f"rem:{p}")

    def draw(degree, monic):
        lead = 1 if monic else rng.randrange(1, p)
        return [rng.randrange(p) for _ in range(degree)] + [lead]

    pairs = []
    for gap in range(11):
        for monic in (True, False):
            degree = rng.randrange(0, 6)
            pairs.append((draw(degree + gap, rng.random() < 0.5), draw(degree, monic)))
    for monic in (True, False):
        b = draw(rng.randrange(1, 6), monic)
        pairs += [([], b), (draw(len(b) - 2, False), b), (draw(0, False), b)]
    for a, b in pairs:
        r = _rem(F, a, b)
        assert r == _divmod(F, a, b)[1]
        if len(a) < len(b):
            assert r is a
        f, g = Polynomial(F, a), Polynomial(F, b)
        assert (f % g).vals == r == divmod(f, g)[1].vals
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        Polynomial.x(F) % Polynomial.zero(F)


TAYLOR_FIELDS = {
    "F101": PrimeField(101),
    "F(10^9+7)": PrimeField(10 ** 9 + 7),
    "F13^2": canonical_quadratic_field(PrimeField(13)),
    "Q": QQ,
}


@pytest.mark.parametrize("name", list(TAYLOR_FIELDS))
def test_taylor_shift_matches_compose(name):
    """_taylor_shift(F, a, c) is the payload list of a(x + c) as compose
    gives it: the empty payload, constants, c = 0 and seeded draws of
    every degree up to 12, each against two draws of c and c = 0."""
    F, rng = TAYLOR_FIELDS[name], random.Random(f"taylor:{name}")

    def draw():
        c = kernel_element(F, rng)
        return c if not c.is_zero() else F.one

    payloads = [[], [F.one.val], [draw().val]]
    for degree in range(13):
        for _ in range(3):
            coeffs = [kernel_element(F, rng) for _ in range(degree)] + [draw()]
            payloads.append([c.val for c in coeffs])
    for a in payloads:
        f = Polynomial(F, [Element(F, v) for v in a])
        for c in (F.zero, draw(), draw()):
            shifted = _taylor_shift(F, a, c.val)
            assert shifted == f.compose(Polynomial(F, [c, F.one])).vals
            if c.is_zero():
                assert shifted == a


@pytest.mark.parametrize("field", [F5, QQ])
def test_every_residue_modulo_a_unit_is_zero(field):
    x = Polynomial.x(field)
    for unit in (Polynomial.one(field), Polynomial.constant(field, 3)):
        assert (x % unit).is_zero()
        for n in (0, 1, 3):
            assert pow_mod(x, n, unit).is_zero()
    assert pow_mod(x, 0, x ** 2 + 2).is_one()


def monic_polys(F, degree):
    elems = list(F.elements())
    for low in product(elems, repeat=degree):
        yield Polynomial(F, list(low) + [F.one])


def random_monic(F, degree, rng):
    return Polynomial(F, [random_element(F, rng) for _ in range(degree)] + [F.one])


IRREDUCIBLE_FIELDS = {
    "F5": (F5, 4), "F4": (canonical_quadratic_field(PrimeField(2)), 4),
    "F101": (PrimeField(101), 12), "F25": (F25, 12),
    "F5[x]/(x^3+x+1)": (residue_field(5, [1, 1, 0, 1]), 8),
    "F25[x]/(x^2-t)": (F25_X2_T, 4),
}


@pytest.mark.parametrize("name", list(IRREDUCIBLE_FIELDS))
def test_is_irreducible_agrees_with_poly_factor(name):
    """Every monic of degree <= 4 over F_5 and F_4, and seeded random monics
    of degree <= 12 over F_101 and F_25, <= 8 over F_125 and <= 4 over F_625
    (a residue field over F_25)."""
    F, max_deg = IRREDUCIBLE_FIELDS[name]
    if F.order < 10:
        polys = [f for d in range(1, max_deg + 1) for f in monic_polys(F, d)]
    else:
        rng = random.Random(f"irreducible:{name}")
        polys = [random_monic(F, d, rng) for d in range(1, max_deg + 1) for _ in range(8)]
    for f in polys:
        assert is_irreducible(f) == (poly_factor(f) == [(f, 1)])


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gauss_count(q, n):
    """The number of monic irreducibles of degree n over F_q:
    (1/n) sum over d | n of mu(d) q^(n/d)."""
    return sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def assert_factorization(f):
    """The factors of f are distinct, monic and irreducible, and their
    product with multiplicities is f."""
    factors = poly_factor(f)
    product_ = Polynomial.one(f.field)
    for g, m in factors:
        assert g.leading().is_one() and is_irreducible(g), (f, g)
        product_ = product_ * g ** m
    assert product_ == f and len({g for g, _ in factors}) == len(factors)
    return factors


# name: (field, degree up to which every monic is factored, degree up to
# which seeded random monics are); F_8 stands in for F_27, as the library
# rejects characteristic 3, and runs the characteristic-2 trace split
FACTOR_FIELDS = {
    "F5": (F5, 4, 4), "F7": (F7, 4, 4), "F25": (F25, 2, 4),
    "F8": (residue_field(2, [1, 1, 0, 1]), 3, 3),
}


@pytest.mark.parametrize("name", list(FACTOR_FIELDS))
def test_poly_factor_multiplies_back_and_counts_irreducibles(name):
    """Every monic f of small degree factors into monic irreducibles whose
    product is f, and the irreducible ones of each degree n number as
    Gauss's formula says.  Over F_25, where a factorization of degree 3
    takes about 1.5 ms, degrees 3 and 4 are seeded samples."""
    F, full, sampled = FACTOR_FIELDS[name]
    for n in range(1, full + 1):
        irreducible = sum(assert_factorization(f) == [(f, 1)] for f in monic_polys(F, n))
        assert irreducible == gauss_count(F.order, n), n
    rng = random.Random(f"factor:{name}")
    for n in range(full + 1, sampled + 1):
        for _ in range(100):
            assert_factorization(random_monic(F, n, rng))


def test_gauss_count_values():
    assert [gauss_count(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [gauss_count(5, n) for n in range(1, 5)] == [5, 10, 40, 150]


def test_evaluate_takes_field_elements_only():
    x = Polynomial.x(F5)
    f = x ** 2 + 1
    assert f.evaluate(2) == F5(0) and f.evaluate(F5(3)) == F5(0)
    with pytest.raises(TypeError):
        f.evaluate(x + 1)
    with pytest.raises(FieldError):
        f.evaluate(F7(2))
    assert f.compose(x + 1) == (x + 1) ** 2 + 1


# -- the Q kernel against the generic loops on Fractions --------------------------
#
# Over Q, a polynomial keeps integer numerators over one denominator, and
# its arithmetic, `poly_gcd`, `poly_xgcd` and `pow_mod` run on them; `_mul`
# and `_divmod` take Fraction lists through the same integer loops.  The
# references are the generic payload loops as they run on Fractions, one
# exact operation per coefficient.


def fraction_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fraction_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return fraction_trim([x + y for x, y in zip(a, b)])


def fraction_sub(a, b):
    return fraction_add(a, [-y for y in b])


def fraction_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0:
            for j, y in enumerate(b, i):
                out[j] = out[j] + x * y
    return out


def fraction_divmod(a, b):
    n = len(b) - 1
    if len(a) <= n:
        return [], a
    r, low, inv = list(a), b[:-1], 1 / b[-1]
    q = [Fraction(0)] * (len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        if r[k + n] != 0:
            c = q[k] = r[k + n] * inv
            for i, y in enumerate(low, k):
                r[i] = r[i] - c * y
    return q, fraction_trim(r[:n])


def fraction_xgcd(a, b):
    r0, r1, s0, s1, t0, t1 = a, b, [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = fraction_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, fraction_sub(s0, fraction_mul(q, s1))
        t0, t1 = t1, fraction_sub(t0, fraction_mul(q, t1))
    if r0:
        inv = [1 / r0[-1]]
        r0, s0, t0 = fraction_mul(r0, inv), fraction_mul(s0, inv), fraction_mul(t0, inv)
    return r0, s0, t0


Q_BITS = (1, 3, 20, 100, 400, 1500)


def q_list(rng, degree, bits, den=None):
    """degree + 1 random Fractions (a quarter of the lower ones zero, the
    leading one nonzero) with numerators and denominators of up to `bits`
    bits, over the one denominator `den` when given."""
    out = []
    for i in range(degree + 1):
        num = rng.getrandbits(bits) * rng.choice((-1, 1))
        if i == degree:
            num = num or 1
        elif rng.random() < 0.25:
            num = 0
        out.append(Fraction(num, den or rng.getrandbits(bits) or 1))
    return out


def q_kernel_pairs():
    """Pairs (a, b) over Q: every degree gap 0..10 with non-monic b, at
    heights of 1 to 1,500 bits, with independent denominators or one shared
    one; b above a; and the zero and constant operands on either side."""
    rng = random.Random("q-kernel")
    pairs = []
    for gap in range(11):
        for bits in Q_BITS:
            db = rng.randint(0, 5 if bits < 400 else 3)
            den = rng.choice((None, rng.getrandbits(bits) or 1))
            pairs.append((q_list(rng, db + gap, bits, den), q_list(rng, db, bits, den)))
    for bits in Q_BITS:
        a, c = q_list(rng, rng.randint(1, 6), bits), q_list(rng, 0, bits)
        pairs += [(a, []), ([], a), (a, c), (c, a), (c, c), (c, []),
                  (q_list(rng, 2, bits), q_list(rng, 5, bits))]
    pairs.append(([Fraction(2, 3), Fraction(0), Fraction(1)], [Fraction(-1, 5), Fraction(1)]))
    return pairs


def fraction_gcd(a, b):
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return fraction_mul(a, [1 / a[-1]]) if a else []


def fraction_pow_mod(a, n, m):
    result, base = fraction_divmod([Fraction(1)], m)[1], fraction_divmod(a, m)[1]
    while n:
        if n & 1:
            result = fraction_divmod(fraction_mul(result, base), m)[1]
        n >>= 1
        base = fraction_divmod(fraction_mul(base, base), m)[1]
    return result


def max_bits(cs):
    return max((max(abs(c.numerator), c.denominator).bit_length() for c in cs), default=0)


def small(a, b):
    """Whether the reference loops are quick on a and b: their cofactors
    grow fast, so degree times height is capped."""
    return (len(a) + len(b)) * max_bits(a + b) <= 8000


def vals_formed(f):
    """Whether the Fractions of f have been formed (read without forming
    them: the slot itself, not the attribute that builds it)."""
    try:
        Polynomial.vals.__get__(f)
    except AttributeError:
        return False
    return True


def assert_q_poly(f, ref):
    """The polynomial f over Q agrees in every view with
    Polynomial(QQ, ref), ref a trimmed list of reference Fractions.  The
    degree, the predicates, ==, leading() and f[i] form no Fraction list;
    vals, coeffs, hash, sort_key and repr then agree, and f still compares
    and hashes the same once its vals have been read."""
    want = Polynomial(QQ, ref)
    formed = vals_formed(f)
    assert f == want and want == f and not f != want
    assert ((f.degree, f.is_zero(), f.is_constant(), f.is_one())
            == (len(ref) - 1, not ref, len(ref) <= 1, ref == [1]))
    ends = (-1, 0, len(ref) - 1, len(ref))
    assert [f[i] for i in ends] == [want[i] for i in ends]
    assert not ref or f.leading() == want.leading()
    assert formed or not vals_formed(f)
    assert f.vals == ref and all(type(c) is Fraction for c in f.vals)
    assert f.coeffs == want.coeffs
    assert hash(f) == hash(want) == hash((QQ._hash,) + tuple(ref))
    assert f.sort_key() == want.sort_key()
    # str() of an int refuses more than 4,300 digits (about 14,000 bits)
    assert max_bits(ref) > 14000 or repr(f) == repr(want)
    assert f == want and f == want * 1 and hash(f) == hash(want * 1)


def test_q_kernel_matches_the_generic_fraction_loops():
    for a, b in q_kernel_pairs():
        out = _mul(QQ, a, b)
        assert out == fraction_mul(a, b)
        assert all(type(c) is Fraction for c in out) and (not out or out[-1] != 0)
        f, g = Polynomial(QQ, a), Polynomial(QQ, b)
        assert_q_poly(f * g, out)
        assert_q_poly(f + g, fraction_add(a, b))
        assert_q_poly(f - g, fraction_sub(a, b))
        assert_q_poly(-g, [-c for c in b])
        assert_q_poly(f.monic(), fraction_mul(a, [1 / a[-1]]) if a else [])
        assert_q_poly(f.derivative(), [i * c for i, c in enumerate(a)][1:])
        if b:
            q, r = _divmod(QQ, a, b)
            assert (q, r) == fraction_divmod(a, b)
            assert all(type(c) is Fraction for c in q + r)
            assert (not q or q[-1] != 0) and (not r or r[-1] != 0) and len(r) < len(b)
            assert fraction_add(fraction_mul(q, b), r) == a
            # kernel outputs back in as kernel inputs
            qp, rp = divmod(f, g)
            assert_q_poly(qp, q)
            assert_q_poly(rp, r)
            assert_q_poly(f % g, r)
            if small(q, r):
                assert_q_poly(qp * rp, fraction_mul(q, r))
                assert_q_poly(qp * qp - rp, fraction_sub(fraction_mul(q, q), r))
                assert_q_poly((qp * g).exact_div(g), q)
                assert_q_poly(qp * g + rp, a)
                assert_q_poly(poly_gcd(g, rp), fraction_gcd(b, r))
                assert_q_poly(pow_mod(qp + rp, 3, g), fraction_pow_mod(fraction_add(q, r), 3, b))
        if (a or b) and small(a, b):
            h, s, t = poly_xgcd(f, g)
            hs, ss, ts = fraction_xgcd(a, b)
            assert_q_poly(h, hs)
            assert_q_poly(s, ss)
            assert_q_poly(t, ts)
            assert h.vals[-1] == 1
            assert fraction_add(fraction_mul(s.vals, a), fraction_mul(t.vals, b)) == h.vals
            assert poly_gcd(f, g) == h
            assert_q_poly(poly_gcd(f * h, g * h), fraction_mul(hs, hs))
