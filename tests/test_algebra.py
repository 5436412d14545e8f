"""Field, polynomial and residue-field arithmetic against brute-force oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest

from cubica.algebra import (Element, FunctionField, Polynomial, PrimeField, QQ,
                            QuadraticField, RationalField, RationalFunction,
                            ResidueField, FieldError, is_irreducible,
                            is_square, poly_factor, poly_gcd, poly_xgcd,
                            pow_mod, smallest_nonsquare, sqrt,
                            squarefree_decomposition, trace_to_f2)

F5 = PrimeField(5)
F7 = PrimeField(7)


def poly(field, coeffs):
    return Polynomial(field, coeffs)


def test_prime_field_rejects_three_and_composites():
    with pytest.raises(Exception):
        PrimeField(3)
    with pytest.raises(Exception):
        PrimeField(6)


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
    F25 = QuadraticField(F5, 0, 2)
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
    F4 = QuadraticField(F2, 1, 1)
    x4 = Polynomial.x(F4)
    g = x4 ** 2 + x4 + 1  # splits over F4
    fac4 = poly_factor(g)
    assert len(fac4) == 2 and all(p.degree == 1 for p, _ in fac4)


@pytest.mark.parametrize("q_field", [F5, F7, PrimeField(11),
                                     QuadraticField(F5, 0, 2),
                                     QuadraticField(PrimeField(2), 1, 1)])
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
    assert is_square(xb) == pow_mod(xb.val, 12, R.modulus).is_one()
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


# -- norm criterion for squares, against Euler's criterion and the full scan ----


def euler_is_square_residue(R, a):
    """Reference: Euler's criterion a^((q^k - 1)/2) = 1 in F_q[x]/(m)."""
    return a.is_zero() or pow_mod(a.val, (R.order - 1) // 2, R.modulus).is_one()


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
def test_residue_nonsquare_is_the_full_scan_element(p, deg):
    rng = random.Random(f"residue-nonsquare:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    assert smallest_nonsquare(R) == full_scan_nonsquare_residue(R)


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
    return QuadraticField(field, 0, full_scan_nonsquare(field).val)


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


FIELD_KINDS = {
    "F2": PrimeField(2),
    "F5": F5,
    "F13": PrimeField(13),
    "F4": QuadraticField(PrimeField(2), 1, 1),
    "F25": QuadraticField(F5, 0, 2),
    "F7[x]/(x-3)": residue_field(7, [-3, 1]),
    "F5[x]/(x^2+2)": residue_field(5, [2, 0, 1]),
    "F13[x]/(x^3-2)": residue_field(13, [-2, 0, 0, 1]),
    "F2[x]/(x^3+x+1)": residue_field(2, [1, 1, 0, 1]),
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


# -- the hash/eq contract across equal field instances --------------------------


PROTOCOL_FIELDS = {
    "F5": lambda: PrimeField(5),
    "F25": lambda: QuadraticField(PrimeField(5), 0, 2),
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
    Q1, Q2 = QuadraticField(PrimeField(7), 0, 3), QuadraticField(PrimeField(7), 0, 3)
    assert len({Q1((1, 2)), Q2((1, 2))}) == 1
    assert len({FunctionField(QQ).gen, FunctionField(QQ).gen}) == 1


def test_coercion_accepts_an_equal_field():
    F13, G13 = PrimeField(13), PrimeField(13)
    assert F13(G13(3)) == F13(3)
    Q1, Q2 = QuadraticField(F13, 0, 2), QuadraticField(F13, 0, 2)
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
    result, base = [F.one], ref_divmod(F, a, m)[1]
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
    "F25": QuadraticField(F5, 0, 2),
    "F5[x]/(x^2+2)": residue_field(5, [2, 0, 1]),
    "Q": QQ,
}


def kernel_element(F, rng):
    if rng.random() < 0.25:
        return F.zero
    if F.order is None:
        return F(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if isinstance(F, ResidueField):
        return F(Polynomial(F.base, [rng.randrange(5), rng.randrange(5)]))
    if isinstance(F, QuadraticField):
        return F((rng.randrange(F.p), rng.randrange(F.p)))
    return F(rng.randrange(F.p))


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


def monic_polys(F, degree):
    elems = list(F.elements())
    for low in product(elems, repeat=degree):
        yield Polynomial(F, list(low) + [F.one])


def random_monic(F, degree, rng):
    if isinstance(F, QuadraticField):
        low = [F((rng.randrange(F.p), rng.randrange(F.p))) for _ in range(degree)]
    else:
        low = [F(rng.randrange(F.p)) for _ in range(degree)]
    return Polynomial(F, low + [F.one])


@pytest.mark.parametrize("name", ["F5", "F4", "F101", "F25"])
def test_is_irreducible_agrees_with_poly_factor(name):
    """Every monic of degree <= 4 over F_5 and F_4, and seeded random monics
    of degree <= 12 over F_101 and F_25."""
    F = {"F5": F5, "F4": QuadraticField(PrimeField(2), 1, 1),
         "F101": PrimeField(101), "F25": QuadraticField(F5, 0, 2)}[name]
    if F.order < 10:
        polys = [f for d in range(1, 5) for f in monic_polys(F, d)]
    else:
        rng = random.Random(f"irreducible:{name}")
        polys = [random_monic(F, d, rng) for d in range(1, 13) for _ in range(8)]
    for f in polys:
        assert is_irreducible(f) == (poly_factor(f) == [(f, 1)])


def test_evaluate_takes_field_elements_only():
    x = Polynomial.x(F5)
    f = x ** 2 + 1
    assert f.evaluate(2) == F5(0) and f.evaluate(F5(3)) == F5(0)
    with pytest.raises(TypeError):
        f.evaluate(x + 1)
    with pytest.raises(FieldError):
        f.evaluate(F7(2))
    assert f.compose(x + 1) == (x + 1) ** 2 + 1
