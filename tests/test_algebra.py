"""Field, polynomial and residue-field arithmetic against brute-force oracles."""

import random
from itertools import product

import pytest

from cubica.algebra import (FunctionField, Polynomial, PrimeField, QQ,
                            QuadraticField, RationalFunction, ResidueField,
                            is_irreducible, is_square, poly_factor, poly_gcd,
                            smallest_nonsquare, sqrt, squarefree_decomposition)

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
    assert R.is_square(R(2))
    r = R.sqrt(R(2))
    assert R.mul(r, r) == R(2)
    # the residue xbar has xbar^2 = -2 = 3
    xb = R.xbar()
    assert R.mul(xb, xb) == R(3)
    assert R.is_square(xb) == (R.pow(xb, 12).is_one())
    # evaluation residue field at x - 1 is F5 itself
    R1 = ResidueField(x - 1)
    assert R1.deg == 1 and R1.order == 5


def test_residue_min_poly():
    x = Polynomial.x(F5)
    R = ResidueField(x ** 2 + 2)
    xb = R.xbar()
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
    return a.is_zero() or R.pow(a, (R.order - 1) // 2).is_one()


def euler_is_square(e):
    """Reference: Euler's criterion e^((q - 1)/2) = 1 in F_p or F_{p^2}."""
    return e.is_zero() or (e ** ((e.field.order - 1) // 2)).is_one()


def full_scan_nonsquare_residue(R):
    """Reference: the first non-square by Euler's criterion over every
    residue, constant coefficient varying fastest, constants included."""
    for coeffs in product(list(R.base.elements()), repeat=R.deg):
        e = Polynomial(R.base, list(reversed(coeffs)))
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
    return Polynomial(R.base, [rng.randrange(R.base.p) for _ in range(R.deg)])


RESIDUE_CASES = [(p, d) for p in (5, 7, 11, 13, 101, 257) for d in (1, 2, 3, 4)]


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_norm_criterion_matches_euler(p, deg):
    rng = random.Random(f"residue-squares:{p}:{deg}")
    field = PrimeField(p)
    R = ResidueField(random_irreducible(field, deg, rng), check=False)
    for _ in range(10):
        a = random_residue(R, rng)
        assert R.is_square(a) == euler_is_square_residue(R, a)
        # the square of a unit is a square; the norm is multiplicative
        b = random_residue(R, rng)
        if not b.is_zero():
            sq = R.mul(b, b)
            assert R.is_square(sq)
            assert R.norm(R.mul(a, b)) == R.norm(a) * R.norm(b)


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_nonsquare_is_the_full_scan_element(p, deg):
    rng = random.Random(f"residue-nonsquare:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    assert R._smallest_nonsquare() == full_scan_nonsquare_residue(R)


@pytest.mark.parametrize("p,deg", RESIDUE_CASES)
def test_residue_sqrt_is_the_smaller_root(p, deg):
    rng = random.Random(f"residue-sqrt:{p}:{deg}")
    R = ResidueField(random_irreducible(PrimeField(p), deg, rng), check=False)
    for _ in range(4):
        b = random_residue(R, rng)
        a = R.mul(b, b)
        r = R.sqrt(a)
        assert R.mul(r, r) == a
        assert r.sort_key() <= R.neg(r).sort_key()
        assert r in (b, R.neg(b))


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


# -- the hash/eq contract across equal field instances --------------------------


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
