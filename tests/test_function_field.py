"""Places, divisors, valuations and the cubic-cover genus formula."""

import random

import pytest

from cubica.algebra import (FieldError, Polynomial, PrimeField, RationalFunction,
                            ResidueField, poly_factor)
from cubica.function_field import (Place, divisor_of, genus_of_cubic, place_factors,
                                   pole_divisor, valuation)

F5 = PrimeField(5)


def x_of(field):
    return Polynomial.x(field)


def test_valuation_examples():
    x = x_of(F5)
    f = RationalFunction(2 * x ** 2 + 1, x ** 2 + 2)
    p = Place.finite(x ** 2 + 2)
    assert valuation(f, p) == -1
    assert valuation(f, Place.infinity(F5)) == 0
    g = RationalFunction(x * (x - 1))
    assert valuation(g, Place.finite(x)) == 1


def test_divisor_of_examples():
    x = x_of(F5)
    d = divisor_of(RationalFunction(x))
    assert d.multiplicity(Place.finite(x)) == 1
    assert d.multiplicity(Place.infinity(F5)) == -1
    d2 = divisor_of(RationalFunction(x * (x - 1)))
    assert d2.multiplicity(Place.finite(x)) == 1
    assert d2.multiplicity(Place.finite(x - 1)) == 1
    assert d2.multiplicity(Place.infinity(F5)) == -2
    # (2x^2+1)/(x^2+2): numerator 2(x^2 + 3), x^2+3 irreducible mod 5
    f = RationalFunction(2 * x ** 2 + 1, x ** 2 + 2)
    d3 = divisor_of(f)
    assert d3.multiplicity(Place.finite(x ** 2 + 3)) == 1
    assert d3.multiplicity(Place.finite(x ** 2 + 2)) == -1
    assert d3.degree == 0


def test_divisor_additivity_random():
    rng = random.Random(7)
    x = x_of(F5)
    for _ in range(25):
        f = RationalFunction(
            Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))] + [1]),
            Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))] + [1]))
        g = RationalFunction(
            Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))] + [1]),
            Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))] + [1]))
        if f.is_zero() or g.is_zero():
            continue
        assert divisor_of(f * g) == divisor_of(f) + divisor_of(g)
        assert divisor_of(f.inverse()) == -divisor_of(f)
        assert divisor_of(f).degree == 0


def test_divisor_over_q_with_supplied_factors():
    from cubica.algebra import QQ
    x = x_of(QQ)
    f = RationalFunction((x ** 2 - 2) * (x - 1), x)
    d = divisor_of(f, factors=[x ** 2 - 2, x - 1, x])
    assert d.multiplicity(Place.finite(x ** 2 - 2, check=False)) == 1
    assert d.multiplicity(Place.finite(x, check=False)) == -1
    assert d.degree == 0


def test_place_factors_follow_poly_factor_and_keep_the_used_multiplicities():
    x = x_of(F5)
    poly = 3 * x ** 2 * (x + 1) ** 3 * (x ** 2 + 2)
    want = [(Place.finite(g), m) for g, m in poly_factor(poly)]
    assert place_factors(poly) == want
    assert [m for _, m in want] == [2, 3, 1]
    assert place_factors(poly, used=lambda m: m % 2 == 1) == [want[1], want[2]]
    assert place_factors(Polynomial.constant(F5, F5(2))) == []


def test_place_factors_over_q_divide_out_the_hints_in_order():
    from cubica.algebra import QQ
    x = x_of(QQ)
    poly = 2 * (x - 1) ** 2 * (x ** 2 - 2) * x
    hints = [x ** 2 - 2, x, x - 1, x + 1]
    assert place_factors(poly, hints) == [(Place.finite(x ** 2 - 2), 1),
                                          (Place.finite(x), 1),
                                          (Place.finite(x - 1), 2)]
    assert place_factors(poly, hints, lambda m: m > 1) == [(Place.finite(x - 1), 2)]
    assert place_factors(poly, hints[1:], lambda m: m > 1) == [(Place.finite(x - 1), 2)]
    with pytest.raises(FieldError, match="needs caller-supplied place hints"):
        place_factors(poly)
    with pytest.raises(FieldError, match="place hints do not cover all factors"):
        place_factors(poly, hints[1:])
    for constant in (Polynomial.constant(QQ, QQ(2)), Polynomial.zero(QQ)):
        with pytest.raises(FieldError, match="non-constant polynomial"):
            place_factors(poly, hints + [constant])


def test_pole_divisor_lists_finite_poles_then_infinity():
    x = x_of(F5)
    inf = Place.infinity(F5)
    f = RationalFunction(x ** 6 + 2, x ** 2 * (x - 1) * (x ** 2 + 2))
    poles = pole_divisor(f)
    assert list(poles.items()) == place_factors(f.den) + [(inf, 1)]
    assert poles[Place.finite(x)] == 2 and poles[Place.finite(x ** 2 + 2)] == 1
    assert list(pole_divisor(f, used=lambda m: m % 2 == 1)) == [
        Place.finite(x - 1), Place.finite(x ** 2 + 2), inf]
    assert pole_divisor(f, used=lambda m: m > 1) == {Place.finite(x): 2}
    assert pole_divisor(RationalFunction(x ** 3)) == {inf: 3}
    assert pole_divisor(RationalFunction.zero(F5)) == {}


def test_genus_table_rows():
    """The six (R, g_L) rows: ramification degrees against genus."""
    x = x_of(F5)
    inf = Place.infinity(F5)
    p1 = Place.finite(x)
    p2 = Place.finite(x ** 2 + 2)
    p_lin = Place.finite(x - 1)
    # char != 2 rows
    assert genus_of_cubic([p2], [], 5) == 0                    # (3^2, 0)
    assert genus_of_cubic([p1, p_lin, inf], [], 5) == 1        # (3^3, 1)
    assert genus_of_cubic([inf], [p1, p_lin], 5) == 0          # (3^1 2^2, 0)
    assert genus_of_cubic([p2], [p2], 5) == 1                  # (3^2 2^2, 1)
    # char 2 rows (wild double points count twice)
    F2 = PrimeField(2)
    y = x_of(F2)
    q1 = Place.finite(y)
    qinf = Place.infinity(F2)
    q2 = Place.finite(y ** 2 + y + 1)
    assert genus_of_cubic([qinf], [q1], 2) == 0                # (3^1 2^1, 0)
    assert genus_of_cubic([q2], [qinf], 2) == 1                # (3^2 2^1, 1)


def test_genus_rejects_inconsistent_data():
    x = x_of(F5)
    with pytest.raises(ArithmeticError):
        genus_of_cubic([Place.finite(x)], [], 5)   # 2g-2 = -4 -> g < 0
    with pytest.raises(ArithmeticError):
        genus_of_cubic([Place.finite(x)], [Place.finite(x - 1)], 5)  # odd 2g-2


def test_places_over_equal_fields_hash_alike():
    F, G = PrimeField(5), PrimeField(5)
    assert len({Place.finite(x_of(F) ** 2 + 2), Place.finite(x_of(G) ** 2 + 2)}) == 1
    assert len({Place.infinity(F), Place.infinity(G)}) == 1


def test_a_place_builds_its_residue_field_once():
    x = x_of(F5)
    p = Place.finite(x ** 2 + 2)
    R = p.residue_field
    assert R is p.residue_field and R == ResidueField(x ** 2 + 2)
    assert R(x) * R(x) == R(-2)
    with pytest.raises(FieldError):
        Place.infinity(F5).residue_field
