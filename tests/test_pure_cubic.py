"""Pure-cubic enumeration against brute force, counting formulas, twists."""

from itertools import product

import pytest

from cubica.algebra import Polynomial, PrimeField, RationalFunction
from cubica.analyzer import analyze
from cubica.function_field import Place
from cubica.pure_cubic import (bitwist_reps_deg3, count_pure, cube_class_reps,
                               enumerate_pure, recursion_iterate,
                               recursion_pair, twists_pure)
from cubica.quadratic import canonical_quadratic_field

F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)


def x_of(field):
    return Polynomial.x(field)


def brute_force_count(s, t):
    """Sign vectors (e_1..e_t) in {+-1}^t with sum over the last t-s entries
    = 0 mod 3, counted modulo global negation."""
    n = 0
    for eps in product((1, -1), repeat=t):
        if sum(eps[s:]) % 3 == 0:
            n += 1
    assert n % 2 == 0
    return n // 2


def test_count_formula_against_brute_force():
    for t in range(1, 13):
        for s in range(0, t + 1):
            assert count_pure(s, t) == brute_force_count(s, t), (s, t)


def test_count_frozen_values():
    assert count_pure(0, 2) == 1
    assert count_pure(0, 4) == 3
    assert count_pure(2, 6) == 12
    assert count_pure(1, 1) == 1   # t = s boundary
    assert count_pure(0, 0) == 0


def test_recursion():
    assert recursion_pair(1) == (0, 2) == recursion_iterate(1)
    assert recursion_pair(2) == (2, 2) == recursion_iterate(2)
    assert recursion_pair(5) == (10, 22) == recursion_iterate(5)
    for k in range(1, 31):
        e, f = recursion_pair(k)
        assert (e, f) == recursion_iterate(k)
        assert e + f == 2 ** k


def test_enumerate_small_cases():
    x = x_of(F5)
    inf = Place.infinity(F5)
    models = enumerate_pure([Place.finite(x), inf])
    assert len(models) == 1
    assert models[0].beta == RationalFunction(x)
    models = enumerate_pure([Place.finite(x), Place.finite(x - 1), inf])
    assert len(models) == 1
    assert models[0].beta == RationalFunction(x * (x - 1))
    assert enumerate_pure([Place.finite(x)]) == []


def test_enumerate_matches_count_and_ramification():
    x = x_of(F5)
    cases = [
        [Place.finite(x), Place.finite(x - 1), Place.finite(x + 1)],
        [Place.finite(x), Place.finite(x - 1), Place.finite(x ** 2 + 2)],
        [Place.finite(x ** 3 + x + 1), Place.finite(x), Place.infinity(F5)],
        [Place.finite(x), Place.finite(x - 1), Place.finite(x + 1),
         Place.finite(x - 2), Place.infinity(F5)],
    ]
    for T in cases:
        finite = [p for p in T if not p.infinite]
        s = sum(1 for p in finite if p.degree % 3 == 0)
        t = len(T)
        models = enumerate_pure(T)
        assert len(models) == count_pure(s, t)
        for m in models:
            rep = analyze(m)
            assert rep.total_set() == set(T)
            assert not rep.partial


def test_twists_pure():
    x7 = x_of(F7)
    m = twists_pure(__model(F7, x7))
    units = sorted(int(t.beta.num.leading().val) for t in m)
    assert units == [1, 2, 3]
    assert len(twists_pure(__model(F5, x_of(F5)))) == 1
    assert len(twists_pure(__model(F13, x_of(F13)))) == 3


def __model(field, xpoly):
    from cubica.models import CubicModel
    return CubicModel.pure(RationalFunction(xpoly))


def test_cube_class_reps():
    assert [e.val for e in cube_class_reps(F7)] == [1, 2, 3]
    assert [e.val for e in cube_class_reps(F5)] == [1]


@pytest.mark.parametrize("field,expected", [(F7, 9), (F5, 3), (F13, 9)])
def test_bitwist_deg3_counts(field, expected):
    reps = bitwist_reps_deg3(field)
    assert len(reps) == expected
    for m in reps:
        rep = analyze(m)
        assert rep.total_degree() == 3 and not rep.partial
        assert rep.genus == 1


def test_bitwist_deg3_char2():
    F2 = PrimeField(2)
    F4 = canonical_quadratic_field(F2)
    assert len(bitwist_reps_deg3(F2)) == 3
    assert len(bitwist_reps_deg3(F4)) == 9
    for m in bitwist_reps_deg3(F2):
        rep = analyze(m)
        assert rep.total_degree() == 3 and rep.genus == 1
