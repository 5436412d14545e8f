"""Descent from the quadratic closure: frozen examples (verified by hand
against the explicit formulas), round trips through the analyzer, counts,
twists and the character-sum cross count."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from cubica import quadratic
from cubica.acceptance import closure_menu, random_places, round_trip_failures
from cubica.algebra import (QQ, FieldError, Polynomial, PrimeField,
                            RationalFunction, is_irreducible, smallest_nonsquare)
from cubica.analyzer import analyze, pole_orders_of_alpha
from cubica.descent import (DescentProblem, UpstairsChoice, _pair, construct,
                            enumerate_descents, exists_descent, make_problem,
                            norm_one_cube_reps, serre_count, twists_descent)
from cubica.function_field import Place
from cubica.models import CubicModel
from cubica.pure_cubic import count_pure
from cubica.quadratic import (QuadraticModel, SquareClass,
                              canonical_quadratic_field, canonical_square_const)

F5 = PrimeField(5)
F7 = PrimeField(7)


def x_of(field):
    return Polynomial.x(field)


def rf(num, den=None):
    return RationalFunction(num, den)


def same_up_to_flip(a1, a2):
    return a1 == a2 or a1 == -a2


# -- existence ----------------------------------------------------------------


def test_exists_descent():
    x = x_of(F5)
    K2 = QuadraticModel.constant(F5, F5(2))
    assert not exists_descent(K2, [Place.finite(x)])
    assert exists_descent(K2, [Place.finite(x ** 2 + 2)])
    Kx = QuadraticModel.kummer(x)
    assert exists_descent(Kx, [Place.finite(x - 1)])
    assert not exists_descent(Kx, [])


# -- frozen constructions --------------------------------------------------------


def test_constant_closure_bitwist_crosscheck():
    """K(sqrt 2)/F5, T = {(x^2+2)}: alpha must match the explicit bi-twist
    formula (2x^2 + 2ax + (a^2-2b))/(x^2 + ax + b) at x^2+ax+b = x^2+2."""
    x = x_of(F5)
    K2 = QuadraticModel.constant(F5, F5(2))
    res = construct(make_problem(K2, [Place.finite(x ** 2 + 2)]))
    expected = rf(2 * x ** 2 + 1, x ** 2 + 2)
    assert res.c.is_one()
    assert same_up_to_flip(res.model.alpha, expected)
    # both sign choices give the same alpha here (t = 1, f <-> 1/f)
    res2 = construct(make_problem(K2, [Place.finite(x ** 2 + 2)], signs=[-1]))
    assert same_up_to_flip(res2.model.alpha, expected)


def test_nonconstant_closure_y2_eq_x():
    """K': y^2 = x over F5, T = {(x-1)}: alpha = +-(2x+2)/(x-1), c = 1;
    analyzer sees total {x-1}, partial {x, inf}."""
    x = x_of(F5)
    Kx = QuadraticModel.kummer(x)
    p = Place.finite(x - 1)
    res = construct(make_problem(Kx, [p]))
    assert res.case == "odd_stable_point"
    assert res.c.is_one()
    assert same_up_to_flip(res.model.alpha, rf(2 * x + 2, x - 1))
    rep = analyze(res.model)
    assert rep.total_set() == {p}
    assert rep.partial_set() == {Place.finite(x), Place.infinity(F5)}
    assert rep.genus == 0


def test_case_2b_frozen():
    """K': y^2 = x^2 - 2 over F5 (branch locus one degree-2 place),
    T = {(x-1)}: c = 2 = l*sigma(l) and all poles simple; the c = 1 companion
    has the single pole of order 2."""
    x = x_of(F5)
    M = QuadraticModel.kummer(x ** 2 - 2)
    p = Place.finite(x - 1)
    res = construct(make_problem(M, [p]))
    assert res.case == "case_2b"
    assert res.c == F5(2)
    assert same_up_to_flip(res.model.alpha, rf(x - 2, x - 1))
    orders = pole_orders_of_alpha(res.model)
    assert orders == {p: 1}
    rep = analyze(res.model)
    assert rep.total_set() == {p}
    assert rep.partial_set() == {Place.finite(x ** 2 - 2)}
    # companion with c = 1: one pole of order exactly 2, same ramification
    assert res.unit_form is not None and res.unit_form.c.is_one()
    orders1 = pole_orders_of_alpha(res.unit_form)
    assert orders1 == {p: 2}
    rep1 = analyze(res.unit_form)
    assert rep1.total_set() == {p}
    assert rep1.partial_set() == {Place.finite(x ** 2 - 2)}


def test_enumerate_descents_builds_the_mirror_function_once(monkeypatch):
    """A case_2b closure keeps its mirror function l: the four descents of
    one T build it once, and each model and unit form equals the one built
    on a fresh model of the same closure, with its own l and powers of m."""
    field = PrimeField(13)
    x = x_of(field)
    f = x ** 2 + 2   # irreducible with a square leading coefficient: sigma fixes no rational place
    builds = []

    def counted(c):
        builds.append(c)
        return canonical_square_const(c)

    monkeypatch.setattr(quadratic, "canonical_square_const", counted)
    M = QuadraticModel.kummer(f)
    T = random_places(M, field, random.Random(29), 3, (1,))
    results = enumerate_descents(M, T)
    assert len(results) == 4 and {res.case for res in results} == {"case_2b"}
    assert len(builds) == 1
    for res in results:
        fresh = construct(DescentProblem(QuadraticModel.kummer(f), res.problem.choices))
        assert fresh.model == res.model and fresh.unit_form == res.unit_form
    assert len(builds) == 5


def test_theta_and_f_data_consistency():
    """alpha = c(f + sigma f) and f sigma(f) = c hold for the reported data."""
    x = x_of(F5)
    Kx = QuadraticModel.kummer(x)
    res = construct(make_problem(Kx, [Place.finite(x - 1)]))
    A, B = res.f_pair
    # f sigma(f) = A^2 - B^2 x = c
    norm = A * A - B * B * rf(x)
    assert norm.is_constant() and norm.constant_value() == res.c
    assert res.model.alpha == res.c * (A + A)


def test_theta_and_f_are_put_into_normal_form_when_first_read():
    """theta and f_pair are the pairs of the kept triples, built once."""
    x = x_of(F5)
    for closure, T in ((QuadraticModel.kummer(x), [Place.finite(x - 1)]),
                       (QuadraticModel.constant(F5, F5(2)),
                        [Place.finite(x ** 2 + 2)])):
        res = construct(make_problem(closure, T))
        theta, f_pair = res.theta, res.f_pair
        assert theta == _pair(res.theta_triple)
        assert f_pair == _pair(res.f_triple)
        assert res.theta is theta and res.f_pair is f_pair


# -- residue signs as witnesses ----------------------------------------------------


def _one_choice(closure, place, rho):
    return DescentProblem(closure, [UpstairsChoice(place, rho)])


@pytest.mark.parametrize("p", [13, 101])
def test_construct_refuses_a_place_that_does_not_split(p):
    """An inert place, a ramified one and infinity on an odd-degree f get
    the does-not-split refusal, whatever rho is."""
    field = PrimeField(p)
    x = x_of(field)
    closure = QuadraticModel.kummer(x)
    inert = Place.finite(x - smallest_nonsquare(field))
    ramified = Place.finite(x)
    for place, kind in ((inert, "inert"), (ramified, "ramified")):
        assert closure.split_kind(place) == kind
        for rho in (place.residue_field(0), place.residue_field(1)):
            with pytest.raises(FieldError, match="does not split in the closure"):
                construct(_one_choice(closure, place, rho))
    with pytest.raises(FieldError, match="does not split in the closure"):
        construct(_one_choice(closure, Place.infinity(field), field.one))


def _malformed_problem(kind):
    """An empty T, a repeated place of T, and a characteristic-2 closure."""
    if kind == "char_2":
        field = canonical_quadratic_field(PrimeField(2))
        closure = QuadraticModel.artin_schreier_x(field)
        place = Place.finite(x_of(field) - field.one)
        return DescentProblem(closure, [UpstairsChoice(place, None)])
    closure = QuadraticModel.kummer(x_of(F5))
    place = Place.finite(x_of(F5) - 1)
    choice = UpstairsChoice(place, closure.canonical_rho(place))
    return DescentProblem(closure, [] if kind == "empty" else [choice, choice])


@pytest.mark.parametrize("kind, message", [
    ("empty", "T must be nonempty"),
    ("repeated", "places of T must be distinct"),
    ("char_2", "characteristic-2 descent is not supported"),
])
def test_construct_refuses_a_malformed_problem(kind, message):
    with pytest.raises(FieldError, match=message):
        construct(_malformed_problem(kind))


@pytest.mark.parametrize("p", [13, 101])
def test_construct_refuses_a_residue_sign_that_is_not_a_root(p):
    """On y^2 = x with T = {x + 1}, rho + 1 for the square root rho of -1
    is refused; built into theta it would give a model that is totally
    ramified elsewhere (at x + 81 over F_101)."""
    field = PrimeField(p)
    x = x_of(field)
    closure = QuadraticModel.kummer(x)
    place = Place.finite(x + 1)
    rho = closure.canonical_rho(place)
    res = construct(_one_choice(closure, place, rho))
    assert analyze(res.model).total_set() == {place}
    for bad in (rho + 1, place.residue_field(0)):
        with pytest.raises(FieldError, match="not a square root of f"):
            construct(_one_choice(closure, place, bad))


def test_construct_takes_a_witness_over_q():
    """Over Q squareness is not decided, so make_problem refuses; a
    hand-built rho = 2 at x - 4 on y^2 = x is a certificate that the place
    splits, and construct builds the model totally ramified there."""
    x = Polynomial.x(QQ)
    closure = QuadraticModel.kummer(x)
    place = Place.finite(x - 4, check=False)
    with pytest.raises(FieldError, match="caller-certified"):
        make_problem(closure, [place])
    res = construct(_one_choice(closure, place, place.residue_field(2)))
    assert analyze(replace(res.model, hints=(x - 4, x))).total_set() == {place}
    with pytest.raises(FieldError, match="caller-certified"):
        construct(_one_choice(closure, place, place.residue_field(3)))


@pytest.mark.parametrize("p", [13, 101])
def test_construct_refuses_a_wrong_rho_at_infinity(p):
    """y^2 = x(x - 1) splits at infinity, with rho = +-1; rho = 2 and
    rho = 0 are refused there."""
    field = PrimeField(p)
    x = x_of(field)
    closure = QuadraticModel.kummer(x * (x - 1))
    inf = Place.infinity(field)
    assert closure.split_kind(inf) == "split"
    res = construct(_one_choice(closure, inf, closure.canonical_rho(inf)))
    assert analyze(res.model).total_set() == {inf}
    for bad in (field(2), field.zero):
        with pytest.raises(FieldError, match="not a square root of f"):
            construct(_one_choice(closure, inf, bad))


# -- random round trips --------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_descent_round_trip_random(p):
    field = PrimeField(p)
    rng = random.Random(100 + p)
    for model in closure_menu(field):
        for _ in range(10):
            T = random_places(model, field, rng, rng.randrange(1, 5), infinity=True)
            signs = [rng.choice((1, -1)) for _ in T]
            res = construct(make_problem(model, T, signs))
            assert round_trip_failures(model, T, res) == [], (model, T, signs)


@pytest.mark.parametrize("p", [101, 257])
def test_descent_round_trip_sweep_large_q(p):
    """Seeded places of degree 2-4 (and infinity when it splits, half the
    time) over F_101 and F_257, every closure of the menu and every sign
    choice: the whole round trip of `round_trip_failures`."""
    field = PrimeField(p)
    rng = random.Random(f"sweep:{p}")
    trips = 0
    for model in closure_menu(field):
        for count in (1, 2, 3, 3):
            T = random_places(model, field, rng, count, (2, 3, 4))
            inf = Place.infinity(field)
            if model.split_kind(inf) == "split" and rng.random() < 0.5:
                T.append(inf)
            for signs in product((1, -1), repeat=len(T)):
                res = construct(make_problem(model, T, list(signs)))
                assert round_trip_failures(model, T, res) == [], (model, T, signs)
                trips += 1
    assert trips >= 130


@pytest.mark.parametrize("p", [5, 7, 11])
def test_descent_round_trip_sweep_over_f_p2(p):
    """Seeded sweep over F_{p^2}: every conic closure of the menu (y^2 = f,
    deg f = 1, 2) with 1-3 split places of degree <= 2 and infinity: the
    whole round trip of `round_trip_failures`, reaching all three divisor
    shapes."""
    field = canonical_quadratic_field(PrimeField(p))
    rng = random.Random(f"sweep-p2:{p}")
    cases = set()
    for model in closure_menu(field)[1:]:
        for _ in range(6):
            T = random_places(model, field, rng, rng.randrange(1, 4), infinity=True)
            signs = [rng.choice((1, -1)) for _ in T]
            res = construct(make_problem(model, T, signs))
            cases.add(res.case)
            assert round_trip_failures(model, T, res) == [], (model, T, signs)
    assert cases == {"even", "odd_stable_point", "case_2b"}


def test_random_places_draws_degree_4_over_f101():
    """Split places of degree 4 over F_101, and over F_{5^2} with infinity
    half the time when it splits, drawn without listing the 101^4 or 25^4
    monic quartics first; one round trip on each closure of the menu (a
    constant closure is built over a prime field only)."""
    F25 = canonical_quadratic_field(F5)
    for field, menu, infinity, seed in (
            (PrimeField(101), closure_menu(PrimeField(101)), False, "degree-4"),
            (F25, closure_menu(F25)[1:], True, "degree-4:F25")):
        rng = random.Random(seed)
        for model in menu:
            T = random_places(model, field, rng, 2, (4,), infinity=infinity)
            assert len(set(T)) == 2
            for place in T:
                assert model.split_kind(place) == "split"
                assert (infinity and place.infinite) or (
                    place.degree == 4 and is_irreducible(place.poly))
            res = construct(make_problem(model, T))
            assert round_trip_failures(model, T, res) == [], (model, T)


def test_random_places_refuses_when_too_few_places_split():
    """Odd-degree places are inert in a constant extension: once all five
    monic linear polynomials over F_5 are drawn, the sampler refuses; with
    degree 2 allowed it finds them."""
    closure = QuadraticModel.constant(F5, F5(2))
    with pytest.raises(FieldError, match="fewer than 1 places"):
        random_places(closure, F5, random.Random(0), 1, (1,))
    with pytest.raises(FieldError, match="fewer than 11 places"):
        random_places(closure, F5, random.Random(0), 11, (1, 2))
    assert len(random_places(closure, F5, random.Random(0), 10, (1, 2))) == 10


def test_flipping_all_signs_gives_same_alpha():
    """Global negation is the y -> 1/y isomorphism: alpha is unchanged
    exactly, in every divisor case."""
    rng = random.Random(3)
    for field in (F5, F7):
        for M in closure_menu(field) * 2:
            T = random_places(M, field, rng, rng.randrange(1, 4), infinity=True)
            res_plus = construct(make_problem(M, T, [1] * len(T)))
            res_minus = construct(make_problem(M, T, [-1] * len(T)))
            assert res_plus.model.alpha == res_minus.model.alpha, (M, T)


# -- counts --------------------------------------------------------------------------


def test_enumerate_descents_counts():
    x = x_of(F5)
    M = QuadraticModel.constant(F5, F5(2))
    one = enumerate_descents(M, [Place.finite(x ** 2 + 2)])
    assert len(one) == 1
    Kx = QuadraticModel.kummer(x)
    T3 = random_places(Kx, F5, random.Random(11), 3, (2,))
    assert len(T3) == 3
    res = enumerate_descents(Kx, T3)
    assert len(res) == 4
    alphas = [r.model.alpha for r in res]
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            assert not same_up_to_flip(alphas[i], alphas[j])
    # non-split T: zero results
    assert enumerate_descents(M, [Place.finite(x)]) == []


def test_enumerate_matches_serre():
    x = x_of(F5)
    Kx = QuadraticModel.kummer(x)
    pool = random_places(Kx, F5, random.Random(17), 3)
    for t in (1, 2, 3):
        T = pool[:t]
        assert len(enumerate_descents(Kx, T)) == serre_count(2, t)


def test_serre_count_values():
    assert serre_count(2, 1) == 1
    assert serre_count(3, 1) == 0
    assert serre_count(5, 4) == 0
    assert serre_count(4, 2) == Fraction(9 * 2)
    for t in range(1, 9):
        assert serre_count(0, t) == count_pure(0, t)
        assert serre_count(2, t) == 2 ** (t - 1)


# -- twists ---------------------------------------------------------------------------


def test_twists_constant_closure():
    x = x_of(F5)
    M = QuadraticModel.constant(F5, F5(2))
    res = construct(make_problem(M, [Place.finite(x ** 2 + 2)]))
    tw = twists_descent(res)
    assert len(tw) == 3   # |N_1| = 6, N_1/N_1^3 of order 3
    alphas = [t.alpha for t in tw]
    for i in range(3):
        for j in range(i + 1, 3):
            assert alphas[i] != alphas[j]
    for t in tw:
        rep = analyze(t)
        assert rep.total_set() == {Place.finite(x ** 2 + 2)}


def test_twists_trivial_cases():
    x7 = x_of(F7)
    M7 = QuadraticModel.constant(F7, F7(3))
    res7 = construct(make_problem(M7, [Place.finite(x7 ** 2 + 1)]))
    assert len(twists_descent(res7)) == 1   # gcd(3, 8) = 1
    x = x_of(F5)
    Kx = QuadraticModel.kummer(x)
    res = construct(make_problem(Kx, [Place.finite(x - 1)]))
    assert len(twists_descent(res)) == 1    # nonconstant closure


def test_norm_one_reps():
    F25 = canonical_quadratic_field(F5)
    reps = norm_one_cube_reps(F25)
    assert len(reps) == 3
    for u in reps:
        assert F25.norm(u).is_one()
    F49 = canonical_quadratic_field(F7)
    assert len(norm_one_cube_reps(F49)) == 1
