"""Quadratic models: splitting, parametrization, complementary extensions,
purely cubic closure and resolvent."""

import pytest

from cubica.algebra import (Polynomial, PrimeField, QQ, RationalFunction,
                            is_irreducible)
from cubica.analyzer import analyze
from cubica.function_field import Place
from cubica.models import CubicModel
from cubica.quadratic import (ASClass, ConicParametrization, INF_MARK,
                              QuadraticModel, SPLIT, INERT, RAMIFIED,
                              SquareClass, classify, complementary,
                              purely_cubic_closure, resolvent, trace_to_f2)

F5 = PrimeField(5)
F7 = PrimeField(7)


def x_of(field):
    return Polynomial.x(field)


def rf(num, den=None):
    return RationalFunction(num, den)


# -- square classes -------------------------------------------------------------


def test_square_class_canonicalization():
    x = x_of(F5)
    # 3 x^2 / (x^2+2)^2 ~ 3 ~ 2 (both non-squares mod 5; canonical rep is 2)
    d = rf(3 * x ** 2, (x ** 2 + 2) ** 2)
    cls = SquareClass.of(d)
    assert cls.poly.is_one()
    assert cls.const == F5(2)
    assert SquareClass.of(rf(2 * (x - 1) ** 2)) == SquareClass.of(rf(Polynomial.constant(F5, F5(3))))
    assert SquareClass.of(rf(x ** 3)) == SquareClass.of(rf(x))


def test_square_class_over_q():
    x = x_of(QQ)
    # 32 x^2/(x^2-2)^2 ~ 2
    d = rf(32 * x ** 2, (x ** 2 - 2) ** 2)
    cls = SquareClass.of(d)
    assert cls.poly.is_one() and cls.const == QQ(2)


# -- splitting ---------------------------------------------------------------------


def test_splitting_constant_extension():
    x = x_of(F5)
    M = QuadraticModel.constant(F5, F5(2))
    assert M.splitting_type(Place.finite(x)).kind == INERT
    res = M.splitting_type(Place.finite(x ** 2 + 2))
    assert res.kind == SPLIT
    # the square roots of 2 in F5[x]/(x^2+2) are +-2*xbar
    from cubica.algebra import ResidueField
    R = ResidueField(x ** 2 + 2, check=False)
    assert {hash(res.rho_minus), hash(res.rho_plus)} == \
        {hash(R(2 * x)), hash(R(3 * x))}
    M2 = QuadraticModel.kummer(x)
    assert M2.splitting_type(Place.finite(x)).kind == RAMIFIED


def test_constant_extension_split_iff_even_degree():
    """Degree-d places split in K(sqrt(2))/F5(x) exactly when d is even."""
    from itertools import product
    M = QuadraticModel.constant(F5, F5(2))
    for d in range(1, 5):
        count = 0
        for low in product(range(5), repeat=d):
            p = Polynomial(F5, [F5(c) for c in low] + [F5.one])
            if not is_irreducible(p):
                continue
            count += 1
            kind = M.splitting_type(Place.finite(p, check=False)).kind
            assert kind == (SPLIT if d % 2 == 0 else INERT)
        assert count > 0


def places_up_to_degree_two(field):
    """Infinity and every monic irreducible of degree 1 or 2 over F_p, the
    quadratics x^2 + a x + b picked by a non-square discriminant."""
    p = field.p
    squares = {c * c % p for c in range(p)}
    places = [Place.infinity(field)]
    places += [Place.finite(Polynomial(field, [b, 1]), check=False) for b in range(p)]
    places += [Place.finite(Polynomial(field, [b, a, 1]), check=False)
               for a in range(p) for b in range(p) if (a * a - 4 * b) % p not in squares]
    return places


@pytest.mark.parametrize("p", [13, 101])
def test_split_kind_agrees_with_splitting_type(p):
    """The squareness-only split test gives splitting_type's kind on every
    place of degree <= 2; the closure menu over F_13, one model over F_101
    (where each split place costs a residue square root)."""
    from cubica.acceptance import closure_menu
    field = PrimeField(p)
    x = x_of(field)
    models = closure_menu(field) if p == 13 else [QuadraticModel.kummer(x * (x - 1))]
    places = places_up_to_degree_two(field)
    assert len(places) == 1 + p + (p * p - p) // 2
    for M in models:
        for place in places:
            res = M.splitting_type(place)
            assert res.kind == M.split_kind(place)
            assert (res.rho_minus is not None) == (res.kind == SPLIT)


def test_split_kind_over_q():
    x = x_of(QQ)
    assert QuadraticModel.kummer(x * x + 1).split_kind(Place.infinity(QQ)) == SPLIT
    assert QuadraticModel.kummer(-x * x + 1).split_kind(Place.infinity(QQ)) == INERT
    assert QuadraticModel.kummer(x).split_kind(Place.infinity(QQ)) == RAMIFIED


def test_negative_rational_is_not_a_square():
    """A negative constant is refused with the typed error, not an isqrt
    ValueError."""
    from fractions import Fraction

    from cubica.algebra import FieldError
    from cubica.quadratic import _is_square_q, _isqrt_exact, _sqrt_const
    assert _isqrt_exact(-4) is None and _isqrt_exact(9) == 3
    assert not _is_square_q(QQ(Fraction(-9, 4)))
    with pytest.raises(FieldError, match="not a rational square"):
        _sqrt_const(QQ(Fraction(-9, 4)))
    assert _sqrt_const(QQ(Fraction(9, 4))) == QQ(Fraction(3, 2))


# -- parametrization ------------------------------------------------------------------


@pytest.mark.parametrize("fcoeffs", [[0, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 2], [-1, 2, 2]])
def test_conic_parametrization_consistency(fcoeffs):
    f = Polynomial(F5, fcoeffs)
    assert f[1] * f[1] - 4 * f[0] * f[2] != F5.zero
    M = QuadraticModel.kummer(f)
    par = M.parametrize()
    # sigma is an involution, X o sigma = X, Y o sigma = -Y
    sig = par.sigma.as_rational_function(F5)
    assert par.Y.compose(sig) == -par.Y
    # 2-to-1 off the branch locus: sample m-values
    seen = {}
    for v in range(5):
        m = F5(v)
        den = par.X.den.evaluate(m)
        if den.is_zero():
            continue
        xval = par.X.num.evaluate(m) / den
        seen.setdefault(xval._hash_val(), set()).add(v)
    for _, fibre in seen.items():
        assert len(fibre) <= 2


def test_parametrize_y2_eq_x():
    M = QuadraticModel.kummer(x_of(F5))
    par = M.parametrize()
    # x = m^2, sigma(m) = -m
    assert par.X == rf(x_of(F5) ** 2)
    assert par.sigma.apply(F5(2)) == F5(-2)


def test_parametrize_constant_is_triv():
    M = QuadraticModel.constant(F5, F5(2))
    par = M.parametrize()
    assert par.ring.d == F5(2)


def test_upstairs_place_split():
    x = x_of(F5)
    M = QuadraticModel.kummer(x)
    par = M.parametrize()
    p = Place.finite(x - 1)
    rho = M.canonical_rho(p)
    up = par.upstairs_place(p, rho)
    up2 = par.upstairs_place(p, M.other_rho(p, rho))
    assert up != up2
    assert up.degree == 1 and up2.degree == 1
    # the two places are swapped by sigma
    assert par.sigma_place(up) == up2


def test_upstairs_place_infinity_split():
    x = x_of(F5)
    M = QuadraticModel.kummer(x ** 2 - 2)
    par = M.parametrize()
    inf = Place.infinity(F5)
    res = M.splitting_type(inf)
    assert res.kind == SPLIT
    up_minus = par.upstairs_place(inf, res.rho_minus)
    up_plus = par.upstairs_place(inf, res.rho_plus)
    assert up_minus != up_plus


def test_upstairs_place_nonsquare_lc():
    x = x_of(F5)
    M = QuadraticModel.kummer(2 * x ** 2 + 2)   # lc = 2 non-square
    par = M.parametrize()
    assert M.splitting_type(Place.infinity(F5)).kind == INERT
    p = Place.finite(x - 1)   # f(1) = 4 = 2^2 square -> split
    res = M.splitting_type(p)
    assert res.kind == SPLIT
    up1 = par.upstairs_place(p, res.rho_minus)
    up2 = par.upstairs_place(p, res.rho_plus)
    assert up1 != up2


# -- complementary --------------------------------------------------------------------


def test_complementary_cases():
    x = x_of(F5)
    q_x = SquareClass.of(rf(x))
    q_2x = SquareClass.of(rf(2 * x))
    q_2 = SquareClass.of(rf(Polynomial.constant(F5, F5(2))))
    triv = SquareClass.trivial(F5)
    assert complementary(q_x, q_2x) == q_2
    assert complementary(triv, q_2) == q_2
    assert complementary(q_2, q_2) == triv
    # involution property
    assert complementary(q_x, complementary(q_x, q_2x)) == q_2x


def test_complementary_char2():
    F2 = PrimeField(2)
    a1 = ASClass.of(rf(x_of(F2)))
    a2 = ASClass.of(rf(x_of(F2) + 1))
    comp = complementary(a1, a2)
    assert comp == ASClass.of(rf(Polynomial.constant(F2, F2.one)))


# -- closure / resolvent -----------------------------------------------------------------


def test_closure_of_constant_closure_member():
    x = x_of(F5)
    alpha = rf(2 * x ** 2 + 1, x ** 2 + 2)
    model = CubicModel.impure(F5.one, alpha)
    closure = purely_cubic_closure(model)
    # alpha^2 - 4 = 3x^2/(x^2+2)^2 ~ 3 ~ 2
    assert closure == SquareClass.of(rf(Polynomial.constant(F5, F5(2))))
    assert not closure.is_trivial()


def test_closure_resolvent_pure_models():
    x7 = x_of(F7)
    m7 = CubicModel.pure(rf(x7))
    assert classify(m7) == (True, True)      # zeta3 in F7
    x5 = x_of(F5)
    m5 = CubicModel.pure(rf(x5))
    assert classify(m5) == (True, False)
    m5i = CubicModel.impure(F5.one, rf(3 * x5))
    pc, gal = classify(m5i)
    assert not pc and not gal


def test_minus_three_delta_equals_alpha_squared_minus_four():
    # -3(-27 a^2 + 108) = 81(a^2 - 4): same square class for random alpha
    x = x_of(F5)
    for num, den in [(x, x + 1), (2 * x ** 2 + 1, x ** 2 + 2), (x + 2, x)]:
        a = rf(num, den)
        lhs = SquareClass.of(F5(-3) * (F5(-27) * a * a + F5(108)))
        rhs = SquareClass.of(a * a - 4)
        assert lhs == rhs


def test_closure_char2():
    F2 = PrimeField(2)
    x = x_of(F2)
    # y^3 = y + x: closure class 1/x^2 ~ 1/x, ramified at (x)
    model = CubicModel.impure(F2.one, rf(x))
    cls = purely_cubic_closure(model)
    assert cls.ramified_places() == [Place.finite(x, check=False)]
    res = resolvent(model)
    assert not res.is_trivial()


def test_closure_roundtrip_with_example_over_q():
    # X^3 - 3X - 2(x^2+2)/(x^2-2) over Q has constant closure Q(sqrt 2)
    x = x_of(QQ)
    alpha = rf(2 * (x ** 2 + 2), x ** 2 - 2)
    model = CubicModel.impure(QQ.one, alpha)
    closure = purely_cubic_closure(model)
    assert closure.is_constant_class() and closure.const == QQ(2)
    res = resolvent(model)
    assert res.is_constant_class() and res.const == QQ(-6)


def test_as_class_reduction_and_triviality():
    F2 = PrimeField(2)
    x = x_of(F2)
    gamma = rf(x ** 2 + x)        # = (x)^2 + (x): trivial
    assert ASClass.of(gamma).is_trivial()
    assert not ASClass.of(rf(x)).is_trivial()
    # even pole order reduces away: 1/x^2 ~ 1/x
    assert ASClass.of(rf(Polynomial.one(F2), x ** 2)) == ASClass.of(rf(Polynomial.one(F2), x))


def test_trace_to_f2():
    F2 = PrimeField(2)
    assert trace_to_f2(F2.one) == 1
    from cubica.algebra import QuadraticField
    F4 = QuadraticField(F2, 1, 1)
    assert trace_to_f2(F4.one) == 0
    assert trace_to_f2(F4.gen) == 1
