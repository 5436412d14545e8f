"""Quadratic models: splitting, parametrization, complementary extensions,
purely cubic closure and resolvent."""

from fractions import Fraction

import pytest

from cubica.algebra import (FieldError, Polynomial, PrimeField, QQ,
                            RationalFunction, ResidueField, is_irreducible,
                            poly_factor)
from cubica.acceptance import closure_menu
from cubica.analyzer import analyze
from cubica.function_field import Place, value_at
from cubica.models import CubicModel
from cubica.quadratic import (ASClass, ConicParametrization,
                              QuadraticModel, SPLIT, INERT, RAMIFIED,
                              SquareClass, canonical_quadratic_field, classify,
                              complementary, nonsplit_as_constant,
                              purely_cubic_closure, resolvent)

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
    assert M.split_kind(Place.finite(x)) == INERT
    with pytest.raises(FieldError, match="does not split"):
        M.canonical_rho(Place.finite(x))
    assert M.split_kind(Place.finite(x ** 2 + 2)) == SPLIT
    rho = M.canonical_rho(Place.finite(x ** 2 + 2))
    # the square roots of 2 in F5[x]/(x^2+2) are +-2*xbar
    from cubica.algebra import ResidueField
    R = ResidueField(x ** 2 + 2, check=False)
    assert {hash(rho), hash(-rho)} == {hash(R(2 * x)), hash(R(3 * x))}
    M2 = QuadraticModel.kummer(x)
    assert M2.split_kind(Place.finite(x)) == RAMIFIED
    with pytest.raises(FieldError, match="does not split"):
        M2.canonical_rho(Place.finite(x))


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
            kind = M.split_kind(Place.finite(p, check=False))
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
def test_split_kind_agrees_with_canonical_rho(p):
    """canonical_rho gives a root rho != 0 of f (of lc f at infinity) at
    every place of degree <= 2 that split_kind calls split, and refuses
    every other place; the closure menu over F_13, one model over F_101
    (where each split place costs a residue square root)."""
    from cubica.acceptance import closure_menu
    field = PrimeField(p)
    x = x_of(field)
    models = closure_menu(field) if p == 13 else [QuadraticModel.kummer(x * (x - 1))]
    places = places_up_to_degree_two(field)
    assert len(places) == 1 + p + (p * p - p) // 2
    for M in models:
        for place in places:
            if M.split_kind(place) != SPLIT:
                with pytest.raises(FieldError, match="does not split"):
                    M.canonical_rho(place)
                continue
            rho = M.canonical_rho(place)
            fbar = M.f.leading() if place.infinite else place.residue_field(M.f)
            assert not rho.is_zero() and rho * rho == fbar


def test_branch_places_follow_the_factorization():
    """Over F_q the branch places are poly_factor's factors in its order,
    over Q the quadratic formula's roots (+ first); odd degree adds inf."""
    x = x_of(F7)
    for f in ((x - 5) * (x - 3), x * x + 1, x - 3):
        want = [Place.finite(p) for p, _ in poly_factor(f)]
        if f.degree == 1:
            want.append(Place.infinity(F7))
        assert QuadraticModel.kummer(f).branch_places() == want
    x = x_of(QQ)
    assert QuadraticModel.kummer(x * x - 4).branch_places() == \
        [Place.finite(x - 2), Place.finite(x + 2)]
    assert QuadraticModel.kummer(-x * x - 1).branch_places() == \
        [Place.finite(x * x + 1)]
    assert QuadraticModel.kummer(2 * x + 1).branch_places() == \
        [Place.finite(x + QQ(Fraction(1, 2))), Place.infinity(QQ)]


def test_branch_places_are_found_once_per_model(monkeypatch):
    """The branch locus is read when the model is built: later calls factor
    nothing, and each returns a new list, so mutating one changes no later
    answer."""
    import cubica.quadratic as quadratic
    x = x_of(F7)
    models = [QuadraticModel.kummer(f) for f in
              ((x - 5) * (x - 3), x * x + 1, x - 3, Polynomial.constant(F7, F7(3)))]
    models.append(QuadraticModel.artin_schreier_x(PrimeField(2)))

    def refuse(*args):
        raise AssertionError("branch_places factored again")

    monkeypatch.setattr(quadratic, "place_factors", refuse)
    for M in models:
        first = M.branch_places()
        want = list(first)
        first.append(Place.infinity(M.field))
        assert M.branch_places() == want


def test_split_kind_over_q():
    x = x_of(QQ)
    assert QuadraticModel.kummer(x * x + 1).split_kind(Place.infinity(QQ)) == SPLIT
    assert QuadraticModel.kummer(-x * x + 1).split_kind(Place.infinity(QQ)) == INERT
    assert QuadraticModel.kummer(x).split_kind(Place.infinity(QQ)) == RAMIFIED


def test_negative_rational_is_not_a_square():
    """A negative constant is refused with the typed error, not an isqrt
    ValueError."""
    from fractions import Fraction

    from cubica.algebra import FieldError, is_square, sqrt
    assert not is_square(QQ(-4)) and sqrt(QQ(9)) == QQ(3)
    assert not is_square(QQ(3)) and not is_square(QQ(Fraction(4, 3)))
    assert not is_square(QQ(Fraction(-9, 4)))
    with pytest.raises(FieldError, match="not a rational square"):
        sqrt(QQ(Fraction(-9, 4)))
    assert sqrt(QQ(Fraction(9, 4))) == QQ(Fraction(3, 2))


def test_constant_model_over_q():
    """A square constant is refused; a non-square one is refused by
    parametrize, both with the typed error."""
    from cubica.algebra import FieldError
    with pytest.raises(FieldError, match="needs a non-square"):
        QuadraticModel.constant(QQ, QQ(4))
    M = QuadraticModel.constant(QQ, QQ(2))
    with pytest.raises(FieldError, match="prime fields"):
        M.parametrize()


# -- parametrization ------------------------------------------------------------------


@pytest.mark.parametrize("fcoeffs", [[0, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 2], [-1, 2, 2]])
def test_conic_parametrization_consistency(fcoeffs):
    f = Polynomial(F5, fcoeffs)
    assert f[1] * f[1] - 4 * f[0] * f[2] != F5.zero
    M = QuadraticModel.kummer(f)
    par = M.parametrize()
    # sigma is an involution, X o sigma = X, Y o sigma = -Y
    sig = par.sigma
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
    assert value_at(par.sigma, Place.finite(x_of(F5) - 2)) == F5(-2)


def test_parametrize_constant_is_triv():
    M = QuadraticModel.constant(F5, F5(2))
    par = M.parametrize()
    assert par.d == F5(2)
    for e in par.qfield.elements():
        e0, e1 = par.split(e)
        assert e0.field == e1.field == F5
        assert par.qfield(e0) + par.qfield(e1) * par.root_d == e


def test_constant_closures_over_one_prime_share_one_quadratic_field():
    # the F_{p^2} keeps its cached non-square across the closures
    pars = [QuadraticModel.constant(F5, F5(d)).parametrize() for d in (2, 3)]
    assert pars[0] is not pars[1] and pars[0].qfield is pars[1].qfield
    assert canonical_quadratic_field(F5) is pars[0].qfield
    assert canonical_quadratic_field(PrimeField(5)) == pars[0].qfield


@pytest.mark.parametrize("f", [[0, 1], [-2, 0, 1], [1, 1, 2], [2]])
def test_parametrization_is_built_once_per_model(f):
    M = QuadraticModel.kummer(Polynomial(F5, f))
    assert M.parametrize() is M.parametrize()


def test_parametrize_artin_schreier_is_refused():
    from cubica.algebra import FieldError
    M = QuadraticModel.artin_schreier_x(PrimeField(2))
    with pytest.raises(FieldError, match="not parametrized"):
        M.parametrize()


def test_upstairs_place_split():
    x = x_of(F5)
    M = QuadraticModel.kummer(x)
    par = M.parametrize()
    p = Place.finite(x - 1)
    rho = M.canonical_rho(p)
    up = par.upstairs_place(p, rho)
    up2 = par.upstairs_place(p, -rho)
    assert up != up2
    assert up.degree == 1 and up2.degree == 1
    # the two places are swapped by sigma
    assert value_at(par.sigma, up) == -up2.poly[0]


def test_upstairs_place_infinity_split():
    x = x_of(F5)
    M = QuadraticModel.kummer(x ** 2 - 2)
    par = M.parametrize()
    inf = Place.infinity(F5)
    assert M.split_kind(inf) == SPLIT
    rho = M.canonical_rho(inf)
    up_minus = par.upstairs_place(inf, rho)
    up_plus = par.upstairs_place(inf, -rho)
    assert up_minus != up_plus


def test_upstairs_place_nonsquare_lc():
    x = x_of(F5)
    M = QuadraticModel.kummer(2 * x ** 2 + 2)   # lc = 2 non-square
    par = M.parametrize()
    assert M.split_kind(Place.infinity(F5)) == INERT
    with pytest.raises(FieldError, match="does not split"):
        M.canonical_rho(Place.infinity(F5))
    p = Place.finite(x - 1)   # f(1) = 4 = 2^2 square -> split
    assert M.split_kind(p) == SPLIT
    rho = M.canonical_rho(p)
    up1 = par.upstairs_place(p, rho)
    up2 = par.upstairs_place(p, -rho)
    assert up1 != up2


@pytest.mark.parametrize("field", [PrimeField(p) for p in (5, 7, 11, 13)]
                         + [canonical_quadratic_field(F5)], ids=str)
def test_sigma_fixed_points_match_a_scan(field):
    """`sigma_fixed_points` against every degree-one place of the m-line
    and infinity, each tested for sigma(m) = m by direct evaluation, on
    each conic closure of `closure_menu`: one fixed point above each
    degree-one branch place, with X there its x-coordinate (None at
    infinity)."""
    for model in closure_menu(field):
        if model.is_constant_extension():
            continue
        par = model.parametrize()
        sig, X = par.sigma, par.X
        scan = {}
        if sig.num.degree > sig.den.degree:
            scan[Place.infinity(field)] = (None if X.num.degree > X.den.degree
                                           else X.num.leading() / X.den.leading())
        for v in field.elements():
            den = sig.den.evaluate(v)
            if not den.is_zero() and sig.num.evaluate(v) == v * den:
                xden = X.den.evaluate(v)
                scan[Place.finite(x_of(field) - v, check=False)] = (
                    None if xden.is_zero() else X.num.evaluate(v) / xden)
        assert dict(par.sigma_fixed_points) == scan, model
        below = {None if b.infinite else -b.poly[0]
                 for b in model.branch_places() if b.degree == 1}
        assert set(scan.values()) == below, model


def _places_up_to_degree_three(field):
    """Every monic irreducible of degree 1, 2 and 3 over a finite field."""
    from itertools import product
    elems = list(field.elements())
    out = []
    for d in (1, 2, 3):
        for low in product(elems, repeat=d):
            poly = Polynomial(field, list(low) + [field.one])
            if is_irreducible(poly):
                out.append(Place.finite(poly, check=False))
    return out


def _as_root_counts(R):
    """{c: number of z in R with z^2 + z = c} for R = F_q[x]/(p): z runs
    over every sum of e_i x^i (e_i in F_q, i < deg p), and as squaring is
    additive in characteristic 2, z^2 + z is the sum of the terms
    e_i^2 x^(2i) + e_i x^i."""
    from collections import Counter
    from itertools import product
    x = Polynomial.x(R.base)
    terms = [[R(e * e * x ** (2 * i) + e * x ** i) for e in R.base.elements()]
             for i in range(R.deg)]
    return Counter(sum(parts[1:], parts[0]) for parts in product(*terms))


_F2 = PrimeField(2)


@pytest.mark.parametrize("field", [
    _F2, ResidueField(Polynomial(_F2, [1, 1, 1])),
    ResidueField(Polynomial(_F2, [1, 1, 0, 1]))], ids=["F2", "F4", "F8"])
def test_artin_schreier_splitting_counts_roots(field):
    """y^2 + y = x and y^2 + y = a0 (a0 the trace-1 constant) split at a
    place exactly when z^2 + z = gamma has two roots in its residue field,
    and are inert when it has none; y^2 + y = x ramifies at infinity only.
    Checked at infinity and at every place of degree <= 3, for
    `ASClass.splits_at`, `split_kind` and `canonical_rho`."""
    x = Polynomial.x(field)
    a0 = Polynomial.constant(field, nonsplit_as_constant(field))
    places = _places_up_to_degree_three(field)
    q = field.order
    assert len(places) == q + (q * q - q) // 2 + (q ** 3 - q) // 3
    counts = {p: _as_root_counts(p.residue_field) for p in places}

    def kind_from_roots(place, gamma):
        return {2: SPLIT, 0: INERT}[counts[place][place.residue_field(gamma)]]

    # the place x has residue field k, where a constant keeps its value
    const_at_inf = kind_from_roots(Place.finite(x), a0)
    for M, gamma, at_inf in (
            (QuadraticModel.artin_schreier_x(field), x, RAMIFIED),
            (QuadraticModel.artin_schreier_const(field, a0[0]), a0, const_at_inf)):
        want = {Place.infinity(field): at_inf}
        want.update((p, kind_from_roots(p, gamma)) for p in places)
        assert {SPLIT, INERT} <= set(want.values())
        cls = ASClass.of(gamma)
        for place, kind in want.items():
            assert M.split_kind(place) == kind, (M, place)
            if kind != RAMIFIED:
                assert cls.splits_at(place) == kind, (M, place)
            if kind == SPLIT:
                assert M.canonical_rho(place) is None
            else:
                with pytest.raises(FieldError, match="does not split"):
                    M.canonical_rho(place)


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
    from cubica.algebra import trace_to_f2
    F2 = PrimeField(2)
    assert trace_to_f2(F2.one) == 1
    F4 = canonical_quadratic_field(F2)
    assert trace_to_f2(F4.one) == 0
    assert trace_to_f2(F4((0, 1))) == 1
