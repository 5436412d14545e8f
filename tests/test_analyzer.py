"""Analyzer-specific checks: the independent valuation oracle upstairs,
inverse-generator symmetry for pure models, and structured diffs."""

import random
from dataclasses import replace

import pytest

from cubica import function_field, jsonio
from cubica.algebra import (QQ, FieldError, Polynomial, PrimeField, RationalFunction,
                            ResidueField, is_irreducible, poly_factor)
from cubica.analyzer import analyze, pole_orders_of_alpha, verify_against
from cubica.cli import main
from cubica.descent import DescentProblem, UpstairsChoice, construct, make_problem
from cubica.function_field import Place, genus_of_cubic, valuation
from cubica.models import CubicModel
from cubica.acceptance import closure_menu, random_places
from cubica.quadratic import SPLIT, QuadraticModel, canonical_quadratic_field

F5 = PrimeField(5)


def test_verify_against_round_trip_and_diff():
    x = Polynomial.x(F5)
    model = CubicModel.pure(RationalFunction(x))
    inf = Place.infinity(F5)
    ok, diff = verify_against(model, [Place.finite(x), inf], [])
    assert ok and not diff
    ok, diff = verify_against(model, [Place.finite(x)], [])
    assert not ok
    assert diff["total_extra"] == [inf]


def test_verify_against_r322_member():
    from cubica.catalog import R322, family_member
    m = family_member(R322, F5, d=2)
    x = Polynomial.x(F5)
    ok, diff = verify_against(m, [Place.infinity(F5)], [Place.finite(x * x - 2)])
    assert ok, diff


def test_pure_inverse_generator_symmetry():
    """y^3 = beta and y^3 = beta^2 have identical ramification (the inverse
    Kummer generator)."""
    rng = random.Random(5)
    x = Polynomial.x(F5)
    for _ in range(15):
        num = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))] + [1])
        den = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 3))] + [1])
        beta = RationalFunction(num, den)
        if beta.is_zero():
            continue
        try:
            rep1 = analyze(CubicModel.pure(beta))
        except Exception:
            continue  # degenerate beta (a cube up to constants)
        rep2 = analyze(CubicModel.pure(beta * beta))
        assert rep1.total_set() == rep2.total_set()
        assert rep1.genus == rep2.genus


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_analyze_against_upstairs_valuations(p):
    """Independent oracle: base-change a descent model to its closure and
    read the valuations of the explicit Kummer root s = f on the
    parametrized line; places of T are exactly those with v(s) prime to 3."""
    field = PrimeField(p)
    rng = random.Random(f"oracle-{p}")
    checked = 0
    for model in closure_menu(field) * 3:
        if model.is_constant_extension():
            continue
        T = random_places(model, field, rng, 2, infinity=True)
        res = construct(make_problem(model, T))
        par = model.parametrize()
        # rebuild f on the m-line from the reported pair: f = A + B y
        A_rf, B_rf = res.f_pair
        f_m = A_rf.compose(par.X) + B_rf.compose(par.X) * par.Y
        # v(f) at the upstairs places over T must be prime to 3
        for ch in res.problem.choices:
            up = par.upstairs_place(ch.place, ch.rho)
            v = valuation(f_m, up)
            assert v % 3 != 0, (model, ch.place)
        # and at upstairs places over a random unramified split place: v = 0 mod 3
        others = random_places(model, field, rng, 3, infinity=True)
        for q_place in others:
            if q_place in [ch.place for ch in res.problem.choices]:
                continue
            rho = model.canonical_rho(q_place)
            up = par.upstairs_place(q_place, rho)
            if f_m.num == f_m.den:
                continue
            try:
                v = valuation(f_m, up)
            except ZeroDivisionError:
                continue
            assert v % 3 == 0, (model, q_place)
        checked += 1
    assert checked >= 3


def _random_irreducible(field, degree, rng):
    while True:
        f = Polynomial(field, [rng.randrange(field.p) for _ in range(degree)] + [1])
        if is_irreducible(f):
            return f


def _finite(places):
    return {p for p in places if not p.infinite}


def _read_off(poly, keep):
    """The places of the factors of poly whose multiplicity keep accepts,
    from its full factorization."""
    return {Place.finite(g, check=False) for g, m in poly_factor(poly) if keep(m)}


@pytest.mark.parametrize("p", [7, 13, 101])
def test_analyze_reads_the_multiplicities_of_a_full_factorization(p):
    """Seeded impure models y^3 = 3c y + A/D with c = s^2 and D = P^3 R (a
    cubed pole) and A = 2 s^3 D + Q^2 H, so that alpha^2 - 4c^3 has the
    numerator Q^2 H (Q^2 H + 4 s^3 D), a square factor of degree 2; and pure
    models y^3 = N/D with factors of multiplicity 1 to 6.  analyze's finite
    places are those that a full poly_factor of alpha.den (multiplicity
    prime to 3) and of the numerator of alpha^2 - 4c^3 (odd multiplicity),
    or of N and D, gives."""
    field = PrimeField(p)
    rng = random.Random(f"analyze-multiplicities:{p}")
    cubed_pole = square_zero = False
    for _ in range(6):
        s = field(rng.randrange(1, p))
        P, R, Q = (_random_irreducible(field, d, rng) for d in (2, 1, 2))
        H = _random_irreducible(field, rng.randrange(1, 3), rng)
        D = P ** 3 * R
        alpha = RationalFunction(D * (2 * s ** 3) + Q * Q * H, D)
        model = CubicModel.impure(s * s, alpha)
        disc = alpha * alpha - model.c ** 3 * 4
        rep = analyze(model)
        assert _finite(rep.total) == _read_off(alpha.den, lambda m: m % 3 != 0)
        assert _finite(rep.partial) == _read_off(disc.num, lambda m: m % 2 == 1)
        cubed_pole |= any(m == 3 for _, m in poly_factor(alpha.den))
        square_zero |= any(m % 2 == 0 and g.degree >= 2 for g, m in poly_factor(disc.num))

        N = _random_irreducible(field, 2, rng) ** rng.randrange(1, 7) * \
            _random_irreducible(field, 1, rng) ** rng.randrange(1, 7)
        D = _random_irreducible(field, 3, rng) ** rng.randrange(1, 4)
        beta = RationalFunction(N, D)
        try:
            rep = analyze(CubicModel.pure(beta))
        except FieldError:
            continue  # beta a cube times a constant
        assert _finite(rep.total) == (_read_off(beta.num, lambda m: m % 3 != 0)
                                      | _read_off(beta.den, lambda m: m % 3 != 0))
    assert cubed_pole and square_zero


def reference_impure_report(model):
    """total, partial and genus of an impure model in odd characteristic,
    with alpha^2 - 4c^3 formed and normalized as a RationalFunction, and
    every place read off a full factorization."""
    field = model.base
    inf = Place.infinity(field)
    alpha = model.alpha
    total = _read_off(alpha.den, lambda m: m % 3 != 0)
    v = alpha.degree_at_infinity()
    if v < 0 and v % 3 != 0:
        total.add(inf)
    disc = alpha * alpha - field(4) * model.c ** 3
    partial = _read_off(disc.num, lambda m: m % 2 == 1)
    v = disc.degree_at_infinity()
    if v > 0 and v % 2 == 1:
        partial.add(inf)
    return total, partial, genus_of_cubic(list(total), list(partial), field.char)


def _report(model):
    rep = analyze(model)
    return set(rep.total), set(rep.partial), rep.genus


def _outcome(report, model):
    """report(model), or the type and message of what it raises (a random
    alpha can give ramification data of negative genus)."""
    try:
        return report(model)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 257])
def test_analyze_matches_the_rational_function_discriminant(p):
    """Seeded descents over every closure of the menu (their c = 1
    companions too) and seeded impure models with a random c: analyze,
    which reads alpha^2 - 4c^3 off the numerator n^2 - 4c^3 d^2 of
    alpha = n/d, gives the reference's total, partial and genus."""
    field = PrimeField(p)
    rng = random.Random(f"discriminant:{p}")
    degrees = (1, 2) if p < 100 else (1, 2, 3)
    inf = Place.infinity(field)
    models = []
    for closure in closure_menu(field):
        for count in (1, 2, 3):
            T = random_places(closure, field, rng, count, degrees)
            if closure.split_kind(inf) == "split" and rng.random() < 0.5:
                T.append(inf)
            res = construct(make_problem(closure, T,
                                         [rng.choice((1, -1)) for _ in T]))
            models.append(res.model)
            if res.unit_form is not None:
                models.append(res.unit_form)
    for _ in range(12):
        num = Polynomial(field, [rng.randrange(p) for _ in range(rng.randrange(1, 7))])
        den = Polynomial(field, [rng.randrange(p) for _ in range(rng.randrange(4))] + [1])
        if num.is_zero():
            continue
        models.append(CubicModel.impure(field(rng.randrange(1, p)),
                                        RationalFunction(num, den)))
    assert len(models) >= 30
    for model in models:
        if model.alpha.is_constant():
            # no ramification at all: the reference reaches genus -2
            with pytest.raises(FieldError, match="alpha is constant"):
                analyze(model)
            continue
        assert (_outcome(_report, model)
                == _outcome(reference_impure_report, model)), model


F4 = ResidueField(Polynomial(PrimeField(2), [1, 1, 1]))


@pytest.mark.parametrize("field, c, a, message", [
    (PrimeField(101), 50, 62, "alpha is constant"),
    (PrimeField(101), 1, 2, r"alpha\^2 = 4c\^3"),
    (PrimeField(2), 1, 1, "alpha is constant"),
    (F4, 1, (0, 1), "alpha is constant"),
])
def test_analyze_refuses_a_constant_alpha(field, c, a, message):
    """y^3 = 3c y + a with a constant a is unramified everywhere: a typed
    refusal in both characteristics, after the one for a^2 = 4c^3."""
    model = CubicModel.impure(field(c), RationalFunction.from_const(field, field(a)))
    with pytest.raises(FieldError, match="degenerate model: " + message):
        analyze(model)


@pytest.mark.parametrize("p", [5, 2])
def test_analyze_refuses_alpha_zero(p, capsys):
    """y^3 = 3c y is refused with a typed error in both characteristics,
    by the library and by `cubica analyze` (exit 1), before any valuation
    of alpha is read."""
    field = PrimeField(p)
    model = CubicModel.impure(field.one, RationalFunction.zero(field))
    with pytest.raises(FieldError, match="degenerate model: alpha = 0"):
        analyze(model)
    assert main(["analyze", "--field", str(p), "--model",
                 '{"impure": {"c": "1", "alpha": {"num": ["0"]}}}']) == 1
    assert capsys.readouterr().err == "error: degenerate model: alpha = 0\n"


# -- place hints ------------------------------------------------------------------


def _irreducible_over(field, rng, degrees):
    elems = list(field.elements())
    while True:
        d = rng.choice(degrees)
        poly = Polynomial(field, [rng.choice(elems) for _ in range(d)] + [field.one])
        if is_irreducible(poly):
            return poly


def _descents(field, rng, rounds=1):
    """Seeded descents over every closure of the menu (every conic closure
    over F_{p^2}), with 1-3 split places of degree <= 2 (<= 3 over
    F_p, p > 100) and infinity half the time when it splits: [(T, result)]."""
    menu = closure_menu(field)
    if not isinstance(field, PrimeField):
        menu = menu[1:]
    degrees = (1, 2, 3) if field.order > 100 else (1, 2)
    inf = Place.infinity(field)
    out = []
    for _ in range(rounds):
        for closure in menu:
            for count in (1, 2, 3):
                T = []
                while len(T) < count:
                    place = Place.finite(_irreducible_over(field, rng, degrees),
                                         check=False)
                    if place not in T and closure.split_kind(place) == SPLIT:
                        T.append(place)
                if closure.split_kind(inf) == SPLIT and rng.random() < 0.5:
                    T.append(inf)
                signs = [rng.choice((1, -1)) for _ in T]
                out.append((T, construct(make_problem(closure, T, signs))))
    return out


def _divides_none(poly, model):
    """poly divides neither alpha.den nor the numerator of alpha^2 - 4c^3."""
    n, d = model.alpha.num, model.alpha.den
    disc = n * n - d * d * (model.base(4) * model.c ** 3)
    return all(not divmod(g, poly)[1].is_zero() for g in (d, disc))


def _answers(model, hints):
    model = replace(model, hints=hints)
    return analyze(model), pole_orders_of_alpha(model)


@pytest.mark.parametrize("field", [PrimeField(101), PrimeField(257),
                                   canonical_quadratic_field(PrimeField(7))],
                         ids=["F101", "F257", "F49"])
def test_hints_never_change_the_answer(field):
    """analyze and pole_orders_of_alpha give one answer (the poles in one
    order too) whatever irreducible hints they read: the model's (the
    places of T and of the branch locus), none, the model's with extra ones
    that divide nothing, and those permuted; the c = 1 unit forms of
    case_2b carry the same hints."""
    rng = random.Random(f"hints:{field.order}")
    models = []
    for _, res in _descents(field, rng):
        models.append(res.model)
        if res.unit_form is not None:
            assert res.unit_form.hints == res.model.hints
            models.append(res.unit_form)
    assert len(models) >= 18
    for model in models:
        own = model.hints
        assert own and all(is_irreducible(h) for h in own)
        extra = ()
        while len(extra) < 2:
            h = _irreducible_over(field, rng, (1, 2))
            if _divides_none(h, model):
                extra += (h,)
        mixed = list(own + extra)
        rng.shuffle(mixed)
        want = _answers(model, own)
        for hints in ((), own + extra, tuple(mixed), own[::-1]):
            report, poles = _answers(model, hints)
            assert report == want[0], (model, hints)
            assert list(poles.items()) == list(want[1].items()), (model, hints)


def test_hints_never_change_the_answer_over_q():
    """Descents on y^2 = x over Q with rho = r at x - r^2.  The model's
    hints (T and x) cover alpha's poles; alpha^2 - 4 = 4 B^2 x for f = A +
    B y, so B's numerator, linear here, is a square factor that analyze
    reads with or without a hint for it.  Permuted and extra non-dividing
    hints give the same answer; a decoded model carries no hints and keeps
    the old refusals."""
    x = Polynomial.x(QQ)
    closure = QuadraticModel.kummer(x)
    extra = (x - 7, x * x + 1)
    for roots in ([2], [2, 3], [1, 2], [4, 9]):
        places = [Place.finite(x - r * r) for r in roots]
        res = construct(DescentProblem(closure, [
            UpstairsChoice(place, place.residue_field(r))
            for place, r in zip(places, roots)]))
        model = res.model
        assert model.hints == tuple(place.poly for place in places) + (x,)
        B = res.f_pair[1].num
        assert B.degree <= 1
        full = model.hints + ((B,) if B.degree == 1 else ())
        assert all(_divides_none(h, model) for h in extra)
        report, poles = _answers(model, full)
        assert report.total_set() == set(places)
        assert report.partial_set() == {Place.finite(x), Place.infinity(QQ)}
        for hints in (full[::-1], full + extra, extra + full):
            assert _answers(model, hints) == (report, poles)
        assert pole_orders_of_alpha(model) == poles
        copy = jsonio.decode_cubic_model(QQ, jsonio.encode_cubic_model(model))
        assert copy.hints is None and _answers(copy, full) == (report, poles)
        for call in (analyze, pole_orders_of_alpha):
            with pytest.raises(FieldError, match="needs caller-supplied place hints"):
                call(copy)
        assert analyze(model) == report


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 257])
def test_a_decoded_descent_model_gives_the_same_report(p):
    """Seeded sweep over the closure menu: the JSON copy of a descent model
    carries no hints, so analyze factors everything, and reports the same."""
    field = PrimeField(p)
    rng = random.Random(f"decoded:{p}")
    for _, res in _descents(field, rng, rounds=2):
        copy = jsonio.decode_cubic_model(field, jsonio.encode_cubic_model(res.model))
        assert copy.hints is None
        assert analyze(copy) == analyze(res.model), res.model


@pytest.mark.parametrize("p", [13, 101, 257])
def test_analyze_factors_nothing_a_place_of_t_divides(p, monkeypatch):
    """Over F_p the places of T come from the model's hints: analyze and
    pole_orders_of_alpha pass poly_factor no polynomial that a place of T
    divides (alpha.den is the product of those places)."""
    field = PrimeField(p)
    rng = random.Random(f"factor-count:{p}")
    cases = _descents(field, rng)
    seen = []
    real = function_field.poly_factor

    def spy(poly, used=None):
        seen.append(poly)
        return real(poly, used)

    monkeypatch.setattr(function_field, "poly_factor", spy)
    for T, res in cases:
        seen.clear()
        assert analyze(res.model).total_set() == set(T)
        pole_orders_of_alpha(res.model)
        for poly in seen:
            for place in T:
                if not place.infinite:
                    assert not divmod(poly, place.poly)[1].is_zero(), (res.model, place)
