"""Split-model Mumford arithmetic: the worked tripling over Q, group-law
properties against the principality oracle mod 11 and 13, involution
equivariance, balanced forms and canonical symmetric forms.

The principality oracle is `rr_oracle`, Riemann-Roch spaces built by linear
algebra: it shares no reduction step with the library, whose
`classes_equal` and `canonicalize_prym` compare balanced forms.  Where a
test checks the group law against the oracle it calls `rr_classes_equal`;
the `classes_equal` tests assert that the library and the oracle agree."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubica import hyper, jsonio
from cubica.algebra import (Element, FieldError, Polynomial, PrimeField, QQ,
                            RationalFunction, ResidueField, poly_gcd,
                            poly_xgcd, squarefree_decomposition)
from cubica.hyper import (MumfordClass, SplitCurve, _balanced, _reduced,
                          _series_sqrt, canonicalize_prym, classes_equal,
                          i_star, identity_class, iota_star, mumford_add,
                          mumford_neg, mumford_scalar, point_class,
                          point_minus_i_point)
from cubica.parshin import CurvePoint, _tripled_class
from cubica.quadratic import canonical_quadratic_field
from rr_oracle import (WDivisor, _norm_quotient, divisor_difference,
                       divisor_of_class, is_principal, rr_classes_equal,
                       rr_space, y_coeff_at_infinity)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402


def example_curve(field):
    x = Polynomial.x(field)
    return SplitCurve(x ** 8 + 4 * x ** 6 + 4 * x ** 4 - 5)


def test_vplus_and_series():
    W = example_curve(QQ)
    x = Polynomial.x(QQ)
    assert W.Vplus == x ** 4 + 2 * x ** 2
    assert (W.F - W.Vplus ** 2) == Polynomial.constant(QQ, QQ(-5))
    S = W.sqrt_series(6)
    # S^2 = 1 + 4T^2 + 4T^4 - 5T^8 up to precision
    prod = [QQ.zero] * 6
    for i in range(6):
        for j in range(6 - i):
            prod[i + j] = prod[i + j] + S[i] * S[j]
    assert prod[0].is_one() and prod[2] == QQ(4) and prod[4] == QQ(4)
    assert prod[1].is_zero() and prod[3].is_zero()


def newton_series_sqrt(a, prec, field):
    """Reference: the square root of a series with a[0] = 1 by Newton's
    iteration s <- (s + a/s)/2, doubling the precision, on schoolbook
    series products and inverses."""
    def mul(u, v, n):
        out = [field.zero] * n
        for i, ui in enumerate(u[:n]):
            for j, vj in enumerate(v[:n - i]):
                out[i + j] = out[i + j] + ui * vj
        return out

    def inv(u, n):
        out = [u[0].inverse()] + [field.zero] * (n - 1)
        for m in range(1, n):
            acc = field.zero
            for k in range(1, m + 1):
                acc = acc + (u[k] if k < len(u) else field.zero) * out[m - k]
            out[m] = -out[0] * acc
        return out

    out, n, half = [field.one], 1, field(2).inverse()
    while n < prec:
        n = min(2 * n, prec)
        cur = out + [field.zero] * (n - len(out))
        quo = mul(a, inv(cur, n), n)
        out = [(c + q) * half for c, q in zip(cur, quo)]
    return out


F25 = canonical_quadratic_field(PrimeField(5))


@pytest.mark.parametrize("field", [PrimeField(13), PrimeField(1000000007),
                                   F25, QQ], ids=repr)
def test_series_sqrt_matches_newton(field):
    """The recurrence gives Newton's coefficients at every precision 1-20,
    also where p divides the index (F_13 at n = 13) and for a series shorter
    or longer than the precision."""
    rng = random.Random(7)

    def draw():
        if field is QQ:
            return QQ(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if field is F25:
            return F25((rng.randrange(5), rng.randrange(5)))
        return field(rng.randrange(field.p))

    for prec in range(1, 21):
        for length in (prec, prec + 3, max(1, prec - 4)):
            a = [field.one] + [draw() for _ in range(length - 1)]
            s = [Element(field, v)
                 for v in _series_sqrt(field, [e.val for e in a], prec)]
            assert s == newton_series_sqrt(a, prec, field), (prec, length)
            square = [sum((s[k] * s[n - k] for k in range(n + 1)), field.zero)
                      for n in range(prec)]
            padded = a[:prec] + [field.zero] * (prec - len(a))
            assert square == padded


def _fraction_series_sqrt(a, prec):
    """The recurrence 2 s_n = a_n - sum_{0<k<n} s_k s_(n-k) on Fractions."""
    out = [Fraction(1)]
    for n in range(1, prec):
        acc = a[n] if n < len(a) else Fraction(0)
        for k in range(1, n):
            acc -= out[k] * out[n - k]
        out.append(acc / 2)
    return out


def test_series_sqrt_over_q_matches_the_fraction_recurrence():
    """Over Q the integer recurrence returns the Fractions of the Fraction
    recurrence, for series shorter and longer than the precision, with
    integer coefficients and with large heights, and refuses a constant
    term other than 1."""
    rng = random.Random("series-sqrt-q")
    for prec in range(1, 25):
        for length in (1, prec, prec + 3, max(1, prec - 4)):
            for height, den in ((9, 1), (9, 9), (10 ** 30, 10 ** 12)):
                a = [Fraction(1)] + [Fraction(rng.randint(-height, height),
                                              rng.randint(1, den))
                                     for _ in range(length - 1)]
                got = _series_sqrt(QQ, a, prec)
                assert got == _fraction_series_sqrt(a, prec), (prec, length)
                assert all(type(c) is Fraction for c in got)
    with pytest.raises(FieldError, match="constant term 1"):
        _series_sqrt(QQ, [Fraction(4), Fraction(1)], 3)


def test_q_evaluate_matches_the_fraction_horner_rule():
    """`evaluate` over Q, on the integer form, equals Horner's rule on the
    Fraction coefficients (`Polynomial.evaluate`) for the zero polynomial,
    constants and seeded polynomials at int, Fraction and Element arguments,
    and refuses a non-scalar argument and an element of another field as it
    does."""
    rng = random.Random("q-evaluate")
    polys = [Polynomial.zero(QQ), Polynomial.one(QQ),
             Polynomial.constant(QQ, Fraction(-7, 3))]
    for degree in range(1, 9):
        polys.append(Polynomial(QQ, [Fraction(rng.randint(-50, 50), rng.randint(1, 40))
                                     for _ in range(degree + 1)]))
    args = [0, 1, -3, 10 ** 30 + 7, Fraction(-5, 12), Fraction(2, 10 ** 20 + 39),
            QQ(Fraction(7, 3)), QQ(0), QQ(-1)]
    for f in polys:
        for x in args:
            got = f.evaluate(x)
            assert got == Polynomial.evaluate(f, x), (f, x)
            assert got.field is QQ and type(got.val) is Fraction
    for f in (polys[0], polys[-1]):
        for bad in (Polynomial.x(QQ), 0.5, "1/2"):
            with pytest.raises(TypeError, match="compose takes a polynomial"):
                f.evaluate(bad)
        with pytest.raises(FieldError, match="different field"):
            f.evaluate(PrimeField(5)(2))


def at_infinity(W, n_plus, n_minus):
    """The WDivisor n+ inf+ + n- inf-."""
    one, zero = Polynomial.one(W.field), Polynomial.zero(W.field)
    return WDivisor((one, zero), (one, zero), n_plus, n_minus)


def test_infinite_points_are_told_apart():
    """y = +-x^(g+1) S(1/x) at inf+-, so y - V+ is regular at inf+ and has a
    pole of order g + 1 at inf-.  Neither point is a Weierstrass point, so
    L(g P) holds only constants and L((g + 1) P) has dimension 2."""
    W = example_curve(QQ)
    g, S = W.g, W.sqrt_series(W.g + 2)
    for sign in (1, -1):
        assert y_coeff_at_infinity(W, 0, g + 1, sign, S) == sign
    # the coefficients of x^0, ..., x^(g+1) of y - V+ at inf+ and at inf-
    plus, minus = ([y_coeff_at_infinity(W, 0, j, sign, S) - W.Vplus[j].val
                    for j in range(g + 2)] for sign in (1, -1))
    assert not any(plus)
    assert minus[g + 1] == -2
    for weights in ((g + 1, 0), (0, g + 1)):
        assert len(rr_space(W, at_infinity(W, *weights))) == 2
    for weights in ((g, 0), (0, g)):
        assert len(rr_space(W, at_infinity(W, *weights))) == 1


def test_golden_tripling_over_q():
    """E = [(1,2) - i(1,2)] has 3E = (x^2 - 49/9, 3278/81)."""
    W = example_curve(QQ)
    x = Polynomial.x(QQ)
    E = point_minus_i_point(W, 1, 2)
    assert E.u == x ** 2 - 1 and E.v == Polynomial.constant(QQ, QQ(2))
    threeE = mumford_scalar(W, E, 3)
    sym = canonicalize_prym(W, threeE)
    assert sym.u == x ** 2 - Fraction(49, 9)
    assert sym.v == Polynomial.constant(QQ, Fraction(3278, 81))
    assert (sym.n_plus, sym.n_minus) == (-1, -1)
    # n = 0 and n = 1 sanity
    assert mumford_scalar(W, E, 0) == identity_class(W)
    assert mumford_scalar(W, E, 1) == E


def even_octic_through(rng):
    """A seeded split model x^8 + a x^6 + b x^4 + c x^2 + d over Q through a
    rational point (x0, y0), and the point."""
    while True:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        x0 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        y0 = Fraction(rng.randint(-9, 9), rng.choice((1, 2)))
        s = x0 * x0
        d = y0 * y0 - (((s + a) * s + b) * s + c) * s
        F = Polynomial(QQ, [d, 0, c, 0, b, 0, a, 0, 1])
        if poly_gcd(F, F.derivative()).is_one():
            return SplitCurve(F), x0, y0


@pytest.mark.parametrize("which", ["golden", "octic-1", "octic-2", "octic-17"])
def test_group_law_over_q_past_the_benchmark_range(which):
    """(n+1)E = nE + E for n <= 30 over Q, where the coefficients of 31E
    reach about 5,400, 10,000 and 17,500 bits on the seeded octics (the
    benchmark stops at n = 12, about 1,400 bits); at the largest height the
    Q kernel's one content gcd per result is what keeps this fast."""
    if which == "golden":
        W, x0, y0 = example_curve(QQ), 1, 2
    else:
        rng = random.Random(f"group-law-q:{which}")
        W, x0, y0 = even_octic_through(rng)
    E = point_minus_i_point(W, x0, y0)
    for n in range(1, 31):
        nE = mumford_scalar(W, E, n)
        assert classes_equal(W, mumford_scalar(W, E, n + 1), mumford_add(W, nE, E))


def _squarefree_cases():
    """Seeded monic octics over Q, F_13 and F_{13^2}, half of them G^2 H by
    construction, and (x^2 + 1)^13 over F_13, whose derivative is zero."""
    F13 = PrimeField(13)
    fields = {"Q": QQ, "F13": F13, "F169": canonical_quadratic_field(F13)}
    cases = []
    for name, field in fields.items():
        rng = random.Random(f"squarefree:{name}")

        def elem():
            if field is QQ:
                return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if isinstance(field, ResidueField):
                return field((rng.randrange(13), rng.randrange(13)))
            return field(rng.randrange(13))

        def monic(deg):
            return Polynomial(field, [elem() for _ in range(deg)] + [1])

        for i in range(24):
            if i % 2:
                dg = rng.randint(1, 3)
                G = monic(dg)
                cases.append((name, G * G * monic(8 - 2 * dg)))
            else:
                cases.append((name, monic(8)))
    x = Polynomial.x(F13)
    cases.append(("F13", (x ** 2 + 1) ** 13))
    return cases


def test_split_curve_refuses_exactly_the_non_squarefree():
    """SplitCurve's test gcd(F, F') = 1 refuses exactly the F whose
    squarefree decomposition has a multiple factor."""
    refused = 0
    for name, F in _squarefree_cases():
        multiple = any(m > 1 for _, m in squarefree_decomposition(F))
        try:
            SplitCurve(F)
        except FieldError as exc:
            assert str(exc) == "F must be squarefree", (name, F)
            assert multiple, (name, F)
            refused += 1
        else:
            assert not multiple, (name, F)
    assert refused >= 36  # the G^2 H octics at least


def test_double_is_consistent_with_oracle():
    W = example_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    twoE = mumford_add(W, E, E)
    # 2E - (E + E) must be principal: direct check of the raw divisors
    D = divisor_difference(twoE, twoE)
    assert is_principal(W, D)
    # E + (-E) = 0
    zero = mumford_add(W, E, mumford_neg(W, E))
    for equal in (classes_equal, rr_classes_equal):
        assert equal(W, zero, identity_class(W))
        assert not equal(W, twoE, identity_class(W))


def _random_monic(field, rng, degree):
    return Polynomial(field, [field(rng.randrange(field.p))
                              for _ in range(degree)] + [field.one])


def _affine_points(F, rng, count, avoid=()):
    """`count` points (x0, y0) on y^2 = F with distinct x0 outside `avoid`
    and y0 != 0."""
    from cubica.algebra import is_square, sqrt
    field = F.field
    points = {}
    while len(points) < count:
        x0 = field(rng.randrange(field.p))
        val = F.evaluate(x0)
        if x0 not in avoid and not val.is_zero() and is_square(val):
            points[x0] = sqrt(val)
    return list(points.items())


def _random_octic_and_points(field, rng, count):
    """A squarefree random monic octic y^2 = F(x) and `count` affine
    points on it."""
    while True:
        F = _random_monic(field, rng, 8)
        if poly_gcd(F, F.derivative()).is_one():
            return SplitCurve(F), _affine_points(F, rng, count)


@pytest.mark.parametrize("p", [101, 1009])
def test_reduction_of_degree_three_sums_on_octics(p):
    """D1 + D2 for two sums of three point classes on genus-3 octics: the
    composition has deg u = 6, so the first reduction step has deg r = 5 > g
    and its pole at inf- has order deg(vt + V+), and the second step has
    deg u = g + 1, deg r <= g and the order g + 1.  The reduced sum has
    degree 0 and is the class of the unreduced composition."""
    from cubica.hyper import _compose, _reduce_once
    field = PrimeField(p)
    rng = random.Random(p)
    steps = set()
    for _ in range(5):
        W, pts = _random_octic_and_points(field, rng, 6)
        D1, D2 = (mumford_add(W, mumford_add(W, point_class(W, *pts[i]),
                                             point_class(W, *pts[i + 1])),
                              point_class(W, *pts[i + 2])) for i in (0, 3))
        raw, _ = _compose(W, D1, D2)
        D = raw
        while D.u.degree > W.g:
            steps.add(((W.Vplus - D.v) % D.u).degree > W.g)
            D = _reduce_once(W, D, 1)
        assert D == mumford_add(W, D1, D2)
        assert D.degree_check() == 0
        assert rr_classes_equal(W, D, raw)
    assert steps == {True, False}


# -- the group law against Cantor's general composition ------------------------


def _reference_compose(curve, D1, D2):
    """Cantor's composition in its general form, for every input, and its
    s: the reference for the doubling and coprime paths of `_compose`."""
    field = curve.field
    u1, v1, u2, v2 = D1.u, D1.v, D2.u, D2.v
    g0, e1, e2 = poly_xgcd(u1, u2)
    s, c1, c3 = poly_xgcd(g0, v1 + v2)
    # s = c1*(e1 u1 + e2 u2) + c3 (v1 + v2)
    u3 = (u1 * u2).exact_div(s * s)
    num = c1 * e1 * u1 * v2 + c1 * e2 * u2 * v1 + c3 * (v1 * v2 + curve.F)
    v3 = (num.exact_div(s)) % u3
    u3 = u3.monic()
    if not u3.is_constant() and not ((v3 * v3 - curve.F) % u3).is_zero():
        raise ArithmeticError("composition broke the Mumford invariant")
    ds = s.degree
    return MumfordClass(u3, v3 % u3 if not u3.is_constant() else Polynomial.zero(field),
                        D1.n_plus + D2.n_plus + ds, D1.n_minus + D2.n_minus + ds), s


def _reference_add(curve, D1, D2):
    return _reduced(curve, _reference_compose(curve, D1, D2)[0])


def _reference_scalar(curve, D, n):
    """n D for n >= 1 by the double-and-add of `mumford_scalar`."""
    result, base = None, D
    while n:
        if n & 1:
            result = base if result is None else _reference_add(curve, result, base)
        n >>= 1
        if n:
            base = _reference_add(curve, base, base)
    return result


def _composition_kind(D1, D2):
    """Which case of Cantor's composition D1 + D2 is."""
    if D1.u == D2.u and D1.v == D2.v and not D1.u.is_constant():
        if poly_gcd(D1.u, D1.v + D1.v).is_one():
            return "doubling"
        return "doubling, gcd(u, 2v) != 1"
    if poly_gcd(D1.u, D2.u).is_one():
        return "addition, gcd(u1, u2) = 1"
    return "addition, gcd(u1, u2) != 1"


def _checking_compositions(monkeypatch):
    """Patch `hyper._compose` to check every composition against
    `_reference_compose`, representative and s alike; returns the
    set of the kinds of composition it saw."""
    import cubica.hyper as hyper
    kinds, compose = set(), hyper._compose

    def checked(curve, D1, D2):
        got = compose(curve, D1, D2)
        assert got == _reference_compose(curve, D1, D2), (D1, D2)
        kinds.add(_composition_kind(D1, D2))
        return got
    monkeypatch.setattr(hyper, "_compose", checked)
    return kinds


def _draw(field, rng):
    if field is QQ:
        return QQ(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
    if isinstance(field, ResidueField):
        return field(tuple(rng.randrange(field.char) for _ in range(field.deg)))
    return field(rng.randrange(field.p))


def _curve_through_points(field, rng, degree, count, weierstrass=False):
    """A squarefree y^2 = F, F monic of the given degree, through `count`
    affine points with distinct x and y != 0 and, if asked, through a
    Weierstrass point (a, 0): F = I + N R with N the product of the x - x_i,
    I the interpolant of the values y_i^2 (and 0 at a) and R a random monic
    polynomial.  Returns the curve, the points and a (None if not asked)."""
    x = Polynomial.x(field)
    while True:
        xs = []
        while len(xs) < count + weierstrass:
            c = _draw(field, rng)
            if c not in xs:
                xs.append(c)
        ys = [_draw(field, rng) for _ in range(count)]
        if any(y.is_zero() for y in ys):
            continue
        values = [y * y for y in ys] + [field.zero] * weierstrass
        interp, N = Polynomial.zero(field), Polynomial.one(field)
        for i, xi in enumerate(xs):
            basis = Polynomial.constant(field, values[i])
            for j, xj in enumerate(xs):
                if j != i:
                    basis = basis * (x - xj) * (xi - xj).inverse()
            interp, N = interp + basis, N * (x - xi)
        R = Polynomial(field, [_draw(field, rng) for _ in range(degree - len(xs))]
                       + [field.one])
        F = interp + N * R
        if poly_gcd(F, F.derivative()).is_one():
            return (SplitCurve(F), list(zip(xs, ys)),
                    xs[-1] if weierstrass else None)


_GROUP_LAW_FIELDS = [PrimeField(101), PrimeField(1009), QQ]


@pytest.mark.parametrize("degree", [6, 8])
@pytest.mark.parametrize("field", _GROUP_LAW_FIELDS, ids=repr)
def test_group_law_matches_the_general_composition(field, degree, monkeypatch):
    """mumford_add and mumford_scalar (n <= 12) against Cantor arithmetic on
    `_reference_compose`, on seeded sextics and octics through deg F - 2
    affine points and a Weierstrass point P_W: every composition gives the reference's
    representative, and the sweep reaches all four cases - doublings and
    additions with and without a common factor.  These include P + P,
    P + Q, P + iota(P), (P + Q) + (P + R) with u1 and u2 sharing x - x(P),
    the doubling of P_W + P through P_W (gcd(u, 2v) = x - x(P_W)) and, on
    the octics, the sum of two degree-3 classes whose first reduction step
    has deg r > g."""
    kinds = _checking_compositions(monkeypatch)
    rng = random.Random(f"group-law-reference:{field!r}:{degree}")
    for _ in range(2):
        W, pts, a = _curve_through_points(field, rng, degree, degree - 2,
                                          weierstrass=True)
        P = [point_class(W, *pt) for pt in pts]
        PW = point_class(W, a, 0)
        iota_P0 = point_class(W, pts[0][0], -pts[0][1])
        S01, S02 = mumford_add(W, P[0], P[1]), mumford_add(W, P[0], P[2])
        SW = mumford_add(W, PW, P[0])
        T1 = mumford_add(W, S01, P[2])
        T2 = mumford_add(W, mumford_add(W, P[3], P[-2]), P[-1])
        pairs = [(P[0], P[1]), (P[0], P[0]), (P[0], iota_P0), (PW, PW),
                 (S01, S02), (SW, SW), (SW, S01), (T1, T2), (T2, T2)]
        for D1, D2 in pairs:
            assert mumford_add(W, D1, D2) == _reference_add(W, D1, D2)
        for D in (P[0], S01, SW, T1):
            for n in range(1, 13):
                assert mumford_scalar(W, D, n) == _reference_scalar(W, D, n), n
        if degree == 8:
            assert _reference_compose(W, T1, T2)[0].u.degree == 6
    assert kinds == {"doubling", "doubling, gcd(u, 2v) != 1",
                     "addition, gcd(u1, u2) = 1", "addition, gcd(u1, u2) != 1"}


@pytest.mark.parametrize("field", _GROUP_LAW_FIELDS, ids=repr)
def test_multiples_of_point_minus_i_point_match_the_general_composition(
        field, monkeypatch):
    """The benchmark's path: n [P - i(P)] for n <= 12 on seeded even
    octics, by `mumford_scalar` and by Cantor arithmetic on
    `_reference_compose`, give the same representative."""
    kinds = _checking_compositions(monkeypatch)
    if field is QQ:
        rng = random.Random("group-law-reference:even")
        curves = [even_octic_through(rng) for _ in range(3)]
    else:
        curves = even_octics_mod_p(field.p, "group-law-reference", 3)
    for W, x0, y0 in curves:
        E = point_minus_i_point(W, x0, y0)
        for n in range(1, 13):
            assert mumford_scalar(W, E, n) == _reference_scalar(W, E, n), n
    assert {"doubling", "addition, gcd(u1, u2) = 1"} <= kinds


def _anti_invariant_samples(curve, field, rng, count):
    out = []
    attempts = 0
    while len(out) < count and attempts < 400:
        attempts += 1
        x0 = field(rng.randrange(field.p))
        if x0.is_zero():
            continue
        val = curve.F.evaluate(x0)
        from cubica.algebra import is_square, sqrt
        if not is_square(val):
            continue
        y0 = sqrt(val)
        if y0.is_zero():
            continue
        out.append(point_minus_i_point(curve, x0, y0))
    return out


@pytest.mark.parametrize("p", [11, 13])
def test_group_law_bilinearity_mod_p(p):
    field = PrimeField(p)
    W = example_curve(field)
    rng = random.Random(p)
    samples = _anti_invariant_samples(W, field, rng, 3)
    assert samples
    for D in samples:
        powers = {n: mumford_scalar(W, D, n) for n in range(0, 9)}
        for m in range(0, 5):
            for n in range(0, 4):
                lhs = powers[m + n]
                rhs = mumford_add(W, powers[m], powers[n])
                assert rr_classes_equal(W, lhs, rhs), (p, m, n)


@pytest.mark.parametrize("p", [11, 13])
def test_i_equivariance(p):
    field = PrimeField(p)
    W = example_curve(field)
    rng = random.Random(50 + p)
    for D in _anti_invariant_samples(W, field, rng, 2):
        for n in (2, 3, 5):
            lhs = mumford_scalar(W, i_star(W, D), n)
            rhs = i_star(W, mumford_scalar(W, D, n))
            assert rr_classes_equal(W, lhs, rhs)
        # anti-invariance: i_* D = -D
        assert rr_classes_equal(W, i_star(W, D), mumford_neg(W, D))


def test_canonicalize_prym_mod_p():
    field = PrimeField(11)
    W = example_curve(field)
    rng = random.Random(99)
    for D in _anti_invariant_samples(W, field, rng, 2):
        for n in (1, 2, 3, 4):
            C = mumford_scalar(W, D, n)
            if rr_classes_equal(W, C, identity_class(W)):
                continue
            try:
                sym = canonicalize_prym(W, C)
            except ArithmeticError:
                continue  # special class without affine symmetric form
            assert sym.u.degree == 2 and sym.u[1].is_zero()
            assert sym.v.is_constant()
            assert rr_classes_equal(W, sym, C)


def test_even_multiples_have_no_symmetric_form():
    """Point-difference classes sit in a non-identity coset of the
    anti-invariant kernel: even multiples of E admit no representative
    i(P) + iota(P) - inf+ - inf-, and the engine reports that instead of
    fabricating one.  (Odd multiples do, which is why tripling works.)"""
    W = example_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    twoE = mumford_add(W, E, E)
    assert not rr_classes_equal(W, twoE, identity_class(W))
    with pytest.raises(ArithmeticError):
        canonicalize_prym(W, twoE)
    # the odd neighbours both canonicalize
    for n in (1, 3):
        sym = canonicalize_prym(W, mumford_scalar(W, E, n))
        assert sym.u.degree == 2 and sym.v.is_constant()


def even_octics_mod_p(p, label, count):
    """Seeded squarefree split models x^8 + a x^6 + b x^4 + c x^2 + d over
    F_p through a point (x0, y0) with x0, y0 != 0, and the point."""
    field = PrimeField(p)
    rng = random.Random(f"{label}:{p}")
    out = []
    for _ in range(count):
        a, b, c = (rng.randrange(p) for _ in range(3))
        x0, y0 = rng.randrange(1, p), rng.randrange(1, p)
        s = x0 * x0
        d = y0 * y0 - (((s + a) * s + b) * s + c) * s
        F = Polynomial(field, [d, 0, c, 0, b, 0, a, 0, 1])
        if poly_gcd(F, F.derivative()).is_one():
            out.append((SplitCurve(F), field(x0), field(y0)))
    return out


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (FieldError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _reference_norm_quotient(curve, a, b, den, div):
    """The norm quotient through reduced rational functions, as
    `canonicalize_prym` formed it before the exact division."""
    prod = (RationalFunction(a * a - b * b * curve.F, den * den)
            * RationalFunction(div.pos[0]) / RationalFunction(div.neg[0]))
    if not prod.den.is_constant():
        raise ArithmeticError("unexpected denominator in the norm quotient")
    return prod.num.monic()


@pytest.mark.parametrize("p", [13, 101, 1009])
def test_canonicalize_prym_sweep_mod_p(p):
    """D = 3E on seeded even octics through a point over F_p, by Cantor's
    tripling and in one step: whenever a symmetric form comes back, it is
    of the form (x^2 - A, c, -1, -1) and in the class of D.  The exact
    division of the norm quotient gives the u_s of the reduced rational
    function, and raises where it does, also with the two Mumford pairs of
    D swapped, which leaves a denominator."""
    returned = raised = 0
    for W, x0, y0 in even_octics_mod_p(p, "canonicalize-prym", 30):
        for D in (mumford_scalar(W, point_minus_i_point(W, x0, y0), 3),
                  point_minus_i_point(W, x0, y0, 3)):
            base = divisor_of_class(W, D)
            space = rr_space(W, WDivisor(base.pos, base.neg, base.n_plus + 1,
                                         base.n_minus + 1))
            if len(space) == 1:
                swapped = WDivisor(base.neg, base.pos, base.n_plus, base.n_minus)
                for div in (base, swapped):
                    args = (W, *space[0], div)
                    got = _outcome(_norm_quotient, *args)
                    assert got == _outcome(_reference_norm_quotient, *args)
                    raised += isinstance(got, tuple)
            try:
                sym = canonicalize_prym(W, D)
            except ArithmeticError:
                continue
            assert sym.u.degree == 2 and sym.u[1].is_zero() and sym.v.is_constant()
            assert (sym.n_plus, sym.n_minus) == (-1, -1)
            assert rr_classes_equal(W, D, sym)
            returned += 1
    assert returned >= 40 and raised >= 20


@pytest.mark.parametrize("p", [13, 101, 1009])
def test_point_minus_i_point_multiples_mod_p(p):
    """n[P - i(P)] in one step is the class of Cantor's n-th multiple for
    n = 1..6: u = (x^2 - x0^2)^n, v even of degree below 2n, weights
    (-n, -n); n = 1 is the constant interpolation (x^2 - x0^2, y0)."""
    checked = 0
    for W, x0, y0 in even_octics_mod_p(p, "point-multiples", 6):
        field, x = W.field, Polynomial.x(W.field)
        E = point_minus_i_point(W, x0, y0)
        assert E == MumfordClass(x ** 2 - x0 * x0, Polynomial.constant(field, y0),
                                 -1, -1)
        for n in range(1, 7):
            D = point_minus_i_point(W, x0, y0, n)
            assert D.u == (x ** 2 - x0 * x0) ** n
            assert D.v.degree < 2 * n
            assert all(D.v[i].is_zero() for i in range(1, D.v.degree + 1, 2))
            assert (D.n_plus, D.n_minus) == (-n, -n)
            assert rr_classes_equal(W, D, mumford_scalar(W, E, n)), (p, n)
            checked += 1
    assert checked >= 30


def test_point_minus_i_point_multiples_over_q():
    """The same on the golden curve over Q for n <= 4."""
    W = example_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    assert (E.n_plus, E.n_minus) == (-1, -1)
    for n in range(1, 5):
        D = point_minus_i_point(W, 1, 2, n)
        assert (D.v * D.v - W.F) % D.u == Polynomial.zero(QQ)
        assert rr_classes_equal(W, D, mumford_scalar(W, E, n)), n
    with pytest.raises(FieldError, match="positive"):
        point_minus_i_point(W, 1, 2, 0)


def test_point_minus_i_point_at_a_weierstrass_point():
    """y0 = 0: P and i(P) are Weierstrass points, 2E = div(x^2 - x0^2) ~ 0,
    so even multiples are the identity and odd ones E itself."""
    field = PrimeField(13)
    x = Polynomial.x(field)
    F = (x ** 2 - 4) * (x ** 6 + 3 * x ** 4 + 5 * x ** 2 + 7)
    W = SplitCurve(F)
    E = point_minus_i_point(W, 2, 0)
    assert E == MumfordClass(x ** 2 - 4, Polynomial.zero(field), -1, -1)
    assert not rr_classes_equal(W, E, identity_class(W))
    assert point_minus_i_point(W, 2, 0, 2) == identity_class(W)
    assert point_minus_i_point(W, 2, 0, 3) == E
    for n in (2, 3):
        assert rr_classes_equal(W, point_minus_i_point(W, 2, 0, n),
                                mumford_scalar(W, E, n))


def _census_cases():
    for seed in range(502, 511):
        for i in range(90):
            p, F, (x0, y0) = inputs.genus2_fp_census_input(seed, i)
            field = PrimeField(p)
            yield Polynomial(field, list(F)), field(x0), field(y0)
        for i in range(35):
            F, (x0, y0) = inputs.genus2_q_census_input(seed, i)
            yield Polynomial(QQ, list(F)), QQ(x0), QQ(y0)


def test_canonicalize_prym_of_both_triplings_on_the_census():
    """On the genus-2 census inputs of seeds 502-510, over F_p and over Q,
    the symmetric form of 3E is the same from Cantor's tripling, from the
    one-step class and in closed form from the elliptic quotient
    (`parshin._tripled_class`), and so is the type and message of every
    refusal."""
    def cantor(W, x0, y0):
        return canonicalize_prym(
            W, mumford_scalar(W, point_minus_i_point(W, x0, y0), 3))

    def direct(W, x0, y0):
        return canonicalize_prym(W, point_minus_i_point(W, x0, y0, 3))

    def closed(W, x0, y0):
        return _tripled_class(W, CurvePoint(x0, y0))[0]

    forms = refusals = 0
    for F, x0, y0 in _census_cases():
        W = _outcome(SplitCurve, F)
        if isinstance(W, tuple):
            continue
        got = _outcome(direct, W, x0, y0)
        assert got == _outcome(cantor, W, x0, y0), (F, x0, y0)
        assert got == _outcome(closed, W, x0, y0), (F, x0, y0)
        forms += isinstance(got, MumfordClass)
        refusals += isinstance(got, tuple)
    assert forms >= 1000 and refusals >= 40


def test_canonicalize_prym_on_disjoint_support():
    """The golden form over Q, where u_s of 3E is prime to the denominator
    of L(3E + inf+ + inf-)."""
    W = example_curve(QQ)
    threeE = mumford_scalar(W, point_minus_i_point(W, 1, 2), 3)
    sym = canonicalize_prym(W, threeE)
    x = Polynomial.x(QQ)
    assert sym == MumfordClass(x ** 2 - Fraction(49, 9),
                               Polynomial.constant(QQ, Fraction(3278, 81)), -1, -1)


def test_canonicalize_prym_with_shared_support():
    """Over F_13 on x^8 + 5x^6 + 6x^4 + 7x^2 + 6 through (2, 2), u_s of 3E
    meets the denominator of L(3E + inf+ + inf-), and the form takes the
    second square root of F mod u_s."""
    field = PrimeField(13)
    W = SplitCurve(Polynomial(field, [6, 0, 7, 0, 6, 0, 5, 0, 1]))
    threeE = mumford_scalar(W, point_minus_i_point(W, 2, 2), 3)
    sym = canonicalize_prym(W, threeE)
    x = Polynomial.x(field)
    assert sym == MumfordClass(x ** 2 + 5, Polynomial.constant(field, 11), -1, -1)
    assert rr_classes_equal(W, threeE, sym)


def test_canonicalize_prym_of_a_principal_class_is_the_identity():
    W = example_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    D = mumford_add(W, E, mumford_neg(W, E))
    assert canonicalize_prym(W, D) == identity_class(W)


def _decimal_by_chunks(n):
    """str(n) from 1,000-digit chunks, each well inside the default limit."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= 10 ** 1000:
        n, r = divmod(n, 10 ** 1000)
        chunks.append(str(r).zfill(1000))
    return sign + str(n) + "".join(reversed(chunks))


def test_huge_coefficients_over_q_print_and_round_trip():
    """31E on the seeded octic reaches about 17,500 bits, past the 4,300
    digits that str(int) and int(str) take by default."""
    rng = random.Random("group-law-q:octic-17")
    W, x0, y0 = even_octic_through(rng)
    D = mumford_scalar(W, point_minus_i_point(W, x0, y0), 31)
    for poly in (D.u, D.v):
        text = jsonio.encode_poly(poly)
        assert text == [_decimal_by_chunks(c.numerator) if c.denominator == 1
                        else f"{_decimal_by_chunks(c.numerator)}/"
                             f"{_decimal_by_chunks(c.denominator)}"
                        for c in poly.vals]
        assert jsonio.decode_poly(QQ, text) == poly
        assert all(c in repr(poly) for c in text if c != "0")
    assert max(len(c) for c in jsonio.encode_poly(D.v)) > 4300


@pytest.mark.parametrize("n", [10 ** 5000 + 1, -7 * 10 ** 9000 + 3,
                               2 ** 12000 - 1, 2 ** 12000, 10 ** 3613,
                               3 ** 40000 * 10 ** 6000],
                         ids=["10^5000+1", "-7*10^9000+3", "2^12000-1",
                              "2^12000", "10^3613", "3^40000*10^6000"])
def test_long_rationals_keep_their_zero_blocks(n):
    """Past one block the halves join with the low half zero-padded."""
    e = QQ(Fraction(n, 10 ** 4400 + 9))
    text = jsonio.encode_element(e)
    assert text == f"{_decimal_by_chunks(n)}/{_decimal_by_chunks(10 ** 4400 + 9)}"
    assert jsonio.decode_element(QQ, text) == e
    assert jsonio.decode_element(QQ, _decimal_by_chunks(n)) == QQ(n)


def test_mixed_point_classes_and_oracle():
    field = PrimeField(11)
    W = example_curve(field)
    # find an affine point
    from cubica.algebra import is_square, sqrt
    pts = []
    for xv in range(1, 11):
        val = W.F.evaluate(field(xv))
        if is_square(val) and not val.is_zero():
            pts.append((field(xv), sqrt(val)))
        if len(pts) == 2:
            break
    (x1, y1), (x2, y2) = pts
    P = point_class(W, x1, y1)
    Q = point_class(W, x2, y2)
    S = mumford_add(W, P, Q)
    assert S.degree_check() == 0
    # P - P principal, P - Q not
    for equal in (classes_equal, rr_classes_equal):
        assert equal(W, P, P)
        assert not equal(W, P, Q)
    # iota reverses sign of a point class up to the infinity pencil
    R = mumford_add(W, P, iota_star(W, P))
    # P + iota(P) ~ inf+ + inf- - 2 inf+ ... = pencil class; check degree 0
    assert R.degree_check() == 0


def _sextic_with_weierstrass_point(field, rng):
    """y^2 = (x - a) h(x), h a random monic quintic, squarefree: a genus-2
    curve with the rational Weierstrass point (a, 0), and three affine
    points on it."""
    x = Polynomial.x(field)
    while True:
        a = field(rng.randrange(field.p))
        F = (x - a) * _random_monic(field, rng, 5)
        if poly_gcd(F, F.derivative()).is_one():
            return SplitCurve(F), a, _affine_points(F, rng, 3)


@pytest.mark.parametrize("p", [101, 1009])
def test_classes_equal_peels_weierstrass_content(p):
    """The Cantor sum S = P_W + Q (P_W a Weierstrass point) has
    gcd(u, v) = x - x(P_W), a pair through a Weierstrass point that
    `rr_space` composes as it is.  S equals the class S + R - R that Cantor
    arithmetic reaches by another path, and differs from P_W + Q', Q'
    another point."""
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(3):
        W, a, pts = _sextic_with_weierstrass_point(field, rng)
        PW = point_class(W, a, 0)
        Q, R, Q2 = (point_class(W, *pt) for pt in pts)
        S = mumford_add(W, PW, Q)
        assert poly_gcd(S.u, S.v) == Polynomial.x(field) - a
        other_path = mumford_add(W, mumford_add(W, S, R), mumford_neg(W, R))
        assert other_path != S
        for equal in (classes_equal, rr_classes_equal):
            assert equal(W, S, other_path)
            assert equal(W, other_path, S)
            assert not equal(W, S, mumford_add(W, PW, Q2))


def _sextic_with_a_tangent_point(field, rng):
    """y^2 = F = V^2 + c (x - t)^2, V a random monic cubic: V+ = V, and
    y + V has the divisor 2Q + inf- - 3 inf+ for Q = (t, -V(t)), so
    2Q + inf- ~ 3 inf+.  Returns the curve, Q and one more affine point."""
    x = Polynomial.x(field)
    while True:
        V = _random_monic(field, rng, 3)
        t, c = field(rng.randrange(field.p)), field(rng.randrange(1, field.p))
        F = V * V + c * (x - t) ** 2
        if not V.evaluate(t).is_zero() and poly_gcd(F, F.derivative()).is_one():
            [point] = _affine_points(F, rng, 1, avoid=(t,))
            return SplitCurve(F), (t, -V.evaluate(t)), point


@pytest.mark.parametrize("p", [101, 1009])
def test_classes_equal_splits_a_shared_u_with_different_v(p):
    """D1 = [P - inf+] + [Q - inf+] shares u with D2 = [P - inf+] +
    [iota(Q) - inf+] and with D3 = [P - inf-] + [iota(Q) - inf-], with
    another v, so Cantor's composition of iota(D1) with D2 or D3 has a
    common factor x - x(P).
    As Q + iota(Q) = div(x - x(Q)) + inf+ + inf-, D1 ~ D2 iff Cantor's
    doubling 2[Q - inf+] is the class inf- - inf+, and D1 ~ D3 iff it is
    inf+ - inf-: comparisons without a shared u.  D1 ~ D2 never holds (Q is
    not a Weierstrass point); D1 ~ D3 holds on the sextics where
    2Q + inf- ~ 3 inf+ and not on random ones."""
    field = PrimeField(p)
    rng = random.Random(p + 1)
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    cases = []
    for _ in range(2):
        W, _, pts = _sextic_with_weierstrass_point(field, rng)
        cases.append((W, pts[0], pts[1], False))
        W, q, pt = _sextic_with_a_tangent_point(field, rng)
        cases.append((W, pt, q, True))
    for W, (xP, yP), (xQ, yQ), tangent in cases:
        P, Q, iQ = (point_class(W, xP, yP), point_class(W, xQ, yQ),
                    point_class(W, xQ, -yQ))
        D1 = mumford_add(W, P, Q)
        D2 = mumford_add(W, P, iQ)
        D3 = mumford_add(W, iota_star(W, point_class(W, xP, -yP)),
                         iota_star(W, Q))
        assert D1.u == D2.u == D3.u and D1.v != D2.v == D3.v
        assert (D2.n_plus, D2.n_minus, D3.n_plus, D3.n_minus) == (-2, 0, 0, -2)
        doubled = mumford_scalar(W, Q, 2)
        for equal in (classes_equal, rr_classes_equal):
            assert not equal(W, doubled, MumfordClass(one, zero, -1, 1))
            assert not equal(W, D1, D2)
            assert equal(W, doubled, MumfordClass(one, zero, 1, -1)) == tangent
            assert equal(W, D1, D3) == tangent


def test_classes_equal_of_a_weierstrass_class_and_its_conjugate():
    """D = P_W + P on seeded octics over F_101, P_W = (a, 0) a Weierstrass
    point and P an affine point with y != 0: u has the root a and v(a) = 0,
    v != 0.  For D - iota(D), `rr_space` composes iota(D) with iota(D), a
    doubling through P_W with gcd(u, 2v) = x - a, which Cantor's general
    composition takes out as s = x - a.  The answer is that of
    D - iota(D) ~ 0 by Cantor arithmetic."""
    field = PrimeField(101)
    rng = random.Random("weierstrass-peel")
    x = Polynomial.x(field)
    for _ in range(8):
        W, [pt], a = _curve_through_points(field, rng, 8, 1, weierstrass=True)
        D = mumford_add(W, point_class(W, a, 0), point_class(W, *pt))
        assert (D.u % (x - a)).is_zero() and D.v.evaluate(a).is_zero()
        assert not D.v.is_zero()
        conj = iota_star(W, D)
        want = (_balanced(W, mumford_add(W, D, mumford_neg(W, conj)))
                == identity_class(W))
        assert classes_equal(W, D, conj) == want
        assert rr_classes_equal(W, D, conj) == want


def test_point_classes_with_colliding_hashes_stay_apart():
    """Over Q, hash(Fraction(-1)) == hash(Fraction(-2)), so x - 1 and x - 2
    hash alike; distinct points must not cancel: L(P - Q + inf+ + inf-)
    has its poles at P."""
    x = Polynomial.x(QQ)
    W = SplitCurve((x - 1) * (x - 2) * (x ** 2 + 1) + 1)   # genus 1
    P, Q = point_class(W, 1, 1), point_class(W, 2, 1)
    assert hash(P.u) == hash(Q.u)
    D = divisor_difference(P, Q)
    space = rr_space(W, WDivisor(D.pos, D.neg, 1, 1))
    assert len(space) == 2 and {den for _, _, den in space} == {x - 1}
    assert not classes_equal(W, P, Q)
    assert not rr_classes_equal(W, P, Q)


_BALANCED_FIELDS = [PrimeField(101), PrimeField(1009), F25,
                    canonical_quadratic_field(PrimeField(13)), QQ]


def _is_balanced(W, B):
    """deg u <= g, total degree 0 and 0 <= n+ + ceil(g/2) <= g - deg u."""
    low = B.n_plus + W.g - W.g // 2
    return (B.u.degree <= W.g and B.degree_check() == 0
            and 0 <= low <= W.g - B.u.degree)


def _draw_class(W, terms, rng):
    """A sum of at most six of the terms, each with either sign."""
    D = identity_class(W)
    for _ in range(rng.randint(0, 6)):
        T = rng.choice(terms)
        D = mumford_add(W, D, T if rng.random() < 0.5 else mumford_neg(W, T))
    return D


@pytest.mark.parametrize("field", _BALANCED_FIELDS, ids=repr)
def test_balanced_forms_are_equal_iff_the_oracle_says_so(field, monkeypatch):
    """Over F_101, F_1009, F_{5^2}, F_{13^2} and Q, on seeded curves of genus
    1-4 through affine points and a Weierstrass point P_W, a class A is a
    sum of up to six of the point classes [P - inf+], their iota-images
    [iota(P) - inf-], [P_W - inf+] and inf+ - inf-, each with either sign.  A is
    compared with A + B - B and with an independent draw: the balanced forms
    are equal iff the Riemann-Roch oracle finds the difference principal,
    and `classes_equal` agrees.  Every balanced form is balanced and is its
    own balanced form.  With the class inf+ - inf- among the terms, and its
    multiples +-(g + 1) balanced on their own, the sweep takes balancing
    steps of both signs, with r = (Vs - v) mod u zero and not."""
    import cubica.hyper as hyper
    signs, step = set(), hyper._reduce_once

    def recorded(curve, D, sign):
        if D.u.degree <= curve.g:
            Vs = curve.Vplus if sign > 0 else -curve.Vplus
            signs.add((sign, ((Vs - D.v) % D.u).is_zero()))
        return step(curve, D, sign)
    monkeypatch.setattr(hyper, "_reduce_once", recorded)
    rng = random.Random(f"balanced:{field!r}")
    seen = {True: 0, False: 0, "other representative": 0}
    infinity = MumfordClass(Polynomial.one(field), Polynomial.zero(field), 1, -1)
    for g in (1, 1, 2, 2, 3, 3, 4, 4):
        W, pts, a = _curve_through_points(field, rng, 2 * g + 2, 2 * g,
                                          weierstrass=True)
        P = [point_class(W, *pt) for pt in pts]
        terms = P + [iota_star(W, D) for D in P] + [point_class(W, a, 0),
                                                    infinity]
        for _ in range(8):
            A, B, C = (_draw_class(W, terms, rng) for _ in range(3))
            same = mumford_add(W, mumford_add(W, A, B), mumford_neg(W, B))
            for other in (same, C):
                want = rr_classes_equal(W, A, other)
                forms = _balanced(W, A), _balanced(W, other)
                assert (forms[0] == forms[1]) == want, (g, A, other)
                assert classes_equal(W, A, other) == want
                for form in forms:
                    assert _is_balanced(W, form) and _balanced(W, form) == form
                seen[want] += 1
                seen["other representative"] += want and A != other
            assert rr_classes_equal(W, A, same)
        for k in (g + 1, -g - 1):
            # u = 1 leaves r = 0: y - Vs vanishes at the near point
            D = mumford_scalar(W, infinity, k)
            assert _is_balanced(W, _balanced(W, D))
            assert rr_classes_equal(W, D, _balanced(W, D))
    assert seen[False] >= 40 and seen["other representative"] >= 12, seen
    assert signs == {(1, True), (1, False), (-1, True), (-1, False)}


def test_classes_of_nonzero_degree_have_no_balanced_form():
    """A class of total degree d != 0 has no balanced form (for d < -g the
    steps would never end): `_balanced`, and so `canonicalize_prym`, refuse
    it with a typed error, and `classes_equal` finds classes of different
    total degrees unequal."""
    W = example_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    one, zero = Polynomial.one(QQ), Polynomial.zero(QQ)
    for D in (MumfordClass(E.u, E.v, -1, 0), MumfordClass(E.u, E.v, 0, 0),
              MumfordClass(one, zero, 1, 0), MumfordClass(one, zero, -5, -5)):
        for fn in (_balanced, canonicalize_prym):
            with pytest.raises(FieldError, match="total degree zero"):
                fn(W, D)
        assert not classes_equal(W, D, E)
        assert not classes_equal(W, E, D)


def test_rr_space_dimensions():
    """L(n(inf+ + inf-)) has dimension 2n - g + 1 for n >= g (Riemann-Roch),
    here g = 3."""
    W = example_curve(QQ)
    for n, expected in [(3, 4), (4, 6), (5, 8)]:
        basis = rr_space(W, at_infinity(W, n, n))
        assert len(basis) == expected, (n, len(basis))
    # L(0) = constants
    assert len(rr_space(W, at_infinity(W, 0, 0))) == 1


def _composed(W, points):
    """The class of the sum of the affine points, less as many inf+,
    composed from point classes without reduction (the identity for none)."""
    D = identity_class(W)
    for pt in points:
        D, _ = hyper._compose(W, D, point_class(W, *pt))
    return D


def _draw_sharing(rng, pts, a):
    """Two point lists pos and neg that share points: for three of the
    affine points P, pos takes 0-2 copies of P or iota(P) and neg 0-2
    copies of the same point or of its opposite; each takes the
    Weierstrass point (a, 0) at most once.  Neither list holds a point and
    its opposite, so both compose to semi-reduced pairs."""
    pos, neg = [], []
    for x0, y0 in rng.sample(pts, 3):
        sign = rng.choice((1, -1))
        rel = rng.choice((1, -1))
        pos += [(x0, sign * y0)] * rng.randint(0, 2)
        neg += [(x0, rel * sign * y0)] * rng.randint(0, 2)
    zero = a - a
    pos += [(a, zero)] * rng.randint(0, 1)
    neg += [(a, zero)] * rng.randint(0, 1)
    return pos, neg


@pytest.mark.parametrize("degree", [6, 8])
@pytest.mark.parametrize("field", _GROUP_LAW_FIELDS, ids=repr)
def test_rr_space_of_pairs_that_share_points(field, degree):
    """A seeded sweep of `rr_space` on D = div(u1, v1) - div(u2, v2)
    + n+ inf+ + n- inf- over F_101, F_1009 and Q, on sextics and octics
    through affine points and a Weierstrass point P_W.  The pairs are
    composed without reduction from point lists that share points: the same
    point on both sides, P on one and iota(P) on the other, and P_W.
    Whenever deg D >= 2g - 1, l(D) = deg D - g + 1 (Riemann-Roch, as
    deg(K - D) < 0 then), and l(D) = 0 when deg D < 0.  At degree 0,
    `is_principal(D)` agrees with Cantor arithmetic: it holds iff
    [pos] - [neg] plus the weights' class e (inf+ - inf-) reduces to the
    identity, and it holds when neg is the pair of a reduced sum Cantor
    arithmetic equates with pos."""
    rng = random.Random(f"rr-shared:{field!r}:{degree}")
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    checked, principal = {"rr": 0, "degree 0": 0}, []
    for _ in range(3):
        W, pts, a = _curve_through_points(field, rng, degree, degree - 2,
                                          weierstrass=True)
        g = W.g
        for trial in range(16):
            pos, neg = _draw_sharing(rng, pts, a)
            P, N = _composed(W, pos), _composed(W, neg)
            if trial % 4 == 3:
                # N is Cantor's reduced form of P, plus a shared point
                shared = [rng.choice(pts)]
                P = _composed(W, pos + shared)
                N, _ = hyper._compose(W, _reduced(W, _composed(W, pos)),
                                      _composed(W, shared))
                D = divisor_difference(P, N)
                assert D.degree() == 0 and is_principal(W, D)
                principal.append(True)
                continue
            n_plus = rng.randint(-2, 4)
            rest = P.u.degree - N.u.degree + n_plus
            n_minus = -rest if trial % 2 else rest + rng.randint(-2, 2 * g)
            D = WDivisor((P.u, P.v), (N.u, N.v), n_plus, n_minus)
            deg = D.degree()
            if deg >= 2 * g - 1 or deg < 0:
                assert len(rr_space(W, D)) == max(deg - g + 1, 0), (pos, neg)
                checked["rr"] += 1
            if deg == 0:
                e = n_plus - P.n_plus + N.n_plus
                assert e == -(n_minus - P.n_minus + N.n_minus)
                T = mumford_add(W, mumford_add(W, P, mumford_neg(W, N)),
                                MumfordClass(one, zero, e, -e))
                assert is_principal(W, D) == (T == identity_class(W)), (pos, neg)
                principal.append(T == identity_class(W))
                checked["degree 0"] += 1
    assert checked["rr"] >= 12 and checked["degree 0"] >= 12
    assert True in principal and False in principal
