"""Parshin covers: symbolic family identities, the Weierstrass construction,
and the full worked pipeline over Q with its frozen golden values."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from cubica.algebra import (FieldError, FunctionField, Polynomial,
                            PrimeField, QQ, is_square, poly_factor, sqrt)
from cubica.function_field import _multiplicity
from cubica.hyper import (SplitCurve, _compose, canonicalize_prym,
                          mumford_scalar, point_class, point_minus_i_point)
from cubica.parshin import (CurvePoint, InterpolatedFunction, ParshinCover,
                            _alpha_on_x, _x_model, find_Ptilde, genus1_parshin,
                            genus1_sample_check, interpolate_f, parshin_cover,
                            phi_fibre_size, verify_parshin_cover,
                            verify_weierstrass_identity_generic,
                            weierstrass_parshin, weierstrass_ramification_on_x)
from rr_oracle import WDivisor, is_principal, rr_space

F7 = PrimeField(7)


def paper_curve(field):
    x = Polynomial.x(field)
    return SplitCurve(x ** 8 + 4 * x ** 6 + 4 * x ** 4 - 5)


# -- genus 1 family ------------------------------------------------------------


def test_genus1_generic_identities():
    """All map identities hold over Q(lambda) with lambda an indeterminate."""
    k_lam = FunctionField(QQ, "lam")
    fam = genus1_parshin(k_lam.gen)
    assert fam.Z_rhs.degree == 7


def test_genus1_concrete_and_samples():
    fam = genus1_parshin(F7.one)
    checked = genus1_sample_check(fam)
    assert checked >= 1
    from cubica.algebra import ResidueField
    F49 = ResidueField(Polynomial(F7, [-4, -1, 1]))
    checked49 = genus1_sample_check(fam, extension=F49)
    assert checked49 >= 20


def test_genus1_rejects_singular():
    with pytest.raises(Exception):
        genus1_parshin(PrimeField(5)(2))


def test_genus1_fibre_count():
    fam = genus1_parshin(F7.one)
    # u^3 - 3u - x0 has three distinct roots away from the branch values
    # x0 = +-2, where it is (u -+ 1)^2 (u +- 2): two
    sizes = [phi_fibre_size(fam, F7(x0)) for x0 in range(7)]
    assert sizes == [3, 3, 2, 3, 3, 2, 3]


# -- Weierstrass construction ------------------------------------------------------


def test_weierstrass_identity_generic():
    assert verify_weierstrass_identity_generic()


def test_weierstrass_cover_over_f5():
    F5 = PrimeField(5)
    x = Polynomial.x(F5)
    cover = weierstrass_parshin(x, F5.one)
    assert cover.genus_X == 1 and cover.genus_Y == 2
    report = weierstrass_ramification_on_x(cover)
    assert report["total_only_at_infinity"] and report["no_partial"]


def test_weierstrass_ramification_is_read_off_the_model():
    """Without the factor x^2 - 4c^3 in X_rhs its zeros are no Weierstrass
    points of X, the valuation there is 1 and no_partial fails; an
    even-degree X_rhs has two points at infinity, where v(x) = -1."""
    F5 = PrimeField(5)
    x = Polynomial.x(F5)
    cover = weierstrass_parshin(x ** 3 + x + 1, F5.one)
    report = weierstrass_ramification_on_x(cover)
    assert report == {"v_infinity_of_x": -2, "total_only_at_infinity": True,
                      "v_at_quadratic_factor": 2, "no_partial": True}
    report = weierstrass_ramification_on_x(dataclasses.replace(cover, X_rhs=cover.g))
    assert report["v_at_quadratic_factor"] == 1 and not report["no_partial"]
    report = weierstrass_ramification_on_x(
        dataclasses.replace(cover, X_rhs=cover.X_rhs * (x + 2)))
    assert report["v_infinity_of_x"] == -1 and report["total_only_at_infinity"]


def test_weierstrass_cover_genus2():
    x = Polynomial.x(QQ)
    g = x ** 3 + x + 1
    cover = weierstrass_parshin(g, QQ.one)
    assert cover.genus_X == 2 and cover.genus_Y == 5 == 3 * 2 - 1


def test_weierstrass_rejects_bad_input():
    x = Polynomial.x(QQ)
    with pytest.raises(Exception):
        weierstrass_parshin(x * x, QQ.one)        # even degree
    with pytest.raises(Exception):
        weierstrass_parshin(x - 2, QQ.one)        # (x^2-4)(x-2) not squarefree


# -- the worked example over Q -----------------------------------------------------


def test_find_ptilde_golden():
    W = paper_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    threeE = canonicalize_prym(W, mumford_scalar(W, E, 3))
    Pt, partner = find_Ptilde(W, threeE)
    assert (Pt.x, Pt.y) == (QQ(Fraction(7, 3)), QQ(Fraction(-3278, 81)))
    assert (partner.x, partner.y) == (QQ(Fraction(-7, 3)), QQ(Fraction(-3278, 81)))
    # image on X: P = (49/9, -22946/243)
    assert Pt.x * Pt.x == QQ(Fraction(49, 9))
    assert Pt.x * Pt.y == QQ(Fraction(-22946, 243))


def effective_pair(W, points):
    """The Mumford pair of the sum of the affine points, composed from their
    point classes without reduction."""
    D = point_class(W, *points[0])
    for pt in points[1:]:
        D, _ = _compose(W, D, point_class(W, *pt))
    return D.u, D.v


def test_interpolate_f_golden():
    W = paper_curve(QQ)
    Qt = CurvePoint(QQ(1), QQ(2))
    Pt = CurvePoint(QQ(Fraction(7, 3)), QQ(Fraction(-3278, 81)))
    f = interpolate_f(W, Qt, Pt)
    assert f.lam == QQ(5)
    # divisor check by replay: norm factorizations already verified inside;
    # verify the divisor equality on the curve via the class-group oracle
    iPt, iQt = (-Pt.x, -Pt.y), (-Qt.x, -Qt.y)
    div = WDivisor(effective_pair(W, [iPt] + [iQt] * 3),
                   effective_pair(W, [(Pt.x, Pt.y)] + [(Qt.x, Qt.y)] * 3), 0, 0)
    assert is_principal(W, div)


def test_interpolate_f_swapped_orbit():
    """Swapping (Pt, Qt) with their i-images negates the divisor: the two
    constants multiply to a square (here both normalize to 5)."""
    W = paper_curve(QQ)
    Qt = CurvePoint(QQ(1), QQ(2))
    Pt = CurvePoint(QQ(Fraction(7, 3)), QQ(Fraction(-3278, 81)))
    iQt = CurvePoint(-Qt.x, -Qt.y)
    iPt = CurvePoint(-Pt.x, -Pt.y)
    f = interpolate_f(W, Qt, Pt)
    f_swapped = interpolate_f(W, iQt, iPt)
    prod = f.lam * f_swapped.lam
    from cubica.algebra import is_square
    assert is_square(prod)


def test_parshin_cover_golden():
    """The full pipeline reproduces the displayed cover verbatim."""
    W = paper_curve(QQ)
    cover = parshin_cover(W, 1, 2)
    assert cover.c == QQ(5)
    x = Polynomial.x(QQ)
    want_A = (210 * x ** 4 + 1320 * x ** 3 - 6860 * x ** 2 + 2680 * x + 1050)
    want_B = -320 * x - 480
    want_C = 9 * x ** 4 - 76 * x ** 3 + 174 * x ** 2 - 156 * x + 49
    assert cover.A == want_A
    assert cover.B == want_B
    assert cover.C == want_C
    assert (cover.branch_point.x, cover.branch_point.y) == \
        (QQ(Fraction(49, 9)), QQ(Fraction(-22946, 243)))
    # X model: y^2 = x (x^4 + 4x^3 + 4x^2 - 5)
    assert cover.X_rhs == x * (x ** 4 + 4 * x ** 3 + 4 * x ** 2 - 5)


def test_parshin_cover_second_curve():
    """The pipeline is not special to the worked example: an independent
    curve with a rational branch point runs end to end (the cover is
    verified internally: pole structure and the closure class)."""
    x = Polynomial.x(QQ)
    W = SplitCurve(x ** 8 + x ** 6 - 4 * x ** 4 - x ** 2 + 4)
    cover = parshin_cover(W, 1, 1)
    assert cover.c == QQ(3)
    assert (cover.branch_point.x, cover.branch_point.y) == (QQ(4), QQ(32))


def test_verify_parshin_cover_refuses_a_wrong_constant():
    """The closure check proves f * i*(f) = c: the same cover with 4c in
    place of c is refused, over Q and over F_p."""
    x = Polynomial.x(QQ)
    covers = [parshin_cover(paper_curve(QQ), 1, 2),
              parshin_cover(SplitCurve(x ** 8 + x ** 6 - 4 * x ** 4 - x ** 2 + 4),
                            1, 1)]
    for p in (101, 1009):
        found, seed = 0, 0
        while found < 3:
            curve, points = seeded_curve_points(p, f"wrong-c:{seed}", 2)
            seed += 1
            for pt in points:
                try:
                    covers.append(parshin_cover(curve, pt.x, pt.y))
                    found += 1
                except (ArithmeticError, FieldError):
                    continue
    for cover in covers:
        assert verify_parshin_cover(cover)
        wrong = dataclasses.replace(cover, c=cover.c * 4)
        with pytest.raises(ArithmeticError, match="differs from c"):
            verify_parshin_cover(wrong)


def test_verify_parshin_cover_refuses_a_pole_at_infinity():
    """alpha + x^3 has the same finite poles and closure constant as alpha
    but a pole of order 6 at the one point at infinity of X."""
    cover = parshin_cover(paper_curve(QQ), 1, 2)
    x = Polynomial.x(QQ)
    tampered = dataclasses.replace(cover, A=cover.A + x ** 3 * cover.C)
    with pytest.raises(ArithmeticError, match="pole at infinity"):
        verify_parshin_cover(tampered)


@pytest.mark.parametrize("tamper", [
    lambda cover: dataclasses.replace(cover, A=cover.A + cover.C),
    lambda cover: dataclasses.replace(cover, A=cover.A * 2, B=cover.B * 2),
], ids=["alpha_plus_one", "twice_alpha"])
def test_verify_parshin_cover_refuses_alpha_other_than_c_times_trace(tamper):
    """alpha + 1, as (A + C, B, C), and 2 alpha, as (2A, 2B, C), keep the
    poles and the closure constant of alpha, but neither is c (f + i*f):
    its square minus 4c^3 is not x times a square on X."""
    cover = parshin_cover(paper_curve(QQ), 1, 2)
    with pytest.raises(ArithmeticError, match="alpha is not c"):
        verify_parshin_cover(tamper(cover))


def test_find_ptilde_rationality_obstruction():
    """On a curve whose tripled class has an irrational branch x-coordinate
    the obstruction is surfaced, not resolved."""
    x = Polynomial.x(QQ)
    W = SplitCurve(x ** 8 - x ** 4 + 4)
    E = point_minus_i_point(W, 1, 2)
    threeE = canonicalize_prym(W, mumford_scalar(W, E, 3))
    assert threeE.u == x ** 2 - Fraction(55, 7)   # 55/7 is not a square
    with pytest.raises(Exception, match="square"):
        find_Ptilde(W, threeE)


def test_parshin_cover_refuses_negative_branch_square():
    """On x^8 + x^6 - 4x^2 + 83 at (1, -9) the tripled class asks for the
    square root of a negative rational: a typed refusal, not an isqrt
    ValueError."""
    from cubica.algebra import FieldError
    x = Polynomial.x(QQ)
    W = SplitCurve(x ** 8 + x ** 6 - 4 * x ** 2 + 83)
    with pytest.raises(FieldError, match="not a rational square"):
        parshin_cover(W, 1, -9)


def test_parshin_cover_partner_orbit():
    """Running the pipeline from the same Qt always fixes the canonical
    orbit point, so verify instead that the partner gives the same branch
    point on X."""
    W = paper_curve(QQ)
    E = point_minus_i_point(W, 1, 2)
    threeE = canonicalize_prym(W, mumford_scalar(W, E, 3))
    Pt, partner = find_Ptilde(W, threeE)
    assert Pt.x * Pt.x == partner.x * partner.x
    assert Pt.x * Pt.y == -(partner.x * partner.y) or \
        Pt.x * Pt.y == partner.x * partner.y
    # both orbit points produce a valid interpolation with the same constant
    Qt = CurvePoint(QQ(1), QQ(2))
    f2 = interpolate_f(W, Qt, partner)
    assert f2.lam == QQ(5)


# -- the descent function, checked against the Riemann-Roch space -----------


def seeded_curve_points(p, seed, count):
    """A seeded squarefree even octic over F_p and `count` of its affine
    points off the Weierstrass locus."""
    field = PrimeField(p)
    rng = random.Random(seed)
    x = Polynomial.x(field)
    while True:
        c0, c2, c4, c6 = (rng.randrange(p) for _ in range(4))
        try:
            curve = SplitCurve(x ** 8 + c6 * x ** 6 + c4 * x ** 4
                               + c2 * x ** 2 + c0)
        except FieldError:
            continue
        break
    points = []
    while len(points) < count:
        x0 = field(rng.randrange(p))
        val = curve.F.evaluate(x0)
        if not val.is_zero() and is_square(val):
            points.append(CurvePoint(x0, sqrt(val)))
    return curve, points


def seeded_covers(p, count):
    """The first `count` covers `parshin_cover` verifies on seeded octics
    over F_p."""
    covers, seed = [], 0
    while len(covers) < count:
        curve, points = seeded_curve_points(p, f"f-from-h:{seed}", 2)
        seed += 1
        for pt in points:
            try:
                covers.append(parshin_cover(curve, pt.x, pt.y))
            except (ArithmeticError, FieldError):
                continue
    return covers[:count]


def q_covers():
    x = Polynomial.x(QQ)
    return [parshin_cover(paper_curve(QQ), 1, 2),
            parshin_cover(SplitCurve(x ** 8 + x ** 6 - 4 * x ** 4 - x ** 2 + 4),
                          1, 1)]


def closure_holds(cover):
    """f * i*(f) = c for f = (gp + gq y)/den, multiplied out on y^2 = F."""
    f, F = cover.f, cover.curve_W.F
    neg = Polynomial.x(F.field) * -1
    gpi, gqi, deni = (p.compose(neg) for p in (f.gp, f.gq, f.den))
    return (f.gq * gpi - f.gp * gqi).is_zero() and \
        f.gp * gpi - f.gq * gqi * F == f.den * deni * cover.c


def alpha_is_c_times_trace_of_f(cover, rng):
    """(A + B y)/C at the image (u0^2, u0 v0) on X of a point (u0, v0) of W
    equals c (f(u0, v0) + f(-u0, -v0))."""
    field, f = cover.curve_W.field, cover.f
    while True:
        u0 = field(rng.randrange(field.p))
        val = cover.curve_W.F.evaluate(u0)
        x0 = u0 * u0
        if (val.is_zero() or not is_square(val) or f.den.evaluate(u0).is_zero()
                or f.den.evaluate(-u0).is_zero() or cover.C.evaluate(x0).is_zero()):
            continue
        v0 = sqrt(val)
        trace = sum(((f.gp.evaluate(s * u0) + f.gq.evaluate(s * u0) * (s * v0))
                     / f.den.evaluate(s * u0) for s in (1, -1)), field.zero)
        alpha = (cover.A.evaluate(x0) + cover.B.evaluate(x0) * u0 * v0) \
            / cover.C.evaluate(x0)
        return alpha == cover.c * trace


def test_f_spans_the_riemann_roch_space_of_its_divisor():
    """On seeded covers over F_101, F_1009 and F_(10^9+7) and on both Q
    curves, L(Pt + 3 Qt - i(Pt) - 3 i(Qt)) is one-dimensional and spanned by
    the closed-form f of `parshin_cover`; f * i*(f) = c; alpha has
    the canonical sign (-lc(A) does not sort before lc(A), lc(B) when
    A = 0), and over F_p alpha = c (f + i*f) at a point."""
    rng = random.Random("f-from-h")
    covers = q_covers()
    for p in (101, 1009, 1000000007):
        covers += seeded_covers(p, 3)
    assert len(covers) == 11
    for cover in covers:
        W, f, field = cover.curve_W, cover.f, cover.curve_W.field
        Pt, Qt = (cover.Pt.x, cover.Pt.y), (cover.Qt.x, cover.Qt.y)
        iPt, iQt = (-Pt[0], -Pt[1]), (-Qt[0], -Qt[1])
        space = rr_space(W, WDivisor(effective_pair(W, [Pt] + [Qt] * 3),
                                     effective_pair(W, [iPt] + [iQt] * 3), 0, 0))
        assert len(space) == 1
        (a, b, d), = space
        # (a + b y)/d = k f  iff  a den = k gp d and b den = k gq d
        lhs, rhs = (a * f.den, b * f.den), (f.gp * d, f.gq * d)
        k = next(l.leading() / r.leading() for l, r in zip(lhs, rhs)
                 if not r.is_zero())
        assert all(l == r * k for l, r in zip(lhs, rhs))
        assert closure_holds(cover)
        lead = cover.A.leading() if not cover.A.is_zero() else cover.B.leading()
        assert not (-lead).sort_key() < lead.sort_key()
        if field.order is not None:
            assert alpha_is_c_times_trace_of_f(cover, rng)


@pytest.mark.parametrize("p,F,point", [
    (13, (12, 0, 9, 0, 0, 0, 4, 0, 1), (2, 12)),
    (101, (66, 0, 71, 0, 77, 0, 29, 0, 1), (40, 80)),
    (13, (1, 0, 7, 0, 10, 0, 3, 0, 1), (4, 1)),
    (13, (1, 0, 7, 0, 12, 0, 0, 0, 1), (9, 4)),
])
def test_covers_the_interpolation_search_missed(p, F, point):
    """Census inputs on which the search for f by interpolation failed
    (`rank-deficient G system`, or `G has extra zeros`) get a verified
    cover, with f * i*(f) = c."""
    field = PrimeField(p)
    cover = parshin_cover(SplitCurve(Polynomial(field, list(F))), *point)
    assert verify_parshin_cover(cover)
    assert closure_holds(cover)


def test_parshin_cover_builds_no_riemann_roch_space():
    """The symmetric form of 3[Qt - i(Qt)] and f come in closed form from the
    elliptic quotient, and class comparisons use balanced forms: the library
    defines no `rr_space` and no `kernel_basis`, which only the tests'
    principality oracle keeps."""
    from cubica import hyper
    from cubica.algebra import linalg
    for module in (hyper, linalg):
        for name in ("rr_space", "kernel_basis"):
            assert not hasattr(module, name), (module.__name__, name)


def test_interpolate_f_refuses_a_point_off_the_form():
    """Pt must be a point (+-sqrt(a), -b) of the symmetric form (x^2 - a, b)
    of 3[Qt - i(Qt)]; its hyperelliptic conjugate is on W but not of that
    form, and is refused with a typed error."""
    W = paper_curve(QQ)
    Qt = CurvePoint(QQ(1), QQ(2))
    off = CurvePoint(QQ(Fraction(7, 3)), QQ(Fraction(3278, 81)))
    assert W.on_curve(off.x, off.y)
    with pytest.raises(FieldError, match="not a point"):
        interpolate_f(W, Qt, off)


def test_interpolate_f_refuses_a_weierstrass_point():
    """A point with y = 0 is refused with the typed error, at order 1 (Pt)
    and at order 3 (Qt)."""
    x = Polynomial.x(QQ)
    W = SplitCurve((x ** 2 - 1) * (x ** 6 - 4))
    weier, plain = CurvePoint(QQ(1), QQ(0)), CurvePoint(QQ(0), QQ(2))
    assert W.on_curve(weier.x, weier.y) and W.on_curve(plain.x, plain.y)
    with pytest.raises(FieldError, match="non-Weierstrass"):
        interpolate_f(W, plain, weier)
    with pytest.raises(FieldError, match="non-Weierstrass"):
        interpolate_f(W, weier, plain)


# -- the certificate on W, checked against alpha's orders on X ---------------


def _order_at(poly, root):
    """The multiplicity of the root in poly (None for the zero polynomial)."""
    if poly.is_zero():
        return None
    return _multiplicity(poly, Polynomial(poly.field, [-root, poly.field.one]))[0]


def _order_of_a_plus_b_y(A, B, R, x0, y0):
    """v_P(A + B y) at P = (x0, y0) on y^2 = R(x), y0 != 0 and A + B y != 0.

    Divide out the largest power m of x - x0 that A and B share; then A' +
    B' y and A' - B' y do not both vanish over x0, so one of (x0, +-y0)
    takes all of the order of the norm A'^2 - B'^2 R at x0."""
    m = min(o for o in (_order_at(A, x0), _order_at(B, x0)) if o is not None)
    lin = Polynomial(A.field, [-x0, A.field.one]) ** m
    A, B = A.exact_div(lin), B.exact_div(lin)
    if not (A.evaluate(x0) + B.evaluate(x0) * y0).is_zero():
        return m
    return m + _order_at(A * A - B * B * R, x0)


def _poles_prime_to_3(cover):
    """The poles of alpha = (A + B y)/C on X: y^2 = R(x) whose order is
    prime to 3, read from the norm A^2 - B^2 R and `_multiplicity`: the
    points over each root of C, ('inert', x0) for a place of degree 2,
    and 'inf' for the one point at infinity."""
    A, B, C, R = cover.A, cover.B, cover.C, cover.X_rhs
    norm = A * A - B * B * R
    out = []
    for g, _ in poly_factor(C):
        assert g.degree == 1
        x0 = -g[0]
        c = _order_at(C, x0)
        r0 = R.evaluate(x0)
        if r0.is_zero():                       # a Weierstrass point: v(x - x0) = 2
            orders = {(x0, r0): _order_at(norm, x0) - 2 * c}
        elif not is_square(r0):                # one place of degree 2
            orders = {("inert", x0): _order_at(norm, x0) // 2 - c}
        else:
            y0 = sqrt(r0)
            orders = {(x0, s): _order_of_a_plus_b_y(A, B, R, x0, s) - c
                      for s in (y0, -y0)}
        out += [pt for pt, order in orders.items() if order < 0 and order % 3]
    at_inf = 2 * C.degree - max(2 * P.degree + w for P, w in ((A, 0), (B, R.degree))
                                if not P.is_zero())
    if at_inf < 0 and at_inf % 3:
        out.append("inf")
    return out


def even_octics(p):
    """Every squarefree monic x^8 + c6 x^6 + c4 x^4 + c2 x^2 + c0 over F_p."""
    field = PrimeField(p)
    x = Polynomial.x(field)
    for c0, c2, c4, c6 in itertools.product(range(p), repeat=4):
        try:
            yield SplitCurve(x ** 8 + c6 * x ** 6 + c4 * x ** 4 + c2 * x ** 2 + c0)
        except FieldError:
            continue


def _check_every_base_point(curve):
    """parshin_cover at every affine point of the curve: a cover, a typed
    refusal, or `class is not anti-invariant` (the degree-0 reduction step
    on the elliptic quotient); each cover has exactly one pole of alpha of
    order prime to 3, at its branch point.  Returns the covers."""
    field = curve.field
    covers = []
    for x0 in field.elements():
        val = curve.F.evaluate(x0)
        if not is_square(val):
            continue
        for y0 in {sqrt(val), -sqrt(val)}:
            try:
                cover = parshin_cover(curve, x0, y0)
            except FieldError:
                continue
            except ArithmeticError as exc:
                assert str(exc) == "class is not anti-invariant (or is special)", \
                    (curve.F, x0, y0)
                continue
            bp = cover.branch_point
            assert _poles_prime_to_3(cover) == [(bp.x, bp.y)], (curve.F, x0, y0)
            covers.append(cover)
    return covers


@pytest.mark.parametrize("p,sample", [(5, None), (7, 300)])
def test_every_cover_has_one_branch_point(p, sample):
    """Every even monic squarefree octic over F_5, and a seeded sample of
    those over F_7, at every base point: each cover `parshin_cover` returns
    has been certified on W, and the poles of alpha on X, read
    independently from the norm, show exactly one of order prime to 3, at
    the branch point.  Among them are covers with the branch point over
    x(Q) and at a Weierstrass point of X, which the pole-order series on X
    refused."""
    curves = list(even_octics(p))
    if sample:
        curves = random.Random(f"one-branch-point:{p}").sample(curves, sample)
    covers = [c for curve in curves for c in _check_every_base_point(curve)]
    over_q = [c for c in covers if c.branch_point.x == c.Qt.x * c.Qt.x]
    weierstrass = [c for c in covers if c.branch_point.y.is_zero()]
    assert len(covers) > 300 and over_q and weierstrass


def test_verify_parshin_cover_refuses_f_branched_over_more_than_one_point():
    """f = (y + v)/den with F = v^2 + k prod (x^2 - r_i^2), k = 1 - lc(v)^2,
    and den = prod (x - r_i) has f * i*(f) = -k, a constant, but a simple
    pole at each (r_i, v(r_i)): the cover is branched over four points."""
    field = PrimeField(11)
    x = Polynomial.x(field)
    rng = random.Random("four-branch-points")
    while True:
        roots = rng.sample(range(1, 6), 4)         # r_i^2 distinct, r_i != 0
        v = rng.randrange(11) + rng.randrange(11) * x ** 2 + 2 * x ** 4
        den = Polynomial.one(field)
        for r in roots:
            den = den * (x - r)
        k = 1 - v.leading() ** 2
        try:
            curve = SplitCurve(v * v + den * den.compose(-x) * k)
        except FieldError:
            continue
        break
    f = InterpolatedFunction(gp=v, gq=Polynomial.one(field), den=den, lam=-k)
    A, B, C, sign = _alpha_on_x(curve, f)
    if sign < 0:
        f = InterpolatedFunction(gp=-v, gq=-f.gq, den=den, lam=-k)
    r = field(roots[0])
    point = CurvePoint(r, v.evaluate(r))
    cover = ParshinCover(curve_W=curve, X_rhs=_x_model(curve), c=-k, A=A, B=B,
                         C=C, branch_point=CurvePoint(r * r, r * point.y),
                         Qt=point, Pt=point, threeE=None, f=f)
    assert closure_holds(cover)
    with pytest.raises(ArithmeticError, match="not branched over exactly one point"):
        verify_parshin_cover(cover)


def test_verify_parshin_cover_refuses_a_moved_branch_point():
    """The golden cover with its branch point moved to the conjugate point
    of X, or to another point of X, is refused: neither is the image of the
    pole of f of order prime to 3."""
    cover = parshin_cover(paper_curve(QQ), 1, 2)
    P = cover.branch_point
    assert cover.X_rhs.evaluate(QQ(1)) == QQ(4)
    for moved in (CurvePoint(P.x, -P.y), CurvePoint(QQ(1), QQ(2))):
        with pytest.raises(ArithmeticError, match="for Pt over the branch point"):
            verify_parshin_cover(dataclasses.replace(cover, branch_point=moved))


def test_verify_parshin_cover_reads_only_kappa_y_plus_v_over_den():
    """The certificate reads div f off f = kappa (y + v)/den: the golden f
    with gp, gq and den all multiplied by x^2 + 1 is the same function, with
    the same f * i*(f), but its y-coefficient is not constant, and it is
    refused."""
    cover = parshin_cover(paper_curve(QQ), 1, 2)
    even = Polynomial.x(QQ) ** 2 + 1
    f = cover.f
    scaled = InterpolatedFunction(gp=f.gp * even, gq=f.gq * even,
                                  den=f.den * even, lam=f.lam)
    tampered = dataclasses.replace(cover, f=scaled)
    assert closure_holds(tampered)
    with pytest.raises(ArithmeticError, match="not kappa"):
        verify_parshin_cover(tampered)
