"""Parshin covers: symbolic family identities, the Weierstrass construction,
and the full worked pipeline over Q with its frozen golden values."""

from fractions import Fraction

import pytest

from cubica.algebra import (FunctionField, Polynomial, PrimeField, QQ,
                            RationalFunction)
from cubica.hyper import (SplitCurve, canonicalize_prym, classes_equal,
                          divisor_difference, is_principal, mumford_scalar,
                          point_minus_i_point)
from cubica.parshin import (CurvePoint, find_Ptilde, genus1_parshin,
                            genus1_sample_check, interpolate_f, parshin_cover,
                            phi_fibre_size, verify_weierstrass_identity_generic,
                            weierstrass_parshin, weierstrass_ramification_on_x)

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
    checked = genus1_sample_check(fam, count=20)
    assert checked >= 1
    from cubica.algebra import QuadraticField
    F49 = QuadraticField(F7, 1, 4)
    checked49 = genus1_sample_check(fam, extension=F49, count=20)
    assert checked49 >= 20


def test_genus1_rejects_singular():
    with pytest.raises(Exception):
        genus1_parshin(PrimeField(5)(2))


def test_genus1_fibre_count():
    fam = genus1_parshin(F7.one)
    # u^3 - 3u - x0 has three roots counted with multiplicity; away from the
    # branch locus they are distinct
    sizes = [phi_fibre_size(fam, F7(x0)) for x0 in range(7)]
    assert all(s == 3 for s in sizes)


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
    assert (Pt.x, Pt.y) == (Fraction(7, 3), Fraction(-3278, 81))
    assert (partner.x, partner.y) == (Fraction(-7, 3), Fraction(-3278, 81))
    # image on X: P = (49/9, -22946/243)
    assert Pt.x * Pt.x == Fraction(49, 9)
    assert Pt.x * Pt.y == Fraction(-22946, 243)


def test_interpolate_f_golden():
    W = paper_curve(QQ)
    Qt = CurvePoint(QQ(1), QQ(2))
    Pt = CurvePoint(QQ(Fraction(7, 3)), QQ(Fraction(-3278, 81)))
    f = interpolate_f(W, Qt, Pt)
    assert f.lam == QQ(5)
    # divisor check by replay: norm factorizations already verified inside;
    # verify the divisor equality on the curve via the class-group oracle
    from cubica.hyper import WDivisor, _normalize_bundles
    field = QQ
    x = Polynomial.x(QQ)
    bundles = [
        (x + Fraction(7, 3), Polynomial.constant(QQ, QQ(Fraction(3278, 81))), 1),
        (x + 1, Polynomial.constant(QQ, QQ(-2)), 3),
        (x - Fraction(7, 3), Polynomial.constant(QQ, QQ(Fraction(-3278, 81))), -1),
        (x - 1, Polynomial.constant(QQ, QQ(2)), -3),
    ]
    div = WDivisor(_normalize_bundles(W, bundles), 0, 0)
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
    from cubica.quadratic import _is_square_q
    assert _is_square_q(prod)


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
        (Fraction(49, 9), Fraction(-22946, 243))
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
