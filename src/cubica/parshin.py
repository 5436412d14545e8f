"""Parshin covers: degree-3 covers of genus-1 and genus-2 curves fully
ramified over a single point and unramified elsewhere.

Three constructions:
  * an explicit genus-1 family (quotients of t^2 = s(s^6 - lambda s^3 + 1)),
  * the Weierstrass-point construction for X: y^2 = (x^2 - 4c^3) g(x),
  * the non-Weierstrass pipeline on a genus-2 curve with split étale double
    cover W: y^2 = F(x) = H(x^2) of degree 8: take the class 3[Qt - i(Qt)]
    in the anti-invariant part of Jac(W) straight from the branch of y at
    Qt (`hyper.point_minus_i_point`, no Cantor tripling), bring it to its
    symmetric form (x^2 - a, b), locate the branch point
    Pt = (+-sqrt(a), -b), and push alpha = lam (f + i*f) down to X.

No Riemann-Roch space is built: E: y^2 = H(t), t = x^2, is W/j for
j(x, y) = (-x, y) and the Prym variety of W -> X (Mumford, "Prym varieties
I", 1974), the class is a pullback from E, and one exact division on E
gives its form (`_tripled_class`) and f (`_descent_function`).  The sign
of alpha is fixed by one rule on every field (`_normalize_presentation`).
A cover is certified on W, not on X (`verify_parshin_cover`): W -> X is
étale, so Y -> X is branched exactly below the points of W where v(f) is
prime to 3, and div f is read off the squarefree decomposition of its
denominator; no pole order of alpha on X is expanded in series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (Element, FieldError, FunctionField, Polynomial,
                      QQ, RationalFunction, is_square, poly_gcd, sqrt,
                      squarefree_decomposition)
from .algebra.poly import _primitive, _qpoly
from .hyper import MumfordClass, SplitCurve, _compose_neg, point_minus_i_point
from .quadratic import canonical_square_const

# ---------------------------------------------------------------------------
# genus-1 family
# ---------------------------------------------------------------------------


@dataclass
class Genus1Family:
    """Z -> Y -> X for the parameter lam, with the quotient maps as
    coordinate formulas."""
    field: object
    lam: Element
    Z_rhs: Polynomial          # t^2 = s(s^6 - lam s^3 + 1)
    Y_rhs: Polynomial          # v^2 = (u^2 - 4)(u^3 - 3u - lam)
    X_rhs: Polynomial          # y^2 = (x^2 - 4)(x - lam)


def genus1_parshin(lam: Element) -> Genus1Family:
    field = lam.field
    if field.char in (2, 3):
        raise FieldError("the genus-1 family needs characteristic prime to 6")
    if lam * lam == field(4):
        raise FieldError("lambda = +-2 gives a singular member")
    s = Polynomial.x(field)
    Z = s * (s ** 6 - lam * s ** 3 + 1)
    Y = (s * s - 4) * (s ** 3 - 3 * s - Polynomial.constant(field, lam))
    X = (s * s - 4) * (s - Polynomial.constant(field, lam))
    fam = Genus1Family(field=field, lam=lam, Z_rhs=Z, Y_rhs=Y, X_rhs=X)
    verify_genus1_maps(fam)
    return fam


def verify_genus1_maps(fam: Genus1Family):
    """Check the symbolic identities: psi maps Z to Y, phi maps Y to X, and
    the composite has the closed form (s^3 + s^-3, s t (1 - s^-6)).  Also
    check that Y and X have odd-degree models, so one point at infinity
    each.  The triple ramification of phi over infinity is not computed:
    x = u^3 - 3u has its only pole at the one point at infinity of Y, and
    phi has degree 3."""
    field = fam.field
    s = Polynomial.x(field)
    one = RationalFunction.one(field)
    S = RationalFunction(s)
    u = S + S.inverse()
    t_sq = RationalFunction(fam.Z_rhs)
    v_factor = (one - S.inverse() ** 4) / u      # v = t * v_factor
    v_sq = t_sq * v_factor * v_factor
    # v^2 = (u^2 - 4)(u^3 - 3u - lam)
    rhs_y = (u * u - 4) * (u ** 3 - 3 * u - fam.lam)
    if v_sq != rhs_y:
        raise ArithmeticError("psi does not map Z to Y")
    # phi: x = u^3 - 3u, y = v (u^2 - 1) on Y -> X, checked on Z
    x_expr = u ** 3 - 3 * u
    y_sq = v_sq * (u * u - 1) ** 2
    rhs_x = (x_expr * x_expr - 4) * (x_expr - fam.lam)
    if y_sq != rhs_x:
        raise ArithmeticError("phi does not map Y to X")
    # trace identity (s + 1/s)^3 - 3(s + 1/s) = s^3 + 1/s^3
    if x_expr != S ** 3 + S.inverse() ** 3:
        raise ArithmeticError("cube trace identity failed")
    # composite y-coordinate: v (u^2 - 1) = s t (1 - s^-6)
    if v_factor * (u * u - 1) != S * (one - S.inverse() ** 6):
        raise ArithmeticError("composite y-coordinate identity failed")
    # one (Weierstrass) point at infinity on each curve
    if fam.Y_rhs.degree % 2 != 1 or fam.X_rhs.degree % 2 != 1:
        raise ArithmeticError("unexpected models at infinity")


def genus1_sample_check(fam: Genus1Family, extension=None):
    """Evaluate the maps at up to 20 points of Z over the base field (or an
    extension field) and confirm the images satisfy the curve equations."""
    field = extension or fam.field
    Z, Y, X = (P.map_coeffs(field, field) for P in (fam.Z_rhs, fam.Y_rhs, fam.X_rhs))
    checked = 0
    for s0 in field.elements():
        if s0.is_zero():
            continue
        z_val = Z.evaluate(s0)
        if not is_square(z_val):
            continue
        t0 = sqrt(z_val)
        u0 = s0 + s0.inverse()
        v_den = u0
        if v_den.is_zero():
            continue
        v0 = t0 * (field.one - s0.inverse() ** 4) / v_den
        if v0 * v0 != Y.evaluate(u0):
            raise ArithmeticError("psi image failed a sample check")
        x0 = u0 ** 3 - 3 * u0
        y0 = v0 * (u0 * u0 - 1)
        if y0 * y0 != X.evaluate(x0):
            raise ArithmeticError("phi image failed a sample check")
        checked += 1
        if checked >= 20:
            break
    return checked


def phi_fibre_size(fam: Genus1Family, x0: Element) -> int:
    """Number of distinct geometric preimages of x0 under u^3 - 3u: three
    away from the branch values x0 = +-2, two at them."""
    u = Polynomial.x(fam.field)
    fib = u ** 3 - 3 * u - x0
    return fib.degree - poly_gcd(fib, fib.derivative()).degree


# ---------------------------------------------------------------------------
# Weierstrass-point construction
# ---------------------------------------------------------------------------


@dataclass
class WeierstrassCover:
    field: object
    c: Element
    g: Polynomial
    X_rhs: Polynomial           # y^2 = (x^2 - 4c^3) g(x)
    Y_rhs: Polynomial           # w^2 = (z^2 - 4c) g(z^3 - 3cz)
    genus_X: int
    genus_Y: int


def weierstrass_parshin(g: Polynomial, c: Element) -> WeierstrassCover:
    field = g.field
    if c.is_zero():
        raise FieldError("c must be nonzero")
    if g.degree % 2 != 1:
        raise FieldError("g must have odd degree")
    x = Polynomial.x(field)
    f = (x * x - 4 * c ** 3) * g
    if not poly_gcd(f, f.derivative()).is_one():
        raise FieldError("(x^2 - 4c^3) g(x) must be squarefree")
    z3 = x ** 3 - (3 * c) * x
    Y_rhs = (x * x - 4 * c) * g.compose(z3)
    verify_weierstrass_identity(field, c)
    if not poly_gcd(Y_rhs, Y_rhs.derivative()).is_one():
        raise FieldError("the cover model is not squarefree")
    genus_X = (f.degree - 1) // 2
    genus_Y = (Y_rhs.degree - 1) // 2
    if genus_Y != 3 * genus_X - 1:
        raise ArithmeticError("genus bookkeeping failed")
    return WeierstrassCover(field=field, c=c, g=g, X_rhs=f, Y_rhs=Y_rhs,
                            genus_X=genus_X, genus_Y=genus_Y)


def verify_weierstrass_identity(field, c: Element):
    """(z^3 - 3cz)^2 - 4c^3 = (z^2 - 4c)(z^2 - c)^2 as polynomials."""
    z = Polynomial.x(field)
    lhs = (z ** 3 - (3 * c) * z) ** 2 - 4 * c ** 3
    rhs = (z * z - 4 * c) * (z * z - c) ** 2
    if lhs != rhs:
        raise ArithmeticError("the Weierstrass substitution identity failed")


def verify_weierstrass_identity_generic():
    """The same identity over Q(c) with c an indeterminate."""
    kc = FunctionField(QQ, "c")
    c = kc.gen
    verify_weierstrass_identity(kc, c)
    return True


def weierstrass_ramification_on_x(cover: WeierstrassCover):
    """Valuations on X read off its model y^2 = X_rhs, certifying total
    ramification only over infinity: v(x) = -2 at a single (Weierstrass)
    point at infinity when deg X_rhs is odd, -1 otherwise, and prime to 3
    either way; x^2 - 4c^3 has valuation 2, even, at its zeros when it
    divides X_rhs (they are Weierstrass points of X), 1 otherwise."""
    X_rhs = cover.X_rhs
    x = Polynomial.x(cover.field)
    v_inf = -2 if X_rhs.degree % 2 == 1 else -1
    total_ok = v_inf % 3 != 0
    v_branch = 2 if (X_rhs % (x * x - 4 * cover.c ** 3)).is_zero() else 1
    partial_ok = v_branch % 2 == 0
    return {"v_infinity_of_x": v_inf, "total_only_at_infinity": total_ok,
            "v_at_quadratic_factor": v_branch, "no_partial": partial_ok}


# ---------------------------------------------------------------------------
# non-Weierstrass pipeline on an étale double cover
# ---------------------------------------------------------------------------


@dataclass
class CurvePoint:
    x: Element
    y: Element


@dataclass
class InterpolatedFunction:
    """f = (gp + gq*y)/den with (f) = i(Pt) + 3 i(Qt) - Pt - 3 Qt;
    f * i*(f) = lam."""
    gp: Polynomial
    gq: Polynomial
    den: Polynomial
    lam: Element


def find_Ptilde(curve: SplitCurve, threeE: MumfordClass):
    """The two points Pt with 3E ~ i(Pt) - Pt (a single j-orbit), from the
    symmetric Mumford form (x^2 - a, b): Pt = (+-sqrt(a), -b).  The first
    entry is the canonical representative."""
    field = curve.field
    u, v = threeE.u, threeE.v
    if u.degree != 2 or not u[1].is_zero() or not v.is_constant():
        raise FieldError("class is not in symmetric anti-invariant form")
    a = -u[0]
    # over Q a non-square raises "constant is not a rational square"
    if field.order is not None and not is_square(a):
        raise FieldError("branch point is not rational (x-coordinate)")
    rho = sqrt(a)
    b = v.constant_coeff()
    cands = sorted([rho, -rho], key=lambda e: e.sort_key())
    points = [CurvePoint(r, -b) for r in cands]
    for pt in points:
        if not curve.on_curve(pt.x, pt.y):
            raise ArithmeticError("computed branch point is not on the curve")
    return points[0], points[1]


def _refuse_weierstrass(*points: CurvePoint):
    """Qt and Pt must lie off y = 0.  At such a Qt, sqrt(H) has no branch w
    through q.  At such a Pt the certificate of `verify_parshin_cover`
    would hold, but the refusal stays: its text is among the genus-2
    census outcomes whose digest `tests/test_bench_digests.py` pins, and
    lifting it belongs with building f for the Weierstrass cases."""
    if any(pt.y.is_zero() for pt in points):
        raise FieldError("series expansion needs a non-Weierstrass point")


def _tripled_class(curve: SplitCurve, Qt: CurvePoint):
    """(x^2 - a, -w(a), -1, -1) ~ D = 3[Qt - i(Qt)], v = w(x^2) and ell.

    `point_minus_i_point` gives D = ((x^2 - t0)^3, w(x^2)), t0 = x0^2, for
    the branch w of sqrt(H) through q = (t0, y0) mod (t - t0)^3: a pullback
    from E.  One reduction step on E (Cantor, Math. Comp. 48, 1987) is the
    exact division ell = (H - w^2)/(t - t0)^3, of degree <= 1; for its root
    a, r = (a, -w(a)) ~ 3q - O+ - O-, and r pulls back to a divisor
    ~ D + inf+ + inf-.  deg ell = 0 puts r at infinity.  For y0 = 0, D is
    already symmetric, and v and ell are None."""
    D = point_minus_i_point(curve, Qt.x, Qt.y, 3)
    if Qt.y.is_zero():
        return D, None, None
    field = curve.field
    w = _even_part(D.v)
    ell = (_even_part(curve.F) - w * w).exact_div(_even_part(D.u))
    if ell.degree < 1:
        raise ArithmeticError("class is not anti-invariant (or is special)")
    a = -ell[0] / ell[1]
    return (MumfordClass(Polynomial(field, [-a, field.zero, field.one]),
                         Polynomial.constant(field, -w.evaluate(a)), -1, -1),
            D.v, ell)


def _descent_function(curve, Qt, Pt, v, ell) -> InterpolatedFunction:
    """f = kappa (y + v)/((x - x0)^3 (x - x(Pt))), Pt = (+-sqrt(a), w(a)).

    y + v has the norm -(x^2 - x0^2)^3 ell(x^2) and, as deg ell = 1 keeps
    the x^4 term of v off +-x^4, the poles 4 inf+ + 4 inf-; it vanishes to
    order 3 at i(Qt) and (x0, -y0) and once at i(Pt) and (x(Pt), -w(a)),
    so (f) = i(Pt) + 3 i(Qt) - Pt - 3 Qt.  f * i*(f) = -kappa^2 lc(ell) is
    the canonical square class c for kappa^2 = c/(-lc(ell)); that leaves f
    and -f, and `_normalize_presentation` picks one."""
    field = curve.field
    x = Polynomial.x(field)
    lc = -ell.leading()
    c = canonical_square_const(lc)
    kappa = sqrt(c / lc)
    return InterpolatedFunction(gp=v * kappa, gq=Polynomial.constant(field, kappa),
                                den=(x - Qt.x) ** 3 * (x - Pt.x), lam=c)


def interpolate_f(curve: SplitCurve, Qt: CurvePoint,
                  Pt: CurvePoint) -> InterpolatedFunction:
    """f = G/den on W with (f) = i(Pt) + 3 i(Qt) - Pt - 3 Qt, in closed form
    (`_descent_function`).  Pt must be a point (+-sqrt(a), -b) of the
    symmetric form (x^2 - a, b) of 3[Qt - i(Qt)], as `find_Ptilde` returns
    it."""
    _refuse_weierstrass(Qt, Pt)
    threeE, v, ell = _tripled_class(curve, Qt)
    if (-threeE.u[0], threeE.v[0]) != (Pt.x * Pt.x, -Pt.y):
        raise FieldError("Pt is not a point (+-sqrt(a), -b) of the class")
    return _descent_function(curve, Qt, Pt, v, ell)


# -- pushing alpha down to X --------------------------------------------------------


@dataclass
class ParshinCover:
    """z^3 = 3c z + alpha on the genus-2 quotient X: y^2 = x * G(x), with
    alpha = (A(x) + B(x) y)/C(x) = c (f + i*f) and all pipeline witnesses."""
    curve_W: SplitCurve
    X_rhs: Polynomial
    c: Element
    A: Polynomial
    B: Polynomial
    C: Polynomial
    branch_point: CurvePoint     # P on X
    Qt: CurvePoint
    Pt: CurvePoint
    threeE: MumfordClass
    f: InterpolatedFunction


def _even_part(p: Polynomial) -> Polynomial:
    field = p.field
    return Polynomial(field, [p[i] for i in range(0, p.degree + 1, 2)])


def _odd_part(p: Polynomial) -> Polynomial:
    """q with p(x) = even + x q(x^2)."""
    field = p.field
    return Polynomial(field, [p[i] for i in range(1, p.degree + 1, 2)])


def parshin_cover(curve: SplitCurve, qt_x, qt_y) -> ParshinCover:
    """The full non-Weierstrass pipeline from a base point Qt = (qt_x, qt_y)."""
    field = curve.field
    if not curve.is_even_model():
        raise FieldError("the étale-cover model must be even")
    Qt = CurvePoint(field(qt_x), field(qt_y))
    if not curve.on_curve(Qt.x, Qt.y):
        raise FieldError("the base point is not on the curve")
    threeE, v, ell = _tripled_class(curve, Qt)
    Pt, _partner = find_Ptilde(curve, threeE)
    _refuse_weierstrass(Pt, Qt)
    f = _descent_function(curve, Qt, Pt, v, ell)
    A, B, C, sign = _alpha_on_x(curve, f)
    if sign < 0:
        f = InterpolatedFunction(gp=-f.gp, gq=-f.gq, den=f.den, lam=f.lam)
    cover = ParshinCover(curve_W=curve, X_rhs=_x_model(curve), c=f.lam,
                         A=A, B=B, C=C,
                         branch_point=CurvePoint(Pt.x * Pt.x, Pt.x * Pt.y),
                         Qt=Qt, Pt=Pt, threeE=threeE, f=f)
    verify_parshin_cover(cover)
    return cover


def _x_model(curve: SplitCurve) -> Polynomial:
    """X: y^2 = x * G(x) for W: y^2 = F(x) = G(x^2)."""
    return Polynomial.x(curve.field) * _even_part(curve.F)


def _alpha_on_x(curve: SplitCurve, f: InterpolatedFunction):
    """alpha = lam (f + i*f) expressed as (A(x) + B(x) y)/C(x) on X
    (x = u^2, y = u v for W-coordinates (u, v)), and the sign
    `_normalize_presentation` gave it.  With f = (gp + gq v)/den and
    d = den(-u), f + i*f = (p(u) + p(-u) + (q(u) - q(-u)) v)/(den d) for
    p = gp d and q = gq d: the numerator is twice the even part of p plus
    twice the odd part of q times v, and den d is even."""
    d = _compose_neg(f.den)
    two_lam = f.lam + f.lam
    A = _even_part(f.gp * d) * two_lam
    B = _odd_part(f.gq * d) * two_lam      # u q_odd(u^2) v = q_odd(x) y
    C = _even_part(f.den * d)
    g = poly_gcd(poly_gcd(A, B), C)
    if g.degree >= 1:
        A, B, C = A.exact_div(g), B.exact_div(g), C.exact_div(g)
    return _normalize_presentation(curve.field, A, B, C)


def _normalize_presentation(field, A, B, C):
    """Scale (A, B, C) to the canonical presentation: over Q clear to
    coprime integers with positive leading C, over a finite field make C
    monic.  Then one rule on every field fixes the sign of alpha: (A, B) is
    negated when -lc(A) sorts before lc(A) (lc(B) when A = 0), so over Q
    lc(A) > 0.  Returns (A, B, C) and the sign that rule gave alpha."""
    if field.order is None:
        # the integer forms over one denominator, divided by their content
        forms = [poly.q for poly in (A, B, C)]
        d = math.lcm(*[den for _, den in forms])
        ints = _primitive(*[[c * (d // den) for c in nums]
                            for nums, den in forms])
        sign = -1 if ints[2][-1] < 0 else 1
        A, B, C = (_qpoly(field, ([sign * c for c in nums], 1)) for nums in ints)
    else:
        lc = C.leading().inverse()
        A, B, C = A * lc, B * lc, C * lc
    lead = A.leading() if not A.is_zero() else B.leading()
    if (-lead).sort_key() < lead.sort_key():
        return -A, -B, C, -1
    return A, B, C, 1


def verify_parshin_cover(cover: ParshinCover):
    """Certify on W that z^3 = 3c z + alpha is branched over the branch
    point alone, and that alpha = c (f + i*f) in the canonical presentation
    of `_alpha_on_x`.

    With theta^3 = c f, z = theta + c/theta solves the cubic when
    f * i*(f) = c, so the Galois closure of Y -> X is W(theta) and has
    group S_3.  Its quadratic resolvent W -> X is étale, so every inertia
    group lies in A_3: Y -> X is totally ramified exactly below the points
    of W where v(f) is prime to 3 (the characteristic is not 3, which
    `PrimeField` refuses), and has no double ramification.

    The first check is f * i*(f) = c.  For f = kappa (y + v)/den with kappa
    constant it proves v even and v^2 - F = (c/kappa^2) den den(-x), the
    norm of y + v.  So y + v vanishes where den or den(-x) does, on the
    branch y = -v, and

        div f = sum_r e(r) (i(R_r) - R_r) + (ord at inf+ and inf-),
        R_r = (r, v(r)),

    over the roots r of den of multiplicity e(r); the points R_r and
    i(R_s) are pairwise distinct (F is squarefree).  The certificate asks
    that exactly one root, r, have e(r) prime to 3, with e(r) = 1 mod 3 so
    that div f = i(Pt) - Pt mod 3 for Pt = R_r, that the branch point be
    its image (r^2, r v(r)) on X, and that the orders at inf+- be 0 mod 3:
    both are 0 unless deg v = g + 1 with lc(v) = +-1, when y = -+x^(g+1)
    cancels the top of v at one of them and the orders are
    +-(deg den - g - 1).  No pole order on X is expanded, so P may be a
    Weierstrass point of X and may lie over x(Q).

    alpha^2 - 4c^3 = c^2 (f + i*f)^2 - 4c^2 f i*(f) = c^2 (f - i*f)^2 is
    x times a square on X: f - i*f is odd under i(u, v) = (-u, -v), so it
    is u times an element h of k(X), and (f - i*f)^2 = u^2 h^2 = x h^2.
    Last come the pole at the one point at infinity of X and the
    recomputation of alpha from f."""
    W = cover.curve_W
    field = W.field
    A, B, C = cover.A, cover.B, cover.C
    lam = cover.c
    f = cover.f
    # (gp + gq y)(gpi - gqi y) = gp gpi - gq gqi F + (gq gpi - gp gqi) y
    gpi, gqi = _compose_neg(f.gp), _compose_neg(f.gq)
    quo, rem = divmod(f.gp * gpi - f.gq * gqi * W.F, f.den * _compose_neg(f.den))
    if (not (f.gq * gpi - f.gp * gqi).is_zero() or not rem.is_zero()
            or quo != Polynomial.constant(field, lam)):
        raise ArithmeticError("f * i*(f) differs from c")
    if f.gq.degree != 0:
        raise ArithmeticError("f is not kappa (y + v)/den")
    # the certificate: div f = i(Pt) - Pt mod 3 on W, Pt over the branch point
    v = f.gp * f.gq[0].inverse()
    prime_to_3 = [(g, e) for g, e in squarefree_decomposition(f.den) if e % 3]
    top = W.F.degree // 2              # y = +-x^(g+1) (1 + ...) at inf+-
    at_infinity = (f.den.degree - top
                   if v.degree == top and v.leading() ** 2 == field.one else 0)
    if sum(g.degree for g, _ in prime_to_3) != 1 or at_infinity % 3:
        raise ArithmeticError("the cover is not branched over exactly one point")
    (g, e), = prime_to_3
    r = -g[0]
    P = cover.branch_point
    if e % 3 != 1 or (P.x, P.y) != (r * r, r * v.evaluate(r)):
        raise ArithmeticError("div f is not i(Pt) - Pt mod 3 for Pt over the branch point")
    # no pole at the one point at infinity of X (deg X_rhs = top + 1 is
    # odd): there v(x) = -2 and v(y) = -deg X_rhs, so the terms of A + B y
    # have orders of different parity, and
    # v(alpha) = 2 deg C - max(2 deg A, 2 deg B + deg X_rhs)
    tops = [2 * Z.degree + w for Z, w in ((A, 0), (B, top + 1)) if not Z.is_zero()]
    if tops and max(tops) > 2 * C.degree:
        raise ArithmeticError("alpha has a pole at infinity on X")
    if f.lam != lam or _alpha_on_x(W, f) != (A, B, C, 1):
        raise ArithmeticError("alpha is not c (f + i*f)")
    return True
