"""Closed-form bi-twist families of cubic covers of genus at most one,
keyed by ramification signature (triple part, double part):

  R33          (3^2, 0)    y^3 = x and its impure companion over the
                           quadratic constant extension
  R33_PURE3    (3^3, 1)    bi-twists of y^3 = x(x-1) (delegated)
  R322         (3^1 2^2, 0) y^3 = 3y + x and its d-twist
  R3322        (3^2 2^2, 1) y^3 = 3y + 2((2v-1)x^2 - dv)/(x^2 - dv)
  R3322_MU     (3^2 2^2, 1) the mu-form companion family
  R32_CHAR2    (3^1 2^1, 0) y^3 = y + x
  R332_CHAR2   (3^2 2^1, 1) y^3 = y + l/(x^2 + x + a)
  R33_CHAR2_AS (3^2, 0)     y^3 = y + 1/(x^2 + x + a) in characteristic 2

Family parameters are validated against their domains; class enumeration
follows the finite-field counts (one parameter value per bi-isomorphism
class, crossed with the two-element twist group where applicable)."""

from __future__ import annotations

from .algebra import (FieldError, Polynomial, RationalFunction,
                      is_irreducible, smallest_nonsquare)
from .models import CubicModel
from .pure_cubic import bitwist_reps_deg3, smallest_irreducible
from .quadratic import nonsplit_as_constant

R33 = "R33"
R33_PURE3 = "R33_PURE3"
R322 = "R322"
R3322 = "R3322"
R3322_MU = "R3322_MU"
R32_CHAR2 = "R32_CHAR2"
R332_CHAR2 = "R332_CHAR2"
R33_CHAR2_AS = "R33_CHAR2_AS"

ALL_TAGS = (R33, R33_PURE3, R322, R3322, R3322_MU,
            R32_CHAR2, R332_CHAR2, R33_CHAR2_AS)

_CHAR2_TAGS = {R32_CHAR2, R332_CHAR2, R33_CHAR2_AS}


def _require_char(field, tag):
    if tag in _CHAR2_TAGS:
        if field.char == 2:
            return
        raise FieldError(f"{tag} requires characteristic 2")
    if field.char == 2 and tag not in (R33, R33_PURE3):
        raise FieldError(f"{tag} requires characteristic != 2")


def family_member(tag: str, field, **params) -> CubicModel:
    """The model of one family member; raises on out-of-domain parameters."""
    _require_char(field, tag)
    x = Polynomial.x(field)
    if tag == R33:
        if field.char == 2:
            return family_member(R33_CHAR2_AS, field, **params)
        a, b = field(params["a"]), field(params["b"])
        quad = x * x + a * x + b
        if not is_irreducible(quad):
            raise FieldError("x^2 + a x + b must be irreducible")
        num = 2 * x * x + 2 * a * x + Polynomial.constant(field, a * a - 2 * b)
        return CubicModel.impure(field.one, RationalFunction(num, quad))
    if tag == R33_CHAR2_AS:
        a = field(params["a"])
        quad = x * x + x + Polynomial.constant(field, a)
        if not is_irreducible(quad):
            raise FieldError("x^2 + x + a must be irreducible")
        return CubicModel.impure(field.one,
                                 RationalFunction(Polynomial.one(field), quad))
    if tag == R322:
        d = field(params["d"])
        if d.is_zero():
            raise FieldError("d must be nonzero")
        dinv = d.inverse()
        return CubicModel.impure(field.one,
                                 RationalFunction(2 * (2 * x * x - d) * dinv))
    if tag == R3322:
        nu, d = field(params["nu"]), field(params.get("d", 1))
        if nu.is_zero() or nu.is_one() or d.is_zero():
            raise FieldError("need nu outside {0, 1} and d nonzero")
        num = 2 * ((2 * nu - 1) * x * x - d * nu)
        den = x * x - Polynomial.constant(field, d * nu)
        return CubicModel.impure(field.one, RationalFunction(num, den))
    if tag == R3322_MU:
        mu = field(params["mu"])
        if mu == field(2) or mu == field(-2):
            raise FieldError("need mu outside {2, -2}")
        num = 2 * (x * x + (mu + 4) * x + Polynomial.one(field))
        den = x * x - mu * x + Polynomial.one(field)
        return CubicModel.impure(field.one, RationalFunction(num, den))
    if tag == R32_CHAR2:
        return CubicModel.impure(field.one, RationalFunction(x))
    if tag == R332_CHAR2:
        lam = field(params["lam"])
        a = field(params.get("a", 0))
        if lam.is_zero() or lam.is_one():
            raise FieldError("need lambda outside {0, 1}")
        den = x * x + x + Polynomial.constant(field, a)
        return CubicModel.impure(field.one,
                                 RationalFunction(Polynomial.constant(field, lam), den))
    raise FieldError(f"unknown family tag {tag!r}")


def class_count(tag: str, field) -> int:
    """Number of bi-isomorphism classes over F_q."""
    _require_char(field, tag)
    q = field.order
    if q is None:
        raise FieldError("class counts are for finite fields")
    if tag in (R33, R33_CHAR2_AS):
        return 2
    if tag == R33_PURE3:
        return 9 if q % 3 == 1 else 3
    if tag == R322:
        return 2
    if tag in (R3322, R3322_MU, R332_CHAR2):
        return 2 * (q - 2)
    if tag == R32_CHAR2:
        return 1
    raise FieldError(f"unknown family tag {tag!r}")


def enumerate_classes(tag: str, field) -> list:
    """One model per bi-isomorphism class over F_q."""
    _require_char(field, tag)
    x = Polynomial.x(field)
    if tag == R33:
        trivial = CubicModel.pure(RationalFunction(x))
        if field.char == 2:
            a0 = nonsplit_as_constant(field)
            return [trivial, family_member(R33_CHAR2_AS, field, a=a0.val)]
        b, a, _ = smallest_irreducible(field, 2).coeffs
        return [trivial, family_member(R33, field, a=a.val, b=b.val)]
    if tag == R33_CHAR2_AS:
        return enumerate_classes(R33, field)
    if tag == R33_PURE3:
        return bitwist_reps_deg3(field)
    if tag == R322:
        eps = smallest_nonsquare(field)
        return [CubicModel.impure(field.one, RationalFunction(x)),
                family_member(R322, field, d=eps.val)]
    if tag == R3322:
        eps = smallest_nonsquare(field)
        out = []
        for nu in field.elements():
            if nu.is_zero() or nu.is_one():
                continue
            for d in (field.one, eps):
                out.append(family_member(R3322, field, nu=nu.val, d=d.val))
        return out
    if tag == R32_CHAR2:
        return [family_member(R32_CHAR2, field)]
    if tag == R332_CHAR2:
        a0 = nonsplit_as_constant(field)
        out = []
        for lam in field.elements():
            if lam.is_zero() or lam.is_one():
                continue
            for a in (field.zero, a0):
                out.append(family_member(R332_CHAR2, field,
                                         lam=lam.val, a=a.val))
        return out
    raise FieldError(f"no class enumeration for {tag!r}")


def expected_signature(tag: str):
    """(total degree, partial degree, genus) of every member of the family."""
    return {
        R33: (2, 0, 0),
        R33_CHAR2_AS: (2, 0, 0),
        R33_PURE3: (3, 0, 1),
        R322: (1, 2, 0),
        R3322: (2, 2, 1),
        R3322_MU: (2, 2, 1),
        R32_CHAR2: (1, 1, 0),
        R332_CHAR2: (2, 1, 1),
    }[tag]
