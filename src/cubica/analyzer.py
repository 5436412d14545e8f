"""Read total/partial ramification, genus, closure and resolvent off a cubic
model.

Pure y^3 = beta: triple ramification exactly where gcd(v_p(beta), 3) = 1
(infinity included via the degree), no double points.  Impure
y^3 = 3c y + alpha: triple ramification at poles of alpha of order not
divisible by 3; double ramification at odd-multiplicity zeros of
alpha^2 - 4c^3 (characteristic != 2) or at the branch locus of the
Artin-Schreier closure class c^3/alpha^2 (characteristic 2).
"""

from __future__ import annotations

from .algebra import FieldError, Polynomial, RationalFunction
from .algebra.poly import _factor_multiplicities
from .function_field import Place, genus_of_cubic
from .models import CubicModel, RamificationReport, sorted_places
from .quadratic import ASClass


def _place_factorization(poly: Polynomial, hints=None, used=None):
    """[(Place, mult)] for a polynomial, or for the multiplicities that the
    predicate `used` accepts; over Q the caller-provided hints (monic
    irreducible polynomials) must cover every factor.  Over a finite field
    only the squarefree pieces of the used multiplicities are factored."""
    if poly.is_constant():
        return []
    if poly.field.order is not None:
        return [(Place.finite(p, check=False), m)
                for p, m in _factor_multiplicities(poly, used)]
    if hints is None:
        raise FieldError("factorization over Q needs caller-supplied place hints")
    rem = poly.monic()
    out = []
    for h in hints:
        m = 0
        while True:
            q, r = divmod(rem, h)
            if not r.is_zero():
                break
            rem = q
            m += 1
        if m and (used is None or used(m)):
            out.append((Place.finite(h, check=False), m))
    if rem.degree > 0:
        raise FieldError("place hints do not cover all factors")
    return out


def _prime_to_3(m):
    return m % 3 != 0


def _odd(m):
    return m % 2 == 1


def analyze(model: CubicModel, hints=None) -> RamificationReport:
    """Full ramification report of a cubic model; raises on degenerate input."""
    field = model.base
    char = field.char
    meta = {}
    if model.kind == "pure":
        beta = model.beta
        total = []
        for place, _ in _place_factorization(beta.num, hints, _prime_to_3):
            total.append(place)
        for place, _ in _place_factorization(beta.den, hints, _prime_to_3):
            if place not in total:
                total.append(place)
        if beta.degree_at_infinity() % 3 != 0:
            total.append(Place.infinity(field))
        if not total:
            raise FieldError("degenerate pure model: beta is a cube times a constant")
        partial = []
    else:
        alpha, c = model.alpha, model.c
        if alpha.is_zero():
            raise FieldError("degenerate model: alpha = 0")
        c3 = c ** 3
        total = [place for place, _ in
                 _place_factorization(alpha.den, hints, _prime_to_3)]
        v_inf = alpha.degree_at_infinity()
        if v_inf < 0 and (-v_inf) % 3 != 0:
            total.append(Place.infinity(field))
        if char == 2:
            closure = ASClass.of(RationalFunction.from_const(field, c3) / (alpha * alpha))
            partial = closure.ramified_places()
            meta["wild_different_exponent"] = 2
        else:
            # alpha = n/d in normal form, d monic: n^2 - 4c^3 d^2 is prime to
            # d, so it is the numerator of alpha^2 - 4c^3 over the monic d^2
            n, d = alpha.num, alpha.den
            disc = n * n - d * d * (field(4) * c3)
            if disc.is_zero():
                raise FieldError("degenerate model: alpha^2 = 4c^3")
            partial = [place for place, _ in
                       _place_factorization(disc, hints, _odd)]
            disc_inf = 2 * d.degree - disc.degree
            if disc_inf % 2 == 1 and disc_inf > 0:
                partial.append(Place.infinity(field))
        if alpha.is_constant():
            raise FieldError("degenerate model: alpha is constant")
    total = sorted_places(total)
    partial = sorted_places(partial)
    genus = genus_of_cubic(total, partial, char)
    return RamificationReport(total=total, partial=partial, genus=genus, metadata=meta)


def verify_against(model: CubicModel, expected_total, expected_partial,
                   hints=None):
    """(ok, diff): set comparison of the computed ramification against the
    expected one, with a structured diff on mismatch."""
    report = analyze(model, hints=hints)
    got_t, got_s = report.total_set(), report.partial_set()
    want_t, want_s = set(expected_total), set(expected_partial)
    diff = {}
    if got_t != want_t:
        diff["total_missing"] = sorted_places(want_t - got_t)
        diff["total_extra"] = sorted_places(got_t - want_t)
    if got_s != want_s:
        diff["partial_missing"] = sorted_places(want_s - got_s)
        diff["partial_extra"] = sorted_places(got_s - want_s)
    return (not diff), diff


def pole_orders_of_alpha(model: CubicModel, hints=None):
    """{place: -v_p(alpha)} over the poles of alpha (impure models)."""
    if model.kind != "impure":
        raise FieldError("pole orders are reported for impure models")
    out = {}
    for place, m in _place_factorization(model.alpha.den, hints):
        out[place] = m
    v_inf = model.alpha.degree_at_infinity()
    if v_inf < 0:
        out[Place.infinity(model.base)] = -v_inf
    return out
