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

from .algebra import FieldError, RationalFunction
from .function_field import Place, genus_of_cubic, place_factors, pole_divisor
from .models import CubicModel, RamificationReport, sorted_places
from .quadratic import ASClass


def _prime_to_3(m):
    return m % 3 != 0


def _odd(m):
    return m % 2 == 1


def analyze(model: CubicModel) -> RamificationReport:
    """Full ramification report of a cubic model; raises on degenerate input.

    The places come from `place_factors` with the model's hints (a descent
    model carries the places of T and of the branch locus).  Irreducible
    hints never change the report: a hint that divides is a place with its
    full multiplicity, and over a finite field what no hint divides is
    factored."""
    hints = model.hints
    field = model.base
    char = field.char
    meta = {}
    if model.kind == "pure":
        beta = model.beta
        # num and den are coprime, so no place comes twice
        total = [place for poly in (beta.num, beta.den)
                 for place, _ in place_factors(poly, hints, _prime_to_3)]
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
        total = list(pole_divisor(alpha, hints, _prime_to_3))
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
            partial = [place for place, _ in place_factors(disc, hints, _odd)]
            disc_inf = 2 * d.degree - disc.degree
            if disc_inf % 2 == 1 and disc_inf > 0:
                partial.append(Place.infinity(field))
        if alpha.is_constant():
            raise FieldError("degenerate model: alpha is constant")
    total = sorted_places(total)
    partial = sorted_places(partial)
    genus = genus_of_cubic(total, partial, char)
    return RamificationReport(total=total, partial=partial, genus=genus, metadata=meta)


def verify_against(model: CubicModel, expected_total, expected_partial):
    """(ok, diff): set comparison of the computed ramification against the
    expected one, with a structured diff on mismatch."""
    report = analyze(model)
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


def pole_orders_of_alpha(model: CubicModel):
    """{place: -v_p(alpha)} over the poles of alpha (impure models), read
    off alpha.den with the model's hints; exact for any irreducible hints,
    as in `analyze`."""
    if model.kind != "impure":
        raise FieldError("pole orders are reported for impure models")
    return pole_divisor(model.alpha, model.hints)
