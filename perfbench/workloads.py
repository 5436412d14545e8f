"""The four workloads, driven through the public API of `cubica`.

A workload turns op `i` of a seed into library objects (`make`, untimed),
runs the op (`run`, timed), checks its output (`check`, untimed), encodes
the output for the run digest (`encode`, untimed) and, in the traced run
only, replays probes into `cubica.algebra` and the Parshin stages on the
same inputs (`probe`).  Every call into a library module goes through
`tr.call(name, fn, *args)`, which is a plain call when tracing is off.

A workload whose natural inputs make the library raise untyped errors today
keeps those inputs out of its timed stream and runs them, untimed, as its
census (`census`, CENSUS_OPS ops per run), so that the errors are counted
and named in every run without making timed ops fail.

One field object is built per prime per workload and shared by every op,
as the CLI and the acceptance suite do.  This is required, not a choice:
if a closure and a place come from two `PrimeField(p)` instances,
`construct` raises "cannot coerce element into prime field" (a known
defect: values hash by `id(field)` and some coercions compare identity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from cubica import jsonio
from cubica.acceptance import closure_menu
from cubica.algebra import (Polynomial, PrimeField, QQ, ResidueField,
                            is_irreducible, poly_factor)
from cubica.analyzer import analyze, pole_orders_of_alpha
from cubica.descent import construct, exists_descent, make_problem
from cubica.function_field import Place
from cubica.hyper import (SplitCurve, canonicalize_prym, classes_equal,
                          mumford_add, mumford_scalar, point_minus_i_point)
from cubica.parshin import (CurvePoint, find_Ptilde, interpolate_f,
                            parshin_cover, verify_parshin_cover)
from cubica.quadratic import purely_cubic_closure

import inputs


class SetupError(RuntimeError):
    """The library disagrees with the generator before any op runs."""


def _keys(places):
    return sorted(p.sort_key() for p in places)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- descent -----------------------------------------------------------------------


@dataclass
class DescentCase:
    closure: object
    places: list
    signs: tuple


@dataclass
class DescentOutput:
    exists: bool
    result: object = None
    report: object = None
    text: str = ""


class Descent:
    """exists_descent -> make_problem -> construct -> analyze -> jsonio."""

    CENSUS_OPS = 0  # the timed stream is the whole workload

    def __init__(self, make_input, primes):
        self.make_input = make_input
        self.fields = {p: PrimeField(p) for p in primes}
        self.menus = {p: closure_menu(f) for p, f in self.fields.items()}
        for p, menu in self.menus.items():
            got = [[c.val for c in m.f.coeffs] for m in menu]
            if got != inputs.closure_menu_polys(p):
                raise SetupError(f"closure_menu over F_{p} differs from the "
                                 f"generator's: {got}")

    def make(self, seed, index):
        p, idx, places, signs = self.make_input(seed, index)
        field = self.fields[p]
        T = [Place.infinity(field) if pl == inputs.INF
             else Place.finite(Polynomial(field, list(pl)), check=False)
             for pl in places]
        return DescentCase(self.menus[p][idx], T, signs)

    def run(self, case, tr):
        closure, T = case.closure, case.places
        if not tr.call("descent.exists_descent", exists_descent, closure, T):
            return DescentOutput(exists=False)
        problem = tr.call("descent.make_problem", make_problem, closure, T,
                          case.signs)
        res = tr.call("descent.construct", construct, problem)
        rep = tr.call("analyzer.analyze", analyze, res.model)
        text = tr.call("jsonio.encode", _encode_descent, res, rep)
        return DescentOutput(True, res, rep, text)

    def check(self, case, out, tr):
        if not out.exists:
            return ["exists_descent is False on a T of split places"]
        problems = []
        T = case.places
        rep, model = out.report, out.result.model
        if _keys(rep.total) != _keys(T):
            problems.append("total ramification differs from T")
        if _keys(rep.partial) != _keys(case.closure.branch_places()):
            problems.append("partial ramification differs from the branch locus")
        if purely_cubic_closure(model) != case.closure.class_data():
            problems.append("purely cubic closure round trip failed")
        orders = pole_orders_of_alpha(model)
        if sorted((p.sort_key(), m) for p, m in orders.items()) != \
                [(k, 1) for k in _keys(T)]:
            problems.append("alpha does not have a simple pole at each place of T")
        return problems

    def encode(self, out):
        return out.text

    def probe(self, case, out, tr):
        """Replays into `cubica.algebra` on this op's inputs: the residue
        square root canonical_rho takes at each finite place of T, the
        irreducibility test of each place polynomial, and the factorizations
        of alpha.den and of the numerator of alpha^2 - 4c^3."""
        f = case.closure.f
        for place in case.places:
            if place.infinite:
                continue
            R = ResidueField(place.poly, check=False)
            tr.call("algebra.residue.sqrt", R.sqrt, R(f))
            tr.call("algebra.poly.is_irreducible", is_irreducible, place.poly)
        if out is None or not out.exists:
            return
        model = out.result.model
        disc = model.alpha * model.alpha - model.c ** 3 * 4
        for poly in (model.alpha.den, disc.num):
            if not poly.is_constant():
                tr.call("algebra.poly.poly_factor", poly_factor, poly)


def _encode_descent(res, rep) -> str:
    return _dumps({"model": jsonio.encode_cubic_model(res.model),
                   "report": jsonio.encode_report(rep),
                   "case": res.case,
                   "c": jsonio.encode_element(res.c)})


# -- genus 2 ------------------------------------------------------------------------


@dataclass
class CoverCase:
    F: Polynomial
    x0: object
    y0: object


@dataclass
class MumfordCase:
    F: Polynomial
    x0: object
    y0: object
    n: int


@dataclass
class MumfordOutput:
    curve: SplitCurve
    E: object
    D: object


def _run_cover(case, tr):
    W = tr.call("hyper.SplitCurve", SplitCurve, case.F)
    return tr.call("parshin.parshin_cover", parshin_cover, W, case.x0, case.y0)


def _check_cover(cover, tr):
    tr.call("parshin.verify_parshin_cover", verify_parshin_cover, cover)
    return []


def _encode_cover(cover) -> str:
    enc = jsonio.encode_element
    return _dumps({"c": enc(cover.c),
                   "A": jsonio.encode_poly(cover.A),
                   "B": jsonio.encode_poly(cover.B),
                   "C": jsonio.encode_poly(cover.C),
                   "P": [enc(cover.branch_point.x), enc(cover.branch_point.y)]})


def _probe_cover(case, tr):
    """The stages parshin_cover runs, replayed one by one on the same input;
    the replay stops where the op stopped."""
    W = SplitCurve(case.F)
    E = tr.call("hyper.point_minus_i_point", point_minus_i_point, W,
                case.x0, case.y0)
    D3 = tr.call("hyper.mumford_scalar", mumford_scalar, W, E, 3)
    threeE = tr.call("hyper.canonicalize_prym", canonicalize_prym, W, D3)
    Pt, _ = tr.call("parshin.find_Ptilde", find_Ptilde, W, threeE)
    tr.call("parshin.interpolate_f", interpolate_f, W,
            CurvePoint(case.x0, case.y0), Pt)


class Genus2Fp:
    """SplitCurve(F) -> parshin_cover(W, x0, y0) over primes near 10^9; the
    census runs the same op over F_13, F_101 and F_1009."""

    CENSUS_OPS = 90

    def __init__(self):
        self.fields = {p: PrimeField(p) for p in
                       inputs.GENUS2_FP_PRIMES + inputs.GENUS2_FP_CENSUS_PRIMES}

    def _case(self, p, F, point):
        field = self.fields[p]
        return CoverCase(Polynomial(field, list(F)), field(point[0]),
                         field(point[1]))

    def make(self, seed, index):
        return self._case(*inputs.genus2_fp_input(seed, index))

    def census(self, seed, index):
        return self._case(*inputs.genus2_fp_census_input(seed, index))

    def run(self, case, tr):
        return _run_cover(case, tr)

    def check(self, case, cover, tr):
        return _check_cover(cover, tr)

    def encode(self, cover):
        return _encode_cover(cover)

    def probe(self, case, out, tr):
        _probe_cover(case, tr)


class Genus2Q:
    """Mumford checks over Q; the census runs parshin_cover attempts over Q."""

    CENSUS_OPS = 35

    def make(self, seed, index):
        F, (x0, y0), n = inputs.genus2_q_input(seed, index)
        return MumfordCase(Polynomial(QQ, list(F)), QQ(x0), QQ(y0), n)

    def census(self, seed, index):
        F, (x0, y0) = inputs.genus2_q_census_input(seed, index)
        return CoverCase(Polynomial(QQ, list(F)), QQ(x0), QQ(y0))

    def run(self, case, tr):
        if isinstance(case, CoverCase):
            return _run_cover(case, tr)
        W = tr.call("hyper.SplitCurve", SplitCurve, case.F)
        E = tr.call("hyper.point_minus_i_point", point_minus_i_point, W,
                    case.x0, case.y0)
        D = tr.call("hyper.mumford_scalar", mumford_scalar, W, E, case.n)
        return MumfordOutput(W, E, D)

    def check(self, case, out, tr):
        if isinstance(case, CoverCase):
            return _check_cover(out, tr)
        W, E = out.curve, out.E
        want = mumford_add(W, out.D, E)
        got = mumford_scalar(W, E, case.n + 1)
        if not tr.call("hyper.classes_equal", classes_equal, W, got, want):
            return [f"{case.n + 1}E is not nE + E"]
        return []

    def encode(self, out):
        if not isinstance(out, MumfordOutput):
            return _encode_cover(out)
        D = out.D
        return _dumps({"u": jsonio.encode_poly(D.u),
                       "v": jsonio.encode_poly(D.v),
                       "n": [D.n_plus, D.n_minus]})

    def probe(self, case, out, tr):
        pass


WORKLOADS = {
    "descent_small_q": lambda: Descent(inputs.descent_small_input,
                                       inputs.DESCENT_SMALL_PRIMES),
    "descent_large_q": lambda: Descent(inputs.descent_large_input,
                                       inputs.DESCENT_LARGE_PRIMES),
    "genus2_fp": Genus2Fp,
    "genus2_q": Genus2Q,
}
