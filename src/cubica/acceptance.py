"""The acceptance suite: one callable per criterion, each returning a
result record, shared by `cubica selftest` and the pytest acceptance module.

Every expected value is exact; the timing budgets are part of the criteria.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from itertools import product

from .algebra import (FieldError, Polynomial, PrimeField, QQ,
                      RationalFunction, is_irreducible, is_square, sqrt)
from .analyzer import analyze, pole_orders_of_alpha
from .catalog import (R322, R3322, R33, R332_CHAR2, R32_CHAR2, R33_PURE3,
                      class_count, enumerate_classes, expected_signature)
from .descent import (construct, enumerate_descents, make_problem,
                      serre_count, twists_descent)
from .function_field import Place, divisor_of
from .pure_cubic import (count_pure, recursion_iterate, recursion_pair,
                         smallest_irreducible)
from .quadratic import (QuadraticModel, canonical_quadratic_field,
                        purely_cubic_closure)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""
    failures: list = dfield(default_factory=list)


def _run(name, budget, fn):
    t0 = time.perf_counter()
    failures = []
    detail = ""
    try:
        detail = fn(failures) or ""
    except Exception as exc:  # a crashed criterion is a failed criterion
        failures.append(f"exception: {exc!r}")
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        failures.append(f"time budget exceeded: {dt:.2f}s > {budget}s")
    return CriterionResult(name=name, passed=not failures, seconds=dt,
                           detail=detail, failures=failures)


# -- criterion 1: pure-cubic counting ------------------------------------------


def _brute_force_count(s, t):
    n = 0
    for eps in product((1, -1), repeat=t):
        if sum(eps[s:]) % 3 == 0:
            n += 1
    return n // 2


def criterion_pure_count():
    def body(failures):
        checked = 0
        for t in range(1, 13):
            for s in range(0, t + 1):
                brute = _brute_force_count(s, t)
                formula = count_pure(s, t)
                checked += 1
                if brute != formula:
                    failures.append(f"(s={s}, t={t}): brute {brute} != {formula}")
        return f"{checked} (s, t) pairs"
    return _run("pure-cubic count formula (s <= t <= 12)", 1.0, body)


def criterion_recursion():
    def body(failures):
        for k in range(1, 31):
            if recursion_pair(k) != recursion_iterate(k):
                failures.append(f"k={k}: closed form != iteration")
            e, f = recursion_pair(k)
            if e + f != 2 ** k:
                failures.append(f"k={k}: partition identity broken")
        return "k <= 30"
    return _run("sign-vector recursion closed form (k <= 30)", None, body)


# -- criterion 3: descent round trips -----------------------------------------------


def closure_menu(field):
    """A spread of genus-zero quadratic models over a finite field."""
    from .algebra import smallest_nonsquare
    x = Polynomial.x(field)
    eps = smallest_nonsquare(field)
    irr = smallest_irreducible(field, 2)
    return [
        QuadraticModel.constant(field, eps),
        QuadraticModel.kummer(x),
        QuadraticModel.kummer(eps * (x - 1)),
        QuadraticModel.kummer(x * (x - 1)),
        QuadraticModel.kummer(irr),
        QuadraticModel.kummer(eps * irr),
    ]


def random_places(model, field, rng, count, degrees=(1, 2), infinity=False):
    """count distinct places of k(x), k a finite field, that split in the
    quadratic model.  With `infinity`, infinity comes first, half the time,
    when it splits.  Each further draw takes a degree from `degrees`, then a
    random monic polynomial of that degree, kept when it is irreducible and
    its place splits and is new.  No place is listed beforehand, so the cost
    does not grow with q^max(degrees).  FieldError once every monic
    polynomial of those degrees has been drawn and fewer than count split."""
    elems = list(field.elements())
    inf = Place.infinity(field)
    split_inf = infinity and model.split_kind(inf) == "split"
    places = [inf] if split_inf and rng.random() < 0.5 else []
    drawn = set()
    total = sum(len(elems) ** d for d in set(degrees))
    while len(places) < count:
        if len(drawn) == total:
            raise FieldError(f"fewer than {count} places of degree in "
                             f"{degrees} split in {model!r}")
        d = rng.choice(degrees)
        low = tuple(rng.randrange(len(elems)) for _ in range(d))
        drawn.add(low)
        poly = Polynomial(field, [elems[i] for i in low] + [field.one])
        if not is_irreducible(poly):
            continue
        place = Place.finite(poly, check=False)
        if place not in places and model.split_kind(place) == "split":
            places.append(place)
    return places


def round_trip_failures(closure, T, res) -> list:
    """What is wrong with the descent res of the quadratic closure with
    total ramification T: the model must be totally ramified exactly at T
    and partially exactly at the branch locus, with purely cubic closure
    the closure; alpha has a simple pole at each place of T and nowhere
    else; f sigma(f) = c; the c = 1 unit form exists exactly in case_2b,
    ramified alike, with one double pole and the other poles simple; over
    a constant closure every twist is ramified alike."""
    out = []
    T, branch = set(T), set(closure.branch_places())

    def ramification(model, what):
        rep = analyze(model)
        if rep.total_set() != T:
            out.append(f"{what}: total ramification {rep.total_set()} is not T")
        if rep.partial_set() != branch:
            out.append(f"{what}: partial ramification is not the branch locus")

    ramification(res.model, "model")
    if purely_cubic_closure(res.model) != closure.class_data():
        out.append("closure round trip failed")
    orders = pole_orders_of_alpha(res.model)
    if set(orders) != T or any(v != 1 for v in orders.values()):
        out.append(f"pole bound broken: {orders}")
    A, B = res.f_pair
    d = (closure.f.constant_coeff() if closure.is_constant_extension()
         else RationalFunction(closure.f))
    norm = A * A - B * B * d
    if not (norm.is_constant() and norm.constant_value() == res.c):
        out.append("f sigma(f) is not the constant c")
    if (res.unit_form is not None) != (res.case == "case_2b"):
        out.append(f"case {res.case} with unit form {res.unit_form!r}")
    elif res.unit_form is not None:
        o1 = pole_orders_of_alpha(res.unit_form)
        if set(o1) != T or sorted(o1.values()) != [1] * (len(T) - 1) + [2]:
            out.append(f"unit form lacks the single double pole: {o1}")
        ramification(res.unit_form, "unit form")
    if closure.is_constant_extension():
        for i, twist in enumerate(twists_descent(res)):
            ramification(twist, f"twist {i}")
    return out


def criterion_descent_round_trip():
    def body(failures):
        done = 0
        cases_2b = 0
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            rng = random.Random(repr((2024, p)))
            menu = closure_menu(field)
            while done < 50 * ((5, 7, 11, 13).index(p) + 1):
                model = menu[rng.randrange(len(menu))]
                T = random_places(model, field, rng, rng.randrange(1, 5),
                                  infinity=True)
                signs = [rng.choice((1, -1)) for _ in T]
                res = construct(make_problem(model, T, signs))
                done += 1
                cases_2b += res.case == "case_2b"
                failures.extend(f"F{p}: {model!r}, T = {T}: {m}"
                                for m in round_trip_failures(model, T, res))
        return f"{done} problems, {cases_2b} in case_2b"
    return _run("descent round trip (200 random problems over F5..F13)", 30.0, body)


def criterion_descent_counts():
    def body(failures):
        field = PrimeField(5)
        rng = random.Random("criterion4")
        x = Polynomial.x(field)
        closure = QuadraticModel.kummer(x)
        pool = random_places(closure, field, rng, 5)
        for t in range(1, 6):
            res = enumerate_descents(closure, pool[:t])
            if len(res) != 2 ** (t - 1):
                failures.append(f"t={t}: {len(res)} descents != 2^(t-1)")
            if serre_count(2, t) != 2 ** (t - 1):
                failures.append(f"t={t}: serre_count(2, t) mismatch")
        bad = QuadraticModel.constant(field, field(2))
        if enumerate_descents(bad, [Place.finite(x, check=False)]):
            failures.append("non-split T produced descents")
        for t in range(1, 9):
            if serre_count(0, t) != count_pure(0, t):
                failures.append(f"serre_count(0, {t}) != count_pure")
        return "t <= 5 enumerations, t <= 8 cross counts"
    return _run("descent counts: 2^(t-1) and character-sum cross check", None, body)


# -- criterion 5: the family table ----------------------------------------------------


def criterion_family_table():
    def body(failures):
        F2 = PrimeField(2)
        F4 = canonical_quadratic_field(F2)
        plan = []
        for q in (5, 7):
            field = PrimeField(q)
            plan += [(field, R33, 2), (field, R33_PURE3, 9 if q % 3 == 1 else 3),
                     (field, R322, 2), (field, R3322, 2 * (q - 2))]
        for field in (F2, F4):
            q = field.order
            plan += [(field, R32_CHAR2, 1), (field, R332_CHAR2, 2 * (q - 2)),
                     (field, R33, 2), (field, R33_PURE3, 9 if q % 3 == 1 else 3)]
        for field, tag, expected in plan:
            if class_count(tag, field) != expected:
                failures.append(f"{tag} over order {field.order}: count formula")
            models = enumerate_classes(tag, field)
            if len(models) != expected:
                failures.append(f"{tag} over order {field.order}: "
                                f"{len(models)} members != {expected}")
            want_t, want_s, want_g = expected_signature(tag)
            for m in models:
                rep = analyze(m)
                if (rep.total_degree(), rep.partial_degree(), rep.genus) != \
                        (want_t, want_s, want_g):
                    failures.append(f"{tag}: member {m!r} has {rep.signature()}")
        return f"{len(plan)} table rows"
    return _run("family table: class counts and per-member ramification", None, body)


# -- criterion 6: the explicit bi-twist cross-check ------------------------------------


def criterion_constant_bitwist_crosscheck():
    def body(failures):
        field = PrimeField(5)
        x = Polynomial.x(field)
        closure = QuadraticModel.constant(field, field(2))
        T = [Place.finite(x * x + 2, check=False)]
        res = construct(make_problem(closure, T))
        expected = RationalFunction(2 * x * x + 1, x * x + 2)
        if not (res.model.alpha == expected or res.model.alpha == -expected):
            failures.append(f"alpha = {res.model.alpha!r}")
        if not res.c.is_one():
            failures.append("c != 1")
        return "K(sqrt 2)/F5, T = {x^2+2}"
    return _run("descent matches the explicit constant-closure bi-twist", None, body)


# -- criterion 7: the Parshin golden example ---------------------------------------------


def criterion_parshin_golden():
    def body(failures):
        from .hyper import SplitCurve, canonicalize_prym, mumford_scalar, \
            point_minus_i_point
        from .parshin import find_Ptilde, parshin_cover
        x = Polynomial.x(QQ)
        W = SplitCurve(x ** 8 + 4 * x ** 6 + 4 * x ** 4 - 5)
        E = point_minus_i_point(W, 1, 2)
        threeE = canonicalize_prym(W, mumford_scalar(W, E, 3))
        if threeE.u != x ** 2 - Fraction(49, 9) or \
                threeE.v != Polynomial.constant(QQ, Fraction(3278, 81)):
            failures.append(f"3E = ({threeE.u!r}, {threeE.v!r})")
        Pt, partner = find_Ptilde(W, threeE)
        allowed = {(Fraction(7, 3), Fraction(-3278, 81)),
                   (Fraction(-7, 3), Fraction(3278, 81))}
        if (Pt.x.val, Pt.y.val) not in allowed:
            failures.append(f"Ptilde = {(Pt.x, Pt.y)}")
        cover = parshin_cover(W, 1, 2)
        if cover.c != QQ(5):
            failures.append(f"lambda = {cover.c!r}")
        if (cover.branch_point.x.val, cover.branch_point.y.val) != \
                (Fraction(49, 9), Fraction(-22946, 243)):
            failures.append(f"P = {cover.branch_point}")
        want_A = 210 * x ** 4 + 1320 * x ** 3 - 6860 * x ** 2 + 2680 * x + 1050
        want_B = -320 * x - 480
        want_C = 9 * x ** 4 - 76 * x ** 3 + 174 * x ** 2 - 156 * x + 49
        if (cover.A, cover.B, cover.C) != (want_A, want_B, want_C):
            failures.append("alpha does not match the display verbatim")
        return "tripling, branch point, lambda = 5, verbatim alpha"
    return _run("Parshin golden example over Q", 10.0, body)


# -- criterion 8: symbolic identities ----------------------------------------------------


def criterion_symbolic_identities():
    def body(failures):
        from .algebra import FunctionField
        from .parshin import genus1_parshin, verify_weierstrass_identity_generic
        k_lam = FunctionField(QQ, "lam")
        try:
            genus1_parshin(k_lam.gen)
        except Exception as exc:
            failures.append(f"genus-1 map identities over Q(lambda): {exc}")
        try:
            verify_weierstrass_identity_generic()
        except Exception as exc:
            failures.append(f"Weierstrass substitution identity over Q(c): {exc}")
        return "Q(lambda) and Q(c) identities"
    return _run("symbolic identities for both Parshin families", None, body)


# -- criterion 9: property sweep -------------------------------------------------------


def criterion_property_suite():
    def body(failures):
        rng = random.Random("criterion9")
        field = PrimeField(5)
        # divisor additivity and degree-0 principal divisors
        for _ in range(20):
            f = RationalFunction(
                Polynomial(field, [rng.randrange(5) for _ in range(rng.randrange(1, 5))] + [1]),
                Polynomial(field, [rng.randrange(5) for _ in range(rng.randrange(1, 4))] + [1]))
            g = RationalFunction(
                Polynomial(field, [rng.randrange(5) for _ in range(rng.randrange(1, 5))] + [1]),
                Polynomial(field, [rng.randrange(5) for _ in range(rng.randrange(1, 4))] + [1]))
            if f.is_zero() or g.is_zero():
                continue
            if divisor_of(f * g) != divisor_of(f) + divisor_of(g):
                failures.append("divisor additivity failed")
            if divisor_of(f).degree != 0:
                failures.append("principal divisor of nonzero degree")
        # Euler criterion against exhaustive squaring for every q <= 49
        fields = [PrimeField(p) for p in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                          37, 41, 43, 47)]
        fields += [canonical_quadratic_field(PrimeField(p)) for p in (2, 5, 7)]
        for fld in fields:
            squares = {(e * e)._hash_val() for e in fld.elements()}
            for e in fld.elements():
                if is_square(e) != (e._hash_val() in squares):
                    failures.append(f"Euler criterion wrong in order {fld.order}")
                    break
                if is_square(e) and not e.is_zero():
                    r = sqrt(e)
                    if r * r != e:
                        failures.append(f"sqrt wrong in order {fld.order}")
                        break
        # round trips, f sigma(f) = c among them, in a fresh batch of descents
        for p in (5, 7):
            fld = PrimeField(p)
            rng2 = random.Random(f"c9-{p}")
            for model in closure_menu(fld) * 2:
                T = random_places(model, fld, rng2, 2, infinity=True)
                res = construct(make_problem(model, T))
                failures.extend(f"F{p}: {model!r}, T = {T}: {m}"
                                for m in round_trip_failures(model, T, res))
        # Mumford bilinearity samples mod 11 and 13
        from .hyper import (SplitCurve, classes_equal, mumford_add,
                            mumford_scalar, point_minus_i_point)
        for p in (11, 13):
            fld = PrimeField(p)
            x = Polynomial.x(fld)
            W = SplitCurve(x ** 8 + 4 * x ** 6 + 4 * x ** 4 - 5)
            rng3 = random.Random(f"c9m-{p}")
            D = None
            while D is None:
                x0 = fld(rng3.randrange(1, p))
                val = W.F.evaluate(x0)
                if not val.is_zero() and is_square(val):
                    D = point_minus_i_point(W, x0, sqrt(val))
            powers = {n: mumford_scalar(W, D, n) for n in range(9)}
            for m in (1, 2, 3):
                for n in (2, 3, 5):
                    if not classes_equal(W, powers[m + n],
                                         mumford_add(W, powers[m], powers[n])):
                        failures.append(f"bilinearity failed mod {p} at ({m},{n})")
        return "divisors, squares, descents, Mumford samples"
    return _run("property suite", None, body)


ALL_CRITERIA = (
    criterion_pure_count,
    criterion_recursion,
    criterion_descent_round_trip,
    criterion_descent_counts,
    criterion_family_table,
    criterion_constant_bitwist_crosscheck,
    criterion_parshin_golden,
    criterion_symbolic_identities,
    criterion_property_suite,
)


def run_all():
    return [fn() for fn in ALL_CRITERIA]


def format_table(results) -> str:
    lines = []
    width = max(len(r.name) for r in results) + 2
    for i, r in enumerate(results, 1):
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{i}] {r.name:<{width}} {status}  ({r.seconds:.2f}s)"
                     + (f"  {r.detail}" if r.detail else ""))
        for f in r.failures:
            lines.append(f"      - {f}")
    ok = sum(1 for r in results if r.passed)
    lines.append(f"{ok}/{len(results)} criteria passed")
    return "\n".join(lines)
