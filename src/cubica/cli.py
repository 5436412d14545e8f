"""Command-line interface.

Commands: pure {enumerate, count, twists, bitwists3}; descend; analyze;
bitwists; parshin {genus1, weierstrass, cover}; selftest.  All input and
output is JSON; results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 domain error, 2 malformed input.  Factoring is deterministic
and takes no seed, so equal input gives byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .algebra import FieldError, QQ
from .analyzer import analyze
from .catalog import ALL_TAGS, class_count, enumerate_classes, family_member
from .descent import (construct, enumerate_descents, exists_descent,
                      make_problem, twists_descent)
from .function_field import Place
from .jsonio import (SchemaError, decode_cubic_model, decode_element,
                     decode_places, decode_poly, decode_quadratic_model,
                     encode_cubic_model, encode_element, encode_poly,
                     encode_ratfunc, encode_report, field_from_spec)
from .pure_cubic import bitwist_reps_deg3, count_pure, enumerate_pure, twists_pure


def _emit(doc) -> int:
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON for {what}: {exc}")


# -- pure ---------------------------------------------------------------------------


def cmd_pure_enumerate(args):
    field = field_from_spec(args.field)
    places = decode_places(field, _load_json(args.places, "places"))
    models = enumerate_pure(places)
    return _emit({
        "count": len(models),
        "models": [encode_cubic_model(m) for m in models],
    })


def cmd_pure_count(args):
    return _emit({"count": count_pure(args.s, args.t)})


def cmd_pure_twists(args):
    field = field_from_spec(args.field)
    model = decode_cubic_model(field, _load_json(args.model, "model"))
    if model.kind != "pure":
        raise FieldError("twists of a pure model expected")
    twists = twists_pure(model)
    return _emit({"count": len(twists),
                  "models": [encode_cubic_model(m) for m in twists]})


def cmd_pure_bitwists3(args):
    field = field_from_spec(args.field)
    reps = bitwist_reps_deg3(field)
    return _emit({"count": len(reps),
                  "models": [encode_cubic_model(m) for m in reps]})


# -- descend ------------------------------------------------------------------------


def _descent_doc(res):
    P, Q = res.theta
    A, B = res.f_pair
    report = analyze(res.model)
    return {
        "c": encode_element(res.c),
        "alpha": encode_ratfunc(res.model.alpha),
        "case": res.case,
        "theta": {"P": encode_ratfunc(P), "Q": encode_ratfunc(Q)},
        "f": {"P": encode_ratfunc(A), "Q": encode_ratfunc(B)},
        "report": encode_report(report),
        "unit_form": (encode_cubic_model(res.unit_form)
                      if res.unit_form is not None else None),
    }


def cmd_descend(args):
    field = field_from_spec(args.field)
    closure = decode_quadratic_model(field, _load_json(args.closure, "closure"))
    places = decode_places(field, _load_json(args.places, "places"))
    if not exists_descent(closure, places):
        raise FieldError("no descent exists: some place does not split "
                         "in the closure (or T is empty)")
    if args.all_signs:
        results = enumerate_descents(closure, places)
        docs = [_descent_doc(r) for r in results]
        return _emit({"count": len(docs), "descents": docs})
    signs = None
    if args.signs:
        signs = _load_json(args.signs, "signs")
        if (not isinstance(signs, list) or len(signs) != len(places)
                or any(s not in (1, -1) for s in signs)):
            raise SchemaError("signs must be a list of +-1 matching the places")
    res = construct(make_problem(closure, places, signs))
    doc = _descent_doc(res)
    if args.twists:
        doc["twists"] = [encode_cubic_model(m) for m in twists_descent(res)]
    return _emit(doc)


# -- analyze -------------------------------------------------------------------------


def cmd_analyze(args):
    field = field_from_spec(args.field)
    model = decode_cubic_model(field, _load_json(args.model, "model"))
    if args.hints:
        # a reducible hint would be reported as one place
        model = dataclasses.replace(model, hints=tuple(
            Place.finite(decode_poly(field, h)).poly
            for h in _load_json(args.hints, "hints")))
    return _emit(encode_report(analyze(model)))


# -- bitwists -------------------------------------------------------------------------


def cmd_bitwists(args):
    field = field_from_spec(args.field)
    tag = args.tag
    if tag not in ALL_TAGS:
        raise SchemaError(f"unknown tag {tag!r}; choose from {', '.join(ALL_TAGS)}")
    if args.params:
        params = _load_json(args.params, "params")
        if not isinstance(params, dict):
            raise SchemaError("params must be an object")
        model = family_member(tag, field, **params)
        return _emit({"model": encode_cubic_model(model),
                      "report": encode_report(analyze(model))})
    models = enumerate_classes(tag, field)
    return _emit({
        "count": len(models),
        "expected": class_count(tag, field),
        "models": [encode_cubic_model(m) for m in models],
    })


# -- parshin --------------------------------------------------------------------------


def cmd_parshin_genus1(args):
    from .parshin import genus1_parshin, genus1_sample_check
    field = field_from_spec(args.field)
    lam = decode_element(field, getattr(args, "lambda"))
    fam = genus1_parshin(lam)
    doc = {
        "lambda": encode_element(lam),
        "Z": {"t^2": encode_poly(fam.Z_rhs)},
        "Y": {"v^2": encode_poly(fam.Y_rhs)},
        "X": {"y^2": encode_poly(fam.X_rhs)},
        "maps": {
            "psi": "(u, v) = (s + 1/s, t (1 - s^-4) / (s + 1/s))",
            "phi": "(x, y) = (u^3 - 3u, v (u^2 - 1))",
        },
        "identities_verified": True,
    }
    if field.order is not None:
        doc["sample_points_checked"] = genus1_sample_check(fam)
    return _emit(doc)


def cmd_parshin_weierstrass(args):
    from .parshin import weierstrass_parshin, weierstrass_ramification_on_x
    field = field_from_spec(args.field)
    g = decode_poly(field, _load_json(args.g, "g"))
    c = decode_element(field, args.c)
    cover = weierstrass_parshin(g, c)
    return _emit({
        "c": encode_element(c),
        "X": {"y^2": encode_poly(cover.X_rhs)},
        "Y": {"w^2": encode_poly(cover.Y_rhs)},
        "map": "(x, y) = (z^3 - 3cz, w (z^2 - c))",
        "genus_X": cover.genus_X,
        "genus_Y": cover.genus_Y,
        "ramification": weierstrass_ramification_on_x(cover),
    })


def cmd_parshin_cover(args):
    from .hyper import SplitCurve
    from .parshin import parshin_cover
    curve_spec = _load_json(args.curve, "curve")
    if not isinstance(curve_spec, dict) or "F" not in curve_spec:
        raise SchemaError("curve needs {'F': [coefficients]}")
    F = decode_poly(QQ, curve_spec["F"])
    try:
        W = SplitCurve(F)
    except FieldError as exc:
        raise SchemaError(str(exc))
    point = _load_json(args.point, "point")
    if not isinstance(point, list) or len(point) != 2:
        raise SchemaError("point must be [x, y]")
    qx = decode_element(QQ, point[0])
    qy = decode_element(QQ, point[1])
    cover = parshin_cover(W, qx, qy)
    return _emit({
        "X": {"y^2": encode_poly(cover.X_rhs)},
        "c": encode_element(cover.c),
        "alpha": {"A": encode_poly(cover.A), "B": encode_poly(cover.B),
                  "C": encode_poly(cover.C),
                  "form": "(A(x) + B(x) y)/C(x)"},
        "equation": "z^3 = 3c z + alpha",
        "branch_point": [encode_element(cover.branch_point.x),
                         encode_element(cover.branch_point.y)],
        "witnesses": {
            "threeE": {"u": encode_poly(cover.threeE.u),
                       "v": encode_poly(cover.threeE.v)},
            "P_tilde": [encode_element(cover.Pt.x), encode_element(cover.Pt.y)],
            "lambda": encode_element(cover.f.lam),
            "f": {"G": {"p": encode_poly(cover.f.gp), "q": encode_poly(cover.f.gq)},
                  "H": {"p": encode_poly(cover.f.den), "q": []}},
        },
    })


# -- selftest -------------------------------------------------------------------------


def cmd_selftest(args):
    from .acceptance import format_table, run_all
    results = run_all()
    print(format_table(results), file=sys.stderr)
    ok = all(r.passed for r in results)
    _emit({"passed": ok,
           "criteria": [{"name": r.name, "passed": r.passed,
                         "seconds": round(r.seconds, 3), "failures": r.failures}
                        for r in results]})
    return 0 if ok else 1


# -- argument wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cubica",
        description="cubic covers of the line with prescribed ramification")
    sub = top.add_subparsers(dest="command", required=True)

    pure = sub.add_parser("pure", help="purely cubic constructions")
    pure_sub = pure.add_subparsers(dest="subcommand", required=True)
    pe = pure_sub.add_parser("enumerate")
    pe.add_argument("--field", required=True)
    pe.add_argument("--places", required=True)
    pe.set_defaults(fn=cmd_pure_enumerate)
    pc = pure_sub.add_parser("count")
    pc.add_argument("s", type=int)
    pc.add_argument("t", type=int)
    pc.set_defaults(fn=cmd_pure_count)
    pt = pure_sub.add_parser("twists")
    pt.add_argument("--field", required=True)
    pt.add_argument("--model", required=True)
    pt.set_defaults(fn=cmd_pure_twists)
    pb = pure_sub.add_parser("bitwists3")
    pb.add_argument("--field", required=True)
    pb.set_defaults(fn=cmd_pure_bitwists3)

    de = sub.add_parser("descend", help="impurely cubic descent")
    de.add_argument("--field", required=True)
    de.add_argument("--closure", required=True)
    de.add_argument("--places", required=True)
    de.add_argument("--signs")
    de.add_argument("--all-signs", action="store_true")
    de.add_argument("--twists", action="store_true")
    de.set_defaults(fn=cmd_descend)

    an = sub.add_parser("analyze", help="ramification report of a model")
    an.add_argument("--field", required=True)
    an.add_argument("--model", required=True)
    an.add_argument("--hints", help="irreducible factor hints as JSON "
                    "(required over Q, optional over a finite field)")
    an.set_defaults(fn=cmd_analyze)

    bi = sub.add_parser("bitwists", help="closed-form families")
    bi.add_argument("--tag", required=True)
    bi.add_argument("--field", required=True)
    bi.add_argument("--params", help="single-member parameters as JSON")
    bi.set_defaults(fn=cmd_bitwists)

    pa = sub.add_parser("parshin", help="covers ramified over one point")
    pa_sub = pa.add_subparsers(dest="subcommand", required=True)
    g1 = pa_sub.add_parser("genus1")
    g1.add_argument("--lambda", dest="lambda", required=True)
    g1.add_argument("--field", default="q")
    g1.set_defaults(fn=cmd_parshin_genus1)
    wp = pa_sub.add_parser("weierstrass")
    wp.add_argument("--g", required=True)
    wp.add_argument("--c", required=True)
    wp.add_argument("--field", default="q")
    wp.set_defaults(fn=cmd_parshin_weierstrass)
    cv = pa_sub.add_parser("cover")
    cv.add_argument("--curve", required=True)
    cv.add_argument("--point", required=True)
    cv.set_defaults(fn=cmd_parshin_cover)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (FieldError, ArithmeticError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
