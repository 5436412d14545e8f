"""JSON codecs shared by the CLI: coefficients are decimal strings (rationals
as "a/b"), polynomials are lowest-degree-first coefficient lists, places are
{"inf": true} or {"poly": [...]}, divisors are lists of {"place", "mult"},
quadratic models {"kummer": [...]} or {"artin_schreier": ...}, cubic models
{"pure": {...}} or {"impure": {...}}."""

from __future__ import annotations

from .algebra import (Element, FieldError, Polynomial, PrimeField, QQ,
                      RationalFunction)
from .algebra.fields import decimal_fraction, decimal_int
from .function_field import Place
from .models import CubicModel, RamificationReport
from .quadratic import QuadraticModel, canonical_quadratic_field


class SchemaError(ValueError):
    pass


def field_from_spec(spec) -> object:
    """'q' / 0 -> Q; a prime p -> F_p; 'p^2' -> F_{p^2}, the canonical
    ``quadratic.canonical_quadratic_field`` over F_p."""
    if spec in ("q", "Q", 0, "0"):
        return QQ
    try:
        text = str(spec)
        if "^" in text:
            p, e = text.split("^")
            if int(e) != 2:
                raise SchemaError("only quadratic extension fields are supported")
            return canonical_quadratic_field(PrimeField(int(p)))
        return PrimeField(int(text))
    except (ValueError, FieldError) as exc:
        raise SchemaError(f"bad field spec: {exc}")


def encode_element(e: Element) -> str:
    return repr(e)


def decode_element(field, data) -> Element:
    if type(data) is int:   # not a JSON true/false
        return field(data)
    if isinstance(data, str):
        try:
            if "/" in data:
                return field(decimal_fraction(data))
            if "+" in data or "t" in data:
                return _decode_quadratic_element(field, data)
            return field(decimal_int(data))
        except (ValueError, FieldError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad element {data!r}: {exc}")
    if isinstance(data, list):
        # [c0, c1, ...]: the integer coordinates of an extension element
        deg = getattr(field, "deg", 1)
        if deg > 1 and len(data) == deg and all(type(c) is int for c in data):
            return field(tuple(data))
    raise SchemaError(f"bad element {data!r}")


def _decode_quadratic_element(field, text: str) -> Element:
    if getattr(field, "deg", 1) != 2:
        raise SchemaError("t-notation needs a quadratic field")
    c0, c1 = 0, 0
    for part in text.replace("-", "+-").split("+"):
        part = part.strip()
        if not part:
            continue
        if part.endswith("*t") or part == "t" or part == "-t":
            coeff = part[:-2] if part.endswith("*t") else part[:-1]
            c1 += int(coeff) if coeff not in ("", "-") else (-1 if coeff == "-" else 1)
        else:
            c0 += int(part)
    return field((c0, c1))


def encode_poly(p: Polynomial) -> list:
    return [encode_element(c) for c in p.coeffs]


def decode_poly(field, data) -> Polynomial:
    if not isinstance(data, list):
        raise SchemaError("polynomial must be a coefficient list")
    return Polynomial(field, [decode_element(field, c) for c in data])


def encode_ratfunc(f: RationalFunction) -> dict:
    return {"num": encode_poly(f.num), "den": encode_poly(f.den)}


def decode_ratfunc(field, data) -> RationalFunction:
    if isinstance(data, list):
        return RationalFunction(decode_poly(field, data))
    if not isinstance(data, dict) or "num" not in data:
        raise SchemaError("rational function needs {'num': [...], 'den': [...]}")
    num = decode_poly(field, data["num"])
    den = decode_poly(field, data.get("den", ["1"]))
    if den.is_zero():
        raise SchemaError("zero denominator")
    return RationalFunction(num, den)


def encode_place(p: Place) -> dict:
    if p.infinite:
        return {"inf": True}
    return {"poly": encode_poly(p.poly)}


def decode_place(field, data) -> Place:
    if data == {"inf": True} and data["inf"] is True:   # not 1, which == True
        return Place.infinity(field)
    if not isinstance(data, dict) or data.keys() != {"poly"}:
        raise SchemaError("place must be {'inf': true} or {'poly': [...]}")
    poly = decode_poly(field, data["poly"])
    try:
        return Place.finite(poly, check=True)
    except FieldError as exc:
        raise SchemaError(str(exc))


def decode_places(field, data) -> list:
    if not isinstance(data, list):
        raise SchemaError("places must be a list")
    return [decode_place(field, d) for d in data]


def encode_quadratic_model(m: QuadraticModel) -> dict:
    if m.kind == "kummer":
        return {"kummer": encode_poly(m.f)}
    return {"artin_schreier": encode_ratfunc(m.gamma)}


def decode_quadratic_model(field, data) -> QuadraticModel:
    if not isinstance(data, dict):
        raise SchemaError("quadratic model must be an object")
    if "kummer" in data:
        try:
            return QuadraticModel.kummer(decode_poly(field, data["kummer"]))
        except FieldError as exc:
            raise SchemaError(str(exc))
    if "artin_schreier" in data:
        val = data["artin_schreier"]
        if val is True:
            return QuadraticModel.artin_schreier_x(field)
        gamma = decode_ratfunc(field, val)
        if gamma == RationalFunction.x(field):
            return QuadraticModel.artin_schreier_x(field)
        if gamma.is_constant():
            return QuadraticModel.artin_schreier_const(field, gamma.constant_value())
        raise SchemaError("supported Artin-Schreier models: x or a constant")
    raise SchemaError("quadratic model needs 'kummer' or 'artin_schreier'")


def encode_cubic_model(m: CubicModel) -> dict:
    if m.kind == "pure":
        return {"pure": encode_ratfunc(m.beta)}
    return {"impure": {"c": encode_element(m.c),
                       "alpha": encode_ratfunc(m.alpha)}}


def decode_cubic_model(field, data) -> CubicModel:
    if not isinstance(data, dict):
        raise SchemaError("cubic model must be an object")
    if "pure" in data:
        return CubicModel.pure(decode_ratfunc(field, data["pure"]))
    if "impure" in data:
        body = data["impure"]
        if not isinstance(body, dict) or "alpha" not in body:
            raise SchemaError("impure model needs {'alpha': ..., 'c': ...}")
        c = decode_element(field, body.get("c", "1"))
        alpha = decode_ratfunc(field, body["alpha"])
        try:
            return CubicModel.impure(c, alpha)
        except FieldError as exc:
            raise SchemaError(str(exc))
    raise SchemaError("cubic model needs 'pure' or 'impure'")


def encode_report(rep: RamificationReport) -> dict:
    return {
        "total": [encode_place(p) for p in rep.total],
        "partial": [encode_place(p) for p in rep.partial],
        "genus": rep.genus,
        "signature": rep.signature(),
        "metadata": rep.metadata,
    }
