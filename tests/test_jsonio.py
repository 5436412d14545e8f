"""JSON codec round trips and schema rejection."""

import json
import random

import pytest

from cubica.acceptance import closure_menu
from cubica.algebra import (Polynomial, PrimeField, QQ, RationalFunction,
                            is_irreducible)
from cubica.descent import DescentProblem, UpstairsChoice, construct, make_problem
from cubica.function_field import Place
from cubica.jsonio import (SchemaError, decode_cubic_model, decode_element,
                           decode_place, decode_poly, decode_quadratic_model,
                           decode_ratfunc, encode_cubic_model, encode_place,
                           encode_poly, encode_quadratic_model,
                           encode_ratfunc, field_from_spec)
from cubica.models import CubicModel
from cubica.quadratic import QuadraticModel

F5 = PrimeField(5)


def test_field_specs():
    assert field_from_spec("5").p == 5
    assert field_from_spec("q") is QQ or field_from_spec("q") == QQ
    assert field_from_spec("2^2").order == 4
    with pytest.raises(SchemaError):
        field_from_spec("4")
    with pytest.raises(SchemaError):
        field_from_spec("3")
    with pytest.raises(SchemaError):
        field_from_spec({"p": 7, "a": 1, "b": 4})


def test_list_form_elements_of_f_p2():
    """[c0, c1] is c0 + c1*t over F_{p^2}: exactly deg integer entries, and
    anything else is a SchemaError, not an escaping IndexError/ValueError
    or a silently truncated value."""
    F25 = field_from_spec("5^2")
    assert decode_element(F25, [1, 2]) == decode_element(F25, "1+2*t")
    assert repr(decode_element(F25, [0, 6])) == "1*t"
    for bad in ([1], [], [1, 2, 3], [1.5, 2], ["a", 1], ["1", "2"], [True, 1],
                [[1], 2]):
        with pytest.raises(SchemaError, match="bad element"):
            decode_element(F25, bad)
    with pytest.raises(SchemaError, match="bad element"):
        decode_element(F5, [3])
    with pytest.raises(SchemaError, match="bad element"):
        decode_element(QQ, [1, 2])


def test_poly_round_trip():
    x = Polynomial.x(F5)
    p = 2 * x ** 3 + x + 4
    assert decode_poly(F5, encode_poly(p)) == p
    xq = Polynomial.x(QQ)
    q = xq ** 2 - QQ(1) / 2 * xq
    assert decode_poly(QQ, encode_poly(q)) == q


@pytest.mark.parametrize("field,text", [(QQ, "1/0"), (F5, "1/0"), (F5, "2/5"),
                                        (F5, "-3/10")], ids=str)
def test_malformed_rationals_are_schema_errors(field, text):
    """A zero denominator, or one the characteristic divides, is bad input
    (SchemaError), not an arithmetic failure of the library."""
    with pytest.raises(SchemaError, match="bad element"):
        decode_element(field, text)
    with pytest.raises(SchemaError):
        decode_poly(field, ["1", text])


def test_ratfunc_round_trip():
    x = Polynomial.x(F5)
    f = RationalFunction(2 * x * x + 1, x * x + 2)
    assert decode_ratfunc(F5, encode_ratfunc(f)) == f


def test_place_round_trip_and_validation():
    x = Polynomial.x(F5)
    p = Place.finite(x ** 2 + 2)
    assert decode_place(F5, encode_place(p)) == p
    inf = Place.infinity(F5)
    assert decode_place(F5, encode_place(inf)) == inf
    with pytest.raises(SchemaError):
        decode_place(F5, {"poly": ["4", "0", "1"]})   # reducible
    # exactly {"inf": true} or {"poly": [...]}
    for bad in ({"nope": 1}, {"inf": "no", "poly": ["4", "1"]}, {"inf": 1},
                {"inf": False}, {"inf": True, "poly": ["4", "1"]}, {}, [], "inf"):
        with pytest.raises(SchemaError, match="place must be"):
            decode_place(F5, bad)


def test_model_round_trips():
    x = Polynomial.x(F5)
    pure = CubicModel.pure(RationalFunction(x * (x - 1)))
    assert decode_cubic_model(F5, encode_cubic_model(pure)).beta == pure.beta
    imp = CubicModel.impure(F5(2), RationalFunction(x - 2, x - 1))
    back = decode_cubic_model(F5, encode_cubic_model(imp))
    assert back.c == imp.c and back.alpha == imp.alpha
    qm = QuadraticModel.kummer(x * x - 2)
    assert decode_quadratic_model(F5, encode_quadratic_model(qm)).f == qm.f


@pytest.mark.parametrize("spec", ["13", "101", "7^2", "q"])
def test_a_descent_model_and_its_decoded_copy_are_interchangeable(spec):
    """The place hints a descent model carries take no part in the value:
    the model and its JSON copy (decoded over a freshly built field, with
    no hints) are ==, hash alike and have one repr and one JSON text."""
    field = field_from_spec(spec)
    if field == QQ:
        x = Polynomial.x(QQ)
        place = Place.finite(x - 4)
        problems = [DescentProblem(QuadraticModel.kummer(x),
                                   [UpstairsChoice(place, place.residue_field(2))])]
    else:
        rng = random.Random(f"interchangeable:{spec}")
        elems = list(field.elements())
        problems = []
        for closure in closure_menu(field)[1:]:
            T = []
            while len(T) < 2:
                d = rng.choice((1, 2))
                poly = Polynomial(field, [rng.choice(elems) for _ in range(d)] + [1])
                if is_irreducible(poly):
                    place = Place.finite(poly, check=False)
                    if place not in T and closure.split_kind(place) == "split":
                        T.append(place)
            problems.append(make_problem(closure, T, [1, -1]))
    for problem in problems:
        res = construct(problem)
        for model in filter(None, (res.model, res.unit_form)):
            assert model.hints
            data = encode_cubic_model(model)
            copy = decode_cubic_model(field_from_spec(spec), data)
            assert copy.hints is None
            assert copy == model and model == copy
            assert hash(copy) == hash(model) and len({model, copy}) == 1
            assert repr(copy) == repr(model)
            assert json.dumps(encode_cubic_model(copy), sort_keys=True) == \
                json.dumps(data, sort_keys=True)


def test_char2_model_codec():
    F2 = PrimeField(2)
    m = decode_quadratic_model(F2, {"artin_schreier": True})
    assert m.kind == "artin_schreier"
    back = decode_quadratic_model(F2, encode_quadratic_model(m))
    assert back.gamma == m.gamma
