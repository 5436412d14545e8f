"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from cubica.acceptance import closure_menu  # noqa: E402
from cubica.algebra import (FieldError, Polynomial, PrimeField,  # noqa: E402
                            is_irreducible)

GENERATORS = {
    "descent_small_q": inputs.descent_small_input,
    "descent_large_q": inputs.descent_large_input,
    "genus2_fp": inputs.genus2_fp_input,
    "genus2_fp_census": inputs.genus2_fp_census_input,
    "genus2_q": inputs.genus2_q_input,
    "genus2_q_census": inputs.genus2_q_census_input,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    gen = GENERATORS[name]
    first = [gen(7, i) for i in range(30)]
    assert first == [gen(7, i) for i in range(30)]
    assert first != [gen(8, i) for i in range(30)]


def test_classifier_outcomes():
    assert harness.classify(None, [], FieldError) == harness.VERIFIED
    assert harness.classify(None, ["wrong"], FieldError) == harness.FAILED
    assert harness.classify(FieldError("x"), [], FieldError) == harness.REFUSED
    assert harness.classify(ArithmeticError("x"), [], FieldError) == harness.FAILED
    # FieldError subclasses ValueError; a plain ValueError is still a failure
    assert harness.classify(ValueError("isqrt"), [], FieldError) == harness.FAILED


def test_percentile_needs_ten_samples_above():
    with pytest.raises(ValueError):
        harness.percentile([0.001] * 99, 90)
    assert harness.percentile(list(range(100)), 90) == pytest.approx(89.9)
    with pytest.raises(ValueError):
        harness.percentile([0.001] * 19, 50)


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_generator_agrees_with_library(p):
    field = PrimeField(p)
    menu = closure_menu(field)
    assert [[c.val for c in m.f.coeffs] for m in menu] == \
        inputs.closure_menu_polys(p)
    for coeffs in ([1, 0, 1], [2, 1, 1], [1, 1, 0, 1], [3, 0, 1, 1], [4, 1]):
        m = [c % p for c in coeffs]
        assert inputs.is_irreducible_small(m, p) == \
            is_irreducible(Polynomial(field, m))


@pytest.mark.parametrize("name", ["genus2_fp", "genus2_q"])
def test_timed_genus2_ops_do_not_fail(name):
    wl = workloads.WORKLOADS[name]()
    for i in range(24):
        case = wl.make(5, i)
        try:
            out = wl.run(case, harness.NullTracer())
        except FieldError:
            continue
        assert wl.check(case, out, harness.NullTracer()) == []


def test_census_is_untimed_and_deterministic():
    wl = workloads.WORKLOADS["genus2_q"]()
    first = harness.run_census(wl, 3, FieldError)
    assert first.attempted == wl.CENSUS_OPS
    assert sum(first.outcomes.values()) == wl.CENSUS_OPS
    assert first.digest == harness.run_census(wl, 3, FieldError).digest
