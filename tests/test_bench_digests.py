"""The workloads of `perfbench` give byte-identical outputs: the run digest of
their first 100 ops at seed 501, driven through the benchmark's own harness
and workloads as they are, is pinned to its recorded value.  For the descent
workloads so is a digest of the full `cubica descend --twists` documents of
the same ops (theta, f, alpha, the report, the unit form and the twists),
which the run digest does not cover; for the genus-2 workloads so is the
digest of the untimed census, whose outcomes include the inputs the library
fails on."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402
from cubica import cli, jsonio  # noqa: E402
from cubica.algebra import FieldError  # noqa: E402
from cubica.descent import construct, make_problem, twists_descent  # noqa: E402

SEED = 501
DIGESTS = {
    "descent_small_q":
        "f9cfc62257a8465b3d6c957ce9d9663e3794bfdee16057e9d8e33e5c93ec4204",
    "descent_large_q":
        "3395930094d68b9d8872e2015135c06b2d5d73a82a91ba0e0f40cc4d4f6ce917",
}
# (run digest, census digest)
GENUS2_DIGESTS = {
    "genus2_fp": (
        "245ea87aeb1e865d6e65f0113cf73e218188509603c10ccc06653ba8b9ad9523",
        "0b6d428e2e1bc8c3f760c20a4688ba7c6741d70361760018213f96fa21c7d144"),
    "genus2_q": (
        "de69b996112932ac2651735d7f4469c5d8b9c9f988026094de0f92eaac3d654a",
        "f01ee1b13739df6b5e4f2b45e143945fe4624863f1ed426dcb41cdf748d86747"),
}
DOC_DIGESTS = {
    "descent_small_q":
        "4b8004d82ccbdbc571f8912878207ba8562c45077a0ad10b82cf79f82f40e44e",
    "descent_large_q":
        "66c151f9f71aa17282734a61d1ab700ad14f17ee88dd6ede0a18ad4b5d462085",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_descent_run_digest_is_pinned(name):
    wl = workloads.WORKLOADS[name]()
    res = harness.run_ops(wl, SEED, harness.NullTracer(), FieldError,
                          count=harness.MIN_OPS)
    assert res.attempted == harness.MIN_OPS == 100
    assert not res.check_problems
    assert res.digest == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GENUS2_DIGESTS))
def test_genus2_digests_are_pinned(name):
    run_digest, census_digest = GENUS2_DIGESTS[name]
    wl = workloads.WORKLOADS[name]()
    res = harness.run_ops(wl, SEED, harness.NullTracer(), FieldError,
                          count=harness.MIN_OPS)
    assert res.attempted == harness.MIN_OPS == 100
    assert not res.check_problems
    assert res.digest == run_digest
    census = harness.run_census(wl, SEED, FieldError)
    assert census.attempted == wl.CENSUS_OPS
    assert census.digest == census_digest


@pytest.mark.parametrize("name", sorted(DOC_DIGESTS))
def test_descent_documents_are_pinned(name):
    wl = workloads.WORKLOADS[name]()
    digest = hashlib.sha256()
    for index in range(harness.MIN_OPS):
        case = wl.make(SEED, index)
        res = construct(make_problem(case.closure, case.places, case.signs))
        doc = cli._descent_doc(res)
        doc["twists"] = [jsonio.encode_cubic_model(m) for m in twists_descent(res)]
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == DOC_DIGESTS[name]
