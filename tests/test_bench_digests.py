"""The descent workloads of `perfbench` give byte-identical outputs: the run
digest of their first 100 ops at seed 501, driven through the benchmark's
own harness and workloads as they are, is pinned to its recorded value."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402
from cubica.algebra import FieldError  # noqa: E402

SEED = 501
DIGESTS = {
    "descent_small_q":
        "f9cfc62257a8465b3d6c957ce9d9663e3794bfdee16057e9d8e33e5c93ec4204",
    "descent_large_q":
        "3395930094d68b9d8872e2015135c06b2d5d73a82a91ba0e0f40cc4d4f6ce917",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_descent_run_digest_is_pinned(name):
    wl = workloads.WORKLOADS[name]()
    res = harness.run_ops(wl, SEED, harness.NullTracer(), FieldError,
                          count=harness.MIN_OPS)
    assert res.attempted == harness.MIN_OPS == 100
    assert not res.check_problems
    assert res.digest == DIGESTS[name]
