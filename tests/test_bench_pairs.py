"""The summary arithmetic of tools/bench_pairs.py on hand-made pairs, and
its unpacking of a committed tree."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

METRICS = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def pair(b_rate, c_rate, b_ms, c_ms):
    return {"base": {"rate": b_rate, "ms": b_ms},
            "change": {"rate": c_rate, "ms": c_ms}}


def test_seed_lists():
    assert bench_pairs._seeds("501-503") == [501, 502, 503]
    assert bench_pairs._seeds("501,911") == [501, 911]
    assert bench_pairs._seeds("7") == [7]


def test_wins_follow_the_direction_and_ties_count_for_neither():
    pairs = [pair(100 + i, 150 + i, 10.0, 10.0 - (i > 0)) for i in range(10)]
    s = bench_pairs._summary(pairs, METRICS)
    rate, ms = s["rate"], s["ms"]
    assert rate["change_wins"] == 10 and rate["pairs"] == 10
    assert rate["base"]["median"] == 104.5 and rate["change"]["median"] == 154.5
    assert rate["base_iqr"] == 4.5 and rate["median_gain"] == 50
    assert rate["clear_gain"]
    assert ms["change_wins"] == 9 and ms["median_gain"] == 1.0
    assert ms["base_iqr"] == 0 and ms["clear_gain"]


def test_a_gain_inside_the_base_spread_is_not_clear():
    pairs = [pair(100 + 10 * i, 101 + 10 * i, 5.0, 6.0) for i in range(10)]
    s = bench_pairs._summary(pairs, METRICS)
    assert s["rate"]["change_wins"] == 10 and not s["rate"]["clear_gain"]
    assert s["ms"]["change_wins"] == 0 and s["ms"]["median_gain"] == -1.0
    assert not s["ms"]["clear_gain"]


def test_unpack_writes_the_committed_tree(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_pairs.ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        bench_pairs._unpack("HEAD", tmp_path)
    assert (tmp_path / "perfbench" / "run.py").is_file()
