"""The summary arithmetic of tools/bench_pairs.py on hand-made pairs, its
unpacking of a committed tree and of the working tree, and its handling of
pairs whose digests differ, on stand-in runs."""

import json
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


def test_a_loss_is_checked_against_the_bound():
    pairs = [pair(100, 70, 10.0, 11.0) for _ in range(10)]
    s = bench_pairs._summary(pairs, METRICS)
    assert s["rate"]["worse_by"] == pytest.approx(0.3)
    assert not s["rate"]["within_bound"]
    assert s["ms"]["worse_by"] == pytest.approx(0.1) and s["ms"]["within_bound"]
    pairs = [pair(100, 90, 10.0, 9.0) for _ in range(10)]
    s = bench_pairs._summary(pairs, METRICS)
    assert s["rate"]["worse_by"] == pytest.approx(0.1) and s["rate"]["within_bound"]
    assert s["ms"]["worse_by"] == pytest.approx(-0.1) and s["ms"]["within_bound"]


def needs_git_checkout():
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_pairs.ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")


def test_unpack_writes_the_committed_tree(tmp_path):
    needs_git_checkout()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        bench_pairs._unpack("HEAD", tmp_path)
    assert (tmp_path / "perfbench" / "run.py").is_file()


def test_snapshot_writes_the_working_tree_without_ignored_files(tmp_path):
    needs_git_checkout()
    bench_pairs._snapshot(tmp_path)
    assert (tmp_path / "perfbench" / "run.py").is_file()
    here = Path(__file__)
    assert (tmp_path / "tests" / here.name).read_bytes() == here.read_bytes()
    assert not list(tmp_path.rglob("__pycache__"))


def stand_in(monkeypatch, digests, correct=True):
    """Replace the trees and the runs: a run on side s reports
    digests[s] = (run digest, census digest) and metric value 1.0."""
    metrics = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def run(tree, workload, seed, seconds):
        d, c = digests[{"b": "base", "c": "change"}[tree.name]]
        return {"result": {"correct": correct,
                           "metrics": {m["name"]: {"value": 1.0} for m in metrics}},
                "detail": {"digest": d, "census": {"digest": c}}}

    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "_unpack", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "_snapshot", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "_run", run)


def main_args(out):
    return ["--base", "HEAD", "--workload", "w", "--pairs", "3",
            "--seeds", "1-2", "--out", str(out)]


def test_equal_digests_are_recorded_per_side(tmp_path, monkeypatch):
    stand_in(monkeypatch, {"base": ("r", "c"), "change": ("r", "c")})
    assert bench_pairs.main(main_args(tmp_path / "b.json")) == 0
    (entry,) = json.loads((tmp_path / "b.json").read_text())["runs"]
    assert [p["seed"] for p in entry["pairs"]] == [1, 2, 1]
    for p in entry["pairs"]:
        assert p["digests"] == {side: {"run": "r", "census": "c"}
                                for side in ("base", "change")}


def test_differing_digests_are_written_then_fail(tmp_path, monkeypatch):
    stand_in(monkeypatch, {"base": ("r", "c0"), "change": ("r", "c1")})
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(main_args(tmp_path / "b.json"))
    assert exc.value.code not in (0, None) and "differ" in str(exc.value.code)
    (entry,) = json.loads((tmp_path / "b.json").read_text())["runs"]
    assert len(entry["pairs"]) == 3
    for p in entry["pairs"]:
        assert p["digests"]["base"] == {"run": "r", "census": "c0"}
        assert p["digests"]["change"] == {"run": "r", "census": "c1"}


def test_a_run_that_is_not_correct_stops_before_writing(tmp_path, monkeypatch):
    stand_in(monkeypatch, {"base": ("r", "c"), "change": ("r", "c")}, correct=False)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(main_args(tmp_path / "b.json"))
    assert "not correct" in str(exc.value.code)
    assert not (tmp_path / "b.json").exists()
