"""Alternating before/after pairs of the benchmark, recorded in one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --workload descent_large_q \\
        --pairs 10 --seeds 501-510 --out BENCH_7.json

Both sides run from temporary trees that are built the same way, by one
tar extraction into a fresh directory: the base side from the committed
tree of `--base`, as `git archive` writes it (the committed files, as the
benchmark's driver checks them out; nothing is registered in the
repository), and the change side from a snapshot of the working tree this
script sits in, taken once at the start, uncommitted edits and new files
included, ignored files left out.  Pair i runs `perfbench/run.py --trace 0`
at seed `seeds[i % len(seeds)]` on both sides, the base first on even i and
the change first on odd i, each run lasting `BENCHMARK.json`'s
`run_seconds`.

A run that is not `correct` stops the script with exit status 1.
Otherwise the file gets (or replaces) one entry per workload and seed list:
each pair's run and census digests on both sides, the per-pair values of
every end-to-end metric of `BENCHMARK.json`, each side's median and
quartiles, the change's wins (ties count for neither), whether the gain
is clear (wins in at least nine tenths of the pairs and a median gap wider
than the base's interquartile range), and whether a loss stays within the
metric's bound: `worse_by` is the change median's shortfall against the
base median in the metric's bad direction, over the base median (<= 0 when
the change is better), and `within_bound` is `worse_by <= bound`.  Each
entry also records the Python version, the machine, both revisions (with
the paths `git status` lists as edited) and the run settings.  If the digests of any pair differ between
the sides, the script exits with status 1 after writing the file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(stream, dest: Path):
    """Unpack a tar stream under `dest`."""
    with tarfile.open(fileobj=stream, mode="r|") as tar:
        # the "data" filter refuses links and paths out of dest; Python
        # 3.12-3.13 warn when no filter is given, 3.14 makes it the default
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def _unpack(rev: str, dest: Path):
    """The committed tree of `rev` under `dest`."""
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        _extract(proc.stdout, dest)
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev} failed")


def _snapshot(dest: Path):
    """The working tree under `dest`: every file git tracks or would add,
    as it is on disk now."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name in names.split("\0"):
            if name and (ROOT / name).is_file():
                tar.add(ROOT / name, arcname=name, recursive=False)
    buf.seek(0)
    _extract(buf, dest)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result object and its detail record."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])}


def _seeds(text: str) -> list:
    """'501-510' or '501,503,911'."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count()}


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _summary(pairs, metrics) -> dict:
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq, cq = _quartiles(base), _quartiles(change)
        gain = (cq["median"] - bq["median"]) * (1 if higher else -1)
        iqr = bq["q3"] - bq["q1"]
        worse_by = -gain / bq["median"] if bq["median"] else None
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": bq, "change": cq,
            "change_over_base": cq["median"] / bq["median"] if bq["median"] else None,
            "change_wins": wins, "pairs": len(pairs),
            "median_gain": gain, "base_iqr": iqr,
            "clear_gain": wins * 10 >= 9 * len(pairs) and gain > iqr,
            "worse_by": worse_by,
            "within_bound": worse_by is not None and worse_by <= m["bound"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", default="501-510", help="e.g. 501-510 or 501,911")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two values")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = _seeds(args.seeds)
    base_commit = _git("rev-parse", args.base)

    pairs, differ = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # names of one length, so that the trees differ in their files only
        trees = {side: Path(tmp) / side[0] for side in ("base", "change")}
        _unpack(base_commit, trees["base"])
        _snapshot(trees["change"])
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {side: _run(trees[side], args.workload, seed, seconds)
                    for side in order}
            bad = [side for side, r in runs.items() if not r["result"]["correct"]]
            if bad:
                sys.exit(f"pair {i} (seed {seed}): not correct on {bad}")
            digests = {side: {"run": r["detail"]["digest"],
                              "census": r["detail"]["census"]["digest"]}
                       for side, r in runs.items()}
            if digests["base"] != digests["change"]:
                differ.append(i)
            pairs.append({
                "seed": seed, "first": order[0], "digests": digests,
                **{side: {m["name"]: runs[side]["result"]["metrics"][m["name"]]["value"]
                          for m in metrics} for side in order},
            })
            print(f"pair {i} seed {seed}: " + ", ".join(
                f"{m['name']} {pairs[-1]['base'][m['name']]:.4g} -> "
                f"{pairs[-1]['change'][m['name']]:.4g}" for m in metrics),
                file=sys.stderr)

    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.is_file() else {"runs": []}
    entry = {
        "workload": args.workload, "seeds": seeds, "seconds": seconds,
        "command": " ".join(bench["command"])
        + " --workload W --seed S --seconds T --trace 0",
        "python": sys.version, "machine": _machine(),
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": _git("rev-parse", "HEAD"),
                   "dirty_paths": _git("status", "--porcelain").splitlines()},
        "pairs": pairs, "summary": _summary(pairs, metrics),
    }
    doc["runs"] = [r for r in doc["runs"]
                   if (r["workload"], r["seeds"]) != (args.workload, seeds)]
    doc["runs"].append(entry)
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if differ:
        sys.exit(f"run or census digests differ between the sides in pairs "
                 f"{differ}; see {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
