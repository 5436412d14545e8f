"""cubica's benchmark: one seeded, single-process, closed-loop run of one
workload through the public API of `cubica`, built from `src/` of the
checkout it sits in.

    python3 perfbench/run.py --workload descent_small_q --seed 1 \\
        --seconds 12 --trace 0

With `--trace 0` it times ops and prints the end-to-end metrics; with
`--trace 1` it runs the first MIN_OPS ops traced and prints the per-layer
metrics.  The last line of stdout is the result object; the line before it
is a detail record (sample counts, outcome ratios, failure reasons, the
output digest, and the untimed census of inputs on which the library raises
untyped errors today).  Spans of a traced run are written to `.perfbench/`
when the run ends.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5
WALL_CAP_S = 165.0   # stop timing here whatever --seconds says

LAYER_SPANS = (
    "descent.exists_descent", "descent.make_problem", "descent.construct",
    "analyzer.analyze", "jsonio.encode",
    "hyper.SplitCurve", "hyper.point_minus_i_point", "hyper.mumford_scalar",
    "hyper.canonicalize_prym", "hyper.classes_equal",
    "parshin.find_Ptilde", "parshin.interpolate_f",
    "parshin.verify_parshin_cover", "parshin.parshin_cover",
    "algebra.residue.sqrt", "algebra.poly.poly_factor",
    "algebra.poly.is_irreducible",
)


def _import_library():
    """Put the checkout's `src/` first on the path; an installed copy
    elsewhere must not stand in for a missing source tree."""
    if not (SRC / "cubica" / "__init__.py").is_file():
        sys.exit(f"error: no cubica sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _source_fingerprint() -> str:
    h = hashlib.sha256()
    for base in (SRC / "cubica", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _setup(workload_name, seed):
    """Everything a run does before its first timed op."""
    _import_library()
    from cubica.algebra import FieldError
    import workloads
    wl = workloads.WORKLOADS[workload_name]()
    wl.make(seed, 0)
    return wl, FieldError


def _measure_setup(args):
    """Seconds from starting a fresh interpreter to being ready for the
    first timed op, once per probe process: raw, and scaled to the
    reference speed by the calibration kernel run just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        cal = [harness.calibrate() for _ in range(5)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != b"ready":
                raise RuntimeError("setup probe failed")
        cal += [harness.calibrate() for _ in range(5)]
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * (harness.CAL_REF_S / statistics.median(cal))
                      ** harness.CAL_EXPONENT)
    return raw, scaled


def _check_digest(workload, seed, digest) -> bool:
    """The first MIN_OPS outputs of a seed must hash the same on every run
    of the same sources; the first run of a seed records the digest."""
    path = OUT_DIR / "digests" / f"{_source_fingerprint()}-{workload}-{seed}"
    if path.is_file():
        return path.read_text().strip() == digest
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return True


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _detail(args, res, census):
    n = res.attempted
    oc = res.outcomes
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": n, "verified": oc[harness.VERIFIED],
        "refused": oc[harness.REFUSED], "failed": oc[harness.FAILED],
        "failed_ratio": oc[harness.FAILED] / n,
        "no_result_ratio": (n - oc[harness.VERIFIED]) / n,
        "timed_s": res.timed_s,
        "failures": dict(res.failures.most_common()),
        "check_problems": dict(res.check_problems.most_common()),
        "digest": res.digest, "digest_ops": harness.MIN_OPS,
        "census": {"attempted": census.attempted,
                   "verified": census.outcomes[harness.VERIFIED],
                   "refused": census.outcomes[harness.REFUSED],
                   "failed": census.outcomes[harness.FAILED],
                   "failures": dict(census.failures.most_common()),
                   "digest": census.digest},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("descent_small_q", "descent_large_q",
                             "genus2_fp", "genus2_q"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    start = time.perf_counter()
    wl, refusal = _setup(args.workload, args.seed)
    deadline = start + WALL_CAP_S

    if args.trace == 0:
        setup_raw, setup_times = _measure_setup(args)
        res = harness.run_ops(wl, args.seed, harness.NullTracer(), refusal,
                              seconds=args.seconds, deadline=deadline)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        census = harness.run_census(wl, args.seed, refusal)
        detail = _detail(args, res, census)
        scaled = res.normalized()
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "verified_per_s": _metric(detail["verified"] / sum(scaled), "1/s"),
            "verified_ms_p50": _metric(
                harness.percentile(res.verified(scaled), 50) * 1000.0, "ms"),
            "op_ms_p90": _metric(harness.percentile(scaled, 90) * 1000.0, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        detail["raw"] = {
            "verified_per_s": detail["verified"] / res.timed_s,
            "verified_ms_p50":
                harness.percentile(res.verified(res.latencies), 50) * 1000.0,
            "op_ms_p90": harness.percentile(res.latencies, 90) * 1000.0,
            "calibration_ms_median": statistics.median(res.calibration) * 1000.0,
            "setup_s": statistics.median(setup_raw),
        }
        detail["samples"] = {"setup_s": len(setup_times),
                             "verified_per_s": res.attempted,
                             "verified_ms_p50": detail["verified"],
                             "op_ms_p90": res.attempted,
                             "peak_rss_mb": 1}
        detail["setup_runs_s"] = setup_times
        detail["metrics"] = metrics
    else:
        tracer = harness.Tracer()
        res = harness.run_ops(wl, args.seed, tracer, refusal,
                              count=harness.MIN_OPS, deadline=deadline)
        if res.attempted < harness.MIN_OPS:
            sys.exit("error: the traced run did not finish its ops in time")
        totals = tracer.totals()
        metrics = {}
        for name in LAYER_SPANS:
            ms, calls = totals.get(name, (0.0, 0))
            metrics[f"{name}.ms"] = _metric(ms, "ms")
            metrics[f"{name}.calls"] = _metric(calls, "count")
        census = harness.run_census(wl, args.seed, refusal)
        detail = _detail(args, res, census)
        metrics["census.failed"] = _metric(census.outcomes[harness.FAILED],
                                           "count")
        metrics["census.refused"] = _metric(census.outcomes[harness.REFUSED],
                                            "count")
        metrics["outcome.failed_ratio"] = _metric(detail["failed_ratio"], "ratio")
        metrics["outcome.no_result_ratio"] = _metric(detail["no_result_ratio"],
                                                     "ratio")
        # the twins cover every other op; scale to the whole run
        overhead = sum(res.overhead) * res.attempted / len(res.overhead)
        metrics["trace_overhead_s"] = _metric(overhead, "s")
        detail["metrics"] = metrics
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", "w") as fh:
            for i, (name, op, parent, t0, t1) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op,
                                     "parent": parent, "start": t0 - start,
                                     "end": t1 - start}) + "\n")

    digests_ok = _check_digest(args.workload, args.seed,
                               f"{res.digest} {census.digest}")
    detail["digest_consistent"] = digests_ok
    correct = digests_ok and not res.check_problems
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.outcomes[harness.FAILED],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
