"""Closed-loop timing, outcome classification, percentiles and tracing.

One client runs one op at a time; each op starts after the previous one has
returned and been checked.  Only `workload.run` is inside the timed region:
input generation, output checks, encoding for the digest and the traced
run's replay probes all run outside it.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

VERIFIED, REFUSED, FAILED = "verified", "refused", "failed"

# Every run times at least this many ops, so op_ms_p90 has at least ten
# samples above it; the first MIN_OPS outputs make the run digest, and the
# traced run runs exactly these ops.
MIN_OPS = 100


# -- machine-speed calibration -------------------------------------------------
#
# A shared virtual machine (measured: 2-vCPU x86-64) changes speed by up to
# 2x in phases lasting seconds, far more than the changes the benchmark must
# resolve.  A fixed kernel in the library's style (a dense polynomial
# square-and-reduce over Fractions on coefficient lists) runs before every
# op, outside the timed region, and each op's latency is scaled by
# (CAL_REF_S / k) ** CAL_EXPONENT, k being the median kernel time of the ops
# around it.  Regressing op time on kernel time over 1 s windows gave an
# exponent of about 0.8 on such a machine: the kernel feels a slow phase a
# little more than the library does.  The kernel shares no code with
# `cubica`, so a change to the library cannot move it; raw latencies are
# reported alongside.

CAL_REF_S = 0.0006
CAL_EXPONENT = 0.8
CAL_WINDOW = 2


def _square_mod(a, m):
    sq = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            sq[i + j] += x * y
    for i in range(len(sq) - 1, len(m) - 2, -1):
        q = sq[i] / m[-1]
        for j, c in enumerate(m):
            sq[i - len(m) + 1 + j] -= q * c
    return sq[:len(m) - 1]


def calibrate() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    a = [Fraction(i + 1, i + 2) for i in range(6)]
    m = [Fraction(1, i + 1) for i in range(5)] + [Fraction(1)]
    for _ in range(3):
        a = _square_mod(a, m)
    return time.perf_counter() - t0


def normalize(latencies, cal):
    """Each latency scaled to the reference speed by the median calibration
    time of the CAL_WINDOW ops on either side of it."""
    out = []
    for i, dt in enumerate(latencies):
        window = cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        out.append(dt * (CAL_REF_S / statistics.median(window)) ** CAL_EXPONENT)
    return out


def classify(exc, problems, refusal):
    """verified / refused / failed for one op.

    `refusal` is the library's typed precondition error (`FieldError`).  It
    subclasses ValueError, so it is tested before anything else; every other
    exception, and any output the benchmark's check rejects, is a failure."""
    if exc is None:
        return FAILED if problems else VERIFIED
    if isinstance(exc, refusal):
        return REFUSED
    return FAILED


def percentile(values, pct: int) -> float:
    """The pct-th percentile, refused unless at least ten samples lie above
    it (so p50 needs 20 samples and p90 needs 100)."""
    n = len(values)
    if n * (100 - pct) < 10 * 100:
        raise ValueError(f"p{pct} needs {1000 // (100 - pct)} samples, got {n}")
    return statistics.quantiles(values, n=100)[pct - 1]


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, index):
        pass

    def end_op(self):
        pass


class Tracer:
    """Spans kept in memory as (name, op, parent, start, end); the spans of
    one op share its index and hang off that op's root span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def begin_op(self, index):
        self._op = index
        self._open("op")

    def end_op(self):
        self._close()
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._op, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][4] = time.perf_counter()

    def call(self, name, fn, *args):
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    def totals(self):
        """{name: (total ms, calls)} over every closed span but the roots."""
        ms, calls = Counter(), Counter()
        for name, _op, _parent, t0, t1 in self.spans:
            if name != "op" and t1 is not None:
                ms[name] += (t1 - t0) * 1000.0
                calls[name] += 1
        return {name: (ms[name], calls[name]) for name in calls}


@dataclass
class RunResult:
    latencies: list = field(default_factory=list)   # seconds, every attempt
    calibration: list = field(default_factory=list)  # seconds, one per op
    kinds: list = field(default_factory=list)  # outcome of each attempt
    outcomes: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)  # "Type: message"
    check_problems: Counter = field(default_factory=Counter)
    overhead: list = field(default_factory=list)  # traced - untraced, s
    digest: str = ""

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def timed_s(self):
        return sum(self.latencies)

    def normalized(self):
        return normalize(self.latencies, self.calibration)

    def verified(self, latencies):
        """The entries of `latencies` that belong to verified ops."""
        return [t for t, k in zip(latencies, self.kinds) if k == VERIFIED]


def _reason(exc):
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text[:120]}"


def _time_untraced(workload, case):
    t0 = time.perf_counter()
    try:
        workload.run(case, NullTracer())
    except Exception:  # the traced twin of this op classifies the outcome
        pass
    return time.perf_counter() - t0


def _attempt(workload, case, tracer):
    """Run one op, timing only `workload.run`, then check its output:
    (output, exception, check problems, seconds)."""
    out, exc, problems = None, None, []
    t0 = time.perf_counter()
    try:
        out = workload.run(case, tracer)
    except Exception as e:  # every exception is an outcome to classify
        exc = e
    latency = time.perf_counter() - t0
    if exc is None:
        try:
            problems = workload.check(case, out, tracer)
        except Exception as e:  # a check that raises rejects the output
            problems = [f"check raised {_reason(e)}"]
    return out, exc, problems, latency


def _record(workload, out, exc, outcome) -> bytes:
    """One op's line of the run digest."""
    text = workload.encode(out) if exc is None else f"{outcome}:{_reason(exc)}"
    return text.encode() + b"\n"


@dataclass
class CensusResult:
    attempted: int = 0
    outcomes: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)  # "Type: message"
    digest: str = ""


def run_census(workload, seed, refusal):
    """Ops 0..CENSUS_OPS-1 of the workload's census stream, untimed and
    untraced: outcomes and failure reasons, and a digest of the outcomes."""
    res = CensusResult()
    digest = hashlib.sha256()
    for index in range(workload.CENSUS_OPS):
        case = workload.census(seed, index)
        out, exc, problems, _ = _attempt(workload, case, NullTracer())
        outcome = classify(exc, problems, refusal)
        res.attempted += 1
        res.outcomes[outcome] += 1
        if outcome == FAILED:
            res.failures.update([_reason(exc)] if exc is not None else problems)
        digest.update(_record(workload, out, exc, outcome))
    res.digest = digest.hexdigest()
    return res


def run_ops(workload, seed, tracer, refusal, *, seconds=None, count=None,
            deadline=None):
    """Run ops 0, 1, 2, ... of `seed`: exactly `count` of them, or until the
    timed op time reaches `seconds` and at least MIN_OPS have run (or the
    wall clock passes `deadline`).

    With a `Tracer`, every op also runs the workload's replay probes, and
    every other op gets an untraced twin run just before or just after it
    (alternately, so warm caches favour neither side); `overhead` collects
    the differences."""
    traced = isinstance(tracer, Tracer)
    res = RunResult()
    digest = hashlib.sha256()
    index = 0
    while True:
        if count is not None and index >= count:
            break
        if count is None and index >= MIN_OPS and res.timed_s >= seconds:
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
        case = workload.make(seed, index)
        res.calibration.append(calibrate())
        twin = None
        if traced and index % 4 == 0:
            twin = _time_untraced(workload, case)
        tracer.begin_op(index)
        out, exc, problems, latency = _attempt(workload, case, tracer)
        res.latencies.append(latency)
        if traced:
            try:
                workload.probe(case, out if exc is None else None, tracer)
            except Exception:  # replays stop where the op stopped
                pass
        tracer.end_op()
        if traced and index % 4 == 2:
            twin = _time_untraced(workload, case)
        if twin is not None:
            res.overhead.append(latency - twin)
        outcome = classify(exc, problems, refusal)
        res.outcomes[outcome] += 1
        res.kinds.append(outcome)
        if exc is not None and outcome == FAILED:
            res.failures[_reason(exc)] += 1
        for p in problems:
            res.check_problems[p] += 1
        if index < MIN_OPS:
            digest.update(_record(workload, out, exc, outcome))
        index += 1
    res.digest = digest.hexdigest()
    return res
