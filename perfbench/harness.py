"""Timed and traced runs of one workload, their statistics and the environment stamp."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TAGGED, Tracer, dump

# Set-up runs once before the first pass, and again after any pass while
# set-ups have taken less than SETUP_SHARE of the time so far, so that the
# samples span the whole run.  setup_s is their median.
SETUP_SHARE = 0.25
# Tail percentile candidates, highest first.  The tail is the highest one
# with at least TAIL_MIN_BEYOND samples above it; with fewer samples than
# that, the lowest candidate is reported and its label says so.  The steps
# of one point from 99 to 95 keep design's tail inside the cluster of its
# heaviest instance (the top 1/19 of its samples) rather than on its edge.
TAIL_CANDIDATES = (99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# A traced run traces at most this many passes per workload.
TRACE_MAX_PASSES = 3
# Failure messages kept per run; the counts are always complete.
MAX_FAILURE_LINES = 100

# Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = ("oracle.nodes", "hall.verify_hc2_calls", "cwc.best_d4_code_calls",
                "bounds.known_n_calls", "cli.calls")


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(n * p / 100.0))


def tail(values) -> tuple[float, str]:
    """The highest candidate percentile with enough samples beyond it, and its label.

    Nearest-rank percentiles: the value is always a sample.  The workloads'
    latencies cluster by operation type, and an interpolated percentile
    that falls between two clusters jumps with the number of passes.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_CANDIDATES:
        if n - _rank(n, p) >= TAIL_MIN_BEYOND:
            return ordered[_rank(n, p) - 1], f"p{p:g}"
    p = TAIL_CANDIDATES[-1]
    return ordered[_rank(n, p) - 1], f"p{p:g} ({n - _rank(n, p)} samples beyond)"


def imbalance(loads: list[list[int]]) -> float:
    """Worst max/mean reads per server over the given layouts (0 when nothing was read)."""
    return max((max(reads) * len(reads) / sum(reads) for reads in loads if sum(reads)),
               default=0.0)


# --- machine-speed probe ----------------------------------------------------
#
# The host's speed drifts by up to 2x within a minute, and a wall-clock
# time follows it.  So the harness interleaves a fixed piece of pure-Python
# work, the probe, with the program: before the first operation of a pass,
# then after any operation once PROBE_EVERY_S have passed since the last
# probe, and after the last one.  The operations between two probes form a
# chunk; each time in the chunk is scaled by REFERENCE_PROBE_S over the mean
# of the two probes, i.e. reported in "reference-speed" seconds: the time
# it would take on a machine that runs one probe in REFERENCE_PROBE_S.  The
# raw times are kept beside them in the report.
PROBE_ROUNDS = 8000
PROBE_EVERY_S = 0.025
# One probe's time on the 2-vCPU "Intel(R) Xeon(R) Processor" VM with
# Python 3.11.7 on which the benchmark was written.
REFERENCE_PROBE_S = 0.002


def _probe_work(rounds: int) -> int:
    acc = 0
    seen: dict[int, int] = {}
    for i in range(rounds):
        x = (i * 2654435761) & 0xFFFFF
        acc += (x & (x >> 3)).bit_count()
        key = x & 1023
        seen[key] = seen.get(key, 0) + 1
    return acc + len(sorted(seen.values()))


def probe() -> float:
    """Seconds one probe takes now.  The garbage collector is held off so
    that the program's heap does not change the probe's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_work(PROBE_ROUNDS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# The first runs of the probe's code are slower than later ones, so it is
# run once here, untimed.
_probe_work(PROBE_ROUNDS)


def _scale(before: float, after: float) -> float:
    return REFERENCE_PROBE_S / ((before + after) / 2)


@dataclass
class PassResult:
    ops: list
    outs: list
    latencies: list[float]  # reference-speed seconds
    wall: float  # reference-speed seconds
    raw_wall: float
    probes: list[float]
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0


def _run_pass(wl, index: int, tracer: Tracer | None = None) -> PassResult:
    """One pass, each operation timed alone and scaled by the probes around
    its chunk; checks run after the timed loop."""
    ops = wl.pass_ops(index)
    outs, raw, latencies = [], [], []
    wall = raw_wall = 0.0
    # Each pass starts right after a full collection, untimed, so the
    # collections inside it fall at the same points of its allocations.
    gc.collect()
    probes = [probe()]
    clock = time.perf_counter
    chunk_start = 0
    t_chunk = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = clock()
        try:
            out = wl.run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        raw.append(t1 - t0)
        outs.append(out)
        if t1 - t_chunk >= PROBE_EVERY_S or i == len(ops) - 1:
            span = clock() - t_chunk
            probes.append(probe())
            factor = _scale(probes[-2], probes[-1])
            latencies.extend(r * factor for r in raw[chunk_start:])
            wall += span * factor
            raw_wall += span
            chunk_start = len(raw)
            t_chunk = clock()
    result = PassResult(ops, outs, latencies, wall, raw_wall, probes)
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            fails = [f"{op}: {type(out).__name__}: {out}"]
        else:
            try:
                fails = wl.check(op, out)
            except Exception as exc:
                fails = [f"{op}: check raised {type(exc).__name__}: {exc}"]
        if fails:
            result.failed_ops += 1
            result.failures.extend(fails)
    return result


def _ok_pairs(result: PassResult) -> tuple[list, list]:
    pairs = [(op, out) for op, out in zip(result.ops, result.outs) if not isinstance(out, Exception)]
    return [op for op, _ in pairs], [out for _, out in pairs]


@dataclass
class Run:
    """What one run keeps: timings, check results and the first pass's loads and digest.

    Outputs of later passes are dropped once checked, so memory stays flat
    however many passes fit in the run.  Times are in reference-speed
    seconds, except ``raw_walls`` and ``probes``.
    """

    workload: str
    latency_per_pass: bool = False
    setup_times: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    probes: array = field(default_factory=lambda: array("d"))
    latencies: array = field(default_factory=lambda: array("d"))
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    loads: list[list[int]] = field(default_factory=list)
    digest: str = ""

    def record_setup(self, wl, seconds: float) -> None:
        """Every set-up is timed; its checks count as one operation per run."""
        if not self.setup_times:
            self.attempted += 1
            if wl.setup_failures:
                self.failed += 1
                self._note(wl.setup_failures)
        self.setup_times.append(seconds)

    def _note(self, lines: list[str]) -> None:
        self.failures.extend(lines[:MAX_FAILURE_LINES - len(self.failures)])

    def record_pass(self, wl, result: PassResult) -> None:
        if not self.walls:
            ops, outs = _ok_pairs(result)
            self.loads = wl.loads(ops, outs)
            self.digest = wl.digest(ops, outs)
        self.walls.append(result.wall)
        self.raw_walls.append(result.raw_wall)
        self.probes.extend(result.probes)
        self.latencies.extend(result.latencies)
        self.ops += len(result.ops)
        self.attempted += len(result.ops)
        self.failed += result.failed_ops
        self._note(result.failures)


def timed_setup(wl, run: Run) -> None:
    """One set-up between two probes, recorded in reference-speed seconds."""
    before = probe()
    t0 = time.perf_counter()
    wl.setup()
    seconds = time.perf_counter() - t0
    after = probe()
    run.probes.extend((before, after))
    run.record_setup(wl, seconds * _scale(before, after))


def measure(wl, seconds: float) -> Run:
    """Untraced run: a set-up, then whole passes and further set-ups until
    ``seconds`` have passed."""
    run = Run(wl.name, wl.latency_per_pass)
    start = time.perf_counter()
    timed_setup(wl, run)
    while not run.walls or time.perf_counter() - start < seconds:
        run.record_pass(wl, _run_pass(wl, len(run.walls)))
        if sum(run.setup_times) < SETUP_SHARE * (time.perf_counter() - start):
            timed_setup(wl, run)
    return run


def _spread(values) -> float:
    """Interquartile range over the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def end_to_end(run: Run) -> dict[str, tuple[float, int, str]]:
    """Metric name -> (value, sample count, note).  Times are reference-speed."""
    walls = run.walls
    lat, unit = (walls, "pass") if run.latency_per_pass else (run.latencies, "operation")
    tail_value, tail_label = tail(lat)
    raw_wall = statistics.median(run.raw_walls)
    speed = (f"probe median {statistics.median(run.probes) * 1e3:.4g} ms, "
             f"spread {_spread(run.probes):.2f}, over {len(run.probes)}")
    return {
        "setup_s": (statistics.median(run.setup_times), len(run.setup_times),
                    "median set-up"),
        "wall_s": (statistics.median(walls), len(walls),
                   f"median pass, {run.ops / len(walls) / statistics.median(walls):.6g} "
                   f"operations/s; raw {raw_wall:.4g} s; {speed}"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, len(lat), f"per {unit}, p50"),
        "latency_tail_ms": (tail_value * 1e3, len(lat), f"per {unit}, {tail_label}"),
        "read_imbalance": (imbalance(run.loads), sum(map(sum, run.loads)),
                           f"max/mean reads per server, worst of {len(run.loads)} layouts"),
    }


# --- traced run -------------------------------------------------------------


def _segment(spans) -> dict[str, float]:
    """Additive per-layer quantities of one set-up or one pass."""
    agg: Counter = Counter()
    for s in spans:
        layer = s.layer
        agg[f"{layer}.self_ns"] += s.self_ns
        if s.tag is None and s.name in TAGGED:
            continue  # the call raised; the operation is counted as failed
        if s.name == "cli.main":
            agg["cli.calls"] += 1
        elif s.name == "cli.sample_batch":
            agg["cli.sample_batch_ns"] += s.dur_ns
        elif s.name == "cli.serialize":
            agg["core.serialize_ns"] += s.dur_ns
            agg["core.bytes"] += s.tag
        elif s.name == "cli.parse":
            agg["core.parse_ns"] += s.dur_ns
            agg["core.bytes"] += s.tag
        elif layer == "construct":
            agg["construct.calls"] += 1
        elif layer == "cwc":
            agg["cwc.best_d4_code_ns"] += s.dur_ns
            agg["cwc.best_d4_code_calls"] += 1
        elif s.name == "bounds.known_n":
            agg["bounds.known_n_self_ns"] += s.self_ns
            agg["bounds.known_n_calls"] += 1
        elif s.name == "bounds.lower_bound":
            agg["bounds.lower_bound_ns"] += s.dur_ns
        elif s.name.endswith(".verify_hc2"):
            agg["hall.verify_hc2_table_ns" if s.tag <= 16 else "hall.verify_hc2_subset_ns"] += s.dur_ns
            agg["hall.verify_hc2_calls"] += 1
        elif s.name.endswith(".plan_batch"):
            agg["hall.plan_batch_self_ns"] += s.self_ns
            agg["hall.plan_batch_calls"] += 1
        elif s.name == "oracle.search_optimal":
            agg["oracle.ns"] += s.dur_ns
            agg["oracle.nodes"] += s.tag
    return agg


def layer_metrics(setup: Counter, passes: list[Counter], sdr_us: list[float],
                  d4_args: set, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced set-up (if any) plus one pass (pass quantities averaged)."""
    total: Counter = Counter(setup)
    for key in set().union(*passes):
        total[key] += sum(seg[key] for seg in passes) / len(passes)
    ms = 1e-6
    calls = total["hall.verify_hc2_calls"]
    verify_ns = total["hall.verify_hc2_table_ns"] + total["hall.verify_hc2_subset_ns"]
    plans = total["hall.plan_batch_calls"]
    return {
        "cli.self_ms": total["cli.self_ns"] * ms,
        "cli.calls": total["cli.calls"],
        "cli.sample_batch_ms": total["cli.sample_batch_ns"] * ms,
        "core.serialize_ms": total["core.serialize_ns"] * ms,
        "core.parse_ms": total["core.parse_ns"] * ms,
        "core.bytes": total["core.bytes"],
        "construct.self_ms": total["construct.self_ns"] * ms,
        "construct.calls": total["construct.calls"],
        "cwc.best_d4_code_ms": total["cwc.best_d4_code_ns"] * ms,
        "cwc.best_d4_code_calls": total["cwc.best_d4_code_calls"],
        "cwc.best_d4_code_distinct": len(d4_args),
        "bounds.known_n_self_ms": total["bounds.known_n_self_ns"] * ms,
        "bounds.known_n_calls": total["bounds.known_n_calls"],
        "bounds.lower_bound_ms": total["bounds.lower_bound_ns"] * ms,
        "hall.verify_hc2_table_ms": total["hall.verify_hc2_table_ns"] * ms,
        "hall.verify_hc2_subset_ms": total["hall.verify_hc2_subset_ns"] * ms,
        "hall.verify_hc2_calls": calls,
        "hall.verify_hc2_us_per_call": verify_ns / 1e3 / calls if calls else 0.0,
        "hall.plan_batch_self_us": total["hall.plan_batch_self_ns"] / 1e3 / plans if plans else 0.0,
        "hall.find_sdr_us_p50": statistics.median(sdr_us) if sdr_us else 0.0,
        "hall.find_sdr_us_tail": tail(sdr_us)[0] if sdr_us else 0.0,
        "oracle.nodes": total["oracle.nodes"],
        "oracle.self_ms": total["oracle.self_ns"] * ms,
        "oracle.nodes_per_s": (total["oracle.nodes"] / (total["oracle.ns"] * 1e-9)
                               if total["oracle.ns"] else 0.0),
        "trace_overhead_ms": overhead_s * 1e3,
    }


@dataclass
class TracedRun:
    run: Run
    metrics: dict[str, float]
    counts: dict[str, float]
    drift: list[str]
    spans: list[list]
    find_sdr_tail: str
    passes: int


def traced(wl, seconds: float) -> TracedRun:
    """Untraced and traced runs of the same work, interleaved.

    After a warm-up set-up and pass come one traced set-up (only where the
    set-up is program work, see ``trace_setup``), then pairs of passes
    with the same inputs, one untraced and one traced, until
    ``seconds`` have passed or TRACE_MAX_PASSES pairs have run (at least
    one).  Each pair alternates which side goes first, so both sides see
    the same machine state.  Each traced pass is aggregated as it ends;
    only the spans of the set-up and the first pass are kept.
    """
    run = Run(wl.name)
    timed_setup(wl, run)
    run.record_pass(wl, _run_pass(wl, 0))
    tracer = Tracer()
    if wl.trace_setup:
        with tracer:
            tracer.op = -1
            tracer.active = True
            timed_setup(wl, run)
            tracer.active = False
    kept = tracer.take()
    setup_segment = _segment(kept)
    d4_args = {s.tag for s in kept if s.layer == "cwc"}
    segments, sdr_us, differences = [], [], []
    start = time.perf_counter()
    while not segments or (len(segments) < TRACE_MAX_PASSES
                           and time.perf_counter() - start < seconds):
        index = len(segments)
        walls = {}
        for side in ((False, True) if index % 2 == 0 else (True, False)):
            if side:
                with tracer:
                    result = _run_pass(wl, index, tracer)
            else:
                result = _run_pass(wl, index)
            walls[side] = result.wall
            run.record_pass(wl, result)
        differences.append(walls[True] - walls[False])
        spans = tracer.take()
        segments.append(_segment(spans))
        sdr_us.extend(s.dur_ns / 1e3 for s in spans if s.name == "hall.find_sdr")
        if index == 0:
            d4_args |= {s.tag for s in spans if s.layer == "cwc"}
            kept.extend(spans)
    counts = [{name: seg[name] for name in EXACT_COUNTS} for seg in segments]
    drift = [f"{wl.name}: pass {i} counts {c} differ from pass 0 counts {counts[0]}"
             for i, c in enumerate(counts) if c != counts[0]]
    metrics = layer_metrics(setup_segment, segments, sdr_us, d4_args,
                            statistics.median(differences))
    return TracedRun(run, metrics, {n: metrics[n] for n in EXACT_COUNTS}, drift,
                     dump(kept), tail(sdr_us)[1] if sdr_us else "none", len(segments))


# --- environment ------------------------------------------------------------


def code_digest(root: Path) -> str:
    """sha256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(root: Path) -> dict:
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    dirty = None
    if sha is not None:
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "git_sha": sha,
        "git_dirty": dirty,
        "code_sha256": code_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }
