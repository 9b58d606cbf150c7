"""Benchmark entry point for cbckit.

Timed run (end-to-end metrics, tracing off):

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Traced run (per-layer metrics of all three workloads, plus tracing overhead):

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 1

The program is imported from ``src/`` next to this directory, never from
an installed copy.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the full report, and for a
traced run the spans, are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

def _import_program() -> None:
    """Put ``src/`` first on the path and insist that cbckit comes from there."""
    if not (SRC / "cbckit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'cbckit'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cbckit

    if Path(cbckit.__file__).resolve().parent != (SRC / "cbckit").resolve():
        sys.exit(f"perfbench: cbckit imported from {cbckit.__file__}, not from {SRC}")


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, payload) -> None:
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _table(rows: list[tuple]) -> None:
    print(f"{'metric':34} {'value':>16} {'unit':7} {'better':7} {'samples':>8}  note")
    for name, value, unit, better, samples, note in rows:
        print(f"{name:34} {value:16.6g} {unit:7} {better:7} {samples:>8}  {note}")


def _checks(run) -> dict:
    return {"attempted": run.attempted, "failed": run.failed, "digest": run.digest,
            "failures": run.failures}


def _timed(args, spec: dict, reference: dict) -> tuple[dict, dict]:
    import harness
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, reference[args.workload])
    run = harness.measure(wl, args.seconds)
    values = harness.end_to_end(run)
    rows, metrics = [], {}
    for m in spec["end_to_end"]:
        value, samples, note = values[m["name"]]
        rows.append((m["name"], value, m["unit"], m["better"], samples, note))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    _table(rows)
    print("times are in reference-speed units: raw times scaled by the machine-speed "
          "probes around them (see perfbench/README.md)")
    return metrics, {"checks": {args.workload: _checks(run)}, "table": rows}


def _traced(args, spec: dict, reference: dict) -> tuple[dict, dict]:
    # A traced run covers every workload, so that each per-layer metric is
    # measured on the workload whose layers it describes.
    import harness
    import workloads

    values, checks, counts, spans, drift, notes = {}, {}, {}, {}, [], {}
    names = [w["name"] for w in spec["workloads"]]
    share = args.seconds / (2 * len(names))
    for name in names:
        wl = workloads.WORKLOADS[name](args.seed, reference[name])
        result = harness.traced(wl, share)
        values.update((f"{name}.{metric}", value) for metric, value in result.metrics.items())
        checks[name] = _checks(result.run)
        counts[name] = result.counts
        spans[name] = result.spans
        drift.extend(result.drift)
        notes[name] = {"passes": result.passes, "find_sdr_tail": result.find_sdr_tail,
                       "setup_traced": wl.trace_setup}

    digest = harness.code_digest(ROOT)
    counts_file = OUT / f"counts-{digest[:16]}.json"
    if counts_file.is_file():
        before = _load_json(counts_file)
        drift.extend(f"{name}: counts {counts[name]} differ from an earlier run's {before.get(name)}"
                     for name in counts if before.get(name) != counts[name])
    else:
        _write_json(counts_file, counts)
    _write_json(OUT / f"spans-seed{args.seed}.json", spans)

    rows, metrics = [], {}
    for m in spec["per_layer"]:
        value = values[m["name"]]
        workload = m["name"].split(".", 1)[0]
        note = ("one set-up plus one pass" if notes[workload]["setup_traced"]
                and not m["name"].endswith("trace_overhead_ms") else "per pass")
        rows.append((m["name"], value, m["unit"], m["better"], notes[workload]["passes"], note))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    _table(rows)
    print("tracing overhead per pass, traced minus untraced wall time: "
          + ", ".join(f"{n} {values[f'{n}.trace_overhead_ms']:.1f} ms" for n in names))
    for line in drift:
        print(f"count drift: {line}", file=sys.stderr)
    return metrics, {"checks": checks, "exact_counts": counts, "count_drift": drift,
                     "passes": notes, "table": rows}


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and every metric, with its unit.
    spec = _load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description="cbckit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import harness

    reference = _load_json(HERE / "reference.json")
    stamp = harness.env_stamp(ROOT)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    run_mode = _traced if args.trace else _timed
    metrics, report = run_mode(args, spec, reference)
    stamp["loadavg_after"] = list(os.getloadavg())
    print("env: " + json.dumps(stamp, sort_keys=True))
    attempted = failed = 0
    for name, c in report["checks"].items():
        attempted += c["attempted"]
        failed += c["failed"]
        print(f"checks {name}: failed {c['failed']} / attempted {c['attempted']}  "
              f"digest sha256:{c['digest']}")
        for line in c["failures"]:
            print(f"  failure: {line}", file=sys.stderr)
    correct = failed == 0 and not report.get("count_drift")
    report.update(env=stamp, args=vars(args))
    _write_json(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
