"""Tests of the benchmark itself: each workload at reduced size, and negative cases.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from cbckit.core import SetSystem, parse, serialize  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def small_design(reference=None):
    return workloads.Design(
        3, reference or REFERENCE["design"],
        grid=[("range-a", 43, 4, 6), ("large-n", 5000, 5, 12), ("range-b", 600, 5, 17)],
        uniform=[(5, 8, 2)], batches=20)


def small_serve(reference=None):
    return workloads.Serve(3, reference or REFERENCE["serve"],
                           layouts=[(43, 4, 6), (500, 5, 16)], pass_requests=300)


def small_search(reference=None):
    return workloads.Search(3, reference or REFERENCE["search"],
                            instances=[(5, 2, 3), (6, 2, 4), (7, 3, 4)])


@pytest.mark.parametrize("make", [small_design, small_serve, small_search])
def test_workload_at_reduced_size_passes_its_checks(make):
    run = harness.measure(make(), seconds=0.01)
    assert run.failures == [] and run.failed == 0
    assert run.attempted == 1 + run.ops
    values = harness.end_to_end(run)
    assert all(value > 0 for value, _, _ in values.values())


def test_traced_run_counts_repeat_and_match_the_oracle():
    result = harness.traced(small_search(), 0.01)
    assert result.drift == [] and result.run.failed == 0
    assert result.counts["oracle.nodes"] == 25 + 71 + 410
    assert result.metrics["hall.verify_hc2_calls"] == result.counts["oracle.nodes"]
    assert result.metrics["oracle.self_ms"] > 0
    again = harness.traced(small_search(), 0.01)
    assert again.counts == result.counts


def test_traced_design_splits_verify_paths_at_m16():
    result = harness.traced(small_design(), 0.01)
    assert result.run.failed == 0
    assert result.metrics["hall.verify_hc2_calls"] == 4
    assert result.metrics["hall.verify_hc2_table_ms"] > 0
    assert result.metrics["hall.verify_hc2_subset_ms"] > 0
    # The range-b row builds one code four times: in construct_range_b, in
    # construct_best, and in the known_n calls of construct_best and the CLI.
    # The CLI's known_n on the uniform row builds one more.  The set-up's own
    # known_n calls are not traced.
    assert result.metrics["cwc.best_d4_code_calls"] == 5
    assert result.metrics["cwc.best_d4_code_distinct"] == 2
    assert result.metrics["bounds.known_n_calls"] == 7
    assert result.metrics["cli.calls"] == 12


def test_traced_search_that_runs_out_of_budget_counts_failures(monkeypatch):
    monkeypatch.setattr(workloads, "SEARCH_BUDGET", 5)
    result = harness.traced(small_search(), 0.01)
    assert result.run.failed > 0
    assert any("budget exhausted" in line for line in result.run.failures)


def test_wrong_search_reference_raises_the_failure_count():
    reference = dict(REFERENCE["search"], **{"n6-k2-m4": 9})
    run = harness.measure(small_search(reference), seconds=0.01)
    assert run.failed == 1
    assert any("n6-k2-m4" in line and "reference" in line for line in run.failures)


def test_wrong_serve_reference_fails_the_setup():
    reference = dict(REFERENCE["serve"], **{"n43-k4-m6": 123})
    run = harness.measure(small_serve(reference), seconds=0.01)
    assert run.failed == 1


def test_corrupted_layout_fails_the_design_check():
    wl = small_design()
    wl.setup()
    op = wl.ops[0]
    out = wl.run_op(op)
    assert wl.check(op, out) == []
    system = parse(json.loads(out["construct"])["layout"])
    # Dropping one server from every replicated item leaves storage below
    # the exact optimum, so the layout cannot be valid.
    broken = SetSystem(system.m, tuple(
        it & ~(1 << (it.bit_length() - 1)) if it.bit_count() > 1 else it for it in system.items))
    code, text = workloads.run_cli(["verify", "-", "-k", str(op.k), "--json"], serialize(broken))
    assert wl.check(op, dict(out, verify=text, codes=(0, code, 0)))


def test_plan_outside_the_replica_sets_fails_the_serve_check():
    wl = small_serve()
    wl.setup()
    op = wl.pass_ops(0)[0]
    plan = wl.run_op(op)
    assert wl.check(op, plan) == []
    system = wl.systems[op.layout]
    item = op.request[0]
    elsewhere = next(s for s in range(system.m) if not system.items[item] >> s & 1)
    assert wl.check(op, {**plan, item: elsewhere})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(1000))) == (989, "p99")
    assert harness.tail(list(range(100))) == (89, "p90")
    assert harness.tail(list(range(8))) == (5, "p75 (2 samples beyond)")


def test_times_are_scaled_by_the_probes_around_them(monkeypatch):
    # A machine at half the reference speed: every probe takes twice as long.
    monkeypatch.setattr(harness, "probe", lambda: 2 * harness.REFERENCE_PROBE_S)
    result = harness._run_pass(small_search(), 0)
    assert result.wall == pytest.approx(result.raw_wall / 2)
    assert sum(result.latencies) == pytest.approx(result.raw_wall / 2, rel=0.05)
    assert len(result.probes) >= 2


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
