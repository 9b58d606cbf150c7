import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbckit
from cbckit import cli, construct
from cbckit.cli import DRAW_BLOCK, SPLITMIX_INCREMENT, SplitMix64, main, sample_batch, sample_batches
from cbckit.core import parse, serialize, total_storage
from cbckit.errors import CbcError, NoPlan, ParamError
from cbckit.hall import Deficiency, plan_batch

from conftest import chain_system

INVALID_LAYOUT = "cbc m=3 n=3\n0: 0 1\n1: 0 1\n2: 0 1\n"
INTRO_LAYOUT = "cbc m=3 n=3\n0: 0 1\n1: 0 1 2\n2: 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "bad.cbc"
    path.write_text(INVALID_LAYOUT)
    return str(path)


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.cbc"
    path.write_text(INTRO_LAYOUT)
    return str(path)


@pytest.fixture
def table1_file(tmp_path, capsys):
    path = tmp_path / "table1.cbc"
    code, _, _ = run(capsys, "construct", "-n", "43", "-k", "4", "-m", "6", "--out", str(path))
    assert code == 0
    return str(path)


def test_construct_table1(capsys):
    code, out, err = run(capsys, "construct", "-n", "43", "-k", "4", "-m", "6")
    assert code == 0
    system = parse(out)
    assert total_storage(system) == 124
    assert "verdict: optimal" in err
    assert "lower=124" in err


def test_construct_m_plus_one(capsys):
    code, out, err = run(capsys, "construct", "-n", "7", "-k", "4", "-m", "6")
    assert code == 0
    assert total_storage(parse(out)) == 10
    assert "verdict: optimal" in err


def test_construct_gap_case(capsys):
    code, out, err = run(capsys, "construct", "-n", "54", "-k", "5", "-m", "8")
    assert code == 0
    assert total_storage(parse(out)) == 162
    assert "verdict: gap <= 1 (lower bound 161)" in err


def test_construct_unsupported_exits_2(capsys):
    code, _, err = run(capsys, "construct", "-n", "9", "-k", "4", "-m", "6")
    assert code == 2
    assert "no construction covers" in err


def test_construct_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "construct", "-n", "4", "-k", "2", "-m", "3", "--method", "trivial")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["-n", str(2**64), "-k", "5", "-m", "7"],
    ["-n", str(2**64), "-k", "5", "-m", "7", "--method", "large-n"],
    ["-n", str(10**18), "-k", "5", "-m", "40"],
])
def test_construct_with_a_huge_n_exits_2(capsys, argv):
    # A layout has one m-bit mask per item; past construct.MAX_LAYOUT_BITS
    # of them the build is refused before any list is made.
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2 and out == ""
    assert err.endswith("bits, more than 10000000\n")


@pytest.mark.parametrize("method, stderr", [
    ("large-n", "construct: need n >= (k-1)*C(m,k-1) = at least 2^39860, got n=5\n"),
    ("range-a", "construct: need at least 2^29894 <= n <= at least 2^39860, got n=5\n"),
])
def test_range_messages_name_a_count_too_long_for_str(capsys, method, stderr):
    # On m = 10^3000, C(m, 4) has 11,999 digits, past the 4,300 that str()
    # converts: the message names its power of two.
    code, out, err = run(capsys, "construct", "-n", "5", "-k", "5", "-m", str(10**3000),
                         "--method", method)
    assert (code, out, err) == (2, "", stderr)


def test_uniform_cap_stops_before_the_whole_binomial(capsys):
    # m*C(m, i) passes the cap at i = 1; the product stops as soon as it is
    # too long to print (i = 263, 14,046 bits), so m*C(m, 100000), about 4.5
    # million bits, is never computed.
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "-k", "200000", "-m", str(10**18),
                         "-c", "100000", "--method", "uniform")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.endswith(f"candidate words of {10**18} bits, at least 2^14045 bits, "
                        "more than 10000000\n")


def test_bound_with_a_huge_m_answers_at_once(capsys):
    # known_n's range-b check builds the residue-class code of weight k-3;
    # it lists no class per server, so m = 10^6 costs no memory in m, and
    # m = 2^64 answers too.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "bound", "-n", "5", "-k", "6", "-m", str(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "exact N = 5 (source: trivial)" in out
    assert peak < 2 * 2**20
    code, out, _ = run(capsys, "bound", "-n", "5", "-k", "6", "-m", str(2**64))
    assert code == 0 and "exact N = 5 (source: trivial)" in out


def test_construct_uniform_method(capsys):
    code, out, err = run(
        capsys, "construct", "-k", "5", "-m", "8", "-c", "2", "--method", "uniform"
    )
    assert code == 0
    system = parse(out)
    assert system.n == 8 and total_storage(system) == 16


def test_construct_uniform_past_the_layout_cap_exits_2(capsys):
    # Its code would scan C(20000, 1) words of 20000 bits, 4e8 bits in all:
    # refused before any word is listed.
    code, out, err = run(
        capsys, "construct", "-k", "3", "-m", "20000", "-c", "1", "--method", "uniform"
    )
    assert code == 2 and out == ""
    assert err.endswith("400000000 bits, more than 10000000\n")


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "-n", "43", "-k", "4", "-m", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 124 and payload["verdict"] == "optimal"
    assert total_storage(parse(payload["layout"])) == 124


def test_verify_valid_layout(capsys, table1_file):
    code, out, _ = run(capsys, "verify", table1_file, "-k", "4")
    assert code == 0
    assert out == "valid CBC for k=4, N=124\n"


def test_verify_invalid_layout(capsys, invalid_file):
    code, out, _ = run(capsys, "verify", invalid_file, "-k", "3")
    assert code == 1
    assert "{0,1} contains 3 items" in out


def test_verify_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.cbc"
    path.write_text("cbc m=2 n=1\n0: 5\n")
    code, _, err = run(capsys, "verify", str(path), "-k", "2")
    assert code == 2
    assert "outside" in err


@pytest.mark.parametrize(
    "text",
    [
        "cbc m=03 n=1\n00: 01\n",
        "cbc m=3 n=1\n0:  1\n",
        "cbc m=3 n=1\n0: 1 \n",
        "cbc  m=3 n=1\n0: 1\n",
        "cbc m=3 n=1\n0: 1",
    ],
)
def test_verify_non_canonical_layout_exits_2(capsys, tmp_path, text):
    path = tmp_path / "odd.cbc"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path), "-k", "1")
    assert code == 2
    assert out == "" and "line " in err


def test_verify_json(capsys, invalid_file):
    code, out, _ = run(capsys, "verify", invalid_file, "-k", "3", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["witness"]["servers"] == [0, 1]


def test_bound_exact(capsys):
    code, out, _ = run(capsys, "bound", "-n", "43", "-k", "4", "-m", "6")
    assert code == 0
    assert "exact N = 124" in out


def test_bound_gap(capsys):
    code, out, _ = run(capsys, "bound", "-n", "54", "-k", "5", "-m", "8")
    assert code == 0
    assert "lower bound 161" in out and "upper bound 162" in out


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "-n", "60", "-k", "4", "-m", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 180
    assert "large-n" in payload["source"]


def test_bound_param_error_exits_2(capsys):
    code, _, _ = run(capsys, "bound", "-n", "5", "-k", "9", "-m", "6")
    assert code == 2


def test_plan_intro_example(capsys, intro_file):
    code, out, _ = run(capsys, "plan", intro_file, "-k", "3", "0", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    servers = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert len(set(servers)) == 3


def test_plan_single_item_least_server(capsys, intro_file):
    code, out, _ = run(capsys, "plan", intro_file, "-k", "3", "0")
    assert code == 0
    assert out == "item 0 ← server 0\n"


def test_plan_unplannable_exits_1(capsys, invalid_file):
    code, out, _ = run(capsys, "plan", invalid_file, "-k", "3", "0", "1", "2")
    assert code == 1
    assert "cover only 2 servers" in out


def test_no_plan_message_is_the_cli_witness_text(capsys, invalid_file):
    code, out, _ = run(capsys, "plan", invalid_file, "-k", "3", "0", "1", "2")
    with pytest.raises(NoPlan) as err:
        plan_batch(parse(INVALID_LAYOUT), [0, 1, 2])
    assert err.value.witness == Deficiency((0, 1, 2), (0, 1))
    assert (code, out) == (1, f"no plan: {err.value}\n")
    assert out == "no plan: items (0,1,2) cover only 2 servers\n"


def test_plan_too_many_items_exits_2(capsys, intro_file):
    code, _, _ = run(capsys, "plan", intro_file, "-k", "2", "0", "1", "2")
    assert code == 2


def test_simulate_deterministic(capsys, table1_file):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "simulate", table1_file, "-k", "4", "--batches", "200", "--seed", "42")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    assert "max reads in one batch per server: 1" in runs[0]


def test_simulate_total_reads(capsys, table1_file):
    code, out, _ = run(capsys, "simulate", table1_file, "-k", "4", "--batches", "50", "--seed", "7")
    assert code == 0
    assert "total reads: 200" in out  # k * batches


def test_simulate_trivial_layout(capsys, tmp_path):
    path = tmp_path / "trivial.cbc"
    path.write_text("cbc m=4 n=4\n0: 0\n1: 1\n2: 2\n3: 3\n")
    code, out, _ = run(capsys, "simulate", str(path), "-k", "2", "--batches", "100", "--seed", "1")
    assert code == 0
    assert "max reads in one batch per server: 1" in out


def test_simulate_invalid_layout_exits_1(capsys, invalid_file):
    # The deficiency names batch items, in the batch's order, not positions.
    argv = ["simulate", invalid_file, "-k", "3", "--batches", "5", "--seed", "0"]
    assert run(capsys, *argv) == (
        1, "", "unplannable batch [1, 0, 2]: items (1,0,2) cover only 2 servers\n")


def test_simulate_exits_2_when_a_plan_reads_one_server_twice(monkeypatch, capsys, table1_file):
    def one_server(sets):
        return [0] * len(sets)

    for module in (cbckit.hall, cli):
        monkeypatch.setattr(module, "find_sdr", one_server, raising=False)
    argv = ["simulate", table1_file, "-k", "4", "--batches", "5", "--seed", "0"]
    assert run(capsys, *argv) == (2, "", "simulate: plan reads one server twice\n")


def list_sample_batch(rng, n, k):
    """The sampler as the README pins it: partial Fisher-Yates on a full list."""
    pool = list(range(n))
    for j in range(k):
        r = rng.next_u64() % (n - j)
        pool[j], pool[j + r] = pool[j + r], pool[j]
    return pool[:k]


def recount(system, k, batches, seed):
    """Per-server reads of ``simulate``'s batches, each drawn by the list
    sampler over ``next_u64`` and planned by ``plan_batch``."""
    rng = SplitMix64(seed)
    per_server = [0] * system.m
    for _ in range(batches):
        for server in plan_batch(system, list_sample_batch(rng, system.n, k)).assignment.values():
            per_server[server] += 1
    return per_server


# (n, k, m) of each layout: Table 1, m = k, a large-n layout whose 180
# items beyond (k-1)*C(m, k-1) = 20 all sit on the first k servers, and
# range-b.
SIMULATE_LAYOUTS = {
    "table1": construct.construct_range_a(43, 4, 6),
    "m-equals-k": construct.construct_m_equals_k(20, 4, 4),
    "large-n": construct.construct_large_n(200, 3, 5),
    "range-b": construct.construct_range_b(52, 5, 8),
}
SIMULATE_KS = {"table1": (1, 2, 4), "m-equals-k": (1, 3, 4), "large-n": (1, 2, 3),
               "range-b": (2, 4, 5)}


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("name", list(SIMULATE_LAYOUTS))
def test_simulate_reads_match_a_recount_by_plan_batch(monkeypatch, capsys, name, seed):
    system = SIMULATE_LAYOUTS[name]
    text = serialize(system)
    for k in SIMULATE_KS[name]:
        expected = recount(system, k, 60, seed)
        argv = ["simulate", "-", "-k", str(k), "--batches", "60", "--seed", str(seed)]
        code, out, err = stdin_run(monkeypatch, capsys, text, argv + ["--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["per_server_reads"] == expected
        assert report["total_reads"] == 60 * k
        code, out, err = stdin_run(monkeypatch, capsys, text, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1:1 + system.m] == [f"server {s}: {c}" for s, c in enumerate(expected)]
        assert lines[1 + system.m] == f"total reads: {60 * k}"


def test_simulate_across_draw_blocks_matches_a_recount(monkeypatch, capsys):
    # 2,000 batches of 5 items take 10,000 outputs: two full blocks and a
    # partial one, with batches cut across both block boundaries.
    assert 2 * DRAW_BLOCK < 5 * 2000 < 3 * DRAW_BLOCK and DRAW_BLOCK % 5
    system = SIMULATE_LAYOUTS["range-b"]
    argv = ["simulate", "-", "-k", "5", "--batches", "2000", "--seed", "7", "--json"]
    code, out, err = stdin_run(monkeypatch, capsys, serialize(system), argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["per_server_reads"] == recount(system, 5, 2000, 7)


def test_simulate_negative_batches_exits_2(capsys, table1_file):
    code, out, err = run(capsys, "simulate", table1_file, "-k", "4", "--batches", "-3", "--json")
    assert code == 2
    assert out == ""
    assert "--batches" in err


def test_search_known_values(capsys):
    code, out, _ = run(capsys, "search", "-n", "5", "-k", "2", "-m", "3")
    assert code == 0
    assert out.startswith("optimal N = 7")
    code, out, _ = run(capsys, "search", "-n", "3", "-k", "2", "-m", "3")
    assert out.startswith("optimal N = 3")
    code, out, _ = run(capsys, "search", "-n", "4", "-k", "2", "-m", "3")
    assert out.startswith("optimal N = 5")


def test_search_budget_exits_3(capsys):
    code, _, err = run(capsys, "search", "-n", "5", "-k", "2", "-m", "3", "--budget", "0")
    assert code == 3
    assert "budget" in err


def test_search_negative_budget_exits_2(capsys):
    code, out, err = run(capsys, "search", "-n", "5", "-k", "2", "-m", "3", "--budget", "-5")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_construct_verify_pipeline(capsys, tmp_path):
    cases = [(3, 2, 3), (7, 4, 6), (43, 4, 6), (61, 4, 6), (52, 5, 8)]
    for i, (n, k, m) in enumerate(cases):
        path = tmp_path / f"case{i}.cbc"
        code, _, _ = run(capsys, "construct", "-n", str(n), "-k", str(k), "-m", str(m), "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path), "-k", str(k))
        assert code == 0, (n, k, m)


def test_construct_and_bound_agree(capsys):
    for n, k, m in [(3, 2, 3), (7, 4, 6), (43, 4, 6), (60, 4, 6)]:
        code, out, _ = run(capsys, "construct", "-n", str(n), "-k", str(k), "-m", str(m), "--json")
        assert code == 0
        built = json.loads(out)
        code, out, _ = run(capsys, "bound", "-n", str(n), "-k", str(k), "-m", str(m), "--json")
        bound = json.loads(out)
        assert bound["exact"] == built["N"]


def test_splitmix_reference_sequence():
    # Pin the generator so alternate implementations can cross-check.
    rng = SplitMix64(42)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]
    assert sample_batch(SplitMix64(42), 10, 3) == sample_batch(SplitMix64(42), 10, 3)


def test_sample_batch_is_a_k_subset():
    rng = SplitMix64(7)
    for _ in range(50):
        batch = sample_batch(rng, 9, 4)
        assert len(batch) == 4
        assert len(set(batch)) == 4
        assert all(0 <= x < 9 for x in batch)


def test_sample_batch_matches_list_sampler():
    cases = [(0, 0), (1, 0), (1, 1), (2, 2), (9, 0), (9, 9), (10, 3), (43, 4), (10_000, 7)]
    for seed in (0, 1, 42, 2**64 - 1):
        for n, k in cases:
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            for _ in range(3):
                assert sample_batch(fast, n, k) == list_sample_batch(slow, n, k), (seed, n, k)
            assert fast.state == slow.state


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1, 2**64 - SPLITMIX_INCREMENT])
def test_draws_match_repeated_next_u64(seed):
    for count in (0, 1, 2, 4095, 4096, 4097, 3 * 4096 + 5):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        assert list(block.draws(count)) == [scalar.next_u64() for _ in range(count)], count
        assert block.state == scalar.state, count


def test_draws_interleave_with_next_u64():
    block, scalar = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
    for count in (3, 0, 1, 17, 4097, 2):
        assert block.next_u64() == scalar.next_u64()
        assert list(block.draws(count)) == [scalar.next_u64() for _ in range(count)], count
    assert block.state == scalar.state


def test_sample_batches_match_the_list_sampler():
    # k * count: 10,000 (a partial last block), 2 * 4,096 (full blocks
    # only), 8,194 (batches cut mid-batch by a block), 0 and small ones.
    cases = [(43, 5, 2000), (5000, 4096, 2), (5000, 4097, 2), (12, 4, 1024),
             (10, 3, 1), (1, 1, 5), (9, 0, 4), (0, 0, 2), (9, 3, 0)]
    for seed in (0, 2**64 - 1):
        for n, k, count in cases:
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            expected = [list_sample_batch(slow, n, k) for _ in range(count)]
            assert list(sample_batches(fast, n, k, count)) == expected, (seed, n, k, count)
            assert fast.state == slow.state, (seed, n, k, count)


@pytest.mark.parametrize("n, k", [(5, -1), (5, 6), (3, 5), (0, 1)])
def test_samplers_refuse_k_outside_0_to_n(n, k):
    message = f"need 0 <= k <= n, got n={n} k={k}"
    with pytest.raises(ParamError, match=message):
        sample_batch(SplitMix64(0), n, k)
    with pytest.raises(ParamError, match=message):
        sample_batches(SplitMix64(0), n, k, 3)


def test_samplers_refuse_a_negative_count():
    rng = SplitMix64(0)
    with pytest.raises(ParamError, match="need count >= 0, got count=-1"):
        sample_batches(rng, 5, 2, -1)
    with pytest.raises(ParamError, match="need count >= 0, got count=-1"):
        rng.draws(-1)
    assert rng.state == 0


def test_plan_deep_augmenting_path(capsys, tmp_path):
    path = tmp_path / "chain.cbc"
    path.write_text(serialize(chain_system(1200)))
    items = [str(j) for j in range(1201)]
    code, out, _ = run(capsys, "plan", str(path), "-k", "1201", *items)
    assert code == 0
    assert out.splitlines()[-2:] == ["item 1199 ← server 1200", "item 1200 ← server 0"]


def test_parser_reused_after_usage_error(capsys, invalid_file):
    # The parser is built once per process; a usage error must leave it
    # fit for later calls, which print and exit as a fresh process does.
    with pytest.raises(SystemExit) as err:
        main(["construct", "-k", "4"])
    assert err.value.code == 2
    capsys.readouterr()
    commands = [
        ["bound", "-n", "43", "-k", "4", "-m", "6", "--json"],
        ["search", "-n", "5", "-k", "2", "-m", "3"],
        ["verify", invalid_file, "-k", "3"],
        ["construct", "-n", "7", "-k", "4", "-m", "6"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cbckit.__file__).parents[1]))
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "cbckit", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def stdin_run(monkeypatch, capsys, text, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, *argv)


def test_layout_commands_pin(monkeypatch, capsys, table1_system):
    # Exit code, stdout and stderr of verify, plan and simulate, text and
    # --json, for every k in 1..m on three layouts read from stdin, plus a
    # few bound and search runs; captured before the commands shared one
    # layout reader and one exit table, re-pinned when an exhausted budget
    # began reporting the nodes explored (budget, not budget + 1), and again
    # when search started at its counting floor (the only change: search
    # -n 5 -k 2 -m 3 explores 7 nodes, not 63), and again when search
    # walked Hall-feasible profiles (the only change: search -n 5 -k 2 -m 3
    # explores 8 nodes, search -n 4 -k 3 -m 4 explores 9, not 7), and again
    # when search refused a budget below n before its first node (the only
    # change: search -n 5 -k 2 -m 3 --budget 3 reports 0 nodes, not 3).
    layouts = [serialize(table1_system), INTRO_LAYOUT, INVALID_LAYOUT]
    h = hashlib.sha256()
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    runs = []
    for text in layouts:
        system = parse(text)
        n, m = system.n, system.m
        for k in range(1, m + 1):
            last = [str(j) for j in range(n - 1, n - 1 - k, -1)]
            requests = [
                [str(j) for j in range(k)], last, last[:1],
                [str(j) for j in range(k + 1)] if k < n else [str(n)],
            ]
            argvs = [["verify", "-", "-k", str(k)]]
            argvs += [["plan", "-", "-k", str(k), *items] for items in requests]
            argvs += [["simulate", "-", "-k", str(k), "--batches", "300", "--seed", str(k)]]
            for argv in argvs:
                runs += [(text, argv), (text, argv + ["--json"])]
    for argv in (
        ["bound", "-n", "43", "-k", "4", "-m", "6"],
        ["bound", "-n", "54", "-k", "5", "-m", "8"],
        ["bound", "-n", "5", "-k", "9", "-m", "6"],
        ["search", "-n", "5", "-k", "2", "-m", "3"],
        ["search", "-n", "4", "-k", "3", "-m", "4"],
        ["search", "-n", "5", "-k", "2", "-m", "3", "--budget", "3"],
        ["search", "-n", "5", "-k", "2", "-m", "3", "--budget", "-1"],
    ):
        runs += [("", argv), ("", argv + ["--json"])]
    for text, argv in runs:
        result = stdin_run(monkeypatch, capsys, text, argv)
        codes[result[0]] += 1
        h.update(repr((argv, *result)).encode())
    assert codes == {0: 110, 1: 18, 2: 28, 3: 2}
    assert h.hexdigest() == "2543cc0cd3bb89e76732c6ef8033127a63bbe0858210ff0d9c74f84303e7886a"


# Counts past the 4,300 digits that str() converts: each message names the
# count by its power of two.
NINES_4000 = "9" * 4000
NINES_4300 = "9" * 4300


@pytest.mark.parametrize(
    "argv, text, code, stderr",
    [
        (["search", "-n", "5", "-k", "2", "-m", "3", "--budget", "0"], "", 3,
         "search: search budget exhausted after 0 nodes (best constructive upper bound 7)\n"),
        (["verify", "-", "-k", "2"], "cbc m=2\n", 2, "verify: bad header line 'cbc m=2'\n"),
        (["verify", "no-such-file.cbc", "-k", "2"], "", 2,
         "verify: [Errno 2] No such file or directory: 'no-such-file.cbc'\n"),
        (["verify", "-", "-k", "4"], INTRO_LAYOUT, 2, "verify: need 1 <= k <= m, got k=4 m=3\n"),
        (["construct", "-n", "4", "-k", "2", "-m", "3", "--method", "trivial"], "", 2,
         "construct: trivial layout needs n <= m, got n=4 m=3\n"),
        (["construct", "-n", "9", "-k", "4", "-m", "6"], "", 2,
         "construct: no construction covers n=9 k=4 m=6 (lower bound 14)\n"),
        (["simulate", "-", "-k", "2", "--seed", "-1"], INTRO_LAYOUT, 2,
         "simulate: need 0 <= --seed < 2**64, got -1\n"),
        (["simulate", "-", "-k", "2", "--seed", str(2**64)], INTRO_LAYOUT, 2,
         f"simulate: need 0 <= --seed < 2**64, got {2**64}\n"),
        (["simulate", "-", "-k", "2"], "cbc m=3 n=1\n0: 0\n", 2,
         "simulate: batch size 2 exceeds item count 1\n"),
        (["search", "-n", "3", "-k", "10", "-m", "30"], "", 2,
         "search: search on m=30 servers needs more than 1000000 candidate masks:"
         " 2804011 of weight at most 7\n"),
        (["search", "-n", "1", "-k", "1", "-m", "1000000"], "", 2,
         "search: search on m=1000000 servers needs more than 1000000 64-bit words of"
         " candidate masks (15625 per mask): 15625000000 of weight at most 1\n"),
        (["construct", "-n", "8", "-k", "4", "-m", "6"], "", 2,
         "construct: no construction covers n=8 k=4 m=6"
         " (exact N = 13, which no builder realises)\n"),
        pytest.param(
            ["verify", "-", "-k", "1"], f"cbc m={NINES_4000} n={NINES_4000}\n", 2,
            f"verify: a layout of n={NINES_4000} items on m={NINES_4000} servers has"
            " n*m = at least 2^26575 bits, more than 10000000\n", id="verify-4000-digit-header"),
        pytest.param(
            ["search", "-n", "1", "-k", "1", "-m", NINES_4000], "", 2,
            f"search: search on m={NINES_4000} servers needs more than 1000000 64-bit words of"
            f" candidate masks ({-(-int(NINES_4000) // 64)} per mask): at least 2^26569 of"
            " weight at most 1\n", id="search-4000-digit-m"),
        (["bound", "-n", NINES_4300, "-k", "3", "-m", "3"], "", 2,
         "bound: lower = at least 2^14285, too wide to print\n"),
        (["bound", "-n", NINES_4300, "-k", "3", "-m", "3", "--json"], "", 2,
         "bound: lower = at least 2^14285, too wide to print\n"),
        (["search", "-n", NINES_4300, "-k", "3", "-m", "3", "--budget", "5"], "", 3,
         "search: search budget exhausted after 0 nodes"
         " (best constructive upper bound at least 2^14285)\n"),
        # --batches and --seed are checked before the layout is read.
        pytest.param(
            ["simulate", "-", "-k", "2", "--batches", "-3"], "cbc m=2\n", 2,
            "simulate: need --batches >= 0, got -3\n", id="simulate-batches-before-layout"),
        # construct checks 2 <= k <= m before any builder runs.
        pytest.param(
            ["construct", "-n", "5", "-k", "1", "-m", "3", "--method", "trivial"], "", 2,
            "construct: need 2 <= k <= m, got k=1 m=3\n", id="construct-k1-before-trivial-range"),
        pytest.param(
            ["construct", "-n", "4", "-k", "1", "-m", "4", "--method", "m-equals-k"], "", 2,
            "construct: need 2 <= k <= m, got k=1 m=4\n", id="construct-k1-before-m-equals-k"),
        # ... and n >= 1, so no builder's own message or build comes first.
        pytest.param(
            ["construct", "-n", "0", "-k", "2", "-m", "3", "--method", "trivial"], "", 2,
            "construct: need n >= 1, got n=0\n", id="construct-n0-before-trivial"),
        pytest.param(
            ["construct", "-n", "0", "-k", "2", "-m", "2", "--method", "m-equals-k"], "", 2,
            "construct: need n >= 1, got n=0\n", id="construct-n0-before-m-equals-k"),
        pytest.param(
            ["construct", "-n", "-1", "-k", "2", "-m", "3"], "", 2,
            "construct: need n >= 1, got n=-1\n", id="construct-negative-n-before-auto"),
        pytest.param(
            ["construct", "-n", "0", "-k", "3", "-m", "5", "--method", "range-a"], "", 2,
            "construct: need n >= 1, got n=0\n", id="construct-n0-before-range-a"),
    ],
)
def test_exit_code_table_rows(monkeypatch, capsys, tmp_path, argv, text, code, stderr):
    monkeypatch.chdir(tmp_path)
    assert stdin_run(monkeypatch, capsys, text, argv) == (code, "", stderr)


def test_verify_one_item_at_a_batch_size_of_100000(monkeypatch, capsys):
    # No subset of 1 to 99,999 servers can hold more items than servers
    # when there is one item, so none is visited.
    text = "cbc m=100000 n=1\n0: 0\n"
    assert stdin_run(monkeypatch, capsys, text, ["verify", "-", "-k", "100000"]) == (
        0, "valid CBC for k=100000, N=1\n", "")


def test_verify_a_layout_past_the_layout_cap_exits_2(monkeypatch, capsys):
    text = "cbc m=100000000 n=1\n0: 99999999\n"
    assert stdin_run(monkeypatch, capsys, text, ["verify", "-", "-k", "1"]) == (
        2, "", "verify: a layout of n=1 items on m=100000000 servers has n*m = 100000000"
        " bits, more than 10000000\n")


NOT_UTF8_LAYOUT = b"cbc m=3 n=1\n0: 0\xff\n"
NOT_UTF8_ERROR = (
    "layout is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 16:"
    " invalid start byte\n"
)


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name, rest", [("verify", []), ("plan", ["0"]), ("simulate", [])])
def test_layout_that_is_not_utf8_exits_2(monkeypatch, capsys, tmp_path, source, name, rest):
    if source == "file":
        path = tmp_path / "bad.cbc"
        path.write_bytes(NOT_UTF8_LAYOUT)
        file = str(path)
    else:
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8_LAYOUT), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        file = "-"
    assert run(capsys, name, file, "-k", "1", *rest) == (2, "", f"{name}: {NOT_UTF8_ERROR}")


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
@pytest.mark.parametrize("name, rest", [("verify", []), ("plan", ["0"]), ("simulate", [])])
def test_layout_file_with_cr_line_endings_exits_2(capsys, tmp_path, ending, name, rest):
    # The file is read as it is, so a CR reaches parse, as it does on stdin.
    path = tmp_path / "crlf.cbc"
    path.write_bytes(f"cbc m=3 n=1{ending}0: 1{ending}".encode())
    assert run(capsys, name, str(path), "-k", "1", *rest) == (
        2, "", f"{name}: line 1: character '\\r' is not allowed\n")


def test_search_runs_a_walk_1000_items_deep(capsys):
    code, out, err = run(capsys, "search", "-n", "1000", "-k", "1", "-m", "1", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["optimal_N"], report["nodes_explored"]) == (1000, 1000)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulate_runs_at_both_ends_of_the_seed_range(monkeypatch, capsys, seed):
    argv = ["simulate", "-", "-k", "2", "--batches", "10", "--seed", str(seed), "--json"]
    code, out, err = stdin_run(monkeypatch, capsys, INTRO_LAYOUT, argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["seed"] == seed and report["total_reads"] == 20


def test_other_toolkit_errors_exit_1(monkeypatch, capsys):
    class Unlisted(CbcError):
        pass

    def unlisted(*args, **kwargs):
        raise Unlisted("not settled")

    monkeypatch.setattr(cli.oracle, "search_optimal", unlisted)
    assert run(capsys, "search", "-n", "5", "-k", "2", "-m", "3") == (1, "", "search: not settled\n")


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["simulate", "-", "-k", "0"], "simulate: need 1 <= k <= m, got k=0 m=3\n"),
        (["simulate", "-", "-k", "-3", "--json"], "simulate: need 1 <= k <= m, got k=-3 m=3\n"),
        (["simulate", "-", "-k", "4"], "simulate: need 1 <= k <= m, got k=4 m=3\n"),
        (["plan", "-", "-k", "4", "0", "1", "2"], "plan: need 1 <= k <= m, got k=4 m=3\n"),
        (["plan", "-", "-k", "0", "0"], "plan: need 1 <= k <= m, got k=0 m=3\n"),
    ],
)
def test_layout_commands_reject_k_outside_1_to_m(monkeypatch, capsys, argv, stderr):
    assert stdin_run(monkeypatch, capsys, INTRO_LAYOUT, argv) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["-n", "999", "-k", "5", "-m", "8", "-c", "2", "--method", "uniform"],
         "construct: --method uniform takes no -n (n follows from -c)\n"),
        (["-n", "43", "-k", "4", "-m", "6", "-c", "2"],
         "construct: -c applies only to --method uniform\n"),
        (["-n", "43", "-k", "4", "-m", "6", "-c", "2", "--method", "range-a"],
         "construct: -c applies only to --method uniform\n"),
    ],
)
def test_construct_rejects_ignored_flags(capsys, argv, stderr):
    assert run(capsys, "construct", *argv) == (2, "", stderr)


def test_k_above_m_exits_2_on_a_layout_with_more_items_than_servers(capsys, table1_file):
    # 43 items on 6 servers: k=7 is a sample size, but no batch of 7 fits.
    for argv in (["simulate", table1_file, "-k", "7", "--batches", "5"],
                 ["plan", table1_file, "-k", "7", "0"]):
        command = argv[0]
        assert run(capsys, *argv) == (2, "", f"{command}: need 1 <= k <= m, got k=7 m=6\n")


def reference_main(argv):
    """Every call through the top-level parser, then ``args.func`` with
    ``cli.main``'s exception mapping: what ``cli.main`` must match."""
    args = cli._build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CbcError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for types, code in cli._EXIT_CODES if isinstance(exc, types))


GRAMMAR_LAYOUTS = {"intro.cbc": INTRO_LAYOUT, "crowded.cbc": "cbc m=3 n=2\n0: 0\n1: 0\n",
                   "huge.cbc": "cbc m=100000000 n=1\n0: 99999999\n"}


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    """A directory holding GRAMMAR_LAYOUTS: valid, invalid for k >= 2 and
    past the layout cap."""
    root = tmp_path_factory.mktemp("grammar")
    for name, text in GRAMMAR_LAYOUTS.items():
        (root / name).write_text(text)
    return root


def outcome(entry, argv, cwd):
    """(exit code, stdout, stderr) of ``entry(argv)`` run in ``cwd`` with
    INTRO_LAYOUT on stdin; argparse's SystemExit gives the exit code, and
    any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    stdin, home = sys.stdin, os.getcwd()
    try:
        sys.stdin = io.StringIO(INTRO_LAYOUT)
        os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


COMMANDS = ("construct", "verify", "bound", "plan", "simulate", "search")
VALUES = [str(v) for v in (-1, *range(9), 12, 2**64)]
# --batches and --budget bound a run's work, so they draw only small values.
SMALL_VALUES = VALUES[:-1]
NOISE = [["-h"], ["--help"], ["--"], ["--bogus"], ["bogus"], ["-x", "1"], ["7"]]


def flag(*spellings, values=VALUES):
    return st.tuples(st.sampled_from(spellings), st.sampled_from(values)).map(list)


@st.composite
def cli_argvs(draw):
    """Argument lists from the CLI grammar: a command with its flags in any
    order, one of them sometimes dropped, plus abbreviations, help, ``--``
    and stray words; or no command at all."""
    head = draw(st.sampled_from([*COMMANDS, "bogus", "sear", "-h", "--help", "--", "--json",
                                 None]))
    if head is None:
        return []
    file = st.sampled_from([*GRAMMAR_LAYOUTS, "-", "missing.cbc"]).map(lambda f: [f])
    json_flag = st.sampled_from([["--json"], ["--jso"], ["--js"]])
    nkm = [flag("-n"), flag("-k"), flag("-m")]
    # Half of the batch sizes and items come from 0..3, near the three-item layouts.
    fits = st.one_of(st.sampled_from(VALUES[1:5]), st.sampled_from(VALUES))
    layout_k = st.tuples(st.just("-k"), fits).map(list)
    items = st.lists(fits, min_size=1, max_size=3)  # after the file: both are positional
    required, optional = {
        "construct": ([flag("-k"), flag("-m")],
                      [flag("-n"), flag("-c"), json_flag,
                       flag("--method", "--meth",
                            values=["auto", *cli.construct.BUILDERS, "uniform", "bogus"])]),
        "verify": ([file, layout_k], [json_flag]),
        "bound": (nkm, [json_flag]),
        "plan": ([st.tuples(file, items).map(lambda pair: pair[0] + pair[1]), layout_k],
                 [json_flag]),
        "simulate": ([file, layout_k],
                     [json_flag, flag("--batches", "--bat", values=SMALL_VALUES),
                      flag("--seed", "--se", values=VALUES)]),
        "search": (nkm, [json_flag]),
    }.get(head, ([], [json_flag]))
    pieces = [draw(p) for p in required]
    if pieces and draw(st.integers(0, 3)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    pieces += [draw(p) for p in draw(st.lists(st.sampled_from(optional), max_size=3))]
    if draw(st.integers(0, 2)) == 0:
        pieces.append(draw(st.sampled_from(NOISE)))
    pieces = draw(st.permutations(pieces))
    if head == "search":
        # Last, so that it wins over any budget before it.
        pieces.append(draw(flag("--budget", "--bud", values=SMALL_VALUES)))
    return [head, *(token for piece in pieces for token in piece)]


@settings(max_examples=300)
@given(argv=cli_argvs())
@example(argv=["verify", "crowded.cbc", "-k", "2"])
@example(argv=["plan", "crowded.cbc", "0", "1", "-k", "2", "--json"])
@example(argv=["simulate", "-", "-k", "3", "--bat", "2", "--se", "18446744073709551615"])
@example(argv=["construct", "-n", "7", "-k", "3", "-m", "4", "--meth", "m-plus-1"])
@example(argv=["search", "-n", "5", "-k", "2", "-m", "3", "--bud", "4"])
@example(argv=["search", "-n", "5", "-k", "2", "-m", "3", "--", "--budget", "4"])
@example(argv=["bound", "-n", "5", "-k", "2", "-m", "3", "--bogus", "7"])
@example(argv=[])
def test_dispatch_matches_the_top_level_parser(grammar_dir, argv):
    # cli.main hands a call that starts with a command word straight to
    # that command's parser; everything it prints and returns must be what
    # the top-level parser gives, and every argument list must end with an
    # exit code of 0-3 and no exception but argparse's SystemExit.
    got = outcome(main, argv, grammar_dir)
    assert got == outcome(reference_main, argv, grammar_dir)
    assert got[0] in (0, 1, 2, 3)


def test_main_reads_sys_argv_and_reports_leftover_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cbckit", "bound", "-n", "43", "-k", "4", "-m", "6"])
    assert main() == 0
    assert capsys.readouterr().out == "n=43 k=4 m=6\nexact N = 124 (source: range-a)\n"
    with pytest.raises(SystemExit) as exit_:
        main(["search", "-n", "5", "-k", "2", "-m", "3", "--bogus", "x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cbckit [-h] {construct,verify,bound,plan,simulate,search}")
    assert err.endswith("cbckit: error: unrecognized arguments: --bogus x\n")
