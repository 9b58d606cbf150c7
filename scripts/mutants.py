"""Mutant gate: break the package in one place at a time; the named tests must notice.

Each entry of ``MUTANTS`` names a file under the repository root, an exact
old text that must occur there exactly once, the text that replaces it, and
the test files (or pytest node ids) that must fail on the result.  The
script copies ``src/``, ``tests/``, ``scripts/`` and ``pyproject.toml`` to
one temporary directory per CPU (``os.cpu_count()``), runs the union of the
named tests once unmutated, then applies each mutant alone in a free copy
and runs ``pytest -x`` on its tests, one mutant per copy at a time.  It
exits 1 if a mutant survives (its tests pass), if an old text no longer
matches exactly once, or if the unmutated tests fail; a refactor that moves
a mutated line updates its entry.  Stdlib only.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml")
# pytest's exit codes: 1 some test failed, 2 interrupted (a collection
# error); anything else is a fault of the entry, not a kill.
KILLED = (1, 2)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CORE = "src/cbckit/core.py"
CONSTRUCT = "src/cbckit/construct.py"
HALL = "src/cbckit/hall.py"
CWC = "src/cbckit/cwc.py"
BOUNDS = "src/cbckit/bounds.py"
ORACLE = "src/cbckit/oracle.py"
ERRORS = "src/cbckit/errors.py"
CLI = "src/cbckit/cli.py"

MUTANTS = (
    # parse decodes a new line from its decoded head inline, else from the
    # left; each check it makes on a token must be there.
    Mutant("parse: known-head ascending test dropped", CORE,
           "s is not None and mask < (bit := 1 << s):",
           "s is not None and (bit := 1 << s):",
           ("tests/test_core.py",)),
    Mutant("parse: known-head comparison flipped", CORE,
           "s is not None and mask < (bit := 1 << s):",
           "s is not None and mask > (bit := 1 << s):",
           ("tests/test_core.py",)),
    Mutant("parse: left-path ascending test dropped", CORE,
           "if not prev < s < m:",
           "if not -1 < s < m:",
           ("tests/test_core.py",)),
    Mutant("parse: leading-space test dropped", CORE,
           "rest == \" \" + \" \".join(tokens)",
           "rest.lstrip(\" \") == \" \".join(tokens)",
           ("tests/test_core.py",)),
    Mutant("parse: canonical-spelling comparison flipped", CORE,
           "canonical = rest == ",
           "canonical = rest != ",
           ("tests/test_core.py",)),
    Mutant("parse: spelling test dropped", CORE,
           "if str(s) == tok:",
           "if True:",
           ("tests/test_core.py",)),
    Mutant("parse: range test dropped", CORE,
           "if not prev < s < m:",
           "if not prev < s:",
           ("tests/test_core.py",)),
    # A new head is taken from its head's head h2 and its last token b2,
    # then the line's end bit goes through the known-head test above, so
    # h2 < b2 < bit holds only while both comparisons stand.
    Mutant("parse: head's-head ascending test dropped", CORE,
           "s2 is not None and h2 < (b2 := 1 << s2):",
           "s2 is not None and (b2 := 1 << s2):",
           ("tests/test_core.py::test_lines_off_a_head_of_head_match_the_reference",)),
    Mutant("parse: end not tested above a head taken from its head's head", CORE,
           "s is not None and mask < (bit := 1 << s):",
           "s is not None and (bit := 1 << s):",
           ("tests/test_core.py::test_lines_off_a_head_of_head_match_the_reference",)),
    Mutant("serialize: head's head cut at the wrong top bit", CORE,
           "before = head ^ (1 << mid)",
           "before = head ^ (1 << top)",
           ("tests/test_core.py::test_every_level_and_range_a_round_trip_line_by_line",)),
    # Range-a in closed form.
    Mutant("range-a: deletions counted from bit_length() - 1", CONSTRUCT,
           "(s >> (s - t).bit_length()).bit_count()",
           "(s >> (s - t).bit_length() - 1).bit_count()",
           ("tests/test_construct.py",)),
    Mutant("range-a: partial step dropped", CONSTRUCT,
           " - (s in partial)",
           "",
           ("tests/test_construct.py",)),
    Mutant("range-a: walk started at t", CONSTRUCT,
           "w_masks_colex(m, k - 1, t | (t + 1))",
           "w_masks_colex(m, k - 1, t)",
           ("tests/test_construct.py",)),
    # verify_hc2 counts a nearly full level by its missing sets.
    Mutant("verify_hc2: missing count + 1", HALL,
           "range(full - held.get(u, 0))",
           "range(full + 1 - held.get(u, 0))",
           ("tests/test_hall.py",)),
    Mutant("verify_hc2: missing count - 1", HALL,
           "range(full - held.get(u, 0))",
           "range(full - 1 - held.get(u, 0))",
           ("tests/test_hall.py",)),
    Mutant("verify_hc2: base with C(m, s) for C(r, s)", HALL,
           "base += full * comb(r, s)",
           "base += full * comb(m, s)",
           ("tests/test_hall.py",)),
    Mutant("verify_hc2: the base > r walk skipped", HALL,
           "        if base > r:",
           "        if False:",
           ("tests/test_hall.py",)),
    Mutant("verify_hc2: walk in reversed server order", HALL,
           "itertools.combinations(range(m), r)",
           "itertools.combinations(range(m - 1, -1, -1), r)",
           ("tests/test_hall.py",)),
    # Independent pairs: verify_hc1 against verify_hc2, find_sdr against
    # the recursive reference matcher.
    Mutant("verify_hc1: batches of k - 1 items", HALL,
           "    r = min(k, n)\n    if r == 0:\n        return ValidityReport(True)\n    matched",
           "    r = min(k - 1, n)\n    if r == 0:\n        return ValidityReport(True)\n    matched",
           ("tests/test_hall.py",)),
    Mutant("find_sdr: highest unseen server first", HALL,
           "                bit = free & -free",
           "                bit = 1 << free.bit_length() - 1",
           ("tests/test_hall.py",)),
    # find_sdr's inline two steps: the holder of the lowest server moves to
    # its next lowest server only if that is free, and both moves are
    # recorded.  Dropping `& ~low` there is an equivalent mutant (the search
    # replays the steps), so it has no entry.
    Mutant("find_sdr: inline step without its free-server test", HALL,
           "if bit and bit not in owner:",
           "if bit:",
           ("tests/test_hall.py",)),
    Mutant("find_sdr: inline step leaves the holder's server", HALL,
           "                taken[holder] = bit\n",
           "",
           ("tests/test_hall.py",)),
    Mutant("find_sdr: inline step leaves the new owner unrecorded", HALL,
           "                owner[bit] = holder\n",
           "",
           ("tests/test_hall.py",)),
    # colex_level by Pascal's rule.
    Mutant("colex_level: Pascal slice one short", CWC,
           "masks[:comb(top, j - 1)]",
           "masks[:comb(top, j - 1) - 1]",
           ("tests/test_cwc.py",)),
    Mutant("colex_level: top range one short", CWC,
           "range(j - 1, m - w + j)",
           "range(j - 1, m - w + j - 1)",
           ("tests/test_cwc.py",)),
    Mutant("colex_level: w <= 1 rule removed", CWC,
           "if w <= 1 or w > m - w:",
           "if w > m - w:",
           ("tests/test_cwc.py",)),
    # The one choice of code, and the uniform layout's cap before it.
    Mutant("best_code: greedy wins a size tie", CWC,
           "residue.size >= len(greedy)",
           "residue.size > len(greedy)",
           ("tests/test_cwc.py::test_best_d4_code_words_are_pinned",)),
    Mutant("construct_uniform: bits cap dropped", CONSTRUCT,
           "if bits > MAX_LAYOUT_BITS and",
           "if False and",
           ("tests/test_construct.py::test_uniform_layout_cap_boundary",)),
    Mutant("construct_uniform: stops at 14,000 bits, not past them", CONSTRUCT,
           "bits.bit_length() > MAX_PRINTED_BITS",
           "bits.bit_length() >= MAX_PRINTED_BITS",
           ("tests/test_construct.py::test_uniform_cap_stops_multiplying_past_14000_bits",)),
    # The one helper that writes a count into a message.
    Mutant("count_text: exact only below 14,000 bits", ERRORS,
           "width <= MAX_PRINTED_BITS",
           "width < MAX_PRINTED_BITS",
           ("tests/test_errors.py",)),
    # Range-b in closed form.
    Mutant("range-b: one word short", CONSTRUCT,
           "sorted(code.words)[:full_steps + 1]",
           "sorted(code.words)[:full_steps]",
           ("tests/test_construct.py",)),
    Mutant("range-b: words added once", CONSTRUCT,
           "    items = full * 2",
           "    items = full * 1",
           ("tests/test_construct.py",)),
    Mutant("range-b: filter for filterfalse", CONSTRUCT,
           "itertools.filterfalse(deleted.__contains__",
           "filter(deleted.__contains__",
           ("tests/test_construct.py",)),
    Mutant("range-b: partial step one short", CONSTRUCT,
           "supersets_adding(words[-1], singles)[:leftover]",
           "supersets_adding(words[-1], singles)[:leftover - 1]",
           ("tests/test_construct.py",)),
    Mutant("range-b: partial step dropped", CONSTRUCT,
           "    if leftover:\n        deleted.update(",
           "    if False:\n        deleted.update(",
           ("tests/test_construct.py",)),
    # The counting inequality and the oracle's profile caps.
    Mutant("inequality_slack: A_i left out", BOUNDS,
           "enumerate(counts[:i], 1)",
           "enumerate(counts[:i - 1], 1)",
           ("tests/test_bounds.py",)),
    Mutant("_profiles: no inequality cap", ORACLE,
           "bounds.inequality_slack(profile, m, j))",
           "left)",
           ("tests/test_oracle.py::test_profiles_match_a_filter_over_all_compositions",
            "tests/test_oracle.py::test_search_node_counts_are_pinned")),
    # The oracle against the closed forms, and settle_gap's bracket.
    Mutant("range-a: divisor m - k + 2", BOUNDS,
           "(ceiling - n) // (m - k + 1)",
           "(ceiling - n) // (m - k + 2)",
           ("tests/test_oracle.py::test_search_matches_every_formula_on_the_small_grid",)),
    Mutant("settle_gap: search from lower + 1", ORACLE,
           "_search_targets(n, k, m, verdict.lower, verdict.upper, budget)",
           "_search_targets(n, k, m, verdict.lower + 1, verdict.upper, budget)",
           ("tests/test_oracle.py::test_settle_gap_budget_exhaustion",
            "tests/test_oracle.py::test_settle_gap_returns_upper_when_the_finished_search_finds_nothing",
            "tests/test_oracle.py::test_settle_gap_walks_far_deeper_than_the_recursion_limit",
            "tests/test_oracle.py::test_walk_skips_branches_that_cannot_fill_a_high_target")),
    Mutant("settle_gap: spent budget asks known_n again", ORACLE,
           "_constructive_upper(n, k, m) if stop is None else stop",
           "_constructive_upper(n, k, m)",
           ("tests/test_oracle.py::test_settle_gap_budget_exhaustion_asks_known_n_once",)),
    # simulate plans each batch with find_sdr itself, so it keeps
    # plan_batch's two guarantees, and checks its flags before the layout.
    Mutant("simulate: deficiency names positions, not batch items", CLI,
           "tuple(batch[j] for j in servers.items)",
           "tuple(j for j in servers.items)",
           ("tests/test_cli.py::test_simulate_invalid_layout_exits_1",)),
    Mutant("simulate: repeated-server check removed", CLI,
           "        if len(set(servers)) != k:",
           "        if False:",
           ("tests/test_cli.py::test_simulate_exits_2_when_a_plan_reads_one_server_twice",)),
    # simulate's block sampler against next_u64 and the README's list sampler.
    Mutant("draws: lane mask dropped before the second multiply", CLI,
           "z = ((z ^ (z >> 27)) & mask) * SPLITMIX_MULT2 & mask",
           "z = (z ^ (z >> 27)) * SPLITMIX_MULT2 & mask",
           ("tests/test_cli.py::test_draws_match_repeated_next_u64",)),
    Mutant("draws: state advanced count - 1 steps", CLI,
           "self.state = (self.state + count * SPLITMIX_INCREMENT) & _MASK64",
           "self.state = (self.state + (count - 1) * SPLITMIX_INCREMENT) & _MASK64",
           ("tests/test_cli.py::test_draws_match_repeated_next_u64",)),
    Mutant("sample_batches: last partial block drawn at full size", CLI,
           "    yield rng.draws(total)\n",
           "    yield rng.draws(DRAW_BLOCK)\n",
           ("tests/test_cli.py::test_sample_batches_match_the_list_sampler",)),
    Mutant("simulate: layout read before --batches and --seed", CLI,
           "def _cmd_simulate(args) -> int:\n",
           "def _cmd_simulate(args) -> int:\n    _read_layout(args)\n",
           ("tests/test_cli.py::test_exit_code_table_rows",)),
)


def stale_entries(root: Path = ROOT) -> list[str]:
    """One line per entry whose old text does not occur exactly once in its
    file, or that names a test file that does not exist."""
    problems = []
    for mutant in MUTANTS:
        found = (root / mutant.path).read_text().count(mutant.old)
        if found != 1:
            problems.append(f"{mutant.name}: old text found {found} times in {mutant.path}")
        for test in mutant.tests:
            if not (root / test.partition("::")[0]).is_file():
                problems.append(f"{mutant.name}: no test file {test}")
    return problems


def _pytest(work: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=work, env=env, capture_output=True).returncode


def _try(mutant: Mutant, copies: queue.Queue) -> tuple[str, float, str | None]:
    """Apply ``mutant`` in a free copy, run its tests, restore the copy."""
    work = copies.get()
    target = work / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.old, mutant.new, 1))
    start = time.perf_counter()
    try:
        code = _pytest(work, mutant.tests)
    finally:
        target.write_text(original)
        copies.put(work)
    seconds = time.perf_counter() - start
    if code in KILLED:
        return "killed", seconds, None
    if code == 0:
        return "SURVIVED", seconds, f"{mutant.name}: survived {' '.join(mutant.tests)}"
    return "ERROR", seconds, f"{mutant.name}: pytest exit {code}"


def run(works: list[Path]) -> list[str]:
    """Run every mutant, each in one of the copies ``works``; one line per failure of the gate."""
    union = sorted({test for mutant in MUTANTS for test in mutant.tests})
    code = _pytest(works[0], union)
    if code != 0:
        return [f"the unmutated tests fail (pytest exit {code}): {' '.join(union)}"]
    copies: queue.Queue = queue.Queue()
    for work in works:
        copies.put(work)
    failures = []
    with ThreadPoolExecutor(len(works)) as pool:
        results = pool.map(lambda mutant: _try(mutant, copies), MUTANTS)
        for mutant, (verdict, seconds, failure) in zip(MUTANTS, results):
            print(f"{verdict:8} {seconds:5.1f} s  {mutant.name}", flush=True)
            if failure:
                failures.append(failure)
    return failures


def _copy(work: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, work / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(source, work / name)


def main() -> int:
    problems = stale_entries()
    if not problems:
        with tempfile.TemporaryDirectory(prefix="cbckit-mutants-") as tmp:
            count = min(os.cpu_count() or 1, len(MUTANTS))
            works = [Path(tmp) / str(i) for i in range(count)]
            for work in works:
                _copy(work)
            problems = run(works)
    for line in problems:
        print(f"mutants: {line}", file=sys.stderr)
    if problems:
        return 1
    print(f"mutants: all {len(MUTANTS)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
