"""The scripts under scripts/: the census, run end to end as a subprocess and
in-process, and the mutant list of scripts/mutants.py."""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cbckit import bounds

ROOT = Path(__file__).resolve().parents[1]
CENSUS = ROOT / "scripts" / "census.py"


def run_census(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(CENSUS), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "args, line",
    [
        (("-k", "4", "-m", "6", "--step", "7"),
         "done: every layout certified; all 7 range-a layouts met the counting bound"),
        (("-k", "6", "-m", "15", "--step", "1000"),
         "done: every layout certified; all 14 range-a layouts met the counting bound"),
        (("-k", "5", "-m", "6", "--settle-budget", "20000"),
         "  n=19: unresolved (search budget exhausted after 20000 nodes (best constructive upper bound 57))"),
    ],
    ids=["k4-m6-step7", "k6-m15-step1000", "k5-m6-settle20000"],
)
def test_experiment_script_runs(args, line):
    result = run_census(*args)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert line in lines
    assert lines[-1].startswith("done: every layout certified; all ")


@pytest.mark.parametrize(
    "args",
    [
        ("--step", "0"),
        ("--step", "-1"),
        ("-k", "1", "-m", "6"),
        ("-k", "7", "-m", "6"),
        ("--settle-budget", "-1"),
    ],
)
def test_census_rejects_nonsense_arguments_as_a_usage_error(args):
    result = run_census(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error:" in result.stderr


def test_census_class_counts_on_the_small_grid():
    # Every n <= (k-1)*C(m,k-1) with 2 <= k <= m <= 8, every layout
    # certified on the way.  A new regime shows up as a change of these counts.
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    counts = Counter(
        cls for m in range(2, 9) for k in range(2, m + 1) for _, cls, _ in census.census(k, m)
    )
    assert counts == {
        "exact with a layout": 1553,
        "exact without one": 10,
        "one apart": 42,
        "lower bound only": 152,
    }


def test_census_asks_known_n_once_per_unsupported_n(monkeypatch):
    # construct_best's Unsupported carries the verdict it computed, and the
    # census reads it rather than asking known_n again.  The census is
    # loaded after the patch, so a name it imports is counted too.
    calls = Counter()
    real = bounds.known_n

    def counted(params):
        calls[params.n] += 1
        return real(params)

    monkeypatch.setattr(bounds, "known_n", counted)
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    unsupported = [n for n, cls, _ in census.census(4, 6)
                   if cls in ("exact without one", "lower bound only")]
    assert unsupported == list(range(8, 15))
    assert [calls[n] for n in unsupported] == [1] * 7


def test_census_refuses_to_run_with_its_asserts_off(monkeypatch):
    # Under -O every certification would pass unchecked.
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    result = run_census("-k", "4", "-m", "6", "--step", "7")
    assert result.returncode == 2
    assert result.stdout == ""


def test_every_mutant_still_applies():
    # scripts/mutants.py runs each mutant against its tests (a CI step);
    # here only each entry's old text is checked to occur once, and its
    # test files to exist, so a refactor that moves a line updates the entry.
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 15
    assert mutants.stale_entries() == []
