"""The two experiment scripts under scripts/, run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return result.stdout


@pytest.mark.parametrize(
    "name, args, line",
    [
        ("optimality_sweep.py", ("-k", "4", "-m", "6", "--step", "7"),
         "done: every construction met the lower bound (worst gap 0)"),
        ("gap_census.py", ("-k", "5", "-m", "6", "--settle-budget", "20000"),
         "  n=19: unresolved (gap for n=19 k=5 m=6 unresolved after 20000 nodes)"),
    ],
    ids=["optimality_sweep", "gap_census"],
)
def test_experiment_script_runs(name, args, line):
    assert line in run_script(name, *args).splitlines()
