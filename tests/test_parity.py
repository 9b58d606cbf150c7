"""Pins of outputs that the regime table must reproduce exactly.

The digests and messages below were captured from the code as it stood
before ``bounds.REGIMES`` existed, when ``known_n``, ``construct_best``
and the CLI each spelled the regimes out on their own.
"""

import argparse
import contextlib
import hashlib
import io
from math import comb

import pytest

from cbckit import cli
from cbckit.bounds import known_n
from cbckit.construct import construct_best, construct_range_a, construct_range_b, serialize_trace
from cbckit.core import Params, serialize, total_storage
from cbckit.errors import CbcError, Unsupported


def grid(max_m, max_n):
    for m in range(2, max_m + 1):
        for k in range(2, m + 1):
            for n in range(1, min((k - 1) * comb(m, k - 1) + 2, max_n) + 1):
                yield n, k, m


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_known_n_and_construct_best_digest():
    # Every m <= 9, 2 <= k <= m, n up to two past the large-n floor (at
    # most 120): 2,126 instances, each the repr of known_n followed by the
    # built layout or the error's type and message.  known_n's upper is the
    # storage construct_best builds, and None exactly where it builds none.
    h = hashlib.sha256()
    count = 0
    for n, k, m in grid(9, 120):
        verdict = known_n(Params(n, k, m))
        text = repr(verdict)
        try:
            system = construct_best(n, k, m)[0]
        except Unsupported as exc:
            assert verdict.upper is None, (n, k, m)
            text += f"{type(exc).__name__} {exc}"
        else:
            assert verdict.upper == total_storage(system), (n, k, m)
            text += serialize(system)
        h.update(text.encode())
        count += 1
    assert count == 2126
    assert h.hexdigest() == "22bf71ca2550b67d839ac189021a74a718865b2debd87c65bbf1e25e137ee066"


def test_deletion_construction_traces_digest():
    # Both deletion constructions share one step loop; their traces (or
    # errors) for 3 <= k <= m <= 9, n <= min((k-1)*C(m,k-2), 100): 3,638.
    h = hashlib.sha256()
    count = 0
    for m in range(3, 10):
        for k in range(3, m + 1):
            for n in range(1, min(comb(m, k - 2) * (k - 1), 100) + 1):
                for build in (construct_range_a, construct_range_b):
                    try:
                        text = serialize_trace(build(n, k, m)[1])
                    except CbcError as exc:
                        text = f"{type(exc).__name__} {exc}"
                    h.update(text.encode())
                    count += 1
    assert count == 3638
    assert h.hexdigest() == "251db848446e4ea57902ba8d1357cb5e0afea742fe1f233dc25384fc0f108c21"


FORCED = ["auto", "trivial", "m-equals-k", "m-plus-1", "large-n", "range-a", "range-b"]


def test_forced_construct_cli_digest():
    # Exit code, stdout and stderr of `construct --json` for every method on
    # m <= 7, n <= 24, and of `--method uniform` for every c < k: 2,569 runs.
    h = hashlib.sha256()
    codes = {0: 0, 2: 0}
    for m in range(2, 8):
        for k in range(2, m + 1):
            for n in range(1, min((k - 1) * comb(m, k - 1) + 2, 24) + 1):
                for method in FORCED:
                    argv = ["construct", "-n", str(n), "-k", str(k), "-m", str(m),
                            "--method", method, "--json"]
                    result = cli_run(argv)
                    codes[result[0]] += 1
                    h.update(repr((argv, *result)).encode())
            for c in range(1, k):
                argv = ["construct", "-k", str(k), "-m", str(m), "-c", str(c),
                        "--method", "uniform", "--json"]
                result = cli_run(argv)
                codes[result[0]] += 1
                h.update(repr((argv, *result)).encode())
    assert codes == {0: 725, 2: 1844}
    assert h.hexdigest() == "2e69f06520c6073b349d5da78b11a26b22b44e25b7312c82e6d2f49c7b89a58f"


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["-n", "5", "-k", "3", "-m", "4", "--method", "m-equals-k"],
         "construct: method m-equals-k needs m == k, got k=3 m=4\n"),
        (["-n", "2", "-k", "3", "-m", "3", "--method", "m-equals-k"],
         "construct: need n >= k, got n=2 k=3\n"),
        (["-n", "7", "-k", "3", "-m", "4", "--method", "m-plus-1"],
         "construct: method m-plus-1 needs n == m+1, got n=7 m=4\n"),
        (["-n", "9", "-k", "3", "-m", "4", "--method", "trivial"],
         "construct: trivial layout needs n <= m, got n=9 m=4\n"),
        (["-k", "3", "-m", "4", "--method", "range-a"], "construct: -n is required\n"),
        (["-k", "3", "-m", "4", "--method", "uniform"],
         "construct: --method uniform requires -c\n"),
    ],
)
def test_forced_method_out_of_range_messages(argv, stderr):
    assert cli_run(["construct", *argv, "--json"]) == (2, "", stderr)


def test_method_choices_in_table_order():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["construct"]._actions if a.dest == "method")
    assert list(method.choices) == [
        "auto", "trivial", "m-equals-k", "m-plus-1", "large-n", "range-a", "range-b", "uniform",
    ]
    assert method.default == "auto"
