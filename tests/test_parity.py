"""Pins of outputs that the regime table and the text layer must reproduce exactly.

The digests and messages below were captured from the code as it stood
before ``bounds.REGIMES`` existed, when ``known_n``, ``construct_best``
and the CLI each spelled the regimes out on their own; the design-grid
text digest was captured when ``serialize`` still rendered every line
token by token.
"""

import argparse
import contextlib
import hashlib
import io
from math import comb

import pytest

from cbckit import cli
from cbckit.bounds import known_n
from cbckit.construct import (
    construct_best,
    construct_range_a,
    construct_range_b,
    construct_uniform,
)
from cbckit.core import Params, parse, serialize, total_storage
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
    # storage construct_best builds, and None exactly where it builds none;
    # there the message names the bracket, exact N or the lower bound.
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
    assert h.hexdigest() == "2825734427bc766af0f85470f90d056c8e0cc8b19dd0fc410000aa11a1b4b21e"


# Every constructive regime with m from 6 to 20, as (n, k, m), and three
# uniform layouts as (k, m, c): the layouts a design pass builds, up to
# 10,000 lines with 85 distinct sets and 6,188 lines all distinct.
DESIGN_ROWS = [
    (10, 3, 12), (300, 6, 6), (13, 5, 12), (10000, 4, 9), (5000, 5, 12),
    (43, 4, 6), (200, 4, 10), (1000, 5, 12), (2000, 6, 13), (3000, 7, 14),
    (1500, 6, 15), (6188, 7, 17), (500, 5, 16), (600, 5, 17), (700, 5, 18),
    (4200, 6, 20),
]
DESIGN_UNIFORM = [(5, 8, 2), (7, 12, 4), (6, 14, 3)]


def test_design_grid_text_digest():
    # serialize of each design layout, 546,414 characters in all; each
    # text parses back to its layout.  The uniform rows take best_code's
    # words, the residue class on (5, 8, 2)'s size tie.
    h = hashlib.sha256()
    systems = [construct_best(n, k, m)[0] for n, k, m in DESIGN_ROWS]
    systems += [construct_uniform(c, k, m) for k, m, c in DESIGN_UNIFORM]
    size = 0
    for system in systems:
        text = serialize(system)
        assert parse(text) == system
        h.update(text.encode())
        size += len(text)
    assert size == 546414
    assert h.hexdigest() == "45809e78a202cfd77d9eaa08f2d8fcdd56f732923138acb6b878314a5384cded"


def test_deletion_construction_layouts_digest():
    # Both deletion constructions share one step loop; their layouts (or
    # errors) for 3 <= k <= m <= 9, n <= min((k-1)*C(m,k-2), 100): 3,638.
    h = hashlib.sha256()
    count = 0
    for m in range(3, 10):
        for k in range(3, m + 1):
            for n in range(1, min(comb(m, k - 2) * (k - 1), 100) + 1):
                for build in (construct_range_a, construct_range_b):
                    try:
                        text = serialize(build(n, k, m))
                    except CbcError as exc:
                        text = f"{type(exc).__name__} {exc}"
                    h.update(text.encode())
                    count += 1
    assert count == 3638
    assert h.hexdigest() == "cf11f5189d19557f596b44fabd6c3c294cd2aea2ca2e0d05a87aba9d21aaa333"


FORCED = ["auto", "trivial", "m-equals-k", "m-plus-1", "large-n", "range-a", "range-b"]


def test_forced_construct_cli_digest():
    # Exit code, stdout and stderr of `construct --json` for every method on
    # m <= 7, n <= 24, and of `--method uniform` for every c < k: 2,569 runs.
    # Uniform layouts take best_code's words; Unsupported names its bracket.
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
    assert h.hexdigest() == "cbb7adec939b9a8eaa305a7de244727efbb4a8b446f5a4bb714bc8bbc4d06c1f"


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
