#!/usr/bin/env python3
"""Census of the code-construction range below C(m,k-2) for one (k, m).

Half of the instances there are provably optimal; the other half carry a
lower/upper pair one apart, with the truth undetermined by the formulas.
The census prints which is which, and optionally asks the exhaustive
oracle to settle the open ones (hopeless beyond toy sizes; the point is
that it gives up loudly rather than guessing).

Usage: python scripts/gap_census.py [-k 5] [-m 8] [--settle-budget 0]
"""

from __future__ import annotations

import argparse
from math import comb

from cbckit.bounds import known_n
from cbckit.construct import construct_range_b
from cbckit.core import Params, total_storage
from cbckit.cwc import best_d4_code
from cbckit.errors import Unknown
from cbckit.hall import verify_hc2
from cbckit.oracle import settle_gap


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=5)
    ap.add_argument("-m", type=int, default=8)
    ap.add_argument(
        "--settle-budget",
        type=int,
        default=0,
        help="oracle budget per open instance, in search nodes (profile "
        "values and item placements tried); 0 skips settling",
    )
    args = ap.parse_args()
    if args.settle_budget < 0:
        ap.error(f"--settle-budget must be >= 0, got {args.settle_budget}")

    k, m = args.k, args.m
    ceiling = comb(m, k - 2)
    code = best_d4_code(m, k - 3)
    lo = ceiling - (m - k + 1) * code.size
    print(f"k={k} m={m}: code size {code.size}, range n in [{lo}, {ceiling}]")
    open_instances = []
    for n in range(lo, ceiling + 1):
        system = construct_range_b(n, k, m)
        built = total_storage(system)
        verdict = known_n(Params(n, k, m))
        assert verify_hc2(system, k).valid
        if verdict.exact is not None:
            status = f"optimal (N = {verdict.exact})"
            assert built == verdict.exact
        else:
            status = f"open: N in {{{verdict.lower}, {verdict.upper}}}"
            open_instances.append(n)
        print(f"  n={n:>4}  built N={built:>5}  {status}")

    if args.settle_budget and open_instances:
        print(f"settling {len(open_instances)} open instances "
              f"(budget {args.settle_budget} nodes each)")
        for n in open_instances:
            try:
                exact = settle_gap(n, k, m, budget=args.settle_budget)
                print(f"  n={n}: settled, N = {exact}")
            except Unknown as exc:  # budget spent
                print(f"  n={n}: unresolved ({exc})")


if __name__ == "__main__":
    main()
