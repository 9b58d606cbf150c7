#!/usr/bin/env python3
"""Sweep the deletion-construction range for one (k, m) and tabulate results.

For every n between C(m,k-2) and (k-1)*C(m,k-1) the construction is built,
verified, and compared against the counting lower bound.  In this range the
two always coincide, which is the point: the bound is tight and the
construction optimal.

Usage: python scripts/optimality_sweep.py [-k 4] [-m 6] [--step 1]
"""

from __future__ import annotations

import argparse
from math import comb

from cbckit.bounds import lower_bound
from cbckit.construct import construct_range_a
from cbckit.core import profile, total_storage
from cbckit.hall import verify_hc2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=4)
    ap.add_argument("-m", type=int, default=6)
    ap.add_argument("--step", type=int, default=1, help="stride through the n range")
    args = ap.parse_args()

    k, m = args.k, args.m
    lo, hi = comb(m, k - 2), (k - 1) * comb(m, k - 1)
    print(f"k={k} m={m}: sweeping n in [{lo}, {hi}]")
    print(f"{'n':>5} {'N':>6} {'lower':>6} {'gap':>4} {'valid':>6}  profile (A_1..A_k)")
    worst_gap = 0
    for n in range(lo, hi + 1, args.step):
        system = construct_range_a(n, k, m)
        built = total_storage(system)
        bound = lower_bound(n, k, m).lower
        valid = verify_hc2(system, k).valid
        gap = built - bound
        worst_gap = max(worst_gap, gap)
        counts = profile(system, k).counts
        print(f"{n:>5} {built:>6} {bound:>6} {gap:>4} {str(valid):>6}  {counts}")
        assert valid and gap == 0
    print(f"done: every construction met the lower bound (worst gap {worst_gap})")


if __name__ == "__main__":
    main()
