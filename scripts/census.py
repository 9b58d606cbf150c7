#!/usr/bin/env python3
"""Census of what is known of N(n,k,m) for one (k, m), n up to (k-1)*C(m,k-1).

Each n falls in one class: exact with a layout, exact without one (no
builder covers it, as at n = m+2), a bracket one apart, or a lower bound
only.  Everything regime-specific comes from construct.construct_best
and the bounds.known_n verdict that it returns, or carries in Unsupported.
Every layout is certified: verify_hc2 accepts it, its storage equals the
bracket's upper end (and the exact value, when set) and is at least the
counting bound, which it meets wherever range-a applies.  --settle-budget
asks the exhaustive oracle to settle each bracket (hopeless beyond toy
sizes; the point is that it gives up loudly rather than guessing).

Usage: python scripts/census.py [-k 5] [-m 8] [--step 1] [--settle-budget 0]
"""

from __future__ import annotations

import argparse
from collections import Counter
from math import comb

from cbckit.bounds import lower_bound
from cbckit.construct import construct_best
from cbckit.core import total_storage
from cbckit.errors import BudgetExceeded, Unsupported
from cbckit.hall import verify_hc2
from cbckit.oracle import settle_gap

CLASSES = ("exact with a layout", "exact without one", "one apart", "lower bound only")


def census(k: int, m: int, step: int = 1):
    """Yield (n, class, verdict) for n = 1, 1+step, ... up to (k-1)*C(m,k-1),
    after certifying each n's layout."""
    for n in range(1, (k - 1) * comb(m, k - 1) + 1, step):
        try:
            system, verdict = construct_best(n, k, m)
        except Unsupported as exc:
            verdict = exc.verdict
            yield n, CLASSES[3 if verdict.exact is None else 1], verdict
            continue
        built, floor = total_storage(system), lower_bound(n, k, m).lower
        assert verify_hc2(system, k).valid, (n, k, m)
        # A bracket is one apart, with the layout at its upper end.
        target = verdict.lower + 1 if verdict.exact is None else verdict.exact
        assert built == verdict.upper == target >= floor, (n, k, m)
        # Wherever range-a applies, its layout meets the counting bound.
        assert built == floor or "range-a" not in verdict.source.split(","), (n, k, m)
        yield n, CLASSES[2 if verdict.exact is None else 0], verdict


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=5)
    ap.add_argument("-m", type=int, default=8)
    ap.add_argument("--step", type=int, default=1, help="stride through n")
    ap.add_argument(
        "--settle-budget",
        type=int,
        default=0,
        help="oracle budget per bracket, in search nodes (profile values and "
        "item placements tried); 0 skips settling",
    )
    args = ap.parse_args()
    k, m = args.k, args.m
    if not 2 <= k <= m:
        ap.error(f"need 2 <= k <= m, got k={k} m={m}")
    if args.step < 1:
        ap.error(f"--step must be >= 1, got {args.step}")
    if args.settle_budget < 0:
        ap.error(f"--settle-budget must be >= 0, got {args.settle_budget}")
    if not __debug__:
        ap.error("the census certifies with assert statements; run it without -O")

    print(f"k={k} m={m}: n from 1 to {(k - 1) * comb(m, k - 1)} in steps of {args.step}")
    counts, brackets, range_a = Counter(), [], 0
    for n, cls, verdict in census(k, m, args.step):
        counts[cls] += 1
        if cls == CLASSES[2]:
            brackets.append(n)
        range_a += "range-a" in verdict.source.split(",")
        upper = "-" if verdict.upper is None else verdict.upper
        print(f"  n={n:>5}  lower={verdict.lower:>6}  upper={upper:>6}  {cls} ({verdict.source})")
    print(", ".join(f"{counts[cls]} {cls}" for cls in CLASSES))

    if args.settle_budget and brackets:
        print(f"settling {len(brackets)} open instances "
              f"(budget {args.settle_budget} nodes each)")
        for n in brackets:
            try:
                exact = settle_gap(n, k, m, budget=args.settle_budget)
                print(f"  n={n}: settled, N = {exact}")
            except BudgetExceeded as exc:  # budget spent
                print(f"  n={n}: unresolved ({exc})")
    print(f"done: every layout certified; all {range_a} range-a layouts met the counting bound")


if __name__ == "__main__":
    main()
