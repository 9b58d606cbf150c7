"""Exhaustive ground truth for tiny instances.

Searches target storage values in increasing order.  At each target, one
walk on an explicit stack places n items in non-decreasing mask order
(masks ascending numerically) and stops at its first complete layout.
The walk keeps Hall's counting condition at batch size k as items are
placed, so a branch dies at the first crowded server subset; the
condition is monotone, so no prefix of a valid layout is cut, every
complete layout reached is valid, and the first is the least valid layout
at that storage.  ``search_optimal`` therefore returns the least valid
layout at the least storage, with no best-so-far bookkeeping.  Intended
for tiny instances (m <= 5 with n up to about 10 finishes in
milliseconds); the walk uses no Python recursion, so only the node
budget, which counts the item placements tried in the tree, bounds a
search, and the default refuses to run away.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from . import bounds
from .core import Params, SetSystem
from .cwc import w_masks_colex
from .errors import BudgetExceeded, CbcError, ParamError, RangeError, Unknown
from .hall import supersets_below, verify_hc2

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    m: int
    optimal_n_storage: int
    witness: SetSystem
    nodes_explored: int


def _candidate_masks(m: int, max_size: int) -> list[int]:
    """Non-empty masks of at most ``max_size`` servers, ascending numerically."""
    return list(heapq.merge(*(w_masks_colex(m, w) for w in range(1, max_size + 1))))


def _constructive_upper(n: int, k: int, m: int) -> int | None:
    try:
        return bounds.known_n(Params(n, k, m)).upper
    except CbcError:
        return None


def _search_targets(
    n: int, k: int, m: int, start: int, stop: int | None, budget: int
) -> SearchResult | None:
    """Scan storage targets in [start, stop); None if no valid layout there.

    Each walk puts n items, masks of at most min(k, m) servers in
    non-decreasing order, on exactly ``target`` replicas.  ``stack`` holds
    the root's suspended candidate iterator and one per placed item
    (``path``).  The walk keeps for every server subset T with |T| < k the
    slack |T| minus the number of placed masks inside T, and does not
    place a mask that would drive some slack below zero: adding items
    never un-crowds a subset.  An exhausted iterator gives its item's
    slack back, so a walk that finds nothing restores every slack and the
    next target reuses the same state.
    """
    max_size = min(k, m)
    masks = _candidate_masks(m, max_size)
    weights = [mask.bit_count() for mask in masks]
    # The subsets whose slack a mask uses up, built on its first placement;
    # a subset enters ``slack`` (at |T|) with the first mask that reaches it.
    supersets_of: list[list[int] | None] = [None] * len(masks)
    slack: dict[int, int] = {}
    nodes = 0

    targets = range(start, stop) if stop is not None else itertools.count(start)
    for target in targets:
        left, room = n, target
        stack = [iter(range(len(masks)))] if left <= room <= left * max_size else []
        path: list[int] = []
        while stack:
            for idx in stack[-1]:
                weight = weights[idx]
                if room - weight < left - 1:
                    continue
                if nodes == budget:
                    raise BudgetExceeded(nodes, best_upper=_constructive_upper(n, k, m))
                nodes += 1
                supersets = supersets_of[idx]
                if supersets is None:
                    supersets = supersets_of[idx] = supersets_below(masks[idx], m, k)
                    for t in supersets:
                        slack.setdefault(t, t.bit_count())
                if not all(map(slack.__getitem__, supersets)):
                    continue
                for t in supersets:
                    slack[t] -= 1
                path.append(idx)
                left -= 1
                room -= weight
                if left == 0 and room == 0:
                    items = tuple(masks[i] for i in path)
                    system = SetSystem(m, items)
                    if not verify_hc2(system, k).valid:
                        raise AssertionError(f"Hall-pruned walk reached an invalid layout {items}")
                    return SearchResult(n, k, m, target, system, nodes)
                # room >= left holds here; a child past left * max_size is dead.
                stack.append(iter(range(idx, len(masks)) if room <= left * max_size else ()))
                break
            else:
                stack.pop()
                if path:
                    idx = path.pop()
                    for t in supersets_of[idx]:
                        slack[t] += 1
                    left += 1
                    room += weights[idx]
    return None


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ParamError(f"need budget >= 0, got budget={budget}")


def search_optimal(n: int, k: int, m: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """True optimal storage for (n,k,m) by exhaustive Hall-pruned search.

    The witness is the least valid layout (masks ascending) at that
    storage.  Starts at the counting lower bound (or n, whichever is
    larger; storage can never be below one copy per item) and ascends.
    Only masks of at most k servers are enumerated: any valid layout can
    be truncated to that size without increasing storage, so the optimum
    is reachable.
    ``budget`` caps the nodes explored, one per item placement tried in
    the search tree; BudgetExceeded is raised when it runs out.
    """
    _check_budget(budget)
    if not 1 <= k <= m:
        raise ParamError(f"need 1 <= k <= m, got k={k} m={m}")
    if n < 1:
        raise ParamError(f"need n >= 1, got n={n}")
    start = n
    if k >= 2:
        try:
            start = max(n, bounds.lower_bound(n, k, m).lower)
        except RangeError:
            pass
    result = _search_targets(n, k, m, start, None, budget)
    assert result is not None  # a fully replicated layout is valid at N = k*n
    return result


def settle_gap(n: int, k: int, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact N(n,k,m) for instances where the formulas leave a gap of one.

    Pass-through when a regime already pins the value.  Otherwise searches
    storage targets between the certified lower bound and the constructive
    upper bound; if nothing smaller exists the upper bound is exact
    (a construction achieves it).  ``budget`` counts nodes as in
    ``search_optimal``; raises Unknown on budget exhaustion.
    """
    _check_budget(budget)
    verdict = bounds.known_n(Params(n, k, m))
    if verdict.exact is not None:
        return verdict.exact
    if verdict.upper is None:
        raise ParamError(
            f"n={n} k={k} m={m} has no constructive upper bound to settle against"
        )
    try:
        result = _search_targets(n, k, m, verdict.lower, verdict.upper, budget)
    except BudgetExceeded as exc:
        raise Unknown(
            f"gap for n={n} k={k} m={m} unresolved after {exc.nodes_explored} nodes"
        ) from exc
    if result is not None:
        return result.optimal_n_storage
    return verdict.upper
