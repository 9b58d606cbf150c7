"""Exhaustive ground truth for tiny instances.

Searches target storage values in increasing order and, within each
target, enumerates candidate layouts as canonical multisets of masks, so
the first valid hit is optimal by construction; no best-so-far
bookkeeping.  One tree walk serves both the search and the unpruned
``canonical_systems``: it is pruned with Hall's counting condition at
batch size k as items are placed, so a branch dies at the first crowded
server subset, and at k = 1 there is nothing to prune.  Intended for tiny
instances (m <= 5 with n up to about 10 finishes in milliseconds); the
node budget counts the item placements tried in the tree and the default
refuses to run away.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from . import bounds, construct
from .core import Params, SetSystem, total_storage
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


def _swap_bits(mask: int, i: int, j: int) -> int:
    if (mask >> i & 1) != (mask >> j & 1):
        mask ^= (1 << i) | (1 << j)
    return mask


def _transposition_reducible(items: list[int], m: int) -> bool:
    """True if relabeling two servers yields a strictly smaller encoding."""
    for i in range(m - 1):
        for j in range(i + 1, m):
            swapped = sorted(_swap_bits(v, i, j) for v in items)
            if swapped < items:
                return True
    return False


def _candidate_masks(m: int, max_size: int) -> list[int]:
    """Non-empty masks of at most ``max_size`` servers, ascending numerically."""
    return list(heapq.merge(*(w_masks_colex(m, w) for w in range(1, max_size + 1))))


def canonical_systems(
    n_items: int, m: int, storage: int, max_size: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Canonical multisets of n non-empty masks over m servers with given total size.

    Items are emitted in non-decreasing mask order (colex on subsets), and
    any multiset that a single server-label transposition would make
    strictly smaller is pruned.  The pruning is partial symmetry reduction:
    at least one representative of every relabeling class survives, since
    the class minimum cannot be improved by any permutation.

    This is the search's walk at batch size k = 1, where Hall counting
    prunes nothing: slack is kept only for server subsets of fewer than k
    servers, and at k = 1 the only such subset is empty and holds no
    non-empty mask.
    """
    if max_size is None:
        max_size = m
    yield from _canonical_walk(n_items, 1, m, storage, max_size, lambda: None)


def _canonical_walk(
    n_items: int, k: int, m: int, storage: int, max_size: int, on_place: Callable[[], None]
) -> Iterator[tuple[int, ...]]:
    """The one canonical tree walk: ``canonical_systems`` pruned by Hall
    counting at batch size k, in the same order.

    Places items in non-decreasing mask order, each mask of at most
    ``max_size`` servers, until n items use exactly ``storage`` replicas.
    Keeps for every server subset T with |T| < k the slack |T| minus the
    number of placed masks inside T.  A mask that would drive some slack
    below zero is not placed: adding items never un-crowds a subset, so no
    valid layout lies below that branch.  The transposition check stays at
    the leaves.  ``on_place`` is called once per placement tried, before
    its Hall check, and may raise to stop the walk.
    """
    masks = _candidate_masks(m, max_size)
    # The subsets whose slack a mask uses up, built on its first placement;
    # a subset enters ``slack`` (at |T|) with the first mask that reaches it.
    supersets_of: list[list[int] | None] = [None] * len(masks)
    slack: dict[int, int] = {}
    cur: list[int] = []

    def rec(lo: int, left: int, room: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            if room == 0 and not _transposition_reducible(cur, m):
                yield tuple(cur)
            return
        if room < left or room > left * max_size:
            return
        for idx in range(lo, len(masks)):
            weight = masks[idx].bit_count()
            if room - weight < left - 1:
                continue
            on_place()
            supersets = supersets_of[idx]
            if supersets is None:
                supersets = supersets_of[idx] = supersets_below(masks[idx], m, k)
                for t in supersets:
                    slack.setdefault(t, t.bit_count())
            if not all(map(slack.__getitem__, supersets)):
                continue
            for t in supersets:
                slack[t] -= 1
            cur.append(masks[idx])
            yield from rec(idx, left - 1, room - weight)
            cur.pop()
            for t in supersets:
                slack[t] += 1

    yield from rec(0, n_items, storage)


def _constructive_upper(n: int, k: int, m: int) -> int | None:
    try:
        system, _ = construct.construct_best(n, k, m)
    except CbcError:
        return None
    return total_storage(system)


def _search_targets(
    n: int, k: int, m: int, start: int, stop: int | None, budget: int
) -> SearchResult | None:
    """Scan storage targets in [start, stop); None if no valid layout there."""
    nodes = 0

    def on_place() -> None:
        nonlocal nodes
        if nodes == budget:
            raise BudgetExceeded(nodes, best_upper=_constructive_upper(n, k, m))
        nodes += 1

    targets = range(start, stop) if stop is not None else itertools.count(start)
    for target in targets:
        for candidate in _canonical_walk(n, k, m, target, min(k, m), on_place):
            system = SetSystem(m, candidate)
            if verify_hc2(system, k).valid:
                return SearchResult(n, k, m, target, system, nodes)
    return None


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ParamError(f"need budget >= 0, got budget={budget}")


def search_optimal(n: int, k: int, m: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """True optimal storage for (n,k,m) by exhaustive canonical enumeration.

    Starts at the counting lower bound (or n, whichever is larger; storage
    can never be below one copy per item) and ascends.  Only masks of at
    most k servers are enumerated: any valid layout can be truncated to
    that size without increasing storage, so the optimum is reachable.
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
