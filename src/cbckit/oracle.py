"""Exhaustive ground truth for tiny instances.

Searches target storage values in increasing order, from the floor that
Hall's counting condition proves (``search_floor``).  At each target, one
walk on an explicit stack places n items in non-decreasing mask order
(masks ascending numerically) and stops at its first complete layout.
The walk keeps Hall's counting condition at batch size k as items are
placed, so a branch dies at the first crowded server subset; the
condition is monotone, so no prefix of a valid layout is cut, every
complete layout reached is valid, and the first is the least valid layout
at that storage.  A branch is also cut when its remaining items cannot
fill the target: too many replicas for them, or more of them forced onto
one server each than there are free single servers (two items on one
server alone break Hall's condition for k >= 2).  Both cuts, like the
floor, drop only subtrees without a valid layout, so the first layout met
is unchanged.  ``search_optimal`` therefore returns the least valid
layout at the least storage, with no best-so-far bookkeeping.  Intended
for tiny instances (m <= 5 with n up to about 10 finishes in
milliseconds); the walk uses no Python recursion, so only the node
budget, which counts the item placements tried in the tree, bounds a
search, and the default refuses to run away.  Listing the candidate masks
is refused up front past ``MAX_CANDIDATE_MASKS``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import comb

from . import bounds
from .core import Params, SetSystem
from .cwc import w_masks_colex
from .errors import BudgetExceeded, CbcError, ParamError, Unknown
from .hall import supersets_below, verify_hc2

DEFAULT_BUDGET = 10_000_000
# Cap on the candidate masks (at most min(k, m) of m servers) listed before
# the first node: (40, 5) lists 760,098, while m = 30, k = 10 would list
# about 5.3e7.
MAX_CANDIDATE_MASKS = 10**6


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    m: int
    optimal_n_storage: int
    witness: SetSystem
    nodes_explored: int


def _candidate_masks(m: int, max_size: int) -> list[int]:
    """Non-empty masks of at most ``max_size`` servers, ascending numerically.

    Raises ParamError, before listing any, when there are more than
    ``MAX_CANDIDATE_MASKS``; the count stops at the first weight past the
    cap, so no huge binomial is computed.
    """
    count = 0
    for w in range(1, max_size + 1):
        count += comb(m, w)
        if count > MAX_CANDIDATE_MASKS:
            raise ParamError(
                f"search on m={m} servers needs more than {MAX_CANDIDATE_MASKS} "
                f"candidate masks: {count} of weight at most {w}"
            )
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
    next target reuses the same state.  The root, and every placed item,
    gets children only when the items left can still fill the room left.
    """
    max_size = min(k, m)

    def fits(left: int, room: int, free: int) -> bool:
        # ``left`` items on one to max_size servers each fill exactly
        # ``room`` replicas, so at least 2*left - room of them sit on one
        # server each.  For k >= 2 no two of those share a server (that
        # one-server subset would hold two items), and only ``free`` single
        # servers lie above the last placed mask.
        return left <= room <= left * max_size and (k == 1 or 2 * left - room <= free)

    masks = _candidate_masks(m, max_size)
    weights = [mask.bit_count() for mask in masks]
    # more[e]: every mask of e < k servers, the servers that supersets_below
    # may add to a mask; the candidate cap bounds these lists too.
    more = [list(w_masks_colex(m, e)) for e in range(k)]
    # The subsets whose slack a mask uses up, built on its first placement;
    # a subset enters ``slack`` (at |T|) with the first mask that reaches it.
    supersets_of: list[list[int] | None] = [None] * len(masks)
    slack: dict[int, int] = {}
    nodes = 0

    targets = range(start, stop) if stop is not None else itertools.count(start)
    for target in targets:
        left, room = n, target
        stack = [iter(range(len(masks)))] if fits(left, room, m) else []
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
                    supersets = supersets_of[idx] = supersets_below(masks[idx], more)
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
                # Later masks are >= masks[idx], so a single server still
                # free lies past its highest one (taken, if it is single).
                free = m - masks[idx].bit_length()
                stack.append(iter(range(idx, len(masks)) if fits(left, room, free) else ()))
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


def search_floor(n: int, k: int, m: int) -> int:
    """The storage at which ``search_optimal`` starts: a lower bound on N.

    The largest of n (one copy per item), k*n - (k-1)*C(m,k-1), and the
    counting bound where it applies (n <= (k-1)*C(m,k-1), k >= 2).
    """
    ceiling = (k - 1) * comb(m, k - 1)
    # Hall's counting condition at i = k-1 (bounds.check_inequality) says
    # sum_{j<k} C(m-j, k-1-j) * A_j <= ceiling, and C(m-j, k-1-j) >= k-j
    # when m >= k, so sum_{j<k} (k-j) * A_j <= ceiling.  Storage is at least
    # sum_j min(j, k) * A_j = k*n - sum_{j<k} (k-j) * A_j >= k*n - ceiling:
    # the items on fewer than k servers save at most ceiling copies below
    # k*n, for every n.
    floor = max(n, k * n - ceiling)
    if k >= 2 and n <= ceiling:
        floor = max(floor, bounds.lower_bound(n, k, m).lower)
    return floor


def search_optimal(n: int, k: int, m: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """True optimal storage for (n,k,m) by exhaustive Hall-pruned search.

    The witness is the least valid layout (masks ascending) at that
    storage.  Starts at ``search_floor`` and ascends; each walk drops the
    branches whose remaining items cannot fill the target, which hold no
    valid layout, so the witness is the one an uncut walk would meet.
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
    result = _search_targets(n, k, m, search_floor(n, k, m), None, budget)
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
