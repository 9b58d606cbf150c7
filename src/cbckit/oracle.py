"""Exhaustive ground truth for tiny instances.

Searches target storage values in increasing order, from the floor that
Hall's counting condition proves (``search_floor``).  At each target,
one engine lists the profiles (A_1, ..., A_k), A_j the number of items
on j servers, that fill the target and pass the counting condition
(``bounds.inequality_slack`` >= 0), most light items first, and walks each
profile with one mask index per placed item.  Items are placed one
weight class at a time, lightest class first, with masks non-decreasing
within a class; the first item is fixed to the lowest mask of its
weight, since Sym(m) is transitive on the j-server subsets, so some
relabelling of any valid layout puts an item there.  The walk keeps
Hall's counting condition at batch size k as items are placed, so a
branch dies at the first crowded server subset; the condition is
monotone, so no prefix of a valid layout is cut, and every complete
layout reached is valid.  The first one reached, its masks sorted
ascending, is the witness.  A profile fixes the replicas its items take,
so no branch is cut for its room.  Intended for tiny instances: (10,4,6)
takes about 20,000 nodes and (11,4,7) about 107,000.  Only the node
budget, which counts the values tried for A_1..A_{k-1} and the item
placements tried, bounds a search, and the default refuses to run away;
the walk uses no Python recursion, and the profile list recurses k deep.
A search over more than ``MAX_CANDIDATE_MASKS`` candidate masks (masks
of at most k servers), each counted as its ceil(m/64) 64-bit words, is
refused up front; each weight's masks are listed the first time a
profile uses it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import comb

from . import bounds
from .core import Params, SetSystem
from .cwc import colex_level
from .errors import BudgetExceeded, CbcError, ParamError, count_text
from .hall import supersets_adding, verify_hc2

DEFAULT_BUDGET = 10_000_000
# Cap on the candidate masks (at most k of m servers), each counted as its
# ceil(m/64) 64-bit words, before the first node: (40, 5) has 760,098,
# while m = 30, k = 10 would have about 5.3e7, and k = 1 stops at m = 8000.
MAX_CANDIDATE_MASKS = 10**6


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    m: int
    optimal_n_storage: int
    witness: SetSystem
    nodes_explored: int


def _constructive_upper(n: int, k: int, m: int) -> int | None:
    try:
        return bounds.known_n(Params(n, k, m)).upper
    except CbcError:
        return None


def _profiles(
    n: int, k: int, m: int, target: int, spend: Callable[[], None]
) -> Iterator[tuple[int, ...]]:
    """Profiles (A_1, ..., A_k) of n items on ``target`` replicas that pass
    Hall's counting condition, most light items first.

    Yields every tuple of non-negative integers with sum A_j = n,
    sum j*A_j = target and ``bounds.inequality_slack`` >= 0 at i = 1..k-1,
    in descending lexicographic order: A_1 descending, then A_2, and so
    on.  Each A_j's range is computed as soon as A_1..A_{j-1} are fixed:
    the items after it sit on j+1 to k servers each, so the items and
    replicas left bound it from both sides, and the inequality at i = j,
    the first that A_j enters (with coefficient 1), caps it at the slack
    of A_1..A_{j-1} there.  A_k takes the items left.
    ``spend`` is called once for every value tried for A_j with j < k.
    The recursion is k deep, and k is small wherever the mask cap lets a
    search run.
    """
    profile: list[int] = []

    def extend(j: int, left: int, room: int) -> Iterator[tuple[int, ...]]:
        if j == k:
            if room == k * left:
                yield (*profile, left)
            return
        top = min(left, (k * left - room) // (k - j), bounds.inequality_slack(profile, m, j))
        for a in range(top, max(0, (j + 1) * left - room) - 1, -1):
            spend()
            profile.append(a)
            yield from extend(j + 1, left - a, room - j * a)
            profile.pop()

    return extend(1, n, target)


def _search_targets(
    n: int, k: int, m: int, start: int, stop: int | None, budget: int
) -> SearchResult | None:
    """Scan storage targets in [start, stop); None if no valid layout there.

    Needs 1 <= k <= m, within ``_check_masks``.  For each profile of a
    target (``_profiles``), item i goes on a mask of bisect_right(ends, i)
    servers, ``ends`` being the profile's prefix sums, and ``path`` holds
    the mask index of each placed item, the walk's only per-item state.  The first item tries index 0 alone, an item of the
    same weight as the one before starts at that item's index, the first
    item of a heavier class at 0, and a popped item's place is tried again
    from one past its index.  The walk keeps for every server subset T
    with |T| < k the slack |T| minus the number of placed masks inside T,
    and does not place a mask that would drive some slack below zero:
    adding items never un-crowds a subset.  A popped item gives its slack
    back, so a walk that finds nothing restores every slack for the next
    profile.  A spent budget raises BudgetExceeded with ``stop`` as the
    best upper bound, or the constructive one when ``stop`` is None.
    """
    # more[e]: every mask of e < k servers, the servers that a placed mask's
    # below-list may add to it.
    more = [colex_level(m, e) for e in range(k)]
    # masks[w]: every mask of w servers, ascending: more[w] for w < k, and
    # level k listed the first time a profile has items of weight k;
    # below[w][idx]: the subsets of fewer than k servers that contain
    # masks[w][idx], whose slack it uses up, built on its first placement.
    # A subset enters ``slack`` (at |T|) with the first mask that reaches it.
    masks = more + [[]]
    below: list[list[list[int] | None]] = [[] for _ in range(k + 1)]
    slack: dict[int, int] = {}
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        if nodes == budget:
            raise BudgetExceeded(
                nodes, best_upper=_constructive_upper(n, k, m) if stop is None else stop)
        nodes += 1

    targets = range(start, stop) if stop is not None else itertools.count(start)
    for target in targets:
        for profile in _profiles(n, k, m, target, spend):
            ends = list(itertools.accumulate(profile, initial=0))
            for w, a in enumerate(profile, 1):
                if a and not below[w]:
                    masks[w] = masks[w] or colex_level(m, w)
                    below[w] = [None] * len(masks[w])
            path: list[int] = []
            idx = 0
            while True:
                weight = bisect_right(ends, len(path))
                for idx in range(idx, len(masks[weight]) if path else 1):
                    spend()
                    subsets = below[weight][idx]
                    if subsets is None:
                        mask = masks[weight][idx]
                        subsets = below[weight][idx] = [
                            t for e in range(k - weight) for t in supersets_adding(mask, more[e])
                        ]
                        for t in subsets:
                            slack.setdefault(t, t.bit_count())
                    if not all(map(slack.__getitem__, subsets)):
                        continue
                    for t in subsets:
                        slack[t] -= 1
                    path.append(idx)
                    if len(path) == n:
                        items = tuple(sorted(masks[bisect_right(ends, i)][j] for i, j in enumerate(path)))
                        system = SetSystem(m, items)
                        if not verify_hc2(system, k).valid:
                            raise AssertionError(f"Hall-pruned walk reached an invalid layout {items}")
                        return SearchResult(n, k, m, target, system, nodes)
                    if bisect_right(ends, len(path)) != weight:
                        idx = 0
                    break
                else:
                    if not path:
                        break
                    for t in below[bisect_right(ends, len(path) - 1)][path[-1]]:
                        slack[t] += 1
                    idx = path.pop() + 1
    return None


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ParamError(f"need budget >= 0, got budget={budget}")


def _check_masks(k: int, m: int) -> None:
    words = -(-m // 64)  # 64-bit words per mask: 1 up to m = 64
    unit = "candidate masks" if words == 1 else (
        f"64-bit words of candidate masks ({words} per mask)")
    count = 0
    for w in range(1, k + 1):
        count += comb(m, w) * words
        if count > MAX_CANDIDATE_MASKS:
            raise ParamError(
                f"search on m={m} servers needs more than {MAX_CANDIDATE_MASKS} "
                f"{unit}: {count_text(count)} of weight at most {w}"
            )


def search_floor(n: int, k: int, m: int) -> int:
    """The storage at which ``search_optimal`` starts: a lower bound on N.

    The largest of n (one copy per item), k*n - (k-1)*C(m,k-1), and the
    counting bound where it applies (n <= (k-1)*C(m,k-1), k >= 2).
    """
    ceiling = (k - 1) * comb(m, k - 1)
    # Hall's counting condition at i = k-1 (bounds.inequality_slack) says
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

    Starts at ``search_floor`` and ascends.  The witness is the first valid
    layout the engine meets at the least storage (profiles with the most
    light items first, masks ascending within each weight class), with its
    masks sorted ascending.  Only masks of at most k servers are
    enumerated: any valid layout can be truncated to that size without
    increasing storage, so the optimum is reachable.
    ``budget`` caps the nodes explored: one per value tried for
    A_1..A_{k-1} of a profile and one per item placement tried;
    BudgetExceeded is raised when it runs out, and at once, with no node
    explored, when ``budget`` is below n: a layout costs n placements.
    """
    _check_budget(budget)
    if not 1 <= k <= m:
        raise ParamError(f"need 1 <= k <= m, got k={k} m={m}")
    if n < 1:
        raise ParamError(f"need n >= 1, got n={n}")
    _check_masks(k, m)
    if budget < n:
        raise BudgetExceeded(0, best_upper=_constructive_upper(n, k, m))
    result = _search_targets(n, k, m, search_floor(n, k, m), None, budget)
    assert result is not None  # a fully replicated layout is valid at N = k*n
    return result


def settle_gap(n: int, k: int, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact N(n,k,m) for instances where the formulas leave a gap of one.

    Pass-through when a regime already pins the value.  Otherwise runs the
    engine of ``search_optimal`` on the storage targets between the
    certified lower bound and the constructive upper bound; if nothing
    smaller exists the upper bound is exact (a construction achieves it).
    ``budget`` counts nodes as in ``search_optimal``; raises
    BudgetExceeded, with the nodes spent and the constructive upper bound,
    when it runs out.
    """
    _check_budget(budget)
    verdict = bounds.known_n(Params(n, k, m))
    if verdict.exact is not None:
        return verdict.exact
    if verdict.upper is None:
        raise ParamError(
            f"n={n} k={k} m={m} has no constructive upper bound to settle against"
        )
    _check_masks(k, m)
    result = _search_targets(n, k, m, verdict.lower, verdict.upper, budget)
    if result is not None:
        return result.optimal_n_storage
    return verdict.upper
