"""Layout validity and retrieval planning via Hall's theorem.

A layout serves any batch of k items with one read per server iff the
requested items' replica sets admit a system of distinct representatives
(SDR).  Restricted to batches of size k, Hall's condition has two
equivalent forms:

* union form: every subcollection of r <= k items covers >= r servers;
* counting form: every subset of at most k-1 servers contains at most
  that many whole replica sets.

``verify_hc2`` checks the counting form one subset size r at a time, for
r below min(k, n): a crowded subset holds more items than servers.  It
first applies the paper's counting argument: an r-subset contains at most
C(r, s) distinct stored sets of s servers, so when even the largest
multiplicities that many sets could have sum to at most r, no r-subset is
crowded and size r is skipped.  Layouts of distinct (k-2)-sets, and the
large-n layouts of (k-1)-sets stored k-1 times each, skip every size.
Any other size is counted sparsely: only a replica set of fewer than k
servers fits inside a subset of fewer than k servers, so each such copy
is counted into its own supersets of size r, and only subsets that some
counted copy reaches are looked at.  Each stored set size s, a level,
is counted from its smaller side: the present copies, or the missing
ones, mu_s - mult(u) for every s-set u, where mu_s is the level's largest
capped multiplicity.  The paper's optimal layouts are complete uniform
families with a few copies deleted, so their levels are nearly full.  An
r-subset T then holds present(T) + base - missing(T) items, where base
sums mu_s*C(r, s) over the levels counted by their missing copies.  When
base <= r only a subset that a present copy reaches can be crowded;
otherwise the r-subsets are walked in lexicographic order up to the
first crowded one.  A counted size costs the sum over s of
min(present_s, missing_s)*C(m-s, r-s) incidences.  The distinct sets
are kept in flat per-size int lists, with no container per set, and a
level counted by its missing copies lists its C(m, s) < 2n masks once,
the first time a counted size needs it.  Copies are counted in bulk: for
each level one table lists every mask of r-s servers (both lists come
whole from ``cwc.colex_level``), and a copy's supersets are its joins
with the table's masks disjoint from it.  One list comprehension per
entry of the shorter of two lists (the table, or the copies) runs over
the longer one, and ``Counter.update`` counts each at C level, so no
list is longer than the longer of the two and no list of every
incidence is built.  It is the cheap default (the item collection may
be huge, the server set is small).
``verify_hc1`` independently checks the union form by running a matching
on every k-subset of items; the two must always agree and are kept free
of shared logic so that one can cross-validate the other.

``find_sdr`` is that matching: a bitmask depth-first augmenting-path
search on an explicit stack, lowest unseen server first, deterministic in
the server order of the recursive reference matcher in the tests.  The
search's first two steps are settled inline, with no stack: a set whose
lowest server is free takes it, and else the holder of that server moves
to its own next lowest server if that one is free.  Any other case has
changed nothing yet, so the full search starts from scratch, replays
those two steps and finds the same matching.  It returns each position's
server; ``plan_batch`` is the one maker of a RetrievalPlan.  The CLI's
``simulate`` counts reads from ``find_sdr`` directly, with its own check
for a repeated server.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Sequence, Union

from .core import SetSystem, bits, mask_of
from .cwc import colex_level
from .errors import NoPlan, ParamError


@dataclass(frozen=True)
class CrowdedSubset:
    """A server subset that fully contains more replica sets than it has servers."""

    servers: tuple[int, ...]
    items: tuple[int, ...]

    def __str__(self) -> str:
        servers = ",".join(map(str, self.servers))
        return f"{{{servers}}} contains {len(self.items)} items"


@dataclass(frozen=True)
class Deficiency:
    """Items whose combined replica sets cover fewer servers than there are items."""

    items: tuple[int, ...]
    servers: tuple[int, ...]

    def __str__(self) -> str:
        items = ",".join(map(str, self.items))
        return f"items ({items}) cover only {len(self.servers)} servers"


@dataclass(frozen=True)
class RetrievalPlan:
    """One distinct server per requested item, chosen inside its replica set."""

    assignment: dict[int, int]

    def __post_init__(self):
        if len(set(self.assignment.values())) != len(self.assignment):
            raise ParamError("plan reads one server twice")


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    witness: Union[CrowdedSubset, Deficiency, None] = None

    def __post_init__(self):
        if self.valid != (self.witness is None):
            raise ParamError("validity verdict and witness disagree")


def _check_batch_size(sys: SetSystem, k: int) -> None:
    if not 1 <= k <= sys.m:
        raise ParamError(f"need 1 <= k <= m, got k={k} m={sys.m}")


def supersets_adding(mask: int, more: Sequence[int]) -> list[int]:
    """``mask`` joined with each mask of ``more`` that shares no server with it.

    With ``more`` every mask of e servers over m servers, these are the
    server subsets over m servers that add exactly e servers to ``mask``.
    """
    return [mask | x for x in more if not mask & x]


def verify_hc2(sys: SetSystem, k: int) -> ValidityReport:
    """Check the counting form of the restricted Hall condition.

    Valid iff every server subset T with |T| <= k-1 contains at most |T|
    replica sets.  A crowded T holds more than |T| of the n items, so only
    sizes r below width = min(k, n) are checked, one at a time, from flat
    lists per set size s < width of the distinct masks and their
    multiplicities capped at width.  First a bound: T holds at most C(r, s)
    distinct sets of s servers, so at most the sum over stored sizes s <= r
    of the C(r, s) largest multiplicities among sets of s servers; when
    that is at most r, no r-subset is crowded and size r is skipped.
    Running sums of those multiplicities, kept as far as C(width-1, s),
    make a skipped size cost O(stored sizes), so the work is bounded by the
    layout and min(k, n), not by k.  Otherwise the size is counted
    sparsely: each copy of a replica set of at most r servers is counted
    into each of its supersets of exactly r servers, so subsets that no
    counted copy reaches are never visited.  Each level s, the stored
    s-sets, is counted from its smaller side (``_level``): the present
    copies, each distinct s-set repeated min(mult, width) times, or the
    missing copies, each of the C(m, s) s-sets u repeated mu_s - mult(u)
    times, mu_s being the level's largest capped multiplicity.  The
    missing side is the shorter only when C(m, s) < 2n.  A level is built
    the first time a counted size needs it and kept for the larger sizes,
    so a layout whose every size is skipped lists no C(m, s) masks.  An
    r-subset T holds present(T) + base - missing(T) items, where base is
    the sum of mu_s*C(r, s) over the levels counted by their missing
    copies.  A counted size builds, for each level, the table of all
    C(m, r-s) masks of r-s servers.  When the table is the shorter, each
    of its masks x is joined with the copies disjoint from it, else each
    copy with the table's masks disjoint from it (``supersets_adding``):
    one list comprehension per entry of the shorter list, each fed to
    ``Counter.update``, so peak memory is the two lists, the counts, and
    one list no longer than the longer of the two.  The incidences are
    the sum over levels s <= r of min(present_s, missing_s) times
    C(m-s, r-s).  When base <= r, only a subset that a present copy
    reaches can be crowded, and those are checked.  When base > r, every
    subset that no missing copy reaches is crowded, so a walk of the
    r-subsets in lexicographic order stops within one subset past those
    that missing copies reach.  It visits at most C(m, r) subsets, fewer
    than the base/2 * C(m, r) incidences that the present copies of those
    levels would count.  A crowded layout stops after
    the first size with a crowded subset.  Skipping sizes that no subset
    can crowd leaves that first crowded subset unchanged.  On failure,
    returns the first violating subset in size-then-lexicographic order
    together with the items inside it.
    """
    _check_batch_size(sys, k)
    m = sys.m
    width = min(k, sys.n)
    # by_size[s], mults[s]: the distinct stored sets of s servers and their
    # multiplicities; width copies already crowd any subset of fewer than
    # width servers.
    by_size: list[list[int]] = [[] for _ in range(width)]
    mults: list[list[int]] = [[] for _ in range(width)]
    for mask, mult in Counter(sys.items).items():
        size = mask.bit_count()
        if size < width:
            by_size[size].append(mask)
            mults[size].append(mult if mult < width else width)
    # most[s][i]: the sum of the i largest multiplicities of stored s-sets,
    # for i up to C(width-1, s), the most s-sets any subset checked holds.
    most = {
        s: list(itertools.accumulate(
            sorted(mults[s], reverse=True)[:comb(width - 1, s)], initial=0))
        for s in range(1, width) if by_size[s]
    }
    # levels[s]: (copies, full) from _level, built the first time a counted
    # size needs the stored s-sets.
    levels: list[tuple[list[int], int] | None] = [None] * width
    for r in range(1, width):
        # An r-subset contains at most C(r, s) distinct sets of s servers, so
        # it holds at most `bound` items; if that is <= r, none is crowded.
        bound = sum(sums[min(comb(r, s), len(sums) - 1)] for s, sums in most.items() if s <= r)
        if bound <= r:
            continue
        # An r-subset T holds present[T] + base - missing[T] items.
        present: Counter[int] = Counter()
        missing: Counter[int] = Counter()
        base = 0
        for s, sums in most.items():
            if s > r:
                continue
            if levels[s] is None:
                levels[s] = _level(m, s, by_size[s], mults[s], sums[1])
            copies, full = levels[s]
            if full:
                base += full * comb(r, s)
                counts = missing
            else:
                counts = present
            # more: every mask of r - s servers, the servers that an s-set
            # can add to reach size r.
            more = colex_level(m, r - s)
            if len(more) < len(copies):
                for x in more:
                    counts.update([v | x for v in copies if not v & x])
            else:
                for v in copies:
                    counts.update(supersets_adding(v, more))
        if base > r:
            # Every subset that no missing copy reaches is crowded, so this
            # walk stops within len(missing) + 1 subsets.
            for combo in itertools.combinations(range(m), r):
                mask = mask_of(combo)
                if present.get(mask, 0) + base - missing.get(mask, 0) > r:
                    break
            else:
                continue
        else:
            # Only a subset that some present copy reaches can be crowded.
            crowded = [t for t, count in present.items()
                       if count + base - missing.get(t, 0) > r]
            if not crowded:
                continue
            mask = min(crowded, key=lambda t: tuple(bits(t)))
        inside = tuple(j for j, it in enumerate(sys.items) if it & ~mask == 0)
        return ValidityReport(False, CrowdedSubset(tuple(bits(mask)), inside))
    return ValidityReport(True)


def _level(m: int, s: int, masks: list[int], mults: list[int], full: int) -> tuple[list[int], int]:
    """The copies that verify_hc2 counts for the stored s-sets, and ``full``
    if they are the missing ones, else 0.

    ``masks`` and ``mults`` are the distinct s-sets and their capped
    multiplicities, at most ``full`` each.  Present copies are each set
    repeated by its multiplicity; missing copies are each of the C(m, s)
    s-sets u repeated full - mult(u) times, the s-sets taken whole from
    ``cwc.colex_level``, one list comprehension per weight.  The shorter
    list is returned, the present one on a tie.
    """
    stored = sum(mults)
    if 2 * stored <= full * comb(m, s):
        return list(itertools.chain.from_iterable(map(itertools.repeat, masks, mults))), 0
    held = dict(zip(masks, mults))
    return [u for u in colex_level(m, s) for _ in range(full - held.get(u, 0))], full


def find_sdr(sets: Sequence[int]) -> Union[list[int], Deficiency]:
    """A distinct server for each replica set, by position, or why none exists.

    Augmenting-path matching, one position at a time: a bitmask
    depth-first search on an explicit stack, so an alternating path may be
    as long as ``sets`` (no recursion limit applies).  ``owner`` maps a
    server bit to the position holding it and ``seen`` is one int; each
    step tries the lowest unseen server of the set on top of the stack.
    The search's first two steps are settled inline: a set whose lowest
    server ``low`` is free takes it at once; else, if the holder of ``low``
    has a lowest server ``bit`` other than ``low`` and ``bit`` is free, the
    holder moves to ``bit`` and the set takes ``low``.  In any other case
    (``bit`` is 0 or taken) nothing has been changed, and the search starts
    from the set with nothing seen, so it takes those same two steps first
    and every matching and deficiency is what the search alone would give.
    Deterministic (but not canonical): servers are tried in the same
    ascending order as the recursive reference matcher, so matchings and
    deficiencies match it exactly.  On failure
    returns the standard Hall violator: the sets reachable by alternating
    paths from the first unmatched one, whose union is too small.
    """
    owner: dict[int, int] = {}  # server bit -> position in `sets`
    taken = [0] * len(sets)  # position -> its server bit
    for pos, mask in enumerate(sets):
        low = mask & -mask
        if low:
            if low not in owner:
                owner[low] = pos
                taken[pos] = low
                continue
            # The search's first two steps: the holder of `low` moves to its
            # lowest other server if that is free.  Otherwise nothing has
            # changed yet and the search below replays these steps.
            holder = owner[low]
            rest = sets[holder] & ~low
            bit = rest & -rest
            if bit and bit not in owner:
                owner[bit] = holder
                taken[holder] = bit
                owner[low] = pos
                taken[pos] = low
                continue
        stack = [pos]  # the alternating path, root first
        tried: list[int] = []  # tried[i]: the server stack[i] is trying
        seen = 0
        while True:
            free = sets[stack[-1]] & ~seen
            if free:
                bit = free & -free
                seen |= bit
                tried.append(bit)
                holder = owner.get(bit)
                if holder is None:
                    for p, b in zip(stack, tried):
                        owner[b] = p
                        taken[p] = b
                    break
                stack.append(holder)
            else:
                stack.pop()
                if not stack:
                    # `seen` is exactly the union of the replica sets of all
                    # positions reachable by alternating paths, each of which
                    # is matched except `pos` itself.
                    servers = tuple(bits(seen))
                    reachable = sorted({pos} | {owner[1 << s] for s in servers})
                    return Deficiency(tuple(reachable), servers)
                tried.pop()
    return [b.bit_length() - 1 for b in taken]


def verify_hc1(sys: SetSystem, k: int) -> ValidityReport:
    """Check the union form of the restricted Hall condition.

    Runs find_sdr on every k-subset of items (every smaller subcollection
    inherits its SDR), in combination order.  Duplicated items are common,
    so a k-subset whose multiset of replica sets has already matched is
    skipped: whether an SDR exists does not depend on the order.  Must
    always agree with verify_hc2.
    """
    _check_batch_size(sys, k)
    n = sys.n
    r = min(k, n)
    if r == 0:
        return ValidityReport(True)
    matched: set[tuple[int, ...]] = set()  # sorted multisets known to have an SDR
    for combo in itertools.combinations(range(n), r):
        sets = [sys.items[j] for j in combo]
        key = tuple(sorted(sets))
        if key in matched:
            continue
        local = find_sdr(sets)
        if isinstance(local, Deficiency):
            items = tuple(combo[j] for j in local.items)
            return ValidityReport(False, Deficiency(items, local.servers))
        matched.add(key)
    return ValidityReport(True)


def plan_batch(sys: SetSystem, request: Sequence[int]) -> RetrievalPlan:
    """Plan one read per requested item, on the server ``find_sdr`` matched.

    Always succeeds on a layout that verifies at a batch size >= the
    request length; otherwise raises NoPlan carrying the deficiency.
    """
    n = len(sys.items)
    seen = set()
    sets = []
    for j in request:
        if not 0 <= j < n:
            raise ParamError(f"item index {j} outside 0..{n - 1}")
        if j in seen:
            raise ParamError(f"item index {j} requested twice")
        seen.add(j)
        sets.append(sys.items[j])
    result = find_sdr(sets)
    if isinstance(result, Deficiency):
        items = tuple(request[j] for j in result.items)
        raise NoPlan(Deficiency(items, result.servers))
    return RetrievalPlan(dict(zip(request, result)))
