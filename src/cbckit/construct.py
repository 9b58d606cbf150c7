"""Explicit layout constructions, each matching a known-optimal regime.

The two deletion-based builders (``construct_range_a`` and
``construct_range_b``) start from a fully replicated collection and
systematically trade deleted supersets for smaller added sets, recording
every step in a ConstructionTrace.  The trace doubles as a runtime proof
obligation: each deletion must find a copy still present, which is exactly
the availability argument behind the constructions' correctness.

Item order: ``construct_trivial``, ``construct_m_equals_k``, the two
deletion builders and ``construct_uniform`` list masks ascending, i.e.
colexicographic on the underlying subsets.  ``construct_m_plus_1`` and
``construct_large_n`` list their sorted part first and put their extra
items, all on servers 0..k-1, last: ``construct_m_plus_1(2, 4)`` gives
masks 1, 2, 4, 8, 3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Mapping

from . import bounds
from .core import Params, Profile, SetSystem, bits, total_storage
from .cwc import ConstantWeightCode, best_d4_code, graham_sloane_d4, w_masks_colex, _greedy_scan
from .errors import ParamError, RangeError, Unsupported


@dataclass(frozen=True)
class ConstructionTrace:
    """Replayable record of a deletion construction.

    ``deletions`` holds one entry per step: the auxiliary set driving the
    step and the supersets deleted for it, in deletion order.  ``additions``
    holds the sets appended, with multiplicity; entry i belongs to step i
    (a trailing deletion step without a matching addition is the partial
    step).  Replaying deletions then additions on the initial collection
    reproduces ``final``.
    """

    initial_profile: Profile
    deletions: tuple[tuple[int, tuple[int, ...]], ...]
    additions: tuple[tuple[int, int], ...]
    final: SetSystem


def _format_set(mask: int) -> str:
    return ",".join(str(s) for s in bits(mask))


def serialize_trace(trace: ConstructionTrace) -> str:
    """One construction step per line: ``del <aux-set> <superset>`` / ``add <set> x<mult>``."""
    lines = []
    for i, (aux, supersets) in enumerate(trace.deletions):
        for sup in supersets:
            lines.append(f"del {_format_set(aux)} {_format_set(sup)}")
        if i < len(trace.additions):
            mask, mult = trace.additions[i]
            lines.append(f"add {_format_set(mask)} x{mult}")
    return "\n".join(lines) + ("\n" if lines else "")


def _system_from_counts(m: int, counts: Mapping[int, int]) -> SetSystem:
    items: list[int] = []
    for mask in sorted(counts):
        if counts[mask] < 0:
            raise AssertionError(f"negative multiplicity for {mask:#x}")
        items.extend([mask] * counts[mask])
    return SetSystem(m, tuple(items))


def _delete_copy(counts: Counter, mask: int) -> None:
    if counts[mask] < 1:
        raise AssertionError(
            f"construction tried to delete {_format_set(mask)} with no copy left"
        )
    counts[mask] -= 1


def _run_steps(counts: Counter, initial: Profile, m: int, aux_sets, full_steps: int,
               leftover: int, copies: int) -> tuple[SetSystem, ConstructionTrace]:
    """Apply a deletion construction's steps to ``counts``; return the layout and trace.

    Each full step deletes one copy of every one-larger superset of the
    next auxiliary set and adds ``copies`` copies of the set; a nonzero
    ``leftover`` adds a partial step that deletes only that many supersets
    of the next set.
    """
    deletions, additions = [], []
    for step in range(full_steps + (1 if leftover else 0)):
        aux = next(aux_sets)
        supersets = tuple(aux | (1 << x) for x in range(m) if not aux >> x & 1)
        if step == full_steps:
            supersets = supersets[:leftover]
        for sup in supersets:
            _delete_copy(counts, sup)
        deletions.append((aux, supersets))
        if step < full_steps:
            counts[aux] += copies
            additions.append((aux, copies))
    final = _system_from_counts(m, counts)
    return final, ConstructionTrace(initial, tuple(deletions), tuple(additions), final)


def construct_trivial(n: int, k: int, m: int) -> SetSystem:
    """One distinct server per item; optimal whenever n <= m."""
    if not 1 <= k <= m:
        raise ParamError(f"need 1 <= k <= m, got k={k} m={m}")
    if n > m:
        raise RangeError(f"trivial layout needs n <= m, got n={n} m={m}")
    if n < 0:
        raise ParamError(f"negative item count n={n}")
    return SetSystem(m, tuple(1 << j for j in range(n)))


def construct_m_equals_k(n: int, k: int) -> SetSystem:
    """k items on one server each, every further item on all k servers."""
    if k < 1:
        raise ParamError(f"batch size must be positive, got k={k}")
    if n < k:
        raise RangeError(f"need n >= k, got n={n} k={k}")
    full = (1 << k) - 1
    items = tuple(1 << j for j in range(k)) + (full,) * (n - k)
    return SetSystem(k, items)


def construct_m_plus_1(k: int, m: int) -> SetSystem:
    """m singleton items plus one item replicated on the first k servers."""
    if not 2 <= k <= m:
        raise ParamError(f"need 2 <= k <= m, got k={k} m={m}")
    items = tuple(1 << j for j in range(m)) + ((1 << k) - 1,)
    return SetSystem(m, items)


def construct_large_n(n: int, k: int, m: int) -> SetSystem:
    """k-1 items per (k-1)-subset of servers, the rest on the first k servers.

    Optimal for n >= (k-1)*C(m,k-1); storage kn - (k-1)*C(m,k-1).
    """
    if not 2 <= k <= m:
        raise ParamError(f"need 2 <= k <= m, got k={k} m={m}")
    grouped = (k - 1) * comb(m, k - 1)
    if n < grouped:
        raise RangeError(f"need n >= (k-1)*C(m,k-1) = {grouped}, got n={n}")
    items: list[int] = []
    for mask in w_masks_colex(m, k - 1):
        items.extend([mask] * (k - 1))
    items.extend([(1 << k) - 1] * (n - grouped))
    return SetSystem(m, tuple(items))


def construct_range_a(n: int, k: int, m: int) -> tuple[SetSystem, ConstructionTrace]:
    """Deletion construction for C(m,k-2) <= n <= (k-1)*C(m,k-1), k >= 3.

    Start from k-1 copies of every (k-1)-subset.  Each full step takes the
    next (k-2)-subset in colex order, deletes one copy of each of its
    m-k+2 supersets, and adds the (k-2)-subset once; a final partial step
    deletes the leftover count of supersets of the next (k-2)-subset
    without adding it.  Storage: n*(k-1) - floor(D/(m-k+1)) with
    D = (k-1)*C(m,k-1) - n, which meets the counting lower bound.
    """
    if not m >= k >= 3:
        raise RangeError(f"need m >= k >= 3, got k={k} m={m}")
    ceiling = (k - 1) * comb(m, k - 1)
    floor_n = comb(m, k - 2)
    if not floor_n <= n <= ceiling:
        raise RangeError(f"need {floor_n} <= n <= {ceiling}, got n={n}")
    width = m - k + 1
    deficit = ceiling - n
    full_steps, leftover = divmod(deficit, width)

    counts: Counter = Counter({mask: k - 1 for mask in w_masks_colex(m, k - 1)})
    initial = Profile(k, tuple(ceiling if j == k - 1 else 0 for j in range(1, k + 1)))
    return _run_steps(counts, initial, m, w_masks_colex(m, k - 2), full_steps, leftover, 1)


def construct_range_b(n: int, k: int, m: int) -> tuple[SetSystem, ConstructionTrace]:
    """Code-guided construction below C(m,k-2) for k >= 5.

    Start from one copy of every (k-2)-subset.  Steps are driven by
    weight-(k-3) codewords at pairwise distance >= 4, so no two steps
    compete for the same superset: each full step deletes all m-k+3
    (k-2)-supersets of its codeword and adds two copies of the codeword;
    the partial step deletes the leftover count only.  Storage:
    n*(k-2) - 2*floor(D/(m-k+1)) with D = C(m,k-2) - n; optimal when
    D mod (m-k+1) is below half the modulus, else one above the bound.
    """
    if k < 5:
        raise RangeError(f"code-guided construction needs k >= 5, got k={k}")
    if m < k:
        raise RangeError(f"need m >= k, got k={k} m={m}")
    ceiling = comb(m, k - 2)
    if not 1 <= n <= ceiling:
        raise RangeError(f"need 1 <= n <= C(m,k-2) = {ceiling}, got n={n}")
    code = best_d4_code(m, k - 3)
    width = m - k + 1
    if n < ceiling - width * code.size:
        raise RangeError(
            f"n={n} below the constructible floor {ceiling - width * code.size} "
            f"(code of size {code.size})"
        )
    # The floor check gives deficit <= width * |code|, so the code has a
    # word for every full step and for a partial one.
    deficit = ceiling - n
    full_steps, leftover = divmod(deficit, width)

    counts: Counter = Counter({mask: 1 for mask in w_masks_colex(m, k - 2)})
    initial = Profile(k, tuple(ceiling if j == k - 2 else 0 for j in range(1, k + 1)))
    return _run_steps(counts, initial, m, iter(sorted(code.words)), full_steps, leftover, 2)


def _uniform_code(m: int, w: int, d2: int) -> ConstantWeightCode:
    # Greedy is the deterministic default; for distance 4 the residue-class
    # construction sometimes beats it, and the larger code wins.  A size tie
    # keeps greedy, where best_d4_code keeps the residue class, and the two
    # word lists then differ (at (m, w) = (8, 2), for one), so this choice
    # stays separate from best_d4_code's.
    greedy = _greedy_scan(m, d2, w, None)
    if d2 == 4:
        residue = graham_sloane_d4(m, w)
        if residue.size > len(greedy):
            return residue
    return ConstantWeightCode(m, w, d2, tuple(greedy))


def construct_uniform(c: int, k: int, m: int) -> SetSystem:
    """c-uniform layout: k-c-1 copies of each word of a distance-2(k-c-1) code.

    Defined for floor(k/2) <= c < k-1 (the c = k-1 and c = k-2 cases are
    covered by construct_large_n / construct_range_a instead).  The item
    count n = (k-c-1) * |code| is determined by the code found.
    """
    if not 1 <= k // 2 <= c < k - 1 <= m - 1:
        raise ParamError(
            f"need 1 <= floor(k/2) <= c < k-1 <= m-1, got c={c} k={k} m={m}"
        )
    copies = k - c - 1
    code = _uniform_code(m, c, 2 * copies)
    counts = Counter({word: copies for word in code.words})
    return _system_from_counts(m, counts)


_METHOD = {regime.tag: regime.method for regime in bounds.REGIMES}


def _build_m_equals_k(n: int, k: int, m: int) -> SetSystem:
    if m != k:
        raise RangeError(f"method {_METHOD['m=k']} needs m == k, got k={k} m={m}")
    return construct_m_equals_k(n, k)


def _build_m_plus_1(n: int, k: int, m: int) -> SetSystem:
    if n != m + 1:
        raise RangeError(f"method {_METHOD['n=m+1']} needs n == m+1, got n={n} m={m}")
    return construct_m_plus_1(k, m)


# The builder of each constructive regime in bounds.REGIMES, by tag, all
# called as builder(n, k, m).
BUILDERS = {
    "trivial": construct_trivial,
    "m=k": _build_m_equals_k,
    "n=m+1": _build_m_plus_1,
    "large-n": construct_large_n,
    "range-a": lambda n, k, m: construct_range_a(n, k, m)[0],
    "range-b": lambda n, k, m: construct_range_b(n, k, m)[0],
}


def construct_best(n: int, k: int, m: int) -> tuple[SetSystem, bounds.BoundResult]:
    """Build the first applicable regime in ``bounds.REGIMES`` that has a builder.

    Returns the layout together with the bounds verdict for (n,k,m), whose
    ``upper`` is that regime's storage, after asserting that the built
    storage matches it.  Raises Unsupported in the uncovered middle range
    (m+2 < n < C(m,k-2) beyond the code range).
    """
    verdict = bounds.known_n(Params(n, k, m))
    if verdict.upper is None:
        raise Unsupported(
            f"no construction covers n={n} k={k} m={m} "
            "(middle range between n=m+1 and the code-construction floor)"
        )
    tag = next(regime.tag for regime in bounds.REGIMES
               if regime.method is not None and regime.value(n, k, m) is not None)
    system = BUILDERS[tag](n, k, m)
    built = total_storage(system)
    if built != verdict.upper:
        raise AssertionError(f"{tag} built N={built}, formula says {verdict.upper}")
    return system, verdict
