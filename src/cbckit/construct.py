"""Explicit layout constructions, each matching a known-optimal regime.

The two deletion-based builders (``construct_range_a`` and
``construct_range_b``) start from a fully replicated collection and
systematically trade deleted supersets for smaller added sets.  Each
deletion must find a copy still present, which is exactly the availability
argument behind the constructions' correctness.  Neither builder replays
its steps; each lists its output in closed form.  Range-a takes each
(k-1)-set's deletions from its distance to the first auxiliary set no full
step takes, lists only the sets it returns, in time linear in n + m, and
checks each set's count as it lists it.  Range-b's code-guided steps
delete pairwise distinct supersets, which the code's minimum distance
guarantees, so it collects them in one set and keeps the rest of its one
copy of each set with one filter pass over the level.
Every builder refuses, with a ParamError raised after its own parameter
checks and before it lists anything, more than ``MAX_LAYOUT_BITS`` bits:
n*m for a layout, m*C(m, c) for the candidate words of
``construct_uniform``, whose n follows from its code.

Item order: ``construct_trivial``, ``construct_m_equals_k``, the two
deletion builders and ``construct_uniform`` list masks ascending, i.e.
colexicographic on the underlying subsets.  ``construct_m_plus_1`` and
``construct_large_n`` list their sorted part first and put their extra
items, all on servers 0..k-1, last: ``construct_m_plus_1(5, 2, 4)`` gives
masks 1, 2, 4, 8, 3.
"""

from __future__ import annotations

import itertools
from math import comb

from . import bounds
from .core import MAX_LAYOUT_BITS, Params, SetSystem, bits, total_storage
from .cwc import best_code, best_d4_code, colex_level, w_masks_colex
from .errors import MAX_PRINTED_BITS, ParamError, RangeError, Unsupported, count_text
from .hall import supersets_adding


def _check_size(n: int, m: int) -> None:
    """Raise ParamError, before a builder lists anything, when n*m exceeds ``MAX_LAYOUT_BITS``."""
    if n * m > MAX_LAYOUT_BITS:
        raise ParamError(
            f"a layout of n={n} items on m={m} servers has n*m = {count_text(n * m)} bits, "
            f"more than {MAX_LAYOUT_BITS}"
        )


def construct_trivial(n: int, k: int, m: int) -> SetSystem:
    """One distinct server per item; optimal whenever n <= m."""
    if not 1 <= k <= m:
        raise ParamError(f"need 1 <= k <= m, got k={k} m={m}")
    if n > m:
        raise RangeError(f"trivial layout needs n <= m, got n={n} m={m}")
    if n < 0:
        raise ParamError(f"negative item count n={n}")
    _check_size(n, m)
    return SetSystem(m, tuple(1 << j for j in range(n)))


def construct_m_equals_k(n: int, k: int, m: int) -> SetSystem:
    """k items on one server each, every further item on all k = m servers."""
    if m != k:
        raise RangeError(f"method m-equals-k needs m == k, got k={k} m={m}")
    if k < 1:
        raise ParamError(f"batch size must be positive, got k={k}")
    if n < k:
        raise RangeError(f"need n >= k, got n={n} k={k}")
    _check_size(n, m)
    full = (1 << k) - 1
    items = tuple(1 << j for j in range(k)) + (full,) * (n - k)
    return SetSystem(k, items)


def construct_m_plus_1(n: int, k: int, m: int) -> SetSystem:
    """m singleton items plus one item replicated on the first k servers."""
    if n != m + 1:
        raise RangeError(f"method m-plus-1 needs n == m+1, got n={n} m={m}")
    if not 2 <= k <= m:
        raise ParamError(f"need 2 <= k <= m, got k={k} m={m}")
    _check_size(n, m)
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
        raise RangeError(f"need n >= (k-1)*C(m,k-1) = {count_text(grouped)}, got n={n}")
    _check_size(n, m)
    items: list[int] = []
    for mask in colex_level(m, k - 1):
        items.extend([mask] * (k - 1))
    items.extend([(1 << k) - 1] * (n - grouped))
    return SetSystem(m, tuple(items))


def construct_range_a(n: int, k: int, m: int) -> SetSystem:
    """Deletion construction for C(m,k-2) <= n <= (k-1)*C(m,k-1), k >= 3.

    Start from k-1 copies of every (k-1)-subset.  Each full step takes the
    next (k-2)-subset in colex order, deletes one copy of each of its
    m-k+2 supersets, and adds the (k-2)-subset once; a final partial step
    deletes the leftover count of supersets of the next (k-2)-subset
    without adding it.  Storage: n*(k-1) - floor(D/(m-k+1)) with
    D = (k-1)*C(m,k-1) - n, which meets the counting lower bound.

    The steps are not replayed: colex order is numeric order, so the F
    full steps take exactly the (k-2)-subsets below t, the first one no
    full step takes.  A (k-1)-subset s < t has all its (k-2)-subsets below
    t and loses all k-1 copies.  One s > t loses a copy for each bit x of
    s with s - 2^x < t, i.e. 2^x > s - t, and one more if it is among the
    partial step's first ``leftover`` supersets t | 2^x.  The full steps
    leave it at least one copy, since its largest (k-2)-subset
    s - lowbit(s) is >= t (a mask strictly between them has its k-2 bits
    and more below lowbit(s)), so at most n - F + leftover sets above t are
    listed.  The layout is the F full auxiliary sets, all below t, then
    the surviving copies of each s > t, walked from t | (t+1), the
    smallest (k-1)-subset above t: already ascending, and built in time
    linear in n + m.  With n = C(m,k-2) no t is left and the layout is the
    F sets alone.  A set deleted more than k-1 times, so that some
    deletion finds no copy left, raises an AssertionError that names it.
    """
    if not m >= k >= 3:
        raise RangeError(f"need m >= k >= 3, got k={k} m={m}")
    ceiling = (k - 1) * comb(m, k - 1)
    floor_n = comb(m, k - 2)
    if not floor_n <= n <= ceiling:
        raise RangeError(f"need {count_text(floor_n)} <= n <= {count_text(ceiling)}, got n={n}")
    _check_size(n, m)
    full_steps, leftover = divmod(ceiling - n, m - k + 1)
    items = list(itertools.islice(w_masks_colex(m, k - 2), full_steps + 1))
    if len(items) == full_steps:
        return SetSystem(m, tuple(items))
    t = items.pop()
    partial = set(supersets_adding(t, [1 << x for x in range(m)])[:leftover])
    for s in w_masks_colex(m, k - 1, t | (t + 1)):
        left = k - 1 - (s >> (s - t).bit_length()).bit_count() - (s in partial)
        if left < 0:
            servers = ",".join(map(str, bits(s)))
            raise AssertionError(f"construction tried to delete {servers} with no copy left")
        items += [s] * left
    return SetSystem(m, tuple(items))


def construct_range_b(n: int, k: int, m: int) -> SetSystem:
    """Code-guided construction below C(m,k-2) for k >= 5.

    Start from one copy of every (k-2)-subset.  With D = C(m,k-2) - n,
    F = floor(D/(m-k+1)) full steps each take the next word of a
    weight-(k-3) distance-4 code, in ascending order, delete all m-k+3
    (k-2)-supersets of the word and add two copies of it; a nonzero
    leftover D mod (m-k+1) adds a partial step that deletes only that many
    supersets of the next word.  Storage: n*(k-2) - 2*F; optimal when
    D mod (m-k+1) is below half the modulus, else one above the bound.

    The steps are not replayed, and no deletion needs a check: two words
    at distance >= 4 share at most k-5 servers, so their union has at
    least k-1 and no (k-2)-set contains both.  The steps' supersets are
    therefore pairwise distinct, each deletion finds the one copy it
    removes, and no addition, always of a (k-3)-set, refills a deleted
    set.  ``ConstantWeightCode`` enforces that distance when the code is
    built, raising ParamError on any closer pair.  The layout is the F
    words twice, then every (k-2)-set outside the one set of deletions,
    in one filter pass over the colex level.
    """
    if k < 5:
        raise RangeError(f"code-guided construction needs k >= 5, got k={k}")
    if m < k:
        raise RangeError(f"need m >= k, got k={k} m={m}")
    ceiling = comb(m, k - 2)
    if not 1 <= n <= ceiling:
        raise RangeError(f"need 1 <= n <= C(m,k-2) = {count_text(ceiling)}, got n={n}")
    _check_size(n, m)
    code = best_d4_code(m, k - 3)
    width = m - k + 1
    if n < ceiling - width * code.size:
        raise RangeError(
            f"n={n} below the constructible floor {count_text(ceiling - width * code.size)} "
            f"(code of size {code.size})"
        )
    # The floor check gives D <= width * |code|, so the code has a word
    # for every full step and for a partial one.
    full_steps, leftover = divmod(ceiling - n, width)
    words = sorted(code.words)[:full_steps + 1]
    full = words[:full_steps]
    singles = [1 << x for x in range(m)]
    deleted = {word | x for x in singles for word in full if not word & x}
    if leftover:
        deleted.update(supersets_adding(words[-1], singles)[:leftover])
    items = full * 2
    items += itertools.filterfalse(deleted.__contains__, colex_level(m, k - 2))
    return SetSystem(m, tuple(sorted(items)))


def construct_uniform(c: int, k: int, m: int) -> SetSystem:
    """c-uniform layout: k-c-1 copies of each word of a distance-2(k-c-1) code.

    Defined for floor(k/2) <= c < k-1 (the c = k-1 and c = k-2 cases are
    covered by construct_large_n / construct_range_a instead).  The code is
    ``best_code``'s, after the cap on the m*C(m, c) bits of its candidate
    words.  The item count n = (k-c-1) * |code| follows from the code.
    """
    if not 1 <= k // 2 <= c < k - 1 <= m - 1:
        raise ParamError(
            f"need 1 <= floor(k/2) <= c < k-1 <= m-1, got c={c} k={k} m={m}"
        )
    copies = k - c - 1
    # m*C(m, i) for i = 1, 2, .. up to min(c, m-c), where it is m*C(m, c).  It
    # grows with i, so past the cap the build is refused; the product goes on
    # only while count_text prints it exactly, never to millions of bits.
    top = min(c, m - c)
    bits = m
    for i in range(1, top + 1):
        bits = bits * (m - i + 1) // i
        if bits > MAX_LAYOUT_BITS and (i == top or bits.bit_length() > MAX_PRINTED_BITS):
            raise ParamError(f"a uniform layout on m={m} servers lists C({m}, {c}) candidate "
                             f"words of {m} bits, {count_text(bits)} bits, more than "
                             f"{MAX_LAYOUT_BITS}")
    code = best_code(m, c, 2 * copies)
    return SetSystem(m, tuple(sorted(code.words * copies)))


# The builder of each constructive regime in bounds.REGIMES, by its
# --method name in table order, all called as builder(n, k, m).
BUILDERS = {
    "trivial": construct_trivial,
    "m-equals-k": construct_m_equals_k,
    "m-plus-1": construct_m_plus_1,
    "large-n": construct_large_n,
    "range-a": construct_range_a,
    "range-b": construct_range_b,
}


def construct_best(n: int, k: int, m: int) -> tuple[SetSystem, bounds.BoundResult]:
    """Build the first applicable regime in ``bounds.REGIMES`` that has a builder.

    Returns the layout together with the bounds verdict for (n,k,m), whose
    ``upper`` is that regime's storage, after asserting that the built
    storage matches it.  Raises Unsupported, carrying that verdict, where
    no regime with a builder applies, naming the bracket: at n = m+2 the
    exact value that ``known_n`` reports and no builder realises, and in
    the uncovered middle range (m+2 < n below the code range) the lower
    bound.
    """
    verdict = bounds.known_n(Params(n, k, m))
    if verdict.upper is None:
        bracket = (f"exact N = {verdict.exact}, which no builder realises"
                   if verdict.exact is not None else f"lower bound {verdict.lower}")
        raise Unsupported(f"no construction covers n={n} k={k} m={m} ({bracket})", verdict)
    regime = next(regime for regime in bounds.REGIMES
                  if regime.method is not None and regime.value(n, k, m) is not None)
    system = BUILDERS[regime.method](n, k, m)
    built = total_storage(system)
    if built != verdict.upper:
        raise AssertionError(f"{regime.tag} built N={built}, formula says {verdict.upper}")
    return system, verdict
