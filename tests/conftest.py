"""Shared fixtures, strategies and independent oracles for the test suite."""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count, product
from typing import Sequence, Union

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from cbckit.core import SetSystem, bits, mask_of, total_storage
from cbckit.bounds import u_value
from cbckit.cwc import w_masks_colex
from cbckit.errors import FormatError
from cbckit.hall import CrowdedSubset, Deficiency, ValidityReport

settings.register_profile("suite", max_examples=100, deadline=None, derandomize=True)
settings.load_profile("suite")


# Published worked example at n=43, k=4, m=6: the multiset obtained by
# replaying the example's construction steps (auxiliary pairs
# {0,1},{1,2},{2,3},{3,4},{4,5}, then a partial step on {0,5} deleting
# {0,1,5} and {0,2,5}).  Totals: 38 triples + 5 pairs, storage 124.
_TABLE1_COUNTS = {
    (0, 1, 2): 1, (0, 1, 3): 2, (0, 1, 4): 2, (0, 1, 5): 1,
    (0, 2, 3): 2, (0, 2, 4): 3, (0, 2, 5): 2, (0, 3, 4): 2,
    (0, 3, 5): 3, (0, 4, 5): 2, (1, 2, 3): 1, (1, 2, 4): 2,
    (1, 2, 5): 2, (1, 3, 4): 2, (1, 3, 5): 3, (1, 4, 5): 2,
    (2, 3, 4): 1, (2, 3, 5): 2, (2, 4, 5): 2, (3, 4, 5): 1,
    (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1,
}


@pytest.fixture(scope="session")
def table1_system() -> SetSystem:
    items = []
    for subset, mult in sorted(_TABLE1_COUNTS.items(), key=lambda kv: mask_of(kv[0])):
        items.extend([mask_of(subset)] * mult)
    return SetSystem(6, tuple(items))


@pytest.fixture(scope="session")
def intro_example_system() -> SetSystem:
    # The three-item running example: ({s1,s2}, {s1,s2,s3}, {s1}) on m=3.
    return SetSystem.from_sets(3, [(0, 1), (0, 1, 2), (0,)])


@st.composite
def set_systems(draw, max_m=7, max_n=9, max_set_size=4, min_n=0):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(min_n, max_n))
    items = [
        mask_of(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=min(max_set_size, m))))
        for _ in range(n)
    ]
    return SetSystem(m, tuple(items))


def brute_force_valid(system: SetSystem, k: int) -> bool:
    """Ground truth: every k-subset of items has an injective server choice.

    Tries all assignment functions (one server from each replica set) and
    looks for one with pairwise-distinct servers.  Exponential; only for
    tiny systems.
    """
    r = min(k, system.n)
    if r == 0:
        return True
    for combo in combinations(range(system.n), r):
        choices = [tuple(bits(system.items[j])) for j in combo]
        if not any(len(set(pick)) == r for pick in product(*choices)):
            return False
    return True


def least_valid_layout(n: int, k: int, m: int) -> tuple[int, tuple[int, ...]]:
    """Reference for oracle.search_optimal: the least storage N at which
    some layout of n items is valid at batch size k, and the first such
    layout among the ascending combinations of masks of at most min(k, m)
    servers, checked by brute force with no pruning.
    """
    masks = [mask for mask in range(1, 1 << m) if mask.bit_count() <= min(k, m)]
    for storage in count(n):
        for items in combinations_with_replacement(masks, n):
            if sum(map(int.bit_count, items)) == storage and brute_force_valid(
                SetSystem(m, items), k
            ):
                return storage, items


def hc2_reference(system: SetSystem, k: int) -> ValidityReport:
    """Per-subset reference for verify_hc2: visit every server subset T of
    fewer than k servers in size-then-lexicographic order and count the
    replica sets inside T by walking T's submasks.  The first crowded T is
    the witness.
    """
    by_mask = Counter(system.items)
    for r in range(k):
        for combo in combinations(range(system.m), r):
            mask = mask_of(combo)
            contained = 0
            sub = mask
            while True:
                contained += by_mask.get(sub, 0)
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            if contained > r:
                inside = tuple(j for j, it in enumerate(system.items) if it & ~mask == 0)
                return ValidityReport(False, CrowdedSubset(combo, inside))
    return ValidityReport(True)


def sdr_reference(sets: Sequence[int]) -> Union[list[int], Deficiency]:
    """Recursive reference for find_sdr: the same augmenting-path search,
    servers scanned in ascending index, with a set of seen servers and one
    Python frame per step of the alternating path.
    """
    owner: dict[int, int] = {}  # server -> position in `sets`

    def augment(pos: int, seen: set[int]) -> bool:
        for s in bits(sets[pos]):
            if s in seen:
                continue
            seen.add(s)
            if s not in owner or augment(owner[s], seen):
                owner[s] = pos
                return True
        return False

    for pos in range(len(sets)):
        seen: set[int] = set()
        if not augment(pos, seen):
            # On failure `seen` is exactly the union of the replica sets of
            # all positions reachable by alternating paths, each of which is
            # matched except `pos` itself.
            reachable = sorted({pos} | {owner[s] for s in seen})
            return Deficiency(tuple(reachable), tuple(sorted(seen)))
    server_of = {pos: s for s, pos in owner.items()}
    return [server_of[pos] for pos in range(len(sets))]


# The characters a canonical "cbc" text may use; the parser's own pattern
# is spelt again here so that a fault in it shows against this one.
_CBC_ALPHABET = re.compile(r"[0-9a-z=: \n]*")


def _header_value(token: str, key: str) -> int:
    """The non-negative integer of a ``key=<int>`` header token."""
    prefix = key + "="
    if not token.startswith(prefix):
        raise FormatError(f"expected {prefix}<int>, got {token!r}")
    try:
        value = int(token[len(prefix):])
    except ValueError:
        raise FormatError(f"expected {prefix}<int>, got {token!r}") from None
    if value < 0:
        raise FormatError(f"{key} must be non-negative, got {value}")
    return value


def parse_reference(text: str) -> SetSystem:
    """Reference for core.parse: the same grammar and messages, with every
    line's tail decoded token by token, with no memo of earlier tails, and
    every line compared with its canonical spelling.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "cbc":
        raise FormatError(f"bad header line {lines[0]!r}")
    m, n = _header_value(head[1], "m"), _header_value(head[2], "n")
    if m < 1:
        raise FormatError(f"need at least one server, got m={m}")
    body = lines[1:]
    if len(body) != n:
        raise FormatError(f"header says n={n} but found {len(body)} item lines")
    masks = []
    for pos, line in enumerate(body):
        idx_str, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {pos + 2}: missing ':'")
        try:
            idx = int(idx_str)
        except ValueError:
            raise FormatError(f"line {pos + 2}: bad item index {idx_str!r}") from None
        if idx != pos:
            raise FormatError(f"line {pos + 2}: expected item {pos}, got {idx}")
        tokens = rest.split()
        if not tokens:
            raise FormatError(f"item {pos} has no servers")
        mask = 0
        prev = -1
        for tok in tokens:
            try:
                s = int(tok)
            except ValueError:
                raise FormatError(f"item {pos}: bad server index {tok!r}") from None
            if not prev < s < m:
                if not 0 <= s < m:
                    raise FormatError(f"item {pos}: server {s} outside 0..{m - 1}")
                raise FormatError(f"item {pos}: server {s} after {prev}, not ascending")
            prev = s
            mask |= 1 << s
        masks.append(mask)
    end = _CBC_ALPHABET.match(text).end()
    if end < len(text):
        line = text.count("\n", 0, end) + 1
        raise FormatError(f"line {line}: character {text[end]!r} is not allowed")
    header = f"cbc m={m} n={n}"
    if lines[0] != header:
        raise FormatError(f"line 1: expected {header!r}, got {lines[0]!r}")
    for pos, (line, mask) in enumerate(zip(body, masks)):
        canonical = f"{pos}: " + " ".join(map(str, bits(mask)))
        if line != canonical:
            raise FormatError(f"line {pos + 2}: expected {canonical!r}, got {line!r}")
    if not text.endswith("\n"):
        raise FormatError(f"line {len(lines)}: no LF at the end of the text")
    return SetSystem(m, tuple(masks))


def min_distance(words: Sequence[int]) -> float:
    """Reference for a code's distance: the least Hamming distance over all
    pairs of words, compared one pair at a time (infinite below two words).
    """
    return min(((a ^ b).bit_count() for a, b in combinations(words, 2)), default=math.inf)


def chain_system(length: int) -> SetSystem:
    """Item j on servers {j, j+1} for j < length, then one item on {0}.

    Requesting every item in index order leaves the last one an alternating
    path through all the others.
    """
    return SetSystem.from_sets(length + 1, [(j, j + 1) for j in range(length)] + [(0,)])


def assert_storage_bound(system: SetSystem, k: int) -> None:
    """Profile-level storage inequality every valid layout must satisfy.

    For every c in 1..k-1:
    N >= n*c - (k-c)*(U(m,k,c)-n)/(m-k+1) + (k-c)*(m-k)/(m-k+1)*A_k,
    checked on the k-truncated layout, each set cut to k of its servers:
    storage sum min(|S|, k) and A_k = #{|S| >= k}.  Truncation can only
    shrink sets, so the original N satisfies the bound a fortiori.
    """
    m = system.m
    if not 2 <= k <= m:
        raise ValueError("bound needs 2 <= k <= m")
    n = system.n
    sizes = [it.bit_count() for it in system.items]
    storage = sum(min(size, k) for size in sizes)
    a_k = sum(size >= k for size in sizes)
    for c in range(1, k):
        rhs = (
            n * c
            - Fraction(k - c) * (u_value(m, k, c) - n) / (m - k + 1)
            + Fraction((k - c) * (m - k), m - k + 1) * a_k
        )
        assert storage >= rhs, (c, storage, rhs)
        assert total_storage(system) >= math.ceil(rhs)


def run_steps_reference(n: int, k: int, m: int, w: int, each: int, aux_sets,
                        copies: int) -> SetSystem:
    """Sequential reference for both deletion builders, construct_range_a
    and construct_range_b: the deletion construction run one deletion at a
    time, each checked against the copies left before the next, with
    additions applied as their step ends.
    """
    ceiling = each * math.comb(m, w)
    full_steps, leftover = divmod(ceiling - n, m - k + 1)
    counts = Counter({mask: each for mask in w_masks_colex(m, w)})
    singles = [1 << x for x in range(m)]
    for step in range(full_steps + (1 if leftover else 0)):
        aux = next(aux_sets)
        supersets = tuple(aux | bit for bit in singles if not aux & bit)
        if step == full_steps:
            supersets = supersets[:leftover]
        for sup in supersets:
            left = counts[sup]
            if left < 1:
                servers = ",".join(str(s) for s in bits(sup))
                raise AssertionError(f"construction tried to delete {servers} with no copy left")
            counts[sup] = left - 1
        if step < full_steps:
            counts[aux] += copies
    items = []
    for mask in sorted(counts):
        items.extend([mask] * counts[mask])
    return SetSystem(m, tuple(items))
