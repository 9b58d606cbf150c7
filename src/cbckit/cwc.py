"""Binary constant-weight codes viewed as families of w-subsets.

Codewords are bit masks of weight w over positions 0..m-1; the Hamming
distance between two words equals the size of the symmetric difference of
the underlying subsets and is always even for equal weights.  Two words are
closer than d2 exactly when they share at least w - j positions, with
j = min((d2 - 1) // 2, w); ``_first_fit`` tests that for every code in
O(size * C(w, j)) time.  C(w, j) may be at most ``MAX_WORD_KEYS``; a
larger one is a ParamError, raised before any word is keyed.  A
fixed-residue-sum class gives distance 4 (``graham_sloane_d4``), and a
first-fit scan of every word gives any even distance: ``best_code``, the
one code choice of range-b and the uniform construction, keeps the larger
of the two at distance 4, the residue class on a tie.  Each lists all
C(m, w) candidate words and refuses, with a ParamError, more than
``MAX_CODE_CANDIDATES`` of them before listing any.  Codes are a tool of
those two constructions only; they have no text format of their own.

The weight-w masks in colex (= numeric) order come two ways.
``colex_level`` lists a whole level, for the builders, ``hall`` and
``oracle`` that hold one as a list: one list comprehension per weight, by
Pascal's rule, except for w <= 1 and w > m - w, where it takes the walk.
``w_masks_colex`` is that walk, lazy, one mask at a time, for scans that
stream, stop early or start mid-level: the code scans, which may pass 10^6
words, and range-a's prefix and tail.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .core import bits
from .errors import ParamError

# Cap on C(w, j), the keys ``_first_fit`` builds per word: every distance-4
# code (C(w, 1) = w) and every weight up to 22 stays below it, while one
# word at w = d2 = 30 would need C(30, 14), about 1.5e8.
MAX_WORD_KEYS = 10**6

# Cap on C(m, w), the candidate words a full scan lists: the (30, 6) code
# of the range-b check has 593,775, while (40, 9) would list about 2.7e8.
MAX_CODE_CANDIDATES = 10**6


def w_masks_colex(m: int, w: int, start: int | None = None):
    """All weight-w masks over m positions, ascending numerically (= colex).

    The lazy walk, one Gosper step per mask, for scans that stream, stop
    early or start mid-level; ``colex_level`` lists a whole level faster.
    Given ``start``, a weight-w mask, the walk begins there instead of at
    the smallest mask, so its cost is the masks listed from ``start`` on.
    """
    if w < 0 or w > m:
        return
    if w == 0:
        yield 0
        return
    v = (1 << w) - 1 if start is None else start
    limit = 1 << m
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = (((ripple ^ v) >> 2) // low) | ripple


def colex_level(m: int, w: int) -> list[int]:
    """The whole weight-w level over m positions, as ``w_masks_colex`` lists it.

    Built one weight at a time by Pascal's rule: the j-masks whose top bit
    is ``top`` are that bit joined with the first C(top, j-1) of the
    (j-1)-masks, so each weight is one list comprehension over the last.
    Weight j is built over m - w + j positions, the fewest that the
    heavier weights still extend to m.  For w <= 1 there is nothing to
    build, and for w > m - w those lower levels hold more masks than the
    level itself (about 1,300 for the 190 of (20, 18)), so both take the
    walk instead.
    """
    if w <= 1 or w > m - w:
        return list(w_masks_colex(m, w))
    masks = [1 << s for s in range(m - w + 1)]
    for j in range(2, w + 1):
        masks = [x | 1 << top for top in range(j - 1, m - w + j) for x in masks[:comb(top, j - 1)]]
    return masks


@dataclass(frozen=True)
class ConstantWeightCode:
    """Weight-w words at declared minimum distance d2, checked in O(size * C(w, j)) time."""

    m: int
    w: int
    d2: int
    words: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if not 1 <= self.w <= self.m:
            raise ParamError(f"need 1 <= w <= m, got w={self.w} m={self.m}")
        if self.d2 < 2 or self.d2 % 2:
            raise ParamError(f"distance must be even and >= 2, got {self.d2}")
        for word in self.words:
            if word >> self.m:
                raise ParamError(f"word {word:#x} uses positions outside 0..{self.m - 1}")
            if word.bit_count() != self.w:
                raise ParamError(f"word {word:#x} has weight {word.bit_count()}, not {self.w}")
        _, clash = _first_fit(self.words, self.w, self.d2)
        if clash:
            a, b = clash
            raise ParamError(f"words {a:#x} and {b:#x} are closer than distance {self.d2}")

    @property
    def size(self) -> int:
        return len(self.words)


def _every_word(m: int, w: int, d2: int):
    """All C(m, w) weight-w words, colex order, for a code at distance d2.

    Raises ParamError, before listing any, when C(m, w) exceeds
    ``MAX_CODE_CANDIDATES``.
    """
    if comb(m, w) > MAX_CODE_CANDIDATES:
        raise ParamError(
            f"a distance-{d2} code of weight {w} on {m} positions scans C({m}, {w}) "
            f"candidate words, more than {MAX_CODE_CANDIDATES}"
        )
    return w_masks_colex(m, w)


def graham_sloane_d4(m: int, w: int) -> ConstantWeightCode:
    """Distance-4 code: the largest class of w-subsets with a fixed element-sum mod m.

    Swapping a single element changes the sum by a nonzero residue, so any
    two distinct words in one class differ in at least two elements on each
    side, i.e. are at distance >= 4.  The largest class has at least
    C(m,w)/m words; ties between classes break to the smallest residue.
    """
    if not 1 <= w <= m:
        raise ParamError(f"need 1 <= w <= m, got w={w} m={m}")
    classes: dict[int, list[int]] = {}
    for mask in _every_word(m, w, 4):
        classes.setdefault(sum(bits(mask)) % m, []).append(mask)
    best = max(classes, key=lambda r: (len(classes[r]), -r))
    return ConstantWeightCode(m, w, 4, tuple(classes[best]))


def _first_fit(words, w: int, d2: int) -> tuple[list[int], tuple | None]:
    """Keep each word at distance >= d2 from the words kept before it.

    Weight-w words sharing s positions are at distance 2(w - s), so two are
    closer than d2 exactly when they share a (w - j)-subset, with
    j = min((d2 - 1) // 2, w).  A word's keys are those C(w, j) subsets; it
    is kept iff no kept word owns one.  O(len(words) * C(w, j)) time;
    raises ParamError up front when C(w, j) exceeds ``MAX_WORD_KEYS``.
    Returns the kept words and, at the first dropped word b, the pair (a, b)
    with a the first kept word closer to b than d2 (None if none dropped).
    """
    j = min((d2 - 1) // 2, w)
    # C(w, j) = C(w, w - j); past 20 that index means w >= 42, where C(w, 20)
    # alone is above the cap, so no huge binomial is ever computed.
    if comb(w, min(j, w - j, 20)) > MAX_WORD_KEYS:
        raise ParamError(
            f"distance {d2} at weight {w} needs C({w}, {j}) keys per word, "
            f"more than {MAX_WORD_KEYS}"
        )
    owner: dict[int, int] = {}
    kept: list[int] = []
    clash = None
    for v in words:
        keys = [v - s for s in map(sum, itertools.combinations([1 << p for p in bits(v)], j))]
        if owner.keys().isdisjoint(keys):
            owner.update(dict.fromkeys(keys, len(kept)))
            kept.append(v)
        elif clash is None:
            clash = (kept[min(owner[key] for key in keys if key in owner)], v)
    return kept, clash


@functools.cache
def best_code(m: int, w: int, d2: int) -> ConstantWeightCode:
    """The code that every construction takes for weight w at distance d2.

    A first-fit scan of every word; at d2 = 4 also the residue class,
    which wins a size tie.  Exact-value claims downstream are tied to this
    constructible size, not to the abstract maximum.  Cached per
    (m, w, d2): one range-b ``construct`` asks for the same code up to four
    times, and the result is immutable.  Raises ParamError, before listing
    any word, when C(m, w) exceeds ``MAX_CODE_CANDIDATES``.
    """
    residue = graham_sloane_d4(m, w) if d2 == 4 else None
    greedy, _ = _first_fit(_every_word(m, w, d2), w, d2)
    if residue is not None and residue.size >= len(greedy):
        return residue
    return ConstantWeightCode(m, w, d2, tuple(greedy))


def best_d4_code(m: int, w: int) -> ConstantWeightCode:
    """``best_code`` at distance 4, the code of range-b."""
    return best_code(m, w, 4)
