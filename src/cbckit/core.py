"""Set-system model of a replication-based storage layout.

A layout of n items over m servers is kept in dual form: each item carries
the subset of servers that hold a copy of it.  Subsets are bit masks over
server indices 0..m-1, so unions, containment tests and cardinalities are
single word operations; this is what makes the exhaustive checks elsewhere
in the package feasible.  Items form an ordered multiset (repeated subsets
are meaningful: they are distinct items replicated the same way).

The text layer (``serialize``/``parse``, the "cbc" format) writes a
set's text as the text of the set without its top server (its head),
then that server.  ``serialize`` renders a new mask as one token when its
head was rendered before, as two when its head's head was, else as each
of its tokens, and keeps at most three strings per distinct mask.
``parse`` decodes a new line tail inline when its head (all but its last
token) was decoded before, or its head's head was, and the tokens after
it are in a table from each canonical token seen to its index; every
other new tail goes through one left-to-right decoder, which raises the
tail's first error.  The memo holds at most three strings per line and
the table holds indices, not bits, so memory stays linear in the text.
Time is not linear in the text for wide masks: each new token costs word
operations on an m-bit int (``bits()`` of a new head's head, ``1 << s``
of a decoded token), so one line that names every server costs O(m**2)
bit operations.  On Python 3.11, 2 vCPUs, such a line at m = 25,000,
50,000, 100,000 and 200,000 took serialize 0.04, 0.13, 0.51 and 2.1 s and
parse 0.02, 0.04, 0.10 and 0.31 s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError, ParamError, count_text


# Cap on n*m, the bits of a layout's masks (one m-bit mask per item), for
# the builders in ``construct`` and for ``parse``: the largest layout built
# in the repo, (42499, 7, 24), has about 1.02e6.
MAX_LAYOUT_BITS = 10**7


def mask_of(indices: Iterable[int]) -> int:
    """Bit mask with the given server indices set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SetSystem:
    """m servers plus one server-subset bit mask per item.

    Immutable after construction; safe to share between threads.
    """

    m: int
    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if self.m < 1:
            raise ParamError(f"need at least one server, got m={self.m}")
        items = self.items
        if items and (min(items) < 1 or max(items) >> self.m):
            # Some item is bad; walk the items only to name the first one.
            for j, it in enumerate(items):
                if it == 0:
                    raise ParamError(f"item {j} is stored on no server")
                if it >> self.m:
                    raise ParamError(f"item {j} uses servers outside 0..{self.m - 1}")

    @classmethod
    def from_sets(cls, m: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        return cls(m, tuple(mask_of(s) for s in sets))

    @property
    def n(self) -> int:
        return len(self.items)

    def item_sets(self) -> tuple[tuple[int, ...], ...]:
        """Items as tuples of ascending server indices (for display/tests)."""
        return tuple(tuple(bits(it)) for it in self.items)


@dataclass(frozen=True)
class Params:
    """Problem parameters: n items, batches of k, m servers."""

    n: int
    k: int
    m: int

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise ParamError(f"need 1 <= k <= m, got k={self.k} m={self.m}")
        if self.n < 0:
            raise ParamError(f"negative item count n={self.n}")


def total_storage(sys: SetSystem) -> int:
    """Total number of stored copies: sum of replica-set sizes."""
    return sum(map(int.bit_count, sys.items))


def serialize(sys: SetSystem) -> str:
    """Render a layout in the "cbc" text format; inverts ``parse``.

    Header ``cbc m=<m> n=<n>``, then one line per item:
    ``<item-index>: <server indices ascending>``.  UTF-8, LF endings,
    zero-based server indices.  Output is canonical: byte-identical for
    equal systems.  A mask's text is the text of its head (the mask
    without its top bit), then that bit.  A head rendered before gives a
    new mask's text with one appended token.  A new head is its own
    head's text plus one token when that text was rendered before, and
    otherwise its head's head is rendered whole; either way the head and
    its head's head are recorded.  So the memo gains at most three
    strings per distinct mask, and memory is linear in the text; a new
    head's head's ``bits()`` costs O(m) per token, quadratic in m for a
    mask of every server.
    """
    tails = {0: ""}  # mask -> " <servers>"; masks are never 0
    lines = [f"cbc m={sys.m} n={sys.n}"]
    for j, mask in enumerate(sys.items):
        tail = tails.get(mask)
        if tail is None:
            top = mask.bit_length() - 1
            head = mask ^ (1 << top)
            text = tails.get(head)
            if text is None:
                mid = head.bit_length() - 1
                before = head ^ (1 << mid)
                text = tails.get(before)
                if text is None:
                    text = tails[before] = "".join([f" {s}" for s in bits(before)])
                text = tails[head] = f"{text} {mid}"
            tail = tails[mask] = f"{text} {top}"
        lines.append(f"{j}:{tail}")
    return "\n".join(lines) + "\n"


# After a successful parse, a character outside this run is one that int(),
# str.split() or str.splitlines() quietly normalised away: a sign, "_", a
# non-ASCII digit, CR, tab, a no-break space or a Unicode line break.
_ALPHABET = re.compile(r"[0-9a-z=: \n]*")


def _format_error(text: str, at: int, what: str) -> FormatError:
    """The format error for ``what`` at offset ``at`` of ``text``, naming its line."""
    line = text.count("\n", 0, at) + 1
    return FormatError(f"line {line}: {what}")


def _header_int(token: str, key: str) -> int:
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


def parse(text: str) -> SetSystem:
    """Parse the "cbc" text format back into a SetSystem.

    ASCII digits, spaces and LF only, and only the canonical spelling that
    ``serialize`` writes: single spaces, none at a line end, no leading
    zeros, a final LF.  The spelling is checked last, so any other error
    takes priority.  A header whose n*m exceeds ``MAX_LAYOUT_BITS`` is
    refused before any item line is decoded.  Raises FormatError on
    malformed input.  Round-trips: parse(serialize(s)) == s.

    A tail (the text after ``:``) seen before takes its earlier mask.  A
    new tail whose head (all but its last token) was decoded before and
    whose last token is in the token table is canonical iff that token's
    index lies above the head's top server; that costs one rpartition, two
    dict lookups, one shift and one comparison, inline in the loop.  A new
    head whose own head h2 was decoded before takes one step more: one
    rpartition of the head, lookups of h2 and of the head's last token,
    whose bit is b2, and the comparison h2 < b2, which records the head;
    the known-head test then makes it h2 < b2 < bit, with bit the line's
    last, and records the line.  Any other new tail goes through the one
    left-to-right decoder: it takes each token from the table, or from
    int() on a token's first sight, raises the tail's first error, and
    records the tail, its head and its head's head when the tail is
    spelled canonically, so the memo holds at most three strings per line.
    The token table maps each canonical token seen to its index below m.
    It holds indices, not bits: a table of ``1 << s`` would keep an s-bit
    int per distinct token, up to m**2/16 bytes in all for a text of only
    O(m) tokens.  Each decoded token still costs O(m) for its ``1 << s``,
    quadratic in m for a line that names every server.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "cbc":
        raise FormatError(f"bad header line {lines[0]!r}")
    m, n = _header_int(head[1], "m"), _header_int(head[2], "n")
    if m < 1:
        raise FormatError(f"need at least one server, got m={m}")
    if n * m > MAX_LAYOUT_BITS:
        raise FormatError(f"a layout of n={n} items on m={m} servers has n*m = "
                          f"{count_text(n * m)} bits, more than {MAX_LAYOUT_BITS}")
    body = lines[1:]
    if len(body) != n:
        raise FormatError(f"header says n={n} but found {len(body)} item lines")
    items = []
    decoded: dict[str, int] = {}  # canonical line tail, its head or head's head -> mask
    index: dict[str, int] = {}  # canonical spelling of a server index below m -> index
    odd = None  # position of the first line not spelled canonically
    for pos, line in enumerate(body):
        idx_str, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {pos + 2}: missing ':'")
        if idx_str != str(pos):
            try:
                idx = int(idx_str)
            except ValueError:
                raise FormatError(f"line {pos + 2}: bad item index {idx_str!r}") from None
            if idx != pos:
                raise FormatError(f"line {pos + 2}: expected item {pos}, got {idx}")
            if odd is None:
                odd = pos
        mask = decoded.get(rest)
        if mask is None:
            head, _, last = rest.rpartition(" ")
            mask = decoded.get(head)
            s = index.get(last)
            if mask is None and s is not None:
                # A new head whose own head was decoded before: one step more.
                before, _, mid = head.rpartition(" ")
                h2 = decoded.get(before)
                s2 = index.get(mid)
                if h2 is not None and s2 is not None and h2 < (b2 := 1 << s2):
                    mask = decoded[head] = h2 | b2
            if mask is not None and s is not None and mask < (bit := 1 << s):
                mask = decoded[rest] = mask | bit
            else:
                # A new head's head, or a token not taken yet: decode from
                # the left, raising the tail's first error.
                tokens = rest.split()
                if not tokens:
                    raise FormatError(f"item {pos} has no servers")
                mask = 0
                prev = -1
                canonical = rest == " " + " ".join(tokens)
                for tok in tokens:
                    s = index.get(tok)
                    if s is None:
                        try:
                            s = int(tok)
                        except ValueError:
                            raise FormatError(f"item {pos}: bad server index {tok!r}") from None
                        if str(s) == tok:  # one outside 0..m-1 raises below
                            index[tok] = s
                        else:
                            canonical = False
                    if not prev < s < m:
                        if not 0 <= s < m:
                            raise FormatError(f"item {pos}: server {s} outside 0..{m - 1}")
                        raise FormatError(f"item {pos}: server {s} after {prev}, not ascending")
                    prev = s
                    mask |= 1 << s
                if canonical:
                    decoded[rest] = mask
                    if head:
                        h1 = decoded[head] = mask ^ (1 << prev)
                        before = head.rpartition(" ")[0]
                        if before:
                            decoded[before] = h1 ^ (1 << h1.bit_length() - 1)
                elif odd is None:
                    odd = pos
        items.append(mask)
    end = _ALPHABET.match(text).end()
    if end < len(text):
        raise _format_error(text, end, f"character {text[end]!r} is not allowed")
    header = f"cbc m={m} n={n}"
    if lines[0] != header:
        raise FormatError(f"line 1: expected {header!r}, got {lines[0]!r}")
    if odd is not None:
        line = f"{odd}:" + "".join(f" {s}" for s in bits(items[odd]))
        raise FormatError(f"line {odd + 2}: expected {line!r}, got {body[odd]!r}")
    if text[-1] != "\n":
        raise _format_error(text, len(text), "no LF at the end of the text")
    return SetSystem(m, tuple(items))
