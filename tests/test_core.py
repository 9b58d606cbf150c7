import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbckit.bounds import b_value
from cbckit.construct import construct_m_plus_1, construct_range_a
from cbckit.core import (
    MAX_LAYOUT_BITS,
    Params,
    SetSystem,
    mask_of,
    parse,
    serialize,
    total_storage,
)
from cbckit.cwc import ConstantWeightCode
from cbckit.errors import FormatError, ParamError
from cbckit.hall import RetrievalPlan, ValidityReport, verify_hc2

from conftest import parse_reference, set_systems


def test_total_storage_table1(table1_system):
    assert total_storage(table1_system) == 124


def test_total_storage_empty():
    assert total_storage(SetSystem(3, ())) == 0


def test_total_storage_three_copies():
    sys3 = SetSystem.from_sets(3, [(0, 1)] * 3)
    assert total_storage(sys3) == 6


def truncate(system, k):
    """Cut every replica set larger than k to its k smallest servers.

    search_optimal lists masks of at most k servers only: it rests on this
    cut keeping a valid layout valid without adding storage.
    """
    items = []
    for it in system.items:
        while it.bit_count() > k:
            it ^= 1 << it.bit_length() - 1
        items.append(it)
    return SetSystem(system.m, tuple(items))


def test_truncate_preserves_validity_example():
    sys1 = SetSystem.from_sets(4, [(0, 1, 2), (1, 2, 3)])
    cut = truncate(sys1, 2)
    assert cut.item_sets() == ((0, 1), (1, 2))
    assert verify_hc2(cut, 2).valid


def test_serialize_example(intro_example_system):
    assert serialize(intro_example_system) == "cbc m=3 n=3\n0: 0 1\n1: 0 1 2\n2: 0\n"


def test_parse_round_trip_example(intro_example_system):
    assert parse(serialize(intro_example_system)) == intro_example_system


def test_parse_server_out_of_range():
    with pytest.raises(FormatError):
        parse("cbc m=2 n=1\n0: 5\n")


def test_parse_errors():
    with pytest.raises(FormatError):
        parse("")
    with pytest.raises(FormatError):
        parse("cbc m=x n=1\n0: 0\n")
    with pytest.raises(FormatError):
        parse("cbc m=3 n=2\n0: 0\n")
    with pytest.raises(FormatError):
        parse("cbc m=3 n=1\n0:\n")
    with pytest.raises(FormatError):
        parse("cbc m=3 n=1\n1: 0\n")
    with pytest.raises(FormatError):
        parse("cbc m=3 n=1\n0: zero\n")
    with pytest.raises(FormatError):
        parse("cbc m=3 n=1\n0: 1 1\n")


# Texts that int(), str.split() and str.splitlines() would read as the
# canonical layout beside them; the format allows ASCII digits, spaces and
# LF only.
NON_CANONICAL = {
    "plus sign": ("cbc m=+3 n=1\n0: 0\n", "cbc m=3 n=1\n0: 0\n"),
    "underscore": ("cbc m=12 n=1\n0: 1_0\n", "cbc m=12 n=1\n0: 10\n"),
    "arabic-indic digit": ("cbc m=3 n=1\n0: \u0661\n", "cbc m=3 n=1\n0: 1\n"),
    "crlf": ("cbc m=3 n=1\r\n0: 1\r\n", "cbc m=3 n=1\n0: 1\n"),
    "no-break space": ("cbc m=3 n=1\n0: 0\u00a01\n", "cbc m=3 n=1\n0: 0 1\n"),
    "line separator": ("cbc m=3 n=1\u20280: 1\n", "cbc m=3 n=1\n0: 1\n"),
}


@pytest.mark.parametrize("case", NON_CANONICAL)
def test_parse_rejects_non_canonical_characters(case):
    text, canonical = NON_CANONICAL[case]
    parse(canonical)
    with pytest.raises(FormatError, match="is not allowed"):
        parse(text)


def test_parse_names_the_line_of_the_bad_character():
    with pytest.raises(FormatError, match=r"^line 1: character '\+' is not allowed$"):
        parse("cbc m=+3 n=1\n0: 0\n")
    with pytest.raises(FormatError, match=r"^line 3: character '-' is not allowed$"):
        parse("cbc m=3 n=2\n0: 1\n1: -0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        ("cbc m=3\n", "bad header line 'cbc m=3'"),
        ("cbc n=3 m=1\n", "expected m=<int>, got 'n=3'"),
        ("cbc m=-3 n=1\n0: 0\n", "m must be non-negative, got -3"),
        ("cbc m=0 n=0\n", "need at least one server, got m=0"),
        ("cbc m=3 n=2\n0: 0\n", "header says n=2 but found 1 item lines"),
        ("cbc m=3 n=1\n0 1\n", "line 2: missing ':'"),
        ("cbc m=3 n=1\nx: 1\n", "line 2: bad item index 'x'"),
        ("cbc m=3 n=1\n1: 0\n", "line 2: expected item 0, got 1"),
        ("cbc m=3 n=1\n0:\n", "item 0 has no servers"),
        ("cbc m=3 n=1\n0: zero\n", "item 0: bad server index 'zero'"),
        ("cbc m=3 n=1\n0: -1\n", "item 0: server -1 outside 0..2"),
        ("cbc m=3 n=1\n0: 1 1\n", "item 0: server 1 after 1, not ascending"),
        ("cbc m=3 n=1\n0: 2 1\n", "item 0: server 1 after 2, not ascending"),
        ("cbc m=3 n=1\n0: 2 3\n", "item 0: server 3 outside 0..2"),
        # Texts int() and str.split() would read, but not as serialize writes them.
        ("cbc m=03 n=1\n00: 01\n", "line 1: expected 'cbc m=3 n=1', got 'cbc m=03 n=1'"),
        ("cbc  m=3 n=1\n0: 1\n", "line 1: expected 'cbc m=3 n=1', got 'cbc  m=3 n=1'"),
        ("cbc m=3 n=1\n00: 1\n", "line 2: expected '0: 1', got '00: 1'"),
        ("cbc m=3 n=1\n0: 01\n", "line 2: expected '0: 1', got '0: 01'"),
        ("cbc m=3 n=1\n0:  1\n", "line 2: expected '0: 1', got '0:  1'"),
        ("cbc m=3 n=1\n0: 1 \n", "line 2: expected '0: 1', got '0: 1 '"),
        ("cbc m=3 n=1\n0:1\n", "line 2: expected '0: 1', got '0:1'"),
        ("cbc m=3 n=2\n0: 1\n1: 0  2\n", "line 3: expected '1: 0 2', got '1: 0  2'"),
        ("cbc m=3 n=1\n0: 1", "line 2: no LF at the end of the text"),
        ("cbc m=3 n=0", "line 1: no LF at the end of the text"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert type(info.value) is FormatError
    assert str(info.value) == message


# Near-canonical texts: small headers and lines, then a few characters
# inserted or dropped (no digits are inserted, so every number stays small).
_NASTY = "\n\r\t :=+-_ cbmnx\u00a0\u2028\u0661\x00\x85\ufeff"


@st.composite
def near_format_texts(draw):
    lines = [f"cbc m={draw(st.integers(0, 9))} n={draw(st.integers(0, 9))}"]
    for j in range(draw(st.integers(0, 4))):
        positions = draw(st.lists(st.integers(0, 9), max_size=4))
        lines.append(f"{j}: " + " ".join(map(str, positions)))
    text = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "drop"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(_NASTY)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@given(st.one_of(st.text(), near_format_texts()))
def test_parsers_return_or_raise_format_error(text):
    try:
        parse(text)
    except FormatError as exc:
        assert type(exc) is FormatError
        return
    assert set(text) <= set("0123456789abcdefghijklmnopqrstuvwxyz=: \n")


# Ways to spoil one line tail (the text after ":"), given its tokens, m
# and the good and spoiled tails made so far.  The last ten build on an
# earlier tail, whose prefixes the parser may have decoded already; a good
# tail extended by a higher index is still good, and so is its head's head
# extended by two ascending indices.
_TAIL_MUTATIONS = {
    "doubled spaces": lambda toks, m, good, spoiled: " " + "  ".join(toks),
    "leading space": lambda toks, m, good, spoiled: "  " + " ".join(toks),
    "no leading space": lambda toks, m, good, spoiled: " ".join(toks),
    "trailing space": lambda toks, m, good, spoiled: " " + " ".join(toks) + " ",
    "tab": lambda toks, m, good, spoiled: " " + "\t".join(toks),
    "plus": lambda toks, m, good, spoiled: " +" + " ".join(toks),
    "underscore": lambda toks, m, good, spoiled: " " + " ".join(toks[:-1] + ["0_" + toks[-1]]),
    "leading zero": lambda toks, m, good, spoiled: " " + " ".join(["0" + toks[0]] + toks[1:]),
    "out of range": lambda toks, m, good, spoiled: " " + " ".join(toks + [str(m)]),
    "descending": lambda toks, m, good, spoiled: " " + " ".join(reversed(toks)),
    "duplicate": lambda toks, m, good, spoiled: " " + " ".join(toks + toks[-1:]),
    "empty": lambda toks, m, good, spoiled: "",
    "blank": lambda toks, m, good, spoiled: " ",
    "good prefix, bad end": lambda toks, m, good, spoiled: (good[-1] if good else "") + f" {m + 1}",
    "good tail, higher end": lambda toks, m, good, spoiled: (
        good[-1] + f" {int(good[-1].rpartition(' ')[2]) + 1}" if good else " " + " ".join(toks)),
    "good tail, equal end": lambda toks, m, good, spoiled: (
        good[-1] + " " + good[-1].rpartition(" ")[2] if good else " " + " ".join(toks)),
    "good tail, lower end": lambda toks, m, good, spoiled: (good[-1] if good else " 1") + " 0",
    "spoiled tail, good end": lambda toks, m, good, spoiled: (
        (spoiled[-1] if spoiled else " 0" + toks[0]) + f" {m - 1}"),
    "proper prefix of a good tail": lambda toks, m, good, spoiled: (
        good[-1].rpartition(" ")[0] if good else ""),
    # The head's head of a good tail, then a middle token and an end.
    "head's head, new middle, higher end": lambda toks, m, good, spoiled: _off_head_of_head(
        good, toks, lambda t, x, end: [x, end]),
    "head's head, middle with a leading zero": lambda toks, m, good, spoiled: _off_head_of_head(
        good, toks, lambda t, x, end: ["0" + x, end]),
    "head's head, descending middle": lambda toks, m, good, spoiled: _off_head_of_head(
        good, toks, lambda t, x, end: [t[0], end]),
    "head's head, middle equal to the end": lambda toks, m, good, spoiled: _off_head_of_head(
        good, toks, lambda t, x, end: [end, end]),
    "head's head, middle out of range": lambda toks, m, good, spoiled: _off_head_of_head(
        good, toks, lambda t, x, end: [str(m), str(m + 1)]),
}


def _off_head_of_head(good, toks, pick):
    """A tail on the head's head of the last good tail t of three or more
    tokens, then the two tokens ``pick(t, x, end)``.  x is the least index
    in a good tail above t's middle token, which gives a new head, and end
    the least such index above x; each is one more than its lower bound
    when no good tail has one.  With no such t, ``toks`` as they are."""
    seen = sorted({int(tok) for tail in good for tok in tail.split()})
    for tail in reversed(good):
        t = tail.split()
        if len(t) >= 3:
            x = next((s for s in seen if s > int(t[-2])), int(t[-2]) + 1)
            end = str(next((s for s in seen if s > x), x + 1))
            return " " + " ".join(t[:-2] + pick(t, str(x), end))
    return " " + " ".join(toks)


@st.composite
def repeated_tail_texts(draw):
    """A "cbc" text whose line tails repeat earlier tails, good or spoiled."""
    m = draw(st.integers(1, 12))
    tails, good, spoiled = [], [], []
    for _ in range(draw(st.integers(0, 12))):
        if tails and draw(st.booleans()):
            tails.append(draw(st.sampled_from(tails)))
            continue
        size = draw(st.integers(1, min(m, 5)))
        toks = [str(s) for s in sorted(draw(st.sets(st.integers(0, m - 1), min_size=size,
                                                    max_size=size)))]
        spoil = draw(st.sampled_from([None, None, None, *_TAIL_MUTATIONS]))
        if spoil is None:
            good.append(" " + " ".join(toks))
            tails.append(good[-1])
        else:
            spoiled.append(_TAIL_MUTATIONS[spoil](toks, m, good, spoiled))
            tails.append(spoiled[-1])
    return "\n".join([f"cbc m={m} n={len(tails)}"] + [f"{j}:{tail}" for j, tail in enumerate(tails)]) + "\n"


@st.composite
def head_of_head_texts(draw):
    """A line of every index, which puts each in the token table, and good
    tails of three or more, then tails spelt from the head's head of an
    earlier tail and two drawn tokens: most reach parse's head's-head step."""
    m = draw(st.integers(3, 12))
    token = st.sampled_from([str(s) for s in range(m + 1)] + ["0" + str(s) for s in range(m)])
    tails = [" " + " ".join(map(str, range(m)))]
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.sets(st.integers(0, m - 1), min_size=3, max_size=m))
        tails.append(" " + " ".join(map(str, sorted(picked))))
    for _ in range(draw(st.integers(1, 6))):
        head_of_head = draw(st.sampled_from(tails)).split()[:-2]
        above = st.integers(min(int(head_of_head[-1]) + 1, m), m).map(str)
        ends = [draw(st.one_of(token, above)) for _ in range(2)]
        if draw(st.booleans()):
            ends.sort(key=int)
        tails.append(" " + " ".join(head_of_head + ends))
    return "\n".join([f"cbc m={m} n={len(tails)}"] + [f"{j}:{tail}" for j, tail in enumerate(tails)]) + "\n"


def _parse_outcome(parser, text):
    """The layout ``parser`` returns, or its error's class and message."""
    try:
        return parser(text)
    except FormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(st.one_of(repeated_tail_texts(), head_of_head_texts()))
def test_parsers_match_the_token_by_token_reference(text):
    # The parser decodes each distinct tail once; the reference decodes
    # every line on its own, so masks, error classes and messages must agree.
    assert _parse_outcome(parse, text) == _parse_outcome(parse_reference, text)


@st.composite
def edited_canonical_texts(draw):
    """A serialized layout, then up to two one-character edits."""
    text = serialize(draw(set_systems()))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(" 0\n:")) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@given(st.one_of(st.text(), near_format_texts(), repeated_tail_texts(), head_of_head_texts(),
                 edited_canonical_texts()))
def test_accepted_texts_are_canonical(text):
    try:
        system = parse(text)
    except FormatError as exc:
        assert type(exc) is FormatError
        return
    assert serialize(system) == text


def test_repeated_tail_takes_its_first_mask_and_a_new_tail_still_fails():
    assert parse("cbc m=4 n=3\n0: 1 3\n1: 1 3\n2: 1 3\n").items == (0b1010,) * 3
    with pytest.raises(FormatError, match=r"^item 2: server 4 outside 0\.\.3$"):
        parse("cbc m=4 n=3\n0: 1 3\n1: 1 3\n2: 1 3 4\n")
    with pytest.raises(FormatError, match=r"^line 2: character '\\t' is not allowed$"):
        parse("cbc m=4 n=2\n0: 1\t3\n1: 1\t3\n")


def test_range_check_memory_does_not_grow_with_m():
    # Checking masks against m must not build an m-bit mask.
    tracemalloc.start()
    try:
        parse("cbc m=100000000 n=0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parse_memory_does_not_grow_with_m():
    # The one mask takes 1.25 MB; a table of all 10^7 index spellings
    # would take hundreds of MB.
    tracemalloc.start()
    try:
        items = parse(f"cbc m={MAX_LAYOUT_BITS} n=1\n0: {MAX_LAYOUT_BITS - 1}\n").items
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert items == (1 << (MAX_LAYOUT_BITS - 1),)
    assert peak < 8 * 2**20


def test_parse_memory_is_linear_in_a_long_line():
    # One line of 4,000 indices (19 kB): a memo of all 3,999 of its
    # proper prefixes would hold about 37 MB.
    line = " ".join(map(str, range(4000)))
    tracemalloc.start()
    try:
        items = parse(f"cbc m=4000 n=1\n0: {line}\n").items
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert items == ((1 << 4000) - 1,)
    assert peak < 4 * 2**20


def test_memory_is_linear_in_long_lines_that_differ_in_their_last_two():
    # Three lines of 4,000 indices that share their first 3,998 (19 kB
    # each): the second and third take their new heads from their head's
    # head.  Both memos keep at most three strings per line; one of every
    # prefix would hold about 37 MB.
    prefix = list(range(3998))
    system = SetSystem.from_sets(4002, [prefix + [3998, 3999], prefix + [3999, 4000],
                                        prefix + [4000, 4001]])
    tracemalloc.start()
    try:
        text = serialize(system)
        serialize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        parsed = parse(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == system
    assert serialize_peak < 2 * 2**20
    assert parse_peak < 4 * 2**20


def test_parse_token_table_holds_indices_not_bits():
    # 20 lines on m = 20,000, line i holding every index = i mod 20
    # (109 kB): a table from each token to 1 << index would keep 20,000
    # ints of up to 2.5 kB each, about 28 MiB; one to the index, 2.4 MiB.
    m = 20000
    lines = [f"{i}: " + " ".join(map(str, range(i, m, 20))) for i in range(20)]
    text = f"cbc m={m} n=20\n" + "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        system = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.items == tuple(mask_of(range(i, m, 20)) for i in range(20))
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "text, message",
    [
        # '²' passes str.isdigit but int() refuses it; '١' is read by int()
        # as 1.  Each at a new head, then after a head decoded before.
        ("cbc m=3 n=1\n0: ²\n", "item 0: bad server index '²'"),
        ("cbc m=3 n=2\n0: 0\n1: 0 ²\n", "item 1: bad server index '²'"),
        ("cbc m=3 n=1\n0: ١\n", "line 2: character '١' is not allowed"),
        ("cbc m=3 n=2\n0: 0\n1: 0 ١\n", "line 3: character '١' is not allowed"),
        # A head decoded before, then a last token taken before but not above it.
        ("cbc m=3 n=2\n0: 1\n1: 1 1\n", "item 1: server 1 after 1, not ascending"),
        ("cbc m=3 n=3\n0: 0\n1: 2\n2: 2 0\n", "item 2: server 0 after 2, not ascending"),
        # A head decoded before, then a last token out of range or misspelt.
        ("cbc m=3 n=2\n0: 0\n1: 0 3\n", "item 1: server 3 outside 0..2"),
        ("cbc m=3 n=2\n0: 0\n1: 0 01\n", "line 3: expected '1: 0 1', got '1: 0 01'"),
        # A tail with no space has an empty head, and is never canonical.
        ("cbc m=3 n=2\n0: 1\n1:1\n", "line 3: expected '1: 1', got '1:1'"),
    ],
)
def test_known_heads_and_odd_digits_match_the_reference(text, message):
    for parser in (parse, parse_reference):
        with pytest.raises(FormatError) as info:
            parser(text)
        assert type(info.value) is FormatError
        assert str(info.value) == message


# "0: 0 1 2 3 4 5" leaves " 0 1 2 3" decoded and every token in the table:
# it is the head's head of the next line, whose own head " 0 1 2 3 x" is new.
_OFF_0123 = "cbc m=7 n=2\n0: 0 1 2 3 4 5\n1: 0 1 2 3"


@pytest.mark.parametrize(
    "text, message",
    [
        # The middle x at or below 3:
        (_OFF_0123 + " 2 5\n", "item 1: server 2 after 3, not ascending"),
        (_OFF_0123 + " 3 5\n", "item 1: server 3 after 3, not ascending"),
        # the end at or below the middle:
        (_OFF_0123 + " 5 5\n", "item 1: server 5 after 5, not ascending"),
        (_OFF_0123 + " 5 4\n", "item 1: server 4 after 5, not ascending"),
        # a middle or end out of range, or misspelt:
        (_OFF_0123 + " 7 8\n", "item 1: server 7 outside 0..6"),
        (_OFF_0123 + " 5 7\n", "item 1: server 7 outside 0..6"),
        (_OFF_0123 + " 05 6\n", "line 3: expected '1: 0 1 2 3 5 6', got '1: 0 1 2 3 05 6'"),
        (_OFF_0123 + "  5 6\n", "line 3: expected '1: 0 1 2 3 5 6', got '1: 0 1 2 3  5 6'"),
    ],
)
def test_lines_off_a_head_of_head_match_the_reference(text, message):
    for parser in (parse, parse_reference):
        with pytest.raises(FormatError) as info:
            parser(text)
        assert type(info.value) is FormatError
        assert str(info.value) == message


def test_every_level_and_range_a_round_trip_line_by_line():
    # Almost every line of a level is new, and many lines have a new head
    # too: each text must be the line-by-line spelling, and parse back.
    # Every t-subset of m servers, in colex (ascending mask) order.
    systems = [SetSystem(m, sorted(mask_of(c) for c in itertools.combinations(range(m), t)))
               for t in range(3, 7) for m in range(t, 13)]
    systems.append(construct_range_a(6188, 7, 17))
    for system in systems:
        text = serialize(system)
        assert text == f"cbc m={system.m} n={system.n}\n" + "".join(
            f"{j}: {' '.join(map(str, s))}\n" for j, s in enumerate(system.item_sets()))
        assert parse(text) == system == parse_reference(text)


def test_serialize_memory_is_linear_in_a_wide_set():
    # The last item is on 3,161 servers (n*m just under the cap): a memo
    # of the text of each of its prefixes would hold about 22 MiB.
    system = construct_m_plus_1(3162, 3161, 3161)
    tracemalloc.start()
    try:
        text = serialize(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert parse(text) == system


def test_parse_refuses_a_header_past_the_layout_cap():
    # One item on 10^8 servers would decode a 10^8-bit mask; the header
    # alone refuses it.  n*m at the cap itself still parses.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="n\\*m = 100000000 bits, more than 10000000"):
            parse("cbc m=100000000 n=1\n0: 99999999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert MAX_LAYOUT_BITS == 10**7
    assert parse(f"cbc m={MAX_LAYOUT_BITS} n=1\n0: 0\n").items == (1,)
    with pytest.raises(FormatError):
        parse(f"cbc m={MAX_LAYOUT_BITS // 2 + 1} n=2\n0: 0\n1: 0\n")


def test_set_system_invariants():
    with pytest.raises(ParamError):
        SetSystem(0, ())
    with pytest.raises(ParamError):
        SetSystem(3, (0,))
    with pytest.raises(ParamError):
        SetSystem(2, (mask_of((2,)),))


def test_params_invariants():
    Params(5, 2, 3)
    with pytest.raises(ParamError):
        Params(5, 4, 3)
    with pytest.raises(ParamError):
        Params(5, 0, 3)


# One case per input check that no other test reaches, each with its
# message: deleting the check lets the call return (or fail otherwise).
UNREACHED_CHECKS = [
    ("b_value c=0", lambda: b_value(10, 4, 6, 0), "need 1 <= c <= k-1, got c=0 k=4"),
    ("b_value m<k", lambda: b_value(10, 4, 2, 1), "need m >= k, got m=2 k=4"),
    ("word outside m", lambda: ConstantWeightCode(4, 2, 4, (0b110000,)),
     "word 0x30 uses positions outside 0..3"),
    ("Params n<0", lambda: Params(-1, 2, 3), "negative item count n=-1"),
    ("plan reads a server twice", lambda: RetrievalPlan({0: 1, 1: 1}),
     "plan reads one server twice"),
    ("invalid without witness", lambda: ValidityReport(False),
     "validity verdict and witness disagree"),
]


@pytest.mark.parametrize("make, message", [case[1:] for case in UNREACHED_CHECKS],
                         ids=[case[0] for case in UNREACHED_CHECKS])
def test_input_checks_refuse(make, message):
    with pytest.raises(ParamError) as info:
        make()
    assert str(info.value) == message


@given(set_systems())
def test_round_trip_any_system(system):
    assert parse(serialize(system)) == system
    # serialization is canonical: a second pass is byte-identical
    assert serialize(parse(serialize(system))) == serialize(system)


@given(set_systems(max_m=6, max_n=7), st.integers(1, 4))
def test_truncate_preserves_valid_verdict(system, k):
    if k > system.m or not verify_hc2(system, k).valid:
        return
    assert verify_hc2(truncate(system, k), k).valid
