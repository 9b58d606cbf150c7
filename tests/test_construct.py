import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbckit import bounds, construct
from cbckit.bounds import known_n
from cbckit.construct import (
    construct_best,
    construct_large_n,
    construct_m_equals_k,
    construct_m_plus_1,
    construct_range_a,
    construct_range_b,
    construct_trivial,
    construct_uniform,
)
from cbckit.core import Params, SetSystem, serialize, total_storage
from cbckit.cwc import MAX_CODE_CANDIDATES, best_code, best_d4_code, w_masks_colex
from cbckit.errors import ParamError, RangeError, Unsupported
from cbckit.hall import verify_hc2

from conftest import assert_storage_bound, run_steps_reference


@st.composite
def deletion_instances(draw):
    """A range-a or range-b (n, k, m) with m <= 10, and the arguments after
    n, k and m with which run_steps_reference builds the same layout."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 10))
        k = draw(st.integers(3, m))
        n = draw(st.integers(comb(m, k - 2), (k - 1) * comb(m, k - 1)))
        return construct_range_a, (n, k, m), (k - 1, k - 1, w_masks_colex(m, k - 2), 1)
    m = draw(st.integers(5, 10))
    k = draw(st.integers(5, m))
    ceiling = comb(m, k - 2)
    words = best_d4_code(m, k - 3).words
    n = draw(st.integers(max(1, ceiling - (m - k + 1) * len(words)), ceiling))
    return construct_range_b, (n, k, m), (k - 2, 1, iter(sorted(words)), 2)


@given(deletion_instances())
def test_deletion_builders_match_the_sequential_reference(instance):
    builder, params, steps = instance
    assert builder(*params) == run_steps_reference(*params, *steps)


@pytest.mark.parametrize("builder, params, steps", [
    # range-a: 1,877 full steps of 9 deletions and a partial step of 2.
    (construct_range_a, (3000, 7, 14), (6, 6, w_masks_colex(14, 5), 1)),
    # range-b: 6 full steps of 15 deletions and a partial step of 2.
    (construct_range_b, (600, 5, 17), (3, 1, iter(sorted(best_d4_code(17, 2).words)), 2)),
    # range-b, the largest layout: of the C(24, 5) = 42,504 5-sets, one
    # partial step deletes 5.
    (construct_range_b, (42499, 7, 24), (5, 1, iter(sorted(best_d4_code(24, 4).words)), 2)),
])
def test_deletion_builders_match_the_sequential_reference_on_design_rows(builder, params, steps):
    assert builder(*params) == run_steps_reference(*params, *steps)


def test_range_a_matches_the_sequential_reference_up_to_m_8():
    # Every range-a instance with 3 <= k <= m <= 8, 1,284 in all: partial
    # steps of every length, zero steps, and n = C(m, k-2), where every
    # (k-2)-set is a full step's and no threshold set is left.
    count = 0
    for m in range(3, 9):
        for k in range(3, m + 1):
            for n in range(comb(m, k - 2), (k - 1) * comb(m, k - 1) + 1):
                expected = run_steps_reference(n, k, m, k - 1, k - 1, w_masks_colex(m, k - 2), 1)
                assert construct_range_a(n, k, m) == expected, (n, k, m)
                count += 1
    assert count == 1284


def test_range_b_matches_the_sequential_reference_up_to_m_10():
    # Every range-b instance with 5 <= k <= m <= 10, 587 in all: from the
    # constructible floor, where every word is a full step's, up to
    # n = C(m, k-2), where no step runs, with partial steps of every length.
    count = 0
    for m in range(5, 11):
        for k in range(5, m + 1):
            words = sorted(best_d4_code(m, k - 3).words)
            ceiling = comb(m, k - 2)
            for n in range(max(1, ceiling - (m - k + 1) * len(words)), ceiling + 1):
                expected = run_steps_reference(n, k, m, k - 2, 1, iter(words), 2)
                assert construct_range_b(n, k, m) == expected, (n, k, m)
                count += 1
    assert count == 587


def test_range_a_peaks_below_3_mib_at_the_largest_design_row():
    # 6,188 full steps of 12 deletions each, none replayed.
    tracemalloc.start()
    try:
        system = construct_range_a(6188, 7, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.n == 6188
    assert peak < 3 * 2**20


def test_range_b_peaks_below_4_mib_at_the_largest_layout():
    # The 42,499 5-sets of 24 servers, kept by one filter over the level
    # of 42,504: measured 2.3 MiB.
    tracemalloc.start()
    try:
        system = construct_range_b(42499, 7, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.n == 42499
    assert peak < 4 * 2**20


def test_range_a_lists_only_the_sets_it_returns():
    # 1,999 full steps and a partial one of 998 deletions on 2,000
    # servers: a list of the C(2000, 2) = 1,999,000 starting 2-sets is far
    # past 2 MiB, while the 3,000 items of up to 2,000 bits and the partial
    # step's supersets peak at about 1.2 MiB.
    tracemalloc.start()
    try:
        system = construct_range_a(3000, 3, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.n == 3000
    assert total_storage(system) == known_n(Params(3000, 3, 2000)).exact
    assert peak < 2 * 2**20


# Auxiliary sets that delete some 3-set of 6 servers once more than its
# copies, and the superset the reference must name.  Repeating {1,2}
# with 3 copies overdraws {0,1,2} at the fourth step's first deletion;
# {1,2} then {2,3} with one copy overdraw {1,2,3}, the second step's
# second deletion.
OVERDRAWN = [
    (48, 4, 3, [0b110] * 4, "0,1,2"),
    (16, 5, 1, [0b110, 0b1100], "1,2,3"),
]


@pytest.mark.parametrize("n, k, each, aux_sets, named", OVERDRAWN)
def test_run_steps_names_the_first_overdrawn_superset(n, k, each, aux_sets, named):
    # Only the reference takes its steps from outside: the builders choose
    # their own, and neither can overdraw, since range-b's distance-4 words
    # share no superset and range-a's steps leave each listed set a copy.
    with pytest.raises(AssertionError) as info:
        run_steps_reference(n, k, 6, 3, each, iter(aux_sets), 1)
    assert str(info.value) == f"construction tried to delete {named} with no copy left"


def test_trivial_examples():
    assert construct_trivial(3, 2, 3).item_sets() == ((0,), (1,), (2,))
    assert construct_trivial(1, 1, 1).item_sets() == ((0,),)
    assert construct_trivial(0, 1, 3) == SetSystem(3, ())
    four = construct_trivial(4, 3, 6)
    assert verify_hc2(four, 3).valid
    with pytest.raises(RangeError):
        construct_trivial(4, 2, 3)


def test_m_equals_k_examples():
    five = construct_m_equals_k(5, 3, 3)
    assert five.item_sets() == ((0,), (1,), (2,), (0, 1, 2), (0, 1, 2))
    assert total_storage(five) == 9
    assert total_storage(construct_m_equals_k(3, 3, 3)) == 3
    assert construct_m_equals_k(3, 1, 1).items == (1, 1, 1)
    six = construct_m_equals_k(6, 2, 2)
    assert total_storage(six) == 10
    assert verify_hc2(six, 2).valid
    with pytest.raises(RangeError):
        construct_m_equals_k(2, 3, 3)


def test_m_plus_1_examples():
    seven = construct_m_plus_1(7, 4, 6)
    assert seven.n == 7 and total_storage(seven) == 10
    assert verify_hc2(seven, 4).valid
    smallest = construct_m_plus_1(3, 2, 2)
    assert smallest.item_sets() == ((0,), (1,), (0, 1))
    eight = construct_m_plus_1(6, 3, 5)
    assert total_storage(eight) == 8
    assert verify_hc2(eight, 3).valid


def test_large_n_examples():
    sixty = construct_large_n(60, 4, 6)
    assert total_storage(sixty) == 180
    assert Counter(map(int.bit_count, sixty.items)) == {3: 60}
    sixty_one = construct_large_n(61, 4, 6)
    assert total_storage(sixty_one) == 184
    assert verify_hc2(sixty_one, 4).valid
    tiny = construct_large_n(2, 2, 2)
    assert tiny.item_sets() == ((0,), (1,))
    with pytest.raises(RangeError):
        construct_large_n(59, 4, 6)


def test_range_a_table1():
    system = construct_range_a(43, 4, 6)
    assert total_storage(system) == 124
    assert Counter(map(int.bit_count, system.items)) == {2: 5, 3: 38}
    assert verify_hc2(system, 4).valid


def test_range_a_zero_steps():
    system = construct_range_a(60, 4, 6)
    assert system.items == tuple(mask for mask in w_masks_colex(6, 3) for _ in range(3))


def test_range_a_full_degeneration():
    system = construct_range_a(15, 4, 6)
    assert Counter(map(int.bit_count, system.items)) == {2: 15}
    assert total_storage(system) == 30
    assert verify_hc2(system, 4).valid


def test_range_a_rejects_out_of_range():
    with pytest.raises(RangeError):
        construct_range_a(14, 4, 6)
    with pytest.raises(RangeError):
        construct_range_a(61, 4, 6)
    with pytest.raises(RangeError):
        construct_range_a(5, 2, 6)


def test_range_a_surviving_set_containment():
    # Every surviving (k-1)-set has exactly k-2 other collection members
    # inside it (leftover copies plus added subsets) -- except the sets a
    # partial step touched, which sit one lower since that step deletes a
    # copy without adding its auxiliary subset.  Validity only needs <= k-2.
    # The partial step's supersets are the first `leftover` one-larger
    # supersets, in colex order, of the (full_steps+1)-th (k-2)-set.
    for n, k, m in [(43, 4, 6), (25, 4, 6), (10, 3, 5), (100, 5, 8)]:
        system = construct_range_a(n, k, m)
        full_steps, leftover = divmod((k - 1) * comb(m, k - 1) - n, m - k + 1)
        aux = list(w_masks_colex(m, k - 2))[full_steps]
        supersets = sorted(aux | 1 << x for x in range(m) if not aux >> x & 1)
        partial_hits = set(supersets[:leftover])
        by_mask = Counter(system.items)
        for mask, count in by_mask.items():
            if mask.bit_count() != k - 1:
                continue
            inside = sum(
                mult
                for other, mult in by_mask.items()
                if other != mask and other & ~mask == 0
            )
            expected = k - 2 - (1 if mask in partial_hits else 0)
            assert (count - 1) + inside == expected, (n, k, m, mask)


def test_range_b_no_steps():
    system = construct_range_b(56, 5, 8)
    assert Counter(map(int.bit_count, system.items)) == {3: 56}
    assert total_storage(system) == 168
    assert system.items == tuple(w_masks_colex(8, 3))


def test_range_b_one_full_step():
    system = construct_range_b(52, 5, 8)
    assert Counter(map(int.bit_count, system.items)) == {2: 2, 3: 50}
    assert total_storage(system) == 154
    assert verify_hc2(system, 5).valid
    # The step's codeword is the colex-least one, {0,1}: it is added twice,
    # and all six of its 3-supersets are deleted.
    assert system.items.count(0b11) == 2
    assert set(w_masks_colex(8, 3)) - set(system.items) == {0b11 | 1 << x for x in range(2, 8)}


def test_range_b_partial_step():
    system = construct_range_b(54, 5, 8)
    assert total_storage(system) == 162
    assert verify_hc2(system, 5).valid
    assert known_n(Params(54, 5, 8)).lower == 161
    # A partial step only: the first two 3-supersets of {0,1} go, and
    # nothing is added.
    assert set(w_masks_colex(8, 3)) - set(system.items) == {0b111, 0b1011}
    assert all(mask.bit_count() == 3 for mask in system.items)


def test_range_b_refuses_a_code_with_too_many_candidates():
    message = rf"C\(40, 9\) candidate words, more than {MAX_CODE_CANDIDATES}$"
    with pytest.raises(ParamError, match=message):
        construct_range_b(5, 12, 40)


def test_range_b_rejects_out_of_range():
    with pytest.raises(RangeError):
        construct_range_b(57, 5, 8)
    with pytest.raises(RangeError):
        construct_range_b(39, 5, 8)  # below the constructible floor (code size 4)
    with pytest.raises(RangeError):
        construct_range_b(10, 4, 6)


def _too_big(n, m):
    return f"a layout of n={n} items on m={m} servers has n*m = {n * m} bits, more than 10000000"


# Every rejection of every builder in construct.BUILDERS, called by its
# --method name as builder(n, k, m): (method, n, k, m, error, message).
BUILDER_REJECTIONS = [
    ("trivial", 2, 0, 3, ParamError, "need 1 <= k <= m, got k=0 m=3"),
    ("trivial", 2, 4, 3, ParamError, "need 1 <= k <= m, got k=4 m=3"),
    ("trivial", 4, 2, 3, RangeError, "trivial layout needs n <= m, got n=4 m=3"),
    ("trivial", -1, 2, 3, ParamError, "negative item count n=-1"),
    ("m-equals-k", 5, 3, 4, RangeError, "method m-equals-k needs m == k, got k=3 m=4"),
    ("m-equals-k", 2, 0, 0, ParamError, "batch size must be positive, got k=0"),
    ("m-equals-k", 2, 3, 3, RangeError, "need n >= k, got n=2 k=3"),
    ("m-plus-1", 7, 3, 4, RangeError, "method m-plus-1 needs n == m+1, got n=7 m=4"),
    ("m-plus-1", 5, 1, 4, ParamError, "need 2 <= k <= m, got k=1 m=4"),
    ("m-plus-1", 5, 5, 4, ParamError, "need 2 <= k <= m, got k=5 m=4"),
    ("large-n", 60, 1, 6, ParamError, "need 2 <= k <= m, got k=1 m=6"),
    ("large-n", 60, 7, 6, ParamError, "need 2 <= k <= m, got k=7 m=6"),
    ("large-n", 59, 4, 6, RangeError, "need n >= (k-1)*C(m,k-1) = 60, got n=59"),
    ("range-a", 5, 2, 6, RangeError, "need m >= k >= 3, got k=2 m=6"),
    ("range-a", 5, 7, 6, RangeError, "need m >= k >= 3, got k=7 m=6"),
    ("range-a", 14, 4, 6, RangeError, "need 15 <= n <= 60, got n=14"),
    ("range-a", 61, 4, 6, RangeError, "need 15 <= n <= 60, got n=61"),
    ("range-b", 10, 4, 6, RangeError, "code-guided construction needs k >= 5, got k=4"),
    ("range-b", 10, 6, 5, RangeError, "need m >= k, got k=6 m=5"),
    ("range-b", 0, 5, 8, RangeError, "need 1 <= n <= C(m,k-2) = 56, got n=0"),
    ("range-b", 57, 5, 8, RangeError, "need 1 <= n <= C(m,k-2) = 56, got n=57"),
    ("range-b", 39, 5, 8, RangeError,
     "n=39 below the constructible floor 40 (code of size 4)"),
    # Past MAX_LAYOUT_BITS, after the parameter checks and before a list.
    ("trivial", 10**6, 3, 2**64, ParamError, _too_big(10**6, 2**64)),
    ("m-equals-k", 2 * 10**6 + 1, 5, 5, ParamError, _too_big(2 * 10**6 + 1, 5)),
    ("m-plus-1", 2**64 + 1, 2, 2**64, ParamError, _too_big(2**64 + 1, 2**64)),
    ("large-n", 2**64, 5, 7, ParamError, _too_big(2**64, 7)),
    ("range-a", comb(30, 6), 8, 30, ParamError, _too_big(comb(30, 6), 30)),
    ("range-b", comb(30, 6), 8, 30, ParamError, _too_big(comb(30, 6), 30)),
]


def test_builders_follow_the_regime_table():
    assert list(construct.BUILDERS) == [
        regime.method for regime in bounds.REGIMES if regime.method is not None
    ]
    assert {row[0] for row in BUILDER_REJECTIONS} == set(construct.BUILDERS)


@pytest.mark.parametrize("method, n, k, m, error, message", BUILDER_REJECTIONS)
def test_builder_rejections(method, n, k, m, error, message):
    with pytest.raises(error) as info:
        construct.BUILDERS[method](n, k, m)
    assert type(info.value) is error and str(info.value) == message


def test_uniform_examples():
    pairs = construct_uniform(2, 5, 8)
    assert pairs.n == 8 and total_storage(pairs) == 16
    assert verify_hc2(pairs, 5).valid
    triples = construct_uniform(3, 5, 9)
    assert triples.n == 84 and total_storage(triples) == 252
    assert verify_hc2(triples, 5).valid
    twos = construct_uniform(2, 4, 6)
    assert twos.n == 15
    assert Counter(map(int.bit_count, twos.items)) == {2: 15}


def test_uniform_takes_best_code_words():
    # Every c-uniform instance with m <= 10, 70 in all: the layout is
    # best_code's words at distance 2(k-c-1), k-c-1 copies of each, the one
    # choice of code that range-b takes too, and it is valid.  A size tie
    # at distance 4 keeps the residue class: at (k, m, c) = (5, 8, 2), which
    # the `design` benchmark runs, {0,1},{4,5},{3,6},{2,7}, where greedy
    # gives {0,1},{2,3},{4,5},{6,7}.
    count = 0
    for m in range(3, 11):
        for k in range(3, m + 1):
            for c in range(k // 2, k - 1):
                copies = k - c - 1
                words = best_code(m, c, 2 * copies).words
                system = construct_uniform(c, k, m)
                assert system.items == tuple(sorted(words * copies)), (c, k, m)
                assert verify_hc2(system, k).valid, (c, k, m)
                count += 1
    assert count == 70
    assert serialize(construct_uniform(2, 5, 8)) == (
        "cbc m=8 n=8\n0: 0 1\n1: 0 1\n2: 4 5\n3: 4 5\n4: 3 6\n5: 3 6\n6: 2 7\n7: 2 7\n"
    )


def test_uniform_layout_cap_boundary(monkeypatch):
    # construct_uniform(2, 5, 8) lists all C(8, 2) = 28 candidate words of
    # 8 bits, 224 bits: built at a cap of 224, refused below it.
    monkeypatch.setattr(construct, "MAX_LAYOUT_BITS", 223)
    with pytest.raises(ParamError) as info:
        construct_uniform(2, 5, 8)
    assert str(info.value) == (
        "a uniform layout on m=8 servers lists C(8, 2) candidate words of 8 bits, "
        "224 bits, more than 223"
    )
    monkeypatch.setattr(construct, "MAX_LAYOUT_BITS", 224)
    assert total_storage(construct_uniform(2, 5, 8)) == 16


@pytest.mark.parametrize("m, count", [(2**7000 - 1, "at least 2^20998"),
                                      (2**7000, "at least 2^14000")])
def test_uniform_cap_stops_multiplying_past_14000_bits(m, count):
    # At c = 2 the cap multiplies m*C(m, 1) = m*m, then m*C(m, 2).  m*m of
    # 14,000 bits still prints exactly, so the walk goes on to C(m, 2); of
    # 14,001 bits it does not, and the walk stops there.
    with pytest.raises(ParamError) as info:
        construct_uniform(2, 4, m)
    assert str(info.value) == (f"a uniform layout on m={m} servers lists C({m}, 2) candidate "
                               f"words of {m} bits, {count} bits, more than 10000000")


def test_cap_messages_name_a_count_too_long_for_str():
    # n*m and m*C(m, c) of 6,001 digits, past the 4,300 that str() converts:
    # each message names the count's power of two, 10^6000 >= 2^19931.
    big = 10**3000
    with pytest.raises(ParamError, match=r"has n\*m = at least 2\^19931 bits, more than 10000000$"):
        construct_m_equals_k(big, big, big)
    with pytest.raises(ParamError, match=r" bits, at least 2\^19931 bits, more than 10000000$"):
        construct_uniform(1, 3, big)


def test_uniform_is_exactly_uniform():
    for c, k, m in [(2, 5, 8), (3, 5, 9), (2, 4, 6), (3, 6, 9)]:
        system = construct_uniform(c, k, m)
        assert all(it.bit_count() == c for it in system.items)
        assert verify_hc2(system, k).valid


def test_uniform_rejects_bad_c():
    with pytest.raises(ParamError):
        construct_uniform(4, 5, 8)  # c = k-1 is out
    with pytest.raises(ParamError):
        construct_uniform(1, 5, 8)  # below floor(k/2)


def test_best_dispatch():
    system, result = construct_best(43, 4, 6)
    assert total_storage(system) == 124 and result.exact == 124
    system, result = construct_best(7, 4, 6)
    assert total_storage(system) == 10 and result.exact == 10
    system, result = construct_best(1, 3, 5)
    assert total_storage(system) == 1
    system, result = construct_best(54, 5, 8)
    assert total_storage(system) == 162 and result.upper == 162


def test_best_refuses_a_layout_past_the_cap(monkeypatch):
    # bound answers (2^64, 5, 7) from the large-n closed form; the layout
    # would have 2^64 lines, so its build is refused before any list.
    assert known_n(Params(2**64, 5, 7)).exact == 5 * 2**64 - 4 * comb(7, 4)
    with pytest.raises(ParamError) as info:
        construct_best(2**64, 5, 7)
    assert str(info.value) == _too_big(2**64, 7)
    # The cap holds n*m itself: (43, 4, 6) builds at n*m = 258 and not below.
    monkeypatch.setattr(construct, "MAX_LAYOUT_BITS", 258)
    assert total_storage(construct_best(43, 4, 6)[0]) == 124
    monkeypatch.setattr(construct, "MAX_LAYOUT_BITS", 257)
    with pytest.raises(ParamError, match="n\\*m = 258 bits, more than 257$"):
        construct_best(43, 4, 6)


def test_best_unsupported_middle_range():
    with pytest.raises(Unsupported):
        construct_best(9, 4, 6)


def test_best_output_always_verifies():
    cases = [(3, 2, 3), (5, 2, 4), (7, 3, 6), (20, 3, 5), (43, 4, 6), (61, 4, 6), (50, 5, 8)]
    for n, k, m in cases:
        system, result = construct_best(n, k, m)
        assert verify_hc2(system, k).valid, (n, k, m)
        assert total_storage(system) >= result.lower
        assert_storage_bound(system, k)

