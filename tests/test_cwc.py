import hashlib
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbckit import cwc
from cbckit.core import bits, mask_of
from cbckit.cwc import (
    MAX_CODE_CANDIDATES,
    MAX_WORD_KEYS,
    ConstantWeightCode,
    _first_fit,
    best_code,
    best_d4_code,
    colex_level,
    graham_sloane_d4,
    w_masks_colex,
)
from cbckit.construct import construct_uniform
from cbckit.errors import ParamError

from conftest import min_distance


def test_colex_level_lists_the_walk():
    # Every level with 0 <= m <= 12, the empty ones at w = -1 and w = m + 1
    # among them, and larger levels on both sides of the w > m - w rule.
    shapes = [(m, w) for m in range(13) for w in range(-1, m + 2)]
    shapes += [(16, 8), (20, 4), (24, 5), (30, 3), (20, 18)]
    for m, w in shapes:
        level = colex_level(m, w)
        assert level == list(w_masks_colex(m, w)), (m, w)
        assert len(level) == (comb(m, w) if w >= 0 else 0)


def words_as_sets(code):
    return [tuple(bits(w)) for w in code.words]


def test_graham_sloane_5_2():
    code = graham_sloane_d4(5, 2)
    assert code.size == 2  # ceil(C(5,2)/5)
    # independent check: scan every residue class by brute force
    classes = {r: [] for r in range(5)}
    for mask in w_masks_colex(5, 2):
        classes[sum(bits(mask)) % 5].append(mask)
    assert code.size == max(len(v) for v in classes.values())
    for a, b in combinations(code.words, 2):
        assert (a ^ b).bit_count() >= 4


def test_graham_sloane_weight_one():
    code = graham_sloane_d4(7, 1)
    assert code.size == 1


def test_graham_sloane_8_2():
    code = graham_sloane_d4(8, 2)
    assert code.size == 4
    assert set(words_as_sets(code)) == {(0, 1), (2, 7), (3, 6), (4, 5)}
    assert min_distance(code.words) == 4


def test_graham_sloane_param_error():
    with pytest.raises(ParamError):
        graham_sloane_d4(5, 0)
    with pytest.raises(ParamError):
        graham_sloane_d4(5, 6)


def test_greedy_disjoint_pairs():
    words, clash = _first_fit(w_masks_colex(8, 2), 2, 4)
    assert [tuple(bits(v)) for v in words] == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert clash == (0b11, 0b101)
    assert min_distance(words) == 4


def test_greedy_distance_two_keeps_everything():
    words, clash = _first_fit(w_masks_colex(6, 2), 2, 2)
    assert len(words) == comb(6, 2)
    assert clash is None


def test_min_distance_examples():
    assert min_distance((mask_of((0, 1)), mask_of((2, 4)))) == 4
    assert min_distance((mask_of((0, 1)), mask_of((0, 2)))) == 2
    assert min_distance(graham_sloane_d4(8, 2).words) == 4


def test_code_invariants_reject_bad_words():
    with pytest.raises(ParamError):
        ConstantWeightCode(4, 2, 4, (mask_of((0, 1)), mask_of((0, 2))))
    # Two close pairs, {2,3}~{2,4} and {0,1}~{0,5}: the check names the
    # first word with an earlier close word, {2,4}, and that earlier word.
    words = tuple(map(mask_of, ((0, 1), (2, 3), (2, 4), (0, 5))))
    with pytest.raises(ParamError, match=r"^words 0xc and 0x14 are closer than distance 4$"):
        ConstantWeightCode(8, 2, 4, words)
    with pytest.raises(ParamError):
        ConstantWeightCode(4, 2, 2, (mask_of((0, 1, 2)),))
    with pytest.raises(ParamError):
        ConstantWeightCode(4, 2, 3, (mask_of((0, 1)),))
    with pytest.raises(ParamError, match=r"^need 1 <= w <= m, got w=0 m=0$"):
        ConstantWeightCode(0, 0, 4, ())


def test_residue_bound_and_distance_sweep():
    for m in range(1, 13):
        for w in range(1, min(4, m) + 1):
            code = graham_sloane_d4(m, w)
            assert code.size * m >= comb(m, w), (m, w)
            assert min_distance(code.words) >= 4, (m, w)


def test_best_d4_code_dominates_both():
    for m in range(2, 11):
        for w in range(1, min(4, m) + 1):
            best = best_d4_code(m, w)
            assert best.size >= graham_sloane_d4(m, w).size
            assert min_distance(best.words) >= 4


def pairwise_greedy_scan(m, d2, w):
    """Reference first-fit scan: test each candidate against every kept word."""
    kept = []
    for v in w_masks_colex(m, w):
        if all((v ^ u).bit_count() >= d2 for u in kept):
            kept.append(v)
    return kept


def test_first_fit_scan_matches_pairwise_scan():
    for m in range(1, 13):
        for d2 in (2, 4, 6, 8, 2 * m + 2):
            for w in range(1, m + 1):
                kept, _ = _first_fit(w_masks_colex(m, w), w, d2)
                assert kept == pairwise_greedy_scan(m, d2, w), (m, d2, w)


def first_close_pair(words, d2):
    """Pairwise reference: (a, b) with b the first word that has an earlier
    word closer than d2 and a the first such earlier word, or None.
    """
    for i, b in enumerate(words):
        for a in words[:i]:
            if (a ^ b).bit_count() < d2:
                return a, b
    return None


@given(st.integers(1, 10), st.data())
def test_code_check_matches_pairwise_reference(m, data):
    w = data.draw(st.integers(1, m))
    d2 = 2 * data.draw(st.integers(1, w + 1))
    # Up to four words of a code plus up to two arbitrary ones (repeats
    # allowed), shuffled: both verdicts and several close pairs all occur.
    spread = data.draw(st.permutations(_first_fit(w_masks_colex(m, w), w, d2)[0]))
    extra = data.draw(st.lists(st.sampled_from(list(w_masks_colex(m, w))), max_size=2))
    words = data.draw(st.permutations(spread[:4] + extra))
    pair = first_close_pair(words, d2)
    if pair is None:
        assert ConstantWeightCode(m, w, d2, tuple(words)).words == tuple(words)
    else:
        message = f"^words {pair[0]:#x} and {pair[1]:#x} are closer than distance {d2}$"
        with pytest.raises(ParamError, match=message):
            ConstantWeightCode(m, w, d2, tuple(words))


def test_huge_distance_is_decided_at_once():
    # Any two words of weight w are closer than a d2 above 2w; j is capped
    # at w, so each word has C(w, w) = 1 key and both calls end at once.
    assert _first_fit(w_masks_colex(8, 2), 2, 10**12) == ([0b11], (0b11, 0b101))
    assert ConstantWeightCode(8, 2, 10**12, (0b11,)).words == (0b11,)


def test_keys_per_word_are_capped_before_any_key_is_built():
    # One word at w = d2 = 30 has C(30, 14), about 1.5e8, keys: refused at
    # once by the code check and by the first-fit scan.
    message = (r"^distance 30 at weight 30 needs C\(30, 14\) keys per word, "
               rf"more than {MAX_WORD_KEYS}$")
    with pytest.raises(ParamError, match=message):
        ConstantWeightCode(30, 30, 30, ((1 << 30) - 1,))
    with pytest.raises(ParamError, match=message):
        _first_fit(w_masks_colex(30, 30), 30, 30)
    # A code with astronomically many keys per word is refused without
    # computing them.
    with pytest.raises(ParamError, match=r"needs C\(100000000, 49999999\) keys"):
        ConstantWeightCode(10**8, 10**8, 10**8, ())


def test_keys_cap_boundary(monkeypatch):
    # C(5, 2) = 10 keys per word at w = 5, d2 = 6: allowed at a cap of 10.
    word = 0b11111
    monkeypatch.setattr(cwc, "MAX_WORD_KEYS", 10)
    assert ConstantWeightCode(5, 5, 6, (word,)).words == (word,)
    monkeypatch.setattr(cwc, "MAX_WORD_KEYS", 9)
    with pytest.raises(ParamError, match=r"needs C\(5, 2\) keys per word, more than 9$"):
        ConstantWeightCode(5, 5, 6, (word,))
    # Every weight up to 22 stays under the real cap at every distance.
    assert max(comb(w, j) for w in range(1, 23) for j in range(w + 1)) <= MAX_WORD_KEYS


def test_code_candidates_cap_boundary(monkeypatch):
    # best_d4_code(13, 4) scans C(13, 4) = 715 words: allowed at a cap of
    # 715, refused below it.  The cache is cleared so that each call checks.
    monkeypatch.setattr(cwc, "MAX_CODE_CANDIDATES", 714)
    best_code.cache_clear()
    with pytest.raises(ParamError, match=r"scans C\(13, 4\) candidate words, more than 714$"):
        best_d4_code(13, 4)
    monkeypatch.setattr(cwc, "MAX_CODE_CANDIDATES", 715)
    assert best_d4_code(13, 4).size > 0
    # The (30, 6) code of the range-b check stays under the real cap.
    assert comb(30, 6) <= MAX_CODE_CANDIDATES < comb(40, 9)


def test_uniform_code_candidates_cap_boundary(monkeypatch):
    # construct_uniform(2, 5, 8) scans all C(8, 2) = 28 words for its
    # distance-4 code: allowed at a cap of 28, refused below it.  The cache
    # is cleared so that the call checks.
    monkeypatch.setattr(cwc, "MAX_CODE_CANDIDATES", 27)
    best_code.cache_clear()
    with pytest.raises(ParamError, match=r"scans C\(8, 2\) candidate words, more than 27$"):
        construct_uniform(2, 5, 8)
    monkeypatch.setattr(cwc, "MAX_CODE_CANDIDATES", 28)
    assert construct_uniform(2, 5, 8).n > 0


def test_full_scans_are_refused_before_listing_any_word():
    # C(40, 10), about 8.5e8, and C(60, 30), about 1.2e17, candidate words:
    # both refused at once, with no word listed.  The uniform layout on
    # those 40 servers is refused by its bits cap, checked first.
    message = (r"^a distance-20 code of weight 10 on 40 positions scans C\(40, 10\) "
               rf"candidate words, more than {MAX_CODE_CANDIDATES}$")
    with pytest.raises(ParamError, match=message):
        best_code(40, 10, 20)
    with pytest.raises(ParamError, match=r"^a uniform layout on m=40 servers lists C\(40, 10\) "
                       r"candidate words of 40 bits, 33906421120 bits, more than 10000000$"):
        construct_uniform(10, 21, 40)
    with pytest.raises(ParamError, match=r"^a distance-4 code of weight 30 on 60 positions scans"):
        graham_sloane_d4(60, 30)


def test_best_d4_code_words_are_pinned():
    # sha256 of repr((m, w, words)) for m <= 24, w <= 4, captured from the
    # pairwise greedy scan before ball blocking replaced it.
    digest = hashlib.sha256()
    for m in range(1, 25):
        for w in range(1, min(4, m) + 1):
            digest.update(repr((m, w, best_d4_code(m, w).words)).encode())
    assert digest.hexdigest() == (
        "57d0ef97d4c5daa7625b826dda59b6fc745f7bd2179d9b52d5bc6cb78bc13c06"
    )


@given(st.integers(2, 9), st.integers(1, 4), st.integers(1, 3))
def test_greedy_meets_declared_distance(m, w, half_d):
    if w > m:
        return
    d2 = 2 * half_d
    words, _ = _first_fit(w_masks_colex(m, w), w, d2)
    assert min_distance(words) >= d2


@given(st.integers(2, 8), st.integers(1, 4), st.data())
def test_min_distance_always_even(m, w, data):
    if w > m:
        return
    universe = list(w_masks_colex(m, w))
    if len(universe) < 2:
        return
    words = data.draw(
        st.lists(st.sampled_from(universe), min_size=2, max_size=5, unique=True)
    )
    code = ConstantWeightCode(m, w, 2, tuple(sorted(words)))
    assert min_distance(code.words) % 2 == 0


def test_asymptotic_spot_check_weight_two():
    # For weight 2 the residue construction approaches m/2 words; the
    # ratio must sit within 20% of 1 at m = 32 and 64.
    for m in (32, 64):
        size = graham_sloane_d4(m, 2).size
        assert abs(size / (m / 2) - 1) <= 0.2


@pytest.mark.parametrize("m, w", [(8, 2), (9, 4), (16, 3)])
def test_residue_and_greedy_codes_tie_with_different_words(m, w):
    # best_code breaks a size tie at distance 4 towards the residue class,
    # whose words differ from greedy's.
    greedy = tuple(_first_fit(w_masks_colex(m, w), w, 4)[0])
    residue = graham_sloane_d4(m, w)
    assert len(greedy) == residue.size
    assert greedy != residue.words
    assert best_d4_code(m, w).words == residue.words


def test_best_d4_code_is_built_once_per_parameters():
    assert best_d4_code(11, 3) is best_d4_code(11, 3)
    assert best_d4_code(11, 3) is not best_d4_code(11, 2)
