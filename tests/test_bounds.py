import math
import random
from fractions import Fraction
from math import comb

import pytest

from cbckit.bounds import (
    BoundResult,
    b_value,
    inequality_slack,
    known_n,
    lower_bound,
    u_value,
)
from cbckit.core import Params
from cbckit.errors import ParamError, RangeError


def test_u_value_examples():
    assert u_value(6, 4, 3) == 60
    assert u_value(6, 4, 1) == 6
    assert u_value(6, 4, 2) == 15
    assert u_value(8, 5, 2) == Fraction(56, 3)


def test_u_value_strictly_increasing():
    for m in range(3, 11):
        for k in range(2, m + 1):
            values = [u_value(m, k, c) for c in range(1, k)]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_u_value_param_errors():
    with pytest.raises(ParamError):
        u_value(6, 4, 0)
    with pytest.raises(ParamError):
        u_value(6, 4, 4)
    with pytest.raises(ParamError):
        u_value(3, 4, 2)


def test_check_inequality_table1_profile():
    # 3*C(6,3) - (5*C(4,1) + 38) = 60 - 58; A_4 does not enter at i = 3.
    assert inequality_slack((0, 5, 38, 0), 6, 3) == 2
    assert inequality_slack((0, 5, 38, 10**9), 6, 3) == 2
    # At i = 2 the 38 triples do not enter: 2*C(6,2) - 5 = 25.
    assert inequality_slack((0, 5, 38), 6, 2) == 25


def test_check_inequality_too_many_singletons():
    m = 5
    assert inequality_slack((m + 1, 0), m, 1) == -1
    assert inequality_slack((m,), m, 1) == 0


def test_check_inequality_zero_profile():
    # An empty profile and all-zero ones leave the whole i*C(m,i).
    for i in range(1, 6):
        assert inequality_slack((), 6, i) == i * comb(6, i)
        assert inequality_slack((0,) * 4, 6, i) == i * comb(6, i)
    # Counts past the end are zero: a short profile equals its zero-padded one.
    for i in range(1, 5):
        assert inequality_slack((3, 2), 6, i) == inequality_slack((3, 2, 0, 0), 6, i)


def test_check_inequality_param_error():
    with pytest.raises(ParamError):
        inequality_slack((0, 0, 0), 6, 0)
    with pytest.raises(ParamError):
        inequality_slack((0, 0, 0), 0, 1)


def test_check_inequality_at_one_server():
    # m = 1 is the least server count allowed: 1*C(1,1) - C(0,0)*A_1.
    assert inequality_slack((1,), 1, 1) == 0
    assert inequality_slack((2,), 1, 1) == -1


def test_b_value_examples():
    assert b_value(43, 4, 6, 3) == Fraction(370, 3)
    assert b_value(60, 4, 6, 3) == 180
    assert b_value(6, 4, 6, 1) == 6


def test_b_value_refuses_m_of_k_minus_1():
    # At m = k-1 the denominator m-k+1 is 0; the check comes first.
    with pytest.raises(ParamError, match=r"^need m >= k, got m=3 k=4$"):
        b_value(5, 4, 3, 1)


def test_lower_bound_table1():
    result = lower_bound(43, 4, 6)
    assert result.lower == 124
    assert result.chosen_c == 3


def test_lower_bound_at_ceiling():
    assert lower_bound(60, 4, 6).lower == 180  # agrees with k*n - (k-1)*C(m,k-1)


def test_lower_bound_code_range():
    assert lower_bound(54, 5, 8).lower == 161


def test_lower_bound_range_error():
    with pytest.raises(RangeError):
        lower_bound(61, 4, 6)
    with pytest.raises(ParamError):
        lower_bound(0, 4, 6)


def test_known_n_m_plus_1():
    result = known_n(Params(7, 4, 6))
    assert result.exact == 10
    assert "n=m+1" in result.source


def test_known_n_m_plus_2_first_case():
    result = known_n(Params(6, 3, 4))
    assert result.exact == 9
    assert "n=m+2" in result.source


def test_known_n_m_equals_k():
    result = known_n(Params(5, 3, 3))
    assert result.exact == 9
    assert "m=k" in result.source


def test_known_n_trivial():
    assert known_n(Params(4, 3, 6)).exact == 4


def test_known_n_leaves_out_range_b_when_its_code_is_too_large():
    # Range-b at (5,12,40) would need the weight-9 code on 40 positions,
    # C(40, 9) candidate words; the trivial regime answers at once.
    result = known_n(Params(5, 12, 40))
    assert result.exact == 5 and result.source == "trivial"


def test_known_n_large_and_range_a_agree():
    result = known_n(Params(60, 4, 6))
    assert result.exact == 180
    assert "large-n" in result.source and "range-a" in result.source


def test_known_n_range_b_exact_case():
    result = known_n(Params(52, 5, 8))
    assert result.exact == 154
    assert "range-b" in result.source


def test_known_n_range_b_ambiguous_case():
    result = known_n(Params(54, 5, 8))
    assert result.exact is None
    assert result.lower == 161
    assert result.upper == 162


def test_known_n_fallback_gap_regime():
    result = known_n(Params(9, 4, 6))
    assert result.exact is None and result.upper is None
    assert result.lower == lower_bound(9, 4, 6).lower


def test_known_n_param_errors():
    with pytest.raises(ParamError):
        known_n(Params(5, 1, 3))


def test_bound_result_invariants():
    with pytest.raises(ParamError):
        BoundResult(lower=5, exact=4)
    with pytest.raises(ParamError):
        BoundResult(lower=5, exact=6, upper=5)


def test_redundancy_of_lower_order_inequalities():
    # If the (i+1)-th counting inequality holds, the i-th does too:
    # sampled over profiles with small entries, zero counterexamples.
    rng = random.Random(20240811)
    antecedent_hits = 0
    for _ in range(10_000):
        m = rng.randint(3, 10)
        i = rng.randint(1, m - 2)
        counts = [rng.randint(0, 5) for _ in range(i + 1)] + [0]
        if inequality_slack(counts, m, i + 1) >= 0:
            antecedent_hits += 1
            assert inequality_slack(counts, m, i) >= 0, (m, i, counts)
    assert antecedent_hits > 1000  # the implication was actually exercised


def test_binomial_ratio_inequality_exhaustive():
    # C(m-i,k-1-i)/C(m-c,k-1-c) - 1 >= (m-k+1)(c-i)/(k-c) for all
    # 1 <= c < k <= m <= 12 and 0 <= i <= k-1, with equality at i=c, i=c-1.
    for m in range(2, 13):
        for k in range(2, m + 1):
            for c in range(1, k):
                denom = comb(m - c, k - 1 - c)
                for i in range(k):
                    lhs = Fraction(comb(m - i, k - 1 - i), denom) - 1
                    rhs = Fraction((m - k + 1) * (c - i), k - c)
                    assert lhs >= rhs, (m, k, c, i)
                    if i in (c, c - 1):
                        assert lhs == rhs, (m, k, c, i)


def test_b_unimodal_on_grid():
    # The floored bound uses the least c with n <= U(m,k,c); the unfloored
    # b-values must peak exactly there.  lower_bound() asserts this
    # internally, so sweeping it over the whole grid is the property test.
    for m in range(2, 11):
        for k in range(2, m + 1):
            ceiling = (k - 1) * comb(m, k - 1)
            for n in range(1, ceiling + 1):
                lower_bound(n, k, m)


def textbook_bound(n, k, m, c):
    """n*c - (k-c)*(U - n)/(m-k+1), U = (k-1)*C(m,c)/C(k-1,c), step by step."""
    u = Fraction(k - 1) * comb(m, c) / comb(k - 1, c)
    return n * c - Fraction(k - c) * (u - n) / (m - k + 1)


def test_counting_bound_matches_the_textbook_formula():
    # Every m < 26, 2 <= k <= min(m, 9), n at a stride of 7 up to
    # min(ceiling, 300), each n on either side of a threshold U(m,k,c) and
    # the ceiling (k-1)*C(m,k-1) itself: b_value for every c, and the
    # least c with n <= U with N >= n*c - floor((k-c)*(U-n)/(m-k+1)).
    checked = 0
    for m in range(2, 26):
        for k in range(2, min(m, 9) + 1):
            ceiling = (k - 1) * comb(m, k - 1)
            thresholds = [Fraction(k - 1) * comb(m, c) / comb(k - 1, c) for c in range(1, k)]
            ns = set(range(1, min(ceiling, 300) + 1, 7)) | {ceiling}
            ns |= {math.floor(u) + d for u in thresholds for d in (0, 1)}
            for n in sorted(x for x in ns if 1 <= x <= ceiling):
                b = [textbook_bound(n, k, m, c) for c in range(1, k)]
                assert [b_value(n, k, m, c) for c in range(1, k)] == b, (n, k, m)
                c = next(c for c in range(1, k) if n <= thresholds[c - 1])
                lower = n * c - math.floor((k - c) * (thresholds[c - 1] - n) / (m - k + 1))
                result = lower_bound(n, k, m)
                assert (result.lower, result.chosen_c) == (lower, c), (n, k, m)
                checked += 1
    assert checked > 5000


def test_regime_overlap_consistency():
    # Where the closed forms share a boundary they must agree; known_n
    # asserts agreement internally, so sweep the overlap points.
    for m in range(2, 9):
        for k in range(2, m + 1):
            known_n(Params((k - 1) * comb(m, k - 1), k, m))
    for k in range(2, 7):
        assert known_n(Params(k + 1, k, k)).exact == 2 * k  # m=k meets n=m+1
