import hashlib
import tracemalloc
from math import comb

import pytest

from cbckit import bounds, oracle
from cbckit.bounds import BoundResult, inequality_slack, known_n, lower_bound
from cbckit.construct import construct_best
from cbckit.core import Params, serialize, total_storage
from cbckit.cwc import colex_level
from cbckit.errors import BudgetExceeded, CbcError, ParamError, RangeError
from cbckit.hall import verify_hc1, verify_hc2
from cbckit.oracle import search_floor, search_optimal, settle_gap

from conftest import least_valid_layout


def test_search_examples():
    assert search_optimal(4, 2, 3).optimal_n_storage == 5
    assert search_optimal(5, 2, 3).optimal_n_storage == 7
    assert search_optimal(3, 2, 3).optimal_n_storage == 3


def test_search_witness_is_certified():
    result = search_optimal(5, 2, 3)
    assert verify_hc2(result.witness, 2).valid
    assert total_storage(result.witness) == result.optimal_n_storage
    assert result.witness.n == 5


def test_search_agrees_with_dispatch_on_tiny_grid():
    for m in (3, 4):
        for k in (2, 3):
            for n in range(1, m + 3):
                expected = known_n(Params(n, k, m)).exact
                assert expected is not None
                got = search_optimal(n, k, m).optimal_n_storage
                assert got == expected, (n, k, m, got, expected)


def test_search_matches_every_formula_on_the_small_grid():
    # Every (n, k, m) with 2 <= k <= m <= 6, except (k, m) = (5, 6), and
    # n up to two past large-n's threshold (k-1)*C(m, k-1): where a proven
    # regime gives N exactly (260 instances) the search must find it with a
    # certified witness.  The other 8, all at k = 4 strictly between
    # n = m+2 and range-a's floor C(m, 2), have only the counting bound as
    # a bracket, and the optimum must lie within it.
    exact = bracketed = 0
    for m in range(2, 7):
        for k in range(2, m + 1):
            if (k, m) == (5, 6):
                continue
            for n in range(1, (k - 1) * comb(m, k - 1) + 3):
                verdict = known_n(Params(n, k, m))
                result = search_optimal(n, k, m, budget=2 * 10**6)
                found = result.optimal_n_storage
                assert verify_hc2(result.witness, k).valid, (n, k, m)
                if verdict.exact is not None:
                    assert found == verdict.exact, (n, k, m, found, verdict)
                    exact += 1
                else:
                    assert verdict.lower <= found, (n, k, m, found, verdict)
                    assert verdict.upper is None or found <= verdict.upper, (n, k, m, found)
                    bracketed += 1
    assert (exact, bracketed) == (260, 8)


def test_sandwich_property():
    for n, k, m in [(4, 2, 3), (5, 2, 3), (5, 3, 4), (6, 3, 4), (4, 3, 4)]:
        found = search_optimal(n, k, m).optimal_n_storage
        try:
            assert lower_bound(n, k, m).lower <= found
        except RangeError:
            pass
        try:
            system, _ = construct_best(n, k, m)
        except CbcError:
            continue
        assert found <= total_storage(system)


def test_search_witness_is_the_least_valid_layout_at_the_least_storage():
    # An independent reference: plain combinations of ascending masks,
    # checked by brute force, with no Hall pruning.
    for m in range(1, 5):
        for k in range(1, m + 1):
            for n in range(1, m + 3):
                result = search_optimal(n, k, m)
                expected = least_valid_layout(n, k, m)
                assert (result.optimal_n_storage, result.witness.items) == expected, (n, k, m)


# Witnesses found by the unpruned search, which validity-checked every
# complete canonical layout in order.
UNPRUNED_WITNESSES = {
    (5, 2, 3): "cbc m=3 n=5\n0: 0\n1: 1\n2: 0 1\n3: 0 1\n4: 2\n",
    (6, 2, 4): "cbc m=4 n=6\n0: 0\n1: 1\n2: 0 1\n3: 0 1\n4: 2\n5: 3\n",
    (7, 3, 4): "cbc m=4 n=7\n0: 0\n1: 1\n2: 2\n3: 0 1 2\n4: 0 3\n5: 1 3\n6: 2 3\n",
    (7, 2, 5): "cbc m=5 n=7\n0: 0\n1: 1\n2: 0 1\n3: 0 1\n4: 2\n5: 3\n6: 4\n",
    (8, 2, 5): "cbc m=5 n=8\n0: 0\n1: 1\n2: 0 1\n3: 0 1\n4: 0 1\n5: 2\n6: 3\n7: 4\n",
    (8, 3, 5): "cbc m=5 n=8\n0: 0\n1: 1\n2: 2\n3: 3\n4: 0 4\n5: 1 4\n6: 2 4\n7: 3 4\n",
}


def test_search_witnesses_match_the_unpruned_search():
    for (n, k, m), text in UNPRUNED_WITNESSES.items():
        assert serialize(search_optimal(n, k, m).witness) == text, (n, k, m)


def test_search_n_up_to_10_at_m_5():
    for n, k, m, expected in [(9, 3, 5, 15), (10, 3, 5, 17)]:
        result = search_optimal(n, k, m)
        assert result.optimal_n_storage == expected
        assert total_storage(result.witness) == expected
        assert verify_hc1(result.witness, k).valid


def test_search_set_up_does_not_scan_every_mask():
    # m = 40 has 2^40 masks; only the 820 of at most k = 2 servers are
    # candidates, a weight's masks are listed when a profile first uses
    # it, and superset lists are built on first placement.
    result = search_optimal(3, 2, 40, budget=1000)
    assert result.optimal_n_storage == 3
    assert verify_hc1(result.witness, 2).valid


def test_search_refuses_too_many_candidate_masks(monkeypatch):
    # m = 30, k = 10 would list about 5.3e7 masks; the count stops at
    # weight 7, the first past the cap, before any mask is listed.
    message = "more than 1000000 candidate masks: 2804011 of weight at most 7"
    with pytest.raises(ParamError, match=message):
        search_optimal(3, 10, 30)
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=3, upper=4))
    with pytest.raises(ParamError, match=message):
        settle_gap(3, 10, 30)


def test_search_lists_masks_up_to_the_cap():
    # (40, 5): 760,098 candidate masks, under MAX_CANDIDATE_MASKS.
    assert sum(comb(40, w) for w in range(1, 6)) == 760_098 <= oracle.MAX_CANDIDATE_MASKS
    result = search_optimal(3, 5, 40, budget=10)
    assert (result.optimal_n_storage, result.nodes_explored) == (3, 9)


def test_search_counts_each_candidate_mask_by_its_words():
    # A mask of m servers is ceil(m/64) 64-bit words: at k = 1 the m masks
    # of m = 10^6 servers would take m^2 bits, about 58 GiB once listed.
    # The refusal comes before any mask is listed; the bare check runs first
    # so that a search that lists them is never started.
    message = (
        r"^search on m=1000000 servers needs more than 1000000 64-bit words of "
        r"candidate masks \(15625 per mask\): 15625000000 of weight at most 1$"
    )
    with pytest.raises(ParamError, match=message):
        oracle._check_masks(1, 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ParamError, match=message):
            search_optimal(1, 1, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The boundary at k = 1: 8000 masks of 125 words each make exactly
    # 10^6 words, 8001 masks of 126 words each are past the cap.
    assert search_optimal(1, 1, 8000).optimal_n_storage == 1
    with pytest.raises(ParamError, match="1008126 of weight at most 1$"):
        search_optimal(1, 1, 8001)
    # Up to m = 64 a mask is one word and the count is the number of masks.
    assert sum(comb(64, w) for w in range(1, 5)) == 679_120
    assert search_optimal(1, 4, 64).optimal_n_storage == 1
    with pytest.raises(ParamError, match="1000000 candidate masks: 8303632 of weight at most 5$"):
        search_optimal(1, 5, 64)


def test_budget_counts_nodes_explored():
    nodes = search_optimal(8, 3, 5).nodes_explored
    assert search_optimal(8, 3, 5, budget=nodes).nodes_explored == nodes
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(8, 3, 5, budget=nodes - 1)
    assert err.value.nodes_explored == nodes - 1


# (optimal N, nodes explored) of the Hall-pruned search, started at
# search_floor: the values tried for A_1..A_{k-1} of the Hall-feasible
# profiles, plus the item placements tried, one weight class at a time.
SEARCH_NODE_COUNTS = {
    (5, 2, 3): (7, 8),
    (6, 2, 4): (8, 10),
    (7, 3, 4): (12, 17),
    (7, 2, 5): (9, 12),
    (8, 2, 5): (11, 13),
    (8, 3, 5): (12, 23),
    (9, 3, 5): (15, 24),
    (10, 3, 5): (17, 25),
    (8, 4, 5): (15, 1939),
}


def test_search_node_counts_are_pinned():
    for (n, k, m), expected in SEARCH_NODE_COUNTS.items():
        result = search_optimal(n, k, m)
        assert (result.optimal_n_storage, result.nodes_explored) == expected, (n, k, m)


@pytest.mark.parametrize("n, k, m", [(7, 3, 4), (6, 2, 4)])
def test_search_lists_each_level_once(monkeypatch, n, k, m):
    # Levels below k are the walk's mask lists as well as its below-lists'
    # servers; level k is listed only if some profile places a k-set.
    listed = []

    def counted(m, w):
        listed.append((m, w))
        return colex_level(m, w)

    monkeypatch.setattr(oracle, "colex_level", counted)
    search_optimal(n, k, m)
    assert len(listed) == len(set(listed)), listed


def _search_record(n, k, m, budget):
    try:
        result = search_optimal(n, k, m, budget=budget)
    except BudgetExceeded as exc:
        return f"{n},{k},{m} budget {budget}: spent at {exc.nodes_explored}"
    witness = list(result.witness.items)
    return f"{n},{k},{m} budget {budget}: N={result.optimal_n_storage} {witness} {result.nodes_explored}"


def _settle_record(n):
    try:
        return f"{n}: {settle_gap(n, 5, 6, budget=20_000)}"
    except BudgetExceeded as exc:
        return f"{n}: {exc}"


SMALL_GRID = [(n, k, m) for m in range(1, 7) for k in range(1, m + 1) for n in range(1, 16)]
K4_M7_ROW = [(n, 4, 7) for n in range(5, 30)]

# SHA-256 of each group's records, one line per call: the optimum, the
# witness masks and the nodes explored, or the nodes at which the budget
# ran out; for settle_gap, the value or the BudgetExceeded message.
WALK_DIGESTS = {
    "small grid, budget 50":
        "5401599d67d20564cfab4c42c4d182bd115f341b7aa860836b3ffd3f07db6b80",
    "small grid, budget 3000":
        "b5c5adf4ed9e777cc225539a458d81edc4e5c61392c68a25dfddd4334b16a6cd",
    "small grid, budget 200000":
        "a58d086e3a71d21ace8ac52136bcf0ce2b306acbc906749203c7f8164a269433",
    "(5..29,4,7), budget 10":
        "d0aad26ca892e4625680c48eb55f6187f2be8479865cd3d0967c45c2f2062f44",
    "(5..29,4,7), budget 100":
        "7d1da9955d575da49c3fd001987f2a95a494c2f7e534d76fdf567168631f042c",
    "(5..29,4,7), budget 10000":
        "5349c96dc108491f4a7f0540809911368276dceef2bbd010dec42316863a9516",
    "settle_gap (5,6) one apart":
        "90acb8c5cafe28cc133ffdb4f134ae669bb4fd13a4fbc497efcf983ee7b94b7b",
}


def _walk_groups():
    for budget in (50, 3000, 200_000):
        yield f"small grid, budget {budget}", [_search_record(*c, budget) for c in SMALL_GRID]
    for budget in (10, 100, 10_000):
        yield f"(5..29,4,7), budget {budget}", [_search_record(*c, budget) for c in K4_M7_ROW]
    verdicts = [known_n(Params(n, 5, 6)) for n in range(1, 25)]
    one_apart = [n for n, v in enumerate(verdicts, 1) if v.exact is None and v.upper]
    yield "settle_gap (5,6) one apart", [_settle_record(n) for n in one_apart]


def test_search_walk_is_pinned_byte_for_byte():
    # Every (n,k,m) with m <= 6 and n <= 15 and the row (5..29, 4, 7), at
    # three budgets each (1,020 calls), and settle_gap on the one-apart
    # (5, 6) instances (n = 15, 17, 19): optimum, witness and node count,
    # byte for byte.
    digests = {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in _walk_groups()
    }
    assert digests == WALK_DIGESTS


def test_search_budget_bounds_the_profile_enumeration():
    # At (300, 6, 8) the one profile of the floor target comes after
    # 129,457 tries of A_1..A_5, before any item is placed; each try is a
    # node, so the budget stops the enumeration.
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(300, 6, 8, budget=1000)
    assert err.value.nodes_explored == 1000


@pytest.mark.parametrize("n, k, m, expected", [(10, 4, 6, 18), (11, 4, 7, 19)])
def test_search_settles_k4_middle_range(n, k, m, expected):
    # No regime covers these; the search finds one and two above the
    # counting bound.
    assert lower_bound(n, k, m).lower in (expected - 1, expected - 2)
    result = search_optimal(n, k, m)
    assert result.optimal_n_storage == total_storage(result.witness) == expected
    assert verify_hc1(result.witness, k).valid and verify_hc2(result.witness, k).valid


def test_search_witness_at_8_4_5():
    # The least valid layout at N = 15, one above the counting bound 14.
    assert lower_bound(8, 4, 5).lower == 14
    witness = search_optimal(8, 4, 5).witness
    assert witness.items == (1, 2, 4, 8, 17, 22, 26, 28)
    assert verify_hc1(witness, 4).valid and verify_hc2(witness, 4).valid


def compositions(n, parts):
    """Every tuple of ``parts`` non-negative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first, *rest)


def test_profiles_match_a_filter_over_all_compositions():
    # The enumerator against brute force: every composition of n into k
    # parts with storage target whose inequality_slack is >= 0 at
    # i = 1..k-1, in descending lexicographic order (A_1 descending, then
    # A_2, ...).
    for k in range(2, 5):
        for m in range(4, 7):
            for n in range(1, 9):
                for target in range(n, k * n + 1):
                    expected = sorted(
                        (
                            counts
                            for counts in compositions(n, k)
                            if sum(j * a for j, a in enumerate(counts, 1)) == target
                            and all(inequality_slack(counts, m, i) >= 0 for i in range(1, k))
                        ),
                        reverse=True,
                    )
                    got = list(oracle._profiles(n, k, m, target, lambda: None))
                    assert got == expected, (n, k, m, target)


def least_profile_storage(n, k, m):
    """Reference for search_floor: the least sum of j * A_j over profiles
    (A_1, ..., A_k) of n items with inequality_slack >= 0 at i = 1..k-1,
    by enumerating every profile."""
    best = None
    for counts in compositions(n, k):
        storage = sum(j * a for j, a in enumerate(counts, 1))
        if best is not None and storage >= best:
            continue
        if all(inequality_slack(counts, m, i) >= 0 for i in range(1, k)):
            best = storage
    return best


def test_search_floor_is_the_least_storage_of_a_counting_profile():
    for m in range(2, 8):
        for k in range(2, min(m, 5) + 1):
            for n in range(1, 21):
                assert search_floor(n, k, m) == least_profile_storage(n, k, m), (n, k, m)


def test_search_floor_is_the_large_n_optimum_past_the_counting_range():
    # Past (k-1)*C(m,k-1) the counting bound does not apply; the floor
    # k*n - (k-1)*C(m,k-1) is the large-n optimum there.  At k = 1 it is n.
    for n, k, m in [(4, 2, 3), (5, 2, 3), (13, 3, 4), (40, 3, 4), (1500, 2, 2)]:
        verdict = known_n(Params(n, k, m))
        assert "large-n" in verdict.source
        assert search_floor(n, k, m) == verdict.exact
    assert search_floor(7, 1, 3) == 7


@pytest.mark.parametrize("n, k, m, upper", [
    (5, 2, 3, 7),
    (3, 1, 3, None),  # k = 1: known_n refuses, so there is no verdict
    (9, 4, 6, None),  # middle range: no regime with a builder applies
])
def test_budget_exceeded_carries_upper_bound(n, k, m, upper):
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(n, k, m, budget=0)
    assert err.value.best_upper == upper


def test_budget_below_n_is_spent_before_the_first_node():
    # A layout of n items costs at least n placements, so a budget below n
    # is refused at once: no node is explored and no n-entry list is built.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            search_optimal(10**7, 2, 3, budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.nodes_explored == 0
    assert peak < 1_000_000
    # At (1000, 1, 1) a search costs exactly n nodes.
    assert search_optimal(1000, 1, 1, budget=1000).nodes_explored == 1000
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(1000, 1, 1, budget=999)
    assert err.value.nodes_explored == 0
    # The parameter and mask-cap checks keep priority.
    with pytest.raises(ParamError):
        search_optimal(3, 4, 3, budget=0)
    with pytest.raises(ParamError, match="candidate masks"):
        search_optimal(3, 10, 30, budget=0)


def test_walk_keeps_one_mask_index_per_placed_item():
    # The walk's only per-item state is its path of mask indices: spending
    # a budget of 10^5 placements on (10^5, 2, 3) stays below 2 MiB, where
    # an n-entry weight list and a suspended iterator per placed item took
    # about 6.9 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            search_optimal(10**5, 2, 3, budget=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.nodes_explored == 10**5
    assert peak < 2 * 2**20


def test_search_param_errors():
    with pytest.raises(ParamError):
        search_optimal(0, 2, 3)
    with pytest.raises(ParamError):
        search_optimal(3, 4, 3)
    with pytest.raises(ParamError):
        search_optimal(5, 2, 3, budget=-1)
    with pytest.raises(ParamError):
        settle_gap(19, 5, 6, budget=-1)


def test_search_walks_far_deeper_than_the_recursion_limit():
    # One placed item per level: a walk 5,000 items deep.
    result = search_optimal(5000, 1, 1)
    assert (result.optimal_n_storage, result.nodes_explored) == (5000, 5000)


def test_settle_gap_pass_through():
    # Any (n,k,m) already pinned by a regime comes straight back.
    assert settle_gap(5, 2, 3) == 7
    assert settle_gap(7, 5, 5) == 5 * 7 - 20  # m=k regime, vacuous gap
    assert settle_gap(52, 5, 8) == 154


def test_settle_gap_requires_bracket():
    with pytest.raises(ParamError):
        settle_gap(9, 4, 6)  # uncovered middle range: nothing to settle against


def test_settle_gap_budget_exhaustion():
    # Smallest ambiguous instance family is k=5, m=6; its search space is
    # far beyond desk scale, so a small budget must give up loudly.
    verdict = known_n(Params(19, 5, 6))
    assert verdict.exact is None and verdict.upper == verdict.lower + 1
    with pytest.raises(BudgetExceeded) as err:
        settle_gap(19, 5, 6, budget=500)
    assert (err.value.nodes_explored, err.value.best_upper) == (500, 57)


def test_settle_gap_budget_exhaustion_asks_known_n_once(monkeypatch):
    # The spent budget reports the bracket's upper bound that settle_gap
    # already holds, without a second known_n.
    calls = []
    monkeypatch.setattr(bounds, "known_n", lambda params: calls.append(params) or known_n(params))
    with pytest.raises(BudgetExceeded) as err:
        settle_gap(19, 5, 6, budget=500)
    assert (err.value.nodes_explored, err.value.best_upper) == (500, 57)
    assert calls == [Params(19, 5, 6)]


# (n, k, m, forced bracket [lower, upper), least budget): the search over
# the bracket finishes with no layout, so the upper bound is exact; one
# node less and the gap stays unresolved.
# The counting condition rules out every profile of the first three
# brackets after one try of A_1; at (8, 4, 5) the walk of every profile at
# the counting bound 14 ends with nothing.
NO_HIT_SETTLE_BUDGETS = [
    (5, 3, 4, 6, 7, 1),
    (6, 3, 4, 8, 9, 1),
    (8, 3, 5, 10, 12, 1),
    (8, 4, 5, 14, 15, 1907),
]


@pytest.mark.parametrize("n, k, m, lower, upper, budget", NO_HIT_SETTLE_BUDGETS)
def test_settle_gap_returns_upper_when_the_finished_search_finds_nothing(
    monkeypatch, n, k, m, lower, upper, budget
):
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=lower, upper=upper))
    assert settle_gap(n, k, m, budget=budget) == upper
    with pytest.raises(BudgetExceeded):
        settle_gap(n, k, m, budget=budget - 1)


@pytest.mark.parametrize("n, k, m, lower, upper", [(5, 2, 3, 5, 7), (6, 2, 4, 6, 8)])
def test_settle_gap_rules_out_targets_below_2n_minus_m_without_a_node(
    monkeypatch, n, k, m, lower, upper
):
    # At k >= 2 no two items sit alone on one server, so n items need at
    # least 2n - m replicas; the root of every lower target is cut.
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=lower, upper=upper))
    assert upper == 2 * n - m
    assert settle_gap(n, k, m, budget=0) == upper


def test_settle_gap_walks_far_deeper_than_the_recursion_limit(monkeypatch):
    # The bracket [2998, 2999) leaves one target, reached by a walk 1,500
    # items deep in 1,502 nodes; one node less and it gives up.  The two
    # targets of [2996, 2998) lie below 2n - m = 2998 and hold no layout,
    # which the root cut shows without a node.
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=2998, upper=2999))
    assert settle_gap(1500, 2, 2, budget=10_000) == 2998
    assert settle_gap(1500, 2, 2, budget=1_502) == 2998
    with pytest.raises(BudgetExceeded, match="after 1501 nodes"):
        settle_gap(1500, 2, 2, budget=1_501)
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=2996, upper=2998))
    assert settle_gap(1500, 2, 2, budget=0) == 2998


@pytest.mark.parametrize("n, k, m, target, nodes", [(5, 2, 3, 9, 6), (6, 2, 4, 12, 7)])
def test_walk_skips_branches_that_cannot_fill_a_high_target(monkeypatch, n, k, m, target, nodes):
    # Far above the optimum, the room left bounds A_1 from both sides: the
    # one profile has 2n - target singletons and the rest of the items on
    # k = 2 servers, and its walk never backtracks.
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=target, upper=target + 1))
    assert settle_gap(n, k, m, budget=nodes) == target
    with pytest.raises(BudgetExceeded):
        settle_gap(n, k, m, budget=nodes - 1)
