import pytest

from cbckit import bounds
from cbckit.bounds import BoundResult, known_n, lower_bound
from cbckit.construct import construct_best
from cbckit.core import Params, SetSystem, serialize, total_storage
from cbckit.errors import BudgetExceeded, CbcError, ParamError, RangeError, Unknown
from cbckit.hall import verify_hc1, verify_hc2
from cbckit.oracle import MAX_SEARCH_N, search_optimal, settle_gap

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
    # candidates, and superset lists are built on first placement.
    result = search_optimal(3, 2, 40, budget=1000)
    assert result.optimal_n_storage == 3
    assert verify_hc1(result.witness, 2).valid


def test_budget_counts_nodes_explored():
    nodes = search_optimal(8, 3, 5).nodes_explored
    assert search_optimal(8, 3, 5, budget=nodes).nodes_explored == nodes
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(8, 3, 5, budget=nodes - 1)
    assert err.value.nodes_explored == nodes - 1


# (optimal N, nodes explored) of the Hall-pruned canonical search.
SEARCH_NODE_COUNTS = {
    (5, 2, 3): (7, 63),
    (6, 2, 4): (8, 193),
    (7, 3, 4): (12, 33),
    (7, 2, 5): (9, 579),
    (8, 2, 5): (11, 3234),
    (8, 3, 5): (12, 318),
    (9, 3, 5): (15, 319),
    (10, 3, 5): (17, 5456),
}


def test_search_node_counts_are_pinned():
    for (n, k, m), expected in SEARCH_NODE_COUNTS.items():
        result = search_optimal(n, k, m)
        assert (result.optimal_n_storage, result.nodes_explored) == expected, (n, k, m)


@pytest.mark.parametrize("n, k, m, upper", [
    (5, 2, 3, 7),
    (3, 1, 3, None),  # k = 1: known_n refuses, so there is no verdict
    (9, 4, 6, None),  # middle range: no regime with a builder applies
])
def test_budget_exceeded_carries_upper_bound(n, k, m, upper):
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(n, k, m, budget=0)
    assert err.value.best_upper == upper


def test_search_param_errors():
    with pytest.raises(ParamError):
        search_optimal(0, 2, 3)
    with pytest.raises(ParamError):
        search_optimal(3, 4, 3)
    with pytest.raises(ParamError):
        search_optimal(5, 2, 3, budget=-1)
    with pytest.raises(ParamError):
        settle_gap(19, 5, 6, budget=-1)


def test_search_n_is_capped_below_the_recursion_limit():
    assert MAX_SEARCH_N == 500
    assert search_optimal(500, 1, 1).optimal_n_storage == 500
    with pytest.raises(ParamError, match="n <= 500"):
        search_optimal(501, 1, 1)


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
    with pytest.raises(Unknown):
        settle_gap(19, 5, 6, budget=500)



# (n, k, m, forced bracket [lower, upper), least budget): the search over
# the bracket finishes with no layout, so the upper bound is exact; one
# node less and the gap stays unresolved.
NO_HIT_SETTLE_BUDGETS = [
    (5, 2, 3, 5, 7, 56),
    (6, 2, 4, 6, 8, 184),
    (8, 3, 5, 10, 12, 11_155),
]


@pytest.mark.parametrize("n, k, m, lower, upper, budget", NO_HIT_SETTLE_BUDGETS)
def test_settle_gap_returns_upper_when_the_finished_search_finds_nothing(
    monkeypatch, n, k, m, lower, upper, budget
):
    monkeypatch.setattr(bounds, "known_n", lambda params: BoundResult(lower=lower, upper=upper))
    assert settle_gap(n, k, m, budget=budget) == upper
    with pytest.raises(Unknown):
        settle_gap(n, k, m, budget=budget - 1)
