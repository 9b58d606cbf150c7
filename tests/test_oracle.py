from itertools import combinations_with_replacement, permutations

import pytest

from cbckit.bounds import known_n, lower_bound
from cbckit.construct import construct_best
from cbckit.core import Params, SetSystem, serialize, total_storage
from cbckit.errors import BudgetExceeded, CbcError, ParamError, RangeError, Unknown
from cbckit.hall import verify_hc1, verify_hc2
from cbckit.oracle import _canonical_walk, canonical_systems, search_optimal, settle_gap


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


def _orbit_min(items, m):
    best = None
    for perm in permutations(range(m)):
        mapped = sorted(
            sum(1 << perm[b] for b in range(m) if mask >> b & 1) for mask in items
        )
        key = tuple(mapped)
        if best is None or key < best:
            best = key
    return best


def test_canonical_enumeration_covers_every_orbit():
    # Naive ground truth at (n, m, storage) = (3, 3, 3): every multiset of
    # three non-empty subsets of a 3-set with total size 3.
    naive = [
        items
        for items in combinations_with_replacement(range(1, 8), 3)
        if sum(mask.bit_count() for mask in items) == 3
    ]
    assert len(naive) == 10
    survivors = set(canonical_systems(3, 3, 3))
    orbits = {_orbit_min(items, 3) for items in naive}
    assert len(orbits) == 3
    # The orbit minimum survives pruning (no permutation improves it), so
    # every relabeling class keeps at least one representative.
    assert orbits <= survivors


def test_canonical_systems_respects_max_size():
    for items in canonical_systems(3, 4, 6, max_size=2):
        assert all(mask.bit_count() <= 2 for mask in items)
        assert sum(mask.bit_count() for mask in items) == 6


def test_pruned_enumeration_matches_filtered_reference():
    # The Hall-pruned walk must yield exactly the valid layouts of the
    # unpruned canonical enumeration, in the same order, so the first hit
    # (the search's witness) is unchanged.
    for m in (2, 3, 4):
        for k in range(1, m + 1):
            for n in range(1, m + 3):
                for storage in range(n, n * k + 1):
                    expected = [
                        c
                        for c in canonical_systems(n, m, storage, min(k, m))
                        if verify_hc2(SetSystem(m, c), k).valid
                    ]
                    got = list(
                        _canonical_walk(n, k, m, storage, min(k, m), lambda: None)
                    )
                    assert got == expected, (n, k, m, storage)


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


def test_budget_exceeded_carries_upper_bound():
    with pytest.raises(BudgetExceeded) as err:
        search_optimal(5, 2, 3, budget=0)
    assert err.value.best_upper == 7


def test_search_param_errors():
    with pytest.raises(ParamError):
        search_optimal(0, 2, 3)
    with pytest.raises(ParamError):
        search_optimal(3, 4, 3)
    with pytest.raises(ParamError):
        search_optimal(5, 2, 3, budget=-1)
    with pytest.raises(ParamError):
        settle_gap(19, 5, 6, budget=-1)


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

