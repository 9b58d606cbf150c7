"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete (pytest shows them on failure regardless).  Every check is exact;
no tolerances apply anywhere.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from cbckit.bounds import inequality_slack, known_n, lower_bound
from cbckit.cli import main
from cbckit.construct import (
    construct_best,
    construct_range_a,
    construct_range_b,
    construct_uniform,
)
from cbckit.core import Params, SetSystem, mask_of, parse, serialize, total_storage
from cbckit.cwc import best_d4_code, graham_sloane_d4
from cbckit.errors import RangeError
from cbckit.hall import verify_hc1, verify_hc2
from cbckit.oracle import search_optimal

from conftest import brute_force_valid, min_distance


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {description}")
        raise
    print(f"criterion {number} PASS  {description}")


def test_criterion_1_paper_example():
    with criterion(1, "worked example n=43 k=4 m=6: profile (5, 38), N=124, valid"):
        system = construct_range_a(43, 4, 6)
        assert total_storage(system) == 124
        assert Counter(map(int.bit_count, system.items)) == {2: 5, 3: 38}
        assert verify_hc2(system, 4).valid


def test_criterion_2_deletion_range_sweep():
    with criterion(2, "deletion-range sweep: N formula = lower bound, all valid"):
        for k, m in [(3, 5), (3, 6), (4, 6), (4, 7), (5, 8)]:
            ceiling = (k - 1) * comb(m, k - 1)
            for n in range(comb(m, k - 2), ceiling + 1):
                system = construct_range_a(n, k, m)
                built = total_storage(system)
                expected = n * (k - 1) - (ceiling - n) // (m - k + 1)
                assert built == expected, (n, k, m)
                assert built == lower_bound(n, k, m).lower, (n, k, m)
                assert verify_hc2(system, k).valid, (n, k, m)


def test_criterion_3_code_range_sweep():
    with criterion(3, "code-range sweep at k=5 m=8: N formula, gap 0/1 by residue"):
        k, m = 5, 8
        ceiling = comb(m, k - 2)
        floor_n = None
        for n in range(ceiling, 0, -1):
            try:
                construct_range_b(n, k, m)
            except RangeError:
                break
            floor_n = n
        assert floor_n == 40  # ceiling - (m-k+1) * 4 with the size-4 code
        for n in range(floor_n, ceiling + 1):
            system = construct_range_b(n, k, m)
            built = total_storage(system)
            deficit = ceiling - n
            assert built == n * (k - 2) - 2 * (deficit // 4), (n,)
            assert verify_hc2(system, k).valid, (n,)
            gap = built - lower_bound(n, k, m).lower
            assert gap == (0 if deficit % 4 in (0, 1) else 1), (n, gap)


def test_criterion_4_oracle_agreement():
    with criterion(4, "oracle equals dispatch on m in {3,4}, k in {2,3}, n <= m+2"):
        for m in (3, 4):
            for k in (2, 3):
                for n in range(1, m + 3):
                    expected = known_n(Params(n, k, m)).exact
                    found = search_optimal(n, k, m).optimal_n_storage
                    assert found == expected, (n, k, m, found, expected)
        assert search_optimal(5, 2, 3).optimal_n_storage == 7
        assert search_optimal(6, 3, 4).optimal_n_storage == 9


def test_criterion_5_hall_equivalence():
    with criterion(5, "hall checks: hc1 = hc2 = brute force, 10^3 random + tiny grids"):
        rng = random.Random(0xBA7C0DE)
        for _ in range(1000):
            m = rng.randint(1, 7)
            n = rng.randint(0, 9)
            items = tuple(
                mask_of(rng.sample(range(m), rng.randint(1, min(4, m))))
                for _ in range(n)
            )
            system = SetSystem(m, items)
            k = rng.randint(1, min(4, m))
            expected = brute_force_valid(system, k)
            assert verify_hc2(system, k).valid == expected, (system, k)
            assert verify_hc1(system, k).valid == expected, (system, k)
        for m in (2, 3):
            for n in range(4):
                for items in combinations_with_replacement(range(1, 1 << m), n):
                    system = SetSystem(m, items)
                    for k in range(1, m + 1):
                        expected = brute_force_valid(system, k)
                        assert verify_hc2(system, k).valid == expected
                        assert verify_hc1(system, k).valid == expected


def test_criterion_6_lemma_property_suites():
    with criterion(6, "counting-redundancy and binomial-ratio lemmas: no counterexamples"):
        rng = random.Random(0x5EED)
        exercised = 0
        for _ in range(10_000):
            m = rng.randint(3, 10)
            i = rng.randint(1, m - 2)
            counts = [rng.randint(0, 5) for _ in range(i + 1)] + [0]
            if inequality_slack(counts, m, i + 1) >= 0:
                exercised += 1
                assert inequality_slack(counts, m, i) >= 0, (m, i, counts)
        assert exercised >= 1000
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


def test_criterion_7_constant_weight_codes():
    with criterion(7, "constant-weight codes: size >= C(m,w)/m, distances as declared"):
        for m in range(1, 13):
            for w in range(1, min(4, m) + 1):
                for code in (graham_sloane_d4(m, w), best_d4_code(m, w)):
                    assert code.size * m >= comb(m, w), (m, w)
                    assert min_distance(code.words) >= 4, (m, w)
        # The uniform layouts' codes, read back from each layout's distinct
        # sets: c-sets at distance 2(k-c-1), for each d2 in {2, 4, 6}.
        for m in range(4, 11):
            for d2 in (2, 4, 6):
                for c in range(1, m):
                    k = c + 1 + d2 // 2
                    if not (k // 2 <= c < k - 1 and k <= m):
                        continue
                    words = sorted(set(construct_uniform(c, k, m).items))
                    assert all(word.bit_count() == c for word in words), (m, c, k)
                    assert min_distance(words) >= d2, (m, c, k)


def test_criterion_8_uniform_layouts():
    with criterion(8, "c-uniform layouts (2,5,8) and (3,5,9): uniform, valid, n = 8/84"):
        pairs = construct_uniform(2, 5, 8)
        assert pairs.n == 8 and total_storage(pairs) == 16
        assert all(it.bit_count() == 2 for it in pairs.items)
        assert verify_hc2(pairs, 5).valid
        triples = construct_uniform(3, 5, 9)
        assert triples.n == 84 and total_storage(triples) == 252
        assert all(it.bit_count() == 3 for it in triples.items)
        assert verify_hc2(triples, 5).valid


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical round trips and seeded simulation"):
        for n, k, m in [(3, 2, 3), (7, 4, 6), (43, 4, 6), (52, 5, 8)]:
            system, _ = construct_best(n, k, m)
            text = serialize(system)
            assert parse(text) == system
            assert serialize(parse(text)) == text
            assert verify_hc2(parse(text), k).valid
        layout = tmp_path / "table1.cbc"
        assert main(["construct", "-n", "43", "-k", "4", "-m", "6", "--out", str(layout)]) == 0
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            code = main(["simulate", str(layout), "-k", "4", "--batches", "300", "--seed", "42"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "max reads in one batch per server: 1" in outputs[0]
