import hashlib
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbckit.construct import construct_best, construct_range_a
from cbckit.core import SetSystem, bits, mask_of
from cbckit.cwc import w_masks_colex
from cbckit.errors import NoPlan, ParamError
from cbckit.hall import (
    CrowdedSubset,
    Deficiency,
    RetrievalPlan,
    ValidityReport,
    find_sdr,
    plan_batch,
    supersets_adding,
    verify_hc1,
    verify_hc2,
)

from conftest import brute_force_valid, chain_system, hc2_reference, sdr_reference, set_systems


@pytest.fixture
def three_copies():
    return SetSystem.from_sets(3, [(0, 1)] * 3)


def assert_plan_consistent(plan: RetrievalPlan, system: SetSystem, request):
    assert sorted(plan.assignment) == sorted(request)
    servers = list(plan.assignment.values())
    assert len(set(servers)) == len(servers)
    for item, server in plan.assignment.items():
        assert system.items[item] >> server & 1


@pytest.mark.parametrize("m", range(1, 9))
def test_supersets_match_a_filter_over_all_subsets(m):
    # The tables as verify_hc2 and the oracle build them: more[e] lists
    # every mask of e servers.
    more = [list(w_masks_colex(m, e)) for e in range(m + 1)]
    for mask in range(1 << m):
        above = [t for t in range(1 << m) if t & mask == mask]
        for extra in range(m + 1):
            size = mask.bit_count() + extra
            assert supersets_adding(mask, more[extra]) == [
                t for t in above if t.bit_count() == size
            ]


def test_hc2_three_copies_invalid(three_copies):
    report = verify_hc2(three_copies, 3)
    assert not report.valid
    assert isinstance(report.witness, CrowdedSubset)
    assert report.witness.servers == (0, 1)
    assert report.witness.items == (0, 1, 2)


def test_hc2_table1_valid(table1_system):
    assert verify_hc2(table1_system, 4).valid


def test_hc2_singletons_valid():
    m = 5
    system = SetSystem(m, tuple(1 << j for j in range(m)))
    assert verify_hc2(system, m).valid


def test_hc2_param_error():
    with pytest.raises(ParamError):
        verify_hc2(SetSystem(2, (1,)), 3)


def test_hc1_matches_hc2_on_examples(three_copies, table1_system):
    for system, k in [(three_copies, 3), (table1_system, 4)]:
        assert verify_hc1(system, k).valid == verify_hc2(system, k).valid
    m = 5
    singles = SetSystem(m, tuple(1 << j for j in range(m)))
    assert verify_hc1(singles, m).valid


def test_hc1_intro_example_valid(intro_example_system):
    assert verify_hc1(intro_example_system, 3).valid


def test_hc1_two_singleton_copies():
    system = SetSystem.from_sets(2, [(0,), (0,)])
    report = verify_hc1(system, 2)
    assert not report.valid
    assert isinstance(report.witness, Deficiency)
    assert report.witness.items == (0, 1)
    assert report.witness.servers == (0,)


def test_find_sdr_intro_example(intro_example_system):
    result = find_sdr(intro_example_system.items)
    assert isinstance(result, list)
    assert_plan_consistent(RetrievalPlan(dict(enumerate(result))), intro_example_system, range(3))


def test_find_sdr_single():
    result = find_sdr([mask_of((0,))])
    assert result == [0]


def test_find_sdr_deficiency(three_copies):
    result = find_sdr(three_copies.items)
    assert isinstance(result, Deficiency)
    assert result.items == (0, 1, 2)
    assert result.servers == (0, 1)


def test_plan_batch_table1(table1_system):
    plan = plan_batch(table1_system, [0, 7, 21, 40])
    assert_plan_consistent(plan, table1_system, [0, 7, 21, 40])


def test_plan_batch_trivial():
    system = SetSystem(4, tuple(1 << j for j in range(4)))
    plan = plan_batch(system, [2, 0])
    assert plan.assignment == {0: 0, 2: 2}


def test_plan_batch_no_plan(three_copies):
    with pytest.raises(NoPlan) as err:
        plan_batch(three_copies, [0, 1, 2])
    assert err.value.witness.servers == (0, 1)


def test_witness_texts():
    assert str(CrowdedSubset((0, 1), (0, 1, 2))) == "{0,1} contains 3 items"
    assert str(Deficiency((0, 1, 2), (0, 1))) == "items (0,1,2) cover only 2 servers"


def test_plan_batch_validates_request(table1_system):
    with pytest.raises(ParamError, match="item index 0 requested twice"):
        plan_batch(table1_system, [0, 0])
    with pytest.raises(ParamError, match=r"item index 99 outside 0\.\.42"):
        plan_batch(table1_system, [99])


@settings(max_examples=1000)
@given(st.integers(1, 9).flatmap(lambda m: st.lists(st.integers(0, (1 << m) - 1), max_size=8)))
def test_find_sdr_matches_recursive_reference(sets):
    got, want = find_sdr(sets), sdr_reference(sets)
    assert type(got) is type(want)
    if isinstance(want, list):
        assert len(got) == len(want) == len(sets)
        for pos, (server, expected) in enumerate(zip(got, want)):
            assert server == expected, pos
    else:
        assert (got.items, got.servers) == (want.items, want.servers)


def test_deep_augmenting_path_plans():
    system = chain_system(1200)
    plan = plan_batch(system, range(system.n))
    assert plan.assignment == {**{j: j + 1 for j in range(1200)}, 1200: 0}
    assert verify_hc1(system, system.n).valid


# sha256 of the plans for 2,000 seeded requests per layout, captured from the
# recursive planner; they pin the server order, not just validity.
PINNED_PLANS = {
    (43, 4, 6): "4380f2c626ef94fa4642e5ff950ba9b2eb8381211b0b9eaff211cf135ae80d02",
    (500, 5, 16): "9139132c10261da72cc93c99f76e75a42cb24748924967f61bc7024778e277fc",
}


@pytest.mark.parametrize("params", sorted(PINNED_PLANS))
def test_plan_batch_plans_are_pinned(params):
    n, k, m = params
    system, _ = construct_best(n, k, m)
    rng = random.Random(n)
    digest = hashlib.sha256()
    for _ in range(2000):
        request = rng.sample(range(n), k)
        digest.update(repr(list(plan_batch(system, request).assignment.items())).encode())
    assert digest.hexdigest() == PINNED_PLANS[params]


def test_hc2_sub_conditions_independent(three_copies):
    # Exactly one server subset (of any size) is overloaded in 3 x {0,1}.
    violating = []
    for r in range(4):
        for combo in combinations(range(3), r):
            mask = mask_of(combo)
            inside = sum(1 for it in three_copies.items if it & ~mask == 0)
            if inside > r:
                violating.append(combo)
    assert violating == [(0, 1)]


def test_hc2_witness_recounts(three_copies):
    witness = verify_hc2(three_copies, 3).witness
    mask = mask_of(witness.servers)
    recount = [j for j, it in enumerate(three_copies.items) if it & ~mask == 0]
    assert len(recount) > len(witness.servers)
    assert tuple(recount) == witness.items


@given(set_systems(max_m=6, max_n=8, max_set_size=4), st.integers(1, 4))
def test_hc1_hc2_brute_agree(system, k):
    if k > system.m:
        return
    expected = brute_force_valid(system, k)
    assert verify_hc2(system, k).valid == expected
    assert verify_hc1(system, k).valid == expected


def test_exhaustive_tiny_grid():
    # Every multiset of n <= 3 non-empty subsets over m in {2, 3}:
    # both checks must equal the brute-force ground truth.
    for m in (2, 3):
        masks = range(1, 1 << m)
        for n in range(4):
            for items in combinations_with_replacement(masks, n):
                system = SetSystem(m, items)
                for k in range(1, m + 1):
                    expected = brute_force_valid(system, k)
                    assert verify_hc2(system, k).valid == expected
                    assert verify_hc1(system, k).valid == expected


@given(set_systems(max_m=10, max_n=14, max_set_size=10), st.data())
def test_hc2_matches_per_subset_reference(system, data):
    # Any k <= m, replica sets wider than k included; the verdict, the
    # witness servers and the witness items must all agree.
    k = data.draw(st.integers(1, system.m))
    assert verify_hc2(system, k) == hc2_reference(system, k)


@pytest.mark.parametrize("n,k,m", [(500, 5, 16), (600, 5, 17)])
def test_hc2_range_b_with_one_extra_copy(n, k, m):
    # A certified layout plus one more copy of a stored replica set: the
    # sparse count must name the reference's witness, also above m = 16.
    system, _ = construct_best(n, k, m)
    assert verify_hc2(system, k).valid
    crowded = SetSystem(m, system.items + (system.items[-1],))
    report = verify_hc2(crowded, k)
    assert not report.valid
    assert report == hc2_reference(crowded, k)


@pytest.mark.parametrize("n,k,m", [(500, 5, 16), (14, 5, 6)])
@pytest.mark.parametrize("extra", [False, True])
def test_hc2_counts_in_both_loop_orientations(n, k, m, extra):
    # Both range-b layouts store 2-sets twice each and 3-sets once, and
    # sizes r = 3 and 4 are counted.  The copies of 2-sets are no more than
    # the C(m, r-2) masks that extend them (10 against 16 and 120 at
    # m = 16), so each copy is joined with the masks; the 3-set copies
    # counted outnumber the C(m, r-3) masks (at m = 16, the 70 missing of
    # the 560 3-sets, or the 491 present once the last is stored twice,
    # against 1 and 16; 8 present against 1 and 6 at m = 6), so each mask
    # is joined with the copies.  One more copy of the last set crowds a
    # subset.
    system, _ = construct_best(n, k, m)
    if extra:
        system = SetSystem(m, system.items + (system.items[-1],))
    report = verify_hc2(system, k)
    assert report.valid is not extra
    assert report == hc2_reference(system, k)
    if n < 100:
        assert verify_hc1(system, k).valid is report.valid
    if extra:
        # All C(500, 5) item 5-subsets are too many for verify_hc1, but any
        # k of the items inside the witness must already fail to match.
        inside = SetSystem(m, tuple(system.items[j] for j in report.witness.items))
        assert not verify_hc1(inside, k).valid


def test_hc2_counts_without_a_list_of_every_incidence():
    # (4200, 6, 20) counts sizes 4 and 5: a list of all incidences of a
    # size at once peaks at about 4.1 MiB.
    system, _ = construct_best(4200, 6, 20)
    tracemalloc.start()
    try:
        report = verify_hc2(system, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 2.5 * 2**20


@given(st.data())
def test_hc2_caps_multiplicities_like_the_reference(data):
    # Distinct replica sets stored up to 2k times each, past the k copies
    # that verify_hc2 keeps of any one set, in any item order.
    m = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, m))
    masks = data.draw(st.lists(st.integers(1, (1 << m) - 1), max_size=6, unique=True))
    items = [mask for mask in masks for _ in range(data.draw(st.integers(1, 2 * k)))]
    system = SetSystem(m, tuple(data.draw(st.permutations(items))))
    assert verify_hc2(system, k) == hc2_reference(system, k)


@given(st.data())
def test_hc2_matches_the_reference_with_fewer_items_than_k(data):
    # n < k: only subsets of fewer than n servers can be crowded, so the
    # check stops below min(k, n); repeated sets still crowd small subsets.
    m = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(2, m))
    pool = data.draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=4))
    items = data.draw(st.lists(st.sampled_from(pool), max_size=k - 1))
    system = SetSystem(m, tuple(items))
    assert verify_hc2(system, k) == hc2_reference(system, k)


@pytest.mark.parametrize("items, valid", [((1,), True), ((1, 1, 1), False)])
def test_hc2_work_is_bounded_by_the_layout_not_by_k(items, valid):
    # k = m = 10^5 on one or three items: every subset size from n up to
    # k-1 is uncrowdable, so none is visited.  Walking them all once took
    # 69 s at k = 2000.
    k = m = 10**5
    start = time.perf_counter()
    report = verify_hc2(SetSystem(m, items), k)
    assert time.perf_counter() - start < 1.0
    assert report.valid is valid
    if not valid:
        assert report.witness == CrowdedSubset((0,), (0, 1, 2))


@pytest.fixture(scope="module")
def largest_layout():
    system, _ = construct_best(42499, 7, 24)
    return system


def test_hc2_on_the_largest_layout_holds_no_container_per_set(largest_layout):
    # 42,499 distinct 5-sets, each size skipped by the counting bound: the
    # per-size lists of masks and multiplicities stay under 3 MiB.
    tracemalloc.start()
    try:
        report = verify_hc2(largest_layout, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 3 * 2**20


def test_hc2_counts_the_largest_layout_with_one_extra_copy(largest_layout):
    # One more copy of the last 5-set lifts the bound at r = 6 to 7 items,
    # so that size is counted, and a 6-subset holds the set twice and its
    # five other 5-subsets.  The reference is too slow at m = 24; the
    # witness items are recounted from the layout.
    system = SetSystem(24, largest_layout.items + (largest_layout.items[-1],))
    report = verify_hc2(system, 7)
    assert not report.valid
    servers = report.witness.servers
    assert len(servers) == 6
    mask = mask_of(servers)
    inside = tuple(j for j, it in enumerate(system.items) if it & ~mask == 0)
    assert inside == report.witness.items and len(inside) > 6


def uniform_family(m: int, w: int) -> tuple[int, ...]:
    """Every w-subset of m servers, once each, in lexicographic order."""
    return tuple(mask_of(c) for c in combinations(range(m), w))


@pytest.mark.parametrize("k,m", [(5, 8), (7, 9)])
def test_hc2_complete_k_minus_2_family_is_valid(k, m):
    # An r-subset holds C(r, k-2) <= r of the (k-2)-sets for every r < k,
    # with equality at r = k-1: the paper's counting bound, met exactly.
    system = SetSystem(m, uniform_family(m, k - 2))
    assert verify_hc2(system, k) == hc2_reference(system, k) == ValidityReport(True)


@pytest.mark.parametrize("k,m", [(5, 8), (7, 9)])
@pytest.mark.parametrize("extra", ["duplicate", "k-1 set"])
def test_hc2_complete_k_minus_2_family_plus_one_is_crowded(k, m, extra):
    # One more item lifts the count of some (k-1)-subset to k, one above
    # its size, so the bound no longer rules that size out.
    family = uniform_family(m, k - 2)
    added = family[-1] if extra == "duplicate" else mask_of(range(k - 1))
    system = SetSystem(m, family + (added,))
    report = verify_hc2(system, k)
    assert not report.valid
    assert len(report.witness.servers) == k - 1
    assert report == hc2_reference(system, k)


@st.composite
def near_uniform_layouts(draw, max_m=6):
    """All w-subsets of m servers minus up to three, plus up to three random
    sets, at a batch size k from w to w+3: where the counting bound on
    crowded subsets is tight or one short."""
    m = draw(st.integers(2, max_m))
    w = draw(st.integers(1, m - 1))
    family = uniform_family(m, w)
    dropped = draw(st.sets(st.sampled_from(family), max_size=3))
    extras = draw(st.lists(st.integers(1, (1 << m) - 1), max_size=3))
    k = draw(st.integers(w, min(w + 3, m)))
    items = [mask for mask in family if mask not in dropped] + extras
    return SetSystem(m, tuple(draw(st.permutations(items)))), k


@given(near_uniform_layouts())
def test_hc2_near_uniform_matches_reference_and_hc1(layout):
    system, k = layout
    report = verify_hc2(system, k)
    assert report == hc2_reference(system, k)
    assert report.valid == verify_hc1(system, k).valid


def near_complete_layout(pick):
    """Every w-subset of m <= 7 servers stored mu times, about a quarter of
    them dropped or under-copied (one in 2, 3 or 4), plus up to three sets of other sizes, in
    a shuffled order, at a batch size k <= m.  ``pick(a, b)`` draws an int
    in a..b, so one generator serves hypothesis and a seeded loop."""
    m = pick(2, 7)
    w = pick(1, m - 1)
    mu = pick(1, 3)
    keep = pick(1, 3)
    items = []
    for mask in uniform_family(m, w):
        items += [mask] * (mu if pick(0, keep) else pick(0, mu - 1))
    for _ in range(pick(0, 3)):
        size = pick(1, m - 1)
        size += size >= w
        servers = list(range(m))
        for i in range(size):
            j = pick(i, m - 1)
            servers[i], servers[j] = servers[j], servers[i]
        items.append(mask_of(servers[:size]))
    for i in range(len(items) - 1):
        j = pick(i, len(items) - 1)
        items[i], items[j] = items[j], items[i]
    return SetSystem(m, tuple(items)), pick(1, m)


def hc2_branches(system, k, report):
    """How verify_hc2 counts the sizes it reaches on (system, k): from
    present copies only, from missing ones only, from both at one size,
    with multiplicities capped at width, and with base > r."""
    width = min(k, system.n)
    levels: dict[int, list[int]] = {}
    reached = set()
    for mask, mult in Counter(system.items).items():
        if mask.bit_count() < width:
            levels.setdefault(mask.bit_count(), []).append(min(mult, width))
            if mult > width:
                reached.add("capped")
    missing = {s for s, ms in levels.items() if 2 * sum(ms) > max(ms) * comb(system.m, s)}
    last = width - 1 if report.valid else len(report.witness.servers)
    for r in range(1, last + 1):
        if sum(sum(sorted(ms)[-comb(r, s):]) for s, ms in levels.items() if s <= r) <= r:
            continue
        counted = {s for s in levels if s <= r}
        if not counted & missing:
            reached.add("present only")
        elif counted <= missing:
            reached.add("missing only")
        else:
            reached.add("mixed")
        if sum(max(levels[s]) * comb(r, s) for s in counted & missing) > r:
            reached.add("base > r")
    return reached


@given(st.data())
def test_hc2_near_complete_families_match_the_reference(data):
    system, k = near_complete_layout(lambda a, b: data.draw(st.integers(a, b)))
    assert verify_hc2(system, k) == hc2_reference(system, k)


def test_near_complete_draws_reach_every_way_of_counting():
    # The generator above on a seeded loop reaches every way of counting a
    # size; the two tests below pin base > r on a crowded and a valid size.
    rng = random.Random(29)
    reached = Counter()
    for _ in range(1000):
        system, k = near_complete_layout(rng.randint)
        report = verify_hc2(system, k)
        assert report == hc2_reference(system, k)
        reached.update(hc2_branches(system, k, report))
    assert set(reached) == {"present only", "missing only", "mixed", "capped", "base > r"}, reached


def test_hc2_walks_to_the_first_crowded_subset():
    # Every pair of 5 servers twice: no copy is missing, so base = 2*C(3,2)
    # = 6 > 3 and every 3-subset is crowded; the first is {0, 1, 2}.
    system = SetSystem(5, uniform_family(5, 2) * 2)
    report = verify_hc2(system, 4)
    assert report.witness == CrowdedSubset((0, 1, 2), (0, 1, 4, 10, 11, 14))
    assert report == hc2_reference(system, 4)


def test_hc2_walks_every_subset_of_a_valid_size():
    # 6 of the 10 pairs on 5 servers, the missing four a 4-cycle: each
    # 4-subset misses at least two pairs, so it holds at most 4 against
    # base = C(4,2) = 6, and the walk passes all five 4-subsets.
    missing = {mask_of(p) for p in [(0, 1), (1, 2), (2, 3), (0, 3)]}
    system = SetSystem(5, tuple(t for t in uniform_family(5, 2) if t not in missing))
    assert verify_hc2(system, 5) == hc2_reference(system, 5) == ValidityReport(True)
    assert verify_hc1(system, 5).valid


def test_hc2_counts_a_nearly_full_level_by_its_missing_sets():
    # Range-a (1200, 3, 800) stores 799 of the 800 singletons: counted by
    # the one missing, size 2 joins it with 799 servers instead of joining
    # each singleton with 799 (6 s, and a count of every pair).
    system = construct_range_a(1200, 3, 800)
    tracemalloc.start()
    try:
        report = verify_hc2(system, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 2**20
    smaller = construct_range_a(400, 3, 300)
    assert verify_hc2(smaller, 3) == hc2_reference(smaller, 3)


def test_hc2_many_copies_of_one_small_set():
    # 500 copies of each of two singletons at m=20: the count per copy is
    # capped at k, and the witness still lists every item inside.
    system = SetSystem.from_sets(20, [(0,)] * 500 + [(1,)] * 500)
    report = verify_hc2(system, 6)
    assert report.witness == CrowdedSubset((0,), tuple(range(500)))


def test_hc2_every_subset_stored():
    # All 2^12 - 1 replica sets at k = m = 12: {0,1} already holds three.
    system = SetSystem(12, tuple(range(1, 1 << 12)))
    assert verify_hc2(system, 12).witness == CrowdedSubset((0, 1), (0, 1, 2))


def test_hc2_wide_server_sets():
    m = 20
    crowded = SetSystem.from_sets(m, [(0,), (0,), (1,)])
    report = verify_hc2(crowded, 2)
    assert not report.valid and report.witness.servers == (0,)
    fine = SetSystem(m, tuple(1 << j for j in range(5)))
    assert verify_hc2(fine, 3).valid
    assert verify_hc1(fine, 3).valid


@given(set_systems(max_m=6, max_n=8, max_set_size=4))
def test_any_plan_is_consistent(system):
    if system.n == 0:
        return
    request = list(range(min(system.n, 3)))
    try:
        plan = plan_batch(system, request)
    except NoPlan as err:
        union = 0
        for j in err.witness.items:
            union |= system.items[j]
        assert tuple(sorted(bits(union))) == err.witness.servers
        assert len(err.witness.servers) < len(err.witness.items)
        return
    assert_plan_consistent(plan, system, request)


def test_hc1_reports_digest():
    # repr of verify_hc1 (verdict and witness) on 2,000 seeded random small
    # layouts, captured when it matched every multiset twice: once sorted for
    # the verdict, once in combination order for the witness.
    rng = random.Random(20261018)
    h = hashlib.sha256()
    valid = 0
    for _ in range(2000):
        m = rng.randint(2, 6)
        k = rng.randint(1, m)
        width = rng.randint(1, m)
        items = [
            mask_of(rng.sample(range(m), rng.randint(1, width)))
            for _ in range(rng.randint(1, 8))
        ]
        report = verify_hc1(SetSystem(m, tuple(items)), k)
        valid += report.valid
        h.update(repr((m, k, items, report)).encode())
    assert valid == 1364
    assert h.hexdigest() == "fdf99328031d640e7b2917c803652b4a215b545788ed3301d1971fd39b0dc484"
