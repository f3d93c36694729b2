import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import mmreg.tolerance as tolerance
import tolerance_oracle as oracle
from mmreg import (
    Bag,
    Graph,
    LowerBoundError,
    ToleranceError,
    bag_of,
    find_witness,
    induce_uniform,
    lower_bound_floor,
    normalize_bag,
    t_bridge,
    t_direct,
    t_uniform,
    verify_witness,
)
from mmreg.tolerance import BRIDGE_LIMIT, reach_masks, smallest_failing_pair


def naive_t(bag: Bag) -> int:
    """Independent oracle: the quantifier definition, evaluated with
    plain sets and no early exits shared with the implementation."""
    n = bag.n
    procs = list(range(1, n + 1))

    def holds(t):
        size = n - t
        if size == 0:
            return False
        for p_sub in combinations(procs, size):
            for q_sub in combinations(procs, size):
                P, Pp = set(p_sub), set(q_sub)
                if P & Pp:
                    continue
                if not any(s & P and s & Pp for s in bag.sets):
                    return False
        return True

    best = 0
    for t in range(0, n + 1):
        if holds(t):
            best = t
        else:
            break
    return best


def covered_bags(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.sets(st.integers(1, n), min_size=1), max_size=6).map(
            lambda sets: normalize_bag(bag_of(n, *sets))
        )
    )


def small_graphs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)), max_size=10
        ).map(lambda pairs: Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
    )


@st.composite
def bridge_bags(draw, max_n):
    """Covered bags at n <= max_n: the uniform system of a random graph;
    random sets of any size from 1 to n, some of them repeated; or equal
    disjoint blocks under a random labelling plus up to two random sets,
    whose ties between equal reaches are where an off-by-one cut shows."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["graph", "sets", "blocks"]))
    if kind == "graph":
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
        return induce_uniform(Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
    if kind == "blocks":
        perm = draw(st.permutations(range(1, n + 1)))
        b = draw(st.integers(1, max(1, n // 2)))
        sets = [perm[i : i + b] for i in range(0, n, b)]
        for _ in range(draw(st.integers(0, 2))):
            sets.append(draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, n))])
        return bag_of(n, *sets)
    cap = draw(st.integers(1, n))  # most bags mix small sets with a few large ones
    sets = [
        draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, cap))]
        for _ in range(draw(st.integers(0, n)))
    ]
    if sets:
        sets += draw(st.lists(st.sampled_from(sets), max_size=3))
    return normalize_bag(bag_of(n, *sets))


def disjoint_sets(k, b):
    """k disjoint sharing sets of b processes each."""
    return bag_of(k * b, *(range(i * b + 1, (i + 1) * b + 1) for i in range(k)))


class CountingReach(list):
    """A reach list that counts its lookups.  The bridge search reads
    each entry once to order the processes, then one entry per left
    side it grows."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestFloor:
    @pytest.mark.parametrize("n,expected", [(5, 2), (1, 0), (6, 2), (2, 0), (9, 4)])
    def test_values(self, n, expected):
        assert lower_bound_floor(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ToleranceError):
            lower_bound_floor(0)


class TestDirect:
    def test_pure_message_passing_is_majority(self, singleton5_spec):
        res = t_direct(singleton5_spec.bag)
        assert res.t == 2 == naive_t(singleton5_spec.bag)

    def test_full_sharing_tolerates_all_but_one(self, full4_spec):
        res = t_direct(full4_spec.bag)
        assert res.t == 3
        assert res.witness is None

    def test_fig1_beats_majority(self, fig1_spec):
        res = t_direct(fig1_spec.bag)
        assert res.t == 3 == naive_t(fig1_spec.bag)
        assert res.witness == ((1,), (4,))

    def test_refuses_above_limit(self):
        bag = normalize_bag(Bag(15, ()))
        with pytest.raises(ToleranceError, match="t_bridge"):
            t_direct(bag)

    def test_requires_covered_bag(self):
        with pytest.raises(ToleranceError, match="normalize"):
            t_direct(bag_of(3, [1, 2]))

    def test_witness_is_valid(self, fig1_spec, singleton5_spec):
        for bag in (fig1_spec.bag, singleton5_spec.bag):
            res = t_direct(bag)
            assert res.witness is not None
            assert verify_witness(bag, res.t, res.witness)


class TestBridge:
    def test_singletons(self, singleton5_spec):
        res = t_bridge(singleton5_spec.bag)
        assert res.t == 2
        assert res.witness == ((1, 2), (3, 4))

    def test_full_sharing(self, full4_spec):
        res = t_bridge(full4_spec.bag)
        assert res.t == 3 and res.witness is None

    def test_fig1(self, fig1_spec):
        res = t_bridge(fig1_spec.bag)
        assert res.t == 3

    def test_refuses_above_budget(self):
        bag = normalize_bag(Bag(BRIDGE_LIMIT + 1, ()))
        with pytest.raises(ToleranceError, match="budget"):
            t_bridge(bag)

    @settings(max_examples=60, deadline=None)
    @given(covered_bags())
    def test_matches_direct_and_oracle(self, bag):
        direct = t_direct(bag)
        bridge = t_bridge(bag)
        assert direct.t == bridge.t == naive_t(bag)
        assert direct.witness == bridge.witness

    @settings(max_examples=40, deadline=None)
    @given(covered_bags())
    def test_floor_always_holds(self, bag):
        assert t_bridge(bag).t >= lower_bound_floor(bag.n)

    @settings(max_examples=40, deadline=None)
    @given(covered_bags(max_n=5), st.sets(st.integers(1, 5), min_size=1))
    def test_adding_a_set_never_decreases_t(self, bag, extra):
        extra = frozenset(p for p in extra if p <= bag.n)
        if not extra:
            return
        bigger = Bag(bag.n, bag.sets + (extra,))
        assert t_direct(bigger).t >= t_direct(bag).t


class TestBridgeSearch:
    @settings(max_examples=150, deadline=None)
    @given(bridge_bags(max_n=16))
    def test_matches_the_subset_table(self, bag):
        assert t_bridge(bag) == oracle.t_bridge(bag)

    # Singletons at n = 21..24, (k, b) = (12, 2), (8, 3), (6, 4), and one set.
    @pytest.mark.parametrize("k,b", [(21, 1), (22, 1), (23, 1), (24, 1), (12, 2), (8, 3), (6, 4), (1, 24)])
    def test_disjoint_sets_closed_form(self, monkeypatch, k, b):
        # The limit bounds the witness pass's time on random bags; on
        # these bags both the search and the witness are immediate.
        monkeypatch.setattr(tolerance, "BRIDGE_LIMIT", 24)
        bag = disjoint_sets(k, b)
        n = k * b
        res = t_bridge(bag)
        assert res.t == n - b * (k // 2) - 1
        if k == 1:
            assert res.witness is None
        else:
            assert verify_witness(bag, res.t, res.witness)
        # The balanced bound keeps the search linear on these bags, odd
        # n included; without it, 23 singletons take millions of steps.
        reach = CountingReach(reach_masks(n, bag.masks()))
        assert tolerance._max_unbridged_side(n, reach) == n - res.t - 1
        assert reach.reads <= 2 * n

    def test_search_work_on_random_bags(self):
        # n sets of 1 to 4 processes at n = 22: largest reach first grows
        # about 4 000 left sides over these 20 bags, smallest reach first
        # over 200 000, for the same s*.
        rng = random.Random(0)
        n = 22
        reads = 0
        for _ in range(20):
            bag = normalize_bag(bag_of(n, *(rng.sample(range(1, n + 1), rng.randint(1, 4)) for _ in range(n))))
            reach = CountingReach(reach_masks(n, bag.masks()))
            tolerance._max_unbridged_side(n, reach)
            reads += reach.reads
        assert reads <= 20_000

    @settings(max_examples=60, deadline=None)
    @given(bridge_bags(max_n=14), st.data())
    def test_adding_a_set_never_lowers_t(self, bag, data):
        extra = frozenset(data.draw(st.sets(st.integers(1, bag.n), min_size=1)))
        assert t_bridge(Bag(bag.n, bag.sets + (extra,))).t >= t_bridge(bag).t


class TestUniform:
    def test_fig1(self, fig1_graph):
        assert t_uniform(fig1_graph).t == 3

    def test_edgeless_reduces_to_majority(self):
        assert t_uniform(Graph.from_edges(5, [])).t == 2

    def test_complete_graph(self):
        g = Graph.from_edges(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
        assert t_uniform(g).t == 3

    def test_refuses_above_limit(self):
        with pytest.raises(ToleranceError, match="exhaustive limit"):
            t_uniform(Graph.from_edges(15, []))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_equals_direct_on_induced_bag(self, g):
        assert t_uniform(g).t == t_direct(induce_uniform(g)).t


class TestWitnessValidity:
    def test_rejects_overlapping_sides(self, singleton5_spec):
        assert not verify_witness(singleton5_spec.bag, 2, ((1, 2), (2, 3)))

    def test_rejects_bridged_sides(self, fig1_spec):
        # p1 and p2 share S_1.
        assert not verify_witness(fig1_spec.bag, 3, ((1,), (2,)))

    def test_rejects_wrong_size(self, singleton5_spec):
        assert not verify_witness(singleton5_spec.bag, 2, ((1,), (3, 4)))


# -- quadratic pair search, kept as an oracle for the linear one -----------


def _subset_table(n, reach, size):
    """All size-`size` subsets in lexicographic order, as (mask, reach-of-subset)."""
    out = []
    for combo in combinations(range(n), size):
        mask = 0
        r = 0
        for i in combo:
            mask |= 1 << i
            r |= reach[i]
        out.append((mask, r))
    return out


def oracle_all_pairs_ok(n, reach, size):
    subs = _subset_table(n, reach, size)
    for a in range(len(subs)):
        ra = subs[a][1]
        for b in range(a, len(subs)):  # relation is symmetric
            if not ra & subs[b][0]:
                return False
    return True


def oracle_smallest_failing_pair(n, reach, size):
    if size < 1 or size > n:
        return None
    combos = list(combinations(range(n), size))
    subs = _subset_table(n, reach, size)
    for a in range(len(subs)):
        ra = subs[a][1]
        for b in range(len(subs)):
            if not ra & subs[b][0]:
                return (tuple(i + 1 for i in combos[a]), tuple(i + 1 for i in combos[b]))
    return None


def seeded_bags(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        sets = [rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))) for _ in range(rng.randint(0, n))]
        yield normalize_bag(bag_of(n, *sets))


class TestLinearSearchAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_pair_search_at_every_size(self, seed):
        for bag in seeded_bags(seed, 100, max_n=11):
            n = bag.n
            reach = reach_masks(n, bag.masks())
            for size in range(0, n + 2):
                pair = smallest_failing_pair(n, reach, size)
                assert pair == oracle_smallest_failing_pair(n, reach, size), (bag, size)
                if size >= 1:  # size 0 has no sides to pair
                    assert (pair is None) == oracle_all_pairs_ok(n, reach, size), (bag, size)

    @pytest.mark.parametrize("seed", range(2))
    def test_find_witness_exactly_above_threshold(self, seed):
        for bag in seeded_bags(100 + seed, 40, max_n=9):
            t_l = t_bridge(bag).t
            for t in range(0, t_l + 1):
                with pytest.raises(LowerBoundError, match="tolerates"):
                    find_witness(bag, t)
            reach = reach_masks(bag.n, bag.masks())
            for t in range(t_l + 1, bag.n):
                w = find_witness(bag, t)
                assert verify_witness(bag, t - 1, (w.p_side, w.p_prime))
                assert (w.p_side, w.p_prime) == oracle_smallest_failing_pair(bag.n, reach, bag.n - t)
                assert sorted(w.p_side + w.p_prime + w.q_side) == list(range(1, bag.n + 1))
