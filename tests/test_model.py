import json

import pytest
from hypothesis import given, strategies as st

from mmreg import (
    Bag,
    Graph,
    ModelError,
    SystemSpec,
    bag_of,
    graph_square,
    induce_uniform,
    make_spec,
    normalize_bag,
)
from mmreg.model import load_spec, spec_from_dict


def small_bags():
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(1, n), min_size=1), max_size=6
        ).map(lambda sets: bag_of(n, *sets))
    )


def small_graphs():
    def build(n, pairs):
        return Graph.from_edges(n, [(u, v) for u, v in pairs if u != v and u <= n and v <= n])

    return st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)), max_size=10
        ).map(lambda pairs: build(n, pairs))
    )


class TestBag:
    def test_rejects_empty_set(self):
        with pytest.raises(ModelError):
            bag_of(3, [1, 2], [])

    def test_rejects_out_of_range_member(self):
        with pytest.raises(ModelError):
            bag_of(2, [1, 3])

    def test_keeps_duplicates_and_order(self):
        bag = bag_of(3, [1, 2], [1, 2], [3])
        assert len(bag.sets) == 3
        assert bag.sets[0] == bag.sets[1]


class TestNormalize:
    def test_adds_missing_singleton(self):
        bag = normalize_bag(bag_of(3, [1, 2]))
        assert [sorted(s) for s in bag.sets] == [[1, 2], [3]]

    def test_already_covered_unchanged(self):
        bag = bag_of(2, [1], [2])
        assert normalize_bag(bag) is bag

    def test_empty_bag_becomes_pure_message_passing(self):
        bag = normalize_bag(Bag(5, ()))
        assert [sorted(s) for s in bag.sets] == [[1], [2], [3], [4], [5]]

    @given(small_bags())
    def test_idempotent(self, bag):
        once = normalize_bag(bag)
        assert normalize_bag(once) == once

    @given(small_bags())
    def test_result_covers_every_process(self, bag):
        assert normalize_bag(bag).covered()


class TestInduceUniform:
    def test_fig1_sets(self, fig1_graph):
        bag = induce_uniform(fig1_graph)
        assert [sorted(s) for s in bag.sets] == [
            [1, 2],
            [1, 2, 3],
            [2, 3, 4, 5],
            [3, 4, 5],
            [3, 4, 5],
        ]

    def test_edgeless(self):
        bag = induce_uniform(Graph.from_edges(3, []))
        assert [sorted(s) for s in bag.sets] == [[1], [2], [3]]

    def test_complete_k3(self):
        bag = induce_uniform(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))
        assert all(sorted(s) == [1, 2, 3] for s in bag.sets)
        assert len(bag.sets) == 3

    @given(small_graphs())
    def test_always_covered_with_n_sets(self, g):
        bag = induce_uniform(g)
        assert bag.covered()
        assert len(bag.sets) == g.n
        for p in range(1, g.n + 1):
            assert p in bag.sets[p - 1]


def naive_square(g: Graph) -> set:
    """Independent oracle: distance-2 closure via explicit path search."""
    edges = set()
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if (u, v) in g.edges:
                edges.add((u, v))
                continue
            for k in range(1, g.n + 1):
                if (min(u, k), max(u, k)) in g.edges and (min(k, v), max(k, v)) in g.edges:
                    edges.add((u, v))
                    break
    return edges


class TestGraphSquare:
    def test_path(self):
        g2 = graph_square(Graph.from_edges(3, [(1, 2), (2, 3)]))
        assert sorted(g2.edges) == [(1, 2), (1, 3), (2, 3)]

    def test_fig1(self, fig1_graph):
        g2 = graph_square(fig1_graph)
        assert set(g2.edges) == naive_square(fig1_graph)
        non_edges = {
            (u, v)
            for u in range(1, 6)
            for v in range(u + 1, 6)
            if (u, v) not in g2.edges
        }
        assert non_edges == {(1, 4), (1, 5)}

    def test_edgeless(self):
        g = Graph.from_edges(4, [])
        assert graph_square(g).edges == frozenset()

    @given(small_graphs())
    def test_matches_oracle_and_is_monotone(self, g):
        g2 = graph_square(g)
        assert set(g2.edges) == naive_square(g)
        assert g.edges <= g2.edges

    @given(small_graphs())
    def test_idempotent_on_low_diameter(self, g):
        g2 = graph_square(g)
        if set(graph_square(g2).edges) == set(g2.edges):
            return
        # Only graphs of diameter > 2 may keep growing.
        assert g.n >= 4

    def test_rejects_self_loop(self):
        with pytest.raises(ModelError):
            Graph.from_edges(3, [(2, 2)])


class TestSystemSpec:
    def test_registers_exactly_bag_membership(self, fig1_spec):
        regs = set(fig1_spec.registers)
        expected = {
            (i, p)
            for i, s in enumerate(fig1_spec.bag.sets, start=1)
            for p in s
        }
        assert regs == expected

    def test_fig1_access_example(self, fig1_spec):
        assert fig1_spec.readers[(2, 1)] == (1, 2, 3)

    def test_local_register_readable_by_owner_only(self):
        spec = make_spec(bag=bag_of(3, [1, 2], [3]), writer=1)
        assert spec.readers[(2, 3)] == (3,)

    def test_full_sharing_readable_by_all(self):
        spec = make_spec(bag=bag_of(4, [1, 2, 3, 4]), writer=2)
        assert all(v == (1, 2, 3, 4) for v in spec.readers.values())

    def test_registers_sorted_by_set_then_owner(self, fig1_spec):
        assert list(fig1_spec.registers) == sorted(fig1_spec.registers)

    def test_writer_validated(self):
        with pytest.raises(ModelError):
            make_spec(bag=bag_of(2, [1], [2]), writer=3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Bag(0, ()), "process count must be >= 1"),
        (lambda: Graph(3, frozenset({(1, 4)})), r"edge \(1,4\) outside 1\.\.3"),
        (lambda: Graph(3, frozenset({(2, 1)})), "must be ordered u < v"),
        (lambda: SystemSpec(bag_of(3, [1, 2]), 1), "normalize first"),
        (lambda: make_spec(), "exactly one of bag/graph"),
        (lambda: Graph.from_edges(0, []), "process count must be >= 1, got 0"),
        (lambda: Graph.from_edges(3, [(1, 2, 3)]), r"^edge \(1, 2, 3\) is not a pair of endpoints$"),
        (lambda: Graph.from_edges(3, [(1, 2), 5]), "^edge 5 is not a pair of endpoints$"),
        (lambda: bag_of(3, 5), "^set S_1 is 5, not a collection of process ids$"),
        (lambda: bag_of(3, [1], [[2]]), r"^set S_2 is \[\[2\]\], not a collection of process ids$"),
    ],
    ids=[
        "no-processes", "edge-outside", "edge-unordered", "uncovered-spec", "neither-bag-nor-graph", "graph-no-processes",
        "edge-triple", "edge-not-iterable", "set-not-iterable", "set-unhashable-member",
    ],
)
def test_bad_model_input_raises(build, message):
    with pytest.raises(ModelError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph.from_edges(True, []), "process count must be an integer, got True"),
        (lambda: Bag(2.5, ()), "process count must be an integer, got 2.5"),
        (lambda: bag_of(3, [True, 2]), r"set S_1 mentions non-integer processes: \[True\]"),
        (lambda: bag_of(3, [1, "a"]), r"set S_1 mentions non-integer processes: \['a'\]"),
        (lambda: Graph.from_edges(3, [(1, "a")]), r"edge \(1,'a'\) has an endpoint that is not an integer"),
        (lambda: Graph.from_edges(3, [(True, 1)]), r"edge \(True,1\) has an endpoint that is not an integer"),
        (lambda: make_spec(bag=bag_of(3, [1, 2]), writer=True), "writer True is not an integer"),
        (lambda: make_spec(bag=bag_of(3, [1, 2]), writer=1.0), "writer 1.0 is not an integer"),
    ],
    ids=["graph-bool-n", "bag-float-n", "bool-member", "str-member", "str-endpoint", "bool-endpoint", "bool-writer", "float-writer"],
)
def test_non_integer_model_input_raises(build, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        build()


class TestSpecFiles:
    def test_bag_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 5, "bag": [[1], [2], [3], [4], [5]], "writer": 1}')
        assert load_spec(path) == make_spec(bag=bag_of(5, [1], [2], [3], [4], [5]), writer=1)

    def test_graph_round_trip(self, tmp_path, fig1_graph):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [3, 5], [4, 5]], "writer": 1}')
        assert load_spec(path) == make_spec(graph=fig1_graph, writer=1)

    def test_uncovered_bag_normalized_on_load(self):
        spec = spec_from_dict({"n": 3, "bag": [[1, 2]], "writer": 1})
        assert [sorted(s) for s in spec.bag.sets] == [[1, 2], [3]]

    def test_rejects_both_bag_and_edges(self):
        with pytest.raises(ModelError):
            spec_from_dict({"n": 2, "bag": [[1]], "edges": [[1, 2]], "writer": 1})

    def test_rejects_neither(self):
        with pytest.raises(ModelError):
            spec_from_dict({"n": 2, "writer": 1})
