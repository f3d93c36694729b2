"""Every small system, and three graph families past the exhaustive
limit.

The census takes every labelled graph on n <= 5 processes (1099 graphs)
and builds two systems from each: its uniform system, one set per
process holding the process and its neighbours, and the bag of its
edges plus a singleton per process.  On each system the two threshold
routes agree, the witness verifies, and the lower-bound run certifies a
violation one crash above the threshold.  The families hold `t_bridge`
to closed forms on uniform systems up to BRIDGE_LIMIT."""

from itertools import combinations

import pytest

from mmreg import Graph, bag_of, demo, make_spec, t_bridge, t_direct, t_uniform, verify_witness
from mmreg.tolerance import BRIDGE_LIMIT


def graphs(n: int):
    """Every labelled graph on processes 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])


def check_system(spec) -> int:
    """Hold one system to the census's checks, and return its threshold."""
    res = t_bridge(spec.bag)
    assert t_direct(spec.bag) == res, spec.bag
    if res.t == spec.n - 1:
        assert res.witness is None
    else:
        assert verify_witness(spec.bag, res.t, res.witness), spec.bag
        report = demo(spec, res.t + 1)
        assert report["violation_certified"] and report["no_crashes"] and report["isolation_ok"], spec.bag
    return res.t


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_graph(n):
    count = 0
    for g in graphs(n):
        count += 1
        assert t_uniform(g).t == check_system(make_spec(graph=g)), g
        check_system(make_spec(bag=bag_of(n, *g.edges)))
    assert count == 2 ** (n * (n - 1) // 2)


# In a uniform system two processes share a set iff they are at distance
# at most 2 in the graph, so a pair of unbridged sides is a pair of sides
# at distance >= 3, and t = n - 1 - s* for the largest such equal sides s*.
FAMILIES = {
    # A prefix and a suffix with two processes between them: s* = (n - 2) // 2.
    "path": (lambda n: [(p, p + 1) for p in range(1, n)], lambda n: (n + 1) // 2),
    # Two arcs, each at least two processes long, between the sides: s* = max(0, (n - 4) // 2).
    "cycle": (lambda n: [(p, p % n + 1) for p in range(1, n + 1)], lambda n: min(n - 1, (n + 3) // 2)),
    # Every two processes are within distance 2 of each other through the hub: s* = 0.
    "star": (lambda n: [(1, p) for p in range(2, n + 1)], lambda n: n - 1),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_graph_family_closed_form(family):
    edges, t = FAMILIES[family]
    for n in range(3, BRIDGE_LIMIT + 1):
        spec = make_spec(graph=Graph.from_edges(n, edges(n)))
        res = t_bridge(spec.bag)
        assert res.t == t(n), (family, n)
        assert res.witness is None if res.t == n - 1 else verify_witness(spec.bag, res.t, res.witness)
