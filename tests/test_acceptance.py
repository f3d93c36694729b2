"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and fails loudly if its guarantee (or time budget) is missed.  All
corpora are built from fixed seeds so the gate is reproducible.
"""

import random
import time
from itertools import combinations

import fixtures as fx
from mmreg import (
    Bag,
    Graph,
    Schedule,
    bag_of,
    check_completion,
    check_monotonicity,
    check_property1,
    check_property2,
    demo,
    induce_uniform,
    lower_bound_floor,
    make_spec,
    normalize_bag,
    run_simulation,
    t_bridge,
    t_direct,
    t_uniform,
)
from mmreg.cli import fuzz
from mmreg.sim import WorkloadOp
from mmreg.trace import trace_lines


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def exhaustive_t(bag):
    """Quantifier-definition oracle, shared with nothing in the library."""
    procs = list(range(1, bag.n + 1))

    def holds(t):
        size = bag.n - t
        if size == 0:
            return False
        subs = list(combinations(procs, size))
        for a in subs:
            for b in subs:
                if set(a) & set(b):
                    continue
                if not any(s & set(a) and s & set(b) for s in bag.sets):
                    return False
        return True

    t = 0
    while holds(t + 1):
        t += 1
    return t


def random_bag(rng, max_n=9):
    n = rng.randint(1, max_n)
    sets = []
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, n)
        sets.append(rng.sample(range(1, n + 1), size))
    return normalize_bag(bag_of(n, *sets))


def random_graph(rng, max_n=9):
    n = rng.randint(1, max_n)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < 0.3:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def test_criterion_1_threshold_exactness():
    start = time.perf_counter()
    rng = random.Random(20260823)
    bags = [random_bag(rng) for _ in range(500)]
    ok = all(t_direct(b).t == t_bridge(b).t == exhaustive_t(b) for b in bags)
    elapsed = time.perf_counter() - start
    report(1, "threshold exactness, 500 bags", ok and elapsed < 120)


def test_criterion_2_uniform_equals_induced():
    rng = random.Random(7052)
    graphs = [random_graph(rng) for _ in range(300)]
    ok = all(t_uniform(g).t == t_direct(induce_uniform(g)).t for g in graphs)
    report(2, "uniform threshold equals induced-bag threshold, 300 graphs", ok)


def test_criterion_3_floor_bound():
    rng = random.Random(20260823)
    instances = [random_bag(rng) for _ in range(500)]
    rng = random.Random(7052)
    instances += [induce_uniform(random_graph(rng)) for _ in range(300)]
    floor_ok = all(t_bridge(b).t >= lower_bound_floor(b.n) for b in instances)
    majority_ok = all(
        t_bridge(normalize_bag(Bag(n, ()))).t == lower_bound_floor(n)
        for n in range(1, 11)
    )
    report(3, "floor bound and pure-message-passing equality", floor_ok and majority_ok)


def test_criterion_4_worked_example():
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    bag = induce_uniform(g)
    res = t_direct(bag)
    ok = (
        res.t == 3 > 2 == lower_bound_floor(5)
        and res.witness == ((1,), (4,))
        and t_uniform(g).t == 3
    )
    report(4, "five-process worked example: t=3, witness ({p1},{p4})", ok)


def test_criterion_5_fuzz_suite():
    start = time.perf_counter()
    configs = [
        (make_spec(bag=induce_uniform(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])), writer=1), 3),
        (make_spec(bag=normalize_bag(Bag(5, ())), writer=1), 2),
        (make_spec(bag=bag_of(4, [1, 2, 3, 4]), writer=1), 3),
    ]
    ok = True
    for i, (spec, crashes) in enumerate(configs):
        summary = fuzz(spec, runs=1000, base_seed=1 + i, crashes=crashes)
        ok = ok and not summary["violations"] and summary["starved"] == 0
    elapsed = time.perf_counter() - start
    report(5, "3x1000 seeded crash runs, zero violations or starvation", ok and elapsed < 300)


def test_criterion_6_impossibility_demo():
    start = time.perf_counter()
    rng = random.Random(4242)
    corpus = [random_bag(rng, max_n=7) for _ in range(50)]
    checked = 0
    ok = True
    for bag in corpus:
        t_l = t_bridge(bag).t
        spec = make_spec(bag=bag, writer=1)
        for t in range(t_l + 1, bag.n):
            rep = demo(spec, t)
            ok = ok and rep["violation_certified"] and rep["no_crashes"] and rep["isolation_ok"]
            checked += 1
    elapsed = time.perf_counter() - start
    report(6, f"certified violation above threshold, {checked} (bag, t) cases", ok and checked > 0 and elapsed < 300)


def test_criterion_7_negative_controls():
    flagged = [
        not check_property1(fx.P1_BAD_INITIAL).ok,
        not check_property1(fx.P1_BAD_STALE).ok,
        not check_property2(fx.P2_BAD_ORDER).ok,
        not check_property2(fx.P2_BAD_INITIAL).ok,
        not check_monotonicity(fx.MONO_BAD_TRACE).ok,
        not check_completion(fx.LIVE_BAD_HISTORY, fx.LIVE_BAD_CRASHED).ok,
    ]
    passed = [
        check_property1(fx.P1_OK_INITIAL).ok,
        check_property1(fx.P1_OK_STALE).ok,
        check_property2(fx.P2_OK_ORDER).ok,
        check_property2(fx.P2_OK_CONCURRENT).ok,
        check_monotonicity(fx.MONO_OK_TRACE).ok,
        check_completion(fx.LIVE_OK_HISTORY, fx.LIVE_OK_CRASHED).ok,
    ]
    report(7, "6 violating histories flagged, 6 legal twins pass", all(flagged) and all(passed))


def test_criterion_8_determinism():
    pairs = [
        (make_spec(bag=induce_uniform(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])), writer=1), 77),
        (make_spec(bag=normalize_bag(Bag(5, ())), writer=1), 3),
        (make_spec(bag=bag_of(4, [1, 2, 3, 4]), writer=1), 12345),
    ]
    wl = [
        WorkloadOp("write", 1, "a", 0),
        WorkloadOp("read", 2, None, 10),
        WorkloadOp("write", 1, "b", 40),
        WorkloadOp("read", 3, None, 60),
    ]
    ok = True
    for spec, seed in pairs:
        t = t_bridge(spec.bag).t
        runs = [
            "\n".join(trace_lines(run_simulation(spec, t, wl, Schedule("fair", seed=seed)).trace)).encode()
            for _ in range(3)
        ]
        ok = ok and runs[0] == runs[1] == runs[2]
    report(8, "byte-identical traces across 3 repeated runs", ok)
