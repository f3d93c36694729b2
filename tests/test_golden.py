"""Golden digests: pinned outputs that any change to the scheduler, the
fuzz driver, the threshold search or the adversarial run must keep byte
for byte.

The acceptance gate's determinism criterion compares repeated runs in
one process, so a change that alters every run alike would still pass
it.  These values were computed before the witness search became
linear and have not changed since; the e3 digests were computed while
build_e3 still kept its own copy of the script.  A deliberate change of
output must update them and say so in CHANGES.md.
"""

import hashlib
import json
import random
from dataclasses import replace

from mmreg import (
    Bag,
    Graph,
    Schedule,
    bag_of,
    build_e3,
    demo,
    induce_uniform,
    make_spec,
    normalize_bag,
    run_simulation,
    schedule_from_trace,
    t_bridge,
)
from mmreg.cli import fuzz
from mmreg.sim import WorkloadOp
from mmreg.trace import trace_lines
from test_acceptance import random_bag


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_spec():
    """The five-process system of the README: edges (1,2),(2,3),(3,4),(3,5)."""
    return make_spec(bag=induce_uniform(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])), writer=1)


# The systems, seeds and workload of acceptance criterion 8.
CRITERION_8 = [
    (readme_spec, 77, "33a7526de3965d790f01186f9defd256df9e7e2d444c94bbeaa5df622ac6f399"),
    (lambda: make_spec(bag=normalize_bag(Bag(5, ())), writer=1), 3,
     "95cb5dcb5895f83a71bc9232d451a4ed855fda25802f864b9cf403ad732ad63f"),
    (lambda: make_spec(bag=bag_of(4, [1, 2, 3, 4]), writer=1), 12345,
     "3a687908edad9206792525e4b3a3484751b0c9b4d4a8f0d0ed86db46f1fdf6ff"),
]
CRITERION_8_WORKLOAD = [
    WorkloadOp("write", 1, "a", 0),
    WorkloadOp("read", 2, None, 10),
    WorkloadOp("write", 1, "b", 40),
    WorkloadOp("read", 3, None, 60),
]

FUZZ_SHA256 = "d54d657ad4956025cc3585541cad747841b33d359331be00a01a1eba130edac5"

# (n, t, witness) of t_bridge on the corpus built by bridge_corpus().
BRIDGE_RESULTS = [
    (8, 4, ((2, 3, 4), (5, 6, 8))),
    (9, 5, ((1, 3, 5), (4, 6, 9))),
    (10, 5, ((1, 2, 3, 5), (4, 6, 7, 8))),
    (11, 6, ((3, 7, 9, 11), (4, 5, 6, 8))),
    (12, 7, ((1, 2, 5, 7), (4, 9, 10, 12))),
    (13, 7, ((1, 4, 5, 6, 9), (2, 3, 8, 11, 13))),
    (14, 8, ((1, 2, 3, 13, 14), (5, 6, 9, 10, 12))),
    (8, 5, ((1, 2), (5, 7))),
    (9, 5, ((1, 4, 7), (2, 3, 5))),
    (10, 5, ((1, 4, 5, 8), (2, 3, 9, 10))),
    (11, 7, ((1, 4, 10), (2, 7, 9))),
    (12, 7, ((1, 2, 3, 12), (4, 6, 9, 11))),
    (13, 8, ((1, 2, 3, 8), (6, 7, 9, 10))),
    (14, 9, ((1, 2, 3, 12), (4, 5, 7, 8))),
    (8, 5, ((1, 2), (3, 5))),
    (9, 6, ((1, 5), (4, 9))),
    (10, 6, ((1, 7, 9), (4, 5, 6))),
    (11, 6, ((1, 2, 3, 6), (4, 5, 7, 9))),
    (12, 7, ((2, 3, 4, 9), (5, 7, 11, 12))),
    (13, 7, ((1, 6, 8, 9, 12), (2, 3, 4, 5, 11))),
]


# The e3 script and trace lines of the adversarial run: for the README
# system at t=4, and for every (bag, t) case of acceptance criterion 6.
E3_README_SHA256 = "4ffa6e5e55ee47c96dffa79b5faf3a6ed0d0b15b0d39ac34f07add8ad4b76faf"
E3_CRITERION_6_SHA256 = "27aa8efa0db2c4bd43ebb9b1fc96f3bfa207e6484a996135364fbbd549814a46"


def bridge_corpus():
    """20 bags at n = 8..14 in turn, each of n sets of 1 to 4 processes."""
    rng = random.Random(20190601)
    bags = []
    for i in range(20):
        n = 8 + i % 7
        sets = [rng.sample(range(1, n + 1), rng.randint(1, 4)) for _ in range(n)]
        bags.append(normalize_bag(bag_of(n, *sets)))
    return bags


def test_criterion_8_traces():
    for make, seed, digest in CRITERION_8:
        spec = make()
        sim = run_simulation(spec, t_bridge(spec.bag).t, CRITERION_8_WORKLOAD, Schedule("fair", seed=seed))
        assert sha256("\n".join(trace_lines(sim.trace)).encode()) == digest, seed


def test_fuzz_summary():
    summary = fuzz(readme_spec(), runs=200, base_seed=31)
    assert sha256(json.dumps(summary, sort_keys=True).encode()) == FUZZ_SHA256


def test_bridge_thresholds_and_witnesses():
    got = []
    for bag in bridge_corpus():
        res = t_bridge(bag)
        got.append((bag.n, res.t, res.witness))
    assert got == BRIDGE_RESULTS


def e3_lines(spec, t):
    """The script and the trace lines of demo(spec, t)'s adversarial run,
    rebuilt with the writer and the witness that the report names."""
    report = demo(spec, t)
    w = report["witness"]
    sim = build_e3(replace(spec, writer=report["writer"]), t, (tuple(w["P"]), tuple(w["P_prime"])))
    return [json.dumps(schedule_from_trace(sim.trace))] + trace_lines(sim.trace)


def test_e3_readme_system():
    assert sha256("\n".join(e3_lines(readme_spec(), 4)).encode()) == E3_README_SHA256


def test_e3_criterion_6_corpus():
    rng = random.Random(4242)
    lines = []
    for bag in [random_bag(rng, max_n=7) for _ in range(50)]:
        spec = make_spec(bag=bag, writer=1)
        for t in range(t_bridge(bag).t + 1, bag.n):
            lines += e3_lines(spec, t)
    assert sha256("\n".join(lines).encode()) == E3_CRITERION_6_SHA256
