"""Side schedules kill the protocol mutants of `protocol_mutants`.

A side schedule runs the workload write(p1), read, read in three
phases, each firing the first event of `enabled()` that its phase
allows, through `apply`, until none is left:

1. the write: only p1's invocation, p1's W to itself and p1's handler
   steps;
2. the first read, inside its side: its invocation, handler steps of
   side members, and deliveries between side members that are not W;
3. the second read, likewise inside its own side.

No W but p1's own is ever delivered, so the write never completes, and
neither does a read's write-back.  Fair fuzz kills neither mutant on
these systems; the real protocol, withheld its write-back, stalls
without a violation.
"""

import pytest

from mmreg import Simulator, WorkloadOp, bag_of, check_all, make_spec, protocol
from mmreg.protocol import W
from mmreg.trace import project_records
from protocol_mutants import MUTANTS


def fire_while(sim, allowed) -> None:
    """Apply the first enabled event that `allowed(kind, x)` admits,
    until there is none."""
    while ev := next((ev for ev in sim.enabled() if allowed(*ev)), None):
        sim.apply(ev)


def side_schedule(spec, t, reads) -> Simulator:
    """Run write(p1) and then one read per (reader, side) of `reads`,
    each phase as the module docstring says."""
    sim = Simulator(spec, t, [WorkloadOp("write", 1, "a"), *(WorkloadOp("read", p) for p, _ in reads)])

    def own_write(kind, x):
        if kind == "deliver":
            msg = sim.network[x]
            return msg.kind == W and msg.sender == msg.dest == 1
        return x == (0 if kind == "invoke" else 1)

    fire_while(sim, own_write)
    for op, (_, side) in enumerate(reads, 1):

        def inside(kind, x, op=op, side=side):
            if kind == "deliver":
                msg = sim.network[x]
                return msg.kind != W and msg.sender in side and msg.dest in side
            return x == op if kind == "invoke" else x in side

        fire_while(sim, inside)
    return sim


# (system, t, the reads as (reader, side)): n = 3 with singleton sets
# at t = 1, and the edge bag of the 4-path at t = 2 = t_L.
SYSTEMS = {
    "singletons-3": (make_spec(bag=bag_of(3, [1], [2], [3]), writer=1), 1, ((2, {1, 2}), (3, {2, 3}))),
    "path-4-edges": (make_spec(bag=bag_of(4, [1, 2], [2, 3], [3, 4]), writer=1), 2, ((2, {1, 2}), (3, {3, 4}))),
}


def violations(sim):
    verdict = check_all(project_records(sim.records), props=("1", "2", "mono"))
    return [(v.prop, v.ops) for v in verdict.violations]


@pytest.mark.parametrize(
    "system, mutant, steps",
    [("singletons-3", "no-write-back", 39), ("path-4-edges", "no-write-back", 46), ("path-4-edges", "naive-fast", 46)],
)
def test_a_side_schedule_kills_the_mutant(monkeypatch, system, mutant, steps):
    """Both reads complete, and the second returns an older value than
    the first: Property 2 fails on ops (1, 2)."""
    spec, t, reads = SYSTEMS[system]
    monkeypatch.setattr(protocol, "_read", MUTANTS[mutant])
    sim = side_schedule(spec, t, reads)
    assert sim.step == steps
    assert violations(sim) == [("P2", (1, 2))]


@pytest.mark.parametrize("system, steps", [("singletons-3", 43), ("path-4-edges", 52)])
def test_the_real_protocol_stalls_clean_under_the_same_schedule(system, steps):
    """The first read's write-back W is withheld, so it never responds,
    and no property is broken."""
    spec, t, reads = SYSTEMS[system]
    sim = side_schedule(spec, t, reads)
    assert sim.step == steps
    assert violations(sim) == []
    assert {r[3] for r in sim.records if r[1] == "respond"} == set()  # neither the write nor a read
