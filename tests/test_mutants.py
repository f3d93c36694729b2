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

The phase rule of ROADMAP item 1, stage 1, differs in its read phases:
each delivers only the messages sent during that phase between side
members, W included, so a read's write-back completes inside its side
and messages of earlier phases stay withheld.  Under it, every ordered
pair of distinct readers and every side of at least n - t processes
that holds its reader are enumerated, on the two systems above and on
two n = 5 systems: the real protocol completes both reads cleanly on
each, and each mutant breaks atomicity on some.  Naive fast dies only
where t > (n - 1) // 2: at or below it any two quorums of n - t
processes intersect, and a process in both reports to the later read
at least the sn it reported to the earlier one, since it scans the
same monotone registers for both.
"""

from itertools import combinations, permutations

import pytest

from mmreg import Graph, Simulator, WorkloadOp, bag_of, check_all, make_spec, protocol
from mmreg.protocol import W
from protocol_mutants import MUTANTS


def fire_while(sim, allowed) -> None:
    """Apply the first enabled event that `allowed(kind, x)` admits,
    until there is none."""
    while ev := next((ev for ev in sim.enabled() if allowed(*ev)), None):
        sim.apply(ev)


def side_schedule(spec, t, reads, phase_sends_only=False) -> Simulator:
    """Run write(p1) and then one read per (reader, side) of `reads`,
    each phase as the module docstring says: by the fixed schedule's
    rule, or, with `phase_sends_only`, by stage 1's."""
    sim = Simulator(spec, t, [WorkloadOp("write", 1, "a"), *(WorkloadOp("read", p) for p, _ in reads)])

    def own_write(kind, x):
        if kind == "deliver":
            msg = sim.network[x]
            return msg.kind == W and msg.sender == msg.dest == 1
        return x == (0 if kind == "invoke" else 1)

    fire_while(sim, own_write)
    for op, (_, side) in enumerate(reads, 1):

        def inside(kind, x, op=op, side=side, earlier=set(sim.network)):  # earlier: ids sent before this phase
            if kind == "deliver":
                msg = sim.network[x]
                allowed = x not in earlier if phase_sends_only else msg.kind != W
                return allowed and msg.sender in side and msg.dest in side
            return x == op if kind == "invoke" else x in side

        fire_while(sim, inside)
    return sim


# (system, t, the reads as (reader, side)): n = 3 with singleton sets
# at t = 1, and the edge bag of the 4-path at t = 2 = t_L.
SYSTEMS = {
    "singletons-3": (make_spec(bag=bag_of(3, [1], [2], [3]), writer=1), 1, ((2, {1, 2}), (3, {2, 3}))),
    "path-4-edges": (make_spec(bag=bag_of(4, [1, 2], [2, 3], [3, 4]), writer=1), 2, ((2, {1, 2}), (3, {3, 4}))),
}


# (system, t, the readers) of the stage-1 search: the two systems above
# with their two readers, the n = 5 edges of a path plus {1} and {5} at
# t = 2 = t_L, and the README's uniform system of the Fig. 1 graph at
# t = 3 = t_L; at n = 5 every process but the writer is a reader.
STAGE_ONE = {
    **{system: (spec, t, tuple(reader for reader, _ in reads)) for system, (spec, t, reads) in SYSTEMS.items()},
    "path-5-edges-ends": (make_spec(bag=bag_of(5, [1, 2], [2, 3], [3, 4], [4, 5], [1], [5]), writer=1), 2, (2, 3, 4, 5)),
    "readme-fig1": (make_spec(graph=Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)]), writer=1), 3, (2, 3, 4, 5)),
}


def violations(sim):
    verdict = check_all(sim.trace, props=("1", "2", "mono"))
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


def sides(n, t, reader):
    """Every set of at least n - t of the processes 1..n that holds
    `reader`."""
    others = [p for p in range(1, n + 1) if p != reader]
    return [{reader, *rest} for k in range(n - t - 1, n) for rest in combinations(others, k)]


def stage_one(system):
    """(reads, sim) for each stage-1 schedule of `system`: every ordered
    pair of distinct readers, and every side for each."""
    spec, t, readers = STAGE_ONE[system]
    for first, second in permutations(readers, 2):
        for side1 in sides(spec.n, t, first):
            for side2 in sides(spec.n, t, second):
                reads = ((first, side1), (second, side2))
                yield reads, side_schedule(spec, t, reads, phase_sends_only=True)


def test_stage_one_sides_complete_both_reads_cleanly():
    """Under the real protocol, each stage-1 schedule completes both
    reads, write-backs included, and breaks no property: 18 schedules
    on the n = 3 singletons at t = 1, 98 on the 4-path edge bag at t = 2,
    1452 on the n = 5 path edges plus {1}, {5} at t = 2 and 2700 on the
    README system at t = 3."""
    count = 0
    for system in STAGE_ONE:
        for reads, sim in stage_one(system):
            count += 1
            assert {r[3] for r in sim.records if r[1] == "respond"} == {1, 2}, reads
            assert violations(sim) == [], reads
    assert count == 18 + 98 + 1452 + 2700


@pytest.mark.parametrize(
    "mutant, kills",
    [
        ("no-write-back", {"singletons-3": 4, "path-4-edges": 7, "path-5-edges-ends": 93, "readme-fig1": 88}),
        # Naive fast survives where t <= (n - 1) // 2, on the singletons
        # and on the n = 5 path edges plus ends, because two quorums of
        # n - t intersect there (module docstring).
        ("naive-fast", {"singletons-3": 0, "path-4-edges": 4, "path-5-edges-ends": 0, "readme-fig1": 64}),
    ],
)
def test_stage_one_sides_kill_each_mutant(monkeypatch, mutant, kills):
    """Each mutant breaks atomicity on at least one stage-1 schedule,
    always as Property 2 on ops (1, 2): the second read returns an
    older value than the first.  The killing schedules are counted by
    system."""
    monkeypatch.setattr(protocol, "_read", MUTANTS[mutant])
    found = dict.fromkeys(STAGE_ONE, 0)
    for system in STAGE_ONE:
        for reads, sim in stage_one(system):
            if broken := violations(sim):
                assert broken == [("P2", (1, 2))], reads
                found[system] += 1
    assert found == kills
