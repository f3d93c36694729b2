"""Test-only oracle: the enabled events of a simulator, rebuilt from
scratch out of its process, queue and network state, as `Simulator`
computed them on every step before it kept incremental indexes.  The
differential tests in test_sim.py hold `enabled()`, `is_quiescent()`
and `apply` to exactly these answers, and the events the fair policy
fires to those `fair_chooser` draws."""

import random


def _ready_ops(sim) -> list[int]:
    """The next op index of each live idle process (no pending op, no
    scan) that has one."""
    return [
        q[0]
        for p, q in sim._queue.items()
        if q and p not in sim.crashed and sim.procs[p].pending is None and sim.procs[p].scan is None
    ]


def enabled(sim) -> list[tuple]:
    """Enabled events in a fixed deterministic order: workload
    invocations, then handler steps by process, then deliveries in
    send order."""
    evs: list[tuple] = [
        ("invoke", i) for i in sorted(_ready_ops(sim)) if sim.workload[i].at_step <= sim.step
    ]
    for p in range(1, sim.spec.n + 1):
        if p not in sim.crashed and sim.procs[p].scan is not None:
            evs.append(("hstep", p))
    for mid, msg in sim.network.items():
        if msg.dest not in sim.crashed and sim.procs[msg.dest].scan is None:
            evs.append(("deliver", mid))
    return evs


def future_invoke(sim):
    """Smallest at_step of an invocation that mere passage of logical
    time would enable, or None."""
    future = [sim.workload[i].at_step for i in _ready_ops(sim)]
    return min((s for s in future if s > sim.step), default=None)


def is_quiescent(sim) -> bool:
    return not enabled(sim) and future_invoke(sim) is None


def fair_chooser(sim, schedule):
    """The fair policy's chooser as `Simulator` first wrote it: aging
    first, then `rng.choice` over the enabled events, here this
    module's rebuild of them.  It returns the event it draws; the
    simulator's own chooser makes the same draw straight from its
    indexes and fires the event's transition itself."""
    rng = random.Random(schedule.seed)
    age_limit = sim.spec.n * sim.spec.n + 16

    def choose():
        if sim._deliverable:
            sent, _, _, mid, _ = sim.records[sim._deliverable[0]]  # its send record
            if sim.step - sent > age_limit:
                return ("deliver", mid)
        return rng.choice(enabled(sim))

    return choose
