"""Adversarial schedule showing the tolerance threshold is tight.

For any crash budget t above the threshold there is a partition
(P, P', Q) of the processes with |P| = |P'| = n - t such that P and P'
share no register pool.  Running the protocol with the correspondingly
smaller ack quorum n - t, an adversary can then:

  phase 1: let the writer (in P) complete a write using acks from P
           alone, withholding every message to P' and Q;
  phase 2: let a reader in P' complete a read using acks from P' alone,
           withholding everything from P and Q;
  phase 3: release all withheld messages and drain to quiescence.

No process ever crashes, yet the read returns the initial value after
the write completed: a certified atomicity violation, from delay alone.

The construction needs only the witness search and the simulator's event
surface; it never computes the threshold itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .checker import check_property1
from .model import Bag, SystemSpec
from .sim import Schedule, Simulator, WorkloadOp
from .tolerance import reach_masks, require_covered, smallest_failing_pair, verify_witness
from .trace import crashed_from_trace, history_from_trace, register_writes, schedule_from_trace

PAYLOAD = "v-new"  # the value the adversarial write stores


class LowerBoundError(ValueError):
    """The requested construction does not exist or cannot be scripted."""


@dataclass(frozen=True)
class WitnessPartition:
    """Disjoint P, P', Q covering the process set; no sharing set meets
    both P and P'."""

    p_side: tuple[int, ...]
    p_prime: tuple[int, ...]
    q_side: tuple[int, ...]

    def swapped(self) -> "WitnessPartition":
        return WitnessPartition(self.p_prime, self.p_side, self.q_side)


def find_witness(bag: Bag, t: int) -> WitnessPartition:
    """The lexicographically smallest witness that t crashes break the
    system.  Requires t above the threshold: a failing pair of size n-t
    exists exactly when t > t_L, so one witness search decides both."""
    require_covered(bag)
    if t > bag.n - 1:
        raise LowerBoundError(f"t={t} needs witness sides of size >= 1, so t <= n-1={bag.n - 1}")
    pair = smallest_failing_pair(bag.n, reach_masks(bag.n, bag.masks()), bag.n - t)
    if pair is None:
        raise LowerBoundError(
            f"t={t} <= t_L: every two disjoint sides of size n-t={bag.n - t} share a set, "
            "so the system tolerates this many crashes"
        )
    left, right = pair
    q = tuple(sorted(set(range(1, bag.n + 1)) - set(left) - set(right)))
    return WitnessPartition(left, right, q)


@dataclass
class E3Run:
    """One executed adversarial run plus its replayable schedule; the
    workload is `sim.workload`."""

    schedule: Schedule
    sim: Simulator
    reader: int
    phase2_end: int


def build_e3(spec: SystemSpec, t: int, witness: WitnessPartition) -> E3Run:
    """Script and execute the three-phase adversarial run.

    The writer must lie in P (it has to reach its quorum inside P), and
    each side must have exactly n - t members.
    """
    p_set = set(witness.p_side)
    pp_set = set(witness.p_prime)
    if len(p_set) != spec.n - t or len(pp_set) != spec.n - t:
        raise LowerBoundError(f"witness sides must have size n-t={spec.n - t}")
    if not verify_witness(spec.bag, t - 1, (witness.p_side, witness.p_prime)):
        raise LowerBoundError("invalid witness: sides intersect or share a register pool")
    if spec.writer not in p_set:
        raise LowerBoundError(f"writer p{spec.writer} must belong to the witness side P")
    reader = min(pp_set)

    sim = Simulator(spec, t, [WorkloadOp("write", spec.writer, PAYLOAD, 0), WorkloadOp("read", reader, None, 0)])

    def drain(allowed, done):
        while not done():
            ev = next((e for e in sim.enabled() if allowed(e)), None)
            if ev is None:
                raise LowerBoundError("construction stuck: no permitted event is enabled")
            sim.apply(ev)

    def inside(side, ev):
        if ev[0] == "hstep":
            return ev[1] in side
        if ev[0] == "deliver":
            msg = sim.network[ev[1]]
            return msg.sender in side and msg.dest in side
        return False

    # Phase 1: the write completes inside P.
    drain(
        lambda ev: ev == ("invoke", 0) or inside(p_set, ev),
        lambda: sim.ops[0].response_step is not None,
    )

    # Phase 2: the read completes inside P'.
    drain(
        lambda ev: ev == ("invoke", 1) or inside(pp_set, ev),
        lambda: sim.ops[1].response_step is not None,
    )
    phase2_end = sim.step

    # Phase 3: release everything, deterministically, to quiescence.
    sim.run(Schedule("fifo"))

    schedule = Schedule("scripted", script=schedule_from_trace(sim.trace))
    return E3Run(schedule, sim, reader, phase2_end)


def isolation_holds(run: E3Run, witness: WitnessPartition) -> bool:
    """During phases 1-2, no register readable by P' is written by a P
    process."""
    p_set = set(witness.p_side)
    readable_by_pp = set()
    for p in witness.p_prime:
        readable_by_pp.update(run.sim.spec.readable_registers(p))
    for step, actor, reg, _ in register_writes(run.sim.trace):
        if step >= run.phase2_end:
            break
        if actor in p_set and reg in readable_by_pp:
            return False
    return True


def demo(spec: SystemSpec, t: int) -> dict:
    """End-to-end pipeline: witness, adversarial run, certified verdict.

    If the spec's writer lies outside both witness sides, the run uses
    the smallest member of P as writer (the impossibility holds for
    some writer, not every writer); the report names the writer used.
    """
    witness = find_witness(spec.bag, t)
    if spec.writer in witness.p_prime:
        witness = witness.swapped()
    elif spec.writer not in witness.p_side:
        spec = replace(spec, writer=min(witness.p_side))
    run = build_e3(spec, t, witness)
    history = history_from_trace(run.sim.trace)
    verdict = check_property1(history)

    write, read = history  # ops 0 and 1, both invoked by the construction
    certified = (
        not verdict.ok
        and write["response"] is not None
        and read["response"] is not None
        and write["response"] < read["invoke"]
        and read["value"][0] == 0
    )
    no_crashes = not crashed_from_trace(run.sim.trace)

    return {
        "n": spec.n,
        "t": t,
        "writer": spec.writer,
        "reader": run.reader,
        "witness": {
            "P": list(witness.p_side),
            "P_prime": list(witness.p_prime),
            "Q": list(witness.q_side),
        },
        "violation_certified": certified,
        "no_crashes": no_crashes,
        "isolation_ok": isolation_holds(run, witness),
        "violations": verdict.as_dicts(),
        "history": history,
        "trace": run.sim.trace,
    }
