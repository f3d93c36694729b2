"""Adversarial schedule showing the tolerance threshold is tight.

For any crash budget t above the threshold there are two disjoint sides
P and P' of n - t processes each that share no register pool, a
`tolerance.Witness` pair; at t = t_L + 1 it is `t_bridge`'s witness.
Q is every other process.  Running the protocol with the correspondingly
smaller ack quorum n - t, an adversary can then:

  phase 1: let the writer (in P) complete a write using acks from P
           alone, withholding every message to P' and Q;
  phase 2: let a reader in P' complete a read using acks from P' alone,
           withholding everything from P and Q;
  phase 3: release all withheld messages and run to quiescence.

Each step of phases 1-2 is `Simulator.step_within(op, side)`: it fires
the first enabled event, in `enabled()` order, that stays inside the
op's side (the op's own invocation, a handler step of a side member, or
a delivery between two side members), and the phase ends when the op
responds.  Phase 3 is the deterministic fifo schedule.

No process ever crashes, yet the read returns the initial value after
the write completed: a certified atomicity violation, from delay alone.

The construction needs only the witness search and the simulator's
public methods; it never computes the threshold itself, and it keeps no
types of its own: `build_e3` returns the `Simulator` it ran.
"""

from __future__ import annotations

from dataclasses import replace

from .checker import check_property1
from .model import Bag, SystemSpec
from .sim import Schedule, Simulator, WorkloadOp
from .tolerance import Witness, reach_masks, require_covered, smallest_failing_pair, verify_witness
from .trace import project, register_writes

PAYLOAD = "v-new"  # the value the adversarial write stores


class LowerBoundError(ValueError):
    """The requested construction does not exist or cannot be scripted."""


def _require_int(t) -> None:
    if type(t) is not int:  # bool is an int subclass
        raise LowerBoundError(f"t={t!r} is not an integer")


def find_witness(bag: Bag, t: int) -> Witness:
    """The lexicographically smallest witness (P, P') that t crashes
    break the system, as `smallest_failing_pair` returns it; at
    t = t_L + 1 it equals `t_bridge(bag).witness`.  Requires an int t
    above the threshold: a failing pair of size n-t exists exactly when
    t > t_L, so one witness search decides both."""
    require_covered(bag)
    _require_int(t)
    if t < 0:
        raise LowerBoundError(f"t={t} is negative: a crash budget must be >= 0")
    if t > bag.n - 1:
        raise LowerBoundError(f"t={t} needs witness sides of size >= 1, so t <= n-1={bag.n - 1}")
    pair = smallest_failing_pair(bag.n, reach_masks(bag.n, bag.masks()), bag.n - t)
    if pair is None:
        raise LowerBoundError(
            f"t={t} <= t_L: every two disjoint sides of size n-t={bag.n - t} share a set, "
            "so the system tolerates this many crashes"
        )
    return pair


def build_e3(spec: SystemSpec, t: int, witness: Witness) -> Simulator:
    """Script and execute the three-phase adversarial run on the witness
    (P, P') and return the simulator that ran it.

    The writer must lie in P (it has to reach its quorum inside P), and
    the reader, op 1 of `sim.workload`, is the smallest member of P'.
    """
    _require_int(t)
    if not verify_witness(spec.bag, t - 1, witness):
        raise LowerBoundError(
            f"invalid witness: it must be a pair of disjoint sides of size n-t={spec.n - t}, within 1..{spec.n}, that share no set"
        )
    p_set, pp_set = set(witness[0]), set(witness[1])
    if spec.writer not in p_set:
        raise LowerBoundError(f"writer p{spec.writer} must belong to the witness side P")

    sim = Simulator(spec, t, [WorkloadOp("write", spec.writer, PAYLOAD, 0), WorkloadOp("read", min(pp_set), None, 0)])

    # Phases 1-2: the write completes inside P, then the read inside P'.
    for op, side in ((0, p_set), (1, pp_set)):
        while sim.ops[op].response_step is None:
            if not sim.step_within(op, side):
                raise LowerBoundError("construction stuck: no permitted event is enabled")

    # Phase 3: release everything, deterministically, to quiescence.
    return sim.run(Schedule("fifo"))


def isolation_holds(sim: Simulator, witness: Witness) -> bool:
    """During phases 1-2 of `build_e3`'s run, which end when the read
    (op 1) responds, no register readable by P' is written by a P
    process."""
    p_set = set(witness[0])
    readable_by_pp = set()
    for p in witness[1]:
        readable_by_pp.update(sim.spec.readable_registers(p))
    # build_e3's run has no idle tick, so event i is step i.
    for _, actor, reg, _ in register_writes(sim.trace[: sim.ops[1].response_step]):
        if actor in p_set and reg in readable_by_pp:
            return False
    return True


def demo(spec: SystemSpec, t: int) -> dict:
    """End-to-end pipeline: witness, adversarial run, certified verdict.

    If the spec's writer lies outside both witness sides, the run uses
    the smallest member of P as writer (the impossibility holds for
    some writer, not every writer); the report names the writer used.
    """
    p_side, p_prime = find_witness(spec.bag, t)
    if spec.writer in p_prime:
        p_side, p_prime = p_prime, p_side
    elif spec.writer not in p_side:
        spec = replace(spec, writer=min(p_side))
    sim = build_e3(spec, t, (p_side, p_prime))
    history, _, crashed = project(sim.trace)
    verdict = check_property1(history)

    write, read = history  # ops 0 and 1, both invoked by the construction
    certified = (
        not verdict.ok
        and write["response"] is not None
        and read["response"] is not None
        and write["response"] < read["invoke"]
        and read["value"][0] == 0
    )
    no_crashes = not crashed

    return {
        "n": spec.n,
        "t": t,
        "writer": spec.writer,
        "reader": sim.workload[1].proc,
        "witness": {
            "P": list(p_side),
            "P_prime": list(p_prime),
            "Q": [q for q in range(1, spec.n + 1) if q not in p_side + p_prime],
        },
        "violation_certified": certified,
        "no_crashes": no_crashes,
        "isolation_ok": isolation_holds(sim, (p_side, p_prime)),
        "violations": verdict.as_dicts(),
        "history": history,
        "trace": sim.trace,
    }
