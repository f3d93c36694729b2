"""Test-only oracle: `lowerbound.build_e3` with its phase rule stated
over the whole enabled list.  Each step of phases 1-2 rebuilds
`enabled()`, fires through `apply` the first event that stays inside
the op's side (`first_within`), and raises when none does.  The
differential tests hold `build_e3`'s trace to this one line for line
(test_lowerbound.py), and `Simulator.step_within` to `first_within` on
random runs (test_sim.py)."""

from mmreg import LowerBoundError, Schedule, Simulator, WorkloadOp
from mmreg.lowerbound import PAYLOAD


def first_within(sim, op: int, side):
    """The first event of `sim.enabled()` that stays inside `side`: op's
    invocation, a handler step of a side member, or a delivery whose
    sender and destination both lie in the side; None when there is none."""
    for ev in sim.enabled():
        kind, x = ev
        if (
            kind == "invoke" and x == op
            or kind == "hstep" and x in side
            or kind == "deliver" and {sim.network[x].sender, sim.network[x].dest} <= side
        ):
            return ev
    return None


def build_e3(spec, t, witness) -> Simulator:
    """The three-phase run on a valid witness (P, P') whose side P holds
    the writer; the reader is the smallest member of P'."""
    p_set, pp_set = set(witness[0]), set(witness[1])
    sim = Simulator(spec, t, [WorkloadOp("write", spec.writer, PAYLOAD, 0), WorkloadOp("read", min(pp_set), None, 0)])
    for op, side in ((0, p_set), (1, pp_set)):
        while sim.ops[op].response_step is None:
            ev = first_within(sim, op, side)
            if ev is None:
                raise LowerBoundError("construction stuck: no permitted event is enabled")
            sim.apply(ev)
    return sim.run(Schedule("fifo"))
