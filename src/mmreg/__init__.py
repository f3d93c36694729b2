"""Atomic single-writer multi-reader register emulation for
message-and-memory systems: topology model, exact crash-tolerance
thresholds, the quorum protocol, a deterministic simulator, an
atomicity checker, and the matching impossibility construction."""

from .model import (
    Bag,
    Graph,
    ModelError,
    SystemSpec,
    bag_of,
    graph_square,
    induce_uniform,
    load_spec,
    make_spec,
    normalize_bag,
)
from .protocol import INITIAL_VALUE, Message, ProcessCore, ProtocolError, TaggedValue, max_tagged
from .tolerance import (
    ToleranceError,
    ToleranceResult,
    lower_bound_floor,
    t_bridge,
    t_direct,
    t_uniform,
    verify_witness,
)
from .sim import Schedule, SimError, Simulator, WorkloadOp, run_simulation
from .trace import emit_trace, history_from_trace, load_trace, schedule_from_trace
from .checker import (
    Verdict,
    Violation,
    check_all,
    check_completion,
    check_monotonicity,
    check_property1,
    check_property2,
)
from .lowerbound import (
    LowerBoundError,
    build_e3,
    demo,
    find_witness,
    isolation_holds,
)

__all__ = [
    "Bag",
    "Graph",
    "ModelError",
    "SystemSpec",
    "bag_of",
    "graph_square",
    "induce_uniform",
    "load_spec",
    "make_spec",
    "normalize_bag",
    "INITIAL_VALUE",
    "Message",
    "ProcessCore",
    "ProtocolError",
    "TaggedValue",
    "max_tagged",
    "ToleranceError",
    "ToleranceResult",
    "lower_bound_floor",
    "t_bridge",
    "t_direct",
    "t_uniform",
    "verify_witness",
    "Schedule",
    "SimError",
    "Simulator",
    "WorkloadOp",
    "emit_trace",
    "history_from_trace",
    "load_trace",
    "run_simulation",
    "schedule_from_trace",
    "Verdict",
    "Violation",
    "check_all",
    "check_completion",
    "check_monotonicity",
    "check_property1",
    "check_property2",
    "LowerBoundError",
    "build_e3",
    "demo",
    "find_witness",
    "isolation_holds",
]
