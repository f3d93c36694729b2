"""The register emulation protocol, its runs held as plain records.

Every process runs the same four: the writer's fan-out write, the read
with write-back, and the two message handlers that touch the shared
registers.  An operation is an `Op`, the round it waits on, which
`ProcessCore.deliver` completes at quorum or turns from a read into its
write-back, as `_write_back` says.  A handler is a `Scan` of its
process's registers that the simulator steps, each access its own
atomic step.

A process sends W/R messages to itself through the network like to
anyone else, so quorum counting is uniform.  The W handler is the same
whether the fan-out came from the writer or from a reader writing back:
it replies to the actual sender.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

W = "W"
ACK_W = "ACK-W"
R = "R"
ACK_R = "ACK-R"


class ProtocolError(Exception):
    """Protocol misuse or a broken single-writer invariant."""


class TaggedValue(NamedTuple):
    sn: int
    payload: str | None


INITIAL_VALUE = TaggedValue(0, None)


def _fresher(best: TaggedValue | None, v: TaggedValue) -> TaggedValue:
    """The larger of best and v by sequence number; equal sequence
    numbers with different payloads raise."""
    if best is None or v.sn > best.sn:
        return v
    if v.sn == best.sn and v.payload != best.payload:
        raise ProtocolError(f"values {best} and {v} share a sequence number with different payloads")
    return best


def max_tagged(values) -> TaggedValue:
    """Largest tagged value by sequence number alone.

    Equal sequence numbers must carry equal payloads (single writer);
    a disagreement means the run is corrupt and raises.
    """
    best: TaggedValue | None = None
    for v in values:
        best = _fresher(best, v)
    if best is None:
        raise ProtocolError("max over an empty collection of tagged values")
    return best


class Message(NamedTuple):
    kind: str  # W | ACK-W | R | ACK-R
    sender: int
    dest: int
    sn: int  # writer sequence number for W/ACK-W, read counter for R/ACK-R
    value: TaggedValue | None = None  # payload of W, reply of ACK-R


# The protocol and the simulator's handler step build sends as
# _new(Message, (all five fields)): the same class and values as
# Message(...), without the NamedTuple's Python-level __new__, which
# takes about 1.7x as long.
_new = tuple.__new__


def ack_quorum(n: int, t: int) -> int:
    """Acknowledgements to wait for when up to t crashes are tolerated."""
    if type(t) is not int:  # bool is an int subclass
        raise ProtocolError(f"t={t!r} is not an integer")
    q = n - t
    if not 1 <= q <= n:
        raise ProtocolError(f"t={t} gives ack quorum {q}, outside 1..{n}")
    return q


def _write_back(replies: dict) -> tuple[TaggedValue, bool]:
    """The value a read returns from its quorum of replies, by sender,
    and whether it writes that value back first: the freshest reply,
    always written back, with its own sequence number."""
    return max_tagged(replies.values()), True


@dataclass(slots=True)
class Op:
    """The round an in-flight operation waits on: each ack of kind
    `ack` echoing sn adds its sender's first reply to `replies`.
    `value` is what a W round writes, None in a read's R round."""

    ack: str
    sn: int
    value: TaggedValue | None
    replies: dict


@dataclass(slots=True)
class Scan:
    """A W or R handler in progress: `msg` started it, `regs[next]` is
    its next register to read.  An R folds what it reads into `best`,
    its `due` None.  A W's `due` is False, or the register it last read
    older than its value, which it writes before it reads on."""

    msg: Message
    regs: tuple
    due: tuple | bool | None
    next: int = 0
    best: TaggedValue | None = None


class ProcessCore:
    """Protocol state machine for one process.

    Pure with respect to scheduling: each entry point maps the current
    state and one event to a new state plus its sends, a sequence that
    is empty when there are none.

    `pending` is the `Op` of the one in-flight local operation and
    `scan` the `Scan` of the running handler, each None when there is
    none: plain records that hold neither the core nor the simulator,
    so a run left mid-operation holds no reference cycle, and
    `copy.deepcopy` copies it.  The simulator steps `scan` itself, one
    register access per step.  The core does not know which workload
    op is running; the simulator keeps that op at the head of the
    process's queue until `deliver` returns its value.
    """

    def __init__(self, pid: int, spec, quorum: int):
        self.pid = pid
        self.n = spec.n
        self.quorum = quorum
        self.writable = spec.writable_registers(pid)
        self.readable = spec.readable_registers(pid)
        self.sn_w = 0  # used by the writer only
        self.sn_r = 0
        self.pending = None
        self.scan = None

    def _fan_out(self, kind: str, sn: int, value: TaggedValue | None = None) -> list:
        """Make `kind` (W or R) with sn the pending round; return its fan-out."""
        self.pending = Op(ACK_W if kind == W else ACK_R, sn, value, {})
        return [_new(Message, (kind, self.pid, dest, sn, value)) for dest in range(1, self.n + 1)]

    def invoke_write(self, payload: str | None):
        if self.pending is not None:
            raise ProtocolError(f"p{self.pid}: operation invoked while another is pending")
        self.sn_w += 1
        return self._fan_out(W, self.sn_w, TaggedValue(self.sn_w, payload))

    def invoke_read(self):
        if self.pending is not None:
            raise ProtocolError(f"p{self.pid}: operation invoked while another is pending")
        self.sn_r += 1
        return self._fan_out(R, self.sn_r)

    def deliver(self, msg: Message):
        """Handle one delivered message.

        Returns (sends, value): value is None until an ack completes the
        pending operation, and then the value it wrote or read.  W and R
        start a scan and must not arrive while another scan is active.
        An ack counts toward the pending round if its kind and sn match
        and its sender is new; any other ack is stale and ignored.  At
        quorum a write round completes its op, and a read's R round
        completes it or starts its write-back, as `_write_back` says.
        """
        kind = msg.kind
        if kind in (W, R):
            if self.scan is not None:
                raise ProtocolError(f"p{self.pid}: delivery while a handler is mid-scan")
            self.scan = Scan(msg, self.writable, False) if kind == W else Scan(msg, self.readable, None)
            return (), None
        if kind not in (ACK_W, ACK_R):
            raise ProtocolError(f"unknown message kind {kind!r}")
        op = self.pending
        if op is None or kind != op.ack or msg.sn != op.sn:
            return (), None
        op.replies.setdefault(msg.sender, msg.value)
        if len(op.replies) < self.quorum:
            return (), None
        value = op.value
        if value is None:
            value, back = _write_back(op.replies)
            if back:
                return self._fan_out(W, value.sn, value), None
        self.pending = None
        return (), value
