"""Event-driven state machines for the register emulation protocol.

Every process runs the same four handlers: the writer's fan-out write,
the read with write-back, and the two message handlers that touch the
shared registers.  Handlers are driven one atomic step at a time by the
enclosing simulator; each shared-register access is its own step, never
batched with another.

A process sends W/R messages to itself through the network like to
anyone else, so quorum counting is uniform.  The W handler is the same
whether the fan-out came from the writer or from a reader writing back:
it replies to the actual sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def ack_quorum(n: int, t: int) -> int:
    """Acknowledgements to wait for when up to t crashes are tolerated."""
    if type(t) is not int:  # bool is an int subclass
        raise ProtocolError(f"t={t!r} is not an integer")
    q = n - t
    if not 1 <= q <= n:
        raise ProtocolError(f"t={t} gives ack quorum {q}, outside 1..{n}")
    return q


@dataclass
class PendingOp:
    """The one in-flight local operation of a process."""

    op_id: int
    phase: str  # write-quorum | read-quorum | write-back
    sn: int  # sequence number the awaited acks must echo
    value: TaggedValue | None
    acked: set = field(default_factory=set)  # distinct ack senders
    replies: dict = field(default_factory=dict)  # sender -> TaggedValue (reads)


@dataclass
class Scan:
    """An in-progress W or R handler, advanced one register access at a time."""

    msg: Message
    regs: list  # the registers to visit, in order
    at: int = 0  # index in regs of the next one
    pending_write: tuple | None = None  # guarded write decided by the last read
    best: TaggedValue | None = None  # running max of an R scan


class ProcessCore:
    """Protocol state machine for one process.

    Pure with respect to scheduling: each entry point maps the current
    state and one event to a new state plus emissions.  The simulator,
    which holds the shared registers, is passed in so that every access
    is one observable step.
    """

    def __init__(self, pid: int, spec, quorum: int):
        self.pid = pid
        self.n = spec.n
        self.quorum = quorum
        self.writable = list(spec.writable_registers(pid))
        self.readable = list(spec.readable_registers(pid))
        self.sn_w = 0  # used by the writer only
        self.sn_r = 0
        self.pending: PendingOp | None = None
        self.scan: Scan | None = None

    def _fan_out(self, kind: str, sn: int, value: TaggedValue | None = None):
        return [Message(kind, self.pid, dest, sn, value) for dest in range(1, self.n + 1)]

    def invoke_write(self, op_id: int, payload: str):
        if self.pending is not None:
            raise ProtocolError(f"p{self.pid}: operation invoked while another is pending")
        self.sn_w += 1
        value = TaggedValue(self.sn_w, payload)
        self.pending = PendingOp(op_id, "write-quorum", value.sn, value)
        return self._fan_out(W, value.sn, value)

    def invoke_read(self, op_id: int):
        if self.pending is not None:
            raise ProtocolError(f"p{self.pid}: operation invoked while another is pending")
        self.sn_r += 1
        self.pending = PendingOp(op_id, "read-quorum", self.sn_r, None)
        return self._fan_out(R, self.sn_r)

    def deliver(self, msg: Message):
        """Handle one delivered message.

        Returns (sends, response); response is (op_id, value) when the
        local pending operation just completed.  W and R start a scan
        and must not arrive while another scan is active.
        """
        if msg.kind in (W, R):
            if self.scan is not None:
                raise ProtocolError(f"p{self.pid}: delivery while a handler is mid-scan")
            regs = self.writable if msg.kind == W else self.readable
            self.scan = Scan(msg, regs)
            return [], None

        p = self.pending
        if msg.kind == ACK_W:
            if p is None or p.phase not in ("write-quorum", "write-back") or msg.sn != p.sn:
                return [], None  # stale ack
            p.acked.add(msg.sender)
            if len(p.acked) >= self.quorum:
                self.pending = None
                return [], (p.op_id, p.value)
            return [], None

        if msg.kind == ACK_R:
            if p is None or p.phase != "read-quorum" or msg.sn != p.sn:
                return [], None
            p.replies.setdefault(msg.sender, msg.value)
            if len(p.replies) >= self.quorum:
                chosen = max_tagged(p.replies.values())
                # Write back the chosen tuple with its original sequence
                # number; no new number is minted.
                p.phase = "write-back"
                p.sn = chosen.sn
                p.value = chosen
                p.acked = set()
                return self._fan_out(W, chosen.sn, chosen), None
            return [], None

        raise ProtocolError(f"unknown message kind {msg.kind!r}")

    def reg_step(self, store):
        """Execute one atomic register access of the active scan, on
        the simulator's registers through `store.read` / `store.write`.

        Returns the sends: the acknowledgement once the scan is
        exhausted, else nothing.
        """
        scan = self.scan
        if scan is None:
            raise ProtocolError(f"p{self.pid}: no handler in progress")

        msg = scan.msg
        if msg.kind == W:
            if scan.pending_write is not None:
                reg = scan.pending_write
                scan.pending_write = None
                store.write(reg, self.pid, msg.value)
            else:
                reg = scan.regs[scan.at]
                scan.at += 1
                if msg.value.sn > store.read(reg, self.pid).sn:
                    scan.pending_write = reg
            if scan.at == len(scan.regs) and scan.pending_write is None:
                self.scan = None
                return [Message(ACK_W, self.pid, msg.sender, msg.sn)]
            return []

        reg = scan.regs[scan.at]
        scan.at += 1
        scan.best = _fresher(scan.best, store.read(reg, self.pid))
        if scan.at == len(scan.regs):
            self.scan = None
            return [Message(ACK_R, self.pid, msg.sender, msg.sn, scan.best)]
        return []
