"""The register emulation protocol: four procedures, each a generator.

Every process runs the same four: the writer's fan-out write, the read
with write-back, and the two message handlers that touch the shared
registers.  `_write` and `_read` yield the sends of each event, are
sent the next ack, and return the value written or read: they know
sequence numbers and values, never which workload op they serve.
`_w_handler` and `_r_handler` are sent the simulator at each register
access and return their ack.  `ProcessCore` holds the running ones and
drives the operations; the simulator resumes a running handler itself,
one atomic step at a time, so each shared-register access is its own
step, never batched with another.

A process sends W/R messages to itself through the network like to
anyone else, so quorum counting is uniform.  The W handler is the same
whether the fan-out came from the writer or from a reader writing back:
it replies to the actual sender.
"""

from __future__ import annotations

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


# The protocol builds its sends as _new(Message, (all five fields)): the
# same class and values as Message(...), without the NamedTuple's
# Python-level __new__, which takes about 1.7x as long.
_new = tuple.__new__


def ack_quorum(n: int, t: int) -> int:
    """Acknowledgements to wait for when up to t crashes are tolerated."""
    if type(t) is not int:  # bool is an int subclass
        raise ProtocolError(f"t={t!r} is not an integer")
    q = n - t
    if not 1 <= q <= n:
        raise ProtocolError(f"t={t} gives ack quorum {q}, outside 1..{n}")
    return q


def _round(kind: str, pid: int, n: int, quorum: int, sn: int, value: TaggedValue | None = None):
    """Send `kind` (W or R) with sn to every process and yield the sends,
    then nothing on each ack sent in, until `quorum` distinct senders
    have acked it echoing sn; return each one's first reply by sender.
    Any other ack is stale and ignored."""
    ack, replies = (ACK_W if kind == W else ACK_R), {}
    msg = yield [_new(Message, (kind, pid, dest, sn, value)) for dest in range(1, n + 1)]
    while True:
        if msg.kind == ack and msg.sn == sn:
            replies.setdefault(msg.sender, msg.value)
            if len(replies) >= quorum:
                return replies
        msg = yield ()


def _write(pid: int, n: int, quorum: int, value: TaggedValue):
    """Fan value out as W, wait for n - t ACK-Ws echoing its sn, and
    return the value written."""
    yield from _round(W, pid, n, quorum, value.sn, value)
    return value


def _read(pid: int, n: int, quorum: int, sn: int):
    """Fan out R, wait for n - t ACK-Rs echoing sn, then write the freshest
    reply back with its own sequence number: no new number is minted.
    Returns the value read."""
    replies = yield from _round(R, pid, n, quorum, sn)
    return (yield from _write(pid, n, quorum, max_tagged(replies.values())))


def _w_handler(pid: int, regs: tuple, msg: Message):
    """Store msg's value in each register of regs holding an older one.
    Sent the simulator at each access; returns the ACK-W."""
    for reg in regs:
        if msg.value.sn > (yield).read(reg, pid).sn:
            (yield).write(reg, pid, msg.value)
    return _new(Message, (ACK_W, pid, msg.sender, msg.sn, None))


def _r_handler(pid: int, regs: tuple, msg: Message):
    """Read each register of regs.  Sent the simulator at each access;
    returns the ACK-R carrying the freshest value read."""
    best = None
    for reg in regs:
        v = (yield).read(reg, pid)
        if best is None or v.sn > best.sn:
            best = v
        elif v.sn == best.sn and v.payload != best.payload:
            _fresher(best, v)  # raises
    return _new(Message, (ACK_R, pid, msg.sender, msg.sn, best))


class ProcessCore:
    """Protocol state machine for one process.

    Pure with respect to scheduling: each entry point maps the current
    state and one event to a new state plus its sends, a sequence that
    is empty when there are none.  The simulator, which holds the
    shared registers, resumes `scan` itself, sending it the simulator
    at each access, so that every access is one observable step.

    `pending` is the running `_write` or `_read` generator of the one
    in-flight local operation, `scan` the running `_w_handler` or
    `_r_handler` generator; each is None when there is none.  Neither
    holds the core or the simulator, so a run that a crash leaves
    mid-operation holds no reference cycle.  The core does not know
    which workload op is running; the simulator keeps that op at the
    head of the process's queue until `deliver` returns its value.
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

    def invoke_write(self, payload: str | None):
        if self.pending is not None:
            raise ProtocolError(f"p{self.pid}: operation invoked while another is pending")
        self.sn_w += 1
        self.pending = _write(self.pid, self.n, self.quorum, TaggedValue(self.sn_w, payload))
        return next(self.pending)

    def invoke_read(self):
        if self.pending is not None:
            raise ProtocolError(f"p{self.pid}: operation invoked while another is pending")
        self.sn_r += 1
        self.pending = _read(self.pid, self.n, self.quorum, self.sn_r)
        return next(self.pending)

    def deliver(self, msg: Message):
        """Handle one delivered message.

        Returns (sends, value): value is None until an ack completes the
        pending operation, and then the value it wrote or read.  W and R
        start a scan and must not arrive while another scan is active;
        an ack goes to the pending operation, if any.
        """
        if msg.kind in (W, R):
            if self.scan is not None:
                raise ProtocolError(f"p{self.pid}: delivery while a handler is mid-scan")
            handler, regs = (_w_handler, self.writable) if msg.kind == W else (_r_handler, self.readable)
            self.scan = handler(self.pid, regs, msg)
            next(self.scan)  # up to the first access, which touches nothing yet
            return (), None
        if msg.kind not in (ACK_W, ACK_R):
            raise ProtocolError(f"unknown message kind {msg.kind!r}")
        if self.pending is None:
            return (), None  # stale ack
        try:
            return self.pending.send(msg), None
        except StopIteration as done:
            self.pending = None
            return (), done.value
