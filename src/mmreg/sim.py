"""Deterministic discrete-event execution of the register protocol.

A single global step counter orders every trace event; the scheduler
chooses among enabled events (workload invocations, handler register
steps, message deliveries) under one of three policies.  Same inputs and
seed give a byte-identical trace.

Links are reliable: a message is delivered exactly once, never lost or
forged, with no ordering guarantee unless the fifo policy is selected.
Crashed processes take no further steps; their registers stay readable
and writable by the survivors.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from .model import SystemSpec, access_maps
from .protocol import INITIAL_VALUE, Message, ProcessCore, TaggedValue, ack_quorum

# Bound here only for callers that reach them on this module by name:
# bench/ calls and wraps them, and tests/test_golden.py imports trace_lines.
from .trace import emit_trace, history_from_trace, trace_lines  # noqa: F401

# A run that takes more steps than this raises SimError.
MAX_STEPS = 500_000


class SimError(Exception):
    """Bad simulation inputs or an exhausted step budget."""


class ScriptError(SimError):
    """A scripted event was not enabled when its turn came."""


class AccessError(SimError):
    """A process touched a register outside its access rights."""


@dataclass(frozen=True)
class WorkloadOp:
    kind: str  # write | read
    proc: int
    payload: str | None = None
    at_step: int = 0


@dataclass(frozen=True)
class Schedule:
    """Scheduling policy plus crash plan.

    policy: "fair" (seeded uniform choice with aging so every pending
    message is eventually delivered), "fifo" (deterministic, delivery in
    send order), or "scripted" (replay an explicit event list).
    crash_plan entries are (process, step): `Simulator.run` crashes each
    named process once the step counter reaches its step.
    """

    policy: str = "fair"
    seed: int = 0
    script: tuple = ()
    crash_plan: tuple = ()


@dataclass
class OpRecord:
    """An op's timing; its value is recorded only in the trace."""

    kind: str
    proc: int
    invoke_step: int | None = None
    response_step: int | None = None


class RegisterStore:
    """Shared SWMR registers with enforced access control.

    Registers belong to the system, not to a host: they survive the
    crash of their owner.  `trace_hook(kind, actor, payload)` is called
    on every access; a simulator's hook must not keep the simulator
    alive (the simulator owns the store), or each run becomes a
    reference cycle that only the cyclic garbage collector frees.
    """

    def __init__(self, spec: SystemSpec, trace_hook):
        self._readers, self._writer = access_maps(spec)
        self.values = {reg: INITIAL_VALUE for reg in spec.registers}
        self._hook = trace_hook

    def read(self, reg, by: int) -> TaggedValue:
        if by not in self._readers.get(reg, ()):
            raise AccessError(f"p{by} cannot read R_{reg[0]}[p{reg[1]}]")
        value = self.values[reg]
        self._hook("reg-read", by, {"register": list(reg), "value": list(value)})
        return value

    def write(self, reg, by: int, value: TaggedValue) -> None:
        if self._writer.get(reg) != by:
            raise AccessError(f"p{by} cannot write R_{reg[0]}[p{reg[1]}]")
        self.values[reg] = value
        self._hook("reg-write", by, {"register": list(reg), "value": list(value)})


def _weak_record(sim: "Simulator"):
    """A store hook that records into sim's trace through a weak
    reference, so a dropped run is freed by reference counting.  The
    store is sim's own and is not used once sim is gone."""
    ref = weakref.ref(sim)

    def record(kind: str, actor: int, payload: dict) -> None:
        ref()._record(kind, actor, payload)

    return record


def _msg_fields(msg: Message) -> dict:
    out = {"type": msg.kind, "from": msg.sender, "to": msg.dest, "sn": msg.sn}
    if msg.value is not None:
        out["value"] = list(msg.value)
    return out


# A process's mode, as the indexes last saw it: open (live, no scan in
# progress: its messages are deliverable), scanning, or crashed.
_OPEN, _SCAN, _DOWN = "open", "scan", "down"


class Simulator:
    """One deterministic run of the protocol over a system spec.

    The scheduler-facing surface is `enabled()` / `apply(event)`; `run`
    drives them under a policy.  Events are small tuples:
    ("invoke", op_index), ("hstep", pid), ("deliver", msg_id).

    The enabled events are kept in three indexes, each in `enabled()`
    order, which `_sync` updates for the one process an event or a
    crash changed:

    - `_invokes`: the ready ops whose at_step has come, ascending.  An
      op is ready when it is the next op of a live idle process;
      `_timed` holds the other ready ops as (at_step, op), ascending,
      and `_due` moves them into `_invokes` once the step counter
      reaches their at_step;
    - `_scanning`: the live processes with a scan in progress, ascending;
    - `_deliverable`: the send numbers of the undelivered messages
      whose destination is live with no scan in progress, ascending.
      `_inbox[p]` holds the send numbers of every undelivered message to
      p, so a scan start, a scan end or a crash moves them out or in.

    Invariant: after `_due()`, enabled() is the invokes, then the
    hsteps, then the deliveries of these lists.  An event re-indexes one
    process by bisection, moving its inbox only when its scan starts or
    ends or it crashes; nothing walks all processes or the messages
    stranded at crashed ones.  `network` keeps every undelivered
    message, stranded ones included.  The index lists are changed in
    place, never rebound: `run` and the fair chooser hold them.
    """

    def __init__(self, spec: SystemSpec, t: int, workload):
        n = spec.n
        quorum = ack_quorum(n, t)
        self.spec = spec
        self.workload = list(workload)
        for op in self.workload:
            if not 1 <= op.proc <= n:
                raise SimError(f"workload process p{op.proc} outside 1..{n}")
            if op.kind == "write" and op.proc != spec.writer:
                raise SimError(f"write assigned to p{op.proc}, but the writer is p{spec.writer}")
            if op.kind not in ("write", "read"):
                raise SimError(f"unknown op kind {op.kind!r}")

        self.step = 0
        self.trace: list[dict] = []
        self.procs = {p: ProcessCore(p, spec, quorum) for p in range(1, n + 1)}
        self.store = RegisterStore(spec, _weak_record(self))
        self.network: dict[str, Message] = {}  # insertion order = send order
        self._send_seq = {p: 0 for p in range(1, n + 1)}
        self._sends: list[tuple[str, int]] = []  # by send number: (message id, step sent)
        self._send_no: dict[str, int] = {}  # message id -> send number, while undelivered
        self._inbox: dict[int, dict[int, None]] = {p: {} for p in range(1, n + 1)}
        self.ops = [OpRecord(op.kind, op.proc) for op in self.workload]
        self._queue: dict[int, deque] = {p: deque() for p in range(1, n + 1)}
        for i, op in enumerate(self.workload):
            self._queue[op.proc].append(i)
        self.crashed: set[int] = set()

        self._mode: dict[int, str | None] = {p: None for p in range(1, n + 1)}
        self._ready: dict[int, int] = {}  # process -> its ready op
        self._invokes: list[int] = []
        self._timed: list[tuple[int, int]] = []
        self._scanning: list[int] = []
        self._deliverable: list[int] = []
        for p in self.procs:
            self._sync(p)

    # -- trace -------------------------------------------------------------

    def _record(self, kind: str, actor: int, payload: dict) -> None:
        self.trace.append({"step": self.step, "kind": kind, "actor": actor, "payload": payload})
        self.step += 1

    def _route(self, msgs) -> None:
        for msg in msgs:
            self._send_seq[msg.sender] += 1
            mid = f"{msg.sender}.{self._send_seq[msg.sender]}"
            no = len(self._sends)
            self._sends.append((mid, self.step))
            self.network[mid] = msg
            self._send_no[mid] = no
            self._inbox[msg.dest][no] = None
            if self._mode[msg.dest] == _OPEN:
                self._deliverable.append(no)  # the newest send sorts last
            self._record("send", msg.sender, {"id": mid, **_msg_fields(msg)})

    # -- indexes -----------------------------------------------------------

    def _sync(self, p: int) -> None:
        """Bring p's entries in the indexes in line with its state: the
        one statement of which of p's events are enabled."""
        core = self.procs[p]
        mode = _DOWN if p in self.crashed else _OPEN if core.scan is None else _SCAN
        old = self._mode[p]
        if mode != old:
            self._mode[p] = mode
            deliverable = self._deliverable
            if old == _OPEN:
                for no in self._inbox[p]:
                    del deliverable[bisect_left(deliverable, no)]
            elif old == _SCAN:
                self._scanning.remove(p)
            if mode == _OPEN:
                for no in self._inbox[p]:
                    insort(deliverable, no)
            elif mode == _SCAN:
                insort(self._scanning, p)

        # The next op of each live idle process is ready.
        q = self._queue[p]
        op = q[0] if q and mode == _OPEN and core.pending is None else None
        old_op = self._ready.get(p)
        if op == old_op:
            return
        if old_op is not None:
            del self._ready[p]
            i = bisect_left(self._invokes, old_op)
            if i < len(self._invokes) and self._invokes[i] == old_op:
                del self._invokes[i]
            else:
                self._timed.remove((self.workload[old_op].at_step, old_op))
        if op is not None:
            self._ready[p] = op
            at = self.workload[op].at_step
            if at <= self.step:
                insort(self._invokes, op)
            else:
                insort(self._timed, (at, op))

    def _due(self) -> None:
        """Move the timed ready ops whose at_step has come into _invokes."""
        timed = self._timed
        while timed and timed[0][0] <= self.step:
            insort(self._invokes, timed.pop(0)[1])

    def _is_enabled(self, ev) -> bool:
        """Whether enabled() lists ev, tested against the indexes."""
        if not (isinstance(ev, tuple) and len(ev) == 2):
            return False
        kind, x = ev
        if kind == "invoke":
            return x in self._invokes
        if kind == "hstep":
            return x in self._scanning
        if kind == "deliver":
            return isinstance(x, str) and x in self.network and self._mode[self.network[x].dest] == _OPEN
        return False

    # -- event surface -----------------------------------------------------

    def enabled(self) -> list[tuple]:
        """Enabled events in a fixed deterministic order: workload
        invocations, then handler steps by process, then deliveries in
        send order."""
        self._due()
        return list(_EnabledView(self))

    def apply(self, ev: tuple) -> None:
        """Fire one event; raises ScriptError unless enabled() lists it."""
        self._due()
        if not self._is_enabled(ev):
            raise ScriptError(f"event {ev!r} not enabled at step {self.step}")
        self._fire(ev)

    def _fire(self, ev: tuple) -> None:
        """The transition of an event that enabled() lists; unchecked."""
        kind = ev[0]
        if kind == "invoke":
            idx = ev[1]
            op = self.workload[idx]
            self._queue[op.proc].popleft()
            self.ops[idx].invoke_step = self.step
            core = self.procs[op.proc]
            payload = {"op": idx, "kind": op.kind}
            if op.kind == "write":
                sends = core.invoke_write(idx, op.payload)
                # The written tuple is fixed at invocation; record it now so
                # a crash-interrupted write still explains the value readers
                # may have observed.
                payload["value"] = list(core.pending.value)
            else:
                sends = core.invoke_read(idx)
            self._sync(op.proc)
            self._record("invoke", op.proc, payload)
            self._route(sends)
        elif kind == "hstep":
            p = ev[1]
            core = self.procs[p]
            sends = core.reg_step(self.store)
            if core.scan is None:  # a step within a scan changes no index and sends nothing
                self._sync(p)
                self._route(sends)
        else:  # deliver
            mid = ev[1]
            msg = self.network.pop(mid)
            no = self._send_no.pop(mid)
            del self._inbox[msg.dest][no]
            deliverable = self._deliverable
            del deliverable[bisect_left(deliverable, no)]
            self._record("deliver", msg.dest, {"id": mid, **_msg_fields(msg)})
            sends, response = self.procs[msg.dest].deliver(msg)
            self._sync(msg.dest)
            self._route(sends)
            if response is not None:
                op_id, value = response
                self.ops[op_id].response_step = self.step
                self._record("respond", msg.dest, {"op": op_id, "value": list(value)})

    def is_quiescent(self) -> bool:
        """Nothing is enabled, and no timed invocation is still to come."""
        return not (self._invokes or self._scanning or self._deliverable or self._timed)

    # -- driving -----------------------------------------------------------

    def run(self, schedule: Schedule) -> "Simulator":
        """Drive the run under the schedule's policy, crashing each
        process of its crash plan once the step counter reaches the
        planned step."""
        n = self.spec.n
        for p, step in schedule.crash_plan:
            if not 1 <= p <= n:
                raise SimError(f"crash of p{p} outside 1..{n}")
            if step < 0:
                raise SimError(f"crash of p{p} at negative step {step}")
            if p in self.crashed:  # a second run on the same simulator
                raise SimError(f"crash of p{p}, which has already crashed")
        if len({p for p, _ in schedule.crash_plan}) != len(schedule.crash_plan):
            raise SimError("crash plan names a process twice")
        crashes = deque(sorted(schedule.crash_plan, key=lambda cs: (cs[1], cs[0])))
        chooser = _make_chooser(self, schedule)
        evs = _EnabledView(self)
        invokes, scanning, deliverable, timed = self._invokes, self._scanning, self._deliverable, self._timed
        while True:
            while crashes and crashes[0][1] <= self.step:
                p, _ = crashes.popleft()
                self.crashed.add(p)
                self._record("crash", p, {})
                self._sync(p)
            if timed and timed[0][0] <= self.step:
                self._due()
            if not (invokes or scanning or deliverable):
                if not timed:
                    break
                self.step = timed[0][0]  # idle tick until the next timed invocation
                continue
            self._fire(chooser(evs))
            if self.step > MAX_STEPS:
                raise SimError(f"step budget {MAX_STEPS} exceeded")
        return self


def _event_at(sim: Simulator, i: int) -> tuple:
    """The event at index i of enabled(), 0 <= i < its length, read off
    the indexes."""
    invokes, scanning = sim._invokes, sim._scanning
    if i < len(invokes):
        return ("invoke", invokes[i])
    i -= len(invokes)
    if i < len(scanning):
        return ("hstep", scanning[i])
    return ("deliver", sim._sends[sim._deliverable[i - len(scanning)]][0])


class _EnabledView:
    """`enabled()` as a read-only sequence over the simulator's indexes,
    without building the list; current until the next event fires or
    the step counter moves.  Indexes run from 0 to len() - 1."""

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulator):
        self._sim = sim

    def __len__(self) -> int:
        sim = self._sim
        return len(sim._invokes) + len(sim._scanning) + len(sim._deliverable)

    def __getitem__(self, i: int) -> tuple:
        return _event_at(self._sim, i)

    def __iter__(self):
        sim = self._sim
        for i in sim._invokes:
            yield ("invoke", i)
        for p in sim._scanning:
            yield ("hstep", p)
        for no in sim._deliverable:
            yield ("deliver", sim._sends[no][0])


def _make_chooser(sim: Simulator, schedule: Schedule):
    if schedule.policy == "fifo":
        return lambda evs: evs[0]
    if schedule.policy == "fair":
        randrange = random.Random(schedule.seed).randrange
        age_limit = sim.spec.n * sim.spec.n + 16
        invokes, scanning, deliverable, sends = sim._invokes, sim._scanning, sim._deliverable, sim._sends

        def choose(evs):
            # Aging: force the oldest deliverable message once it has
            # waited too long, so every message eventually arrives.
            if deliverable:
                mid, sent = sends[deliverable[0]]
                if sim.step - sent > age_limit:
                    return ("deliver", mid)
            # The draw of rng.choice(evs), which is evs[randrange(len(evs))],
            # without the view's calls.
            return _event_at(sim, randrange(len(invokes) + len(scanning) + len(deliverable)))

        return choose
    if schedule.policy == "scripted":
        it = iter(schedule.script)

        def scripted(evs):
            try:
                ev = tuple(next(it))
            except StopIteration:
                raise ScriptError("script ended with events still enabled") from None
            if not sim._is_enabled(ev):
                raise ScriptError(f"event {ev!r} not enabled at step {sim.step}")
            return ev

        return scripted
    raise SimError(f"unknown policy {schedule.policy!r}")


def run_simulation(spec: SystemSpec, t: int, workload, schedule: Schedule) -> Simulator:
    return Simulator(spec, t, workload).run(schedule)

