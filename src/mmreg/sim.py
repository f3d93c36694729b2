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
    crash of their owner.
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


def _msg_fields(msg: Message) -> dict:
    out = {"type": msg.kind, "from": msg.sender, "to": msg.dest, "sn": msg.sn}
    if msg.value is not None:
        out["value"] = list(msg.value)
    return out


class Simulator:
    """One deterministic run of the protocol over a system spec.

    The scheduler-facing surface is `enabled()` / `apply(event)`; `run`
    drives them under a policy.  Events are small tuples:
    ("invoke", op_index), ("hstep", pid), ("deliver", msg_id).
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
        self.store = RegisterStore(spec, self._record)
        self.network: dict[str, Message] = {}  # insertion order = send order
        self._send_seq = {p: 0 for p in range(1, n + 1)}
        self._sent_at: dict[str, int] = {}
        self.ops = [OpRecord(op.kind, op.proc) for op in self.workload]
        self._queue: dict[int, deque] = {p: deque() for p in range(1, n + 1)}
        for i, op in enumerate(self.workload):
            self._queue[op.proc].append(i)
        self.crashed: set[int] = set()

    # -- trace -------------------------------------------------------------

    def _record(self, kind: str, actor: int, payload: dict) -> None:
        self.trace.append({"step": self.step, "kind": kind, "actor": actor, "payload": payload})
        self.step += 1

    def _route(self, msgs) -> None:
        for msg in msgs:
            self._send_seq[msg.sender] += 1
            mid = f"{msg.sender}.{self._send_seq[msg.sender]}"
            self.network[mid] = msg
            self._sent_at[mid] = self.step
            self._record("send", msg.sender, {"id": mid, **_msg_fields(msg)})

    # -- event surface -----------------------------------------------------

    def enabled(self) -> list[tuple]:
        """Enabled events in a fixed deterministic order: workload
        invocations, then handler steps by process, then deliveries in
        send order."""
        evs: list[tuple] = [
            ("invoke", i) for i in sorted(self._ready_ops()) if self.workload[i].at_step <= self.step
        ]
        for p in range(1, self.spec.n + 1):
            if p not in self.crashed and self.procs[p].scan is not None:
                evs.append(("hstep", p))
        for mid, msg in self.network.items():
            if msg.dest not in self.crashed and self.procs[msg.dest].scan is None:
                evs.append(("deliver", mid))
        return evs

    def apply(self, ev: tuple) -> None:
        """Fire one event; raises ScriptError unless enabled() lists it."""
        if ev not in self.enabled():
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
            self._record("invoke", op.proc, payload)
            self._route(sends)
        elif kind == "hstep":
            self._route(self.procs[ev[1]].reg_step(self.store))
        else:  # deliver
            mid = ev[1]
            msg = self.network.pop(mid)
            del self._sent_at[mid]
            self._record("deliver", msg.dest, {"id": mid, **_msg_fields(msg)})
            sends, response = self.procs[msg.dest].deliver(msg)
            self._route(sends)
            if response is not None:
                op_id, value = response
                self.ops[op_id].response_step = self.step
                self._record("respond", msg.dest, {"op": op_id, "value": list(value)})

    def _ready_ops(self) -> list[int]:
        """The next op index of each live idle process that has one."""
        return [q[0] for p, q in self._queue.items() if q and p not in self.crashed and self.procs[p].idle]

    def _future_invoke(self):
        """Smallest at_step of an invocation that mere passage of logical
        time would enable, or None."""
        future = [self.workload[i].at_step for i in self._ready_ops()]
        return min((s for s in future if s > self.step), default=None)

    def is_quiescent(self) -> bool:
        return not self.enabled() and self._future_invoke() is None

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
        while True:
            while crashes and crashes[0][1] <= self.step:
                p, _ = crashes.popleft()
                self.crashed.add(p)
                self._record("crash", p, {})
            evs = self.enabled()
            if not evs:
                nxt = self._future_invoke()
                if nxt is None:
                    break
                self.step = nxt  # idle tick until the next timed invocation
                continue
            self._fire(chooser(evs))
            if self.step > MAX_STEPS:
                raise SimError(f"step budget {MAX_STEPS} exceeded")
        return self


def _make_chooser(sim: Simulator, schedule: Schedule):
    if schedule.policy == "fifo":
        return lambda evs: evs[0]
    if schedule.policy == "fair":
        rng = random.Random(schedule.seed)
        age_limit = sim.spec.n * sim.spec.n + 16

        def choose(evs):
            # Aging: force the oldest deliverable message once it has
            # waited too long, so every message eventually arrives.
            for ev in evs:
                if ev[0] == "deliver":
                    if sim.step - sim._sent_at[ev[1]] > age_limit:
                        return ev
                    break
            return rng.choice(evs)

        return choose
    if schedule.policy == "scripted":
        it = iter(schedule.script)

        def scripted(evs):
            try:
                ev = tuple(next(it))
            except StopIteration:
                raise ScriptError("script ended with events still enabled") from None
            if ev not in evs:
                raise ScriptError(f"event {ev!r} not enabled at step {sim.step}")
            return ev

        return scripted
    raise SimError(f"unknown policy {schedule.policy!r}")


def run_simulation(spec: SystemSpec, t: int, workload, schedule: Schedule) -> Simulator:
    return Simulator(spec, t, workload).run(schedule)

