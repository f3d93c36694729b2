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

import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .model import SystemSpec
from .protocol import (
    ACK_R,
    ACK_W,
    INITIAL_VALUE,
    Message,
    ProcessCore,
    R,
    TaggedValue,
    W,
    ack_quorum,
)


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
    crash_plan entries are (process, step).
    """

    policy: str = "fair"
    seed: int = 0
    script: tuple = ()
    crash_plan: tuple = ()


@dataclass
class OpRecord:
    op_id: int
    kind: str
    proc: int
    invoke_step: int | None = None
    response_step: int | None = None
    result: TaggedValue | None = None


class RegisterStore:
    """Shared SWMR registers with enforced access control.

    Registers belong to the system, not to a host: they survive the
    crash of their owner.
    """

    def __init__(self, spec: SystemSpec, trace_hook):
        self._readers = {reg: spec.set_members(reg[0]) for reg in spec.registers}
        self.values = {reg: INITIAL_VALUE for reg in spec.registers}
        self._hook = trace_hook

    def read(self, reg, by: int) -> TaggedValue:
        if by not in self._readers.get(reg, ()):
            raise AccessError(f"p{by} cannot read R_{reg[0]}[p{reg[1]}]")
        value = self.values[reg]
        self._hook("reg-read", by, {"register": list(reg), "value": list(value)})
        return value

    def write(self, reg, by: int, value: TaggedValue) -> None:
        if reg not in self.values or by != reg[1]:
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

    def __init__(self, spec: SystemSpec, t: int, workload, crash_plan=()):
        n = spec.n
        self.spec = spec
        self.t = t
        self.quorum = ack_quorum(n, t)
        self.workload = list(workload)
        for op in self.workload:
            if not 1 <= op.proc <= n:
                raise SimError(f"workload process p{op.proc} outside 1..{n}")
            if op.kind == "write" and op.proc != spec.writer:
                raise SimError(f"write assigned to p{op.proc}, but the writer is p{spec.writer}")
            if op.kind not in ("write", "read"):
                raise SimError(f"unknown op kind {op.kind!r}")
        self.crash_plan = sorted(crash_plan, key=lambda cs: (cs[1], cs[0]))
        for p, step in self.crash_plan:
            if not 1 <= p <= n:
                raise SimError(f"crash of p{p} outside 1..{n}")
            if step < 0:
                raise SimError(f"crash of p{p} at negative step {step}")
        if len({p for p, _ in self.crash_plan}) != len(self.crash_plan):
            raise SimError("crash plan names a process twice")

        self.step = 0
        self.trace: list[dict] = []
        self.procs = {p: ProcessCore(p, spec, self.quorum) for p in range(1, n + 1)}
        self.store = RegisterStore(spec, self._record)
        self.network: dict[str, Message] = {}  # insertion order = send order
        self._send_seq = {p: 0 for p in range(1, n + 1)}
        self._sent_at: dict[str, int] = {}
        self.ops = [OpRecord(i, op.kind, op.proc) for i, op in enumerate(self.workload)]
        self._queue: dict[int, deque] = {p: deque() for p in range(1, n + 1)}
        for i, op in enumerate(self.workload):
            self._queue[op.proc].append(i)
        self.crashed: set[int] = set()
        self._crash_cursor = 0

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
        evs: list[tuple] = []
        invokes = []
        for p in range(1, self.spec.n + 1):
            q = self._queue[p]
            if (
                q
                and p not in self.crashed
                and self.procs[p].idle
                and self.step >= self.workload[q[0]].at_step
            ):
                invokes.append(("invoke", q[0]))
        invokes.sort(key=lambda e: e[1])
        evs.extend(invokes)
        for p in range(1, self.spec.n + 1):
            if p not in self.crashed and self.procs[p].scan is not None:
                evs.append(("hstep", p))
        for mid, msg in self.network.items():
            if msg.dest not in self.crashed and self.procs[msg.dest].scan is None:
                evs.append(("deliver", mid))
        return evs

    def apply(self, ev: tuple) -> None:
        kind = ev[0]
        if kind == "invoke":
            idx = ev[1]
            op = self.workload[idx]
            q = self._queue[op.proc]
            if not q or q[0] != idx or op.proc in self.crashed or not self.procs[op.proc].idle:
                raise ScriptError(f"invoke of op {idx} not enabled at step {self.step}")
            q.popleft()
            rec = self.ops[idx]
            rec.invoke_step = self.step
            core = self.procs[op.proc]
            payload = {"op": idx, "kind": op.kind}
            if op.kind == "write":
                # The written tuple is fixed at invocation; record it now so
                # a crash-interrupted write still explains the value readers
                # may have observed.
                value = TaggedValue(core.sn_w + 1, op.payload)
                rec.result = value
                payload["value"] = list(value)
            self._record("invoke", op.proc, payload)
            sends = (
                core.invoke_write(idx, op.payload)
                if op.kind == "write"
                else core.invoke_read(idx)
            )
            self._route(sends)
        elif kind == "hstep":
            p = ev[1]
            if p in self.crashed or self.procs[p].scan is None:
                raise ScriptError(f"handler step of p{p} not enabled at step {self.step}")
            sends, _ = self.procs[p].reg_step(self.store)
            self._route(sends)
        elif kind == "deliver":
            mid = ev[1]
            msg = self.network.get(mid)
            if msg is None or msg.dest in self.crashed or self.procs[msg.dest].scan is not None:
                raise ScriptError(f"delivery of {mid} not enabled at step {self.step}")
            del self.network[mid]
            del self._sent_at[mid]
            self._record("deliver", msg.dest, {"id": mid, **_msg_fields(msg)})
            sends, response = self.procs[msg.dest].deliver(msg)
            self._route(sends)
            if response is not None:
                op_id, value = response
                rec = self.ops[op_id]
                rec.response_step = self.step
                rec.result = value
                self._record("respond", msg.dest, {"op": op_id, "value": list(value)})
        else:
            raise ScriptError(f"unknown event {ev!r}")

    def _crash(self, p: int) -> None:
        if p in self.crashed:
            return
        self.crashed.add(p)
        self.procs[p].scan = None
        self._record("crash", p, {})

    def _due_crashes(self) -> None:
        while (
            self._crash_cursor < len(self.crash_plan)
            and self.crash_plan[self._crash_cursor][1] <= self.step
        ):
            p, _ = self.crash_plan[self._crash_cursor]
            self._crash_cursor += 1
            self._crash(p)

    def _future_invoke(self):
        """Smallest at_step of an invocation that mere passage of logical
        time would enable, or None."""
        future = [
            self.workload[q[0]].at_step
            for p, q in self._queue.items()
            if q
            and p not in self.crashed
            and self.procs[p].idle
            and self.workload[q[0]].at_step > self.step
        ]
        return min(future) if future else None

    def is_quiescent(self) -> bool:
        return not self.enabled() and self._future_invoke() is None

    # -- driving -----------------------------------------------------------

    def run(self, schedule: Schedule, max_steps: int = 500_000) -> "Simulator":
        chooser = _make_chooser(self, schedule)
        while True:
            self._due_crashes()
            evs = self.enabled()
            if not evs:
                nxt = self._future_invoke()
                if nxt is None:
                    break
                self.step = nxt  # idle tick until the next timed invocation
                continue
            ev = chooser(evs)
            if ev not in evs:
                raise ScriptError(f"event {ev!r} not enabled at step {self.step}")
            self.apply(ev)
            if self.step > max_steps:
                raise SimError(f"step budget {max_steps} exceeded")
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
                return tuple(next(it))
            except StopIteration:
                raise ScriptError("script ended with events still enabled") from None

        return scripted
    raise SimError(f"unknown policy {schedule.policy!r}")


def run_simulation(
    spec: SystemSpec, t: int, workload, schedule: Schedule, max_steps: int = 500_000
) -> Simulator:
    sim = Simulator(spec, t, workload, crash_plan=schedule.crash_plan)
    return sim.run(schedule, max_steps=max_steps)


# -- trace serialization ---------------------------------------------------


def trace_lines(trace) -> list[str]:
    return [json.dumps(ev, separators=(",", ":")) for ev in trace]


def emit_trace(trace, path) -> None:
    """Newline-delimited JSON, one event per line, stable field order."""
    with open(Path(path), "w", encoding="utf-8") as f:
        for line in trace_lines(trace):
            f.write(line)
            f.write("\n")


def load_trace(path) -> list[dict]:
    out = []
    with open(Path(path), encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def history_from_trace(trace) -> list[dict]:
    """The run's operation records, rebuilt from its invoke and respond
    events: op, kind, proc, invoke and response steps, and value (a
    write's value is fixed at invocation, a read's at its response).
    This is the one way a history is built, so the checker sees a run
    and its emitted trace alike."""
    records: dict[int, dict] = {}
    for ev in trace:
        if ev["kind"] == "invoke":
            records[ev["payload"]["op"]] = {
                "op": ev["payload"]["op"],
                "kind": ev["payload"]["kind"],
                "proc": ev["actor"],
                "invoke": ev["step"],
                "response": None,
                "value": ev["payload"].get("value"),
            }
        elif ev["kind"] == "respond":
            rec = records[ev["payload"]["op"]]
            rec["response"] = ev["step"]
            rec["value"] = ev["payload"]["value"]
    return [records[k] for k in sorted(records)]


def crashed_from_trace(trace) -> set[int]:
    return {ev["actor"] for ev in trace if ev["kind"] == "crash"}


def schedule_from_trace(trace) -> tuple:
    """The replayable choice sequence of a completed trace."""
    script = []
    for ev in trace:
        kind = ev["kind"]
        if kind == "invoke":
            script.append(("invoke", ev["payload"]["op"]))
        elif kind == "deliver":
            script.append(("deliver", ev["payload"]["id"]))
        elif kind in ("reg-read", "reg-write"):
            script.append(("hstep", ev["actor"]))
    return tuple(script)
