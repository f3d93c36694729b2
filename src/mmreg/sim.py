"""Deterministic discrete-event execution of the register protocol.

A single global step counter orders every trace event; the scheduler
chooses among enabled events (workload invocations, handler register
steps, message deliveries) under one of three policies.  Same inputs and
seed give a byte-identical trace.  The simulator records each event as
one tuple; `Simulator.trace` is a view of those records that renders
the dict events of `trace.render` as it is read, and holds none.

Links are reliable: a message is delivered exactly once, never lost or
forged, with no ordering guarantee unless the fifo policy is selected.
Crashed processes take no further steps; their registers stay readable
by the survivors.
"""

from __future__ import annotations

import gc
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from .model import SystemSpec
from .protocol import INITIAL_VALUE, Message, ProcessCore, TaggedValue, ack_quorum
from .trace import RecordTrace

# Bound here only for bench/, which calls and wraps them on this module
# by name.
from .trace import emit_trace, history_from_trace, trace_lines  # noqa: F401

# A run that takes more steps than this raises SimError.
MAX_STEPS = 500_000


class SimError(Exception):
    """Bad simulation inputs or an exhausted step budget."""


class ScriptError(SimError):
    """A scripted event was not enabled when its turn came, or the run
    reached quiescence before the script's end."""


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
    send order), or "scripted" (replay an explicit event list, to its end).
    seed is a non-negative int, which `Simulator.run` requires whatever
    the policy (random.Random seeds from the absolute value, so -s would
    replay s); it refuses a non-empty script under any policy but
    "scripted".
    crash_plan entries are (process, step) pairs of ints: `Simulator.run`
    crashes each named process once the step counter reaches its step.
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


class collector_paused:
    """`with collector_paused():` runs the block with the cyclic garbage
    collector off and, on every exit, a raise included, puts back the
    state it found, so a pause nested in another leaves it off.

    A reference cycle made under a pause lives until the next
    collection, so pause only code that builds none: reference counting
    then frees all it drops, and a collection would walk live objects
    and free nothing.  The walk is saved only for objects that die
    before the pause ends; the first young collection after it walks
    those that outlive it.  `Simulator.run` pauses its loop, whose
    records outlive it, and `cli.fuzz` its loop of runs, inside which
    every run dies.  The switch is process-wide; the library starts no
    threads.
    """

    __slots__ = ("_was_on",)

    def __enter__(self) -> None:
        self._was_on = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self._was_on:
            gc.enable()


# A process's mode, as the indexes last saw it: open (live, no scan in
# progress: its messages are deliverable), scanning, or crashed.
_OPEN, _SCAN, _DOWN = "open", "scan", "down"


class Simulator:
    """One deterministic run of the protocol over a system spec.

    The workload's rules are checked here, in `__init__`: it is a
    collection of `WorkloadOp`s, each a "write" by the spec's writer or
    a "read", its proc an int in 1..n, its payload a str or None and its
    at_step an int >= 0.  A workload that is not a collection raises
    SimError, and so does the first op that breaks a rule, naming the
    op's index.

    The simulator holds the shared SWMR registers (`registers`) and
    enforces the access rule that `spec.readers` states: registers
    belong to the system, not to a host, so they survive the crash of
    their owner.  Each access is recorded in the trace as one step.

    The run's trace is `records`: one tuple (step, kind, actor, a, b)
    per event, in step order, holding objects the simulator already
    has (see `trace.render` for a and b by kind).  `trace` is a
    `trace.RecordTrace`, a read-only view of them that renders each
    dict event as it is read; it is not a list, and `list(sim.trace)`
    is one.  A run is read through this view: `trace_lines`,
    `emit_trace`, `project`, `history_from_trace` and `check_all` take
    it as they take any trace and read the records behind it, rendering
    nothing.  Only a caller that reads the events themselves,
    `schedule_from_trace` among them, pays for the dicts, one at a
    time.

    The scheduler-facing surface is `enabled()` / `apply(event)`.
    Events are small tuples: ("invoke", op_index), ("hstep", pid),
    ("deliver", msg_id).  Each kind has its transition, `_invoke`,
    `_hstep` and `_deliver`, which resumes the protocol and appends
    each record where its event happens, with no helper between: an
    access in `read` or `write`, a send in `_route`, the others in the
    transition.  `run` drives the run under a policy: the fair and
    fifo policies draw off the indexes and call the transition of the
    band they drew from, with no event tuple built.  `step_within`
    calls the transition of the first enabled event inside a set of
    processes, the lower-bound run's step.  `apply` is the one checked
    way to fire an event tuple, and scripted replay goes through it.

    Operations belong to the simulator, not the protocol: `_queue[p]`
    holds p's op indices in workload order, and the running op stays at
    its head from its invocation until it responds, so the respond
    event names it and pops it.

    The enabled events are kept in three indexes, each in `enabled()`
    order, which `_sync` updates for the one process an event or a
    crash changed.  Each holds what its band's transition takes:

    - `_invokes`: the ready op indices whose at_step has come,
      ascending.  An op is ready when it heads the queue of a live idle
      process; `_timed` holds the other ready ops as (at_step, op),
      ascending, and `_due` moves them into `_invokes` once the step
      counter reaches their at_step;
    - `_scanning`: the live pids with a scan in progress, ascending;
    - `_deliverable`: the position in `records` of the send record of
      each undelivered message whose destination is live with no scan
      in progress, ascending, which is send order.  `_inbox[p]` maps
      the id of every undelivered message to p to that position, so a
      scan start, a scan end or a crash moves them out or in, and
      `apply` finds a delivery's position there.  The id and the send
      step are read from the send record.

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
        try:
            self.workload = list(workload)
        except TypeError:  # not iterable
            raise SimError(f"workload {workload!r} is not a collection of WorkloadOps") from None
        self._queue: dict[int, deque] = {p: deque() for p in range(1, n + 1)}
        for i, op in enumerate(self.workload):
            if not isinstance(op, WorkloadOp):
                raise SimError(f"workload op {i} is {op!r}, not a WorkloadOp")
            kind, proc, at = op.kind, op.proc, op.at_step
            if kind not in ("write", "read"):
                raise SimError(f"workload op {i}: unknown op kind {kind!r}")
            if type(proc) is not int:  # bool is an int subclass
                raise SimError(f"workload op {i}: proc {proc!r} is not an integer")
            if not 1 <= proc <= n:
                raise SimError(f"workload process p{proc} outside 1..{n}, at op {i}")
            if kind == "write" and proc != spec.writer:
                raise SimError(f"workload op {i}: write assigned to p{proc}, but the writer is p{spec.writer}")
            if not (op.payload is None or isinstance(op.payload, str)):
                raise SimError(f"workload op {i}: payload {op.payload!r} is not a string or None")
            if type(at) is not int or at < 0:
                raise SimError(f"workload op {i}: at_step {at!r} is not a non-negative integer")
            self._queue[proc].append(i)

        self.step = 0
        self.records: list[tuple] = []
        self.procs = {p: ProcessCore(p, spec, quorum) for p in range(1, n + 1)}
        self._readers = spec.readers
        self.registers = {reg: INITIAL_VALUE for reg in spec.registers}
        self.network: dict[str, Message] = {}  # insertion order = send order
        self._send_seq = {p: 0 for p in range(1, n + 1)}
        self._inbox: dict[int, dict[str, int]] = {p: {} for p in range(1, n + 1)}
        self.ops = [OpRecord(op.kind, op.proc) for op in self.workload]
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

    @property
    def trace(self) -> RecordTrace:
        """The run's events: a live, read-only view of `records` that
        renders each event by `trace.render` when it is read, so every
        read returns new dicts and sees every record appended so far."""
        return RecordTrace(self.records)

    def read(self, reg, by: int) -> TaggedValue:
        """R_i[q]'s value, for a member `by` of S_i; else AccessError."""
        if by not in self._readers.get(reg, ()):
            raise AccessError(f"p{by} cannot read R_{reg[0]}[p{reg[1]}]")
        value = self.registers[reg]
        self.records.append((self.step, "reg-read", by, reg, value))
        self.step += 1
        return value

    def write(self, reg, by: int, value: TaggedValue) -> None:
        """Set R_i[q] to value, for its owner `by` = q; else AccessError."""
        if not (reg in self._readers and reg[1] == by):
            raise AccessError(f"p{by} cannot write R_{reg[0]}[p{reg[1]}]")
        self.registers[reg] = value
        self.records.append((self.step, "reg-write", by, reg, value))
        self.step += 1

    def _route(self, msgs) -> None:
        if not msgs:
            return
        send_seq, network, inbox, mode, deliverable = (
            self._send_seq, self.network, self._inbox, self._mode, self._deliverable)
        records, step = self.records, self.step
        append, no = records.append, len(records)
        for msg in msgs:
            sender, dest = msg.sender, msg.dest
            seq = send_seq[sender] = send_seq[sender] + 1
            mid = f"{sender}.{seq}"
            network[mid] = msg
            inbox[dest][mid] = no
            if mode[dest] == _OPEN:
                deliverable.append(no)  # the newest send sorts last
            append((step, "send", sender, mid, msg))
            step += 1
            no += 1
        self.step = step

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
                for no in self._inbox[p].values():
                    del deliverable[bisect_left(deliverable, no)]
            elif old == _SCAN:
                self._scanning.remove(p)
            if mode == _OPEN:
                for no in self._inbox[p].values():
                    insort(deliverable, no)
            elif mode == _SCAN:
                insort(self._scanning, p)

        # The op at the head of each live idle process's queue is ready;
        # a running op heads its queue too, but its process is not idle.
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

    # -- event surface -----------------------------------------------------

    def enabled(self) -> list[tuple]:
        """Enabled events in a fixed deterministic order: workload
        invocations, then handler steps by process, then deliveries in
        send order."""
        self._due()
        records = self.records
        return (
            [("invoke", i) for i in self._invokes]
            + [("hstep", p) for p in self._scanning]
            + [("deliver", records[no][3]) for no in self._deliverable]
        )

    def apply(self, ev: tuple) -> None:
        """Fire one event tuple through its transition, the one checked
        way to: raises ScriptError, with nothing fired, unless enabled()
        lists ev, tested against the indexes."""
        self._due()
        kind, x = ev if isinstance(ev, tuple) and len(ev) == 2 else (None, None)
        if kind == "invoke" and type(x) is int and x in self._invokes:  # no bool or float: True == 1, 0.0 == 0
            self._invoke(x)
        elif kind == "hstep" and type(x) is int and x in self._scanning:
            self._hstep(x)
        elif kind == "deliver" and isinstance(x, str) and x in self.network and self._mode[(p := self.network[x].dest)] == _OPEN:
            self._deliver(self._inbox[p][x])
        else:
            raise ScriptError(f"event {ev!r} not enabled at step {self.step}")

    def step_within(self, op: int, side) -> bool:
        """Fire the first event of enabled() that stays inside `side`, a
        set of processes: op's own invocation, a handler step of a side
        member, or a delivery whose sender and destination both lie in
        the side.  False, with nothing fired, when there is none.

        Reads the indexes in enabled()'s order without building the list;
        whatever it finds is enabled, so its transition fires at once.
        """
        self._due()
        for i in self._invokes:
            if i == op:  # fire the index the list holds, an int even if op is True
                self._invoke(i)
                return True
        for p in self._scanning:
            if p in side:
                self._hstep(p)
                return True
        records = self.records
        for no in self._deliverable:
            msg = records[no][4]
            if msg.dest in side and msg.sender in side:
                self._deliver(no)
                return True
        return False

    # -- transitions -------------------------------------------------------
    #
    # One per kind of event, each unchecked: its event must be enabled.
    # Each takes the entry of its band in the indexes (an op index, a
    # pid, a send record's position), appends its records as it goes,
    # re-indexes the one process p it changed and routes p's sends.

    def _invoke(self, idx: int) -> None:
        op = self.workload[idx]
        p = op.proc
        self.ops[idx].invoke_step = self.step
        if op.kind == "write":
            sends = self.procs[p].invoke_write(op.payload)
            # The written tuple is fixed at invocation; record it now so
            # a crash-interrupted write still explains the value readers
            # may have observed.
            value = sends[0].value
        else:
            sends, value = self.procs[p].invoke_read(), None
        self.records.append((self.step, "invoke", p, idx, value))
        self.step += 1
        self._sync(p)
        self._route(sends)

    def _hstep(self, p: int) -> None:
        """Send p's scan the simulator, whose `read` or `write` records
        the access.  A step within a scan changes no index and sends
        nothing; only the step that ends the scan goes on, to route the
        ack."""
        core = self.procs[p]
        try:
            core.scan.send(self)
        except StopIteration as done:
            core.scan = None
            self._sync(p)
            self._route((done.value,))

    def _deliver(self, no: int) -> None:
        """Deliver the message whose send record is records[no].  p is
        re-indexed only when the delivery changes its entries: a W or R
        starts its scan, or an ack completes its op.  Any other ack
        leaves its scan None and its op pending or already done."""
        _, _, _, mid, msg = self.records[no]
        p = msg.dest
        del self.network[mid], self._inbox[p][mid]
        deliverable = self._deliverable
        del deliverable[bisect_left(deliverable, no)]
        self.records.append((self.step, "deliver", p, mid, msg))
        self.step += 1
        core = self.procs[p]
        sends, value = core.deliver(msg)
        if value is not None:  # the op at the head of p's queue responds; it sent nothing
            idx = self._queue[p].popleft()
            self.ops[idx].response_step = self.step
            self.records.append((self.step, "respond", p, idx, value))
            self.step += 1
            self._sync(p)
        elif core.scan is not None:  # a W or R: p was open, so this delivery started the scan
            self._sync(p)
        self._route(sends)

    def is_quiescent(self) -> bool:
        """Nothing is enabled, and no timed invocation is still to come."""
        return not (self._invokes or self._scanning or self._deliverable or self._timed)

    # -- driving -----------------------------------------------------------

    def run(self, schedule: Schedule) -> "Simulator":
        """Drive the run under the schedule's policy, crashing each
        process of its crash plan once the step counter reaches the
        planned step.

        The loop runs under `collector_paused`: each step adds a record,
        a tuple tracked by the collector, so a collection would walk a
        heap that grows with the run, and free nothing, since a run
        builds no reference cycle.  The records outlive the loop, so a
        caller that keeps them pays one walk of them after the run; one
        that drops them under its own pause, as `cli.fuzz` does, pays
        none.  The loop renders no dict event, and `trace` renders each
        one only as it is read.
        Each turn of the loop calls the policy, which fires one event.
        """
        n = self.spec.n
        if type(schedule.seed) is not int:  # None would seed from the OS; bool is an int subclass
            raise SimError(f"seed {schedule.seed!r} is not an integer")
        if schedule.seed < 0:  # random.Random(-s) seeds from s
            raise SimError(f"seed {schedule.seed} is negative")
        if schedule.script and schedule.policy != "scripted":
            raise SimError(f"policy {schedule.policy!r} reads no script; only \"scripted\" replays one")
        try:
            plan = tuple(schedule.crash_plan)
        except TypeError:  # not iterable
            raise SimError(f"crash plan {schedule.crash_plan!r} is not a collection of (process, step) pairs") from None
        for entry in plan:
            if not (isinstance(entry, tuple) and len(entry) == 2 and all(type(x) is int for x in entry)):  # bool is an int subclass
                raise SimError(f"crash plan entry {entry!r} is not a pair of integers")
            p, step = entry
            if not 1 <= p <= n:
                raise SimError(f"crash of p{p} outside 1..{n}")
            if step < 0:
                raise SimError(f"crash of p{p} at negative step {step}")
            if p in self.crashed:  # a second run on the same simulator
                raise SimError(f"crash of p{p}, which has already crashed")
        if len({p for p, _ in plan}) != len(plan):
            raise SimError("crash plan names a process twice")
        crashes = deque(sorted(plan, key=lambda cs: (cs[1], cs[0])))
        chooser = _make_chooser(self, schedule)
        invokes, scanning, deliverable, timed = self._invokes, self._scanning, self._deliverable, self._timed
        with collector_paused():
            while True:
                while crashes and crashes[0][1] <= self.step:
                    p, _ = crashes.popleft()
                    self.crashed.add(p)
                    self.records.append((self.step, "crash", p, None, None))
                    self.step += 1
                    self._sync(p)
                if timed and timed[0][0] <= self.step:
                    self._due()
                if not (invokes or scanning or deliverable):
                    if not timed:
                        break
                    self.step = timed[0][0]  # idle tick until the next timed invocation
                    continue
                chooser()
                if self.step > MAX_STEPS:
                    raise SimError(f"step budget {MAX_STEPS} exceeded")
        left = tuple(chooser.rest) if schedule.policy == "scripted" else ()
        if left:
            raise ScriptError(f"run quiescent at step {self.step} with {len(left)} script event(s) left, from {left[0]!r}")
        return self


def _make_chooser(sim: Simulator, schedule: Schedule):
    """The schedule's policy, as a function that fires one enabled event
    of `sim` per call.  The fair and fifo policies draw a band entry off
    the indexes and pass it to that band's transition, bound here, so
    no event tuple is built; the scripted policy fires each script
    event through `sim.apply`, which checks it."""
    invokes, scanning, deliverable, records = sim._invokes, sim._scanning, sim._deliverable, sim.records
    invoke, hstep, deliver = sim._invoke, sim._hstep, sim._deliver
    if schedule.policy == "fifo":  # the head of enabled(), off its bands in order
        return lambda: invoke(invokes[0]) if invokes else hstep(scanning[0]) if scanning else deliver(deliverable[0])
    if schedule.policy == "fair":
        getrandbits = random.Random(schedule.seed).getrandbits
        age_limit = sim.spec.n * sim.spec.n + 16

        def choose():
            # Aging: force the oldest deliverable message once it has
            # waited too long, so every message eventually arrives.
            if deliverable:
                no = deliverable[0]
                if sim.step - records[no][0] > age_limit:  # the step it was sent
                    deliver(no)
                    return
            # The draw of rng.choice(sim.enabled()) without building the
            # list: CPython 3.10-3.13's _randbelow_with_getrandbits(k),
            # inlined to skip randrange's argument handling.
            # TestFairChooserAgainstOracle (against rng.choice) and the
            # golden digests hold it to that loop.
            ni, ns = len(invokes), len(scanning)
            k = ni + ns + len(deliverable)
            bits = k.bit_length()
            i = getrandbits(bits)
            while i >= k:
                i = getrandbits(bits)
            # Event i of enabled(), read off its bands in order.
            if i < ni:
                invoke(invokes[i])
            elif i < ni + ns:
                hstep(scanning[i - ni])
            else:
                deliver(deliverable[i - ni - ns])

        return choose
    if schedule.policy == "scripted":
        try:
            it = iter(schedule.script)
        except TypeError:
            raise ScriptError(f"script {schedule.script!r} is not a sequence of events") from None

        def scripted():
            try:
                entry = next(it)
            except StopIteration:
                raise ScriptError("script ended with events still enabled") from None
            try:
                ev = tuple(entry)
            except TypeError:  # not iterable
                raise ScriptError(f"script event {entry!r} at step {sim.step} is not an event") from None
            sim.apply(ev)

        scripted.rest = it  # run requires it empty at quiescence
        return scripted
    raise SimError(f"unknown policy {schedule.policy!r}")


def run_simulation(spec: SystemSpec, t: int, workload, schedule: Schedule) -> Simulator:
    return Simulator(spec, t, workload).run(schedule)

