"""Synthetic single-writer traces for the checker, and seeded negative controls.

``clean_trace`` builds an atomic history by construction: every
operation takes effect at one linearization point inside its interval
(a write at its first register write, a read at a seeded moment while it
is pending) and a read returns the last write linearized before it.
Linearizable single-writer histories satisfy Property 1 and Property 2,
per-register sequence numbers only grow because writes are sequential,
and no process crashes, so every operation responds.

The controls copy a clean trace and inject one violation each, of a
kind the checker must report: a stale read (P1), a read inversion (P2)
and a register whose sequence number goes down (MONO).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Injected:
    """One injected violation: the property and how to recognise it."""

    prop: str
    ops: tuple  # operation ids the report must name (P1, P2)
    step: int | None = None  # step of the bad register write (MONO)


# A register workload is read-mostly: seven in ten operations are reads.
READ_SHARE = 0.7
# Up to this many reads are pending at once, so that many reads overlap
# each other and each write, which is what makes Property 2 all-pairs.
MAX_PENDING_READS = 16


def clean_trace(spec, rng: random.Random, n_ops: int) -> list[dict]:
    """A trace of ``n_ops`` operations, ``READ_SHARE`` of them reads by
    processes other than the writer, with up to ``MAX_PENDING_READS``
    reads pending at once."""
    left = {"write": round(n_ops * (1 - READ_SHARE))}
    left["read"] = n_ops - left["write"]
    readers = [p for p in range(1, spec.n + 1) if p != spec.writer]
    owners = [p for p in range(1, spec.n + 1)]

    trace: list[dict] = []

    def emit(kind, actor, payload):
        trace.append({"step": len(trace), "kind": kind, "actor": actor, "payload": payload})

    current = [0, None]  # last linearized (sn, payload)
    sn = 0
    write = None  # pending write: op id, value, registers left, linearized?
    reads: dict[int, list] = {}  # reader -> [op id, value or None]
    op_id = 0
    while op_id < n_ops or write is not None or reads:
        startable = []
        if left["write"] and write is None:
            startable += ["write"] * left["write"]
        if left["read"] and len(reads) < min(MAX_PENDING_READS, len(readers)):
            startable += ["read"] * left["read"]
        actions = ["invoke"] if startable else []
        if write is not None:
            actions.append("write-step")
        if reads:
            actions.append("read-step")
        action = rng.choice(actions)
        if action == "invoke":
            kind = rng.choice(startable)
            left[kind] -= 1
            if kind == "write":
                sn += 1
                value = [sn, f"v{sn}"]
                regs = []
                for q in sorted(rng.sample(owners, 3)):
                    regs.extend(spec.writable_registers(q))
                write = {"op": op_id, "value": value, "regs": regs, "lin": False}
                emit("invoke", spec.writer, {"op": op_id, "kind": "write", "value": value})
            else:
                idle = [p for p in readers if p not in reads]
                proc = rng.choice(idle)
                reads[proc] = [op_id, None]
                emit("invoke", proc, {"op": op_id, "kind": "read"})
            op_id += 1
        elif action == "write-step":
            if write["regs"]:
                reg = write["regs"].pop(0)
                if not write["lin"]:
                    write["lin"] = True
                    current = write["value"]
                emit("reg-write", reg[1], {"register": list(reg), "value": list(write["value"])})
            else:
                emit("respond", spec.writer, {"op": write["op"], "value": list(write["value"])})
                write = None
        else:
            proc = rng.choice(sorted(reads))
            pending = reads[proc]
            if pending[1] is None:
                pending[1] = list(current)  # linearization point, no event
            else:
                emit("respond", proc, {"op": pending[0], "value": pending[1]})
                del reads[proc]
    return trace


def _ops(trace) -> dict[int, dict]:
    ops: dict[int, dict] = {}
    for ev in trace:
        p = ev["payload"]
        if ev["kind"] == "invoke":
            ops[p["op"]] = {"kind": p["kind"], "invoke": ev["step"], "value": p.get("value")}
        elif ev["kind"] == "respond":
            ops[p["op"]]["response"] = ev["step"]
            ops[p["op"]]["value"] = p["value"]
    return ops


def _with_value(trace, step: int, value) -> list[dict]:
    """A copy of the trace whose event at ``step`` carries ``value``.
    Steps of a clean trace are list indices."""
    out = list(trace)
    ev = out[step]
    out[step] = {**ev, "payload": {**ev["payload"], "value": list(value)}}
    return out


def stale_read(trace, rng: random.Random) -> tuple[list[dict], Injected]:
    """A read whose write w_k completed before it now returns w_{k-1}:
    w_k fully separates w_{k-1} from the read."""
    ops = _ops(trace)
    writes = {o["value"][0]: o for o in ops.values() if o["kind"] == "write"}
    candidates = [
        op_id
        for op_id, o in ops.items()
        if o["kind"] == "read"
        and o["value"][0] >= 2
        and writes[o["value"][0]]["response"] < o["invoke"]
    ]
    if not candidates:
        raise ValueError("no read follows two completed writes")
    op_id = rng.choice(candidates)
    older = writes[ops[op_id]["value"][0] - 1]["value"]
    return _with_value(trace, ops[op_id]["response"], older), Injected("P1", (op_id,))


def read_inversion(trace, rng: random.Random) -> tuple[list[dict], Injected]:
    """Two reads r1 before r2, both overlapping write w_k; r1 returned
    w_k and r2 now returns w_{k-1}.  Property 1 still holds for r2
    (w_k is concurrent with it), so only Property 2 is broken."""
    ops = _ops(trace)
    writes = {o["value"][0]: o for o in ops.values() if o["kind"] == "write"}
    initial = [0, None]
    by_value: dict[int, list] = {}
    for op_id, o in ops.items():
        if o["kind"] == "read":
            by_value.setdefault(o["value"][0], []).append((op_id, o))
    candidates = []
    for k, group in sorted(by_value.items()):
        if k < 1:
            continue
        wk = writes[k]
        for r1_id, r1 in group:
            for r2_id, r2 in group:
                if r1["response"] < r2["invoke"] < wk["response"]:
                    candidates.append((r1_id, r2_id, k))
    if not candidates:
        raise ValueError("no pair of reads overlaps one write")
    r1_id, r2_id, k = rng.choice(candidates)
    older = writes[k - 1]["value"] if k > 1 else initial
    return _with_value(trace, ops[r2_id]["response"], older), Injected("P2", (r1_id, r2_id))


def register_regression(trace, rng: random.Random) -> tuple[list[dict], Injected]:
    """A later write to some register carries a smaller sequence number
    than the write before it."""
    last: dict[tuple, int] = {}
    candidates = []
    for ev in trace:
        if ev["kind"] != "reg-write":
            continue
        reg = tuple(ev["payload"]["register"])
        if reg in last:
            candidates.append((ev["step"], last[reg]))
        last[reg] = ev["payload"]["value"][0]
    if not candidates:
        raise ValueError("no register is written twice")
    step, prev_sn = rng.choice(candidates)
    out = _with_value(trace, step, [prev_sn - 1, trace[step]["payload"]["value"][1]])
    return out, Injected("MONO", (), step=step)


CONTROLS = (stale_read, read_inversion, register_regression)


def detected(injected: Injected, violations: list[dict]) -> bool:
    """Whether a checker report (``{"prop", "ops", "reason"}`` dicts)
    names the injected violation."""
    for v in violations:
        if v["prop"] != injected.prop:
            continue
        if injected.prop == "MONO":
            if v["reason"].endswith(f"at step {injected.step}"):
                return True
        elif injected.prop == "P1":
            if injected.ops[0] in v["ops"]:
                return True
        elif tuple(v["ops"]) == injected.ops:
            return True
    return False
