"""The trace of a run: its JSONL format, the reader, and every
projection of it.

A trace is the list of a run's events in step order; a trace file
holds one per line, as {"step", "kind", "actor", "payload"}, with the
kinds and payload fields listed in the README.  The simulator appends
the events, and everything else reads them through this module.  A
trace file is outside input, so each projection checks the fields it
reads, and only those, and raises TraceError naming the event (event i
is line i of a file written by `emit_trace`) or the op.
"""

from __future__ import annotations

import json
from pathlib import Path

KINDS = ("invoke", "respond", "send", "deliver", "reg-read", "reg-write", "crash")


class TraceError(ValueError):
    """Malformed trace input."""


# One encoder for every event: json.dumps with non-default separators
# builds a new JSONEncoder on each call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def trace_lines(trace) -> list[str]:
    encode = _ENCODER.encode
    return [encode(ev) for ev in trace]


def emit_trace(trace, path) -> None:
    """Newline-delimited JSON, one event per line, stable field order."""
    with open(Path(path), "w", encoding="utf-8") as f:
        for line in trace_lines(trace):
            f.write(line)
            f.write("\n")


def load_trace(path) -> list[dict]:
    """The events of a JSONL trace file.  Raises TraceError on a line
    that is not a JSON object."""
    out = []
    with open(Path(path), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line:
                ev = json.loads(line)
                if not isinstance(ev, dict):
                    raise TraceError(f"trace line {lineno} is not a JSON object")
                out.append(ev)
    return out


def _of_kind(trace, wanted):
    """(i, kind, event) for each event whose kind is in `wanted`, i
    counting from 1.  Raises TraceError on a kind outside KINDS."""
    for i, ev in enumerate(trace, 1):
        kind = ev.get("kind")
        if kind in wanted:
            yield i, kind, ev
        elif kind not in KINDS:
            raise TraceError(f"trace event {i} has kind {kind!r}, not one of {', '.join(KINDS)}")


def _bad(i: int, kind: str, field: str, value, expected: str) -> TraceError:
    return TraceError(f"{kind} event {i} has {field} {value!r}, not {expected}")


def _actor(i: int, kind: str, ev: dict) -> int:
    actor = ev.get("actor")
    if type(actor) is not int:  # bool is an int subclass
        raise _bad(i, kind, "actor", actor, "an integer")
    return actor


def _payload(i: int, kind: str, ev: dict) -> dict:
    payload = ev.get("payload")
    if type(payload) is not dict:
        raise _bad(i, kind, "payload", payload, "an object")
    return payload


def history_from_trace(trace) -> list[dict]:
    """The run's operation records, rebuilt from its invoke and respond
    events: op, kind, proc, invoke and response steps, and value (a
    write's value is fixed at invocation, a read's at its response).
    This is the one way a history is built, so the checker sees a run
    and its emitted trace alike.  Besides malformed fields, raises
    TraceError on an op invoked twice, responding twice, responding with
    no invoke before it, or with no value; value shapes are the
    checker's to check."""
    records: dict[int, dict] = {}
    for i, kind, ev in _of_kind(trace, ("invoke", "respond")):
        payload, step = _payload(i, kind, ev), ev.get("step")
        op = payload.get("op")
        if type(op) is not int:
            raise _bad(i, kind, "op", op, "an integer")
        if type(step) is not int:
            raise TraceError(f"{kind} event of op {op} has step {step!r}, not an integer")
        rec = records.get(op)
        if kind == "invoke":
            if rec is not None:
                raise TraceError(f"op {op} is invoked twice")
            op_kind = payload.get("kind")
            if op_kind != "read" and op_kind != "write":
                raise TraceError(f'op {op} has kind {op_kind!r}, not "read" or "write"')
            records[op] = {
                "op": op,
                "kind": op_kind,
                "proc": _actor(i, kind, ev),
                "invoke": step,
                "response": None,
                "value": payload.get("value"),
            }
        elif rec is None:
            raise TraceError(f"op {op} responds but was never invoked")
        elif rec["response"] is not None:
            raise TraceError(f"op {op} responds twice")
        elif "value" not in payload:
            raise TraceError(f"op {op} responds with no value")
        else:
            rec["response"] = step
            rec["value"] = payload["value"]
    return [records[k] for k in sorted(records)]


def crashed_from_trace(trace) -> set[int]:
    return {_actor(i, kind, ev) for i, kind, ev in _of_kind(trace, ("crash",))}


def schedule_from_trace(trace) -> tuple:
    """The replayable choice sequence of a completed trace."""
    script = []
    for i, kind, ev in _of_kind(trace, ("invoke", "deliver", "reg-read", "reg-write")):
        if kind == "invoke":
            script.append(("invoke", _payload(i, kind, ev).get("op")))
        elif kind == "deliver":
            script.append(("deliver", _payload(i, kind, ev).get("id")))
        else:
            script.append(("hstep", _actor(i, kind, ev)))
    return tuple(script)


def register_writes(trace):
    """(step, actor, register, sn) for each reg-write event in trace
    order, the register as a (set index, owner) tuple."""
    for i, kind, ev in _of_kind(trace, ("reg-write",)):
        payload = _payload(i, kind, ev)
        reg, value = payload.get("register"), payload.get("value")
        if not (isinstance(reg, (list, tuple)) and len(reg) == 2 and type(reg[0]) is int and type(reg[1]) is int):
            raise _bad(i, kind, "register", reg, "[set index, owner]")
        if not (isinstance(value, (list, tuple)) and value and type(value[0]) is int):
            raise _bad(i, kind, "value", value, "[sn, payload] with an integer sn")
        yield ev.get("step"), _actor(i, kind, ev), tuple(reg), value[0]
