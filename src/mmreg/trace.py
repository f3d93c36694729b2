"""The trace of a run: its JSONL format, the reader, and the one pass
that projects it.

A trace is the list of a run's events in step order; a trace file
holds one per line, as {"step", "kind", "actor", "payload"}, with the
kinds and payload fields listed in the README.  The simulator appends
the events, and everything else reads them through this module.
`emit_trace` writes each event as it encodes it, `load_trace` yields a
file's events one at a time, and `project` reads any iterable of events
once, building all its parts together: the op records, the per-register
monotonicity result and the crashed set.  So writing a trace file holds
one line, and checking one O(ops + registers), not every event.  A
trace is outside input: the reader holds each line, and the pass each
event and op record (`check_record`), to its rule.  The first malformed
line or event raises, naming it (event i is line i of a file written
by `emit_trace`) or its op, and nothing after it is read.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

KINDS = ("invoke", "respond", "send", "deliver", "reg-read", "reg-write", "crash")


class TraceError(ValueError):
    """Malformed trace input."""


class HistoryError(ValueError):
    """Malformed history input."""


def check_record(h, i: int | None = None) -> None:
    """The rule for one op record, raising HistoryError: a dict with
    integer steps, a response after its invocation and, on a completed
    read, a value; a value is [sn, payload] with an integer sn.  i is
    the record's position in its history, named if it is not a dict."""
    if not isinstance(h, dict):
        raise HistoryError(f"history[{i}] is {h!r}, not an op record (a dict)")
    invoke, response, value = h.get("invoke"), h.get("response"), h.get("value")
    if type(invoke) is not int:
        if invoke is None and response is not None:
            raise HistoryError(f"op {h.get('op')} has a response but no invocation")
        raise HistoryError(f"op {h.get('op')} has invoke step {invoke!r}, not an integer")
    if response is not None:
        if type(response) is not int:
            raise HistoryError(f"op {h['op']} has response step {response!r}, not an integer")
        if response <= invoke:
            raise HistoryError(f"op {h['op']} responds at or before its invocation")
        if value is None and h["kind"] == "read":
            raise HistoryError(f"completed read {h['op']} has no value")
    if value is not None and not (isinstance(value, (list, tuple)) and value and type(value[0]) is int):
        raise HistoryError(f"op {h['op']} has value {value!r}, not [sn, payload] with an integer sn")


# One C encoder for every event, built once (JSONEncoder.encode builds one
# per call), with the settings of JSONEncoder(separators=(",", ":")).  It
# relies on CPython's _json accelerator, whose constructor signature is the
# same on 3.10-3.13.  Events are trees, built by the simulator or decoded
# from JSON, so markers=None skips the circular-reference check: a cyclic
# event raises RecursionError, and a failed encode leaves no stale marker.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_ENCODE = c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan)

# One decoder for every line: json.loads adds a Python-level wrapper and
# two whitespace matches to each call, and a stripped line needs neither.
_DECODE = json.JSONDecoder().raw_decode


def trace_lines(trace) -> list[str]:
    encode, join = _ENCODE, "".join
    return [join(encode(ev, 0)) for ev in trace]


def emit_trace(trace, path) -> None:
    """Newline-delimited JSON, one event per line, stable field order:
    the lines of `trace_lines`, each ended by "\\n".  Each event is
    written as it is encoded, so the writer holds one line, not all of
    them.  If an event fails to encode, or `trace` itself raises, the
    exception propagates and a file (anything seekable) is left empty."""
    encode, join = _ENCODE, "".join
    with open(Path(path), "w", encoding="utf-8") as f:
        write = f.write
        try:
            for ev in trace:
                write(join(encode(ev, 0)))
                write("\n")
        except BaseException:  # no partial trace: cut what was written, then re-raise
            if f.seekable():
                f.seek(0)
                f.truncate()
            raise


def load_trace(path):
    """The events of a JSONL trace file, yielded as its lines are read.
    A line ends at "\n" and holds one JSON object, or only whitespace,
    once decoded as UTF-8; any other line raises TraceError."""
    with open(Path(path), "rb") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                ev, end = _DECODE(line)
            except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
                end = None
            if end != len(line) or not isinstance(ev, dict):
                raise TraceError(f"trace line {lineno} is not a JSON object")
            yield ev


def _unknown_kind(i: int, kind) -> TraceError:
    return TraceError(f"trace event {i} has kind {kind!r}, not one of {', '.join(KINDS)}")


def _not_object(i: int, ev) -> TraceError:
    return TraceError(f"trace event {i} is {ev!r}, not an object")


def _of_kind(trace, wanted):
    """(i, kind, event) for each event whose kind is in `wanted`, i
    counting from 1.  Raises TraceError on an event that is not an
    object or has a kind outside KINDS."""
    for i, ev in enumerate(trace, 1):
        if type(ev) is not dict:
            raise _not_object(i, ev)
        kind = ev.get("kind")
        if kind in wanted:
            yield i, kind, ev
        elif kind not in KINDS:
            raise _unknown_kind(i, kind)


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


def _op_event(records: dict, i: int, kind: str, ev: dict) -> None:
    """Fold one invoke or respond event into its op record and check
    it.  A write's value is fixed at invocation, a read's at its response."""
    payload, step = _payload(i, kind, ev), ev.get("step")
    op = payload.get("op")
    if type(op) is not int:
        raise _bad(i, kind, "op", op, "an integer")
    rec = records.get(op)
    if kind == "invoke":
        if rec is not None:
            raise TraceError(f"op {op} is invoked twice")
        op_kind = payload.get("kind")
        if op_kind != "read" and op_kind != "write":
            raise TraceError(f'op {op} has kind {op_kind!r}, not "read" or "write"')
        rec = records[op] = {
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
    elif step is None:
        raise TraceError(f"op {op} responds with no step")
    else:
        rec["response"] = step
        rec["value"] = payload["value"]
    check_record(rec)


def _register_write(i: int, kind: str, ev: dict) -> tuple:
    """(step, actor, register, sn) of a reg-write event, the register as
    a (set index, owner) tuple; the step is not read as a number."""
    payload = _payload(i, kind, ev)
    reg, value = payload.get("register"), payload.get("value")
    if not (isinstance(reg, (list, tuple)) and len(reg) == 2 and type(reg[0]) is int and type(reg[1]) is int):
        raise _bad(i, kind, "register", reg, "[set index, owner]")
    if not (isinstance(value, (list, tuple)) and value and type(value[0]) is int):
        raise _bad(i, kind, "value", value, "[sn, payload] with an integer sn")
    return ev.get("step"), _actor(i, kind, ev), (reg[0], reg[1]), value[0]


class Projection(NamedTuple):
    """The parts of a trace, as `project` builds them:

    - history: the op records, sorted by op: op, kind, proc, invoke and
      response steps, and value;
    - mono: (step, register, previous sn, sn) for each register write
      whose sn is below the one written to that register before it;
    - crashed: the actors of the crash events."""

    history: list[dict]
    mono: list[tuple]
    crashed: set[int]


def project(trace) -> Projection:
    """One pass over the events of `trace`, any iterable, building every
    part of the Projection together.  The first malformed event raises,
    and the pass reads no further: besides an event that is not an
    object and bad fields, an op invoked or responding twice, responding
    before any invoke, with no value or no step, or leaving a record
    that breaks `check_record`."""
    records, last, decreases, crashed = {}, {}, [], set()
    for i, ev in enumerate(trace, 1):
        if type(ev) is not dict:
            raise _not_object(i, ev)
        kind = ev.get("kind")
        if kind == "reg-write":
            step, _, reg, sn = _register_write(i, kind, ev)
            prev = last.get(reg)
            if prev is not None and sn < prev:
                decreases.append((step, reg, prev, sn))
            last[reg] = sn
        elif kind == "send" or kind == "deliver" or kind == "reg-read":
            continue  # no part reads these
        elif kind == "invoke" or kind == "respond":
            _op_event(records, i, kind, ev)
        elif kind == "crash":
            crashed.add(_actor(i, kind, ev))
        else:
            raise _unknown_kind(i, kind)
    return Projection([records[k] for k in sorted(records)], decreases, crashed)


def history_from_trace(trace) -> list[dict]:
    """The run's operation records (see Projection), rebuilt from its
    invoke and respond events.  This is the one way a history is built,
    so the checker sees a run and its emitted trace alike."""
    return project(trace).history


def register_writes(trace) -> list[tuple]:
    """(step, actor, register, sn) for each reg-write event in trace
    order, the register as a (set index, owner) tuple."""
    return [_register_write(i, kind, ev) for i, kind, ev in _of_kind(trace, ("reg-write",))]


def schedule_from_trace(trace) -> tuple:
    """The replayable choice sequence of a completed trace.  An invoke
    whose op is not an integer, or a deliver whose id is not a string,
    raises TraceError."""
    script = []
    for i, kind, ev in _of_kind(trace, ("invoke", "deliver", "reg-read", "reg-write")):
        if kind == "invoke":
            op = _payload(i, kind, ev).get("op")
            if type(op) is not int:
                raise _bad(i, kind, "op", op, "an integer")
            script.append(("invoke", op))
        elif kind == "deliver":
            msg_id = _payload(i, kind, ev).get("id")
            if type(msg_id) is not str:
                raise _bad(i, kind, "id", msg_id, "a string")
            script.append(("deliver", msg_id))
        else:
            script.append(("hstep", _actor(i, kind, ev)))
    return tuple(script)
