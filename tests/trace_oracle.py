"""Test-only oracle: the trace reader and the three trace scans as the
library ran them before `mmreg check` became one streaming pass.  The
reader holds every event of a file in a list, and `check_all` reads its
trace once per projection: the history, the register writes and the
crashed set.  The history scan holds each op record to the library's
`check_record` after each op event.  A malformed event rejects the
trace, whatever the selection: `check_all` raises the error of the
shortest prefix on which one of the scans raises, which names the first
malformed event.
The differential tests in test_trace.py hold the one-pass `check_all`
and `mmreg check` to exactly these verdicts and error messages."""

import json
from bisect import bisect_left
from pathlib import Path

from mmreg.checker import (
    PROPERTIES,
    HistoryError,
    Verdict,
    Violation,
    check_completion,
    check_property1,
    check_property2,
)
from mmreg.trace import KINDS, TraceError, check_record


def read_trace(path) -> tuple[list[dict], TraceError | None]:
    """The events of a JSONL trace file before its first bad line, and
    the TraceError of that line (None if every line is good): a line,
    read as bytes up to "\n", is bad unless it is blank or json.loads
    of its UTF-8 text gives an object."""
    out = []
    with open(Path(path), "rb") as f:
        for lineno, line in enumerate(f, 1):
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                ev = json.loads(text)
            except (ValueError, RecursionError):
                ev = None
            if not isinstance(ev, dict):
                return out, TraceError(f"trace line {lineno} is not a JSON object")
            out.append(ev)
    return out, None


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
    no invoke before it, or with no value or step, and check_record's
    HistoryError on the first op event that leaves a record breaking
    it."""
    records: dict[int, dict] = {}
    for i, kind, ev in _of_kind(trace, ("invoke", "respond")):
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
    return [records[k] for k in sorted(records)]


def crashed_from_trace(trace) -> set[int]:
    return {_actor(i, kind, ev) for i, kind, ev in _of_kind(trace, ("crash",))}


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


def check_monotonicity(trace) -> Verdict:
    """Per register, successive written sequence numbers never decrease."""
    last: dict[tuple, int] = {}
    violations = []
    for step, _, reg, sn in register_writes(trace):
        prev = last.get(reg)
        if prev is not None and sn < prev:
            violations.append(
                Violation(
                    "MONO",
                    (),
                    f"register R_{reg[0]}[p{reg[1]}] went from sn={prev} to sn={sn} at step {step}",
                )
            )
        last[reg] = sn
    return Verdict(tuple(violations))


def _scan_error(trace) -> ValueError | None:
    """The TraceError or HistoryError that one of the three scans
    raises on `trace`."""
    try:
        history_from_trace(trace)
        list(register_writes(trace))
        crashed_from_trace(trace)
    except (TraceError, HistoryError) as e:
        return e
    return None


def first_error(trace) -> ValueError | None:
    """The error of the shortest prefix of `trace` on which one of the
    three scans raises, or None if none raises on the whole trace.  A
    scan that raises on a prefix raises on every longer one, so the
    prefix is found by bisection."""
    trace = list(trace)
    if _scan_error(trace) is None:
        return None
    k = bisect_left(range(len(trace)), True, key=lambda k: _scan_error(trace[:k]) is not None)
    return _scan_error(trace[:k])


def check_all(trace, history=None, crashed=None, t: int | None = None, props=PROPERTIES) -> Verdict:
    """The selected properties over one run: "1" and "2" are Property 1
    and Property 2, "mono" register monotonicity, and "live" completion,
    with the crashed processes read from the trace unless supplied.  A
    trace on which `first_error` finds an error raises it, whatever the
    selection or the parts supplied, and so does a supplied history
    that breaks `check_record`."""
    if not props or not set(props) <= set(PROPERTIES):
        raise HistoryError(f"properties {','.join(props)!r} not a selection from {','.join(PROPERTIES)}")
    error = first_error(trace)
    if error is not None:
        raise error
    if history is None:
        history = history_from_trace(trace)
    for i, h in enumerate(history):
        check_record(h, i)
    violations = ()
    if "1" in props:
        violations += check_property1(history).violations
    if "2" in props:
        violations += check_property2(history).violations
    if "mono" in props:
        violations += check_monotonicity(trace).violations
    if "live" in props:
        if crashed is None:
            crashed = crashed_from_trace(trace)
        violations += check_completion(history, crashed, t).violations
    return Verdict(violations)
