"""The trace of a run: its JSONL format, the reader, and the passes
that project it.

A trace is the list of a run's events in step order; a trace file
holds one per line, as {"step", "kind", "actor", "payload"}, with the
kinds and payload fields listed in the README.  The simulator keeps a
run's trace as records, one flat tuple (step, kind, actor, a, b) per
event holding the objects it already has, and `render` is the one
statement of the dict event a record stands for.

A run is read through its view, `Simulator.trace`: a `RecordTrace`
that holds no dict and renders each event as it is read.  Every pass
takes a view where it takes any other iterable of events, such as a
file's, and only this module tells the two apart: `_record_lines`
writes a view's lines from its records, for `trace_lines` and
`emit_trace` alike, joining each line's step to text encoded once per
pass for each register head (kind, actor, register), value and send
or deliver head (kind, actor), and once for a message's send and its
deliver; and `project` of a view is `_project_records` of its
records, by the same op-record and monotonicity rules, with no event
rendered.  Any other iterable is encoded by the C encoder, the
reference `_record_lines` is tested against, and projected event by
event.
`emit_trace` writes each event as it encodes it, `load_trace` yields a
file's events one at a time, reading the file in blocks of whole lines
(each decoded as UTF-8 at once, split at "\\n", and each line decoded
by the C scanner), and `project` reads any trace once, building all
its parts together: the op records, the per-register monotonicity
result and the crashed set.  So writing a trace file holds one line,
besides, for a view, the texts of the distinct heads and values and
the payload texts of the messages not yet delivered, and checking one
block of lines and O(ops + registers), not every event.  A trace is
outside input: the reader holds each line, and `project` each event
and op record (`check_record`), to its rule.  The first malformed line
or event raises, naming it (event i is line i of a file written by
`emit_trace`) or its op, and no event after it is yielded.  Each op
record is held to `check_record` once, at its response or, pending, at
the end, and at its invocation only if that breaks the rule.  Records
are the simulator's own, so only their op records are checked.
The history either way builds is marked checked, so `checker` does not
check it again.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import eq
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
    read, a value; a value is [sn, payload] with an integer sn; the
    kind is "read" or "write" and the proc an integer.  i is the
    record's position in its history, named if it is not a dict."""
    if not isinstance(h, dict):
        raise HistoryError(f"history[{i}] is {h!r}, not an op record (a dict)")
    invoke, response, value, kind = h.get("invoke"), h.get("response"), h.get("value"), h.get("kind")
    if type(invoke) is not int:
        if invoke is None and response is not None:
            raise HistoryError(f"op {h.get('op')} has a response but no invocation")
        raise HistoryError(f"op {h.get('op')} has invoke step {invoke!r}, not an integer")
    if response is not None:
        if type(response) is not int:
            raise HistoryError(f"op {h.get('op')} has response step {response!r}, not an integer")
        if response <= invoke:
            raise HistoryError(f"op {h.get('op')} responds at or before its invocation")
        if value is None and kind == "read":
            raise HistoryError(f"completed read {h.get('op')} has no value")
    if value is not None and not (isinstance(value, (list, tuple)) and value and type(value[0]) is int):
        raise HistoryError(f"op {h.get('op')} has value {value!r}, not [sn, payload] with an integer sn")
    if kind != "read" and kind != "write":
        raise HistoryError(f'op {h.get("op")} has kind {kind!r}, not "read" or "write"')
    if type(h.get("proc")) is not int:  # bool is an int subclass
        raise HistoryError(f"op {h.get('op')} has proc {h.get('proc')!r}, not an integer")


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

# One scanner for every line: json.loads adds a Python-level wrapper and
# two whitespace matches to each call, and raw_decode a wrapper that turns
# the scanner's StopIteration into a JSONDecodeError; a stripped line
# needs none of them.
_SCAN = json.JSONDecoder().scan_once

# The size of a read of a trace file.
_BLOCK = 1 << 16


def _lines(trace):
    """The lines of `trace`, one per event, as an iterator: a view's
    from its records by `_record_lines`, any other iterable's by the C
    encoder."""
    if type(trace) is RecordTrace:
        return _record_lines(trace.records)
    return map("".join, map(_ENCODE, trace, repeat(0)))


def trace_lines(trace) -> list[str]:
    return list(_lines(trace))


def emit_trace(trace, path) -> None:
    """Newline-delimited JSON, one event per line, stable field order:
    the lines of `trace_lines`, each ended by "\\n".  Each event is
    written as it is encoded, so the writer holds one line, not all of
    them, and, for a view, the texts of its distinct heads and values
    and the payload texts of undelivered messages.
    If an event fails to encode, or `trace` itself raises, the
    exception propagates and a file (anything seekable) is left empty."""
    with open(Path(path), "w", encoding="utf-8") as f:
        write = f.write
        try:
            for line in _lines(trace):
                write(line)
                write("\n")
        except BaseException:  # no partial trace: cut what was written, then re-raise
            if f.seekable():
                f.seek(0)
                f.truncate()
            raise


def _runs(f):
    """The bytes of binary file f in runs of whole lines, each a read of
    `_BLOCK` bytes cut after its last "\\n", joined to what the read
    before left; the last run is what follows the file's last "\\n", if
    anything.  A line longer than a block is collected read by read and
    joined once, so no byte is copied again for each further read."""
    parts = []
    while block := f.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if not cut:
            parts.append(block)
            continue
        parts.append(block if cut == len(block) else block[:cut])
        yield b"".join(parts) if len(parts) > 1 else parts[0]
        parts = [block[cut:]] if cut < len(block) else []
    if parts:
        yield b"".join(parts)


def load_trace(path):
    """The events of a JSONL trace file, yielded one at a time.  A line
    ends at "\\n" and holds one JSON object, or only whitespace, once
    decoded as UTF-8; any other line raises TraceError, after every
    event before it is yielded.  Whitespace is JSON's, " \t\r\n": a line
    that `json.loads` refuses, such as one with U+00A0 around its
    object, is refused here too.
    The file is read in blocks of `_BLOCK` bytes, each cut after its
    last "\\n": each run of whole lines is decoded as UTF-8 at once and
    split at "\\n", and each line is decoded by the C scanner.  A run
    that is not UTF-8 yields the events of its lines before the first
    bad byte, then raises naming that byte's line."""
    lineno = 0
    with open(Path(path), "rb") as f:
        for run in _runs(f):
            try:
                text, bad = run.decode("utf-8"), False
            except UnicodeDecodeError as e:  # the lines before the bad byte's are UTF-8
                text, bad = run[:run.rfind(b"\n", 0, e.start) + 1].decode("utf-8"), True
            lines = text.split("\n")
            if not lines[-1]:  # what follows a final "\n" is no line
                lines.pop()
            for lineno, line in enumerate(lines, lineno + 1):
                line = line.strip(" \t\r\n")
                if not line:
                    continue
                try:
                    ev, end = _SCAN(line, 0)
                except (ValueError, StopIteration, RecursionError):  # not JSON, or nested too deep
                    end = None
                if end != len(line) or type(ev) is not dict:
                    raise TraceError(f"trace line {lineno} is not a JSON object")
                yield ev
            if bad:
                raise TraceError(f"trace line {lineno + 1} is not a JSON object")


def render(record: tuple) -> dict:
    """The trace event of one simulator record (step, kind, actor, a, b),
    as a new dict, with a new payload and new lists that no other event
    shares.  a and b are, by kind: the message id and the `Message` of
    a send or deliver; the register and the `TaggedValue` of a reg-read
    or reg-write; the op index and, for a write, the value fixed at its
    invocation (None for a read) of an invoke; the op index and the
    value of a respond; None and None of a crash."""
    step, kind, actor, a, b = record
    if kind == "send" or kind == "deliver":
        if b.value is None:
            payload = {"id": a, "type": b.kind, "from": b.sender, "to": b.dest, "sn": b.sn}
        else:
            payload = {"id": a, "type": b.kind, "from": b.sender, "to": b.dest, "sn": b.sn, "value": list(b.value)}
    elif kind == "reg-read" or kind == "reg-write":
        payload = {"register": list(a), "value": list(b)}
    elif kind == "invoke":
        payload = {"op": a, "kind": "read"} if b is None else {"op": a, "kind": "write", "value": list(b)}
    elif kind == "respond":
        payload = {"op": a, "value": list(b)}
    else:  # crash
        payload = {}
    return {"step": step, "kind": kind, "actor": actor, "payload": payload}


def _record_lines(records):
    """The trace lines of a simulator's records, as a generator: each
    the C encoding of `render(record)`, by one f-string per record
    shape with no dict built.  Strings go through
    encode_basestring_ascii and a None payload is null; a kind is one
    of KINDS, which needs no escape.

    A line's fixed parts are encoded once per pass, each kept beside
    the objects it was made from and reused only for those very
    objects (`is`), since equal fields of another type, 1 and 1.0, are
    written apart.  A register access is its step, a head made once
    per (kind, actor, register) and a tail made once per `TaggedValue`;
    a send or deliver is its step, a head made once per (kind, actor)
    and the message's payload text, id included.  The send makes that
    text and keeps it, keyed on the message id, until the deliver of
    that id pops it; a deliver with no text kept for its own `Message`
    (its send outside `records`, or an equal copy) makes it by the same
    f-string.  So the pass holds one text per distinct head and value,
    and the payload texts of undelivered messages."""
    string = encode_basestring_ascii
    reads, writes = {}, {}  # (actor, register) -> (actor, register, head)
    sends, delivers = {}, {}  # actor -> (actor, head)
    tails = {}  # TaggedValue -> (it, its tail)
    sent = {}  # message id -> (its Message, its payload text)
    for step, kind, actor, a, b in records:
        if kind == "reg-read" or kind == "reg-write":
            heads = reads if kind == "reg-read" else writes
            head = heads.get((actor, a))
            if head is None or head[0] is not actor or head[1] is not a:
                head = heads[actor, a] = (
                    actor, a, f',"kind":"{kind}","actor":{actor},"payload":{{"register":[{a[0]},{a[1]}],"value":[')
            tail = tails.get(b)
            if tail is None or tail[0] is not b:
                sn, payload = b
                tail = tails[b] = (b, f'{sn},{"null" if payload is None else string(payload)}]}}}}')
            yield f'{{"step":{step}{head[2]}{tail[1]}'
        elif kind == "send" or kind == "deliver":
            heads = sends if kind == "send" else delivers
            head = heads.get(actor)
            if head is None or head[0] is not actor:
                head = heads[actor] = (actor, f',"kind":"{kind}","actor":{actor},"payload":{{"id":')
            kept = sent.pop(a, None) if kind == "deliver" else None
            if kept is not None and kept[0] is b:
                text = kept[1]
            else:
                mkind, sender, dest, sn, value = b
                if value is None:
                    text = f'{string(a)},"type":{string(mkind)},"from":{sender},"to":{dest},"sn":{sn}}}}}'
                else:
                    sn_v, payload = value
                    text = (f'{string(a)},"type":{string(mkind)},"from":{sender},"to":{dest},"sn":{sn},'
                            f'"value":[{sn_v},{"null" if payload is None else string(payload)}]}}}}')
                if kind == "send":
                    sent[a] = (b, text)
            yield f'{{"step":{step}{head[1]}{text}'
        elif kind == "invoke":
            if b is None:
                yield f'{{"step":{step},"kind":"invoke","actor":{actor},"payload":{{"op":{a},"kind":"read"}}}}'
            else:
                sn, payload = b
                yield (f'{{"step":{step},"kind":"invoke","actor":{actor},"payload":'
                       f'{{"op":{a},"kind":"write","value":[{sn},{"null" if payload is None else string(payload)}]}}}}')
        elif kind == "respond":
            sn, payload = b
            yield (f'{{"step":{step},"kind":"respond","actor":{actor},"payload":'
                   f'{{"op":{a},"value":[{sn},{"null" if payload is None else string(payload)}]}}}}')
        else:  # crash
            yield f'{{"step":{step},"kind":"crash","actor":{actor},"payload":{{}}}}'


class RecordTrace:
    """A run's trace as a read-only view of a simulator's records, the
    list it holds: `Simulator.trace`.  It holds no event.  Each read
    renders what it returns afresh by `render`: `view[i]` an event,
    negative i too, a slice a list of events, iteration each event in
    turn; so an event changed by its reader changes nothing else, and a
    record appended to the list shows in the next read.  `len` is the
    count of records.  A view equals a list, or another view, of equal
    events in the same order.  `trace_lines`, `emit_trace` and
    `project` read the records behind a view, not its events: the two
    writers by one pass of `_record_lines`, which makes the text of
    each register head, value and send or deliver head once, and a
    message's payload text at its send, reusing it at its deliver.
    `list(view)` is the events as a list."""

    __slots__ = ("records",)

    def __init__(self, records: list) -> None:
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(render, self.records[i]))
        return render(self.records[i])

    def __iter__(self):
        return map(render, self.records)

    def __eq__(self, other):
        if not isinstance(other, (list, RecordTrace)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"RecordTrace({list(self)!r})"


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


def _open(ops: dict, op: int, kind, proc, step, value) -> dict:
    """Open op's record at its invocation; an op invoked before raises.
    A write's value is fixed at invocation, a read's at its response."""
    if op in ops:
        raise TraceError(f"op {op} is invoked twice")
    rec = ops[op] = {"op": op, "kind": kind, "proc": proc, "invoke": step, "response": None, "value": value}
    return rec


def _close(ops: dict, op: int, step, value) -> dict:
    """Set op's response step and value; an op never invoked, or one
    that has responded already, raises."""
    rec = ops.get(op)
    if rec is None:
        raise TraceError(f"op {op} responds but was never invoked")
    if rec["response"] is not None:
        raise TraceError(f"op {op} responds twice")
    rec["response"], rec["value"] = step, value
    return rec


def _written(last: dict, decreases: list, step, reg: tuple, sn: int) -> None:
    """Fold one register write into the monotonicity result: `last`
    holds each register's last sn, and a write below it is a decrease."""
    prev = last.get(reg)
    if prev is not None and sn < prev:
        decreases.append((step, reg, prev, sn))
    last[reg] = sn


class _Validated(list):
    """A history whose op records were all held to `check_record`, by
    `project` or `checker`, so the checks do not hold it to the rule
    again.  Change a record, and copy the list."""


class Projection(NamedTuple):
    """The parts of a trace, as `project` builds them from its events
    and, for a view, from its records:

    - history: the op records, sorted by op: op, kind, proc, invoke and
      response steps, and value;
    - mono: (step, register, previous sn, sn) for each register write
      whose sn is below the one written to that register before it;
    - crashed: the actors of the crash events."""

    history: list[dict]
    mono: list[tuple]
    crashed: set[int]


def _history(ops: dict) -> _Validated:
    """The op records of `ops`, sorted by op, once each still pending is
    held to `check_record`; each other was, at its response."""
    history = _Validated(ops[k] for k in sorted(ops))
    for rec in history:
        if rec["response"] is None:
            check_record(rec)
    return history


def project(trace) -> Projection:
    """One pass over the events of `trace`, any iterable, building every
    part of the Projection together.  The first malformed event raises,
    and the pass reads no further: besides an event that is not an
    object and bad fields, an op invoked or responding twice, responding
    before any invoke, with no value or no step, or leaving a record
    that breaks `check_record`.  The fields of each event are checked
    inline, in a fixed order; an op record meets `check_record` at its
    response or, pending, at the end, and at its invoke only if the
    invoke's step or value breaks it, so the first error is the one of
    a check after every event.  A `RecordTrace` is projected from its
    records by `_project_records`, with no event rendered."""
    if type(trace) is RecordTrace:
        return _project_records(trace.records)
    ops, last, decreases, crashed = {}, {}, [], set()
    for i, ev in enumerate(trace, 1):
        if type(ev) is not dict:
            raise _not_object(i, ev)
        kind = ev.get("kind")
        if kind == "send" or kind == "deliver" or kind == "reg-read":
            continue  # no part reads these
        if kind == "crash":
            crashed.add(_actor(i, kind, ev))
            continue
        if kind != "reg-write" and kind != "invoke" and kind != "respond":
            raise _unknown_kind(i, kind)
        payload, step = ev.get("payload"), ev.get("step")
        if type(payload) is not dict:
            raise _bad(i, kind, "payload", payload, "an object")
        if kind == "reg-write":  # checked in the order register, value, actor; the step is not read as a number
            reg, value = payload.get("register"), payload.get("value")
            if not (isinstance(reg, (list, tuple)) and len(reg) == 2 and type(reg[0]) is int and type(reg[1]) is int):
                raise _bad(i, kind, "register", reg, "[set index, owner]")
            if not (isinstance(value, (list, tuple)) and value and type(value[0]) is int):
                raise _bad(i, kind, "value", value, "[sn, payload] with an integer sn")
            if type(ev.get("actor")) is not int:
                raise _bad(i, kind, "actor", ev.get("actor"), "an integer")
            reg, sn = (reg[0], reg[1]), value[0]
            prev = last.get(reg)  # the rule of `_written`
            if prev is not None and sn < prev:
                decreases.append((step, reg, prev, sn))
            last[reg] = sn
            continue
        op = payload.get("op")
        if type(op) is not int:
            raise _bad(i, kind, "op", op, "an integer")
        if kind == "invoke":  # the op's rule, then its kind and actor
            op_kind, actor, value = payload.get("kind"), ev.get("actor"), payload.get("value")
            rec = _open(ops, op, op_kind, actor, step, value)
            if op_kind != "read" and op_kind != "write":
                raise TraceError(f'op {op} has kind {op_kind!r}, not "read" or "write"')
            if type(actor) is not int:
                raise _bad(i, kind, "actor", actor, "an integer")
            if type(step) is not int or value is not None and not (
                    isinstance(value, (list, tuple)) and value and type(value[0]) is int):
                check_record(rec)  # the only rules an open record can break
        else:  # the op's rule, then the event's value and step
            rec = _close(ops, op, step, payload.get("value"))
            if "value" not in payload:
                raise TraceError(f"op {op} responds with no value")
            if step is None:
                raise TraceError(f"op {op} responds with no step")
            check_record(rec)
    return Projection(_history(ops), decreases, crashed)


def _project_records(records) -> Projection:
    """The Projection of a simulator's records: `project` of their
    rendering, built from the records without rendering an event, by
    `project`'s op-record rules (`_open`, `_close`, `check_record`) and
    monotonicity rule (`_written`).  Each op record meets `check_record`
    once, at its response or, pending, at the end: the simulator's own
    invocation fields cannot break it, so the first error is `project`'s."""
    ops, last, decreases, crashed = {}, {}, [], set()
    for step, kind, actor, a, b in records:
        if kind == "reg-read" or kind == "send" or kind == "deliver":
            continue  # no part reads these
        if kind == "reg-write":
            _written(last, decreases, step, a, b[0])
        elif kind == "invoke":
            _open(ops, a, "read" if b is None else "write", actor, step, None if b is None else list(b))
        elif kind == "respond":
            check_record(_close(ops, a, step, list(b)))
        elif kind == "crash":
            crashed.add(actor)
    return Projection(_history(ops), decreases, crashed)


def history_from_trace(trace) -> list[dict]:
    """The run's operation records (see Projection), rebuilt from its
    invoke and respond events by `project`.  A trace file and the view
    it was written from give the same history, so the checker sees a
    run and its emitted trace alike.  It is a plain list, not marked
    checked: a caller may change its records, and the checks then hold
    them to the rule."""
    return list(project(trace).history)


def schedule_from_trace(trace) -> tuple:
    """The replayable choice sequence of a completed trace: an invoke
    gives ("invoke", op), a deliver ("deliver", id), and a reg-read or
    reg-write ("hstep", actor).  An invoke whose op is not an integer,
    or a deliver whose id is not a string, raises TraceError."""
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
