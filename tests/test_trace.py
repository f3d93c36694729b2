"""The one-pass trace path against the three-scan oracle in
trace_oracle.py: `check_all` on in-memory traces, lists and one-shot
iterators alike, and `mmreg check` on trace files, give the same
verdicts, or raise the same exception with the same message.  A
simulator's records project, and are checked, as their rendering is."""

import copy
import io
import json
import random
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, cycle, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import trace_oracle as oracle
from mmreg import (
    Graph, Schedule, bag_of, build_e3, check_all, check_property1, emit_trace, find_witness, history_from_trace, load_trace, make_spec,
    run_simulation)
from mmreg.checker import PROPERTIES
from mmreg.cli import main, random_crash_plan, random_workload
from mmreg.protocol import Message, TaggedValue
from mmreg.sim import WorkloadOp
from mmreg.trace import (
    KINDS, HistoryError, RecordTrace, TraceError, project, render, schedule_from_trace, trace_lines)
from test_sim import sim_cases

SPECS = [
    make_spec(bag=bag_of(2, [1, 2]), writer=1),
    make_spec(bag=bag_of(3, [1], [2], [3]), writer=1),
    make_spec(bag=bag_of(4, [1, 2], [2, 3], [3, 4]), writer=2),
    make_spec(bag=bag_of(5, [1, 2], [1, 2, 3], [2, 3, 4, 5], [3, 4, 5]), writer=1),
]


def _run(seed: int):
    """A fuzz-style run at n <= 5: random workload, up to two crashes."""
    rng = random.Random(seed)
    spec = SPECS[seed % len(SPECS)]
    plan = random_crash_plan(spec, rng, rng.randint(0, min(2, spec.n - 1)))
    return run_simulation(spec, 1, random_workload(spec, rng), Schedule("fair", seed=seed, crash_plan=plan))


RUNS = [_run(seed) for seed in range(16)]

# Every non-empty selection of properties.
SELECTIONS = [sel for r in range(1, len(PROPERTIES) + 1) for sel in combinations(PROPERTIES, r)]

# Replacement values for a field.
JUNK = [None, True, False, 0, -1, 2, 1.5, "", "x", "read", [], [1], [1, 2], ["1", "a"], {}, {"op": 1}]


def faults(trace, rng: random.Random) -> list:
    """A copy of `trace` with 0-4 faults: an event dropped or
    duplicated, a field (of the event, its payload, or one element of a
    register or value) replaced by junk or deleted, or an unknown kind.
    The event's kind is drawn first, a kind that the checks read twice
    as likely as one they skip."""
    trace = copy.deepcopy(list(trace))
    for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 4])):
        if not trace:
            break
        kinds = sorted({str(ev.get("kind")) for ev in trace})
        kind = rng.choice(kinds + [k for k in ("invoke", "respond", "reg-write", "crash") if k in kinds])
        i = rng.choice([j for j, ev in enumerate(trace) if str(ev.get("kind")) == kind])
        fault = rng.choice(["drop", "duplicate", "field", "field", "kind"])
        if fault == "drop":
            del trace[i]
        elif fault == "duplicate":
            trace.insert(rng.randint(0, len(trace)), copy.deepcopy(trace[i]))
        elif fault == "kind":
            trace[i]["kind"] = rng.choice(["banana", "Invoke", *JUNK])
        else:
            node = trace[i]
            if isinstance(node.get("payload"), dict) and node["payload"] and rng.random() < 0.6:
                node = node["payload"]
            if not node:
                continue
            key = rng.choice(sorted(node))
            if isinstance(node[key], list) and node[key] and rng.random() < 0.5:
                node, key = node[key], rng.randrange(len(node[key]))
            if isinstance(node, dict) and rng.random() < 0.3:
                del node[key]
            else:
                node[key] = copy.deepcopy(rng.choice(JUNK))
    return trace


def outcome(check, *args, **kwargs):
    """A check's violations as dicts, or the type and message of what it raised."""
    try:
        return check(*args, **kwargs).as_dicts()
    except Exception as e:  # noqa: BLE001 - any difference is a failure
        return type(e).__name__, str(e)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_matches_the_three_scans(data):
    sim = data.draw(st.sampled_from(RUNS))
    trace = faults(sim.trace, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    history = oracle.history_from_trace(sim.trace)
    t = data.draw(st.sampled_from([None, 0, 1, 2]))
    error = oracle.first_error(trace)  # the same for every selection
    for props in SELECTIONS:
        for supplied in ({}, {"history": history}, {"crashed": sim.crashed}, {"history": history, "crashed": sim.crashed}):
            if error is None:
                expected = outcome(oracle.check_all, trace, t=t, props=props, **supplied)
            else:
                expected = type(error).__name__, str(error)
            assert outcome(check_all, trace, t=t, props=props, **supplied) == expected, (props, supplied)
            assert outcome(check_all, iter(trace), t=t, props=props, **supplied) == expected, (props, supplied)


# -- a simulator's records against their rendering ------------------------


def projected(projection, log):
    """A projection of `log`, or the type and message of what it raised."""
    try:
        return projection(log)
    except (TraceError, HistoryError) as e:
        return type(e).__name__, str(e)


def assert_records_check_as_rendered(records, events):
    """`project` of a view of the records gives `project` of their
    rendering, and `check_all` of the view gives, for every selection
    and t, the verdict or error of `check_all` of the events."""
    view = RecordTrace(records)
    assert projected(project, view) == projected(project, events)
    for props in SELECTIONS:
        for t in (None, 0, 1, 3):
            assert outcome(check_all, view, t=t, props=props) == outcome(check_all, events, t=t, props=props), (props, t)


@settings(max_examples=100, deadline=None)
@given(sim_cases())
def test_a_runs_records_project_as_its_trace(case):
    spec, t, workload, schedule = case
    sim = run_simulation(spec, t, workload, schedule)
    assert_records_check_as_rendered(sim.records, list(sim.trace))


@pytest.mark.parametrize("n, t", [(5, 3), (5, 4), (3, 2), (4, 3)])
def test_an_adversarial_runs_records_project_as_its_trace(n, t):
    spec = make_spec(bag=bag_of(n, *([p] for p in range(1, n + 1))), writer=1)
    sim = build_e3(spec, t, find_witness(spec.bag, t))
    assert not check_all(sim.trace, props=("1",)).ok
    assert_records_check_as_rendered(sim.records, list(sim.trace))


_VALUES_OF_RECORDS = st.builds(TaggedValue, st.integers(0, 3), st.sampled_from([None, "a", "b"]))


@st.composite
def record_logs(draw):
    """Records of the simulator's shape in orders no run makes: ops
    invoked or responding twice, or never invoked, steps out of order,
    and register sequence numbers that fall."""
    log = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["invoke", "invoke", "respond", "reg-write", "reg-write", "reg-read", "send", "crash"]))
        step = len(log) if draw(st.booleans()) else draw(st.integers(0, 12))
        actor, value = draw(st.integers(1, 3)), draw(_VALUES_OF_RECORDS)
        if kind == "invoke":
            a, b = draw(st.integers(0, 1)), draw(st.none() | st.just(value))
        elif kind == "respond":
            a, b = draw(st.integers(0, 1)), value
        elif kind == "reg-write" or kind == "reg-read":
            a, b = (draw(st.integers(1, 2)), actor), value
        elif kind == "send":
            a, b = f"{actor}.1", Message("W", actor, 1, value.sn, value)
        else:
            a = b = None
        log.append((step, kind, actor, a, b))
    return log


@settings(max_examples=300, deadline=None)
@given(record_logs())
@example([(0, "invoke", 2, 0, None), (1, "respond", 2, 0, TaggedValue(0, None)), (2, "respond", 2, 0, TaggedValue(0, None))])
def test_records_in_any_order_project_as_their_rendering(records):
    assert_records_check_as_rendered(records, [render(r) for r in records])


def test_a_history_from_a_trace_is_checked_again_once_changed():
    """`project` marks the history it builds as checked, so the checks
    skip it; `history_from_trace` hands out a plain list, which a
    caller may change, and the checks hold it to the rule again."""
    history = history_from_trace(PENDING_MONO_CRASH)
    history[0]["invoke"] = "0"
    with pytest.raises(HistoryError, match="^op 0 has invoke step '0', not an integer$"):
        check_property1(history)
    with pytest.raises(HistoryError, match="^op 0 has invoke step '0', not an integer$"):
        check_all(PENDING_MONO_CRASH, history=history)


# -- one-shot iterators ---------------------------------------------------

# A pending read by p2, a register whose sn goes down, and p3 crashing.
PENDING_MONO_CRASH = [
    {"step": 0, "kind": "invoke", "actor": 2, "payload": {"op": 0, "kind": "read"}},
    {"step": 1, "kind": "reg-write", "actor": 1, "payload": {"register": [1, 1], "value": [3, "c"]}},
    {"step": 2, "kind": "reg-write", "actor": 1, "payload": {"register": [1, 1], "value": [2, "b"]}},
    {"step": 3, "kind": "crash", "actor": 3, "payload": {}},
]


def test_an_iterator_is_checked_like_a_list():
    verdict = check_all(iter(PENDING_MONO_CRASH))
    assert verdict == check_all(PENDING_MONO_CRASH)
    assert [v.prop for v in verdict.violations] == ["MONO", "LIVE"]
    for trace in (PENDING_MONO_CRASH, iter(PENDING_MONO_CRASH)):
        with pytest.raises(ValueError, match="1 crashes exceed the tolerated 0"):
            check_all(trace, t=0)


# Runs with crashes; in run 11 the crashed p5 has a pending op.
@pytest.mark.parametrize("seed", [0, 5, 9, 11, 13])
def test_an_iterator_over_a_run_is_checked_like_the_run(seed):
    trace = RUNS[seed].trace
    assert check_all(iter(trace)) == check_all(trace)


# -- trace files through `mmreg check` --------------------------------------


def emitted(trace) -> bytes:
    """The file `emit_trace` should write: each of `trace_lines`,
    ended by a newline."""
    return "".join(line + "\n" for line in trace_lines(trace)).encode()


def check_file(path) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["check", "--trace", str(path)])
    return rc, out.getvalue(), err.getvalue()


def oracle_check_file(path) -> tuple:
    """What `mmreg check` prints: the error of the first malformed event
    before the file's first bad line, else that line's error, else the
    verdict on the whole file."""
    events, bad_line = oracle.read_trace(path)
    try:
        error = oracle.first_error(events) or bad_line
        if error is not None:
            raise error
        verdict = oracle.check_all(events)
    except (ValueError, RecursionError) as e:
        return 2, "", f"error: {e}\n"
    return int(not verdict.ok), json.dumps({"ok": verdict.ok, "violations": verdict.as_dicts()}) + "\n", ""


@pytest.mark.parametrize("seed", range(0, 16, 5))
def test_check_of_a_file_matches_check_all_of_the_list(tmp_path, seed):
    trace = RUNS[seed].trace
    path = tmp_path / "run.jsonl"
    emit_trace(trace, path)
    assert path.read_bytes() == emitted(trace)
    emit_trace((ev for ev in trace), tmp_path / "once.jsonl")
    assert (tmp_path / "once.jsonl").read_bytes() == emitted(trace)
    verdict = check_all(trace)
    assert check_file(path) == (int(not verdict.ok), json.dumps({"ok": verdict.ok, "violations": verdict.as_dicts()}) + "\n", "")


# Line damage: each returns the new text of a line.
DAMAGE = [
    lambda line, k: line[: k % (len(line) + 1)],  # truncated
    lambda line, k: line + " x",
    lambda line, k: line + "}",
    lambda line, k: "{} x",
    lambda line, k: "[1, 2]",
    lambda line, k: "null",
    lambda line, k: "\ufeff" + line,
    lambda line, k: "   ",
    lambda line, k: "\t" + line + " ",
    lambda line, k: "\xa0" + line,
    lambda line, k: line.replace('"kind"', '"kin', 1),
    lambda line, k: line.replace(":", "::", 1),
    lambda line, k: line[:k % (len(line) + 1)] + "\udcff" + line[k % (len(line) + 1):],  # not UTF-8 once written
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_check_of_a_damaged_file_matches_the_list_reader(tmp_path_factory, data):
    sim = data.draw(st.sampled_from(RUNS))
    events = faults(sim.trace, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    lines = trace_lines(events)
    for _ in range(data.draw(st.integers(0 if lines else 1, 3))):
        i = data.draw(st.integers(0, len(lines))) if lines else 0
        damaged = data.draw(st.sampled_from(DAMAGE))(lines[i] if i < len(lines) else "{}", data.draw(st.integers(0, 200)))
        lines[i:i + 1] = [damaged]
    path = tmp_path_factory.mktemp("damaged") / "trace.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert check_file(path) == oracle_check_file(path)


def test_load_trace_yields_events_lazily(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind": "crash", "actor": 1, "step": 0, "payload": {}}\n[1]\n')
    events = load_trace(path)
    assert next(events)["kind"] == "crash"
    with pytest.raises(TraceError, match="trace line 2 is not a JSON object"):
        next(events)


def _op_lines(payload: str) -> list[bytes]:
    """The UTF-8 lines, unescaped, of a clean trace: a write of [1,
    payload], one register write of it, and a read returning it."""
    value = [1, payload]
    events = [
        {"step": 0, "kind": "invoke", "actor": 1, "payload": {"op": 0, "kind": "write", "value": value}},
        {"step": 1, "kind": "reg-write", "actor": 1, "payload": {"register": [1, 1], "value": value}},
        {"step": 2, "kind": "respond", "actor": 1, "payload": {"op": 0, "value": value}},
        {"step": 3, "kind": "invoke", "actor": 2, "payload": {"op": 1, "kind": "read"}},
        {"step": 4, "kind": "respond", "actor": 2, "payload": {"op": 1, "value": value}},
    ]
    return [json.dumps(ev, ensure_ascii=False).encode() for ev in events]


def _padded_to(lines: list[bytes], offset: int) -> bytes:
    """`lines`, each ended by "\\n", with spaces after the last object so
    that the file so far ends `offset` bytes into a 64-byte block."""
    text = b"\n".join(lines)
    return text + b" " * ((offset - len(text) - 1) % 64) + b"\n"


_SHORT = _op_lines("a")
# Every line of the written value holds multi-byte characters, so some
# character straddles a block edge at every block size tried.
_WIDE = _op_lines("é€😀" * 5)

BLOCK_CASES = {
    "crlf": b"".join(line + b"\r\n" for line in _SHORT),
    "blank-lines": b"\n \t\n".join(_SHORT) + b"\n\n\r\n   \n",
    "no-final-newline": b"\n".join(_SHORT),
    "empty": b"",
    "multibyte-across-edges": b"\n".join(_WIDE) + b"\n",
    "line-of-several-blocks": b"\n".join(_op_lines("x" * 300)) + b"\n",
    # The first bad line comes after a block, and its block's one run
    # holds a line before it that the scanner or `project` refuses.
    "not-utf8-after-bad-json": _padded_to(_SHORT[:2], 10) + b"{\n" + b"\xff\n" + b"\n".join(_SHORT[2:]) + b"\n",
    "not-utf8-after-bad-event": _padded_to(_SHORT[:2], 10) + b'{"kind": "crash"}\n\xe2\x82\n' + b"\n".join(_SHORT[2:]) + b"\n",
}


def read_all(path) -> tuple[list[dict], str | None]:
    """The events `load_trace` yields from `path`, and the message of
    the TraceError it raises after them, if any."""
    events = []
    try:
        for ev in load_trace(path):
            events.append(ev)
    except TraceError as e:
        return events, str(e)
    return events, None


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_edges_read_as_lines(tmp_path, monkeypatch, name, block):
    """At any read size, a file's blocks read as its lines: the same
    events and error, naming the same line, as the line-by-line oracle,
    and `mmreg check` prints what it prints of the file."""
    path = tmp_path / "trace.jsonl"
    path.write_bytes(BLOCK_CASES[name])
    monkeypatch.setattr("mmreg.trace._BLOCK", block)
    events, error = oracle.read_trace(path)
    assert read_all(path) == (events, None if error is None else str(error))
    assert check_file(path) == oracle_check_file(path)


def test_block_cases_reach_their_paths(tmp_path):
    """The cases above hold what their names say: the clean ones read
    as five events and long lines span blocks; in the last two, a bad
    line of each kind comes first, and the line after it, not UTF-8,
    sits in the same 64-byte block past the first."""
    path = tmp_path / "trace.jsonl"
    for name in ("crlf", "blank-lines", "no-final-newline", "multibyte-across-edges", "line-of-several-blocks"):
        path.write_bytes(BLOCK_CASES[name])
        assert len(oracle.read_trace(path)[0]) == 5 and check_file(path)[0] == 0
    assert min(map(len, BLOCK_CASES["line-of-several-blocks"].split(b"\n")[:3])) > 4 * 64
    for name, error in (("not-utf8-after-bad-json", "trace line 3 is not a JSON object"),
                        ("not-utf8-after-bad-event", "crash event 3 has actor None, not an integer")):
        text = BLOCK_CASES[name]
        before, bad, not_utf8 = [m.start() for m in re.finditer(b"\n", text)][1:4]  # the ends of lines 2, 3 and 4
        assert 64 <= before and before // 64 == bad // 64 == not_utf8 // 64
        path.write_bytes(text)
        assert oracle.read_trace(path)[1] is not None
        assert oracle_check_file(path) == (2, "", f"error: {error}\n")


def test_a_bad_byte_raises_after_every_event_before_it(tmp_path, monkeypatch):
    """With 64-byte reads, a byte that is not UTF-8 in a file's third
    block raises only once every event before its line is yielded, the
    one in its own block's run among them."""
    lines = [json.dumps({"step": step, "kind": "crash", "actor": 1, "payload": {}}).encode() for step in range(3)]
    text = b"\n".join(lines) + b"\n" + b'"\xff"\n' + lines[0] + b"\n"
    assert 64 <= text.index(lines[2]) < 128 <= text.index(b"\xff") < 192
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text)
    monkeypatch.setattr("mmreg.trace._BLOCK", 64)
    events = load_trace(path)
    assert [next(events)["step"] for _ in range(3)] == [0, 1, 2]
    with pytest.raises(TraceError, match="^trace line 4 is not a JSON object$"):
        next(events)


@pytest.mark.parametrize(
    "line",
    [
        "{} x",
        '{"a": 1} {"b": 2}',
        '{"a": }',
        "{",
        "\ufeff{}",
        # Whitespace that str.strip removes but JSON does not allow.
        "\xa0{}",
        "{}\x1c",
        "\u2028{}",
        "nul",
        pytest.param(b"\xff", id="not-utf8"),
        pytest.param("[" * 200_000 + "]" * 200_000, id="nested-too-deep"),
    ],
)
def test_a_bad_line_raises_what_json_loads_raises(tmp_path, line):
    """After a good line, a line that is not one JSON object raises the
    same TraceError from `load_trace` and from the oracle's json.loads
    reader, after the good event."""
    good = {"kind": "crash", "actor": 1, "step": 0, "payload": {}}
    path = tmp_path / "trace.jsonl"
    path.write_bytes(json.dumps(good).encode() + b"\n" + (line if isinstance(line, bytes) else line.encode()) + b"\n")
    events = load_trace(path)
    assert next(events) == good
    with pytest.raises(TraceError) as raised:
        next(events)
    assert str(raised.value) == "trace line 2 is not a JSON object"
    old_events, old_error = oracle.read_trace(path)
    assert old_events == [good] and str(old_error) == str(raised.value)


def test_json_whitespace_around_a_line_is_accepted(tmp_path):
    """Space, tab and carriage return around an object, or alone on a
    line, are JSON whitespace: `load_trace` and the oracle read past them."""
    good = {"kind": "crash", "actor": 1, "step": 0, "payload": {}}
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b" \t" + json.dumps(good).encode() + b"\r\n \t\r\n")
    assert list(load_trace(path)) == [good]
    assert oracle.read_trace(path) == ([good], None)


def test_the_runs_have_every_kind():
    assert {ev["kind"] for run in RUNS for ev in run.trace} == set(KINDS)


BOGUS = {"step": 1, "kind": "bogus", "actor": 1, "payload": {}}
READ = {"step": 0, "kind": "invoke", "actor": 2, "payload": {"op": 0, "kind": "read"}}
DELIVER = {"step": 1, "kind": "deliver", "actor": 1, "payload": {"id": "2.1", "type": "R", "from": 2, "to": 1, "sn": 1}}


@pytest.mark.parametrize(
    "reader, trace, message",
    [
        (schedule_from_trace, [READ, BOGUS], "trace event 2 has kind 'bogus', not one of " + ", ".join(KINDS)),
        (schedule_from_trace, [{**READ, "payload": []}], "invoke event 1 has payload [], not an object"),
        (schedule_from_trace, [{**READ, "payload": {}}], "invoke event 1 has op None, not an integer"),
        (schedule_from_trace, [{**READ, "payload": {"op": True}}], "invoke event 1 has op True, not an integer"),
        (schedule_from_trace, [READ, {**DELIVER, "payload": {"id": 5}}], "deliver event 2 has id 5, not a string"),
        (schedule_from_trace, [READ, {**DELIVER, "payload": {}}], "deliver event 2 has id None, not a string"),
    ],
    ids=[
        "script-unknown-kind", "script-payload-not-object",
        "script-invoke-no-op", "script-invoke-bool-op", "script-deliver-int-id", "script-deliver-no-id",
    ],
)
def test_the_script_and_write_readers_reject_bad_events(reader, trace, message):
    with pytest.raises(TraceError) as raised:
        reader(trace)
    assert str(raised.value) == message


@pytest.mark.parametrize("reader", [check_all, project, schedule_from_trace])
@pytest.mark.parametrize("event", [5, None, "invoke", [READ]], ids=["int", "none", "string", "list"])
def test_an_event_that_is_not_an_object_is_named(reader, event):
    with pytest.raises(TraceError) as raised:
        reader([READ, event])
    assert str(raised.value) == f"trace event 2 is {event!r}, not an object"


# Text that JSON escapes: quotes, backslashes, control characters, lone
# surrogates and non-ASCII, besides any code point.
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\b\n\u2028\ud800\udfff\xe9\U0001f600'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _TEXT
)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(_KEYS, _VALUES, max_size=5), max_size=4))
def test_trace_lines_are_json_dumps(events):
    assert trace_lines(events) == [json.dumps(ev, separators=(",", ":")) for ev in events]
    with tempfile.TemporaryDirectory() as tmp:  # a function-scoped tmp_path would be shared by every example
        path = Path(tmp) / "run.jsonl"
        emit_trace(events, path)
        assert path.read_bytes() == emitted(events)
        emit_trace((ev for ev in events), path)
        assert path.read_bytes() == emitted(events)


# -- a simulator's trace read from its records -----------------------------


@st.composite
def payload_runs(draw):
    """A fair run at t = 1 with one crash of a reader, early enough to
    happen, and writes whose payloads JSON must escape, or None."""
    spec = draw(st.sampled_from(SPECS[1:]))
    others = [p for p in range(1, spec.n + 1) if p != spec.writer]
    workload = [WorkloadOp("write", spec.writer, draw(st.none() | _TEXT), draw(st.integers(0, 30))) for _ in range(draw(st.integers(1, 3)))]
    workload += [WorkloadOp("read", draw(st.sampled_from(others)), None, draw(st.integers(0, 60))) for _ in range(draw(st.integers(1, 3)))]
    crash = (draw(st.sampled_from(others)), draw(st.integers(0, 20)))
    return run_simulation(spec, 1, workload, Schedule("fair", seed=draw(st.integers(0, 2**32 - 1)), crash_plan=(crash,)))


def assert_view_reads_as_its_list(sim, tmp):
    """Every pass gives on `sim.trace`, read from its records, what it
    gives on `list(sim.trace)`, the rendered events."""
    view, events = sim.trace, list(sim.trace)
    assert trace_lines(view) == trace_lines(events)
    emit_trace(view, Path(tmp) / "view.jsonl")
    emit_trace(events, Path(tmp) / "list.jsonl")
    assert (Path(tmp) / "view.jsonl").read_bytes() == (Path(tmp) / "list.jsonl").read_bytes()
    assert project(view) == project(events)
    assert history_from_trace(view) == history_from_trace(events)
    assert schedule_from_trace(view) == schedule_from_trace(events)
    for props in SELECTIONS:
        for t in (None, 0, 1):
            assert outcome(check_all, view, t=t, props=props) == outcome(check_all, events, t=t, props=props), (props, t)


@settings(max_examples=100, deadline=None)
@given(payload_runs())
@example(run_simulation(SPECS[1], 1, [WorkloadOp("write", 1, p) for p in ('a"b', "c\\d", "\xe9", "\x00\n\t", "", "\U0001f600")]
                        + [WorkloadOp("read", 2)], Schedule("fair", seed=5, crash_plan=((3, 4),))))
def test_a_record_line_is_the_encoding_of_its_rendering(sim):
    """Each line `trace_lines` writes of a view is what the C encoder
    writes of `render` of its record, for every record shape: all seven
    kinds, sends with and without a value, and payloads that need
    escaping or are None."""
    records = sim.records
    assert {kind for _, kind, _, _, _ in records} == set(KINDS)
    sends = [b for _, kind, _, _, b in records if kind == "send"]
    assert any(msg.value is None for msg in sends) and any(msg.value is not None for msg in sends)
    assert_lines_encode_renders(sim.trace)
    with tempfile.TemporaryDirectory() as tmp:  # a function-scoped tmp_path would be shared by every example
        assert_view_reads_as_its_list(sim, tmp)


def assert_lines_encode_renders(view):
    lines = trace_lines(view)
    assert len(lines) == len(view.records)
    for line, record in zip(lines, view.records):
        assert line == json.dumps(render(record), separators=(",", ":"))


def _path_run():
    """A fair run on the uniform 40-process path at t = 19 with four
    crashes, early enough to strand messages at them."""
    n = 40
    spec = make_spec(graph=Graph.from_edges(n, [(p, p + 1) for p in range(1, n)]), writer=1)
    workload = [WorkloadOp("write", 1, f'w"{k}\u00e9') for k in range(3)] + [WorkloadOp("read", p) for p in (7, 23, 38)]
    return run_simulation(spec, 19, workload, Schedule("fair", seed=11, crash_plan=((5, 300), (12, 900), (30, 1500), (33, 40))))


PATH_RUN = _path_run()


def _equal_messages(records):
    """`records` with each deliver's Message replaced by an equal one
    that is not the object its send holds."""
    return [(s, k, actor, a, Message(*b) if k == "deliver" else b) for s, k, actor, a, b in records]


def _retyped(records) -> int:
    """How many of the actors, a and b fields in `records` equal the
    same field of an earlier record but are written differently: 2.0
    after 2, TaggedValue(1.0, "a") after TaggedValue(1, "a")."""
    first = {}
    return sum(repr(first.setdefault((i, record[i]), record[i])) != repr(record[i]) for record in records for i in (2, 3, 4))


def _parts(records) -> dict:
    """How a message's send and deliver part in `records`: sends never
    delivered, delivers out of send order, delivers with no send in
    view, and delivers holding an equal Message that is not the object
    their send holds; and how many fields are `_retyped`."""
    sends = {a: b for _, kind, _, a, b in records if kind == "send"}
    delivers = [(a, b) for _, kind, _, a, b in records if kind == "deliver"]
    met = [a for a, _ in delivers if a in sends]
    order = {a: i for i, a in enumerate(sends)}
    return {
        "stranded": len(sends) - len(met),
        "reordered": sum(order[x] > order[y] for x, y in zip(met, met[1:])),
        "unsent": len(delivers) - len(met),
        "copies": sum(a in sends and sends[a] == b and sends[a] is not b for a, b in delivers),
        "retyped": _retyped(records),
    }


_VALUE = TaggedValue(1, "a")
_MSG = (0, "send", 2, "2.1", Message("W", 2, 3, 1, _VALUE))
_TWIN = Message(*_MSG[4])  # equal to _MSG's, another object
# A value, a register and an actor each used again beside an equal one
# of another type, the other fields the same objects, on register
# accesses and on a send and its deliver.
_RETYPED = [
    (1, "reg-read", 2, (1, 2), _VALUE),
    (2, "reg-read", 2, (1, 2), TaggedValue(1.0, "a")),
    (3, "reg-read", 2, (1, 2), _VALUE),
    (4, "reg-read", 2, (1.0, 2), _VALUE),
    (5, "reg-read", 2, (1, 2), _VALUE),
    (6, "reg-read", 2.0, (1, 2), _VALUE),
    (7, "reg-write", 2, (1, 2), _VALUE),
    _MSG,
    (6, "send", 2.0, "2.2", _TWIN),
    (7, "deliver", 3, "2.1", _MSG[4]),
    (8, "deliver", 3.0, "2.2", _TWIN),
]


@pytest.mark.parametrize(
    "records, shows",
    [
        (PATH_RUN.records, ("stranded", "reordered")),
        (PATH_RUN.records[len(PATH_RUN.records) // 2:], ("unsent",)),
        (_equal_messages(PATH_RUN.records), ("copies",)),
        # Two equal Messages in flight together, delivered in the other order.
        ([_MSG, (1, "send", 2, "2.2", Message(*_MSG[4])), (2, "deliver", 3, "2.2", Message(*_MSG[4])), (3, "deliver", 3, "2.1", _MSG[4])],
         ("reordered", "copies")),
        # Equal Messages under three ids, the first and last the same
        # object, each delivered with its send's own object, the last
        # two in the other order.
        ([_MSG, (1, "send", 2, "2.2", _TWIN), (2, "send", 2, "2.3", _MSG[4]),
          (3, "deliver", 3, "2.1", _MSG[4]), (4, "deliver", 3, "2.3", _MSG[4]), (5, "deliver", 3, "2.2", _TWIN)],
         ("reordered",)),
        (_RETYPED, ("retyped",)),
        # A deliver holding an equal Message whose sn, or value's sn, is a float.
        ([_MSG, (1, "deliver", 3, "2.1", _MSG[4]._replace(sn=1.0)),
          (2, "send", 2, "2.2", _MSG[4]), (3, "deliver", 3, "2.2", _MSG[4]._replace(value=TaggedValue(1.0, "a")))],
         ("copies", "retyped")),
    ],
    ids=["path-40-crashes", "tail-slice", "equal-messages", "equal-in-flight", "equal-ids", "retyped-fields", "retyped-message"],
)
def test_record_lines_whether_or_not_a_deliver_meets_its_send(records, shows):
    """As above where a message's send and deliver part: on a 40-process
    run with crashes, which strands messages and delivers out of send
    order; over the tail of its records, where some delivers have no
    send in view; where a deliver holds an equal but distinct Message;
    and where equal Messages travel under distinct ids.  Also where an
    actor, a register, a value or a Message is used again beside an
    equal one of another type, which a text made from one must not
    stand for."""
    parts = _parts(records)
    assert all(parts[part] for part in shows), parts
    assert_lines_encode_renders(RecordTrace(records))


@pytest.mark.parametrize("seed", range(16))
def test_a_run_read_from_its_records_reads_as_its_events(tmp_path, seed):
    """As above on the fuzz-style runs, some of which leave ops pending."""
    assert_view_reads_as_its_list(RUNS[seed], tmp_path)


def test_some_runs_leave_ops_pending():
    assert any(h["response"] is None for run in RUNS for h in history_from_trace(run.trace))


def test_trace_lines_raise_what_the_encoder_raised():
    """A value JSON cannot hold raises json.dumps' TypeError, and a
    cyclic event RecursionError; neither leaves anything behind for the
    next event."""
    bad = {**READ, "payload": {"value": {1, 2}}}
    with pytest.raises(TypeError) as expected:
        json.dumps(bad, separators=(",", ":"))
    with pytest.raises(TypeError) as raised:
        trace_lines([READ, bad])
    assert str(raised.value) == str(expected.value) == "Object of type set is not JSON serializable"
    cyclic = {**READ, "payload": {}}
    cyclic["payload"]["self"] = cyclic
    with pytest.raises(RecursionError):
        trace_lines([cyclic])
    assert trace_lines([READ]) == [json.dumps(READ, separators=(",", ":"))]


def _cyclic() -> dict:
    ev = {**READ, "payload": {}}
    ev["payload"]["self"] = ev
    return ev


def _raising():
    yield from [READ] * 5000
    raise KeyError("mid-trace")


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: [READ] * 5000 + [{**READ, "payload": {"value": {1, 2}}}], TypeError),
        (lambda: [READ] * 5000 + [_cyclic()], RecursionError),
        (_raising, KeyError),
        (lambda: RecordTrace([(0, "invoke", 2, 0, None)] * 5000 + [(1, "send", 2, "2.1", None)]), TypeError),
    ],
    ids=["unencodable", "cyclic", "trace-raises", "record-unencodable"],
)
def test_a_failed_emit_leaves_an_empty_file(tmp_path, make, error):
    """A trace whose last event fails to encode, or that raises itself,
    leaves the file empty and raises what `trace_lines` raises on it,
    although the lines before it fill the write buffer many times over."""
    with pytest.raises(error) as expected:
        trace_lines(make())
    path = tmp_path / "run.jsonl"
    path.write_text("an earlier run\n")
    with pytest.raises(error) as raised:
        emit_trace(make(), path)
    assert str(raised.value) == str(expected.value)
    assert path.read_bytes() == b""


def test_emit_holds_one_line_at_a_time(tmp_path):
    """Emitting 30 000 events, 2.9 MB of text, allocates under 1 MB at
    its peak: a writer that holds every line first needs about 4.6 MB."""
    events = list(islice(cycle([ev for run in RUNS for ev in run.trace]), 30_000))
    assert len(emitted(events)) > 2_500_000
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        emit_trace(events, tmp_path / "run.jsonl")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1_000_000
    assert (tmp_path / "run.jsonl").read_bytes() == emitted(events)
