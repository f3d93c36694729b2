import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mmreg import Schedule, SimError, WorkloadOp, checker, demo, emit_trace, load_spec, run_simulation, t_direct
from mmreg.checker import PROPERTIES
from mmreg.cli import fuzz, main
from mmreg.model import spec_from_dict
from mmreg.protocol import ProtocolError
from mmreg.tolerance import BRIDGE_LIMIT
from mmreg.trace import KINDS, _project_records, check_record, render, trace_lines
from test_trace import SELECTIONS


FIG1 = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [3, 5]], "writer": 1}
SINGLETONS = {"n": 3, "bag": [[1], [2], [3]], "writer": 1}

READ_INVOKE = {"step": 0, "kind": "invoke", "actor": 2, "payload": {"op": 0, "kind": "read"}}
READ_RESPOND = {"step": 4, "kind": "respond", "actor": 2, "payload": {"op": 0, "value": [0, None]}}
REG_WRITE = {"step": 0, "kind": "reg-write", "actor": 1, "payload": {"register": [1, 1], "value": [1, "a"]}}


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(FIG1))
    return str(path)


@pytest.fixture
def msg3_file(tmp_path):
    path = tmp_path / "msg3.json"
    path.write_text(json.dumps(SINGLETONS))
    return str(path)


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "wl.json"
    path.write_text(
        json.dumps(
            [
                {"op": "write", "proc": 1, "value": "a", "at-step": 0},
                {"op": "read", "proc": 2, "at-step": 500},
            ]
        )
    )
    return str(path)


class TestTolerance:
    def test_fig1_threshold(self, fig1_file, capsys):
        assert main(["tolerance", "--spec", fig1_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t"] == 3

    def test_witness_flag(self, fig1_file, capsys):
        assert main(["tolerance", "--spec", fig1_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] == [[1], [4]]

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["tolerance", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_both_past_the_exhaustive_limit_uses_the_bridge(self, tmp_path, capsys):
        path = tmp_path / "n16.json"
        path.write_text(json.dumps({"n": 16, "bag": [], "writer": 1}))
        assert main(["tolerance", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["t"] == 7

    def test_direct_and_bridge_disagreeing_is_an_error(self, fig1_file, monkeypatch, capsys):
        def one_less(bag):
            res = t_direct(bag)
            return replace(res, t=res.t - 1)

        monkeypatch.setattr("mmreg.cli.t_direct", one_less)
        assert main(["tolerance", "--spec", fig1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "direct and bridge disagree: 2 vs 3" in captured.err

    def test_witness_past_the_exhaustive_limit_is_the_bridges(self, tmp_path, capsys):
        path = tmp_path / "n16.json"
        path.write_text(json.dumps({"n": 16, "bag": [], "writer": 1}))
        assert main(["tolerance", "--spec", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] == [list(range(1, 9)), list(range(9, 17))]

    def test_output_is_n_t_and_witness(self, fig1_file, tmp_path, capsys):
        assert main(["tolerance", "--spec", fig1_file]) == 0
        assert capsys.readouterr().out == '{"n": 5, "t": 3, "witness": [[1], [4]]}\n'
        path = tmp_path / "full3.json"
        path.write_text(json.dumps({"n": 3, "bag": [[1, 2, 3]], "writer": 1}))
        assert main(["tolerance", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": 3, "t": 2, "witness": None}

    @pytest.mark.parametrize("flag", [["--witness"], ["--method", "both"]])
    def test_removed_flags_are_unrecognized(self, fig1_file, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["tolerance", "--spec", fig1_file, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_direct_and_bridge_witnesses_disagreeing_is_an_error(self, fig1_file, monkeypatch, capsys):
        def swapped(bag):
            res = t_direct(bag)
            return replace(res, witness=res.witness[::-1])

        monkeypatch.setattr("mmreg.cli.t_direct", swapped)
        assert main(["tolerance", "--spec", fig1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "direct and bridge disagree: 3 vs 3, witnesses ((4,), (1,)) vs ((1,), (4,))" in captured.err


FUZZ_ONE = ["fuzz", "--runs", "1"]
SIMULATE_P9 = ["simulate", "--workload", "p9.json", "--trace", "trace.jsonl"]


@pytest.mark.parametrize(
    "spec, command, message",
    [
        ({"n": 3, "bag": "x", "writer": 1}, FUZZ_ONE, '"bag"'),
        ({"n": 3, "bag": [1, 2], "writer": 1}, FUZZ_ONE, '"bag"'),
        ({**FIG1, "edges": [[1, "a"]]}, FUZZ_ONE, '"edges"'),
        ({**FIG1, "n": 5.7}, FUZZ_ONE, '"n"'),
        ({"n": True, "bag": [[1]], "writer": 1}, FUZZ_ONE, '"n"'),
        (FIG1, ["fuzz", "--runs", "-5"], "runs"),
        (FIG1, ["fuzz", "--runs", "1", "--crashes", "6"], "crashes"),
        (FIG1, ["fuzz", "--runs", "1", "--crashes", "-1"], "crashes"),
        (FIG1, ["fuzz", "--runs", "1", "--seed", "-5"], "base_seed must be >= 0, got -5"),
        ({"n": 3, "edges": [[1, 2, 3]], "writer": 1}, FUZZ_ONE, '"edges"'),
        (FIG1, SIMULATE_P9, "workload process p9 outside 1..5"),
        (FIG1, ["simulate", "--workload", "p1.json", "--trace", "trace.jsonl", "--seed", "-7"], "seed -7 is negative"),
        (FIG1, ["violate", "--t", "-3"], "t=-3 is negative"),
    ],
    ids=[
        "bag-string",
        "bag-of-ints",
        "edge-string",
        "n-fractional",
        "n-bool",
        "negative-runs",
        "crashes-above-n",
        "negative-crashes",
        "negative-fuzz-seed",
        "edge-triple",
        "workload-process-outside",
        "negative-simulate-seed",
        "violate-negative-t",
    ],
)
def test_bad_input_is_usage_error(tmp_path, monkeypatch, capsys, spec, command, message):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(spec))
    Path("p9.json").write_text(json.dumps([{"op": "read", "proc": 9}]))
    Path("p1.json").write_text(json.dumps([{"op": "read", "proc": 1}]))
    assert main([command[0], "--spec", "spec.json", *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--trace", "deep.json"], "trace line 1 is not a JSON object"),
        (["tolerance", "--spec", "deep.json"], "recursion"),
        (["simulate", "--spec", "spec.json", "--workload", "deep.json", "--trace", "trace.jsonl"], "recursion"),
    ],
    ids=["trace", "spec", "workload"],
)
def test_json_nested_too_deep_is_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("deep.json").write_text("[" * 200_000 + "]" * 200_000)
    Path("spec.json").write_text(json.dumps(SINGLETONS))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


class TestSimulateCheckPipeline:
    def test_clean_run_checks_out(self, msg3_file, workload_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["simulate", "--spec", msg3_file, "--workload", workload_file, "--trace", trace, "--seed", "11"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["responded"] == 2 and out["quiescent"]
        assert main(["check", "--trace", trace]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_crash_flag(self, msg3_file, workload_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        rc = main(
            ["simulate", "--spec", msg3_file, "--workload", workload_file, "--trace", trace, "--crash", "3@0"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["responded"] == 2

    def test_policy_and_threshold_flags(self, fig1_file, workload_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        argv = ["simulate", "--spec", fig1_file, "--workload", workload_file, "--trace", str(trace)]
        assert main([*argv, "--policy", "fifo", "--threshold", "1"]) == 0
        wl = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 500)]
        expected = run_simulation(load_spec(fig1_file), 1, wl, Schedule("fifo"))
        assert trace.read_text().splitlines() == trace_lines(expected.trace)

    def test_bad_crash_spec_is_usage_error(self, msg3_file, workload_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        for crash in ("oops", "x@3", "2@", "9@3", "0@3", "2@-5"):
            rc = main(["simulate", "--spec", msg3_file, "--workload", workload_file, "--trace", trace, "--crash", crash])
            assert rc == 2, crash
            assert "error: crash" in capsys.readouterr().err, crash

    @pytest.mark.parametrize(
        "workload",
        [
            {"op": "write", "proc": 1},
            [1, 2],
            [{"op": "read", "proc": "2"}],
            [{"op": "read", "proc": True}],
            [{"op": "fetch", "proc": 2}],
            [{"op": "read", "proc": 2, "at-step": -1}],
            [{"op": "read", "proc": 2, "at-step": 1.5}],
            [{"op": "write", "proc": 1, "value": {"x": 1}}],
            [{"op": "write", "proc": 1, "value": 7}],
        ],
        ids=[
            "not-a-list",
            "not-objects",
            "proc-string",
            "proc-bool",
            "unknown-op",
            "negative-at-step",
            "fractional-at-step",
            "value-dict",
            "value-int",
        ],
    )
    def test_bad_workload_is_usage_error(self, msg3_file, workload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(workload))
        trace = str(tmp_path / "trace.jsonl")
        assert main(["simulate", "--spec", msg3_file, "--workload", str(path), "--trace", trace]) == 2
        assert "error: workload" in capsys.readouterr().err

    def test_check_flags_doctored_trace(self, msg3_file, workload_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["simulate", "--spec", msg3_file, "--workload", workload_file, "--trace", str(trace), "--seed", "11"])
        capsys.readouterr()
        doctored = []
        for line in trace.read_text().splitlines():
            ev = json.loads(line)
            if ev["kind"] == "respond" and ev["payload"]["op"] == 1:
                ev["payload"]["value"] = [0, None]  # pretend the read missed the write
            doctored.append(json.dumps(ev))
        trace.write_text("\n".join(doctored) + "\n")
        assert main(["check", "--trace", str(trace)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["ok"] and out["violations"]

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([json.dumps(READ_INVOKE), "[1, 2]"], "trace line 2 is not a JSON object"),
            (["5"], "trace line 1 is not a JSON object"),
            ([json.dumps(READ_INVOKE), json.dumps({**READ_RESPOND, "payload": {"op": 0, "value": 5}})], "op 0 has value 5"),
            ([json.dumps({**READ_INVOKE, "step": "a"}), json.dumps(READ_RESPOND)], "op 0 has invoke step 'a'"),
            ([json.dumps(READ_RESPOND)], "op 0 responds but was never invoked"),
            ([json.dumps(REG_WRITE), json.dumps({**REG_WRITE, "payload": {"register": [1, 1], "value": 5}})],
             "reg-write event 2 has value 5"),
            ([json.dumps({**REG_WRITE, "payload": {"register": 5, "value": [1, "a"]}})], "reg-write event 1 has register 5"),
            ([json.dumps({**READ_INVOKE, "payload": [0, "read"]})], "invoke event 1 has payload [0, 'read']"),
            ([json.dumps(READ_INVOKE), json.dumps({k: v for k, v in READ_RESPOND.items() if k != "kind"})],
             "trace event 2 has kind None"),
            ([json.dumps({**READ_INVOKE, "payload": {"op": [0], "kind": "read"}})], "invoke event 1 has op [0]"),
            ([json.dumps(READ_INVOKE), json.dumps({**READ_INVOKE, "step": 1})], "op 0 is invoked twice"),
            ([json.dumps({**READ_INVOKE, "payload": {"op": 0, "kind": "banana"}})], "op 0 has kind 'banana'"),
            ([json.dumps({"step": 0, "kind": "crash", "actor": [1], "payload": {}})], "crash event 1 has actor [1]"),
            ([json.dumps(READ_INVOKE), json.dumps(READ_RESPOND), json.dumps({**READ_RESPOND, "step": 5})],
             "op 0 responds twice"),
            ([json.dumps(READ_INVOKE), json.dumps({**READ_RESPOND, "payload": {"op": 0}})], "op 0 responds with no value"),
            ([json.dumps(READ_INVOKE), json.dumps({**READ_INVOKE, "step": 1, "payload": {"op": 0, "kind": "banana"}})],
             "op 0 is invoked twice"),
            ([json.dumps(READ_INVOKE), json.dumps(READ_RESPOND), json.dumps({**READ_RESPOND, "step": 5, "payload": {"op": 0}})],
             "op 0 responds twice"),
            ([json.dumps({**READ_RESPOND, "payload": {"op": 0}})], "op 0 responds but was never invoked"),
        ],
        ids=[
            "list-line",
            "scalar-line",
            "value-int",
            "step-string",
            "respond-without-invoke",
            "reg-write-value-int",
            "reg-write-register-int",
            "payload-list",
            "no-kind",
            "op-list",
            "invoked-twice",
            "kind-banana",
            "crash-actor-list",
            "responds-twice",
            "respond-without-value",
            "invoked-twice-banana",
            "responds-twice-without-value",
            "respond-without-invoke-or-value",
        ],
    )
    def test_malformed_trace_is_usage_error(self, tmp_path, capsys, lines, message):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        assert main(["check", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_every_selection_rejects_a_malformed_trace(self, tmp_path, capsys):
        trace = tmp_path / "parts.jsonl"
        lines = [
            READ_INVOKE,
            {**REG_WRITE, "step": 1, "payload": {"register": [1, 1], "value": 5}},
            {"step": 2, "kind": "crash", "actor": "x", "payload": {}},
            READ_RESPOND,
        ]
        trace.write_text("".join(json.dumps(ev) + "\n" for ev in lines))
        for selection in SELECTIONS:
            assert main(["check", "--trace", str(trace), "--properties", ",".join(selection)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: reg-write event 2 has value 5, not [sn, payload] with an integer sn\n"

    def test_reading_stops_at_the_first_malformed_event(self, tmp_path, capsys):
        bad_crash = {"step": 1, "kind": "crash", "actor": "x", "payload": {}}
        trace = tmp_path / "stop.jsonl"
        trace.write_text(json.dumps(READ_INVOKE) + "\n" + json.dumps(bad_crash) + "\n{\n")
        assert main(["check", "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: crash event 2 has actor 'x', not an integer\n"
        events = iter([READ_INVOKE, bad_crash, REG_WRITE, READ_RESPOND])
        with pytest.raises(ValueError, match="crash event 2 has actor 'x'"):
            checker.check_all(events)
        assert list(events) == [REG_WRITE, READ_RESPOND]

    @staticmethod
    def _check_bytes(tmp_path, capsys, data: bytes, properties=",".join(PROPERTIES)) -> tuple:
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(data)
        rc = main(["check", "--trace", str(trace), "--properties", properties])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_a_line_with_data_after_its_object_is_not_an_object(self, tmp_path, capsys):
        data = b'{"step":0,"kind":"crash","actor":1,"payload":{}}\n{"step":1,"kind":"crash","actor":2,"payload":{}} x\n'
        assert self._check_bytes(tmp_path, capsys, data) == (2, "", "error: trace line 2 is not a JSON object\n")

    def test_a_bad_event_is_named_before_a_later_line_that_is_not_utf8(self, tmp_path, capsys):
        crashes = [{"step": 0, "kind": "crash", "actor": 1, "payload": {}}, {"step": 1, "kind": "crash", "actor": "x", "payload": {}}]
        data = b"".join(json.dumps(ev).encode() + b"\n" for ev in crashes) + b"\xff\n"
        assert self._check_bytes(tmp_path, capsys, data) == (2, "", "error: crash event 2 has actor 'x', not an integer\n")

    def test_a_response_before_its_invocation_is_rejected_under_every_selection(self, tmp_path, capsys):
        events = [{**READ_INVOKE, "step": 5}, {**READ_RESPOND, "step": 3}]
        data = b"".join(json.dumps(ev).encode() + b"\n" for ev in events)
        for selection in SELECTIONS:
            assert self._check_bytes(tmp_path, capsys, data, ",".join(selection)) == (
                2, "", "error: op 0 responds at or before its invocation\n"
            ), selection

    def test_a_bad_read_value_is_named_before_a_later_bad_event(self, tmp_path, capsys):
        events = [
            READ_INVOKE,
            {**READ_RESPOND, "step": 3, "payload": {"op": 0, "value": "zz"}},
            {"step": 4, "kind": "crash", "actor": "x", "payload": {}},
        ]
        data = b"".join(json.dumps(ev).encode() + b"\n" for ev in events)
        assert self._check_bytes(tmp_path, capsys, data) == (
            2, "", "error: op 0 has value 'zz', not [sn, payload] with an integer sn\n"
        )

    @pytest.mark.parametrize("properties", ["foo", "1,2,monotonic", ""])
    def test_unknown_properties_are_usage_error(self, msg3_file, workload_file, tmp_path, capsys, properties):
        trace = str(tmp_path / "trace.jsonl")
        main(["simulate", "--spec", msg3_file, "--workload", workload_file, "--trace", trace])
        capsys.readouterr()
        assert main(["check", "--trace", trace, "--properties", properties]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1,2,mono,live" in captured.err

    def test_check_of_demo_trace_matches_demo_report(self, fig1_file, tmp_path, capsys):
        report = demo(load_spec(fig1_file), 4)
        trace = tmp_path / "demo.jsonl"
        emit_trace(report["trace"], trace)
        assert main(["check", "--trace", str(trace), "--properties", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == report["violations"] != []


# -- malformed input never escapes as a traceback ---------------------------

WORKLOAD = [
    {"op": "write", "proc": 1, "value": "a", "at-step": 0},
    {"op": "read", "proc": 2, "at-step": 5},
    {"op": "write", "proc": 1, "value": "b", "at-step": 30},
    {"op": "read", "proc": 4, "at-step": 40},
]
# A README-system run with a crash, so every event kind is there to mutate.
README_TRACE = run_simulation(
    spec_from_dict(FIG1),
    3,
    [WorkloadOp(d["op"], d["proc"], d.get("value"), d["at-step"]) for d in WORKLOAD],
    Schedule("fair", seed=2, crash_plan=((5, 25),)),
).trace
# Replacement values; integers stay <= 8 so that a mutated spec stays small.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 8), max_size=3),
    st.dictionaries(st.sampled_from(["op", "kind", "value", "x"]), st.integers(-2, 8), max_size=2),
)


def mutated(data, doc):
    """A copy of the JSON document with one node, reached by a short
    random walk from the root, dropped (a key of an object) or replaced
    by a junk value."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 3))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return data.draw(JUNK)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JUNK)
    return doc


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(["trace", "spec", "workload"]), data=st.data())
def test_mutated_input_is_a_verdict_or_a_usage_error(target, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec, workload, trace = tmp / "spec.json", tmp / "wl.json", tmp / "trace.jsonl"
        spec.write_text(json.dumps(mutated(data, FIG1) if target == "spec" else FIG1))
        workload.write_text(json.dumps(mutated(data, WORKLOAD) if target == "workload" else WORKLOAD))
        if target == "trace":
            # One line, of a kind drawn first so that each kind is as likely.
            kind = data.draw(st.sampled_from(KINDS))
            i = data.draw(st.sampled_from([j for j, ev in enumerate(README_TRACE) if ev["kind"] == kind]))
            lines = trace_lines(README_TRACE)
            lines[i] = json.dumps(mutated(data, README_TRACE[i]))
            trace.write_text("\n".join(lines) + "\n")
            argv = ["check", "--trace", str(trace)]
        elif target == "spec" and data.draw(st.booleans()):
            argv = ["tolerance", "--spec", str(spec)]
        else:
            argv = ["simulate", "--spec", str(spec), "--workload", str(workload), "--trace", str(trace)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ")


class TestViolate:
    def test_above_threshold_certified(self, fig1_file, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        assert main(["violate", "--spec", fig1_file, "--t", "4", "--out", out_path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {
            "n": 5,
            "t": 4,
            "t_L": 3,
            "writer": 1,
            "reader": 4,
            "witness": {"P": [1], "P_prime": [4], "Q": [2, 3, 5]},
            "violation_certified": True,
            "no_crashes": True,
            "isolation_ok": True,
        }
        report = json.loads(Path(out_path).read_text())
        assert report["witness"]["P"] == [1] and report["t_L"] == 3

    def test_beyond_bridge_limit_reports_null_threshold(self, tmp_path, capsys):
        # Past the bridge search's limit, but the run needs only a witness.
        path = tmp_path / "past_limit.json"
        path.write_text(json.dumps({"n": BRIDGE_LIMIT + 1, "bag": [], "writer": 1}))
        assert main(["violate", "--spec", str(path), "--t", "15"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violation_certified"] is True and summary["t_L"] is None

    def test_threshold_past_twenty_processes(self, tmp_path, capsys):
        # 21 singletons: the pure message-passing threshold, floor(20 / 2).
        path = tmp_path / "n21.json"
        path.write_text(json.dumps({"n": 21, "bag": [], "writer": 1}))
        assert main(["violate", "--spec", str(path), "--t", "15"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violation_certified"] is True and summary["t_L"] == 10

    def test_tolerated_t_is_input_error(self, fig1_file, capsys):
        assert main(["violate", "--spec", fig1_file, "--t", "3"]) == 2
        assert "tolerates" in capsys.readouterr().err


class TestFuzz:
    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((2.5, 0), {}, "runs must be an integer, got 2.5"),
            ((True, 0), {}, "runs must be an integer, got True"),
            ((1, 0), {"crashes": 1.0}, "crashes must be an integer or None, got 1.0"),
            ((1, 0), {"crashes": False}, "crashes must be an integer or None, got False"),
            ((1, 0), {"t": "1"}, "t must be an integer or None, got '1'"),
            ((1, 0), {"t": True, "crashes": 0}, "t must be an integer or None, got True"),
            ((2, None), {}, "base_seed must be an integer, got None"),
            ((2, "7"), {}, "base_seed must be an integer, got '7'"),
            ((2, 1.5), {}, "base_seed must be an integer, got 1.5"),
            ((2, True), {}, "base_seed must be an integer, got True"),
            ((2, -5), {}, "base_seed must be >= 0, got -5"),
        ],
        ids=["float-runs", "bool-runs", "float-crashes", "bool-crashes", "str-t", "bool-t", "none-seed", "str-seed", "float-seed", "bool-seed", "negative-seed"],
    )
    def test_non_integer_arguments_rejected(self, fig1_file, args, kwargs, message):
        with pytest.raises(SimError, match=f"^{re.escape(message)}$"):
            fuzz(load_spec(fig1_file), *args, **kwargs)

    @pytest.mark.parametrize("t, quorum", [(99, -94), (-3, 8)])
    def test_a_t_with_no_ack_quorum_is_refused_before_any_run(self, fig1_file, capsys, t, quorum):
        message = f"t={t} gives ack quorum {quorum}, outside 1..5"
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            fuzz(load_spec(fig1_file), 0, 0, t=t)
        assert main(["fuzz", "--spec", fig1_file, "--runs", "0", "--threshold", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_small_clean_batch(self, fig1_file, capsys):
        assert main(["fuzz", "--spec", fig1_file, "--runs", "30", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["runs"] == 30 and out["violations"] == 0 and out["starved"] == 0

    @pytest.mark.parametrize(
        "threshold, crashes, checked",
        [(None, None, True), (1, 2, False), (4, 4, True), (3, 4, False)],
    )
    def test_liveness_checked_iff_crashes_within_threshold(self, fig1_file, monkeypatch, threshold, crashes, checked):
        calls = []
        original = checker.check_completion

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(checker, "check_completion", counted)
        summary = fuzz(load_spec(fig1_file), 20, 3, crashes=crashes, t=threshold)
        assert len(calls) == (20 if checked else 0)
        assert summary["starved"] == 0
        assert not any(v["prop"] == "LIVE" for issue in summary["violations"] for v in issue["violations"])

    def test_given_threshold_and_crashes_past_the_bridge_budget(self, tmp_path, capsys):
        path = tmp_path / "past_limit.json"
        path.write_text(json.dumps({"n": BRIDGE_LIMIT + 1, "bag": [], "writer": 1}))
        assert main(["fuzz", "--spec", str(path), "--runs", "1", "--threshold", "10", "--crashes", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == 10

    def test_threshold_above_t_l_reports_the_violating_seed(self, msg3_file, capsys):
        # Singletons have t_L = 1: at t = 2 a read may return the initial
        # value after a write completed, with no process crashed.
        argv = ["fuzz", "--spec", msg3_file, "--runs", "50", "--threshold", "2", "--crashes", "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["violations"] == 1
        assert "violating seed: 10" in captured.err
        summary = fuzz(load_spec(msg3_file), 50, 0, crashes=0, t=2)
        assert [issue["seed"] for issue in summary["violations"]] == [10]
        (violation,) = summary["violations"][0]["violations"]
        assert violation["prop"] == "P1" and violation["ops"] == [0, 1]
        assert "initial value" in violation["reason"]

    def test_report_file(self, msg3_file, tmp_path, capsys):
        out_path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--spec", msg3_file, "--runs", "10", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["runs"] == 10 and report["violations"] == []

    def test_a_batch_renders_no_event(self, monkeypatch):
        """fuzz checks each run from its records: no run's trace is
        rendered into dict events.  Reading one afterwards renders each
        of its records, so the count is taken where the view renders."""
        rendered = []

        def counted(record):
            rendered.append(record)
            return render(record)

        runs = []

        def kept(*args):
            runs.append(run_simulation(*args))
            return runs[-1]

        monkeypatch.setattr("mmreg.trace.render", counted)
        monkeypatch.setattr("mmreg.cli.run_simulation", kept)
        assert fuzz(spec_from_dict(FIG1), 20, 3)["runs"] == len(runs) == 20
        assert rendered == []
        assert len(list(runs[-1].trace)) == len(rendered) == len(runs[-1].records) > 0

    def test_a_batch_checks_each_op_record_once(self, monkeypatch):
        """The history that `project` builds from a run's view is checked
        as it is built, each op record once, and `check_all` does not
        check it again.  Runs with pending ops are included: crashes go up to
        t_L, so some ops never respond."""
        checked = []

        def counted(h, i=None):
            checked.append(id(h))
            return check_record(h, i)

        histories = []

        def kept(records):
            projection = _project_records(records)
            histories.append(projection.history)
            return projection

        monkeypatch.setattr("mmreg.trace.check_record", counted)
        monkeypatch.setattr("mmreg.checker.check_record", counted)
        monkeypatch.setattr("mmreg.trace._project_records", kept)
        assert fuzz(spec_from_dict(FIG1), 40, 3)["runs"] == len(histories) == 40
        records = [h for history in histories for h in history]
        assert any(h["response"] is None for h in records)
        assert sorted(checked) == sorted(map(id, records))


class TestFuzzCollectorPause:
    """`fuzz` turns the cyclic collector off for its loop of runs and, on
    every exit, puts back the state it found."""

    @pytest.mark.parametrize("on", [True, False], ids=["was-on", "was-off"])
    def test_prior_state_comes_back(self, monkeypatch, collector, on):
        during = []

        def watched(*args):
            during.append(gc.isenabled())
            return run_simulation(*args)

        monkeypatch.setattr("mmreg.cli.run_simulation", watched)
        with collector(on):
            assert fuzz(spec_from_dict(FIG1), 20, 3)["runs"] == 20
            assert gc.isenabled() is on
        assert during == [False] * 20

    @pytest.mark.parametrize("on", [True, False], ids=["was-on", "was-off"])
    def test_prior_state_comes_back_when_the_batch_raises(self, monkeypatch, collector, on):
        def failing(*args):
            assert not gc.isenabled()  # raised from inside the pause
            raise ProtocolError("the first run raises")

        monkeypatch.setattr("mmreg.cli.run_simulation", failing)
        with collector(on):
            with pytest.raises(ProtocolError, match="the first run raises"):
                fuzz(spec_from_dict(FIG1), 20, 3, t=1)
            assert gc.isenabled() is on

    def test_no_collection_during_a_batch(self):
        spec = spec_from_dict(FIG1)
        starts = []

        def watch(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        remove = gc.callbacks.remove  # bound now: after the batch, binding it would allocate and could start a collection
        gc.collect()  # else the set-up could reach the young generation's threshold
        gc.callbacks.append(watch)
        try:
            report = fuzz(spec, 100, 3)
        finally:
            remove(watch)
        assert gc.isenabled()
        # Each step adds a tracked record tuple, so with the collector on
        # the batch would have started many collections.
        assert report["mean_steps"] * report["runs"] > 10 * gc.get_threshold()[0]
        assert starts == []

    def test_peak_memory_does_not_grow_with_the_run_count(self):
        # Under the pause a reference cycle made by each run would live
        # to the end of the batch, so the peak would grow with the runs.
        spec = spec_from_dict(FIG1)

        def peak(runs):
            tracemalloc.start()
            try:
                fuzz(spec, runs, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A discarded warm-up batch first: one-time allocations, which the
        # first batch makes whatever its length, would land in the first
        # peak measured and decide the comparison.
        fuzz(spec, 200, 0)
        assert peak(400) <= 1.25 * peak(200)


class TestEntryPoint:
    """The console script's process exit codes, from `python -m mmreg.cli`."""

    @staticmethod
    def mmreg(*argv, cwd):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run(
            [sys.executable, "-m", "mmreg.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
        )

    def test_exit_codes(self, fig1_file, tmp_path):
        assert self.mmreg("tolerance", "--spec", fig1_file, cwd=tmp_path).returncode == 0

        # The read returns the initial value after the write completed.
        trace = tmp_path / "p1.jsonl"
        events = [
            {"step": 0, "kind": "invoke", "actor": 1, "payload": {"op": 0, "kind": "write", "value": [1, "a"]}},
            {"step": 1, "kind": "respond", "actor": 1, "payload": {"op": 0, "value": [1, "a"]}},
            {"step": 2, "kind": "invoke", "actor": 2, "payload": {"op": 1, "kind": "read"}},
            {"step": 3, "kind": "respond", "actor": 2, "payload": {"op": 1, "value": [0, None]}},
        ]
        emit_trace(events, trace)
        checked = self.mmreg("check", "--trace", str(trace), cwd=tmp_path)
        assert checked.returncode == 1
        assert json.loads(checked.stdout)["violations"][0]["prop"] == "P1"

        missing = self.mmreg("tolerance", "--spec", str(tmp_path / "nope.json"), cwd=tmp_path)
        assert missing.returncode == 2
        assert missing.stderr.startswith("error:") and "Traceback" not in missing.stderr

    def test_check_exit_codes(self, tmp_path):
        spec = spec_from_dict(FIG1)
        trace = tmp_path / "clean.jsonl"
        emit_trace(run_simulation(spec, 3, [WorkloadOp("write", 1, "a"), WorkloadOp("read", 4)], Schedule("fifo")).trace, trace)
        clean = self.mmreg("check", "--trace", str(trace), cwd=tmp_path)
        assert clean.returncode == 0 and json.loads(clean.stdout) == {"ok": True, "violations": []}

        missing = self.mmreg("check", "--trace", str(tmp_path / "nope.jsonl"), cwd=tmp_path)
        assert missing.returncode == 2 and missing.stdout == ""
        assert missing.stderr.startswith("error:") and "Traceback" not in missing.stderr
