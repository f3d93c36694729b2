import json
from pathlib import Path

import pytest

from mmreg import checker, demo, emit_trace, load_spec
from mmreg.cli import fuzz, main


FIG1 = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [3, 5]], "writer": 1}
SINGLETONS = {"n": 3, "bag": [[1], [2], [3]], "writer": 1}

READ_INVOKE = {"step": 0, "kind": "invoke", "actor": 2, "payload": {"op": 0, "kind": "read"}}
READ_RESPOND = {"step": 4, "kind": "respond", "actor": 2, "payload": {"op": 0, "value": [0, None]}}


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
        assert main(["tolerance", "--spec", fig1_file, "--method", "direct", "--witness"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] == [[1], [4]]

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["tolerance", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, runs",
    [
        ({"n": 3, "bag": "x", "writer": 1}, 1),
        ({"n": 3, "bag": [1, 2], "writer": 1}, 1),
        ({**FIG1, "edges": [[1, "a"]]}, 1),
        ({**FIG1, "n": 5.7}, 1),
        ({"n": True, "bag": [[1]], "writer": 1}, 1),
        (FIG1, -5),
    ],
    ids=["bag-string", "bag-of-ints", "edge-string", "n-fractional", "n-bool", "negative-runs"],
)
def test_bad_input_is_usage_error(tmp_path, capsys, spec, runs):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["fuzz", "--spec", str(path), "--runs", str(runs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
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
            ([json.dumps({**READ_INVOKE, "step": "a"}), json.dumps(READ_RESPOND)], "has step 'a'"),
            ([json.dumps(READ_RESPOND)], "op 0 responds but was never invoked"),
        ],
        ids=["list-line", "scalar-line", "value-int", "step-string", "respond-without-invoke"],
    )
    def test_malformed_trace_is_usage_error(self, tmp_path, capsys, lines, message):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        assert main(["check", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

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
        # n = 21 is past the bridge search, but the run needs only a witness.
        path = tmp_path / "n21.json"
        path.write_text(json.dumps({"n": 21, "bag": [], "writer": 1}))
        assert main(["violate", "--spec", str(path), "--t", "15"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violation_certified"] is True and summary["t_L"] is None

    def test_tolerated_t_is_input_error(self, fig1_file, capsys):
        assert main(["violate", "--spec", fig1_file, "--t", "3"]) == 2
        assert "tolerates" in capsys.readouterr().err


class TestFuzz:
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
        path = tmp_path / "n21.json"
        path.write_text(json.dumps({"n": 21, "bag": [], "writer": 1}))
        assert main(["fuzz", "--spec", str(path), "--runs", "1", "--threshold", "10", "--crashes", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == 10

    def test_report_file(self, msg3_file, tmp_path, capsys):
        out_path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--spec", msg3_file, "--runs", "10", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["runs"] == 10 and report["violations"] == []
