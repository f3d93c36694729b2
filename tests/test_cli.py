import json

import pytest

from mmreg.cli import main


FIG1 = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [3, 5]], "writer": 1}
SINGLETONS = {"n": 3, "bag": [[1], [2], [3]], "writer": 1}


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

    def test_bad_crash_spec_is_usage_error(self, msg3_file, workload_file, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["simulate", "--spec", msg3_file, "--workload", workload_file, "--trace", trace, "--crash", "oops"]) == 2

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


class TestViolate:
    def test_above_threshold_certified(self, fig1_file, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        assert main(["violate", "--spec", fig1_file, "--t", "4", "--out", out_path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violation_certified"] and summary["no_crashes"]
        report = json.loads(open(out_path).read())
        assert report["witness"]["P"] == [1]

    def test_tolerated_t_is_input_error(self, fig1_file, capsys):
        assert main(["violate", "--spec", fig1_file, "--t", "3"]) == 2
        assert "tolerates" in capsys.readouterr().err


class TestFuzz:
    def test_small_clean_batch(self, fig1_file, capsys):
        assert main(["fuzz", "--spec", fig1_file, "--runs", "30", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["runs"] == 30 and out["violations"] == 0 and out["starved"] == 0

    def test_report_file(self, msg3_file, tmp_path, capsys):
        out_path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--spec", msg3_file, "--runs", "10", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["runs"] == 10 and report["violations"] == []
