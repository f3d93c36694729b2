"""Tests for the benchmark's own code: the synthetic history generator,
the negative controls, and the metric names the command prints."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from mmreg import check_all, check_property1, history_from_trace, tolerance  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import path_spec  # noqa: E402

SEEDS = range(6)


def report(verdict):
    return [{"prop": v.prop, "ops": list(v.ops), "reason": v.reason} for v in verdict.violations]


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_history_is_clean(seed):
    trace = synth.clean_trace(path_spec(12), random.Random(seed), 400)
    history = history_from_trace(trace)
    assert len(history) == 400
    assert all(h["response"] is not None for h in history)
    assert sum(h["kind"] == "read" for h in history) == 280
    verdict = check_all(trace)
    assert verdict.ok, verdict.violations


def test_synthetic_reads_overlap():
    trace = synth.clean_trace(path_spec(12), random.Random(0), 400)
    pending, most = set(), 0
    for ev in trace:
        if ev["kind"] == "invoke" and ev["payload"]["kind"] == "read":
            pending.add(ev["payload"]["op"])
            most = max(most, len(pending))
        elif ev["kind"] == "respond":
            pending.discard(ev["payload"]["op"])
    assert most > 1


@pytest.mark.parametrize("make", synth.CONTROLS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_each_injected_control_is_detected(make, seed):
    rng = random.Random(seed)
    clean = synth.clean_trace(path_spec(12), rng, 400)
    bad, injected = make(clean, rng)
    assert synth.detected(injected, report(check_all(bad)))
    assert not synth.detected(injected, report(check_all(clean)))


@pytest.mark.parametrize("seed", SEEDS)
def test_read_inversion_keeps_property1(seed):
    rng = random.Random(seed)
    bad, _ = synth.read_inversion(synth.clean_trace(path_spec(12), rng, 400), rng)
    assert check_property1(history_from_trace(bad)).ok


def smaller(cls, **sizes):
    return type(f"Small{cls.__name__}", (cls,), sizes)


SMALL = {
    "threshold": smaller(workloads.Threshold, bags=((6, 2), (7, 1)), graphs=(6,)),
    "sim-wide": smaller(workloads.SimWide, n=8, n_ops=10, readers=2, crashes=2, crash_window=200, cycle=2),
    "fuzz": smaller(workloads.Fuzz, runs=20, cycle=2),
    "check-long": smaller(workloads.CheckLong, n=8, n_ops=200),
}


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_small_workloads_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS) == {w["name"] for w in benchmark_json()["workloads"]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_printed_metrics_are_named_in_benchmark_json(name, tmp_path):
    table = run.load_metric_table()
    spec = benchmark_json()
    for group in ("end_to_end", "per_layer"):
        assert all(m["unit"] for m in spec[group])
    workload = SMALL[name]()

    inputs, _, setup_s = run.timed_setup(workload, 3, tmp_path)
    units = run.run_units(workload, inputs, 0, count=2 * workload.cycle)
    metrics = run.end_to_end(workload, units, setup_s)
    assert set(metrics) == set(table["end_to_end"])
    assert all(value > 0 for value in metrics.values())
    assert all(u.failed == 0 for u in units)
    assert run.digest_failures(units)[1] == 0

    tracer = Tracer()
    tracer.phase = "unit"
    run.instrument(tracer)
    try:
        traced = run.run_units(workload, inputs, 0, tracer=tracer, count=len(units), detail=True)
    finally:
        tracer.restore()
    assert set(run.per_layer(workload, inputs, tracer, traced, units, 1.0)) == set(table["per_layer"])
    assert workload.finish(inputs)[1] == 0


def threshold_failures(monkeypatch, tmp_path, tamper):
    """Failed gates over one cycle of the small threshold corpus, with
    ``tolerance.t_bridge``'s result passed through ``tamper``."""
    workload = SMALL["threshold"]()
    inputs = workload.setup(3, tmp_path)
    assert any(spec.n - 1 > tolerance.t_bridge(spec.bag).t for spec, _ in inputs["systems"])
    t_bridge = tolerance.t_bridge
    monkeypatch.setattr(tolerance, "t_bridge", lambda bag: tamper(t_bridge(bag)))
    return [workload.unit(inputs, i).failed for i in range(workload.cycle)]


def test_threshold_gates_pass_on_the_library(monkeypatch, tmp_path):
    assert threshold_failures(monkeypatch, tmp_path, lambda res: res) == [0] * SMALL["threshold"]().cycle


def test_threshold_gate_fails_a_missing_witness(monkeypatch, tmp_path):
    failures = threshold_failures(monkeypatch, tmp_path, lambda res: tolerance.ToleranceResult(res.t, None))
    assert sum(failures) >= 1


def test_threshold_gate_fails_a_witness_that_is_not_the_smallest(monkeypatch, tmp_path):
    def swapped(res):
        if res.witness is None:
            return res
        left, right = res.witness
        return tolerance.ToleranceResult(res.t, (right, left))

    failures = threshold_failures(monkeypatch, tmp_path, swapped)
    assert sum(failures) >= 1


def test_tracer_restores_every_wrapped_name():
    from mmreg import cli, sim, tolerance

    before = (cli.fuzz, tolerance.t_bridge, sim.Simulator.__dict__["run"])
    tracer = Tracer()
    run.instrument(tracer)
    assert cli.fuzz is not before[0]
    tracer.restore()
    assert (cli.fuzz, tolerance.t_bridge, sim.Simulator.__dict__["run"]) == before


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
