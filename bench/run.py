"""mmreg benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload sim-wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up is timed on its own, in repeated blocks, and reported
as a median.  The measured loop then runs units of work, one at a time,
until ``--seconds`` have passed and every input of the workload's cycle
has run at least once.  Unit ``i`` runs input ``i % cycle``; a metric
"per cycle" adds up one run of every input, each input's time being the
median over its repetitions.  Step latencies and counts come from the
first cycle, so they repeat exactly for a seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs the units once untraced and once
with spans around the calls into each layer, reports the difference as
``tracing.overhead``, and writes the spans to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from BENCHMARK.json.  The lines before it give the digest of
each input's output, the failure ratio with its base, and (untraced)
the raw, unscaled timings.  The exit code is 0 only when every
correctness gate passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BLOCKS = 5  # set-up is repeated in blocks of at least SETUP_BLOCK_SECONDS
SETUP_BLOCK_SECONDS = 0.1
PROBE_EVERY_S = 0.25  # probe after a unit once this long has passed since the last probe

# The host's speed drifts by up to 2x over tens of seconds, because other
# tenants share its cores and caches.  A fixed probe of interpretive work
# like the library's is timed between measured stretches, and measured
# times are scaled to what they would be when the probe takes
# PROBE_REFERENCE_S.  The raw times are printed as well.
PROBE_REFERENCE_S = 0.025


def _import_library():
    """Import mmreg from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import mmreg
    except ImportError as e:
        raise SystemExit(f"error: cannot import mmreg from {src}: {e}") from None
    if not Path(mmreg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: mmreg was imported from {mmreg.__file__}, not from {src}")


def load_metric_table() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read BENCHMARK.json: {e}") from None
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def probe() -> float:
    """Seconds taken by a fixed mix of dict, list, tuple, str and int work.
    The cyclic garbage collector is paused so that a collection of the
    workload's heap is not charged to the probe."""
    gc.disable()
    try:
        return _probe()
    finally:
        gc.enable()


def _probe() -> float:
    start = time.perf_counter()
    table: dict = {}
    events: list = []
    acc = 0
    for i in range(24000):
        key = f"{i & 63}.{i & 1023}"
        table[key] = (i, key)
        if len(events) > 256:
            events.clear()
        events.append({"step": i, "kind": "send", "payload": {"id": key}})
        acc ^= (i * 2654435761) & 0xFFFF
        acc += len(table) & 7
    for _, value in table.items():
        acc += value[0] & 3
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time
    at the reference speed."""
    return PROBE_REFERENCE_S / ((before + after) / 2)


def timed_setup(workload, seed: int, work_dir: Path):
    """Set up repeatedly, in blocks between probes; the median over the
    blocks of the mean set-up time, raw and scaled to reference speed."""
    raw, scaled, inputs = [], [], None
    before = probe()
    for _ in range(SETUP_BLOCKS):
        times = []
        while not times or sum(times) < SETUP_BLOCK_SECONDS:
            start = time.perf_counter()
            inputs = workload.setup(seed, work_dir)
            times.append(time.perf_counter() - start)
        after = probe()
        raw.append(statistics.fmean(times))
        scaled.append(raw[-1] * speed_scale(before, after))
        before = after
    return inputs, statistics.median(raw), statistics.median(scaled)


def run_units(workload, inputs, seconds: float, tracer=None, count: int | None = None, detail: bool = False):
    """Closed loop: the next unit starts when the previous one is done.
    Runs ``count`` units if given, else until ``seconds`` have passed and
    one whole cycle is done.  With ``detail``, units of the first cycle
    collect the per-layer counts.  Each unit's ``scale`` comes from the
    probes around it."""
    units, pending = [], []
    start = time.perf_counter()
    before, probed_at = probe(), time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= workload.cycle and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.unit = i
        pending.append(workload.unit(inputs, i, tracer=tracer, detail=detail and i < workload.cycle))
        i += 1
        if time.perf_counter() - probed_at >= PROBE_EVERY_S:
            after, probed_at = probe(), time.perf_counter()
            for unit in pending:
                unit.scale = speed_scale(before, after)
            units += pending
            pending, before = [], after
    if pending:
        after = probe()
        for unit in pending:
            unit.scale = speed_scale(before, after)
        units += pending
    return units


def per_input(units, seconds_of) -> dict:
    """Median of ``seconds_of(i, unit)`` over each input's units."""
    by_key: dict[str, list] = {}
    for i, u in enumerate(units):
        by_key.setdefault(u.key, []).append(seconds_of(i, u))
    return {key: statistics.median(values) for key, values in by_key.items()}


def first_cycle(workload, units):
    return units[: workload.cycle]


def digest_failures(units) -> tuple[dict, int]:
    """First digest per input, and how many later units disagreed."""
    first: dict[str, str] = {}
    mismatches = 0
    for u in units:
        if first.setdefault(u.key, u.digest) != u.digest:
            mismatches += 1
    return first, mismatches


def throughputs(workload, units, scaled: bool) -> tuple[float, float]:
    """Analyses and operations per second over one cycle."""
    cycle_s = sum(per_input(units, lambda _, u: u.seconds * (u.scale if scaled else 1)).values())
    ref = first_cycle(workload, units)
    return sum(u.systems for u in ref) / cycle_s, sum(u.ops for u in ref) / cycle_s


def end_to_end(workload, units, setup_s: float) -> dict:
    latencies = [x for u in first_cycle(workload, units) for x in u.latencies]
    systems_per_s, ops_per_s = throughputs(workload, units, scaled=True)
    return {
        "setup_s": setup_s,
        "systems_per_s": systems_per_s,
        "ops_per_s": ops_per_s,
        "op_latency_steps_p50": percentile(latencies, 0.50),
        "op_latency_steps_p90": percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mb(),
    }


# Per-layer times: span name -> metric, in seconds per cycle.
SPAN_METRICS = {
    "model.make_spec": "model.spec_build_s",
    "tolerance.t_bridge": "tolerance.t_bridge_s",
    "tolerance.t_direct": "tolerance.t_direct_s",
    "tolerance.t_uniform": "tolerance.t_uniform_s",
    "lowerbound.find_witness": "lowerbound.find_witness_s",
    "lowerbound.build_e3": "lowerbound.build_e3_s",
    "lowerbound.demo": "lowerbound.demo_s",
    "sim.init": "sim.init_s",
    "sim.run": "sim.run_s",
    "sim.trace_lines": "sim.trace_lines_s",
    "sim.load_trace": "sim.load_trace_s",
    "sim.history_from_trace": "sim.history_from_trace_s",
    "checker.check_property1": "checker.property1_s",
    "checker.check_property2": "checker.property2_s",
    "checker.check_monotonicity": "checker.monotonicity_s",
    "checker.check_completion": "checker.completion_s",
    "cli.fuzz": "cli.fuzz_s",
    "cli.main": "cli.check_s",
}

# Per-layer counts, summed over the first cycle.
COUNT_METRICS = (
    "model.registers",
    "lowerbound.e3_steps",
    "sim.steps",
    "sim.stranded_msgs",
    "sim.trace_bytes",
    "checker.reads",
    "checker.writes",
)


def instrument(tracer) -> None:
    """Wrap every name through which the benchmark or a library caller
    reaches a layer.  ``mmreg.lowerbound`` keeps its own bindings of
    ``t_bridge`` and ``smallest_failing_pair`` unwrapped, so
    ``tolerance.*`` counts only the calls made for the threshold itself."""
    from mmreg import checker, cli, lowerbound, model, sim, tolerance

    tracer.wrap(model, "make_spec", "model.make_spec")
    for owner in (tolerance, cli):
        tracer.wrap(owner, "t_bridge", "tolerance.t_bridge")
    tracer.wrap(tolerance, "smallest_failing_pair", "tolerance.smallest_failing_pair")
    tracer.wrap(tolerance, "t_direct", "tolerance.t_direct")
    tracer.wrap(tolerance, "t_uniform", "tolerance.t_uniform")
    for name in ("demo", "find_witness", "build_e3"):
        tracer.wrap(lowerbound, name, f"lowerbound.{name}")
    tracer.wrap(sim.Simulator, "__init__", "sim.init")
    tracer.wrap(sim.Simulator, "run", "sim.run")
    for owner in (sim, cli):
        tracer.wrap(owner, "run_simulation", "sim.run_simulation")
        tracer.wrap(owner, "history_from_trace", "sim.history_from_trace")
    tracer.wrap(sim, "trace_lines", "sim.trace_lines")
    tracer.wrap(cli, "load_trace", "sim.load_trace")
    for name in ("check_property1", "check_property2", "check_monotonicity", "check_completion"):
        for owner in (checker, cli):
            tracer.wrap(owner, name, f"checker.{name}")
    tracer.wrap(lowerbound, "check_property1", "checker.check_property1")
    tracer.wrap(checker, "check_all", "checker.check_all")
    tracer.wrap(cli, "fuzz", "cli.fuzz")
    tracer.wrap(cli, "main", "cli.main")


def per_layer(workload, inputs, tracer, units, untraced, setup_scale: float) -> dict:
    """Per-layer metrics from the traced units, per cycle; times are
    scaled to the reference speed like the end-to-end ones."""

    def layer_time(select) -> float:
        by_unit = [0.0] * len(units)
        for (unit, _), seconds in tracer.totals("unit", select).items():
            by_unit[unit] += seconds
        cycle = per_input(units, lambda i, u: by_unit[i] * u.scale)
        in_setup = sum(tracer.totals("setup", select).values()) * setup_scale
        return in_setup + sum(cycle.values())

    out = {metric: layer_time(lambda s, n=name: s.name == n) for name, metric in SPAN_METRICS.items()}

    def direct_bridge(s, band):
        parent = tracer.parent_of(s)
        return s.name == "tolerance.t_bridge" and parent is not None and parent.attrs.get("band") == band

    for band in ("n12", "n14", "n16"):
        out[f"tolerance.t_bridge_s.{band}"] = layer_time(lambda s, b=band: direct_bridge(s, b))
    out["tolerance.witness_s"] = layer_time(
        lambda s: s.name == "tolerance.smallest_failing_pair"
        and tracer.parent_of(s) is not None
        and tracer.parent_of(s).name == "tolerance.t_bridge"
    )
    out["tolerance.threshold_s"] = out["tolerance.t_bridge_s"] - out["tolerance.witness_s"]

    counts = {"model.registers": inputs["registers"]}
    for u in first_cycle(workload, units):
        for k, v in u.counts.items():
            counts[k] = counts.get(k, 0) + v
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    ops = counts.get("protocol.ops", 0)
    for key, metric in (
        ("protocol.msgs", "protocol.msgs_per_op"),
        ("protocol.reg_reads", "protocol.reg_reads_per_op"),
        ("protocol.reg_writes", "protocol.reg_writes_per_op"),
    ):
        out[metric] = counts.get(key, 0) / ops if ops else 0.0
    out["sim.steps_per_s"] = counts.get("sim.steps", 0) / out["sim.run_s"] if out["sim.run_s"] else 0.0

    def cycle_s(us) -> float:
        return sum(per_input(us, lambda _, u: u.seconds * u.scale).values())

    out["tracing.overhead"] = cycle_s(units) / cycle_s(untraced) - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    table = load_metric_table()
    _import_library()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)

    if args.trace == 0:
        inputs, raw_setup_s, setup_s = timed_setup(workload, args.seed, work_dir)
        units = run_units(workload, inputs, args.seconds)
        metrics = end_to_end(workload, units, setup_s)
        raw_systems, raw_ops = throughputs(workload, units, scaled=False)
        print(
            f"raw setup_s={raw_setup_s:.6g} systems_per_s={raw_systems:.6g} ops_per_s={raw_ops:.6g} "
            f"probe={statistics.median(1 / u.scale for u in units):.4g}x reference, {len(units)} units"
        )
        wanted = table["end_to_end"]
    else:
        tracer = Tracer()
        before = probe()
        instrument(tracer)
        try:
            inputs = workload.setup(args.seed, work_dir)
        finally:
            tracer.restore()
        setup_scale = speed_scale(before, probe())
        # Both halves collect the same counts, so that their difference
        # is the cost of the spans alone.
        untraced = run_units(workload, inputs, args.seconds / 2, detail=True)
        tracer.phase = "unit"
        instrument(tracer)
        try:
            units = run_units(workload, inputs, 0, tracer=tracer, count=len(untraced), detail=True)
        finally:
            tracer.restore()
        metrics = per_layer(workload, inputs, tracer, units, untraced, setup_scale)
        units = untraced + units
        tracer.dump(work_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = table["per_layer"]

    digests, mismatches = digest_failures(units)
    for key, digest in digests.items():
        print(f"digest {args.workload} seed={args.seed} {key} sha256={digest}")
    control_attempted, control_failed = workload.finish(inputs)
    attempted = sum(u.attempted for u in units) + len(units) + control_attempted
    failed = sum(u.failed for u in units) + mismatches + control_failed
    print(
        f"failure_ratio {failed}/{attempted} = {failed / attempted:.6f} ratio "
        "(base: gated systems, ops or checks, one determinism check per unit, negative controls)"
    )

    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    if missing or extra:
        print(f"error: metrics do not match BENCHMARK.json: missing {missing}, unexpected {extra}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
