"""Single entry point for threshold computation, simulation, checking,
the lower-bound demo, and batch fuzzing.

Everything is JSON in and JSON out; exit code 0 for success or a clean
verdict, 1 when a violation is found, 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .checker import PROPERTIES, check_all
from .lowerbound import demo
from .model import load_spec
from .protocol import ProtocolError, ack_quorum
from .sim import Schedule, SimError, WorkloadOp, collector_paused, run_simulation
from .tolerance import BRIDGE_LIMIT, DIRECT_LIMIT, t_bridge, t_direct
from .trace import emit_trace, load_trace, project_records

# Bound here only so that bench/run.py can wrap them on this module by name.
from .checker import check_completion, check_monotonicity, check_property1, check_property2  # noqa: F401
from .trace import history_from_trace  # noqa: F401


def _load_workload(path) -> list[WorkloadOp]:
    """Read a workload file: a JSON list of {"op", "proc", "value"?,
    "at-step"?} objects.  Only that shape is checked here, raising
    SimError; the fields are the Simulator's to check."""
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not (isinstance(raw, list) and all(isinstance(d, dict) for d in raw)):
        raise SimError("workload must be a JSON list of objects")
    return [WorkloadOp(d.get("op"), d.get("proc"), d.get("value"), d.get("at-step", 0)) for d in raw]


def _parse_crash(text: str):
    proc, _, step = text.partition("@")
    try:
        return (int(proc), int(step))
    except ValueError:
        raise SimError(f"crash must be P@STEP, got {text!r}") from None


# -- fuzzing ---------------------------------------------------------------

# A random workload has 1 to this many operations.
MAX_FUZZ_OPS = 10


def random_workload(spec, rng: random.Random) -> list[WorkloadOp]:
    ops = []
    wseq = 0
    for _ in range(rng.randint(1, MAX_FUZZ_OPS)):
        if rng.random() < 0.4:
            wseq += 1
            ops.append(WorkloadOp("write", spec.writer, f"w{wseq}", rng.randint(0, 60)))
        else:
            ops.append(WorkloadOp("read", rng.randint(1, spec.n), None, rng.randint(0, 60)))
    return ops


def random_crash_plan(spec, rng: random.Random, crashes: int):
    pids = rng.sample(range(1, spec.n + 1), crashes)
    return tuple((p, rng.randint(0, 150)) for p in sorted(pids))


def fuzz(spec, runs: int, base_seed: int, crashes: int | None = None, t: int | None = None) -> dict:
    """Seeded batch of random runs, each checked for atomicity and
    monotonicity, and for completion when the run crashes at most as
    many processes as the t it runs with.  Crash plans stay within the
    tolerated budget unless overridden.

    Each run is checked from its records (`trace.project_records`), so
    the batch renders no dict event.  The loop of runs, from each
    workload to its recorded issues, runs under `collector_paused`.
    Every run dies inside it, freed by reference counting when the next
    replaces it, so no collection ever walks a run's records;
    `t_bridge` and the summary stay outside."""
    for name, value in (("runs", runs), ("base_seed", base_seed)):
        if type(value) is not int:  # bool is an int subclass
            raise SimError(f"{name} must be an integer, got {value!r}")
        if value < 0:  # random.Random(-s) seeds from s
            raise SimError(f"{name} must be >= 0, got {value}")
    for name, value in (("crashes", crashes), ("t", t)):
        if value is not None and type(value) is not int:
            raise SimError(f"{name} must be an integer or None, got {value!r}")
    if crashes is not None and not 0 <= crashes <= spec.n:
        raise SimError(f"crashes must be in 0..{spec.n}, got {crashes}")
    if t is not None:
        ack_quorum(spec.n, t)  # a t that leaves no ack quorum is refused before any run, even with runs=0
    t_l = t_bridge(spec.bag).t if t is None or crashes is None else None
    threshold = t_l if t is None else t
    issues = []
    starved = 0
    total_steps = 0
    with collector_paused():
        for i in range(runs):
            seed = base_seed * 1_000_003 + i
            rng = random.Random(seed)
            workload = random_workload(spec, rng)
            n_crashes = crashes if crashes is not None else rng.randint(0, t_l)
            plan = random_crash_plan(spec, rng, n_crashes)
            sim = run_simulation(spec, threshold, workload, Schedule("fair", seed=seed, crash_plan=plan))
            total_steps += sim.step
            props = PROPERTIES if n_crashes <= threshold else ("1", "2", "mono")
            verdict = check_all(project_records(sim.records), t=threshold, props=props)
            starved += sum(1 for v in verdict.violations if v.prop == "LIVE")
            if not verdict.ok:
                issues.append({"seed": seed, "violations": verdict.as_dicts()})
        sim = None  # the last run, too, dies under the pause, so no collection walks its records
    return {
        "runs": runs,
        "threshold": threshold,
        "violations": issues,
        "starved": starved,
        "mean_steps": total_steps / runs if runs else 0.0,
    }


# -- subcommands -----------------------------------------------------------


def cmd_tolerance(args) -> int:
    spec = load_spec(args.spec)
    res = t_bridge(spec.bag)
    # Cross-check with the exhaustive search where it runs.
    direct = t_direct(spec.bag) if spec.n <= DIRECT_LIMIT else res
    if direct != res:
        print(f"error: direct and bridge disagree: {direct.t} vs {res.t}, witnesses {direct.witness} vs {res.witness}", file=sys.stderr)
        return 1
    print(json.dumps({"n": spec.n, "t": res.t, "witness": list(map(list, res.witness)) if res.witness else None}))
    return 0


def cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    t = args.threshold if args.threshold is not None else t_bridge(spec.bag).t
    workload = _load_workload(args.workload)
    crash_plan = tuple(_parse_crash(c) for c in args.crash)
    schedule = Schedule(args.policy, seed=args.seed, crash_plan=crash_plan)
    sim = run_simulation(spec, t, workload, schedule)
    emit_trace(sim.trace, args.trace)
    responded = sum(1 for r in sim.ops if r.response_step is not None)
    print(
        json.dumps(
            {
                "steps": sim.step,
                "ops": len(sim.ops),
                "responded": responded,
                "quiescent": sim.is_quiescent(),
                "trace": args.trace,
            }
        )
    )
    return 0


def cmd_check(args) -> int:
    verdict = check_all(load_trace(args.trace), props=args.properties.split(","))
    print(json.dumps({"ok": verdict.ok, "violations": verdict.as_dicts()}))
    return 0 if verdict.ok else 1


def cmd_violate(args) -> int:
    spec = load_spec(args.spec)
    report = demo(spec, args.t)
    report["t_L"] = t_bridge(spec.bag).t if spec.n <= BRIDGE_LIMIT else None  # the run needs only the witness
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f)
            f.write("\n")
    summary = {k: report[k] for k in ("n", "t", "t_L", "writer", "reader", "witness", "violation_certified", "no_crashes", "isolation_ok")}
    print(json.dumps(summary))
    return 0 if report["violation_certified"] else 1


def cmd_fuzz(args) -> int:
    spec = load_spec(args.spec)
    summary = fuzz(spec, args.runs, args.seed, crashes=args.crashes, t=args.threshold)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f)
            f.write("\n")
    print(json.dumps({k: summary[k] for k in ("runs", "threshold", "starved", "mean_steps")} | {"violations": len(summary["violations"])}))
    if summary["violations"] or summary["starved"]:
        for issue in summary["violations"][:5]:
            print(f"violating seed: {issue['seed']}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tolerance", help="compute the crash-tolerance threshold")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_tolerance)

    p = sub.add_parser("simulate", help="run a workload and emit a trace")
    p.add_argument("--spec", required=True)
    p.add_argument("--threshold", type=int, default=None, help="tolerated crashes t (default: computed threshold)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=["fair", "fifo"], default="fair")
    p.add_argument("--crash", action="append", default=[], metavar="P@STEP")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="verify atomicity of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--properties", default=",".join(PROPERTIES))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("violate", help="demonstrate impossibility above the threshold")
    p.add_argument("--spec", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_violate)

    p = sub.add_parser("fuzz", help="seeded batch of checked random runs")
    p.add_argument("--spec", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crashes", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # json raises RecursionError on a document nested too deep to decode.
    except (SimError, ProtocolError, OSError, ValueError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
