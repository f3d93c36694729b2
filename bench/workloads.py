"""The four benchmark workloads.

Each workload is a closed loop with one caller: ``setup`` builds every
input from the seed, and ``unit(inputs, i)`` runs input ``i % cycle``,
timing only the calls into mmreg, then checks the outputs outside the
timed region.  The library is always reached through its module
attributes (``tolerance.t_bridge``, ``cli.fuzz`` ...) so that a traced
run can wrap exactly the names the callers use.

Why these four: ``threshold`` loads ``tolerance`` and ``lowerbound``;
``sim-wide`` loads the scheduler at n=40, where its per-step cost shows;
``fuzz`` runs the same simulator as many short runs at n=5, so per-run
set-up and small-n scheduling dominate; ``check-long`` is the only one
where ``checker`` dominates.  See README.md for what each per-layer
metric should move.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from mmreg import checker, cli, lowerbound, model, tolerance
from mmreg import sim as simmod

import synth
from tracer import Patches


@dataclass
class UnitResult:
    """What one unit of measured work did, and whether it was right."""

    seconds: float  # time inside the calls into mmreg
    systems: int  # analyses completed
    ops: int  # register operations completed and verified
    latencies: list  # invoke-to-respond steps of the completed operations
    attempted: int  # items put through a correctness gate
    failed: int  # items that failed their gate
    key: str  # identity of the input; equal keys must give equal digests
    digest: str  # SHA-256 of the outputs
    counts: dict = field(default_factory=dict)  # per-layer counts for this input
    scale: float = 1.0  # factor to the reference host speed, set by the caller


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def protocol_counts(trace) -> dict:
    """Messages sent and register accesses in a simulator trace."""
    kinds = Counter(ev["kind"] for ev in trace)
    return {
        "protocol.msgs": kinds["send"],
        "protocol.reg_reads": kinds["reg-read"],
        "protocol.reg_writes": kinds["reg-write"],
        "protocol.ops": kinds["invoke"],
    }


def history_counts(history) -> dict:
    return {
        "checker.reads": sum(1 for h in history if h["kind"] == "read"),
        "checker.writes": sum(1 for h in history if h["kind"] == "write"),
    }


def add_counts(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


def path_spec(n: int) -> model.SystemSpec:
    """Uniform system of the path 1-2-...-n, writer 1."""
    return model.make_spec(graph=model.Graph.from_edges(n, [(p, p + 1) for p in range(1, n)]), writer=1)


class Workload:
    """Interface of a workload.  Sizes are class attributes; the tests
    run smaller copies."""

    name: str
    cycle: int  # distinct inputs; unit i runs input i % cycle

    def setup(self, seed: int, work_dir: Path) -> dict:
        """Every input, built from the seed; ``registers`` counts the
        registers of the specs built."""
        raise NotImplementedError

    def unit(self, inputs: dict, i: int, tracer=None, detail: bool = False) -> UnitResult:
        """Run input ``i % cycle`` once; ``detail`` asks for per-layer counts."""
        raise NotImplementedError

    def finish(self, inputs: dict) -> tuple[int, int]:
        """Checks made once per run, after the measured loop: (attempted, failed)."""
        return 0, 0


# -- threshold -------------------------------------------------------------


def random_bag(rng: random.Random, n: int) -> model.Bag:
    """n sharing sets of 1 to 4 random processes, normalized."""
    sets = [rng.sample(range(1, n + 1), rng.randint(1, 4)) for _ in range(n)]
    return model.normalize_bag(model.bag_of(n, *sets))


# Each edge of a random graph is present with this chance: sparse enough
# at n = 10..12 that t_L stays below n-1, so every graph system has a
# witness and a certified run to check.
GRAPH_EDGE_P = 0.25


def random_graph(rng: random.Random, n: int) -> model.Graph:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < GRAPH_EDGE_P]
    return model.Graph.from_edges(n, edges)


def band(n: int) -> str:
    return "n12" if n <= 12 else "n14" if n <= 14 else "n16"


class Threshold(Workload):
    """Threshold, witness and certified impossibility run for a corpus.

    The corpus comes from a fixed seed, so every run analyses the same
    systems and the cost of the quadratic witness search (which depends
    on where the first failing pair lies) does not vary from seed to
    seed; the run's seed sets the order of analysis.  One unit analyses
    one system; a cycle is one pass over the corpus.
    """

    name = "threshold"
    corpus_seed = 1906
    bags = ((12, 4), (14, 2), (16, 2))  # (n, how many)
    graphs = (10, 12)  # n of each graph-induced system

    @property
    def cycle(self) -> int:
        return sum(count for _, count in self.bags) + len(self.graphs)

    def setup(self, seed: int, work_dir: Path) -> dict:
        rng = random.Random(self.corpus_seed)
        systems = []
        for n, count in self.bags:
            for _ in range(count):
                bag = random_bag(rng, n)
                systems.append((model.make_spec(bag=bag, writer=rng.randint(1, n)), None))
        for n in self.graphs:
            g = random_graph(rng, n)
            systems.append((model.make_spec(graph=g, writer=rng.randint(1, n)), g))
        random.Random(seed).shuffle(systems)
        return {"systems": systems, "registers": sum(len(spec.registers) for spec, _ in systems)}

    def unit(self, inputs: dict, i: int, tracer=None, detail: bool = False) -> UnitResult:
        spec, graph = inputs["systems"][i % self.cycle]
        bag = spec.bag
        start = perf_counter()
        with _span(tracer, "system", n=spec.n, band=band(spec.n)):
            res = tolerance.t_bridge(bag)
            if res.t < spec.n - 1:  # s* >= 1, so a witness must be given
                gates = [res.witness is not None and tolerance.verify_witness(bag, res.t, res.witness)]
            else:
                gates = [res.witness is None]
            if spec.n <= tolerance.DIRECT_LIMIT:
                # Both search for the lexicographically smallest failing
                # pair at the same size, so the witness must match too.
                direct = tolerance.t_direct(bag)
                gates.append((direct.t, direct.witness) == (res.t, res.witness))
            if graph is not None:
                gates.append(tolerance.t_uniform(graph).t == res.t)
            report = lowerbound.demo(spec, res.t + 1)
        seconds = perf_counter() - start

        ok = all(gates) and report["violation_certified"] and report["no_crashes"]
        history = report["history"]
        latencies = [h["response"] - h["invoke"] for h in history if h["response"] is not None]
        counts = {
            "lowerbound.e3_steps": len(report["trace"]),
            "sim.steps": len(report["trace"]),
        }
        if detail:
            add_counts(counts, protocol_counts(report["trace"]))
            add_counts(counts, history_counts(history))
        return UnitResult(
            seconds,
            systems=1,
            ops=len(latencies),
            latencies=latencies,
            attempted=1,
            failed=int(not ok),
            key=f"system={i % self.cycle}",
            digest=sha256(json.dumps([spec.n, res.t, res.witness, report["trace"]], separators=(",", ":"))),
            counts=counts,
        )


# -- sim-wide --------------------------------------------------------------


class SimWide(Workload):
    """Uniform system of a 40-process path, t = floor((n-1)/2) = 19.

    Each input is a closed loop inside the simulation: the writer and
    three seeded reader processes each invoke their next operation as
    soon as the previous one responds, so operations always overlap and
    the load stays level.  Two in five operations are writes.  Seeded
    crashes of processes that issue no operations are spread over the
    run.  One unit runs simulate -> trace lines -> history -> all four
    checks on one input.
    """

    name = "sim-wide"
    n = 40
    n_ops = 60
    readers = 3
    crashes = 8
    crash_window = 20000  # steps over which the crashes are spread
    cycle = 16  # inputs; 960 ops keep the median step latency steady across seeds

    def setup(self, seed: int, work_dir: Path) -> dict:
        n = self.n
        spec = path_spec(n)
        t = tolerance.lower_bound_floor(n)
        rng = random.Random(seed)
        others = [p for p in range(1, n + 1) if p != spec.writer]
        inputs = []
        for _ in range(self.cycle):
            # One reader from each stretch of the path, so that every
            # input mixes readers near the writer and far from it.
            stretch = len(others) // self.readers
            readers = [rng.choice(others[k * stretch : (k + 1) * stretch]) for k in range(self.readers)]
            ops, writes, reads = [], 0, 0
            for k in range(self.n_ops):
                if k % 5 in (0, 3):
                    writes += 1
                    ops.append(simmod.WorkloadOp("write", spec.writer, f"w{writes}", 0))
                else:
                    ops.append(simmod.WorkloadOp("read", readers[reads % self.readers], None, 0))
                    reads += 1
            victims = rng.sample([p for p in others if p not in readers], self.crashes)
            slot = self.crash_window // self.crashes
            plan = tuple(sorted((p, j * slot + rng.randrange(slot)) for j, p in enumerate(victims)))
            inputs.append((ops, simmod.Schedule("fair", seed=rng.randrange(2**32), crash_plan=plan)))
        return {"spec": spec, "t": t, "inputs": inputs, "registers": len(spec.registers)}

    def unit(self, inputs: dict, i: int, tracer=None, detail: bool = False) -> UnitResult:
        spec, t = inputs["spec"], inputs["t"]
        ops, schedule = inputs["inputs"][i % self.cycle]
        start = perf_counter()
        sim = simmod.run_simulation(spec, t, ops, schedule)
        lines = simmod.trace_lines(sim.trace)
        history = simmod.history_from_trace(sim.trace)
        verdict = checker.check_all(sim.trace, history=history, crashed=sim.crashed, t=t)
        seconds = perf_counter() - start

        latencies = [r.response_step - r.invoke_step for r in sim.ops if r.response_step is not None]
        starved = sum(1 for r in sim.ops if r.response_step is None and r.proc not in sim.crashed)
        live = sum(1 for v in verdict.violations if v.prop == "LIVE")
        text = "\n".join(lines) + "\n"
        counts = {
            "sim.steps": sim.step,
            "sim.stranded_msgs": len(sim.network),
            "sim.trace_bytes": len(text.encode()),
        }
        if detail:
            add_counts(counts, protocol_counts(sim.trace))
            add_counts(counts, history_counts(history))
        return UnitResult(
            seconds,
            systems=1,
            ops=len(latencies),
            latencies=latencies,
            attempted=len(sim.ops),
            failed=max(starved, live) + len(verdict.violations) - live,
            key=f"input={i % self.cycle}",
            digest=sha256(text),
            counts=counts,
        )


# -- fuzz ------------------------------------------------------------------


class _Observer:
    """Keeps what ``cli.fuzz`` does not report about each run it
    simulates: which operations completed, their latency, the steps.
    Swapped in around ``mmreg.cli.run_simulation`` in every mode."""

    def __init__(self, detail: bool):
        self.detail = detail
        self.latencies: list[int] = []
        self.attempted = 0
        self.starved = 0
        self.counts: dict = {"sim.steps": 0, "sim.stranded_msgs": 0}

    def around(self, run_simulation):
        """``run_simulation`` that records every run it returns."""

        def observed(*args, **kwargs):
            sim = run_simulation(*args, **kwargs)
            self.record(sim)
            return sim

        return observed

    def record(self, sim) -> None:
        for r in sim.ops:
            self.attempted += 1
            if r.response_step is not None:
                self.latencies.append(r.response_step - r.invoke_step)
            elif r.proc not in sim.crashed:
                self.starved += 1
        self.counts["sim.steps"] += sim.step
        self.counts["sim.stranded_msgs"] += len(sim.network)
        if self.detail:
            add_counts(self.counts, protocol_counts(sim.trace))
            invoked = [{"kind": r.kind} for r in sim.ops if r.invoke_step is not None]
            add_counts(self.counts, history_counts(invoked))


class Fuzz(Workload):
    """``cli.fuzz`` on the five-process system of the README (t_L = 3),
    crash counts drawn within t_L.  One unit is one ``cli.fuzz`` call of
    250 seeded runs; a cycle of eight base seeds makes 2000 runs, so that
    the work per cycle varies by under 2 % from seed to seed."""

    name = "fuzz"
    runs = 250
    cycle = 8  # distinct base seeds, reused in turn

    def setup(self, seed: int, work_dir: Path) -> dict:
        graph = model.Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        spec = model.make_spec(graph=graph, writer=1)
        base_seeds = [seed * self.cycle + k for k in range(self.cycle)]
        return {"spec": spec, "base_seeds": base_seeds, "registers": len(spec.registers)}

    def unit(self, inputs: dict, i: int, tracer=None, detail: bool = False) -> UnitResult:
        base_seed = inputs["base_seeds"][i % self.cycle]
        seen = _Observer(detail)
        with Patches() as patches:
            patches.swap(cli, "run_simulation", seen.around)
            start = perf_counter()
            summary = cli.fuzz(inputs["spec"], self.runs, base_seed)
            seconds = perf_counter() - start
        violations = sum(
            1 for issue in summary["violations"] for v in issue["violations"] if v["prop"] != "LIVE"
        )
        return UnitResult(
            seconds,
            systems=summary["runs"],
            ops=len(seen.latencies),
            latencies=seen.latencies,
            attempted=seen.attempted,
            failed=max(seen.starved, summary["starved"]) + violations,
            key=f"base_seed={base_seed}",
            digest=sha256(json.dumps(summary, sort_keys=True)),
            counts=seen.counts,
        )


# -- check-long ------------------------------------------------------------


def cli_check(path: Path) -> tuple[int, dict]:
    """``mmreg check --trace path`` in-process: exit code and report."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["check", "--trace", str(path)])
    return rc, json.loads(out.getvalue())


class CheckLong(Workload):
    """``mmreg check`` on a long clean single-writer trace written in
    set-up; seeded copies with injected violations are negative controls."""

    name = "check-long"
    n = 40
    n_ops = 3000
    cycle = 1

    def setup(self, seed: int, work_dir: Path) -> dict:
        spec = path_spec(self.n)
        rng = random.Random(seed)
        trace = synth.clean_trace(spec, rng, self.n_ops)
        path = work_dir / f"check-long-{seed}.jsonl"
        simmod.emit_trace(trace, path)
        controls = []
        for make in synth.CONTROLS:
            bad, injected = make(trace, rng)
            cpath = work_dir / f"check-long-{seed}-{injected.prop}.jsonl"
            simmod.emit_trace(bad, cpath)
            controls.append((cpath, injected))
        invoked = {ev["payload"]["op"]: ev for ev in trace if ev["kind"] == "invoke"}
        latencies = [ev["step"] - invoked[ev["payload"]["op"]]["step"] for ev in trace if ev["kind"] == "respond"]
        return {
            "spec": spec,
            "path": path,
            "controls": controls,
            "latencies": latencies,
            "registers": len(spec.registers),
            "counts": {
                "sim.trace_bytes": path.stat().st_size,
                "checker.reads": sum(1 for ev in invoked.values() if ev["payload"]["kind"] == "read"),
                "checker.writes": sum(1 for ev in invoked.values() if ev["payload"]["kind"] == "write"),
            },
        }

    def unit(self, inputs: dict, i: int, tracer=None, detail: bool = False) -> UnitResult:
        start = perf_counter()
        rc, report = cli_check(inputs["path"])
        seconds = perf_counter() - start
        return UnitResult(
            seconds,
            systems=1,
            ops=len(inputs["latencies"]),
            latencies=inputs["latencies"],
            attempted=1,
            failed=int(rc != 0 or not report["ok"]),
            key="trace",
            digest=sha256(json.dumps(report, sort_keys=True)),
            counts=dict(inputs["counts"]),
        )

    def finish(self, inputs: dict) -> tuple[int, int]:
        """Run the negative controls: every injected violation must be
        reported.  Returns (attempted, failed)."""
        failed = 0
        for path, injected in inputs["controls"]:
            rc, report = cli_check(path)
            failed += not (rc == 1 and synth.detected(injected, report["violations"]))
            path.unlink()
        inputs["path"].unlink()
        return len(inputs["controls"]), failed


WORKLOADS = {w.name: w for w in (Threshold, SimWide, Fuzz, CheckLong)}
