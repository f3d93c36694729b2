import gc
import random
import re
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import mmreg.cli as cli
import mmreg.sim as sim_module
import lowerbound_oracle
import sim_oracle as oracle
from mmreg import (
    Graph,
    Schedule,
    SimError,
    Simulator,
    TaggedValue,
    WorkloadOp,
    bag_of,
    build_e3,
    check_all,
    emit_trace,
    find_witness,
    history_from_trace,
    load_trace,
    make_spec,
    run_simulation,
    schedule_from_trace,
)
from mmreg.sim import AccessError, ScriptError
from mmreg.trace import KINDS, render, trace_lines


def write_then_read(reader=2):
    return [
        WorkloadOp("write", 1, "a", 0),
        WorkloadOp("read", reader, None, 1000),
    ]


def replay_with_one_event_more(spec):
    """Replay a fair run's script with one more event at its end."""
    original = run_simulation(spec, 1, write_then_read(), Schedule("fair", seed=3))
    script = schedule_from_trace(original.trace) + (("invoke", 7),)
    return run_simulation(spec, 1, write_then_read(), Schedule("scripted", script=script))


class TestBasicRuns:
    def test_read_sees_completed_write(self, msg3_spec):
        sim = run_simulation(msg3_spec, 1, write_then_read(), Schedule("fifo"))
        write, read = history_from_trace(sim.trace)
        assert write["response"] is not None
        assert read["value"] == [1, "a"]
        assert sim.is_quiescent()

    def test_fresh_read_returns_initial_value(self, msg3_spec):
        sim = run_simulation(msg3_spec, 1, [WorkloadOp("read", 3, None, 0)], Schedule("fifo"))
        assert history_from_trace(sim.trace)[0]["value"] == [0, None]

    def test_empty_workload_immediately_quiescent(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [])
        assert sim.is_quiescent()
        sim.run(Schedule("fifo"))
        assert sim.trace == []

    def test_mid_run_not_quiescent(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0)])
        sim.apply(("invoke", 0))
        assert not sim.is_quiescent()

    def test_write_by_non_writer_rejected(self, msg3_spec):
        with pytest.raises(SimError, match="writer"):
            Simulator(msg3_spec, 1, [WorkloadOp("write", 2, "a", 0)])

    def test_bad_threshold_rejected(self, msg3_spec):
        with pytest.raises(Exception, match="quorum"):
            Simulator(msg3_spec, 3, [])

    def test_timed_invocations_are_ordered(self, msg3_spec):
        wl = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 5000)]
        sim = run_simulation(msg3_spec, 1, wl, Schedule("fair", seed=5))
        assert sim.ops[1].invoke_step >= 5000
        assert sim.ops[0].response_step < sim.ops[1].invoke_step


class TestDeterminism:
    def test_identical_traces_same_seed(self, fig1_spec):
        wl = write_then_read(4)
        runs = [
            run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=99)).trace
            for _ in range(3)
        ]
        assert trace_lines(runs[0]) == trace_lines(runs[1]) == trace_lines(runs[2])

    def test_different_seeds_may_differ(self, fig1_spec):
        wl = write_then_read(4)
        a = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=1)).trace
        b = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=2)).trace
        assert trace_lines(a) != trace_lines(b)


class TestCrashes:
    def test_tolerated_crashes_do_not_block(self, fig1_spec):
        # Crash t_L processes before any step; remaining ops still finish.
        plan = ((3, 0), (4, 0), (5, 0))
        wl = write_then_read(2)
        for seed in range(10):
            sim = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=seed, crash_plan=plan))
            assert all(r.response_step is not None for r in sim.ops)
            assert check_all(sim.trace, crashed=sim.crashed, t=3).ok

    def test_excess_crashes_starve_a_quorum(self, msg3_spec):
        plan = ((2, 0), (3, 0))  # t_L + 1 crashes for n=3
        sim = run_simulation(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0)], Schedule("fair", seed=0, crash_plan=plan))
        assert sim.is_quiescent()
        assert sim.ops[0].response_step is None

    def test_crashed_process_takes_no_step(self, fig1_spec):
        plan = ((2, 10),)
        sim = run_simulation(fig1_spec, 3, write_then_read(4), Schedule("fair", seed=3, crash_plan=plan))
        crash_step = next(ev["step"] for ev in sim.trace if ev["kind"] == "crash")
        after = [ev for ev in sim.trace if ev["step"] > crash_step and ev["actor"] == 2]
        assert after == []

    def test_registers_survive_owner_crash(self, fig1_spec):
        # Writer's registers remain readable after the writer crashes.
        wl = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 2000)]
        sim = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=1, crash_plan=((1, 1000),)))
        read = history_from_trace(sim.trace)[1]
        assert read["response"] is not None and read["value"] is not None

    @pytest.mark.parametrize("seed", range(3))
    def test_run_fires_the_schedule_crash_plan(self, fig1_spec, seed):
        schedule = Schedule("fair", seed=seed, crash_plan=((2, 0),))
        wl = write_then_read(4)
        sim = Simulator(fig1_spec, 3, wl).run(schedule)
        assert sim.crashed == {2}
        assert trace_lines(sim.trace) == trace_lines(run_simulation(fig1_spec, 3, wl, schedule).trace)

    def test_duplicate_crash_entry_rejected(self, msg3_spec):
        with pytest.raises(SimError, match="twice"):
            run_simulation(msg3_spec, 1, [], Schedule(crash_plan=((1, 0), (1, 5))))

    @pytest.mark.parametrize("entry", [(True, 0), (2.0, 3), (2, 2.5), ("2", 1), (2,)], ids=repr)
    def test_crash_plan_entry_must_be_a_pair_of_ints(self, msg3_spec, entry):
        with pytest.raises(SimError, match=f"^crash plan entry {re.escape(repr(entry))} is not a pair of integers$"):
            run_simulation(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0)], Schedule("fair", crash_plan=(entry,)))

    @pytest.mark.parametrize("plan", [5, None], ids=repr)
    def test_crash_plan_must_be_a_collection(self, msg3_spec, plan):
        with pytest.raises(SimError, match=f"^crash plan {plan!r} is not a collection of \\(process, step\\) pairs$"):
            run_simulation(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0)], Schedule("fair", crash_plan=plan))

    @pytest.mark.parametrize(
        "seed, problem",
        [
            (None, "is not an integer"),
            ([1], "is not an integer"),
            (True, "is not an integer"),
            (1.5, "is not an integer"),
            ("7", "is not an integer"),
            (-7, "is negative"),
        ],
        ids=["None", "[1]", "True", "1.5", "'7'", "-7"],
    )
    @pytest.mark.parametrize("policy", ["fair", "fifo", "scripted"])
    def test_seed_must_be_an_int(self, msg3_spec, policy, seed, problem):
        # None would seed the fair draw from the OS, so two runs of the
        # same inputs could differ; -7 would seed the same draw as 7.
        with pytest.raises(SimError, match=f"^seed {re.escape(repr(seed))} {problem}$"):
            run_simulation(msg3_spec, 1, write_then_read(), Schedule(policy, seed=seed))

    def test_second_run_cannot_crash_a_process_again(self, fig1_spec):
        schedule = Schedule("fair", seed=1, crash_plan=((2, 0),))
        sim = Simulator(fig1_spec, 3, write_then_read(4)).run(schedule)
        with pytest.raises(SimError, match="already crashed"):
            sim.run(schedule)


class TestAccessControl:
    def test_read_outside_sharing_set_rejected(self, fig1_spec):
        with pytest.raises(AccessError):
            Simulator(fig1_spec, 3, []).read((1, 1), by=4)  # S_1 = {1, 2}

    def test_write_by_non_owner_rejected(self, fig1_spec):
        with pytest.raises(AccessError):
            Simulator(fig1_spec, 3, []).write((1, 1), by=2, value=TaggedValue(1, "x"))


class TestTraceRoundTrip:
    def test_emit_and_load(self, tmp_path, msg3_spec, fig1_spec):
        runs = [
            run_simulation(msg3_spec, 1, write_then_read(), Schedule("fifo")),
            run_simulation(fig1_spec, 3, write_then_read(4), Schedule("fair", seed=3, crash_plan=((2, 10),))),
        ]
        assert {ev["kind"] for ev in runs[1].trace} == set(KINDS)
        for i, sim in enumerate(runs):
            path = tmp_path / f"trace{i}.jsonl"
            emit_trace(sim.trace, path)
            assert list(load_trace(path)) == sim.trace

    def test_emitted_bytes_stable(self, tmp_path, msg3_spec):
        paths = []
        for i in range(2):
            sim = run_simulation(msg3_spec, 1, write_then_read(), Schedule("fair", seed=7))
            p = tmp_path / f"t{i}.jsonl"
            emit_trace(sim.trace, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_replay_reproduces_history(self, fig1_spec):
        wl = write_then_read(5)
        original = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=21, crash_plan=((2, 30),)))
        script = schedule_from_trace(original.trace)
        replay = run_simulation(
            fig1_spec, 3, wl, Schedule("scripted", script=script, crash_plan=((2, 30),))
        )
        assert history_from_trace(replay.trace) == history_from_trace(original.trace)
        assert trace_lines(replay.trace) == trace_lines(original.trace)

    def test_history_matches_trace_projection(self, fig1_spec):
        wl = [
            WorkloadOp("write", 1, "a", 0),
            WorkloadOp("read", 4, None, 0),
            WorkloadOp("write", 1, "b", 0),
            WorkloadOp("read", 2, None, 0),
            WorkloadOp("read", 2, None, 0),
        ]
        sim = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=1, crash_plan=((1, 20),)))
        history = history_from_trace(sim.trace)
        invoked = [r for r in sim.ops if r.invoke_step is not None]
        # The writer's crash leaves its first write pending and its second never invoked.
        assert invoked[0].kind == "write" and invoked[0].response_step is None
        assert len(invoked) == len(sim.ops) - 1
        assert [h["op"] for h in history] == [i for i, r in enumerate(sim.ops) if r.invoke_step is not None]
        for h, r in zip(history, invoked):
            assert (h["kind"], h["proc"]) == (r.kind, r.proc)
            assert (h["invoke"], h["response"]) == (r.invoke_step, r.response_step)
        # A write's value is [k, payload] for the k-th write; a completed
        # read returns the initial value or a written one.
        writes = [h for h in history if h["kind"] == "write"]
        for k, h in enumerate(writes, 1):
            assert h["value"] == [k, wl[h["op"]].payload]
        written = [[0, None]] + [h["value"] for h in writes]
        reads = [h for h in history if h["kind"] == "read"]
        assert all(h["response"] is not None for h in reads)
        for h in reads:
            assert h["value"] in written

    @pytest.mark.parametrize(
        "ev",
        [("invoke", 0), ("hstep", 9), ("invoke", 5), ("deliver", "9.9")],
        ids=["invoke-before-at-step", "hstep-unknown-process", "invoke-unknown-op", "deliver-unknown-message"],
    )
    def test_apply_rejects_what_enabled_does_not_list(self, msg3_spec, ev):
        sim = Simulator(msg3_spec, 1, [WorkloadOp("write", 1, "a", 100)])
        assert sim.enabled() == []
        with pytest.raises(ScriptError, match="not enabled"):
            sim.apply(ev)
        assert sim.trace == []

    # msg3: p1 writes "a" and p2 reads at step 0, p3 reads at step 100.
    # Invoking op 0 records steps 0-3 (invoke, sends 1.1-1.3 to p1-p3),
    # op 1 steps 4-7 (sends 2.1-2.3); delivering W 1.2 makes p2 scan its
    # one register in two handler steps, the second also sending the ack.
    @pytest.mark.parametrize(
        "script, crash_plan, step",
        [
            ([("invoke", 0), ("invoke", 1), ("deliver", "1.1"), ("deliver", "2.1")], (), 9),
            ([("invoke", 0), ("deliver", "1.3")], ((3, 0),), 5),
            ([("invoke", 0), ("deliver", "1.2"), ("hstep", 2), ("hstep", 2), ("deliver", "1.2")], (), 8),
            ([("invoke", 0), ("invoke", 2)], (), 4),
            ([("invoke", 0), ("hstep", 3)], (), 4),
            ([("invoke", True)], (), 0),
            ([("invoke", 0.0)], (), 0),
        ],
        ids=[
            "deliver-to-mid-scan",
            "deliver-to-crashed",
            "deliver-twice",
            "invoke-before-at-step",
            "hstep-of-idle",
            "invoke-of-bool",
            "invoke-of-float",
        ],
    )
    def test_scripted_run_rejects_what_enabled_does_not_list(self, msg3_spec, script, crash_plan, step):
        wl = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 0), WorkloadOp("read", 3, None, 100)]
        sim = Simulator(msg3_spec, 1, wl)
        bad = script[-1]
        with pytest.raises(ScriptError, match=re.escape(f"event {bad!r} not enabled at step {step}")):
            sim.run(Schedule("scripted", script=tuple(script), crash_plan=crash_plan))
        assert len(sim.trace) == sim.step == step

    def test_bogus_script_event_rejected(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, write_then_read())
        with pytest.raises(ScriptError):
            sim.run(Schedule("scripted", script=(("deliver", "9.9"),)))

    @pytest.mark.parametrize(
        "script, message",
        [
            ([5], "script event 5 at step 0 is not an event"),
            ([("invoke", 0), None], "script event None at step 4 is not an event"),
            (5, "script 5 is not a sequence of events"),
            (None, "script None is not a sequence of events"),
        ],
        ids=["int-event", "none-event-mid-run", "int-script", "none-script"],
    )
    def test_script_that_is_not_events_rejected(self, msg3_spec, script, message):
        with pytest.raises(ScriptError, match=f"^{message}$"):
            run_simulation(msg3_spec, 1, write_then_read(), Schedule("scripted", script=script))

    @pytest.mark.parametrize(
        "start, message",
        [
            (lambda spec: Simulator(spec, 1, [WorkloadOp("banana", 2)]), "unknown op kind"),
            (lambda spec: run_simulation(spec, 1, [], Schedule("lifo")), "unknown policy"),
            (
                lambda spec: run_simulation(spec, 1, write_then_read(), Schedule("scripted")),
                "script ended with events still enabled",
            ),
            (
                replay_with_one_event_more,
                re.escape("run quiescent at step 1032 with 1 script event(s) left, from ('invoke', 7)"),
            ),
            (
                lambda spec: run_simulation(spec, 1, [WorkloadOp("write", 1, "a")], Schedule("fair", seed=1, script=(("bogus", 1),))),
                "^policy 'fair' reads no script; only \"scripted\" replays one$",
            ),
            (
                lambda spec: run_simulation(spec, 1, write_then_read(), Schedule("fifo", script=(("invoke", 0),))),
                "^policy 'fifo' reads no script; only \"scripted\" replays one$",
            ),
        ],
        ids=["unknown-op-kind", "unknown-policy", "script-ends-early", "script-left-over", "script-under-fair", "script-under-fifo"],
    )
    def test_bad_run_input_raises(self, msg3_spec, start, message):
        with pytest.raises(SimError, match=message):
            start(msg3_spec)

    def test_step_budget_enforced(self, msg3_spec, monkeypatch):
        monkeypatch.setattr("mmreg.sim.MAX_STEPS", 10)
        with pytest.raises(SimError, match="step budget 10 exceeded"):
            run_simulation(msg3_spec, 1, write_then_read(), Schedule("fifo"))


# Values that break one workload rule each, by WorkloadOp field.
JUNK = {
    "kind": ["fetch", None, 1],
    "proc": [0, 4, True, "2", 2.0, None],
    "payload": [7, 1.5, b"x", ["a"], True],
    "at_step": [-1, 2.5, "x", None, True, 0.0],
}


WRITE_A = WorkloadOp("write", 1, "a")


@st.composite
def maybe_bad_ops(draw):
    """An op of the msg3 system, valid or with one field from JUNK."""
    at = draw(st.sampled_from([0, 0, 5, 40, 120]))
    if draw(st.booleans()):
        op = WorkloadOp("write", 1, draw(st.sampled_from(["a", ""])), at)
    else:
        op = WorkloadOp("read", draw(st.integers(1, 3)), None, at)
    if draw(st.integers(0, 3)) == 0:  # one op in four
        field = draw(st.sampled_from(sorted(JUNK)))
        op = replace(op, **{field: draw(st.sampled_from(JUNK[field]))})
    return op


class TestWorkloadContract:
    """The Simulator checks every workload rule itself, so a library
    caller cannot start a run whose trace the checker would reject."""

    @pytest.mark.parametrize(
        "workload, message",
        [
            ([WRITE_A, WorkloadOp("read", True)], "workload op 1: proc True is not an integer"),
            ([WRITE_A, WorkloadOp("read", "2")], "workload op 1: proc '2' is not an integer"),
            ([WRITE_A, WorkloadOp("read", 2, None, 2.5)], "workload op 1: at_step 2.5 is not a non-negative integer"),
            ([WRITE_A, WorkloadOp("read", 2, None, "x")], "workload op 1: at_step 'x' is not a non-negative integer"),
            ([WRITE_A, WorkloadOp("write", 1, 7)], "workload op 1: payload 7 is not a string or None"),
            ([WRITE_A, WorkloadOp("read", 2, None, -1)], "workload op 1: at_step -1 is not a non-negative integer"),
            ([WRITE_A, WorkloadOp("write", 2, "b")], "workload op 1: write assigned to p2, but the writer is p1"),
            ([WRITE_A, WorkloadOp("read", 4)], "workload process p4 outside 1..3, at op 1"),
            ([WRITE_A, None], "workload op 1 is None, not a WorkloadOp"),
            (None, "workload None is not a collection of WorkloadOps"),
        ],
        ids=["proc-bool", "proc-string", "at-step-float", "at-step-string", "payload-int", "at-step-negative",
             "write-by-reader", "proc-outside", "op-none", "workload-none"],
    )
    def test_bad_workload_op_raises(self, msg3_spec, workload, message):
        with pytest.raises(SimError, match=f"^{re.escape(message)}$"):
            Simulator(msg3_spec, 1, workload)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(maybe_bad_ops(), max_size=4), st.integers(0, 2**16))
    def test_built_runs_check_clean(self, workload, seed):
        spec = make_spec(bag=bag_of(3, [1], [2], [3]), writer=1)
        try:
            sim = Simulator(spec, 1, workload)
        except SimError as e:
            assert str(e).startswith("workload")
            return
        sim.run(Schedule("fair", seed=seed))
        assert check_all(sim.trace, t=1).ok  # raises no TraceError or HistoryError


class TestReliability:
    def test_every_message_delivered_exactly_once(self, fig1_spec):
        sim = run_simulation(fig1_spec, 3, write_then_read(3), Schedule("fair", seed=13))
        sent = [ev["payload"]["id"] for ev in sim.trace if ev["kind"] == "send"]
        delivered = [ev["payload"]["id"] for ev in sim.trace if ev["kind"] == "deliver"]
        assert sorted(sent) == sorted(delivered)
        assert len(set(delivered)) == len(delivered)

    def test_no_delivery_to_crashed_process(self, fig1_spec):
        sim = run_simulation(
            fig1_spec, 3, write_then_read(2), Schedule("fair", seed=2, crash_plan=((5, 0),))
        )
        assert all(
            ev["payload"]["to"] != 5 for ev in sim.trace if ev["kind"] == "deliver"
        )


# -- the incremental indexes against the from-scratch rebuild ---------------


TRANSITIONS = ("invoke", "hstep", "deliver")


def event_of(sim, kind, x):
    """The event tuple of a transition's call on its band entry x: a
    delivery takes its send record's position, and names the id held
    there."""
    return ("deliver", sim.records[x][3]) if kind == "deliver" else (kind, x)


def _apply_gate(sim, listed, candidates):
    """`apply` raises ScriptError, and changes nothing, for exactly the
    candidates that `listed` lacks.  The three transitions are stubbed
    out on the instance, so an accepted event is recorded, not fired;
    whatever shadowed them before is put back after."""
    fired = []
    saved = {kind: sim.__dict__.get(f"_{kind}") for kind in TRANSITIONS}
    for kind in TRANSITIONS:
        setattr(sim, f"_{kind}", lambda x, kind=kind: fired.append(event_of(sim, kind, x)))
    try:
        for ev in candidates:
            before = (sim.step, len(sim.trace))
            if ev in listed:
                sim.apply(ev)
                assert fired[-1] == ev
            else:
                with pytest.raises(ScriptError):
                    sim.apply(ev)
            assert (sim.step, len(sim.trace)) == before
    finally:
        for kind, shadow in saved.items():
            if shadow is None:
                delattr(sim, f"_{kind}")
            else:
                setattr(sim, f"_{kind}", shadow)


def record_transitions(sim, fired):
    """Shadow sim's three transitions on the instance with ones that
    append their event to `fired` and then fire it.  A chooser made
    afterwards binds these, and `apply` calls them."""
    for kind in TRANSITIONS:
        real = getattr(sim, f"_{kind}")

        def recorded(x, kind=kind, real=real):
            fired.append(event_of(sim, kind, x))
            real(x)

        setattr(sim, f"_{kind}", recorded)


def checked_run(spec, t, workload, schedule):
    """Run `schedule`, asserting before every choice that `enabled()`
    and `is_quiescent()` equal the rebuild's, and that `apply` accepts
    exactly the listed events; after it, that the chooser fired one
    event, under fifo the first of them.  Returns the simulator and
    every event that was ever enabled."""
    real = sim_module._make_chooser
    seen: set = set()

    def make(sim, sched):
        fired = []
        record_transitions(sim, fired)
        choose = real(sim, sched)

        def checked():
            expected = oracle.enabled(sim)
            assert sim.enabled() == expected
            assert sim.is_quiescent() is oracle.is_quiescent(sim) is False
            bogus = {("invoke", -1), ("invoke", len(sim.workload)), ("hstep", 0), ("hstep", sim.spec.n + 1), ("deliver", "9.9"), ("noop", 1), ("invoke",)}
            mine = {("invoke", i) for i in range(len(sim.workload))} | {("hstep", p) for p in sim.procs}
            network = {("deliver", mid) for mid in sim.network}
            delivered = {("deliver", ev["payload"]["id"]) for ev in sim.trace[-12:] if ev["kind"] == "deliver"}
            _apply_gate(sim, expected, sorted(bogus | mine | network | delivered, key=repr))
            seen.update(expected)
            before = len(fired)
            choose()
            assert len(fired) == before + 1
            ev = fired[-1]
            assert ev in expected
            assert sched.policy != "fifo" or ev == expected[0]  # fifo fires the head of enabled()

        return checked

    sim = Simulator(spec, t, workload)
    assert sim.enabled() == oracle.enabled(sim)
    assert sim.is_quiescent() is oracle.is_quiescent(sim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_module, "_make_chooser", make)
        sim.run(schedule)
    assert sim.enabled() == oracle.enabled(sim) == []
    assert sim.is_quiescent() and oracle.is_quiescent(sim)
    return sim, seen


@st.composite
def sim_cases(draw):
    """A system of n <= 6 processes from a bag or a graph, up to six ops
    (some invoked only at a later step, so the run idles until then), a
    crash plan and the fair or fifo policy."""
    n = draw(st.integers(1, 6))
    writer = draw(st.integers(1, n))
    if draw(st.booleans()):
        sets = draw(st.lists(st.sets(st.integers(1, n), min_size=1), max_size=5))
        spec = make_spec(bag=bag_of(n, *sets), writer=writer)
    else:
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8))
        spec = make_spec(graph=Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]), writer=writer)
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(1, n), st.sampled_from([0, 0, 5, 40, 120])), max_size=6))
    workload = [
        WorkloadOp("write", writer, f"v{i}", at) if write else WorkloadOp("read", p, None, at)
        for i, (write, p, at) in enumerate(ops)
    ]
    victims = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    plan = tuple((p, draw(st.integers(0, 150))) for p in victims)
    policy = draw(st.sampled_from(["fair", "fifo"]))
    return spec, draw(st.integers(0, n - 1)), workload, Schedule(policy, seed=draw(st.integers(0, 2**16)), crash_plan=plan)


@settings(max_examples=100, deadline=None)
@given(sim_cases())
def test_replay_of_a_random_run_reproduces_its_records(case):
    """A fair or fifo run with its crash plan, replayed under "scripted"
    from `schedule_from_trace` of its trace, makes the same records,
    tuple for tuple, and the same trace lines: the single case of
    `test_replay_reproduces_history`, over random systems."""
    spec, t, workload, schedule = case
    original = run_simulation(spec, t, workload, schedule)
    script = schedule_from_trace(original.trace)
    replay = run_simulation(spec, t, workload, Schedule("scripted", script=script, crash_plan=schedule.crash_plan))
    assert replay.records == original.records
    assert trace_lines(replay.trace) == trace_lines(original.trace)


class TestIndexesAgainstRebuild:
    @settings(max_examples=150, deadline=None)
    @given(sim_cases())
    def test_random_runs(self, case):
        spec, t, workload, schedule = case
        sim, _ = checked_run(spec, t, workload, schedule)
        assert trace_lines(sim.trace) == trace_lines(run_simulation(spec, t, workload, schedule).trace)

    @pytest.mark.parametrize("policy", ["fair", "fifo"])
    @pytest.mark.parametrize("when", ["step-0", "mid-scan", "in-flight"])
    def test_crash_plans(self, fig1_spec, policy, when):
        """p3 crashes before any step, while it scans, or while W
        messages to it are in flight; the crash step comes from a
        crash-free run, whose choices the crashed run repeats until
        then."""
        wl = [*write_then_read(4), WorkloadOp("read", 3, None, 0), WorkloadOp("write", 1, "b", 60)]
        schedule = Schedule(policy, seed=3)
        dry = run_simulation(fig1_spec, 3, wl, schedule).trace
        to_p3 = [ev["step"] for ev in dry if ev["kind"] in ("send", "deliver") and ev["payload"]["to"] == 3]
        step = {"step-0": 0, "mid-scan": next(s for s in to_p3 if dry[s]["kind"] == "deliver"), "in-flight": to_p3[0]}[when] + (when != "step-0")
        sim, seen = checked_run(fig1_spec, 3, wl, Schedule(policy, seed=3, crash_plan=((3, step),)))
        if when == "mid-scan":
            assert sim.procs[3].scan is not None  # nothing steps a crashed process
        if when == "in-flight":
            sent = {ev["payload"]["id"] for ev in sim.trace if ev["kind"] == "send" and ev["step"] < step}
            assert any(mid in sent for mid, msg in sim.network.items() if msg.dest == 3)

    def test_self_addressed_ack_indexed_once(self, msg3_spec):
        """A scan's end and its ack to the scanning process itself come
        in one event; the ack must be listed once."""
        sim = Simulator(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0)])
        sim.apply(("invoke", 0))
        sim.apply(("deliver", "1.1"))
        while ("hstep", 1) in sim.enabled():
            sim.apply(("hstep", 1))
        (ack,) = [mid for mid, msg in sim.network.items() if msg.kind == "ACK-W"]
        assert sim.network[ack].dest == 1
        assert sim.enabled().count(("deliver", ack)) == 1
        assert sim.enabled() == oracle.enabled(sim)

    def test_apply_sees_a_timed_invocation_come_due(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 3)])
        sim.apply(("invoke", 0))  # steps 0-3: the invocation and three sends
        sim.apply(("invoke", 1))
        assert sim.ops[1].invoke_step == 4

    def test_stranded_messages_stay_in_network(self, fig1_spec):
        plan = ((5, 0), (4, 30))
        sim, seen = checked_run(fig1_spec, 3, write_then_read(2), Schedule("fair", seed=2, crash_plan=plan))
        sent_to_crashed = {ev["payload"]["id"] for ev in sim.trace if ev["kind"] == "send" and ev["payload"]["to"] in (4, 5)}
        delivered = {ev["payload"]["id"] for ev in sim.trace if ev["kind"] == "deliver"}
        assert set(sim.network) == sent_to_crashed - delivered
        assert {msg.dest for msg in sim.network.values()} == {4, 5}
        assert not {("deliver", mid) for mid in sim.network} & seen


class TestStepWithin:
    def test_nothing_inside_the_side(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 0)])
        sim.apply(("invoke", 0))  # sends W 1.1-1.3 from p1 to p1-p3
        assert not sim.step_within(5, {2, 3})
        assert sim.step == len(sim.trace) == 4

    def test_invokes_the_op_index_the_workload_holds(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 0)])
        assert sim.step_within(True, set())  # True == 1
        assert sim.trace[0]["payload"] == {"op": 1, "kind": "read"}
        assert type(sim.trace[0]["payload"]["op"]) is int

    @settings(max_examples=100, deadline=None)
    @given(sim_cases(), st.integers(0, 2**16))
    def test_fires_the_oracles_event(self, case, seed):
        """On random systems and workloads, with a random side and op
        at each step, step_within fires what the rebuilt enabled list
        puts first inside the side, and reports False exactly when that
        is nothing."""
        spec, t, workload, _ = case
        rng = random.Random(seed)
        sim, twin = Simulator(spec, t, workload), Simulator(spec, t, workload)
        for _ in range(300):
            side = {p for p in range(1, spec.n + 1) if rng.random() < 0.7}
            op = rng.randrange(-1, len(workload) + 1)
            ev = lowerbound_oracle.first_within(twin, op, side)
            assert sim.step_within(op, side) == (ev is not None)
            if ev is not None:
                twin.apply(ev)
            assert sim.enabled() == oracle.enabled(sim)
        assert trace_lines(sim.trace) == trace_lines(twin.trace)


def chosen_events(spec, t, workload, schedule, make_chooser):
    """The events a run under `make_chooser` fires, and its trace."""
    picked = []

    def make(sim, sched):
        record_transitions(sim, picked)
        return make_chooser(sim, sched)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_module, "_make_chooser", make)
        sim = run_simulation(spec, t, workload, schedule)
    return picked, trace_lines(sim.trace)


def firing(make_oracle):
    """A chooser factory like `_make_chooser` out of `make_oracle`,
    whose choosers return their event: each call fires the returned
    event through `sim.apply`."""

    def make(sim, sched):
        choose = make_oracle(sim, sched)
        return lambda: sim.apply(choose())

    return make


class TestFairChooserAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(sim_cases())
    def test_same_choices_as_rng_choice_over_the_rebuild(self, case):
        spec, t, workload, schedule = case
        schedule = replace(schedule, policy="fair")
        real = sim_module._make_chooser
        assert chosen_events(spec, t, workload, schedule, real) == chosen_events(
            spec, t, workload, schedule, firing(oracle.fair_chooser)
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_wide_runs_cross_64_and_128_enabled_events(self, seed):
        """40 processes passing messages, each starting an op at step 0:
        the enabled count k rises past 128 and falls back through 64, so
        the width of the draw changes both ways."""
        n = 40
        spec = make_spec(bag=bag_of(n, *([p] for p in range(1, n + 1))), writer=1)
        workload = [WorkloadOp("write", 1, "a", 0), *(WorkloadOp("read", p, None, 0) for p in range(2, n + 1))]
        schedule = Schedule("fair", seed=seed, crash_plan=((n, 40),))
        widths = []

        def sized(sim, sched):
            choose = oracle.fair_chooser(sim, sched)

            def recorded():
                widths.append(len(oracle.enabled(sim)))
                return choose()

            return recorded

        expected = chosen_events(spec, 19, workload, schedule, firing(sized))
        assert any(k > 128 for k in widths) and any(64 < k <= 128 for k in widths) and any(k <= 64 for k in widths)
        assert chosen_events(spec, 19, workload, schedule, sim_module._make_chooser) == expected


def test_no_two_events_share_a_payload_or_a_value_list(fig1_spec):
    """Mark every event's payload dict and every list in it with the
    event's step: an object that two events share ends up with the
    wrong mark, or with two."""
    workload = [*write_then_read(4), WorkloadOp("read", 3, None, 0), WorkloadOp("write", 1, "b", 30)]
    sim = run_simulation(fig1_spec, 3, workload, Schedule("fair", seed=4, crash_plan=((5, 50),)))
    events = list(sim.trace)
    assert {ev["kind"] for ev in events} == set(KINDS)
    lists = []
    for ev in events:
        payload = ev["payload"]
        payload["mark"] = ev["step"]
        for value in payload.values():
            if isinstance(value, list):
                lists.append((ev["step"], len(value), value))
                value.append(ev["step"])
    assert all(ev["payload"]["mark"] == ev["step"] for ev in events)
    assert lists and all(len(value) == size + 1 and value[-1] == step for step, size, value in lists)


# -- the trace is a view of the records ------------------------------------


class TestTraceView:
    """`trace` is a live, read-only view of `records` that renders each
    event when it is read."""

    @staticmethod
    def assert_renders_every_record(sim, view):
        assert len(view) == len(sim.records)
        assert list(view) == [render(record) for record in sim.records]
        assert view == sim.trace

    @settings(max_examples=60, deadline=None)
    @given(sim_cases(), st.integers(0, 2**16))
    def test_reads_between_steps(self, case, seed):
        """A view read once from `trace` sees every record that `apply`,
        `step_within` and `run` append after it, rendered."""
        spec, t, workload, schedule = case
        rng = random.Random(seed)
        sim = Simulator(spec, t, workload)
        view = sim.trace
        for _ in range(30):
            if rng.random() < 0.5 and sim.enabled():
                sim.apply(rng.choice(sim.enabled()))
            else:
                sim.step_within(rng.randrange(-1, len(workload) + 1), {p for p in range(1, spec.n + 1) if rng.random() < 0.7})
            assert len(view) == len(sim.records)
            if rng.random() < 0.5:
                self.assert_renders_every_record(sim, view)
        sim.run(schedule)
        self.assert_renders_every_record(sim, view)

    def test_each_read_renders_anew(self, fig1_spec):
        """Two reads of one event are equal but share no object, so a
        reader that changes an event changes no later read."""
        sim = run_simulation(fig1_spec, 3, write_then_read(4), Schedule("fair", seed=2))
        i = next(i for i, record in enumerate(sim.records) if record[1] == "reg-write")
        first, second = sim.trace[i], sim.trace[i]
        assert first == second == render(sim.records[i])
        assert first is not second and first["payload"] is not second["payload"]
        assert first["payload"]["value"] is not second["payload"]["value"]
        first["payload"]["value"].append("changed")
        first["step"] = -1
        assert sim.trace[i] == second == render(sim.records[i])

    def test_slices_and_negative_indexes(self, fig1_spec):
        sim = run_simulation(fig1_spec, 3, write_then_read(4), Schedule("fair", seed=3, crash_plan=((5, 9),)))
        records, trace = sim.records, sim.trace
        assert trace[-1] == render(records[-1]) and trace[-len(records)] == render(records[0])
        for cut in (slice(2, 9), slice(-12, None), slice(None, None, -3), slice(5, 2)):
            assert trace[cut] == [render(record) for record in records[cut]]
        assert type(trace[:3]) is list
        for i in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                trace[i]

    def test_an_empty_run(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [])
        assert sim.trace == [] and [] == sim.trace and sim.trace == sim.trace and not sim.trace
        sim.run(Schedule("fifo"))
        assert sim.records == [] and sim.trace == []

    def test_equality_is_by_rendered_events(self, fig1_spec):
        """A view equals a list, or another view, of equal events in the
        same order, and nothing else."""
        wl = write_then_read(4)
        sim = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=1))
        events = [render(record) for record in sim.records]
        assert sim.trace == events and events == sim.trace
        assert sim.trace == run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=1)).trace
        assert sim.trace != run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=2)).trace
        assert sim.trace != events[:-1] and sim.trace != events + [events[0]]
        assert sim.trace != tuple(events)
        with pytest.raises(TypeError):
            hash(sim.trace)

    def test_repr_shows_the_events(self, fig1_spec):
        """A failed comparison prints the events, as it did of a list."""
        sim = run_simulation(fig1_spec, 3, write_then_read(2), Schedule("fair", seed=1))
        assert repr(sim.trace) == f"RecordTrace({list(sim.trace)!r})"
        assert repr(Simulator(fig1_spec, 3, []).trace) == "RecordTrace([])"

    def test_trace_cannot_be_rebound(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, [])
        with pytest.raises(AttributeError):
            sim.trace = []


# -- a finished run is freed by reference counting -----------------------


class TestFreedByRefcount:
    def test_run_simulation(self, fig1_spec, cyclic_garbage):
        with cyclic_garbage() as garbage:
            sim = run_simulation(fig1_spec, 3, write_then_read(4), Schedule("fair", seed=1, crash_plan=((5, 9),)))
            assert sim.trace
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        assert not garbage

    def test_apply(self, msg3_spec, cyclic_garbage):
        with cyclic_garbage() as garbage:
            sim = Simulator(msg3_spec, 1, write_then_read())
            for ev in [("invoke", 0), ("deliver", "1.1"), ("hstep", 1)]:
                sim.apply(ev)
            assert any(ev["kind"] == "reg-read" for ev in sim.trace)
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        assert not garbage

    def test_mid_operation_and_mid_scan(self, msg3_spec, cyclic_garbage):
        with cyclic_garbage() as garbage:
            sim = Simulator(msg3_spec, 1, write_then_read())
            for ev in [("invoke", 0), ("deliver", "1.1")]:
                sim.apply(ev)
            assert sim.procs[1].pending is not None and sim.procs[1].scan is not None
            ref = weakref.ref(sim.procs[1])
            del sim
            assert ref() is None
        assert not garbage

    def test_build_e3(self, fig1_spec, cyclic_garbage):
        with cyclic_garbage() as garbage:
            sim = build_e3(fig1_spec, 4, find_witness(fig1_spec.bag, 4))
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        assert not garbage

    def test_fuzz_batch_leaves_no_run_to_the_collector(self, fig1_spec, cyclic_garbage):
        # Nothing at all, not just no simulator or event: the batch's
        # t_bridge and checks leave no cycle either.
        with cyclic_garbage() as garbage:
            report = cli.fuzz(fig1_spec, 20, 3)
            assert report["runs"] == 20 and not report["violations"]
        assert not garbage, sorted({type(obj).__name__ for obj in garbage})


class TestCollectorPause:
    """`run` turns the cyclic collector off for its loop and, on every
    exit, puts back the state it found."""

    @pytest.mark.parametrize("on", [True, False], ids=["was-on", "was-off"])
    def test_prior_state_comes_back(self, fig1_spec, collector, on):
        with collector(on):
            run_simulation(fig1_spec, 3, write_then_read(4), Schedule("fair", seed=1, crash_plan=((5, 9),)))
            assert gc.isenabled() is on

    @pytest.mark.parametrize("on", [True, False], ids=["was-on", "was-off"])
    @pytest.mark.parametrize(
        "schedule, error, message",
        [
            (Schedule("fifo"), SimError, "step budget 10 exceeded"),
            (Schedule("scripted", script=(("hstep", 1),)), ScriptError, re.escape("event ('hstep', 1) not enabled at step 0")),
        ],
        ids=["step-budget", "script-not-enabled"],
    )
    def test_prior_state_comes_back_when_run_raises(self, msg3_spec, monkeypatch, collector, on, schedule, error, message):
        monkeypatch.setattr("mmreg.sim.MAX_STEPS", 10)
        with collector(on):
            with pytest.raises(error, match=message):
                run_simulation(msg3_spec, 1, write_then_read(), schedule)
            assert gc.isenabled() is on

    def test_no_collection_during_a_run(self, fig1_spec):
        workload = [WorkloadOp("write", 1, f"w{k}") if k % 2 == 0 else WorkloadOp("read", 2 + k % 4) for k in range(40)]
        sim = Simulator(fig1_spec, 3, workload)
        starts = []

        def watch(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        remove = gc.callbacks.remove  # bound now: after the run, binding it would allocate and could start a collection
        gc.collect()  # else the run's set-up could reach the young generation's threshold
        gc.callbacks.append(watch)
        try:
            sim.run(Schedule("fair", seed=1))
        finally:
            remove(watch)
        assert gc.isenabled()
        # Each event is a tracked record tuple, so with the collector on
        # the run would have started a young collection.
        assert len(sim.records) >= 300 and len(sim.records) > gc.get_threshold()[0]
        assert starts == []
