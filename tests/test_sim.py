import pytest

from mmreg import (
    Schedule,
    SimError,
    Simulator,
    TaggedValue,
    WorkloadOp,
    check_all,
    emit_trace,
    history_from_trace,
    load_trace,
    run_simulation,
    schedule_from_trace,
)
from mmreg.sim import AccessError, RegisterStore, ScriptError
from mmreg.trace import KINDS, trace_lines


def write_then_read(reader=2):
    return [
        WorkloadOp("write", 1, "a", 0),
        WorkloadOp("read", reader, None, 1000),
    ]


class TestBasicRuns:
    def test_read_sees_completed_write(self, msg3_spec):
        sim = run_simulation(msg3_spec, 1, write_then_read(), Schedule("fifo"))
        write, read = sim.ops
        assert write.response_step is not None
        assert read.result == TaggedValue(1, "a")
        assert sim.is_quiescent()

    def test_fresh_read_returns_initial_value(self, msg3_spec):
        sim = run_simulation(msg3_spec, 1, [WorkloadOp("read", 3, None, 0)], Schedule("fifo"))
        assert sim.ops[0].result == TaggedValue(0, None)

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
        assert sim.ops[1].result is not None

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

    def test_second_run_cannot_crash_a_process_again(self, fig1_spec):
        schedule = Schedule("fair", seed=1, crash_plan=((2, 0),))
        sim = Simulator(fig1_spec, 3, write_then_read(4)).run(schedule)
        with pytest.raises(SimError, match="already crashed"):
            sim.run(schedule)


class TestAccessControl:
    def test_read_outside_sharing_set_rejected(self, fig1_spec):
        store = RegisterStore(fig1_spec, lambda *a: None)
        with pytest.raises(AccessError):
            store.read((1, 1), by=4)  # S_1 = {1, 2}

    def test_write_by_non_owner_rejected(self, fig1_spec):
        store = RegisterStore(fig1_spec, lambda *a: None)
        with pytest.raises(AccessError):
            store.write((1, 1), by=2, value=TaggedValue(1, "x"))


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
            assert load_trace(path) == sim.trace

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
        assert [h["op"] for h in history] == [r.op_id for r in invoked]
        for h, r in zip(history, invoked):
            assert (h["kind"], h["proc"]) == (r.kind, r.proc)
            assert (h["invoke"], h["response"]) == (r.invoke_step, r.response_step)
            assert h["value"] == (list(r.result) if r.result is not None else None)

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

    def test_bogus_script_event_rejected(self, msg3_spec):
        sim = Simulator(msg3_spec, 1, write_then_read())
        with pytest.raises(ScriptError):
            sim.run(Schedule("scripted", script=(("deliver", "9.9"),)))


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
