import pytest
from hypothesis import assume, given, settings, strategies as st

import lowerbound_oracle as oracle
import trace_oracle
from mmreg import (
    LowerBoundError,
    Schedule,
    Simulator,
    SystemSpec,
    ToleranceError,
    WorkloadOp,
    bag_of,
    build_e3,
    check_property1,
    demo,
    find_witness,
    history_from_trace,
    isolation_holds,
    make_spec,
    run_simulation,
    schedule_from_trace,
    t_bridge,
    verify_witness,
)
from mmreg.model import normalize_bag, Bag
from mmreg.trace import trace_lines


class TestFindWitness:
    def test_fig1_t4(self, fig1_spec):
        assert find_witness(fig1_spec.bag, 4) == ((1,), (4,))

    def test_singletons_t3(self, singleton5_spec):
        assert find_witness(singleton5_spec.bag, 3) == ((1, 2), (3, 4))

    def test_partition_covers_everything(self, fig1_spec, singleton5_spec):
        """The report's P, P' and Q name each process exactly once; Q
        exists only in the report."""
        writer_in_q = make_spec(bag=fig1_spec.bag, writer=3)
        for spec, t in ((fig1_spec, 4), (singleton5_spec, 3), (writer_in_q, 4)):
            w = demo(spec, t)["witness"]
            assert sorted(w["P"] + w["P_prime"] + w["Q"]) == list(range(1, spec.n + 1)), (spec, t)

    def test_rejects_tolerated_t(self, fig1_spec):
        with pytest.raises(LowerBoundError, match="tolerates"):
            find_witness(fig1_spec.bag, 3)

    def test_rejects_t_at_n(self, fig1_spec):
        with pytest.raises(LowerBoundError, match="n-1"):
            find_witness(fig1_spec.bag, 5)

    def test_rejects_negative_t(self, fig1_spec):
        with pytest.raises(LowerBoundError, match="t=-3 is negative"):
            find_witness(fig1_spec.bag, -3)

    @pytest.mark.parametrize("t", [4.0, "4", None, True])
    def test_rejects_non_integer_t(self, fig1_spec, t):
        """True would pass for t = 1 wherever an int is only compared or
        added to; every entry point refuses it with its own error."""
        witness = ((1,), (4,))  # the witness at t = 4
        with pytest.raises(LowerBoundError, match=f"t={t!r} is not an integer"):
            find_witness(fig1_spec.bag, t)
        with pytest.raises(LowerBoundError, match=f"t={t!r} is not an integer"):
            demo(fig1_spec, t)
        with pytest.raises(LowerBoundError, match=f"^t={t!r} is not an integer$"):
            build_e3(fig1_spec, t, witness)
        with pytest.raises(ToleranceError, match=f"^t={t!r} is not an integer$"):
            verify_witness(fig1_spec.bag, t, witness)


class TestBuildE3:
    def test_fig1_run_shape(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)
        sim = build_e3(fig1_spec, 4, witness)
        write, read = history_from_trace(sim.trace)
        # Write completes before the read is even invoked ...
        assert write["response"] is not None
        assert write["response"] < read["invoke"]
        # ... yet the read returns the initial value.
        assert read["value"] == [0, None]
        assert sim.is_quiescent()

    def test_schedule_is_replayable(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)
        sim = build_e3(fig1_spec, 4, witness)
        schedule = Schedule("scripted", script=schedule_from_trace(sim.trace))
        replay = run_simulation(fig1_spec, 4, sim.workload, schedule)
        assert history_from_trace(replay.trace) == history_from_trace(sim.trace)

    def test_isolation_during_split_phases(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)
        sim = build_e3(fig1_spec, 4, witness)
        assert isolation_holds(sim, witness)

    def test_isolation_ends_at_phase_2(self, fig1_spec):
        sim = build_e3(fig1_spec, 4, find_witness(fig1_spec.bag, 4))
        # p3 is in Q and first writes a register that p4 reads in phase 3
        # (step 57), after the read responded (step 44); a check over the
        # whole trace would fail.
        phase3_writes = [
            step
            for step, actor, reg, _ in trace_oracle.register_writes(sim.trace)
            if actor == 3 and reg in fig1_spec.readable_registers(4)
        ]
        assert phase3_writes and min(phase3_writes) > sim.ops[1].response_step
        assert isolation_holds(sim, ((3,), (4,)))

    def test_isolation_fails_for_a_side_that_reads_the_writer(self, fig1_spec):
        sim = build_e3(fig1_spec, 4, find_witness(fig1_spec.bag, 4))
        # p1 writes R_1[1] in phase 1, and p2 shares S_1 = {1, 2}.
        assert not isolation_holds(sim, ((1,), (2,)))

    def test_isolation_needs_a_read_that_responded(self, fig1_spec):
        """Phases 1-2 end when op 1 responds: a run with no op 1, or one
        whose read never responded (its process crashed at step 0), is
        refused rather than read to its end or indexed past its ops."""
        write, read = WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 4, None, 0)
        one_op = run_simulation(fig1_spec, 3, [write], Schedule("fifo"))
        with pytest.raises(LowerBoundError, match=r"^the run has 1 op\(s\): no read \(op 1\) ends phases 1-2$"):
            isolation_holds(one_op, ((1,), (4,)))
        unanswered = run_simulation(fig1_spec, 3, [write, read], Schedule("fair", seed=1, crash_plan=((4, 0),)))
        assert unanswered.ops[1].response_step is None
        with pytest.raises(LowerBoundError, match=r"^the read \(op 1\) never responded, so phases 1-2 never ended$"):
            isolation_holds(unanswered, ((1,), (4,)))

    def test_event_i_is_step_i(self, fig1_spec, singleton5_spec):
        """The adversarial run has no idle tick, so its trace's event i
        is step i, the step that `isolation_holds` reads phases 1-2 by."""
        for spec, t in ((fig1_spec, 4), (singleton5_spec, 3), (singleton5_spec, 4)):
            trace = build_e3(spec, t, find_witness(spec.bag, t)).trace
            assert [ev["step"] for ev in trace] == list(range(len(trace)))

    def test_stuck_construction_raises(self, fig1_spec, monkeypatch):
        monkeypatch.setattr(Simulator, "step_within", lambda sim, op, side: False)
        with pytest.raises(LowerBoundError, match="construction stuck: no permitted event is enabled"):
            build_e3(fig1_spec, 4, find_witness(fig1_spec.bag, 4))

    def test_writer_outside_p_rejected(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)  # P = {1}
        spec = make_spec(bag=fig1_spec.bag, writer=4)
        with pytest.raises(LowerBoundError, match="must belong"):
            build_e3(spec, 4, witness)

    def test_bogus_witness_rejected(self, fig1_spec):
        bad = ((1,), (2,))  # p1, p2 share S_1
        with pytest.raises(LowerBoundError, match="invalid witness"):
            build_e3(fig1_spec, 4, bad)

    @pytest.mark.parametrize("side", [(99,), (0,), (True,)])
    def test_side_outside_1_to_n_rejected(self, fig1_spec, side):
        assert not verify_witness(fig1_spec.bag, 3, ((4,), side))
        with pytest.raises(LowerBoundError, match="invalid witness"):
            build_e3(fig1_spec, 4, (side, (4,)))

    @pytest.mark.parametrize("witness", [(([1],), (4,)), ((1,), ([4],))], ids=["list-in-P", "list-in-P-prime"])
    def test_side_member_that_is_a_list_rejected(self, fig1_spec, witness):
        assert not verify_witness(fig1_spec.bag, 3, witness)
        with pytest.raises(LowerBoundError, match="invalid witness"):
            build_e3(fig1_spec, 4, witness)

    @pytest.mark.parametrize(
        "witness",
        [(1, (4,)), ((1,),), None, ((1,), 4), ((1,), (4,), (5,)), "14", ((1,), "4")],
        ids=["int-side", "one-side", "none", "int-other-side", "three-sides", "string", "string-side"],
    )
    @pytest.mark.parametrize("function", ["verify_witness", "build_e3"])
    def test_witness_that_is_not_a_pair_of_sides_rejected(self, fig1_spec, function, witness):
        if function == "verify_witness":
            assert verify_witness(fig1_spec.bag, 3, witness) is False
        else:
            with pytest.raises(LowerBoundError, match="invalid witness: it must be a pair"):
                build_e3(fig1_spec, 4, witness)

    def test_wrong_side_size_rejected(self, fig1_spec):
        bad = ((1,), (4, 5))
        with pytest.raises(LowerBoundError, match="size"):
            build_e3(fig1_spec, 4, bad)


@st.composite
def breakable_bags(draw):
    """Covered bags at 2 <= n <= 16 of up to n sets of one to four
    processes, with a threshold below n - 1, so some t has a witness."""
    n = draw(st.integers(2, 16))
    sets = draw(st.lists(st.sets(st.integers(1, n), min_size=1, max_size=4), max_size=n))
    bag = normalize_bag(bag_of(n, *sets))
    assume(t_bridge(bag).t < bag.n - 1)
    return bag


class TestBuildE3AgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(breakable_bags())
    def test_every_t_and_every_writer_place(self, bag):
        """At every t in t_L+1..n-1, with the spec's writer in P, in P'
        (demo swaps the sides) and in Q when Q is not empty (demo
        replaces the writer), the run is the oracle's, line for line."""
        for t in range(t_bridge(bag).t + 1, bag.n):
            p_side, p_prime = find_witness(bag, t)
            q = [p for p in range(1, bag.n + 1) if p not in p_side + p_prime]
            for writer in (min(p_side), min(p_prime), *q[:1]):
                report = demo(SystemSpec(bag, writer), t)
                witness = (tuple(report["witness"]["P"]), tuple(report["witness"]["P_prime"]))
                expected = oracle.build_e3(SystemSpec(bag, report["writer"]), t, witness)
                assert trace_lines(report["trace"]) == trace_lines(expected.trace), (t, writer)


class TestDemo:
    def test_fig1_certified(self, fig1_spec):
        report = demo(fig1_spec, 4)
        assert report["violation_certified"]
        assert report["no_crashes"]
        assert report["isolation_ok"]
        assert "t_L" not in report
        assert report["witness"] == {"P": [1], "P_prime": [4], "Q": [2, 3, 5]}
        assert not check_property1(report["history"]).ok

    def test_singletons_certified(self, singleton5_spec):
        report = demo(singleton5_spec, 3)
        assert report["violation_certified"]
        assert report["witness"]["P"] == [1, 2]
        assert report["witness"]["P_prime"] == [3, 4]

    def test_writer_swapped_into_p(self):
        # Writer 4 sits on the P' side of the smallest witness; the demo
        # swaps sides rather than changing the writer.
        spec = make_spec(bag=normalize_bag(Bag(5, ())), writer=4)
        report = demo(spec, 3)
        assert report["writer"] == 4
        assert 4 in report["witness"]["P"]
        assert report["violation_certified"]

    def test_writer_replaced_when_in_q(self, fig1_spec):
        spec = make_spec(bag=fig1_spec.bag, writer=3)  # 3 is in Q
        report = demo(spec, 4)
        assert report["writer"] == 1
        assert report["violation_certified"]

    def test_needs_no_threshold(self, fig1_spec, monkeypatch):
        def refuse(bag):
            raise AssertionError("the lower-bound layer computed the threshold")

        monkeypatch.setattr("mmreg.tolerance.t_bridge", refuse)
        monkeypatch.setattr("mmreg.lowerbound.t_bridge", refuse, raising=False)
        assert find_witness(fig1_spec.bag, 4) == ((1,), (4,))
        with pytest.raises(LowerBoundError, match="tolerates"):
            find_witness(fig1_spec.bag, 3)
        assert demo(fig1_spec, 4)["violation_certified"]

    def test_every_t_above_threshold(self, singleton5_spec):
        for t in (3, 4):
            assert demo(singleton5_spec, t)["violation_certified"]
