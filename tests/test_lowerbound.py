import pytest

from mmreg import (
    LowerBoundError,
    Schedule,
    WitnessPartition,
    build_e3,
    check_property1,
    demo,
    find_witness,
    history_from_trace,
    isolation_holds,
    make_spec,
    run_simulation,
)
from mmreg.model import bag_of, normalize_bag, Bag


class TestFindWitness:
    def test_fig1_t4(self, fig1_spec):
        w = find_witness(fig1_spec.bag, 4)
        assert w == WitnessPartition((1,), (4,), (2, 3, 5))

    def test_singletons_t3(self, singleton5_spec):
        w = find_witness(singleton5_spec.bag, 3)
        assert w == WitnessPartition((1, 2), (3, 4), (5,))

    def test_partition_covers_everything(self, fig1_spec):
        w = find_witness(fig1_spec.bag, 4)
        assert sorted(w.p_side + w.p_prime + w.q_side) == [1, 2, 3, 4, 5]

    def test_rejects_tolerated_t(self, fig1_spec):
        with pytest.raises(LowerBoundError, match="tolerates"):
            find_witness(fig1_spec.bag, 3)

    def test_rejects_t_at_n(self, fig1_spec):
        with pytest.raises(LowerBoundError, match="n-1"):
            find_witness(fig1_spec.bag, 5)

    def test_swap(self):
        w = WitnessPartition((1,), (4,), (2, 3, 5))
        assert w.swapped() == WitnessPartition((4,), (1,), (2, 3, 5))


class TestBuildE3:
    def test_fig1_run_shape(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)
        run = build_e3(fig1_spec, 4, witness)
        write, read = history_from_trace(run.sim.trace)
        # Write completes before the read is even invoked ...
        assert write["response"] is not None
        assert write["response"] < read["invoke"]
        # ... yet the read returns the initial value.
        assert read["value"] == [0, None]
        assert run.sim.is_quiescent()

    def test_schedule_is_replayable(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)
        run = build_e3(fig1_spec, 4, witness)
        replay = run_simulation(fig1_spec, 4, run.sim.workload, run.schedule)
        assert history_from_trace(replay.trace) == history_from_trace(run.sim.trace)

    def test_isolation_during_split_phases(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)
        run = build_e3(fig1_spec, 4, witness)
        assert isolation_holds(run, witness)

    def test_isolation_fails_for_a_side_that_reads_the_writer(self, fig1_spec):
        run = build_e3(fig1_spec, 4, find_witness(fig1_spec.bag, 4))
        # p1 writes R_1[1] in phase 1, and p2 shares S_1 = {1, 2}.
        assert not isolation_holds(run, WitnessPartition((1,), (2,), (3, 4, 5)))

    def test_writer_outside_p_rejected(self, fig1_spec):
        witness = find_witness(fig1_spec.bag, 4)  # P = {1}
        spec = make_spec(bag=fig1_spec.bag, writer=4)
        with pytest.raises(LowerBoundError, match="must belong"):
            build_e3(spec, 4, witness)

    def test_bogus_witness_rejected(self, fig1_spec):
        bad = WitnessPartition((1,), (2,), (3, 4, 5))  # p1, p2 share S_1
        with pytest.raises(LowerBoundError, match="invalid witness"):
            build_e3(fig1_spec, 4, bad)

    def test_wrong_side_size_rejected(self, fig1_spec):
        bad = WitnessPartition((1,), (4, 5), (2, 3))
        with pytest.raises(LowerBoundError, match="size"):
            build_e3(fig1_spec, 4, bad)


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
        assert find_witness(fig1_spec.bag, 4) == WitnessPartition((1,), (4,), (2, 3, 5))
        with pytest.raises(LowerBoundError, match="tolerates"):
            find_witness(fig1_spec.bag, 3)
        assert demo(fig1_spec, 4)["violation_certified"]

    def test_every_t_above_threshold(self, singleton5_spec):
        for t in (3, 4):
            assert demo(singleton5_spec, t)["violation_certified"]
