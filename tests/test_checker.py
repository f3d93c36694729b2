import pytest

import fixtures as fx
from mmreg import (
    Schedule,
    WorkloadOp,
    check_all,
    check_completion,
    check_monotonicity,
    check_property1,
    check_property2,
    history_from_trace,
    run_simulation,
)
from mmreg.checker import HistoryError


class TestProperty1:
    def test_flags_initial_value_after_completed_write(self):
        verdict = check_property1(fx.P1_BAD_INITIAL)
        assert not verdict.ok
        assert verdict.violations[0].prop == "P1"

    def test_accepts_fresh_value(self):
        assert check_property1(fx.P1_OK_INITIAL).ok

    def test_flags_stale_value_behind_newer_write(self):
        verdict = check_property1(fx.P1_BAD_STALE)
        assert not verdict.ok
        assert verdict.violations[0].ops == (0, 1, 2)

    def test_accepts_latest_value(self):
        assert check_property1(fx.P1_OK_STALE).ok

    def test_no_writes_initial_value_ok(self):
        history = [{"op": 0, "kind": "read", "proc": 1, "invoke": 0, "response": 5, "value": [0, None]}]
        assert check_property1(history).ok

    def test_concurrent_write_justifies_either_value(self):
        write = {"op": 0, "kind": "write", "proc": 1, "invoke": 0, "response": 20, "value": [1, "a"]}
        for returned in ([0, None], [1, "a"]):
            read = {"op": 1, "kind": "read", "proc": 2, "invoke": 5, "response": 10, "value": returned}
            assert check_property1([write, read]).ok

    def test_unresponded_write_justifies_concurrent_read(self):
        write = {"op": 0, "kind": "write", "proc": 1, "invoke": 0, "response": None, "value": [1, "a"]}
        read = {"op": 1, "kind": "read", "proc": 2, "invoke": 5, "response": 10, "value": [1, "a"]}
        assert check_property1([write, read]).ok

    def test_future_value_flagged(self):
        write = {"op": 0, "kind": "write", "proc": 1, "invoke": 20, "response": 30, "value": [1, "a"]}
        read = {"op": 1, "kind": "read", "proc": 2, "invoke": 0, "response": 10, "value": [1, "a"]}
        assert not check_property1([write, read]).ok

    def test_malformed_history_rejected(self):
        with pytest.raises(HistoryError):
            check_property1([{"op": 0, "kind": "read", "proc": 1, "invoke": None, "response": 5, "value": [0, None]}])

    def test_response_before_invoke_rejected(self):
        with pytest.raises(HistoryError):
            check_property1([{"op": 0, "kind": "read", "proc": 1, "invoke": 9, "response": 5, "value": [0, None]}])


class TestProperty2:
    def test_flags_backward_read_pair(self):
        assert not check_property2(fx.P2_BAD_ORDER).ok

    def test_accepts_forward_read_pair(self):
        assert check_property2(fx.P2_OK_ORDER).ok

    def test_flags_fallback_to_initial(self):
        assert not check_property2(fx.P2_BAD_INITIAL).ok

    def test_concurrent_reads_unordered(self):
        assert check_property2(fx.P2_OK_CONCURRENT).ok


class TestMonotonicity:
    def test_flags_decrease(self):
        verdict = check_monotonicity(fx.MONO_BAD_TRACE)
        assert not verdict.ok
        assert "sn=3 to sn=2" in verdict.violations[0].reason

    def test_accepts_increase(self):
        assert check_monotonicity(fx.MONO_OK_TRACE).ok

    def test_equal_rewrite_allowed(self):
        trace = [fx.MONO_OK_TRACE[1], fx.MONO_OK_TRACE[1]]
        assert check_monotonicity(trace).ok


class TestCompletion:
    def test_flags_starved_survivor(self):
        verdict = check_completion(fx.LIVE_BAD_HISTORY, fx.LIVE_BAD_CRASHED)
        assert not verdict.ok

    def test_crashed_process_exempt(self):
        assert check_completion(fx.LIVE_OK_HISTORY, fx.LIVE_OK_CRASHED).ok

    def test_excess_crashes_precondition(self):
        with pytest.raises(HistoryError, match="exceed"):
            check_completion(fx.LIVE_OK_HISTORY, {1, 2}, t=1)


class TestDerivedChecks:
    """With one sequential writer, Property 1 implies that no read
    returns a future or never-written value and that no read returns a
    value older than a write that precedes it."""

    def test_no_future_on_simulated_run(self, fig1_spec):
        wl = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 3, None, 0)]
        sim = run_simulation(fig1_spec, 3, wl, Schedule("fair", seed=17))
        assert check_property1(history_from_trace(sim.trace)).ok
        assert check_all(sim.trace, crashed=sim.crashed, t=3).ok

    def test_no_future_flags_fabricated_value(self):
        history = [{"op": 0, "kind": "read", "proc": 1, "invoke": 0, "response": 5, "value": [7, "x"]}]
        verdict = check_property1(history)
        assert not verdict.ok
        assert "never written (sn=7)" in verdict.violations[0].reason

    def test_write_read_order_flags_regression(self):
        # Write sn=2 precedes the read, which returns the older sn=1.
        verdict = check_property1(fx.P1_BAD_STALE)
        assert not verdict.ok
        assert verdict.violations[0].ops == (0, 1, 2)


class TestCheckAll:
    def test_clean_run_passes(self, msg3_spec):
        wl = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 2, None, 0)]
        sim = run_simulation(msg3_spec, 1, wl, Schedule("fair", seed=8))
        assert check_all(sim.trace).ok

    def test_merges_violations(self):
        verdict = check_property1(fx.P1_BAD_INITIAL).merged(check_property2(fx.P2_BAD_ORDER))
        assert len(verdict.violations) == 2
        assert not verdict.ok

    def test_selected_properties_only(self):
        verdict = check_all([], history=fx.P1_BAD_INITIAL, crashed=set(), props=("2", "mono", "live"))
        assert verdict.ok
        assert [v.prop for v in check_all([], history=fx.P1_BAD_INITIAL, props=("1",)).violations] == ["P1"]

    def test_liveness_reads_crashes_from_trace(self):
        history = [{"op": 0, "kind": "read", "proc": 2, "invoke": 0, "response": None, "value": None}]
        crash = {"step": 1, "kind": "crash", "actor": 2, "payload": {}}
        assert not check_all([], history=history, props=("live",)).ok
        assert check_all([crash], history=history, props=("live",)).ok

    def test_empty_selection_rejected(self):
        with pytest.raises(HistoryError, match="1,2,mono,live"):
            check_all([], history=[], props=())
