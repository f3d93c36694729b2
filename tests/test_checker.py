import copy
import random
import re
import sys
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

import checker_oracle as oracle
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
import mmreg.checker
from mmreg.checker import HistoryError

# A field value that means the field is left out of the record.
MISSING = object()


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

    @pytest.mark.parametrize(
        "returned, reason",
        [
            ([1, "zzz"], "read 1 returned a value never written (sn=1, payload='zzz')"),
            ([0, "bogus"], "read 1 returned a value never written (sn=0, payload='bogus')"),
            ([1, "a"], None),
            ([1], None),
            ([0, None], None),
            ([0], None),
        ],
    )
    def test_a_read_returns_a_whole_written_value(self, returned, reason):
        """A read is held to the whole value it returns: a written sn,
        or the initial sn 0, with another payload was never written.  A
        bare [sn] stands for the value with that sn.  The write is
        concurrent with the read, so it justifies either value."""
        write = {"op": 0, "kind": "write", "proc": 1, "invoke": 0, "response": 20, "value": [1, "a"]}
        read = {"op": 1, "kind": "read", "proc": 2, "invoke": 5, "response": 10, "value": returned}
        for check in (check_property1, oracle.check_property1):
            verdict = check([write, read])
            assert [v.reason for v in verdict.violations] == ([] if reason is None else [reason])
            assert [v.ops for v in verdict.violations] == ([] if reason is None else [(1,)])

    def test_malformed_history_rejected(self):
        with pytest.raises(HistoryError):
            check_property1([{"op": 0, "kind": "read", "proc": 1, "invoke": None, "response": 5, "value": [0, None]}])

    def test_response_before_invoke_rejected(self):
        with pytest.raises(HistoryError):
            check_property1([{"op": 0, "kind": "read", "proc": 1, "invoke": 9, "response": 5, "value": [0, None]}])


    @pytest.mark.parametrize("record", [5, None, [0, "read"]], ids=["int", "none", "list"])
    def test_a_record_that_is_not_a_dict_is_named(self, record):
        write = {"op": 0, "kind": "write", "proc": 1, "invoke": 0, "response": 5, "value": [1, "a"]}
        message = f"history[1] is {record!r}, not an op record (a dict)"
        checks = (check_property1, check_property2, lambda h: check_completion(h, set()), lambda h: check_all([], history=h))
        for check in checks:
            with pytest.raises(HistoryError, match=f"^{re.escape(message)}$"):
                check([write, record])

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"invoke": "a"}, "invoke step 'a'"),
            ({"response": 7.5}, "response step 7.5"),
            ({"invoke": True}, "invoke step True"),
            ({"value": 5}, "value 5"),
            ({"value": []}, "value []"),
            ({"value": ["1", "a"]}, "value ['1', 'a']"),
            ({"value": None}, "completed read 0 has no value"),
            ({"op": MISSING, "response": "x"}, "op None has response step 'x', not an integer"),
            ({"kind": MISSING, "value": None}, 'op 0 has kind None, not "read" or "write"'),
            ({"kind": "banana"}, "op 0 has kind 'banana'"),
            ({"proc": MISSING}, "op 0 has proc None, not an integer"),
            ({"proc": [2]}, "op 0 has proc [2], not an integer"),
            ({"proc": True}, "op 0 has proc True, not an integer"),
        ],
    )
    def test_malformed_fields_rejected(self, fields, message):
        record = {"op": 0, "kind": "read", "proc": 1, "invoke": 1, "response": 5, "value": [0, None], **fields}
        history = [{k: v for k, v in record.items() if v is not MISSING}]
        checks = (check_property1, check_property2, lambda h: check_completion(h, set()), lambda h: check_all([], history=h))
        for check in checks:
            with pytest.raises(HistoryError, match=re.escape(message)):
                check(history)


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

    @pytest.mark.parametrize("t", [True, "1", 1.5], ids=repr)
    def test_non_integer_t_rejected(self, t):
        with pytest.raises(HistoryError, match=f"^t={re.escape(repr(t))} is not an integer$"):
            check_completion([], {1, 2}, t)

    def test_negative_t_rejected(self):
        # Not "0 crashes exceed the tolerated -1", which blames the crashes.
        with pytest.raises(HistoryError, match=r"^t=-1 is negative: a crash budget must be >= 0$"):
            check_completion([], set(), -1)


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

    def test_selected_properties_only(self):
        verdict = check_all([], history=fx.P1_BAD_INITIAL, crashed=set(), props=("2", "mono", "live"))
        assert verdict.ok
        assert [v.prop for v in check_all([], history=fx.P1_BAD_INITIAL, props=("1",)).violations] == ["P1"]

    def test_liveness_reads_crashes_from_trace(self):
        history = [{"op": 0, "kind": "read", "proc": 2, "invoke": 0, "response": None, "value": None}]
        crash = {"step": 1, "kind": "crash", "actor": 2, "payload": {}}
        assert not check_all([], history=history, props=("live",)).ok
        assert check_all([crash], history=history, props=("live",)).ok

    def test_validates_the_history_once(self):
        """check_all validates the history once for the properties it
        composes; each check called alone still validates it."""
        validated = []

        class Record(dict):
            def get(self, key, default=None):
                if key == "invoke":
                    validated.append(self["op"])
                return super().get(key, default)

        history = [Record(h) for h in fx.P1_OK_STALE]
        assert check_all([], history=history, crashed=set()).ok
        assert validated == [0, 1, 2]
        validated.clear()
        check_property1(history)
        check_property2(history)
        check_completion(history, set())
        assert validated == [0, 1, 2] * 3

    @pytest.mark.parametrize("props", [("mono",), ("1",), ("2", "live")])
    def test_a_given_history_is_validated_whatever_the_selection(self, props):
        history = [{"op": 0, "kind": "read", "proc": 1, "invoke": 9, "response": 5, "value": [0, None]}]
        with pytest.raises(HistoryError, match="op 0 responds at or before its invocation"):
            check_all([], history=history, crashed=set(), props=props)

    def test_empty_selection_rejected(self):
        with pytest.raises(HistoryError, match="1,2,mono,live"):
            check_all([], history=[], props=())

    @pytest.mark.parametrize("props", ["12", "mono"])
    def test_a_string_selection_rejected(self, props):
        with pytest.raises(HistoryError, match=f"properties '{props}' is a string"):
            check_all([], props=props)

    @pytest.mark.parametrize("props", [None, 5, ["1", 2], [["1"]], ("1", "x")], ids=repr)
    def test_a_malformed_selection_rejected(self, props):
        message = f"properties {props!r} not a selection from 1,2,mono,live"
        with pytest.raises(HistoryError, match=f"^{re.escape(message)}$"):
            check_all([], props=props)

    @pytest.mark.parametrize("t", [True, "1", 1.5], ids=repr)
    @pytest.mark.parametrize("props", [("live",), ("1",)])
    def test_non_integer_t_rejected_whatever_the_selection(self, t, props):
        with pytest.raises(HistoryError, match=f"^t={re.escape(repr(t))} is not an integer$"):
            check_all([], t=t, props=props)

    @pytest.mark.parametrize("props", [("live",), ("1",)])
    @pytest.mark.parametrize("trace", [[], [5]], ids=["empty", "bad-event"])
    def test_negative_t_rejected_before_the_events(self, trace, props):
        with pytest.raises(HistoryError, match=r"^t=-1 is negative: a crash budget must be >= 0$"):
            check_all(trace, t=-1, props=props)


def _outcome(check, history):
    """A check's Verdict, or the message of the HistoryError it raised."""
    try:
        return check(copy.deepcopy(history))
    except HistoryError as e:
        return f"HistoryError: {e}"


@st.composite
def small_histories(draw):
    """0-12 ops, some pending, with writes numbered 1, 2, ... and reads
    returning sn 0 to one past the last write, sn k with payload vk and
    sn 0 with None.  In half the histories each write is invoked no
    earlier than the one before it responds.  Four histories in eight
    then get one fault: a write's sn replaced (a duplicate or 0), a
    completed read with no value, a response at or before its
    invocation, or a payload replaced."""
    kinds = draw(st.lists(st.sampled_from(["write", "read"]), max_size=12))
    n_writes = kinds.count("write")
    sequential = draw(st.booleans())
    history, clock, written = [], 0, 0
    for op, kind in enumerate(kinds):
        invoke = clock + draw(st.integers(0, 5)) if kind == "write" and sequential else draw(st.integers(0, 30))
        response = None if draw(st.integers(0, 4)) == 0 else invoke + draw(st.integers(1, 15))
        if kind == "write":
            clock = invoke if response is None else response
            written += 1
            sn = written
        else:
            sn = draw(st.integers(0, n_writes + 1))
        history.append({"op": op, "kind": kind, "proc": 1 if kind == "write" else 2, "invoke": invoke, "response": response, "value": [sn, f"v{sn}" if sn else None]})
    fault = draw(st.sampled_from([None, None, None, None, "sn", "no-value", "not-after", "payload"]))
    if fault and history:
        h = history[draw(st.integers(0, len(history) - 1))]
        if fault == "sn":
            sn = draw(st.integers(0, n_writes))
            h["value"] = [sn, f"v{sn}" if sn else None]
        elif fault == "payload":
            h["value"] = [h["value"][0], "zzz"]
        elif fault == "no-value":
            h["value"] = None
        else:
            h["response"] = h["invoke"] - draw(st.integers(0, 2))
    return history


class TestAgainstOracle:
    """The sorted-order checks return exactly the pairwise definitions'
    verdicts: the same violations, in the same order, and the same
    HistoryError messages."""

    @settings(max_examples=300, deadline=None)
    @given(small_histories())
    def test_small_histories(self, history):
        assert _outcome(check_property1, history) == _outcome(oracle.check_property1, history)
        assert _outcome(check_property2, history) == _outcome(oracle.check_property2, history)

    def test_long_history_with_injected_violations(self):
        history = _linearizable_history(random.Random(2024), 2000)
        assert check_property1(history).ok and check_property2(history).ok

        reads = [h for h in history if h["kind"] == "read"]
        writes = {h["value"][0]: h for h in history if h["kind"] == "write"}
        # Stale read: two later writes both complete before the read starts.
        stale = next(r for r in reads if r["value"][0] >= 3 and writes[r["value"][0]]["response"] < r["invoke"])
        stale["value"] = list(writes[stale["value"][0] - 2]["value"])
        # Read inversion: two reads inside one write, the earlier one
        # returning its value and the later one the value before it.
        w = next(w for w in writes.values() if w["value"][0] >= 2 and w["response"] - w["invoke"] >= 4)
        sn = w["value"][0]
        history.append({"op": len(history), "kind": "read", "proc": 3, "invoke": w["invoke"], "response": w["invoke"] + 1, "value": list(w["value"])})
        history.append({"op": len(history), "kind": "read", "proc": 4, "invoke": w["invoke"] + 2, "response": w["response"], "value": list(writes[sn - 1]["value"])})

        p1, p2 = check_property1(history), check_property2(history)
        assert p1 == oracle.check_property1(history)
        assert p2 == oracle.check_property2(history)
        assert stale["op"] in p1.violations[0].ops and "fully separates" in p1.violations[0].reason
        assert len(p1.violations) == 1
        assert (len(history) - 2, len(history) - 1) in [v.ops for v in p2.violations]

    def test_listing_costs_a_bounded_number_of_lines_per_pair(self):
        """One early read returning a far-future sn is the earlier read
        of a violation with nearly every later read.  Listing those pairs
        must not rescan the reads that precede each later read: it may
        execute at most 5 times the checker lines of the clean history."""
        history = _linearizable_history(random.Random(1), 3000)
        clean = _executed_lines(mmreg.checker, lambda: check_property2(history))
        next(h for h in history if h["kind"] == "read")["value"] = [10**6, "far"]
        assert len(check_property2(history).violations) > 2000
        assert _executed_lines(mmreg.checker, lambda: check_property2(history)) <= 5 * clean


def _executed_lines(module, call) -> int:
    """The number of lines of `module` that call() executes."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != module.__file__:
            return None
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def _linearizable_history(rng, n_ops):
    """A single-writer history of n_ops operations, 30 % writes, that is
    atomic by construction: every op takes effect at a point inside its
    interval, a write at its invocation, and a read returns the last
    write whose point is not after its own."""
    n_writes = n_ops * 3 // 10
    history, write_invokes, clock = [], [], 0
    for sn in range(1, n_writes + 1):
        invoke = clock + rng.randint(1, 5)
        clock = invoke + rng.randint(1, 10)
        write_invokes.append(invoke)
        history.append({"op": 0, "kind": "write", "proc": 1, "invoke": invoke, "response": clock, "value": [sn, f"w{sn}"]})
    for _ in range(n_ops - n_writes):
        invoke = rng.randint(0, clock)
        response = invoke + rng.randint(1, 30)
        point = rng.randint(invoke, response)
        sn = bisect_right(write_invokes, point)
        history.append({"op": 0, "kind": "read", "proc": rng.randint(2, 6), "invoke": invoke, "response": response, "value": [sn, f"w{sn}" if sn else None]})
    history.sort(key=lambda h: h["invoke"])
    for i, h in enumerate(history):
        h["op"] = i
    return history
