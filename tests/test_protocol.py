import re

import pytest

from mmreg import INITIAL_VALUE, Message, ProcessCore, ProtocolError, TaggedValue, max_tagged, make_spec, bag_of
from mmreg.protocol import ACK_R, ACK_W, R, W
from mmreg.sim import Schedule, Simulator, WorkloadOp, run_simulation


def registers_of(spec):
    """A simulator with no workload, standing in for the shared
    registers of `spec`; it records each access in its trace."""
    return Simulator(spec, 0, [])


def reg_step(core, sim):
    """One atomic register access of core's active scan, on sim's
    registers, made by the simulator's handler step `_hstep` with core
    standing in for sim's process core.pid.  Returns the sends that
    `_hstep` passes to its router: the ack once the scan ends, else
    nothing."""
    sends = []
    sim.procs[core.pid] = core
    sim._route = sends.extend  # an instance attribute: the ack is returned, not sent
    sim._hstep(core.pid)
    return sends


def drain_scan(core, sim):
    """Run all register steps of the active handler, return its emissions."""
    sends = []
    while core.scan is not None:
        out = reg_step(core, sim)
        sends.extend(out)
    return sends


@pytest.fixture
def fig1_cores(fig1_spec):
    sim = registers_of(fig1_spec)
    cores = {p: ProcessCore(p, fig1_spec, quorum=2) for p in range(1, 6)}
    return cores, sim


class TestWriteInvoke:
    def test_first_write_fans_out_to_all(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        sends = core.invoke_write("a")
        assert len(sends) == 3
        assert {m.dest for m in sends} == {1, 2, 3}
        assert all(m.kind == W and m.value == TaggedValue(1, "a") for m in sends)

    def test_second_write_increments_sn(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        core.invoke_write("a")
        core.pending = None  # pretend the first write completed
        sends = core.invoke_write("b")
        assert all(m.value == TaggedValue(2, "b") for m in sends)

    def test_invoke_while_pending_is_misuse(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        core.invoke_write("a")
        with pytest.raises(ProtocolError, match="pending"):
            core.invoke_write("b")
        with pytest.raises(ProtocolError, match="pending"):
            core.invoke_read()

    @pytest.mark.parametrize("first", ["write", "read"])
    def test_refused_invoke_bumps_no_counter(self, msg3_spec, first):
        core = ProcessCore(1, msg3_spec, quorum=2)
        if first == "write":
            core.invoke_write("a")
        else:
            core.invoke_read()
        counters = (core.sn_w, core.sn_r)
        for invoke in (lambda: core.invoke_write("b"), lambda: core.invoke_read()):
            with pytest.raises(ProtocolError, match="pending"):
                invoke()
            assert (core.sn_w, core.sn_r) == counters


class TestWriteQuorum:
    def test_write_counts_only_acks_w_echoing_its_sn(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        core.invoke_write("a")
        for stale in (Message(ACK_W, 2, 1, 2), Message(ACK_R, 3, 1, 1, INITIAL_VALUE)):
            assert core.deliver(stale) == ((), None)
        # Had either stale ack counted, this one would reach quorum 2.
        assert core.deliver(Message(ACK_W, 1, 1, 1)) == ((), None)
        assert core.deliver(Message(ACK_W, 2, 1, 1)) == ((), TaggedValue(1, "a"))

    def test_write_back_ignores_acks_r(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read()
        core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(1, "a")))
        sends, _ = core.deliver(Message(ACK_R, 3, 2, 1, TaggedValue(1, "a")))
        assert [m.kind for m in sends] == [W, W, W]
        assert core.deliver(Message(ACK_R, 2, 2, 1, TaggedValue(1, "a"))) == ((), None)
        assert core.deliver(Message(ACK_W, 1, 2, 1)) == ((), None)
        assert core.deliver(Message(ACK_W, 3, 2, 1)) == ((), TaggedValue(1, "a"))


class TestWriteHandler:
    def test_fresh_value_written_then_acked(self, msg3_spec):
        sim = registers_of(msg3_spec)
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        sends = drain_scan(core, sim)
        assert sim.registers[(2, 2)] == TaggedValue(1, "a")
        assert sends == [Message(ACK_W, 2, 1, 1)]

    def test_stale_value_not_written_but_still_acked(self, msg3_spec):
        sim = registers_of(msg3_spec)
        sim.registers[(2, 2)] = TaggedValue(4, "d")
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 2, TaggedValue(2, "b")))
        sends = drain_scan(core, sim)
        assert sim.registers[(2, 2)] == TaggedValue(4, "d")
        assert sends == [Message(ACK_W, 2, 1, 2)]

    def test_member_of_two_sets_updates_both_before_single_ack(self):
        spec = make_spec(bag=bag_of(3, [1, 2], [2, 3]), writer=1)
        sim = registers_of(spec)
        core = ProcessCore(2, spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        sends = drain_scan(core, sim)
        assert sim.registers[(1, 2)] == TaggedValue(1, "a")
        assert sim.registers[(2, 2)] == TaggedValue(1, "a")
        assert len(sends) == 1 and sends[0].kind == ACK_W

    def test_each_access_is_one_step(self, msg3_spec):
        sim = registers_of(msg3_spec)
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        out = reg_step(core, sim)
        assert [ev["kind"] for ev in sim.trace] == ["reg-read"] and out == []
        out = reg_step(core, sim)
        assert [ev["kind"] for ev in sim.trace] == ["reg-read", "reg-write"]
        assert out[0].kind == ACK_W

    def test_delivery_mid_scan_rejected(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        with pytest.raises(ProtocolError, match="mid-scan"):
            core.deliver(Message(R, 3, 2, 1))


@pytest.mark.parametrize(
    "act, message",
    [
        (lambda core, sim: core.deliver(Message("PING", 1, 2, 1)), "unknown message kind 'PING'"),
    ],
    ids=["unknown-message-kind"],
)
def test_bad_step_raises(msg3_spec, act, message):
    with pytest.raises(ProtocolError, match=message):
        act(ProcessCore(2, msg3_spec, quorum=2), registers_of(msg3_spec))


@pytest.mark.parametrize("t", [1.5, True, "1", None], ids=repr)
def test_non_integer_t_raises(msg3_spec, t):
    with pytest.raises(ProtocolError, match=f"^t={re.escape(repr(t))} is not an integer$"):
        Simulator(msg3_spec, t, [])


class TestReadHandler:
    def test_initial_state_reports_initial_value(self, msg3_spec):
        sim = registers_of(msg3_spec)
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(R, 3, 2, 1))
        sends = drain_scan(core, sim)
        assert sends == [Message(ACK_R, 2, 3, 1, INITIAL_VALUE)]

    def test_reports_max_over_readable(self, fig1_cores):
        cores, sim = fig1_cores
        sim.registers[(2, 1)] = TaggedValue(1, "a")
        sim.registers[(2, 3)] = TaggedValue(3, "c")
        sim.registers[(2, 2)] = TaggedValue(2, "b")
        cores[1].deliver(Message(R, 4, 1, 1))
        sends = drain_scan(cores[1], sim)
        assert sends[0].value == TaggedValue(3, "c")

    @pytest.mark.parametrize("second", ["b", "x"])
    def test_equal_sns_fold_as_max_tagged(self, fig1_cores, second):
        """Two registers with sn 2 fold into the ack as `max_tagged`
        folds them: one value if the payloads agree, else the same
        ProtocolError."""
        cores, sim = fig1_cores
        first_reg, second_reg = cores[1].readable[:2]
        sim.registers[first_reg] = TaggedValue(2, "b")
        sim.registers[second_reg] = TaggedValue(2, second)
        values = [sim.registers[reg] for reg in cores[1].readable]
        cores[1].deliver(Message(R, 4, 1, 1))
        if second == "b":
            assert drain_scan(cores[1], sim) == [Message(ACK_R, 1, 4, 1, max_tagged(values))]
            return
        with pytest.raises(ProtocolError) as expected:
            max_tagged(values)
        with pytest.raises(ProtocolError) as raised:
            drain_scan(cores[1], sim)
        assert str(raised.value) == str(expected.value)
        assert "share a sequence number with different payloads" in str(raised.value)

    def test_singleton_scans_only_own_register(self, msg3_spec):
        sim = registers_of(msg3_spec)
        core = ProcessCore(3, msg3_spec, quorum=2)
        core.deliver(Message(R, 1, 3, 1))
        drain_scan(core, sim)
        assert [tuple(ev["payload"]["register"]) for ev in sim.trace] == [(3, 3)]


class TestReadQuorum:
    def test_write_back_preserves_sequence_number(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read()
        sends, resp = core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(2, "b")))
        assert sends == () and resp is None
        sends, resp = core.deliver(Message(ACK_R, 3, 2, 1, TaggedValue(1, "a")))
        assert resp is None
        assert len(sends) == 3
        assert all(m.kind == W and m.value == TaggedValue(2, "b") for m in sends)
        # quorum of write-back acks completes the read with the chosen tuple
        _, resp = core.deliver(Message(ACK_W, 1, 2, 2))
        assert resp is None
        _, resp = core.deliver(Message(ACK_W, 3, 2, 2))
        assert resp == TaggedValue(2, "b")

    def test_stale_ack_r_ignored(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read()
        core.pending = None
        core.invoke_read()  # sn_r is now 2
        sends, resp = core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(0, None)))
        assert sends == () and resp is None
        # Had the stale ack counted, p3's fresh one would reach quorum 2.
        assert core.deliver(Message(ACK_R, 3, 2, 2, TaggedValue(0, None))) == ((), None)
        sends, resp = core.deliver(Message(ACK_R, 1, 2, 2, TaggedValue(0, None)))
        assert resp is None and [m.kind for m in sends] == [W, W, W]

    def test_duplicate_sender_counted_once(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read()
        core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(0, None)))
        sends, _ = core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(0, None)))
        assert sends == ()  # still below quorum

    def test_independent_read_counters(self, msg3_spec):
        a = ProcessCore(1, msg3_spec, quorum=2)
        b = ProcessCore(2, msg3_spec, quorum=2)
        a.invoke_read()
        b.invoke_read()
        assert a.sn_r == 1 and b.sn_r == 1


def test_every_send_is_an_exact_message(fig1_spec):
    """The fan-outs and acks the protocol builds are Messages in every
    respect a caller can see: the class itself, equal to the message
    built by keyword (an ACK-W's value None), and `_asdict()` works."""
    workload = [WorkloadOp("write", 1, "a", 0), WorkloadOp("read", 3, None, 0), WorkloadOp("read", 5, None, 10)]
    sim = run_simulation(fig1_spec, 2, workload, Schedule("fair", seed=5))
    sent = [msg for _, kind, _, _, msg in sim.records if kind == "send"]
    assert {m.kind for m in sent} == {W, ACK_W, R, ACK_R}
    for m in sent:
        fields = m._asdict()
        assert type(m) is Message
        assert list(fields) == ["kind", "sender", "dest", "sn", "value"]
        assert m == Message(**fields)
        assert m == Message(kind=m.kind, sender=m.sender, dest=m.dest, sn=m.sn, value=m.value)
        assert (m.value is None) is (m.kind in (ACK_W, R))


class TestMaxTagged:
    def test_picks_largest_sn(self):
        vals = [TaggedValue(1, "a"), TaggedValue(3, "c"), TaggedValue(2, "b")]
        assert max_tagged(vals) == TaggedValue(3, "c")

    def test_same_sn_disagreement_raises(self):
        with pytest.raises(ProtocolError, match="different payloads"):
            max_tagged([TaggedValue(2, "b"), TaggedValue(2, "x")])

    def test_empty_raises(self):
        with pytest.raises(ProtocolError):
            max_tagged([])
