import pytest

from mmreg import INITIAL_VALUE, Message, ProcessCore, ProtocolError, TaggedValue, max_tagged, make_spec, bag_of
from mmreg.protocol import ACK_R, ACK_W, R, W
from mmreg.sim import RegisterStore


def quiet_store(spec):
    return RegisterStore(spec, lambda *a: None)


def drain_scan(core, store):
    """Run all register steps of the active handler, return its emissions."""
    sends = []
    while core.scan is not None:
        out = core.reg_step(store)
        sends.extend(out)
    return sends


@pytest.fixture
def fig1_cores(fig1_spec):
    store = quiet_store(fig1_spec)
    cores = {p: ProcessCore(p, fig1_spec, quorum=2) for p in range(1, 6)}
    return cores, store


class TestWriteInvoke:
    def test_first_write_fans_out_to_all(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        sends = core.invoke_write(0, "a")
        assert len(sends) == 3
        assert {m.dest for m in sends} == {1, 2, 3}
        assert all(m.kind == W and m.value == TaggedValue(1, "a") for m in sends)

    def test_second_write_increments_sn(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        core.invoke_write(0, "a")
        core.pending = None  # pretend the first write completed
        sends = core.invoke_write(1, "b")
        assert all(m.value == TaggedValue(2, "b") for m in sends)

    def test_invoke_while_pending_is_misuse(self, msg3_spec):
        core = ProcessCore(1, msg3_spec, quorum=2)
        core.invoke_write(0, "a")
        with pytest.raises(ProtocolError, match="pending"):
            core.invoke_write(1, "b")
        with pytest.raises(ProtocolError, match="pending"):
            core.invoke_read(2)


class TestWriteHandler:
    def test_fresh_value_written_then_acked(self, msg3_spec):
        store = quiet_store(msg3_spec)
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        sends = drain_scan(core, store)
        assert store.values[(2, 2)] == TaggedValue(1, "a")
        assert sends == [Message(ACK_W, 2, 1, 1)]

    def test_stale_value_not_written_but_still_acked(self, msg3_spec):
        store = quiet_store(msg3_spec)
        store.values[(2, 2)] = TaggedValue(4, "d")
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 2, TaggedValue(2, "b")))
        sends = drain_scan(core, store)
        assert store.values[(2, 2)] == TaggedValue(4, "d")
        assert sends == [Message(ACK_W, 2, 1, 2)]

    def test_member_of_two_sets_updates_both_before_single_ack(self):
        spec = make_spec(bag=bag_of(3, [1, 2], [2, 3]), writer=1)
        store = quiet_store(spec)
        core = ProcessCore(2, spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        sends = drain_scan(core, store)
        assert store.values[(1, 2)] == TaggedValue(1, "a")
        assert store.values[(2, 2)] == TaggedValue(1, "a")
        assert len(sends) == 1 and sends[0].kind == ACK_W

    def test_each_access_is_one_step(self, msg3_spec):
        steps = []
        store = RegisterStore(msg3_spec, lambda kind, *a: steps.append(kind))
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        out = core.reg_step(store)
        assert steps == ["reg-read"] and out == []
        out = core.reg_step(store)
        assert steps == ["reg-read", "reg-write"]
        assert out[0].kind == ACK_W

    def test_delivery_mid_scan_rejected(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(W, 1, 2, 1, TaggedValue(1, "a")))
        with pytest.raises(ProtocolError, match="mid-scan"):
            core.deliver(Message(R, 3, 2, 1))


@pytest.mark.parametrize(
    "act, message",
    [
        (lambda core, store: core.reg_step(store), "p2: no handler in progress"),
        (lambda core, store: core.deliver(Message("PING", 1, 2, 1)), "unknown message kind 'PING'"),
    ],
    ids=["reg-step-with-no-scan", "unknown-message-kind"],
)
def test_bad_step_raises(msg3_spec, act, message):
    with pytest.raises(ProtocolError, match=message):
        act(ProcessCore(2, msg3_spec, quorum=2), quiet_store(msg3_spec))


class TestReadHandler:
    def test_initial_state_reports_initial_value(self, msg3_spec):
        store = quiet_store(msg3_spec)
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.deliver(Message(R, 3, 2, 1))
        sends = drain_scan(core, store)
        assert sends == [Message(ACK_R, 2, 3, 1, INITIAL_VALUE)]

    def test_reports_max_over_readable(self, fig1_cores):
        cores, store = fig1_cores
        store.values[(2, 1)] = TaggedValue(1, "a")
        store.values[(2, 3)] = TaggedValue(3, "c")
        store.values[(2, 2)] = TaggedValue(2, "b")
        cores[1].deliver(Message(R, 4, 1, 1))
        sends = drain_scan(cores[1], store)
        assert sends[0].value == TaggedValue(3, "c")

    def test_singleton_scans_only_own_register(self, msg3_spec):
        regs = []
        store = RegisterStore(msg3_spec, lambda k, a, p: regs.append(tuple(p["register"])))
        core = ProcessCore(3, msg3_spec, quorum=2)
        core.deliver(Message(R, 1, 3, 1))
        drain_scan(core, store)
        assert regs == [(3, 3)]


class TestReadQuorum:
    def test_write_back_preserves_sequence_number(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read(0)
        sends, resp = core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(2, "b")))
        assert sends == [] and resp is None
        sends, resp = core.deliver(Message(ACK_R, 3, 2, 1, TaggedValue(1, "a")))
        assert resp is None
        assert len(sends) == 3
        assert all(m.kind == W and m.value == TaggedValue(2, "b") for m in sends)
        # quorum of write-back acks completes the read with the chosen tuple
        _, resp = core.deliver(Message(ACK_W, 1, 2, 2))
        assert resp is None
        _, resp = core.deliver(Message(ACK_W, 3, 2, 2))
        assert resp == (0, TaggedValue(2, "b"))

    def test_stale_ack_r_ignored(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read(0)
        core.pending = None
        core.invoke_read(1)  # sn_r is now 2
        sends, resp = core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(0, None)))
        assert sends == [] and resp is None
        assert core.pending.replies == {}

    def test_duplicate_sender_counted_once(self, msg3_spec):
        core = ProcessCore(2, msg3_spec, quorum=2)
        core.invoke_read(0)
        core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(0, None)))
        sends, _ = core.deliver(Message(ACK_R, 1, 2, 1, TaggedValue(0, None)))
        assert sends == []  # still below quorum

    def test_independent_read_counters(self, msg3_spec):
        a = ProcessCore(1, msg3_spec, quorum=2)
        b = ProcessCore(2, msg3_spec, quorum=2)
        a.invoke_read(0)
        b.invoke_read(1)
        assert a.sn_r == 1 and b.sn_r == 1


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
