"""Test-only protocol mutants, each a change that breaks atomicity on
some schedule, as (owner, name, replacement) for `monkeypatch.setattr`.

Two replace `mmreg.protocol._write_back`, the choice a read makes at
its quorum of replies: the value it returns, and whether it writes that
value back first.  `ProcessCore.deliver` looks `_write_back` up at each
quorum, so the patch reaches every read of a run.  The third replaces
the `ack_quorum` that `mmreg.sim.Simulator` sets on each `ProcessCore`
it builds."""

from mmreg import protocol, sim
from mmreg.protocol import max_tagged


def no_write_back(replies: dict):
    """Return the freshest of the n - t replies, with no write-back."""
    return max_tagged(replies.values()), False


def naive_fast(replies: dict):
    """Skip the write-back when all n - t replies carry one sn.  Wrong
    in m&m: an ACK-R reports the freshest register its sender can read,
    not what that sender's own registers hold."""
    return max_tagged(replies.values()), len({v.sn for v in replies.values()}) != 1


def short_quorum(n: int, t: int) -> int:
    """Wait for one ack fewer than the n - t of every round."""
    return n - t - 1


MUTANTS = {
    "no-write-back": (protocol, "_write_back", no_write_back),
    "naive-fast": (protocol, "_write_back", naive_fast),
    "short-quorum": (sim, "ack_quorum", short_quorum),
}
