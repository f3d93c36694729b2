"""Test-only protocol mutants: replacements for `mmreg.protocol._read`,
each a read that breaks atomicity on some schedule.  A test patches one
in with `monkeypatch.setattr(protocol, "_read", MUTANTS[name])`;
`ProcessCore.invoke_read` looks `_read` up at each invocation, so the
patch reaches every read of a run."""

from mmreg.protocol import R, _round, _write, max_tagged


def no_write_back(pid: int, n: int, quorum: int, sn: int):
    """Return the freshest of the n - t replies, with no write-back."""
    replies = yield from _round(R, pid, n, quorum, sn)
    return max_tagged(replies.values())


def naive_fast(pid: int, n: int, quorum: int, sn: int):
    """Skip the write-back when all n - t replies carry one sn.  Wrong
    in m&m: an ACK-R reports the freshest register its sender can read,
    not what that sender's own registers hold."""
    replies = yield from _round(R, pid, n, quorum, sn)
    best = max_tagged(replies.values())
    if len({v.sn for v in replies.values()}) == 1:
        return best
    return (yield from _write(pid, n, quorum, best))


MUTANTS = {"no-write-back": no_write_back, "naive-fast": naive_fast}
