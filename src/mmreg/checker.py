"""Atomicity verdicts over completed histories and traces.

The single-writer discipline tags every written value with a unique
sequence number, so the two atomicity properties reduce to direct
checks over the precedence order of operations; no linearization search
is needed.

An operation o precedes o' iff o's response comes before o''s
invocation; operations are concurrent when neither precedes the other.
Unresponded (crash-interrupted) operations precede nothing, but may
still justify a read's value as a concurrent write.
"""

from __future__ import annotations

from dataclasses import dataclass


class HistoryError(ValueError):
    """Malformed history input."""


@dataclass(frozen=True)
class Violation:
    prop: str
    ops: tuple
    reason: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...]

    @staticmethod
    def from_violations(violations) -> "Verdict":
        vs = tuple(violations)
        return Verdict(not vs, vs)

    def merged(self, other: "Verdict") -> "Verdict":
        return Verdict.from_violations(self.violations + other.violations)

    def as_dicts(self) -> list[dict]:
        """The violations as JSON-ready {"prop", "ops", "reason"} records."""
        return [{"prop": v.prop, "ops": list(v.ops), "reason": v.reason} for v in self.violations]


def _validate(history) -> None:
    for h in history:
        if h.get("invoke") is None:
            raise HistoryError(f"op {h.get('op')} has a response but no invocation")
        if h.get("response") is not None and h["response"] <= h["invoke"]:
            raise HistoryError(f"op {h['op']} responds at or before its invocation")


def _precedes(a: dict, b: dict) -> bool:
    return a["response"] is not None and a["response"] < b["invoke"]


def _concurrent(a: dict, b: dict) -> bool:
    return not _precedes(a, b) and not _precedes(b, a)


def _writes(history):
    return [h for h in history if h["kind"] == "write"]


def _completed_reads(history):
    return [h for h in history if h["kind"] == "read" and h["response"] is not None]


def check_property1(history) -> Verdict:
    """Every completed read returns the immediately preceding or a
    concurrent write's value, or the initial value when no write
    precedes it."""
    _validate(history)
    writes = _writes(history)
    by_sn: dict[int, dict] = {}
    for w in writes:
        sn = w["value"][0] if w["value"] is not None else None
        if sn is not None:
            if sn in by_sn:
                raise HistoryError(f"two writes carry sequence number {sn}")
            by_sn[sn] = w

    violations = []
    for r in _completed_reads(history):
        if r["value"] is None:
            raise HistoryError(f"completed read {r['op']} has no value")
        sn = r["value"][0]
        if sn == 0:
            prior = [w for w in writes if _precedes(w, r)]
            if prior:
                violations.append(
                    Violation(
                        "P1",
                        (prior[0]["op"], r["op"]),
                        f"read {r['op']} returned the initial value although "
                        f"write {prior[0]['op']} precedes it",
                    )
                )
            continue
        w = by_sn.get(sn)
        if w is None:
            violations.append(
                Violation("P1", (r["op"],), f"read {r['op']} returned a value never written (sn={sn})")
            )
        elif _precedes(w, r):
            # Immediate unless some other write fits strictly between.
            mid = next(
                (w2 for w2 in writes if w2 is not w and _precedes(w, w2) and _precedes(w2, r)),
                None,
            )
            if mid is not None:
                violations.append(
                    Violation(
                        "P1",
                        (w["op"], mid["op"], r["op"]),
                        f"read {r['op']} returned sn={sn} although write {mid['op']} "
                        "fully separates that write from the read",
                    )
                )
        elif not _concurrent(w, r):
            violations.append(
                Violation(
                    "P1",
                    (w["op"], r["op"]),
                    f"read {r['op']} returned sn={sn}, written only after the read completed",
                )
            )
    return Verdict.from_violations(violations)


def check_property2(history) -> Verdict:
    """Reads respect the order of written values: if one read precedes
    another, the later read returns a value at least as fresh."""
    _validate(history)
    reads = _completed_reads(history)
    violations = []
    for r in reads:
        for r2 in reads:
            if r is r2 or not _precedes(r, r2):
                continue
            if r["value"][0] > r2["value"][0]:
                violations.append(
                    Violation(
                        "P2",
                        (r["op"], r2["op"]),
                        f"read {r['op']} returned sn={r['value'][0]} but the later "
                        f"read {r2['op']} returned sn={r2['value'][0]}",
                    )
                )
    return Verdict.from_violations(violations)


def check_monotonicity(trace) -> Verdict:
    """Per register, successive written sequence numbers never decrease."""
    last: dict[tuple, int] = {}
    violations = []
    for ev in trace:
        if ev["kind"] != "reg-write":
            continue
        reg = tuple(ev["payload"]["register"])
        sn = ev["payload"]["value"][0]
        prev = last.get(reg)
        if prev is not None and sn < prev:
            violations.append(
                Violation(
                    "MONO",
                    (),
                    f"register R_{reg[0]}[p{reg[1]}] went from sn={prev} to sn={sn} "
                    f"at step {ev['step']}",
                )
            )
        last[reg] = sn
    return Verdict.from_violations(violations)


def check_completion(history, crashed, t: int | None = None) -> Verdict:
    """With at most t crashes, every operation of a surviving process
    responds; pending operations of crashed processes are exempt."""
    _validate(history)
    if t is not None and len(crashed) > t:
        raise HistoryError(f"{len(crashed)} crashes exceed the tolerated {t}; liveness not promised")
    violations = []
    for h in history:
        if h["proc"] not in crashed and h["response"] is None:
            violations.append(
                Violation(
                    "LIVE",
                    (h["op"],),
                    f"op {h['op']} by surviving p{h['proc']} never responded",
                )
            )
    return Verdict.from_violations(violations)


PROPERTIES = ("1", "2", "mono", "live")


def check_all(trace, history=None, crashed=None, t: int | None = None, props=PROPERTIES) -> Verdict:
    """The selected properties over one run: "1" and "2" are Property 1
    and Property 2, "mono" register monotonicity, and "live" completion,
    with the crashed processes read from the trace unless supplied."""
    from .sim import crashed_from_trace, history_from_trace

    if not props or not set(props) <= set(PROPERTIES):
        raise HistoryError(f"properties {','.join(props)!r} not a selection from {','.join(PROPERTIES)}")
    if history is None:
        history = history_from_trace(trace)
    verdict = Verdict(True, ())
    if "1" in props:
        verdict = verdict.merged(check_property1(history))
    if "2" in props:
        verdict = verdict.merged(check_property2(history))
    if "mono" in props:
        verdict = verdict.merged(check_monotonicity(trace))
    if "live" in props:
        if crashed is None:
            crashed = crashed_from_trace(trace)
        verdict = verdict.merged(check_completion(history, crashed, t))
    return verdict
