"""Atomicity verdicts over completed histories and traces.

The single-writer discipline tags every written value with a unique
sequence number, so the two atomicity properties reduce to direct
checks over the precedence order of operations; no linearization search
is needed.

An operation o precedes o' iff o's response comes before o''s
invocation; operations are concurrent when neither precedes the other.
Unresponded (crash-interrupted) operations precede nothing, but may
still justify a read's value as a concurrent write.

Property 1 and Property 2 answer these precedence questions from sorted
orders, a prefix maximum and a suffix minimum, in O((R+W) log(R+W)) for
R reads and W writes; only naming the operations of a violation found
costs a further linear pass.  Their output is identical to the pairwise
definitions (kept as the test oracle in tests/checker_oracle.py): the
same violations, in the same order, with the same messages.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import inf

from .trace import crashed_from_trace, history_from_trace, register_writes


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
        invoke, response, value = h.get("invoke"), h.get("response"), h.get("value")
        if type(invoke) is not int:
            if invoke is None:
                raise HistoryError(f"op {h.get('op')} has a response but no invocation")
            raise HistoryError(f"op {h['op']} has invoke step {invoke!r}, not an integer")
        if response is not None:
            if type(response) is not int:
                raise HistoryError(f"op {h['op']} has response step {response!r}, not an integer")
            if response <= invoke:
                raise HistoryError(f"op {h['op']} responds at or before its invocation")
            if value is None and h["kind"] == "read":
                raise HistoryError(f"completed read {h['op']} has no value")
        if value is not None and not (isinstance(value, (list, tuple)) and value and type(value[0]) is int):
            raise HistoryError(f"op {h['op']} has value {value!r}, not [sn, payload] with an integer sn")


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
    precedes it.

    The writes are sorted by invocation, with the least response of each
    suffix (a pending write's counts as +inf), so whether some write
    precedes a read, or fits strictly between a write and a read, is one
    bisect.  O((R+W) log(R+W)) for R reads and W writes; each violation
    found adds one pass over the writes to name the first offending
    write in history order.  The output is identical to the pairwise
    definition."""
    _validate(history)
    writes = _writes(history)
    by_sn: dict[int, dict] = {}
    for w in writes:
        sn = w["value"][0] if w["value"] is not None else None
        if sn is not None:
            if sn in by_sn:
                raise HistoryError(f"two writes carry sequence number {sn}")
            by_sn[sn] = w
    by_invoke = sorted(writes, key=lambda w: w["invoke"])
    invokes = [w["invoke"] for w in by_invoke]
    responses = (inf if w["response"] is None else w["response"] for w in reversed(by_invoke))
    suffix_min = list(accumulate(responses, min, initial=inf))[::-1]

    violations = []
    for r in _completed_reads(history):
        sn = r["value"][0]
        if sn == 0:
            if suffix_min[0] < r["invoke"]:
                prior = next(w for w in writes if _precedes(w, r))
                violations.append(
                    Violation(
                        "P1",
                        (prior["op"], r["op"]),
                        f"read {r['op']} returned the initial value although "
                        f"write {prior['op']} precedes it",
                    )
                )
            continue
        w = by_sn.get(sn)
        if w is None:
            violations.append(
                Violation("P1", (r["op"],), f"read {r['op']} returned a value never written (sn={sn})")
            )
        elif _precedes(w, r):
            # Immediate unless some write invoked after w responds before r.
            if suffix_min[bisect_right(invokes, w["response"])] < r["invoke"]:
                mid = next(w2 for w2 in writes if _precedes(w, w2) and _precedes(w2, r))
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
    another, the later read returns a value at least as fresh.

    The completed reads are sorted by response, with the greatest
    sequence number of each prefix: the reads that precede r2 are the
    prefix found by one bisect on r2's invocation, and none of them
    returned a fresher value unless that prefix's maximum says so.
    O(R log R) for R completed reads; each read that is the later read
    of a violation adds one pass over the reads that precede it.  The
    output is identical to the pairwise definition."""
    _validate(history)
    reads = _completed_reads(history)
    sns = [r["value"][0] for r in reads]
    by_response = sorted(range(len(reads)), key=lambda i: reads[i]["response"])
    responses = [reads[i]["response"] for i in by_response]
    prefix_max = list(accumulate((sns[i] for i in by_response), max))
    pairs = []
    for j, r2 in enumerate(reads):
        k = bisect_left(responses, r2["invoke"])
        if k and prefix_max[k - 1] > sns[j]:
            pairs.extend((i, j) for i in by_response[:k] if sns[i] > sns[j])
    pairs.sort()
    return Verdict.from_violations(
        Violation(
            "P2",
            (reads[i]["op"], reads[j]["op"]),
            f"read {reads[i]['op']} returned sn={sns[i]} but the later read {reads[j]['op']} returned sn={sns[j]}",
        )
        for i, j in pairs
    )


def check_monotonicity(trace) -> Verdict:
    """Per register, successive written sequence numbers never decrease."""
    last: dict[tuple, int] = {}
    violations = []
    for step, _, reg, sn in register_writes(trace):
        prev = last.get(reg)
        if prev is not None and sn < prev:
            violations.append(
                Violation(
                    "MONO",
                    (),
                    f"register R_{reg[0]}[p{reg[1]}] went from sn={prev} to sn={sn} at step {step}",
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
