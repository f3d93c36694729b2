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
R reads and W writes.  Naming the operations of a violation costs
Property 1 a further pass over the writes, and Property 2 O(log R) per
pair listed.  Their output is identical to the pairwise definitions
(kept as the test oracle in tests/checker_oracle.py): the same
violations, in the same order, with the same messages.

`check_all` takes a trace only: a run's view (`Simulator.trace`), a
list or any iterable of events, such as a file's.  It reads it once,
through `trace.project`, which builds the history, the monotonicity
result and the crashed set together, from a view's records with no
event rendered, so a trace file is checked as it is read and rejected
at its first malformed line or event.  A history handed to the checks
is held to `trace.check_record`, which `project` applies as it reads a
trace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappush
from itertools import accumulate
from math import inf
from typing import NamedTuple

from .protocol import INITIAL_VALUE
from .trace import HistoryError, _Validated, check_record, project


class Violation(NamedTuple):
    prop: str
    ops: tuple
    reason: str


@dataclass(frozen=True)
class Verdict:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dicts(self) -> list[dict]:
        """The violations as JSON-ready {"prop", "ops", "reason"} records."""
        return [{"prop": v.prop, "ops": list(v.ops), "reason": v.reason} for v in self.violations]


def _validate(history) -> _Validated:
    """history, held to `check_record` unless marked checked, so marked."""
    if type(history) is _Validated:
        return history
    for i, h in enumerate(history):
        check_record(h, i)
    return _Validated(history)


def _precedes(a: dict, b: dict) -> bool:
    return a["response"] is not None and a["response"] < b["invoke"]


def _writes(history):
    return [h for h in history if h["kind"] == "write"]


def _completed_reads(history):
    return [h for h in history if h["kind"] == "read" and h["response"] is not None]


_INITIAL = list(INITIAL_VALUE)


def _same_value(returned, written) -> bool:
    """Whether a read that returned `returned` returned `written`: the
    two are equal as lists, or one of them is a bare [sn] and the sns
    are equal."""
    if returned == written:
        return True
    if len(returned) == 1 or len(written) == 1:
        return returned[0] == written[0]
    return list(returned) == list(written)


def _never_written(r: dict) -> Violation:
    """The violation of a read whose sn was written, or is the initial
    value's, with another payload."""
    sn, *payload = r["value"]
    return Violation(
        "P1", (r["op"],), f"read {r['op']} returned a value never written (sn={sn}, payload={', '.join(map(repr, payload))})"
    )


def check_property1(history) -> Verdict:
    """Every completed read returns the immediately preceding or a
    concurrent write's value, or the initial value when no write
    precedes it.  A value is the whole [sn, payload]: a read whose sn
    was written, or is 0, with another payload returned a value never
    written; a bare [sn] stands for any value with that sn.

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
        value = r["value"]
        sn = value[0]
        if sn == 0:
            if not _same_value(value, _INITIAL):
                violations.append(_never_written(r))
            elif suffix_min[0] < r["invoke"]:
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
        elif not _same_value(value, w["value"]):
            violations.append(_never_written(r))
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
        elif _precedes(r, w):
            violations.append(
                Violation(
                    "P1",
                    (w["op"], r["op"]),
                    f"read {r['op']} returned sn={sn}, written only after the read completed",
                )
            )
    return Verdict(tuple(violations))


def check_property2(history) -> Verdict:
    """Reads respect the order of written values: if one read precedes
    another, the later read returns a value at least as fresh.

    The completed reads are sorted by response, with the greatest
    sequence number of each prefix: the reads that precede r2 are the
    prefix found by one bisect on r2's invocation, and none of them
    returned a fresher value unless that prefix's maximum says so.
    O(R log R) for R completed reads, and O(log R) more per violation:
    the earlier reads of a violation are listed from a max-heap of the
    reads that precede the later one, without visiting the others.  The
    output is identical to the pairwise definition."""
    _validate(history)
    reads = _completed_reads(history)
    sns = [r["value"][0] for r in reads]
    by_response = sorted(range(len(reads)), key=lambda i: reads[i]["response"])
    responses = [reads[i]["response"] for i in by_response]
    prefix_max = list(accumulate((sns[i] for i in by_response), max))
    later = []  # (k, j): read j is the later read of a violation, k reads precede it
    for j, r2 in enumerate(reads):
        k = bisect_left(responses, r2["invoke"])
        if k and prefix_max[k - 1] > sns[j]:
            later.append((k, j))
    # Sweep by k, with the first k reads in response order in a max-heap
    # of (-sn, i).  Below an entry whose sn is not greater than sns[j]
    # none is, so the walk from the root visits the pairs and their
    # children only.
    later.sort()
    heap: list[tuple] = []
    pairs = []
    for k, j in later:
        for i in by_response[len(heap) : k]:
            heappush(heap, (-sns[i], i))
        bound = -sns[j]
        stack = [0]  # the root holds the greatest sn, which exceeds sns[j]
        while stack:
            e = stack.pop()
            pairs.append((heap[e][1], j))
            for c in (2 * e + 1, 2 * e + 2):
                if c < len(heap) and heap[c][0] < bound:
                    stack.append(c)
    pairs.sort()
    return Verdict(
        tuple(
            Violation(
                "P2",
                (reads[i]["op"], reads[j]["op"]),
                f"read {reads[i]['op']} returned sn={sns[i]} but the later read {reads[j]['op']} returned sn={sns[j]}",
            )
            for i, j in pairs
        )
    )


def _monotonicity(decreases) -> Verdict:
    return Verdict(
        tuple(
            Violation("MONO", (), f"register R_{reg[0]}[p{reg[1]}] went from sn={prev} to sn={sn} at step {step}")
            for step, reg, prev, sn in decreases
        )
    )


def check_monotonicity(trace) -> Verdict:
    """Per register, successive written sequence numbers never decrease."""
    return _monotonicity(project(trace).mono)


def _check_tolerance(t) -> None:
    if t is not None and type(t) is not int:  # bool is an int subclass
        raise HistoryError(f"t={t!r} is not an integer")
    if t is not None and t < 0:
        raise HistoryError(f"t={t} is negative: a crash budget must be >= 0")


def check_completion(history, crashed, t: int | None = None) -> Verdict:
    """With at most t crashes, every operation of a surviving process
    responds; pending operations of crashed processes are exempt."""
    _check_tolerance(t)
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
    return Verdict(tuple(violations))


PROPERTIES = ("1", "2", "mono", "live")


def check_all(trace, history=None, crashed=None, t: int | None = None, props=PROPERTIES) -> Verdict:
    """The selected properties over one run: "1" and "2" are Property 1
    and Property 2, "mono" register monotonicity, and "live" completion.
    The trace is read once, through `project`; a `history` or `crashed`
    given here is used in place of the trace's.  Errors come in a fixed
    order, whatever the selection: a malformed selection's or t's, then
    the first malformed line or event's, then a given history's
    HistoryError, then each property's as above."""
    if isinstance(props, str):
        raise HistoryError(f"properties {props!r} is a string, not a sequence of names from {','.join(PROPERTIES)}")
    try:
        chosen = set(props)
    except TypeError:  # not iterable, or holds an unhashable name
        chosen = None
    if not chosen or not chosen <= set(PROPERTIES):
        raise HistoryError(f"properties {props!r} not a selection from {','.join(PROPERTIES)}")
    _check_tolerance(t)
    projection = project(trace)
    history = projection.history if history is None else _validate(history)
    violations: list[Violation] = []
    if "1" in chosen:
        violations += check_property1(history).violations
    if "2" in chosen:
        violations += check_property2(history).violations
    if "mono" in chosen:
        violations += _monotonicity(projection.mono).violations
    if "live" in chosen:
        if crashed is None:
            crashed = projection.crashed
        violations += check_completion(history, crashed, t).violations
    return Verdict(tuple(violations))
