"""Test-only oracle: Property 1 and Property 2 by their pairwise
definitions, as the checker computed them before it moved to sorted
order queries.  Quadratic; the differential tests in test_checker.py
hold the library's checks to exactly these verdicts."""

from mmreg.checker import HistoryError, Verdict, Violation, _completed_reads, _precedes, _validate, _writes


def _concurrent(a: dict, b: dict) -> bool:
    return not _precedes(a, b) and not _precedes(b, a)


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
    return Verdict(tuple(violations))


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
    return Verdict(tuple(violations))
