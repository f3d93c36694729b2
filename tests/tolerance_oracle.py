"""Test-only oracle: the bridge threshold by a 2^n closure table and a
scan of every subset, as `t_bridge` computed it before it moved to a
branch-and-bound.  The differential tests in test_tolerance.py hold
`t_bridge` to exactly these results."""

from mmreg.tolerance import ToleranceResult, reach_masks, require_covered, smallest_failing_pair


def t_bridge(bag) -> ToleranceResult:
    """Threshold via the bridge graph.

    Finds s*, the largest s for which two disjoint size-s sides exist
    with no bridge edge between them (0 when none), and returns
    t = n - s* - 1.  Enumerates one side over all subsets with a DP for
    the side's closed neighbourhood, so the other side is any subset of
    the untouched remainder.
    """
    require_covered(bag)
    n = bag.n
    reach = reach_masks(n, bag.masks())
    closure = [0] * (1 << n)  # subset -> subset plus all its bridge neighbours
    for mask in range(1, 1 << n):
        low = mask & -mask
        closure[mask] = closure[mask ^ low] | reach[low.bit_length() - 1]
    s_star = 0
    for mask in range(1, 1 << n):
        free = n - closure[mask].bit_count()
        best = min(mask.bit_count(), free)
        if best > s_star:
            s_star = best
    t = n - s_star - 1
    witness = smallest_failing_pair(n, reach, s_star) if s_star >= 1 else None
    return ToleranceResult(t, witness)
