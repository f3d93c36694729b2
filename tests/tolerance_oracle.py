"""Test-only oracles: the bridge threshold by a 2^n closure table and a
scan of every subset, as `t_bridge` computed it before it moved to a
branch-and-bound, and its witness by one lexicographic pass over the
left sides, as `smallest_failing_pair` found it before it moved to a
prefix search.  The differential tests in test_tolerance.py hold
`t_bridge` and `smallest_failing_pair` to exactly these results."""

from itertools import combinations

from mmreg.tolerance import ToleranceResult, Witness, reach_masks, require_covered


def smallest_failing_pair(n: int, reach: list[int], size: int) -> Witness | None:
    """Lexicographically smallest pair of size-`size` subsets that neither
    intersect nor are bridged, or None if every pair is fine.

    One pass over the left sides A in lexicographic order: the first A
    whose free set holds `size` processes is the left side, and the
    lowest `size` of them are the smallest right side.  Costs
    C(n, size) * n at most.
    """
    if size < 1 or 2 * size > n:  # disjoint sides need 2 * size <= n
        return None
    full = (1 << n) - 1
    for combo in combinations(range(n), size):
        r = 0
        for i in combo:
            r |= reach[i]
        free = full & ~r
        if free.bit_count() >= size:
            right = []
            for _ in range(size):
                low = free & -free
                right.append(low.bit_length())
                free ^= low
            return (tuple(i + 1 for i in combo), tuple(right))
    return None


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
