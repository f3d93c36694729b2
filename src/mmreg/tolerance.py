"""Exact crash-tolerance thresholds for m&m systems.

The threshold is the largest t such that every pair of (n-t)-sized
process subsets either intersects or is bridged by a common sharing
set.  Two independent routes compute it: a direct check that tries the
subset sizes in turn, testing each subset of a size as the left side of
a failing pair, and a max-min search over every subset on a derived
bridge graph.  The test suite holds them equal on random inputs.

Both rest on one observation: for a left side A, the valid right sides
are exactly the subsets of ``free(A)``, the processes that neither lie
in A nor share a set with it.  So a failing pair with left side A
exists iff ``|free(A)| >= size``, and one pass over the left sides
decides a size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .model import Bag, Graph, graph_square, induce_uniform

# Subset enumeration is fine at desk scale only.
DIRECT_LIMIT = 14
BRIDGE_LIMIT = 20


class ToleranceError(ValueError):
    """Unusable input or exceeded search budget."""


Witness = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ToleranceResult:
    """Computed threshold plus, when one exists, a pair of subsets of
    size n-(t+1) each showing that t+1 crashes break the system."""

    t: int
    witness: Witness | None


def lower_bound_floor(n: int) -> int:
    """Majority-intersection floor: every system tolerates this many crashes."""
    if n < 1:
        raise ToleranceError(f"n must be >= 1, got {n}")
    return (n - 1) // 2


def require_covered(bag: Bag) -> None:
    """Raise ToleranceError unless every process lies in some set."""
    if not bag.covered():
        raise ToleranceError("bag must cover every process; normalize it first")


def reach_masks(n: int, set_masks: list[int]) -> list[int]:
    """For each 0-based process p: bitmask of p itself plus every process
    co-occurring with p in some set."""
    reach = [1 << i for i in range(n)]
    for mask in set_masks:
        m = mask
        while m:
            low = m & -m
            reach[low.bit_length() - 1] |= mask
            m ^= low
    return reach


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


def _scan(n: int, reach: list[int]) -> ToleranceResult:
    # The pair condition is monotone in subset size, so the first size
    # with no failing pair gives the threshold, and the failing pair of
    # the size below is the witness.
    witness = None
    for size in range(1, n + 1):
        pair = smallest_failing_pair(n, reach, size)
        if pair is None:
            t = n - size
            assert t >= lower_bound_floor(n)
            return ToleranceResult(t, witness)
        witness = pair
    raise AssertionError("size n always passes: identical sets intersect")


def t_direct(bag: Bag) -> ToleranceResult:
    """Threshold by subset enumeration: for each size in turn, one pass
    over the left sides looks for a failing pair.  Costs at most
    2^n * n in all."""
    require_covered(bag)
    if bag.n > DIRECT_LIMIT:
        raise ToleranceError(f"n={bag.n} exceeds the exhaustive limit {DIRECT_LIMIT}; use t_bridge")
    return _scan(bag.n, reach_masks(bag.n, bag.masks()))


def t_bridge(bag: Bag) -> ToleranceResult:
    """Threshold via the bridge graph.

    Finds s*, the largest s for which two disjoint size-s sides exist
    with no bridge edge between them (0 when none), and returns
    t = n - s* - 1.  Enumerates one side over all subsets with a DP for
    the side's closed neighbourhood, so the other side is any subset of
    the untouched remainder.
    """
    require_covered(bag)
    n = bag.n
    if n > BRIDGE_LIMIT:
        raise ToleranceError(f"n={n} exceeds the bridge search budget {BRIDGE_LIMIT}")
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


def t_uniform(g: Graph) -> ToleranceResult:
    """Threshold for the uniform system of a graph, using square-graph
    adjacency as the bridging condition.  Equals t_direct on the induced
    bag."""
    if g.n > DIRECT_LIMIT:
        raise ToleranceError(f"n={g.n} exceeds the exhaustive limit {DIRECT_LIMIT}")
    g2 = graph_square(g)
    reach = [0] * g.n
    for p in range(1, g.n + 1):
        mask = 1 << (p - 1)
        for q in g2.neighbors(p):
            mask |= 1 << (q - 1)
        reach[p - 1] = mask
    return _scan(g.n, reach)


def verify_witness(bag: Bag, t: int, witness: Witness) -> bool:
    """Check a claimed witness for t+1: disjoint size-(n-(t+1)) sides
    with no set meeting both.  O(m*n)."""
    left, right = (set(witness[0]), set(witness[1]))
    size = bag.n - (t + 1)
    if len(left) != size or len(right) != size or left & right:
        return False
    for s in bag.sets:
        if s & left and s & right:
            return False
    return True
