"""Exact crash-tolerance thresholds for m&m systems.

The threshold is the largest t such that every pair of (n-t)-sized
process subsets either intersects or is bridged by a common sharing
set.  Two independent routes compute it: a direct check that tries the
subset sizes in turn, testing each subset of a size as the left side of
a failing pair, and a branch-and-bound for the largest pair of equal,
disjoint, unbridged sides, which cuts every left side that bounds on
both sides' sizes show cannot beat the best pair found.  Both are
exponential in n in the worst case, so each has a limit on n.  The test
suite holds them equal on random inputs.

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
# t_bridge's search stays fast past this n; its witness pass
# (smallest_failing_pair) does not, taking up to 0.7 s at n = 24 on
# random bags of n sets of 1 to 4 processes.
BRIDGE_LIMIT = 22


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


def _max_unbridged_side(n: int, reach: list[int]) -> int:
    """s*: the largest min(|A|, |free(A)|) over the left sides A.

    A depth-first branch-and-bound grows A over the processes in
    descending order of reach, carrying the union of their reach, so
    free(A) is everything outside it.  The processes after the last one
    added are undecided.  A branch is cut once no extension of A can
    beat the best value found, by the least of three bounds: |free(A)|,
    since free only shrinks; |A| plus the undecided count, since A only
    grows by them; and half of |A| plus |free(A)| plus the undecided
    processes outside free(A), since one taken from free(A) removes at
    least itself from it.

    Any order gives the same s*.  Largest reach first shrinks free(A)
    fastest, so the first bound cuts early: on random bags at n = 16 to
    24 it took 3 to 140 times less time than smallest reach first.
    """
    order = sorted(range(n), key=lambda p: reach[p].bit_count(), reverse=True)
    rest = [0] * (n + 1)  # rest[j]: the processes order[j:]
    for j in range(n - 1, -1, -1):
        rest[j] = rest[j + 1] | 1 << order[j]
    best = 0

    def grow(i: int, size: int, clo: int) -> None:
        nonlocal best
        f = n - clo.bit_count()  # |free(A)|
        best = max(best, min(size, f))
        if f <= best:
            return
        for j in range(i, n):
            if size + n - j <= best or (size + f + (rest[j] & clo).bit_count()) // 2 <= best:
                return
            grow(j + 1, size + 1, clo | reach[order[j]])

    grow(0, 0, 0)
    return best


def t_bridge(bag: Bag) -> ToleranceResult:
    """Threshold by a branch-and-bound for the largest unbridged pair.

    Finds s*, the largest s for which two disjoint size-s sides exist
    that no sharing set meets both of (0 when none), and returns
    t = n - s* - 1.  A depth-first branch-and-bound over the left side
    finds it, cutting by the free set's size, by the left side's largest
    reachable size and by a bound on how far both can still be balanced
    (see `_max_unbridged_side`); the other side is any subset of the
    left side's free set.  The worst case is still exponential in n, so
    n is capped at BRIDGE_LIMIT.
    """
    require_covered(bag)
    n = bag.n
    if n > BRIDGE_LIMIT:
        raise ToleranceError(f"n={n} exceeds the bridge search budget {BRIDGE_LIMIT}")
    reach = reach_masks(n, bag.masks())
    s_star = _max_unbridged_side(n, reach)
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
    of processes in 1..n, with no set meeting both.  O(m*n).  Anything
    but a pair of tuples or lists is no witness."""
    if not (isinstance(witness, (tuple, list)) and len(witness) == 2 and all(isinstance(side, (tuple, list)) for side in witness)):
        return False
    if any(type(p) is not int or not 1 <= p <= bag.n for p in (*witness[0], *witness[1])):  # bool is an int subclass
        return False
    left, right, size = set(witness[0]), set(witness[1]), bag.n - (t + 1)
    if len(left) != size or len(right) != size or left & right:
        return False
    for s in bag.sets:
        if s & left and s & right:
            return False
    return True
