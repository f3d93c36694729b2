"""Topology of message-and-memory (m&m) systems.

An m&m system couples ordinary message passing over n processes with
pools of shared single-writer registers.  Which processes share which
pool is given by a bag of process subsets; a uniform system derives the
bag from an undirected connection graph, giving each process a pool
shared with its closed neighbourhood.

Process ids are dense 1-based integers.  All types here are immutable
value types and safe to share across concurrent simulations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


class ModelError(ValueError):
    """Malformed bag, graph, or system spec."""


def _check_count(n) -> None:
    if type(n) is not int:  # bool is an int subclass
        raise ModelError(f"process count must be an integer, got {n!r}")
    if n < 1:
        raise ModelError(f"process count must be >= 1, got {n}")


@dataclass(frozen=True)
class Bag:
    """A bag of non-empty subsets of the process set {1..n}.

    Duplicates and set order are kept: register identities depend on the
    position of a set in the bag, so order is fixed at construction.
    """

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        _check_count(self.n)
        n = self.n
        try:
            sets = iter(self.sets)
        except TypeError:
            raise ModelError(f"sets {self.sets!r} are not a collection of process sets") from None
        for idx, s in enumerate(sets, start=1):
            if not isinstance(s, frozenset):  # a Bag is a value type, so it must hash
                raise ModelError(f"set S_{idx} is {s!r}, not a frozenset of process ids")
            if not s:
                raise ModelError(f"set S_{idx} is empty")
            bad = [p for p in s if type(p) is not int or not 1 <= p <= n]
            if bad:
                odd = sorted((p for p in bad if type(p) is not int), key=repr)
                if odd:
                    raise ModelError(f"set S_{idx} mentions non-integer processes: {odd}")
                raise ModelError(f"set S_{idx} mentions processes outside 1..{n}: {sorted(bad)}")
        if not isinstance(self.sets, tuple):  # after the sets, so a bad set names itself
            raise ModelError(f"sets must be a tuple of frozensets, not a {type(self.sets).__name__}")

    def covered(self) -> bool:
        """True iff every process appears in at least one set."""
        seen: set[int] = set()
        for s in self.sets:
            seen |= s
        return len(seen) == self.n

    def masks(self) -> list[int]:
        """Each set as a bitmask over 0-based process indices."""
        return [sum(1 << (p - 1) for p in s) for s in self.sets]


def bag_of(n: int, *sets) -> Bag:
    """Convenience constructor from iterables of process ids."""
    frozen = []
    for idx, s in enumerate(sets, start=1):
        try:
            frozen.append(frozenset(s))
        except TypeError:  # not iterable, or holds an unhashable member
            raise ModelError(f"set S_{idx} is {s!r}, not a collection of process ids") from None
    return Bag(n, tuple(frozen))


def normalize_bag(bag: Bag) -> Bag:
    """Extend the bag so every process appears in at least one set.

    Appends a singleton {p} for each uncovered process p, in process
    index order; existing sets are untouched, so spec files round-trip.
    Idempotent.
    """
    seen: set[int] = set()
    for s in bag.sets:
        seen |= s
    extra = tuple(frozenset({p}) for p in range(1, bag.n + 1) if p not in seen)
    if not extra:
        return bag
    return Bag(bag.n, bag.sets + extra)


def _endpoints(edge) -> tuple[int, int]:
    """An edge's two endpoints, each an int; else ModelError."""
    try:
        u, v = edge
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ModelError(f"edge {edge!r} is not a pair of endpoints") from None
    if type(u) is not int or type(v) is not int:  # bool is an int subclass
        raise ModelError(f"edge ({u!r},{v!r}) has an endpoint that is not an integer")
    return u, v


@dataclass(frozen=True)
class Graph:
    """Undirected graph over processes; edges stored as (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        _check_count(self.n)
        try:
            edges = iter(self.edges)
        except TypeError:
            raise ModelError(f"edges {self.edges!r} are not a collection of pairs") from None
        for edge in edges:
            u, v = _endpoints(edge)
            if not isinstance(edge, tuple):  # a frozenset {u, v} never equals the (u, v) that from_edges stores
                raise ModelError(f"edge {edge!r} is a {type(edge).__name__}, not a (u, v) tuple")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ModelError(f"edge ({u},{v}) outside 1..{self.n}")
            if u >= v:
                raise ModelError(f"edge ({u},{v}) must be ordered u < v (no self-loops)")
        if not isinstance(self.edges, frozenset):  # after the edges, so a bad edge names itself
            raise ModelError(f"edges must be a frozenset of pairs, not a {type(self.edges).__name__}")

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        try:
            edges = iter(pairs)
        except TypeError:
            raise ModelError(f"edges {pairs!r} are not a collection of pairs") from None
        canon = set()
        for edge in edges:
            u, v = _endpoints(edge)
            if u == v:
                raise ModelError(f"self-loop at p{u}")
            canon.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(canon))

    def neighbors(self, p: int) -> frozenset[int]:
        return frozenset(v if u == p else u for u, v in self.edges if p in (u, v))


def induce_uniform(g: Graph) -> Bag:
    """The bag with one set per process: its neighbours plus itself.

    The result always covers every process, since each set contains its
    own process.
    """
    return Bag(g.n, tuple(g.neighbors(p) | {p} for p in range(1, g.n + 1)))


def graph_square(g: Graph) -> Graph:
    """G plus an edge between every pair of nodes at distance two."""
    adj = {p: g.neighbors(p) for p in range(1, g.n + 1)}
    edges = set(g.edges)
    for k in range(1, g.n + 1):
        around = sorted(adj[k])
        for i, u in enumerate(around):
            for v in around[i + 1:]:
                edges.add((u, v))
    return Graph(g.n, frozenset(edges))


# A register identity: (set index i, owner p) with p a member of S_i.
RegisterId = tuple[int, int]


@dataclass(frozen=True)
class SystemSpec:
    """An m&m system: a covered bag and the designated writer.

    Set S_i holds a register R_i[p] for each member p, written only by p
    and read exactly by the members of S_i.  `readers` is the one
    statement of that rule; the register lists below are views of it.
    Use :func:`make_spec` to normalize the bag automatically.
    """

    bag: Bag
    writer: int

    def __post_init__(self):
        if type(self.writer) is not int:
            raise ModelError(f"writer {self.writer!r} is not an integer")
        if not (1 <= self.writer <= self.bag.n):
            raise ModelError(f"writer p{self.writer} outside 1..{self.bag.n}")
        if not self.bag.covered():
            raise ModelError("bag leaves some process without a register; normalize first")

    @property
    def n(self) -> int:
        return self.bag.n

    @cached_property
    def readers(self) -> dict[RegisterId, tuple[int, ...]]:
        """Each register R_i[p], ascending by (i, p), to the processes
        that may read it: the members of S_i, ascending.  Only p writes it."""
        out = {}
        for i, s in enumerate(self.bag.sets, start=1):
            members = tuple(sorted(s))
            for p in members:
                out[(i, p)] = members
        return out

    @cached_property
    def registers(self) -> tuple[RegisterId, ...]:
        return tuple(self.readers)

    @cached_property
    def _register_lists(self) -> dict[int, tuple[tuple[RegisterId, ...], tuple[RegisterId, ...]]]:
        """Each process to the registers it owns and the registers it may
        read, each in `readers` order; built in one pass, on first use."""
        owns: dict[int, list] = {p: [] for p in range(1, self.n + 1)}
        reads: dict[int, list] = {p: [] for p in range(1, self.n + 1)}
        for reg, members in self.readers.items():
            owns[reg[1]].append(reg)
            for p in members:
                reads[p].append(reg)
        return {p: (tuple(owns[p]), tuple(reads[p])) for p in owns}

    def writable_registers(self, p: int) -> tuple[RegisterId, ...]:
        """Registers p owns, ascending by set index; () for p outside 1..n."""
        return self._register_lists.get(p, ((), ()))[0]

    def readable_registers(self, p: int) -> tuple[RegisterId, ...]:
        """Registers p may read, ascending by (set index, owner); () for p
        outside 1..n."""
        return self._register_lists.get(p, ((), ()))[1]


def make_spec(bag: Bag | None = None, graph: Graph | None = None, writer: int = 1) -> SystemSpec:
    """Build a SystemSpec from a bag or a graph, normalizing the bag."""
    if (bag is None) == (graph is None):
        raise ModelError("exactly one of bag/graph must be given")
    if graph is not None:
        bag = induce_uniform(graph)
    return SystemSpec(normalize_bag(bag), writer)


def _int_lists(d: dict, key: str) -> list[list[int]]:
    """Field `key` of a spec file, which must be a list of lists of integers."""
    value = d[key]
    if not isinstance(value, list) or not all(
        isinstance(item, list) and all(type(v) is int for v in item) for item in value
    ):
        raise ModelError(f'spec field "{key}" must be a list of lists of integers')
    return value


def spec_from_dict(d: dict) -> SystemSpec:
    """The spec a spec file describes; ModelError for any malformed field."""
    if not isinstance(d, dict):
        raise ModelError("spec file must be a JSON object")
    if "bag" in d and "edges" in d:
        raise ModelError('spec file must contain exactly one of "bag"/"edges"')
    for key in ("n", "writer"):
        if type(d.get(key)) is not int:  # bool is an int subclass
            raise ModelError(f'spec field "{key}" must be an integer, got {d.get(key)!r}')
    n, writer = d["n"], d["writer"]
    if "bag" in d:
        return make_spec(bag=bag_of(n, *_int_lists(d, "bag")), writer=writer)
    if "edges" in d:
        edges = _int_lists(d, "edges")
        if any(len(e) != 2 for e in edges):
            raise ModelError('spec field "edges" must be a list of [u, v] pairs of integers')
        return make_spec(graph=Graph.from_edges(n, edges), writer=writer)
    raise ModelError('spec file needs a "bag" or "edges" field')


def load_spec(path) -> SystemSpec:
    with open(Path(path), encoding="utf-8") as f:
        return spec_from_dict(json.load(f))

