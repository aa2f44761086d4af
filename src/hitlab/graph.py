"""Immutable bitset graphs, vertex sets, generators, and pattern detection.

Vertices are dense ids 0..n-1.  Adjacency is one Python int per vertex
(bit j of adj[v] set iff v~j), which keeps set algebra over vertices to
single integer operations.  Graph and VertexSet never mutate after
construction and are safe to share across concurrent workers; generators
are single-threaded and deterministic per seed.

Record is the base of the package's immutable value types.  Its methods
are plain functions over the fields in __slots__, so creating a record
class compiles no code and importing hitlab loads neither inspect nor ast.
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .errors import PreconditionError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Record:
    """An immutable value whose fields are its class's __slots__.

    Built by position or keyword, then `_check`ed; hashed like the tuple
    of its fields, and equal only to a record of its own class with equal
    fields.  `__reduce__` rebuilds through the constructor, so pickle and
    copy work although fields can be neither assigned nor deleted.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls.__slots__))  # a tuple: each record has 2+ fields

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs) if args else kwargs
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once, "
                            f"got {len(args)} by position and {sorted(kwargs)} by keyword")
        setter = object.__setattr__
        for name, value in values.items():
            setter(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise unless the fields make a valid record; may normalise them."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._values))})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the named fields changed, checked again."""
    return type(record)(**dict(zip(record.__slots__, record._values), **changes))


class VertexSet(Record):
    """A subset of the vertices 0..n-1 of some host graph.

    `bits` is the membership mask; `size` is its popcount.  Instances are
    value objects: immutable, hashable, and comparable by (n, bits).
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)
        self._check()

    def _check(self):
        if self.n < 0:
            raise ValueError(f"negative host size {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"vertex id out of range 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in ids:
            bits |= 1 << v
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def _check_host(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(f"host mismatch: n={self.n} vs n={other.n}")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.n, self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.n, self.bits & other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.n, self.bits & ~other.bits)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.bits & ((1 << self.n) - 1))

    def isdisjoint(self, other: "VertexSet") -> bool:
        return self.bits & other.bits == 0

    def issubset(self, other: "VertexSet") -> bool:
        return self.bits & ~other.bits == 0


class InducedEmbedding(Record):
    """Witness of an induced K_{s,t}: vertex-id tuples side_a of size s, side_b of size t.

    Sides are disjoint, every cross pair is an edge, and no within-side
    pair is an edge.
    """

    __slots__ = ("side_a", "side_b")

    def check(self, g: "Graph") -> bool:
        """True iff this embedding really is an induced K_{s,t} in g."""
        a, b = self.side_a, self.side_b
        if set(a) & set(b):
            return False
        for side in (a, b):
            for u, v in combinations(side, 2):
                if g.has_edge(u, v):
                    return False
        return all(g.has_edge(u, v) for u in a for v in b)


class Graph:
    """Immutable simple undirected graph over vertex ids 0..n-1."""

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # adj rows are trusted here; use from_edges for validated input
        self.n = n
        self.adj = adj
        self.m = sum(row.bit_count() for row in adj) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, collapsing duplicate edges; self-loops are errors."""
        if n < 0:
            raise PreconditionError(f"negative vertex count {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, lexicographic."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in iter_bits(rest):
                out.append((u, u + 1 + off))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def check_invariants(self) -> None:
        """Raise AssertionError unless symmetry, irreflexivity, m all hold."""
        assert len(self.adj) == self.n
        total = 0
        for v, row in enumerate(self.adj):
            assert row >> self.n == 0, f"row {v} addresses vertices >= n"
            assert (row >> v) & 1 == 0, f"self-loop at {v}"
            total += row.bit_count()
            for u in iter_bits(row):
                assert (self.adj[u] >> v) & 1, f"asymmetric pair ({v},{u})"
        assert total == 2 * self.m, "edge count out of sync with rows"


# ---------------------------------------------------------------------------
# deterministic generators

MAX_VERTICES = 10**6  # no generator or reader allocates rows for more
MAX_PAIRS = 10**6  # gen_c4_free_process shuffles the list of all C(n, 2) pairs


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise PreconditionError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise PreconditionError(f"vertex count {n} above the ceiling {MAX_VERTICES}")


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); each unordered pair kept with probability p."""
    _check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def gen_cluster(sizes: list[int]) -> Graph:
    """Disjoint union of cliques, vertices numbered consecutively per clique."""
    if not sizes:
        raise PreconditionError("cluster graph needs at least one clique")
    if any(q < 1 for q in sizes):
        raise PreconditionError(f"clique sizes must be >= 1, got {sizes}")
    n = sum(sizes)
    _check_vertex_count(n)
    rows = [0] * n
    base = 0
    for q in sizes:
        block = ((1 << q) - 1) << base
        for v in range(base, base + q):
            rows[v] = block & ~(1 << v)
        base += q
    return Graph(n, tuple(rows))


def gen_path(n: int) -> Graph:
    _check_vertex_count(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError(f"cycle needs n >= 3, got {n}")
    _check_vertex_count(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_c4_free_process(n: int, target_m: int, seed: int) -> Graph:
    """Random edge-addition process that never completes a 4-cycle subgraph.

    The result is C4-subgraph-free, hence induced-C4-free.  May saturate
    below target_m; the returned graph's m records what was achieved.

    two[x] holds the vertices other than x that share a neighbour with x.
    Adding uv closes a 4-cycle iff some neighbour of v is in two[u], one
    AND; u and v are not adjacent yet, so neither is in the other's rows.
    """
    _check_vertex_count(n)
    if target_m < 0:
        raise PreconditionError(f"negative target edge count {target_m}")
    pair_count = n * (n - 1) // 2
    if target_m > pair_count:
        raise PreconditionError(f"target_m {target_m} exceeds C({n},2)")
    if pair_count > MAX_PAIRS:
        raise PreconditionError(f"C({n},2) = {pair_count} pairs above the ceiling {MAX_PAIRS}")
    if target_m == 0:
        return Graph(n, (0,) * n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    random.Random(seed).shuffle(pairs)
    rows = [0] * n
    two = [0] * n
    added = 0
    for u, v in pairs:
        if rows[v] & two[u]:
            continue
        ru, rv = rows[u], rows[v]
        # through v, u now shares a neighbour with each vertex of N(v);
        # through u, v with each vertex of N(u)
        two[u] |= rv
        for b in iter_bits(rv):
            two[b] |= 1 << u
        two[v] |= ru
        for b in iter_bits(ru):
            two[b] |= 1 << v
        rows[u] = ru | 1 << v
        rows[v] = rv | 1 << u
        added += 1
        if added == target_m:
            break
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# structural operations


def complement(g: Graph) -> Graph:
    """Edge-complement on the same vertex set; an involution."""
    full = (1 << g.n) - 1
    rows = tuple((~g.adj[v] & full) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, rows)


def min_degree_vertex(g: Graph) -> tuple[int, int]:
    """Vertex of minimum degree, smallest id on ties."""
    if g.n < 1:
        raise PreconditionError("empty graph has no vertices")
    best_v, best_d = 0, g.adj[0].bit_count()
    for v in range(1, g.n):
        d = g.adj[v].bit_count()
        if d < best_d:
            best_v, best_d = v, d
    return best_v, best_d


def find_induced_kst(g: Graph, s: int, t: int) -> Optional[InducedEmbedding]:
    """Search for an induced K_{s,t}; None when the graph is free of it.

    Independent A-sides grow in lexicographic order (the minimal witness
    first) from an explicit stack; a side whose common neighbourhood has
    fewer than t vertices is dropped, as no extension regains them.  The
    B-side is the first set of the canonical walk `mis._independent_sets`,
    so no pool meets the recursion limit.  Exponential in s+t.
    """
    from .mis import _independent_sets  # mis imports this module

    if not 1 <= s <= t:
        raise PreconditionError(f"need 1 <= s <= t, got s={s}, t={t}")
    adj, full = g.adj, (1 << g.n) - 1
    stack = [((), full, full)]
    while stack:
        side, cand, common = stack.pop()
        children = []
        for u in iter_bits(cand):
            shared = common & adj[u]
            if shared.bit_count() < t:
                continue
            if len(side) + 1 < s:
                children.append((side + (u,), cand & ~adj[u] & ~((2 << u) - 1), shared))
            elif b_mask := next(_independent_sets(adj, shared, t), 0):
                return InducedEmbedding(side + (u,), tuple(iter_bits(b_mask)))
        stack.extend(reversed(children))
    return None
