"""Exact maximum-independent-set machinery.

alpha_with_witness is a bitmask branch-and-bound optimizer and the one
hitting-set oracle: t meets every maximum independent set iff
alpha(G - t) < alpha(G), which first_missed and kernel test at any n.
enumerate_mis lists the whole family (for the minimum hitting set and the
sampling union bound) below a cap.  Determinism matters more than speed:
branching order is fixed and sets are ordered by their sorted members.

Both searches are cheap per node, not smaller: the greedy incumbent keeps
pool degrees in buckets, and the clique-cover bound is built one clique
at a time and stops once it can no longer prune.  They pick and count
exactly what a full degree rescan and a first-fit cover would, so the
search tree, alpha and the witness are the same by design (the test
suite keeps those plain versions as references).  enumerate_mis cuts
with the same cover; a cut subtree holds no maximum set, so the family
and its order do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import EnumerationCapError, PreconditionError
from .graph import Graph, VertexSet, iter_bits

ENUM_CAP_DEFAULT = 48


@dataclass(frozen=True)
class MisFamily:
    """All maximum independent sets of one host graph.

    `sets` is canonically ordered: lexicographic by the sorted member
    list of each set (the order a lowest-id-first DFS emits).
    """

    host_n: int
    alpha: int
    sets: tuple[VertexSet, ...]

    @property
    def count(self) -> int:
        return len(self.sets)

    def all_hit(self, t: VertexSet) -> bool:
        return all(s.bits & t.bits for s in self.sets)


def _greedy_mis(adj, pool: int) -> int:
    """Min-degree-first greedy independent set; the initial incumbent.

    Takes the vertex of least pool degree, smallest id on ties.  Pool
    degrees sit in buckets (bitmask per degree) and only the pool
    neighbours of the vertices a pick removes are rebucketed, so the
    work is bounded by the edges inside the pool, not |pool|^2.
    """
    deg = [0] * len(adj)
    buckets = [0] * pool.bit_count()
    m = pool
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        d = (adj[v] & pool).bit_count()
        deg[v] = d
        buckets[d] |= low
    acc, lo = 0, 0
    while pool:
        while not buckets[lo]:
            lo += 1
        low = buckets[lo] & -buckets[lo]
        v = low.bit_length() - 1
        acc |= low
        removed = (adj[v] & pool) | low
        pool ^= removed
        touched = 0
        m = removed
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            buckets[deg[x]] ^= low
            touched |= adj[x]
        m = touched & pool
        while m:
            low = m & -m
            y = low.bit_length() - 1
            m ^= low
            d = (adj[y] & pool).bit_count()
            buckets[deg[y]] ^= low
            buckets[d] |= low
            deg[y] = d
            if d < lo:
                lo = d
    return acc


def _clique_cover_bound(adj, pool: int, limit: int) -> int:
    """Size of the first-fit clique cover of the pool in id order, an
    upper bound on alpha(pool); counting stops at limit + 1.

    Each clique is built whole: its lowest free vertex, then the lowest
    remaining common neighbour, and so on.  That is exactly the clique
    first fit would fill, so callers see the same count for any
    `count <= limit` decision.
    """
    count = 0
    while pool and count <= limit:
        low = pool & -pool
        clique = low
        u = adj[low.bit_length() - 1] & pool
        while u:
            w = u & -u
            clique |= w
            u &= adj[w.bit_length() - 1]
        pool ^= clique
        count += 1
    return count


def _max_independent(adj, pool: int) -> tuple[int, int]:
    """(size, bits) of a maximum independent set inside the pool.

    Branch and bound over bit rows: greedy incumbent, popcount and
    clique-cover pruning, forced inclusion of pool vertices with pool
    degree at most 1, branching on the highest-degree pool vertex
    (smallest id on ties).  Fully deterministic.
    """
    best_bits = _greedy_mis(adj, pool)
    state = [best_bits.bit_count(), best_bits]

    def rec(pool: int, acc_bits: int, acc_size: int) -> None:
        # forced inclusions and the exclude branch loop, so the depth is
        # the number of open include branches, not of vertices taken
        while True:
            if acc_size + pool.bit_count() <= state[0]:
                return
            if pool == 0:
                state[0], state[1] = acc_size, acc_bits
                return
            v_branch, d_branch = -1, -1
            m = pool
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                pd = (adj[v] & pool).bit_count()
                if pd <= 1:
                    break
                if pd > d_branch:
                    v_branch, d_branch = v, pd
            if pd <= 1:
                # v plus a non-neighbor of its at most one pool neighbor
                # is never worse than skipping v
                pool = (pool & ~adj[v]) ^ low
                acc_bits |= low
                acc_size += 1
                continue
            room = state[0] - acc_size
            if _clique_cover_bound(adj, pool, room) <= room:
                return
            bit = 1 << v_branch
            rec(pool & ~adj[v_branch] & ~bit, acc_bits | bit, acc_size + 1)
            pool ^= bit

    rec(pool, 0, 0)
    return state[0], state[1]


def alpha_with_witness(g: Graph) -> tuple[int, VertexSet]:
    """Independence number of g and one maximum independent set."""
    if g.n < 1:
        raise PreconditionError("empty graph has no independence number")
    size, bits = _max_independent(g.adj, (1 << g.n) - 1)
    return size, VertexSet(g.n, bits)


def first_missed(g: Graph, t: VertexSet) -> Optional[VertexSet]:
    """First maximum independent set disjoint from t in canonical order,
    or None iff alpha(G - t) < alpha(G).  Rebuilt smallest id first: v
    joins iff the pool left after taking it holds the remaining size."""
    alpha, _ = alpha_with_witness(g)
    adj = g.adj
    pool = ((1 << g.n) - 1) & ~t.bits
    if _max_independent(adj, pool)[0] < alpha:
        return None
    acc, need = 0, alpha
    while need:
        low = pool & -pool
        v = low.bit_length() - 1
        rest = pool & ~adj[v] & ~low
        if _max_independent(adj, rest)[0] == need - 1:
            acc |= low
            need -= 1
            pool = rest
        else:
            pool ^= low
    return VertexSet(g.n, acc)


def enumerate_mis(g: Graph, cap: int = ENUM_CAP_DEFAULT) -> MisFamily:
    """Complete family of maximum independent sets.

    Pins alpha first, then DFS over ascending vertex ids emitting exactly
    the independent sets of that size, leaving a subtree once a clique
    cover of its pool is smaller than the members still needed; refuses
    graphs above `cap` to keep accidental exponential blowups loud.
    """
    if g.n > cap:
        raise EnumerationCapError(f"n={g.n} exceeds enumeration cap {cap}")
    alpha, _ = alpha_with_witness(g)
    adj = g.adj
    out: list[int] = []

    def rec(pool: int, acc_bits: int, acc_size: int) -> None:
        if acc_size == alpha:
            out.append(acc_bits)
            return
        need = alpha - acc_size
        if _clique_cover_bound(adj, pool, need - 1) < need:
            return
        low = pool & -pool
        v = low.bit_length() - 1
        rec(pool & ~adj[v] & ~low, acc_bits | low, acc_size + 1)
        rec(pool ^ low, acc_bits, acc_size)

    rec((1 << g.n) - 1, 0, 0)
    return MisFamily(host_n=g.n, alpha=alpha, sets=tuple(VertexSet(g.n, b) for b in out))


def kernel(g: Graph) -> VertexSet:
    """Intersection of all maximum independent sets: the v of one such
    set with alpha(G - v) < alpha(G), each alone a hitting set."""
    alpha, witness = alpha_with_witness(g)
    full = (1 << g.n) - 1
    kept = [v for v in witness.members() if _max_independent(g.adj, full ^ (1 << v))[0] < alpha]
    return VertexSet.of(g.n, kept)


def independence_check(g: Graph, vs: VertexSet) -> bool:
    """True iff vs induces no edge of g."""
    for v in iter_bits(vs.bits):
        if g.adj[v] & vs.bits:
            return False
    return True
