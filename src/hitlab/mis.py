"""Exact maximum-independent-set machinery.

Four searches, each answering one question.  The value search
`_alpha(adj, pool, floor, goal)` returns alpha(pool) and the decision
search `has_independent(adj, pool, target)` is built on it (targets up
to 2 need no search); since only a number leaves them, they peel pool
vertices of degree at most 1, stop at once when the greedy set meets the
clique cover, and otherwise relabel by degree and branch in colour order
(MCS on the complement) from an explicit stack, so no input size meets
the recursion limit, skipping the branch vertices that unit propagation
over the colour classes rules out.  The witness walk `_max_independent`
peels with `_peel`, then branches, and so returns the maximum
independent set a frozen branch and bound reaches first, which
certificates and the CLI's `witness:` line pin.  kernel decides "t meets
every maximum independent set" by alpha(G - t) < alpha(G) with the
decision search at any n, and asks nothing for a witness vertex that a
neighbour can replace.  The canonical walk `_independent_sets(adj, pool,
size)` yields every independent `size`-set of a pool in canonical order
and opens a node only when the decision search says it holds a set:
first_missed, the minimum hitting set's oracle, hitting.build_K,
graph.find_induced_kst and drc's freeness scan take its first set, and
enumerate_mis (below a cap) and count_mis (in O(n) memory) run it out.

Why the witness walk reproduces the frozen search: that search keeps its
greedy incumbent unless a leaf is strictly larger, so its answer is the
greedy set when that has size alpha (always so when it matches the
id-order clique cover, as on clusters and paths) and otherwise its first
leaf of size alpha in depth-first order.  Its forced inclusions are
`_peel`'s takes and keep alpha, and the include and exclude branches
split the pool's independent sets, so the include subtree holds a leaf
of size alpha iff the include pool holds an independent set of the
remaining size.  The witness walk asks the decision search exactly that
at each branch vertex and goes straight to that leaf.  The greedy
incumbent keeps pool degrees in buckets and the clique cover is built
one clique at a time; both give what a full rescan and a first-fit cover
would (the test suite keeps those plain versions and the frozen search
as references).

Why the value search may skip vertices (the MaxSAT bound of Li and Quan,
AAAI 2010, in independent-set form): at a node with size members taken
and incumbent best, let kmin = best - size.  The colour classes are
cliques of G, so an independent set holds at most one vertex of each;
the first kmin classes are live.  A vertex p of a later class is forced
and propagated against the live classes: each forced vertex removes its
neighbours from every live class, and a class left with one vertex
forces it.  If a class is left empty, no independent set holds p and
one vertex of each class that became unit or empty on the way (the
reason), so p and the reason's classes R together hold at most |R|
members of any independent set.  The reason leaves the live set, so
reason sets are disjoint, and the live classes left plus the skipped
vertices hold at most kmin members of any independent set.  The kept
vertices b_1..b_r, in colour order, are branched from b_r down: when b_j
is branched on, the pool is those vertices plus b_1..b_j, so its
subtree is bounded by kmin + j.  The test suite keeps the colour-only
search as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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


def _peel(adj, pool: int) -> tuple[int, int]:
    """(taken, rest): take pool vertices of pool degree at most 1, each
    with its neighbour gone, until none is left; alpha(pool) = |taken| +
    alpha(rest).  Each take is the smallest-id such vertex (every pool
    vertex outside `todo` has degree 2 or more).  The witness walk
    depends on this exact rule: new reductions go beside it, not into it.
    """
    taken, todo = 0, pool
    while todo:
        low = todo & -todo
        todo ^= low
        nb = adj[low.bit_length() - 1] & pool
        if nb & (nb - 1):
            continue
        taken |= low
        pool ^= nb | low
        if nb:
            # the neighbour's other neighbours may have dropped to degree 1
            todo = (todo | adj[nb.bit_length() - 1]) & pool
    return taken, pool


def _relabel(adj, pool: int) -> list[int]:
    """Rows of the pool renumbered 0..k-1: the vertex of largest degree
    among those not yet removed is removed next (smallest id on ties),
    and the first removed gets the highest number."""
    deg = [0] * len(adj)
    buckets = [0] * pool.bit_count()
    for v in iter_bits(pool):
        deg[v] = d = (adj[v] & pool).bit_count()
        buckets[d] |= 1 << v
    order, rest, hi = [], pool, len(buckets) - 1
    while rest:
        while not buckets[hi]:
            hi -= 1
        low = buckets[hi] & -buckets[hi]
        v = low.bit_length() - 1
        buckets[hi] ^= low
        rest ^= low
        order.append(v)
        for u in iter_bits(adj[v] & rest):
            buckets[deg[u]] ^= 1 << u
            deg[u] -= 1
            buckets[deg[u]] |= 1 << u
    order.reverse()
    new = {v: i for i, v in enumerate(order)}
    return [sum(1 << new[u] for u in iter_bits(adj[v] & pool)) for v in order]


def _refuted(rows, low: int, live: list[int], live_bits: int, colour: list[int]) -> int:
    """Unit propagation of the vertex `low` against the live classes:
    a forced vertex takes its neighbours out of every live class, a
    class left with one vertex forces it, a class left empty is a
    conflict.  Returns the union of the classes that became unit or
    empty (the reason) on a conflict, else 0."""
    cur = live[:]
    reason, forced = 0, [low.bit_length() - 1]
    while forced:
        nb = rows[forced.pop()]
        hit = nb & live_bits
        while hit:
            i = colour[(hit & -hit).bit_length() - 1]
            cls = live[i]
            hit &= ~cls
            left = cur[i] & ~nb
            if not left:
                return reason | cls
            if not left & (left - 1) and not reason & cls:
                reason |= cls
                forced.append(left.bit_length() - 1)
            cur[i] = left
    return 0


def _branch_vertices(rows, pool: int, kmin: int) -> list[tuple[int, int]]:
    """(bit, bound) of the vertices a node branches on, in colour order,
    when its pool must hold more than kmin members to beat the incumbent:
    the pool less the kept vertices after the j-th holds at most its
    bound, kmin + j, members of any independent set.

    The first kmin colour classes are live; a vertex of a later class is
    kept unless `_refuted` finds a conflict, whose reason then leaves
    the live set.
    """
    colour = [0] * len(rows)
    live, live_bits, rest = [], 0, pool
    while rest and len(live) < kmin:
        clique, cls = rest, 0
        while clique:
            low = clique & -clique
            v = low.bit_length() - 1
            cls |= low
            colour[v] = len(live)
            clique &= rows[v]
        rest ^= cls
        live.append(cls)
        live_bits |= cls
    branch, bound = [], kmin
    while rest:
        clique = rest
        while clique:
            low = clique & -clique
            rest ^= low
            clique &= rows[low.bit_length() - 1]
            reason = live_bits and _refuted(rows, low, live, live_bits, colour)
            if reason:
                live_bits ^= reason
                continue
            bound += 1
            branch.append((low, bound))
    return branch


def _alpha(adj, pool: int, floor: int, goal: int) -> int:
    """alpha(pool) when it lies above floor and below goal; floor when
    alpha(pool) <= floor; some value in goal..alpha(pool) otherwise.

    The greedy set is the first incumbent and ends the search when it
    reaches goal or the id-order clique cover.  Then a colour-ordered
    branch and bound (MCS in complement form) over the relabelled pool:
    the colour classes are the id-order cliques, and the first kmin =
    best - size of them are live.  A vertex of a later class is skipped
    when unit propagation against the live classes ends in a conflict;
    the conflict's classes (the reason) then leave the live set, so
    reason sets stay disjoint.  The kept vertices are branched on last
    first, the j-th under the bound kmin + j (`_branch_vertices`; the
    module docstring has the argument).  Only the number leaves, so the
    search is free to pick its own order.  Nodes sit on an explicit
    stack, so deep searches need no recursion.
    """
    taken, pool = _peel(adj, pool)
    taken = taken.bit_count()
    best, goal = floor - taken, goal - taken
    if pool.bit_count() <= best:
        return floor
    greedy = _greedy_mis(adj, pool).bit_count()
    if greedy > best:
        best = greedy
        if best >= goal or _clique_cover_bound(adj, pool, best) <= best:
            return best + taken
    rows = _relabel(adj, pool)
    stack = [[(1 << len(rows)) - 1, 0, None]]
    while stack:
        node = stack[-1]
        pool, size, branch = node
        if branch is None:
            more, pool = _peel(rows, pool)
            size += more.bit_count()
            if size > best:
                best = size
            branch = _branch_vertices(rows, pool, best - size)
            node[1:] = size, branch
        if not branch or size + branch[-1][1] <= best or best >= goal:
            stack.pop()
            continue
        low, _ = branch.pop()
        node[0] = pool ^ low
        stack.append([pool & ~rows[low.bit_length() - 1] & ~low, size + 1, None])
    return best + taken


def has_independent(adj, pool: int, target: int) -> bool:
    """True iff the pool holds an independent set of `target` vertices."""
    # the canonical walk and every freeness check ask mostly for targets
    # of at most 2: a count, or "is the pool not one (maximal) clique?"
    if target <= 1:
        return pool.bit_count() >= target
    if target == 2:
        return _clique_cover_bound(adj, pool, 1) > 1
    return pool.bit_count() >= target and _alpha(adj, pool, target - 1, target) >= target


def _max_independent(adj, pool: int) -> tuple[int, int]:
    """(size, bits) of the maximum independent set inside the pool that
    the frozen branch and bound reaches first.  Unless the greedy set is
    maximum, the walk peels with `_peel`, then branches on the pool
    vertex of highest pool degree (smallest id on ties), taking the
    include side when it still holds the rest of an alpha-set, and
    repeats until the pool is empty.
    """
    greedy = _greedy_mis(adj, pool)
    size = greedy.bit_count()
    cover = _clique_cover_bound(adj, pool, pool.bit_count())
    alpha = size if cover == size else _alpha(adj, pool, size, cover)
    if alpha == size:
        return size, greedy
    acc = 0
    while True:
        taken, pool = _peel(adj, pool)
        acc |= taken
        if not pool:
            return alpha, acc
        v = max(iter_bits(pool), key=lambda u: (adj[u] & pool).bit_count())
        bit = 1 << v
        include = pool & ~adj[v] & ~bit
        if has_independent(adj, include, alpha - acc.bit_count() - 1):
            pool, acc = include, acc | bit
        else:
            pool ^= bit


def _full_pool(g: Graph) -> int:
    if g.n < 1:
        raise PreconditionError("empty graph has no independence number")
    return (1 << g.n) - 1


def alpha_with_witness(g: Graph) -> tuple[int, VertexSet]:
    """Independence number of g and one maximum independent set."""
    size, bits = _max_independent(g.adj, _full_pool(g))
    return size, VertexSet(g.n, bits)


def _independent_sets(adj, pool: int, size: int) -> Iterator[int]:
    """Bits of every independent set of `size` vertices inside the pool,
    in canonical order: ascending ids, include side first.

    A node is opened only when the decision search says its pool holds
    the members still needed, so every descent ends in a set.  The first
    set costs one decision call for the pool and one per vertex tried.
    Each later set costs one call per vertex tried on its descent (at
    most n) plus one per exclude node reopened, and each descent leaves
    at most `size` of those: about 2n calls per set.  Open nodes sit on
    a stack of at most size + 1 entries, so no pool meets the recursion
    limit.
    """
    stack = [(pool, 0, size)]
    while stack:
        pool, acc, need = stack.pop()
        if not has_independent(adj, pool, need):
            continue
        while need:
            low = pool & -pool
            pool ^= low
            rest = pool & ~adj[low.bit_length() - 1]
            if has_independent(adj, rest, need - 1):
                stack.append((pool, acc, need))
                pool, acc, need = rest, acc | low, need - 1
        yield acc


def first_missed(g: Graph, t: VertexSet) -> Optional[VertexSet]:
    """First maximum independent set disjoint from t in canonical order,
    or None iff alpha(G - t) < alpha(G)."""
    full = _full_pool(g)
    bits = next(_independent_sets(g.adj, full & ~t.bits, _alpha(g.adj, full, 0, g.n)), None)
    return None if bits is None else VertexSet(g.n, bits)


def _capped_alpha(g: Graph, cap: int) -> int:
    """alpha(g), refusing graphs above `cap` to keep accidental
    exponential listings loud."""
    if g.n > cap:
        raise EnumerationCapError(f"n={g.n} exceeds enumeration cap {cap}")
    return _alpha(g.adj, _full_pool(g), 0, g.n)


def enumerate_mis(g: Graph, cap: int = ENUM_CAP_DEFAULT) -> MisFamily:
    """Complete family of maximum independent sets, in canonical order,
    for graphs of at most `cap` vertices."""
    alpha = _capped_alpha(g, cap)
    sets = tuple(VertexSet(g.n, b) for b in _independent_sets(g.adj, (1 << g.n) - 1, alpha))
    return MisFamily(host_n=g.n, alpha=alpha, sets=sets)


def count_mis(g: Graph, cap: int = ENUM_CAP_DEFAULT) -> tuple[int, int]:
    """(alpha, number of maximum independent sets), counted without
    holding the family, for graphs of at most `cap` vertices."""
    alpha = _capped_alpha(g, cap)
    return alpha, sum(1 for _ in _independent_sets(g.adj, (1 << g.n) - 1, alpha))


def kernel(g: Graph) -> VertexSet:
    """Intersection of all maximum independent sets: the v of one such
    set with alpha(G - v) < alpha(G), each alone a hitting set."""
    adj = g.adj
    alpha, witness = alpha_with_witness(g)
    full = (1 << g.n) - 1

    def swappable(v: int) -> bool:
        # a neighbour u with N[u] inside N[v] takes v's place in any
        # maximum independent set, so one of them misses v
        closed = adj[v] | 1 << v
        return any(not (adj[u] | 1 << u) & ~closed for u in iter_bits(adj[v]))

    kept = [v for v in witness.members()
            if not swappable(v) and not has_independent(adj, full ^ (1 << v), alpha)]
    return VertexSet.of(g.n, kept)


def independence_check(g: Graph, vs: VertexSet) -> bool:
    """True iff vs induces no edge of g."""
    for v in iter_bits(vs.bits):
        if g.adj[v] & vs.bits:
            return False
    return True
