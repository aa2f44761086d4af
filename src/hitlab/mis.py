"""Exact maximum-independent-set machinery.

Four searches, each answering one question.  The value search
`_alpha(adj, pool, floor, goal)` returns alpha(pool) and the decision
search `has_independent(adj, pool, target)` is built on it (targets up
to 2 need no search).  The witness walk `_max_independent` returns the
maximum independent set a frozen branch and bound reaches first, which
certificates and the CLI's `witness:` line pin.  kernel decides "t meets
every maximum independent set" by alpha(G - t) < alpha(G) with the
decision search at any n, and asks nothing for a witness vertex that a
neighbour can replace.  The canonical walk `_independent_sets(adj, pool,
size)` yields every independent `size`-set of a pool in canonical order
and opens a node only when the decision search says it holds a set:
first_missed, the minimum hitting set's oracle, hitting.build_K,
graph.find_induced_kst and drc's freeness scan take its first set, and
enumerate_mis (below a cap) and count_mis (in O(n) memory) run it out.

The value search: since only a number leaves it, it is free to pick its
own order.  It peels pool vertices of degree at most 1 (always at the
root; below it only where it pays), stops at once when the greedy set
meets the goal or the id-order clique cover (which also caps the goal),
and otherwise relabels by degree and branches in colour order (MCS on
the complement) from an explicit stack, so no input size meets the
recursion limit, skipping the branch vertices that unit propagation over
the colour classes rules out.  The sections below say why each step is
sound and where it pays.

Why the witness walk reproduces the frozen search: that search keeps its
greedy incumbent unless a leaf is strictly larger, so its answer is the
greedy set when that has size alpha (always so when it matches the
id-order clique cover, as on clusters and paths) and otherwise its first
leaf of size alpha in depth-first order.  Its forced inclusions are
`_peel`'s takes and keep alpha, and the include and exclude branches
split the pool's independent sets, so the include subtree holds a leaf
of size alpha iff the include pool holds an independent set of the
remaining size.  The witness walk asks the decision search exactly that
at each branch vertex and goes straight to that leaf.  `_greedy_mis`
and `_clique_cover_bound` give what a greedy that rescans every degree
and a first-fit clique cover would; the test suite keeps those plain
versions and the frozen search as references.

Why the value search may skip vertices (the MaxSAT bound of Li and Quan,
AAAI 2010, in independent-set form): at a node with size members taken
and incumbent best, let kmin = best - size.  The colour classes are
cliques of G, so an independent set holds at most one vertex of each;
the first kmin classes are live.  A vertex p of a later class is forced
and propagated against the live classes; if a class is left empty, p and
the classes of the conflict's reason R together hold at most |R| members
of any independent set (`_refuted` has the rule and the proof).  R
leaves the live set, so reason sets are disjoint, and the live classes
left plus the skipped vertices hold at most kmin members of any
independent set.  Only the classes the conflict used leave, not every
class that became unit, so more stay live for the next vertex.  The kept
vertices b_1..b_r, in colour order, are branched from b_r down: when b_j
is branched on, the pool is those vertices plus b_1..b_j, so its subtree
is bounded by kmin + j.  The test suite keeps the colour-only search as
a reference.

Why the live classes close triangles: the argument above needs only that
the classes are disjoint cliques, so any clique partition keeps the
bound sound.  Its strength is in the cliques: no clique of a C4-free
graph has more than three vertices, and a class of three holds at most
one member of an independent set where a class of two leaves the third
vertex to be kept or refuted.  Grown by lowest common neighbours from its
lowest vertex v, a class would take v's lowest neighbour even when only
a later one closes a triangle.  So a live class takes as its second
vertex the lowest neighbour of v left in the pool that shares a
neighbour with v there (the lowest neighbour when none does), then grows
by lowest common neighbours.  The later classes, whose vertices are
tested, keep the plain rule.  A node looks past v's lowest neighbour
only when that one closes no triangle and two more are left, and then
only at v's neighbours that share a neighbour with v in the root pool
(`_triangle_mates`).  Those are computed the first time a node needs
them for v and kept for the search: computing them for every vertex at
the root would cost O(m) per search, which searches that end at the
root, as on split and interval graphs, never repay.

The clique cover caps every search: it is taken after the greedy set
whether or not that beats the floor, so a decision at floor alpha ends
at the root wherever the id-order cover is alpha.  So it is on the line
graph of a bipartite graph with a perfect matching, its edges listed by
left endpoint, where the cliques of edges at each left endpoint are the
cover; without the cap, the decision at alpha + 1 branches there.

Where the value search peels: the root peels the whole pool.  Below it,
a node knows its dirty vertices, the pool vertices that lost a
neighbour since the last peel on its path (the rows of the vertices it
excluded and of the neighbours an include removed); every other pool
vertex still has degree 2 or more.  A node peels only when its dirty
vertices are at most half its pool, and then scans only them, which
takes what a full rescan would; otherwise it passes them on to its
children.  On dense pools, such as the C4-free process graphs', nearly
every branch dirties most of the pool, so a scan would cost about a full
rescan, and the colour bound already refutes what a peel would take:
there no node below the root peels.  On sparse pools (random cubic
graphs, gnp at p = 3/n) a branch dirties a few vertices and frees a
chain of degree-1 ones, so the short scan runs at nearly every node.  A
child's dirty vertices include those it inherits, so a child that
inherits more than half its pool as dirty cannot peel: it counts its
whole pool as dirty (so its subtree peels no more) and skips collecting
what its include removed.

Why the value search has a second incumbent: a search that starts below
alpha spends much of its time on sets the optimum would have pruned.
Min-degree greedy with ties broken toward the candidate whose pool
neighbours have the largest sum of pool degrees reaches alpha on 12 of
the 13 construct-large graphs, the first greedy on 6.  Its tie scan
costs tens of microseconds a call on those graphs, but |pool|^2 on pools
of many equal degrees, such as disjoint C5s, where it would cost many
times the whole search.  So it runs only in a value search (goal - best
> 1) whose root keeps at least two branch vertices under the first
incumbent; if it is larger, it raises best and the root's branch list is
taken again.  Large structured graphs (interval, long cycles, disjoint
unions) keep 0 or 1 there, and the C4-free, cubic and gnp graphs 10 to
46.  It runs on the original ids, where it finds larger sets than on
the relabelled rows.  The witness walk keeps the first greedy for its
own rule, since the frozen tree starts from it, so every witness stays
as it was; the value search that gives the walk alpha may use the
second, since only the number leaves it.  Decision searches keep one
greedy: there the second costs more than it saves.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import EnumerationCapError, PreconditionError
from .graph import Graph, Record, VertexSet, iter_bits

ENUM_CAP_DEFAULT = 48


class MisFamily(Record):
    """All maximum independent sets of one host graph: host_n, alpha,
    and `sets`, a tuple of VertexSet.

    `sets` is canonically ordered: lexicographic by the sorted member
    list of each set (the order a lowest-id-first DFS emits).
    """

    __slots__ = ("host_n", "alpha", "sets")

    @property
    def count(self) -> int:
        return len(self.sets)


def _pool_degrees(adj, pool: int) -> tuple[list[int], list[int]]:
    """(deg, buckets): deg[v] is v's pool degree for each pool vertex v,
    and buckets[d] the bitmask of the pool vertices of degree d."""
    deg = [0] * len(adj)
    buckets = [0] * pool.bit_count()
    m = pool
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        deg[v] = d = (adj[v] & pool).bit_count()
        buckets[d] |= low
    return deg, buckets


def _greedy_mis(adj, pool: int, tied: bool = False) -> int:
    """Min-degree-first greedy independent set; the initial incumbent.

    Takes the vertex of least pool degree, smallest id on ties.  With
    `tied`, ties go first to the candidate whose pool neighbours have the
    largest sum of pool degrees (the value search's second incumbent; the
    module docstring says when it runs).  Only the pool neighbours of the
    vertices a pick removes are rebucketed, so the work outside the tie
    scan is bounded by the edges inside the pool, not |pool|^2.
    """
    deg, buckets = _pool_degrees(adj, pool)
    acc, lo = 0, 0
    while pool:
        while not buckets[lo]:
            lo += 1
        ties = buckets[lo]
        low = ties & -ties
        if tied and lo and ties != low:
            most = -1
            while ties:
                c = ties & -ties
                ties ^= c
                m, s = adj[c.bit_length() - 1] & pool, 0
                while m:
                    b = m & -m
                    m ^= b
                    s += deg[b.bit_length() - 1]
                if s > most:
                    most, low = s, c
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


def _peel(adj, pool: int, todo: Optional[int] = None) -> tuple[int, int]:
    """(taken, rest): take pool vertices of pool degree at most 1, each
    with its neighbour gone, until none is left; alpha(pool) = |taken| +
    alpha(rest).  Each take is the smallest-id such vertex (every pool
    vertex outside `todo` has degree 2 or more).  `todo` defaults to the
    whole pool; a caller that passes a smaller one must include every
    pool vertex of degree at most 1, and then gets what the full scan
    gives.  The witness walk depends on this exact rule: new reductions
    go beside it, not into it.
    """
    taken = 0
    todo = pool if todo is None else todo & pool
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
    deg, buckets = _pool_degrees(adj, pool)
    order, rest, hi = [], pool, len(buckets) - 1
    while rest:
        while not buckets[hi]:
            hi -= 1
        low = buckets[hi] & -buckets[hi]
        v = low.bit_length() - 1
        buckets[hi] ^= low
        rest ^= low
        order.append(v)
        m = adj[v] & rest
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            d = deg[u]
            buckets[d] ^= low
            buckets[d - 1] |= low
            deg[u] = d - 1
    order.reverse()
    bit = [0] * len(adj)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        m, row = adj[v] & pool, 0
        while m:
            low = m & -m
            row |= bit[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return rows


def _refuted(rows, low: int, live: list[int], live_bits: int, colour: list[int]) -> int:
    """Unit propagation of the vertex `low` against the live classes: a
    forced vertex takes its neighbours out of every live class, a class
    left with one vertex forces it, a class left empty is a conflict.
    Forced vertices propagate first in, first out, which reaches a
    conflict by short chains and so keeps reasons small.  Each class
    records the classes whose forced vertices took something out of it
    (the start vertex's takes record none).  Returns the reason R on a
    conflict, else 0: the emptied class plus every class its record
    reaches, directly or through theirs.

    Why R is sound, by induction in forcing order: let I be an
    independent set that holds `low`.  If I meets a class that became
    unit and every class its record reaches, I holds the class's forced
    vertex.  Every other vertex of the class was removed by `low` or by
    the forced vertex of a class in its record; that class became unit
    earlier and its record reaches no class the first one's does not, so
    I holds that forced vertex, and so none of the removed vertices.  The
    emptied class lost every vertex the same way, so an I that holds
    `low` and meets every other class of R misses it.  So I misses a
    class of R, and `low` and R's classes together hold at most |R|
    members of any independent set.
    """
    why = [0] * len(live)
    alive, nb, by, todo, head = live_bits, rows[low.bit_length() - 1], 0, [], 0
    while True:
        hit = nb & alive
        alive ^= hit
        while hit:
            i = colour[(hit & -hit).bit_length() - 1]
            cls = live[i]
            hit &= ~cls
            why[i] |= by
            left = alive & cls
            if not left:
                reason, seen, need = cls, 1 << i, why[i]
                while need:
                    bit = need & -need
                    k = bit.bit_length() - 1
                    seen |= bit
                    reason |= live[k]
                    need = (need | why[k]) & ~seen
                return reason
            if not left & (left - 1):
                todo.append(i)
        if head == len(todo):
            return 0
        i = todo[head]
        head += 1
        nb, by = rows[(alive & live[i]).bit_length() - 1], 1 << i


def _triangle_mates(rows, v: int) -> int:
    """v's neighbours that share a neighbour with v: the second vertices
    that can close a triangle on a class started at v."""
    row = m = rows[v]
    reach = 0
    while m:
        low = m & -m
        m ^= low
        reach |= rows[low.bit_length() - 1]
    return reach & row


def _branch_vertices(rows, pool: int, kmin: int, colour: list[int],
                     tri: list[Optional[int]]) -> list[tuple[int, int]]:
    """(bit, bound) of the vertices a node branches on, in colour order,
    when its pool must hold more than kmin members to beat the incumbent:
    the pool less the kept vertices after the j-th holds at most its
    bound, kmin + j, members of any independent set.

    The first kmin colour classes are live and close a triangle where
    they can; a vertex of a later class is kept unless `_refuted` finds a
    conflict, whose reason then leaves the live set (the module docstring
    has the rules and the argument).  `colour` is working space of
    len(rows) entries and `tri[v]` caches `_triangle_mates(rows, v)`,
    filled the first time a class started at v looks past v's lowest
    neighbour; `_alpha` allocates both once for all its nodes.
    """
    live, count, rest = [], 0, pool
    while rest and count < kmin:
        low = rest & -rest
        v = low.bit_length() - 1
        cls, near = low, rest & rows[v]
        colour[v] = count
        if near:
            low = near & -near
            clique = near & rows[low.bit_length() - 1]
            if not clique and near.bit_count() > 2:
                # the lowest neighbour closes no triangle; two later ones may
                mates = tri[v]
                if mates is None:
                    mates = tri[v] = _triangle_mates(rows, v)
                mates &= near
                while mates:
                    w = mates & -mates
                    clique = near & rows[w.bit_length() - 1]
                    if clique:
                        low = w
                        break
                    mates ^= w
            cls |= low
            colour[low.bit_length() - 1] = count
            while clique:
                low = clique & -clique
                u = low.bit_length() - 1
                cls |= low
                colour[u] = count
                clique &= rows[u]
        rest ^= cls
        live.append(cls)
        count += 1
    live_bits = pool ^ rest
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

    The module docstring describes the search and why each step is
    sound: the root peels, tries the greedy set and caps goal by the
    clique cover, then a colour-ordered branch and bound runs over the
    relabelled pool from an explicit stack.
    """
    taken, pool = _peel(adj, pool)
    taken = taken.bit_count()
    best, goal = floor - taken, goal - taken
    if pool.bit_count() <= best:
        return floor
    best = max(best, _greedy_mis(adj, pool).bit_count())
    if best >= goal:
        return best + taken
    cover = _clique_cover_bound(adj, pool, goal)
    if cover <= best:
        return best + taken
    goal = min(goal, cover)
    rows = _relabel(adj, pool)
    colour, tri = [0] * len(rows), [None] * len(rows)
    root = (1 << len(rows)) - 1
    branch = _branch_vertices(rows, root, best, colour, tri)
    if goal - best > 1 and len(branch) > 1:
        second = _greedy_mis(adj, pool, tied=True).bit_count()
        if second > best:
            best = second
            if best >= goal:
                return best + taken
            branch = _branch_vertices(rows, root, best, colour, tri)
    # node: [pool, size, branch, dirty]; every pool vertex outside dirty
    # has pool degree 2 or more
    stack = [[root, 0, branch, 0]]
    while stack:
        node = stack[-1]
        pool, size, branch, dirty = node
        if branch is None:
            if dirty and 2 * dirty.bit_count() <= pool.bit_count():
                more, pool = _peel(rows, pool, dirty)
                size += more.bit_count()
                dirty = 0
            if size > best:
                best = size
            branch = _branch_vertices(rows, pool, best - size, colour, tri)
            node[:] = pool, size, branch, dirty
        if not branch or size + branch[-1][1] <= best or best >= goal:
            stack.pop()
            continue
        low, _ = branch.pop()
        row = rows[low.bit_length() - 1]
        node[0] = pool ^ low
        node[3] = dirty | row
        child = pool & ~row & ~low
        dirty &= child
        if 2 * dirty.bit_count() > child.bit_count():
            # over half the child is dirty already, so it cannot peel
            dirty = child
        else:
            for u in iter_bits(pool & row):
                dirty |= rows[u]
            dirty &= child
        stack.append([child, size + 1, None, dirty])
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
