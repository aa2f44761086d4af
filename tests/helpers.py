"""Shared graphs and independent oracles for the test suite.

The brute-force routines here deliberately share no code with the
library: subset DP for independent sets, direct pair scans for pattern
checks.  Slow but unarguable.

ref_greedy_mis, ref_clique_cover_bound and ref_max_independent are the
original O(n^2) greedy, the first-fit clique cover and the branch and
bound built on them, kept verbatim: the library's incremental versions
must give the same incumbent, the same cover decisions and so the same
search tree, alpha and witness, and the witness walk must reach the
leaf this search returns.  ref_bin_and_select is the original scan of
every bin for every outside vertex.

ref_min_hitting_set, ref_sample_hitting_set and ref_monte_carlo_e are
the original solvers over the listed family of maximum independent sets
and the original one-build_K-per-trial Monte Carlo loop, kept verbatim
(both draw with random.Random.sample itself, not with the library's
draw): the implicit hitting set loop, the count-only sampler and the
cached Monte Carlo loop must give the same results.

ref_find_independent_subset (the recursive popcount-cut DFS),
ref_first_missed (the rebuild by decision calls) and ref_iter_mis (the
DFS with a clique-cover cut) are the three original searches for "the
first independent k-set in a pool", kept verbatim: the canonical walk
that replaced them must give the same first set and the same list.

ref_find_induced_kst is the original K_{s,t} search over every
lexicographic s-combination, kept verbatim: the search that grows only
independent A-sides must return the same witness.

ref_alpha_colour is the value search before unit propagation, kept
verbatim: every vertex whose colour class number can beat the incumbent
is branched on, bounded by that number.  The search with the filter
must answer every floor/goal query the same way.

address_space_cap bounds what a test may allocate, so a case that
would build a huge structure fails with MemoryError instead of taking
the host's memory.
"""

from __future__ import annotations

import contextlib
import random
import resource
from itertools import combinations
from typing import Iterator, Optional

from hitlab.analysis import derive_seed
from hitlab.errors import PreconditionError
from hitlab.graph import Graph, InducedEmbedding, VertexSet, gen_gnp, iter_bits
from hitlab.hitting import SampleHitResult, bin_and_select, build_K, residual_edge_count
from hitlab.mis import (
    _clique_cover_bound,
    _greedy_mis,
    _independent_sets,
    _peel,
    _relabel,
    enumerate_mis,
    has_independent,
)

# outer C5, inner pentagram, spokes
PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def petersen() -> Graph:
    return Graph.from_edges(10, PETERSEN_EDGES)


def gen_book(pages: int) -> Graph:
    """Triangles glued along the spine edge (0,1).

    Induced-C4-free, and any two pages form a missing pair whose common
    neighborhood is the spine, so the codegree scan fires immediately.
    """
    edges = [(0, 1)]
    for i in range(pages):
        edges += [(0, 2 + i), (1, 2 + i)]
    return Graph.from_edges(2 + pages, edges)


def gen_split(n: int, p: float, seed: int) -> Graph:
    """Random split graph: a clique on ids 0..n/2-1, an independent set
    on the rest, and each clique-to-rest pair, in order, an edge with
    probability p.  Split graphs have no induced C4."""
    rng = random.Random(seed)
    half = n // 2
    rows = [((1 << half) - 1) & ~(1 << u) for u in range(half)] + [0] * (n - half)
    for u in range(half):
        for v in range(half, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def brute_mis_family(g: Graph) -> tuple[int, list[int]]:
    """(alpha, every maximum independent set as a mask) by subset DP."""
    n = g.n
    indep = bytearray(1 << n)
    indep[0] = 1
    best = 0
    masks: list[int] = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if indep[rest] and g.adj[v] & rest == 0:
            indep[mask] = 1
            c = mask.bit_count()
            if c > best:
                best, masks = c, [mask]
            elif c == best:
                masks.append(mask)
    return best, masks


def brute_min_hitting(g: Graph) -> int:
    """Smallest set meeting every maximum independent set, by direct
    subset search in size order."""
    _, masks = brute_mis_family(g)
    for size in range(0, g.n + 1):
        for combo in combinations(range(g.n), size):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if all(bits & m for m in masks):
                return size
    raise AssertionError("V itself always hits")


def has_induced_kst_brute(g: Graph, s: int, t: int) -> bool:
    for a_side in combinations(range(g.n), s):
        if any(g.has_edge(u, v) for u, v in combinations(a_side, 2)):
            continue
        common = (1 << g.n) - 1
        for u in a_side:
            common &= g.adj[u]
        pool = [v for v in range(g.n) if (common >> v) & 1]
        for b_side in combinations(pool, t):
            if not any(g.has_edge(u, v) for u, v in combinations(b_side, 2)):
                return True
    return False


@contextlib.contextmanager
def address_space_cap(extra: int = 256 << 20):
    """Lower this process's soft address-space limit to its current size
    plus `extra` bytes for the duration of the block (Linux)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        cap = int(fh.read().split()[0]) * resource.getpagesize() + extra
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def random_gnp_corpus(count: int, n_lo: int, n_hi: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        out.append(gen_gnp(n, p, rng.randrange(2**30)))
    return out


def members(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)


def ref_greedy_mis(adj, pool: int) -> int:
    """Min-degree-first greedy independent set; the initial incumbent."""
    acc = 0
    while pool:
        best_v, best_d = -1, -1
        m = pool
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (adj[v] & pool).bit_count()
            if best_v < 0 or d < best_d:
                best_v, best_d = v, d
        acc |= 1 << best_v
        pool &= ~adj[best_v]
        pool ^= 1 << best_v
    return acc


def ref_clique_cover_bound(adj, pool: int) -> int:
    # greedy clique cover of the pool; its size bounds alpha(pool) above
    cliques: list[int] = []
    m = pool
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        for i, cb in enumerate(cliques):
            if cb & ~adj[v] == 0:
                cliques[i] = cb | low
                break
        else:
            cliques.append(low)
    return len(cliques)


def ref_max_independent(adj, pool: int) -> tuple[int, int]:
    """(size, bits) of a maximum independent set inside the pool.

    Branch and bound over bit rows: greedy incumbent, popcount and
    clique-cover pruning, forced inclusion of pool vertices with pool
    degree at most 1, branching on the highest-degree pool vertex
    (smallest id on ties).  Fully deterministic.
    """
    best_bits = ref_greedy_mis(adj, pool)
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
            if acc_size + ref_clique_cover_bound(adj, pool) <= state[0]:
                return
            bit = 1 << v_branch
            rec(pool & ~adj[v_branch] & ~bit, acc_bits | bit, acc_size + 1)
            pool ^= bit

    rec(pool, 0, 0)
    return state[0], state[1]


def ref_alpha_colour(adj, pool: int, floor: int, goal: int) -> int:
    """alpha(pool) when it lies above floor and below goal; floor when
    alpha(pool) <= floor; some value in goal..alpha(pool) otherwise.

    The greedy set is the first incumbent and ends the search when it
    reaches goal or the id-order clique cover.  Then a colour-ordered
    branch and bound (MCS in complement form) over the relabelled pool:
    the colour classes are the id-order cliques, and only vertices whose
    class number can still beat the incumbent are branched on, highest
    class first.  Only the number leaves, so the search is free to pick
    its own order.  Nodes sit on an explicit stack, so deep searches
    need no recursion.
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
            branch = []
            rest, k = pool, 0
            while rest:
                k += 1
                clique = rest
                while clique:
                    low = clique & -clique
                    rest ^= low
                    clique &= rows[low.bit_length() - 1]
                    if size + k > best:
                        branch.append((low, k))
            node[1:] = size, branch
        if not branch or size + branch[-1][1] <= best or best >= goal:
            stack.pop()
            continue
        low, _ = branch.pop()
        node[0] = pool ^ low
        stack.append([pool & ~rows[low.bit_length() - 1] & ~low, size + 1, None])
    return best + taken


def ref_bin_and_select(g: Graph, i_set: VertexSet, sched) -> tuple[int, VertexSet]:
    masks = [0] * len(sched.bins)
    outside = ((1 << g.n) - 1) & ~i_set.bits
    for v in iter_bits(outside):
        d = (g.adj[v] & i_set.bits).bit_count()
        for idx, (lo, hi) in enumerate(sched.bins):
            if lo <= d < hi:
                masks[idx] |= 1 << v
                break
    best = 0
    for idx in range(1, len(masks)):
        if masks[idx].bit_count() < masks[best].bit_count():
            best = idx
    return best + 1, VertexSet(g.n, masks[best])


def _ref_disjoint_lower_bound(edges: list[int], pool: int) -> int:
    used = 0
    count = 0
    for e in edges:
        ep = e & pool
        if ep == 0:
            return 1 << 30
        if ep & used == 0:
            used |= ep
            count += 1
    return count


def _ref_exists_cover(edges: list[int], budget: int, pool: int) -> bool:
    if not edges:
        return True
    if budget <= 0:
        return False
    if _ref_disjoint_lower_bound(edges, pool) > budget:
        return False
    # branch on the edge with fewest usable vertices
    best = None
    for e in edges:
        ep = e & pool
        c = ep.bit_count()
        if c == 0:
            return False
        if best is None or c < best.bit_count():
            best = ep
            if c == 1:
                break
    removed = 0
    for v in iter_bits(best):
        bit = 1 << v
        rest = [e for e in edges if e & bit == 0]
        if _ref_exists_cover(rest, budget - 1, pool & ~removed & ~bit):
            return True
        removed |= bit
    return False


def _ref_greedy_cover(edges: list[int], n: int) -> int:
    covered_mask = 0
    left = edges
    out = 0
    while left:
        best_v, best_c = 0, -1
        for v in range(n):
            bit = 1 << v
            if covered_mask & bit:
                continue
            c = sum(1 for e in left if e & bit)
            if c > best_c:
                best_v, best_c = v, c
        covered_mask |= 1 << best_v
        out += 1
        left = [e for e in left if e & (1 << best_v) == 0]
    return out


def ref_min_hitting_set(g: Graph) -> tuple[int, VertexSet]:
    fam = enumerate_mis(g, cap=g.n)  # C_61 is above the default cap but has only 61 sets
    edges = [vs.bits for vs in fam.sets]
    full = (1 << g.n) - 1
    lb = _ref_disjoint_lower_bound(edges, full)
    ub = _ref_greedy_cover(edges, g.n)
    size = lb
    while size < ub and not _ref_exists_cover(edges, size, full):
        size += 1
    chosen: list[int] = []
    uncovered = edges
    start = 0
    budget = size
    while uncovered:
        for v in range(start, g.n):
            bit = 1 << v
            if not any(e & bit for e in uncovered):
                continue
            rest = [e for e in uncovered if e & bit == 0]
            tail_pool = full & ~((bit << 1) - 1)
            if _ref_exists_cover(rest, budget - 1, tail_pool):
                chosen.append(v)
                uncovered = rest
                budget -= 1
                start = v + 1
                break
        else:
            raise AssertionError("lex reconstruction lost feasibility")
    return size, VertexSet.of(g.n, chosen)


def ref_sample_hitting_set(g: Graph, p: int, seed: int, trials: int) -> SampleHitResult:
    fam = enumerate_mis(g)
    union_bound = fam.count * (1.0 - p / g.n) ** fam.alpha
    rng = random.Random(seed)
    ids = range(g.n)
    fails = 0
    hit = None
    hit_trial = None
    for i in range(trials):
        bits = 0
        for v in rng.sample(ids, p):
            bits |= 1 << v
        cand = VertexSet(g.n, bits)
        if fam.all_hit(cand):
            if hit is None:
                hit, hit_trial = cand, i
        else:
            fails += 1
    return SampleHitResult(
        hit=hit,
        hit_trial=hit_trial,
        fail_rate=fails / trials,
        union_bound=union_bound,
        trials=trials,
        p=p,
        seed=seed,
    )


def ref_monte_carlo_e(g: Graph, i_set: VertexSet, sched, trials: int, seed: int) -> tuple[int, ...]:
    """The samples of the original loop: a fresh random.Random per trial
    and its own sample, build_K and a full recount of e in every trial."""
    _, s_j = bin_and_select(g, i_set, sched)
    base = i_set.bits | s_j.bits
    samples = []
    for idx in range(trials):
        chosen = random.Random(derive_seed(seed, idx, "mc-e")).sample(i_set.members(), sched.k)
        i_j = VertexSet.of(g.n, chosen)
        k_set = build_K(g, i_j, sched.s, sched.t)
        samples.append(residual_edge_count(g, i_set.bits, base | k_set.bits))
    return tuple(samples)


def ref_find_independent_subset(g: Graph, candidates: int, size: int) -> Optional[int]:
    """First (lexicographically earliest) independent `size`-subset of the
    candidate mask, as a mask, or None if none exists."""
    if size == 0:
        return 0
    if candidates.bit_count() < size:
        return None
    adj = g.adj

    # DFS over ascending vertex ids; each chosen vertex restricts the pool
    # to its non-neighbors above it.
    def rec(pool: int, need: int, acc: int) -> Optional[int]:
        if need == 0:
            return acc
        while pool:
            if pool.bit_count() < need:
                return None
            low = pool & -pool
            v = low.bit_length() - 1
            pool ^= low
            got = rec(pool & ~adj[v], need - 1, acc | low)
            if got is not None:
                return got
        return None

    return rec(candidates, size, 0)


def ref_first_missed(adj, pool: int, alpha: int) -> Optional[int]:
    """Bits of the first independent set of `alpha` vertices inside the
    pool in canonical order, or None if the pool holds none.  Rebuilt
    smallest id first: v joins iff the pool left after taking it holds
    the remaining size."""
    if not has_independent(adj, pool, alpha):
        return None
    acc, need = 0, alpha
    while need:
        low = pool & -pool
        v = low.bit_length() - 1
        rest = pool & ~adj[v] & ~low
        if has_independent(adj, rest, need - 1):
            acc |= low
            need -= 1
            pool = rest
        else:
            pool ^= low
    return acc


def ref_iter_mis(adj, pool: int, alpha: int) -> Iterator[int]:
    """Bits of every independent set of `alpha` vertices inside the pool,
    in canonical order: a DFS over ascending ids, include side first,
    that leaves a subtree once a clique cover of its pool is smaller
    than the members still needed.  The open nodes sit on a stack, so
    memory stays O(n) whatever the family's size."""
    stack = [(pool, 0, 0)]
    while stack:
        pool, acc, size = stack.pop()
        need = alpha - size
        if not need:
            yield acc
        elif _clique_cover_bound(adj, pool, need - 1) >= need:
            low = pool & -pool
            stack.append((pool ^ low, acc, size))
            stack.append((pool & ~adj[low.bit_length() - 1] & ~low, acc | low, size + 1))


def ref_find_induced_kst(g: Graph, s: int, t: int) -> Optional[InducedEmbedding]:
    """Search for an induced K_{s,t}; None when the graph is free of it.

    Exhaustive over ordered A-sides (lexicographically minimal witness
    first); the B-side is the first set of the canonical walk
    `mis._independent_sets`, so no pool meets the recursion limit.
    Exponential in s+t; callers keep s+t small (<= 8 by default).
    """
    if not 1 <= s <= t:
        raise PreconditionError(f"need 1 <= s <= t, got s={s}, t={t}")
    adj = g.adj
    for a_side in combinations(range(g.n), s):
        independent = True
        for i, u in enumerate(a_side):
            for v in a_side[i + 1 :]:
                if (adj[u] >> v) & 1:
                    independent = False
                    break
            if not independent:
                break
        if not independent:
            continue
        common = (1 << g.n) - 1
        for u in a_side:
            common &= adj[u]
        if common.bit_count() < t:
            continue
        b_mask = next(_independent_sets(adj, common, t), None)
        if b_mask is not None:
            return InducedEmbedding(a_side, tuple(iter_bits(b_mask)))
    return None
