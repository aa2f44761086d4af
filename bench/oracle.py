"""An exact oracle for the benchmark's checks, written apart from hitlab.mis.

The independence number comes from a different algorithm than hitlab's
branch and bound: vertices of degree at most 1 are taken greedily,
components are solved separately, a component whose degrees are all 2
is a cycle with a closed form, and otherwise the search branches on a
vertex of maximum degree.  Subproblems are memoised by vertex mask.

Closed forms for the families the workloads use, and the exact expected
residual edge count of the sampled core, live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rows_from_edges(n: int, edges) -> list[int]:
    """Adjacency bit rows built from an edge list."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(rows: list[int], pool: int) -> int:
    """The component of the lowest vertex of pool, inside pool."""
    comp = frontier = pool & -pool
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= rows[v]
        frontier = grown & pool & ~comp
        comp |= frontier
    return comp


def alpha(rows: list[int], pool: int) -> int:
    """Independence number of the subgraph induced by the vertex mask pool."""
    memo: dict[int, int] = {}

    def solve(pool: int) -> int:
        taken = 0
        while pool:
            low_deg = -1
            top_v, top_d = -1, -1
            for v in _bits(pool):
                d = (rows[v] & pool).bit_count()
                if d <= 1:
                    low_deg = v
                    break
                if d > top_d:
                    top_v, top_d = v, d
            if low_deg < 0:
                break
            # a vertex of degree <= 1 lies in some maximum independent set
            pool &= ~(rows[low_deg] | (1 << low_deg))
            taken += 1
        if not pool:
            return taken
        if pool in memo:
            return taken + memo[pool]
        comp = _component(rows, pool)
        if comp != pool:
            best = solve(comp) + solve(pool & ~comp)
        elif top_d == 2:
            best = pool.bit_count() // 2
        else:
            bit = 1 << top_v
            best = max(solve(pool & ~bit), 1 + solve(pool & ~(rows[top_v] | bit)))
        memo[pool] = best
        return taken + best

    return solve(pool)


def is_independent(rows: list[int], mask: int) -> bool:
    return all(rows[v] & mask == 0 for v in _bits(mask))


def hits_every_mis(rows: list[int], t_mask: int) -> bool:
    """T meets every maximum independent set iff alpha(G - T) < alpha(G)."""
    full = (1 << len(rows)) - 1
    return alpha(rows, full & ~t_mask) < alpha(rows, full)


# ---------------------------------------------------------------------------
# closed forms


def cluster_alpha(n: int, q: int) -> int:
    """n/q disjoint q-cliques: one vertex from each."""
    return n // q


def cluster_h(q: int) -> int:
    """A whole clique hits every transversal; q - 1 vertices miss one."""
    return q


def path_alpha(n: int) -> int:
    return (n + 1) // 2


def cycle_alpha(n: int) -> int:
    return n // 2


# ---------------------------------------------------------------------------
# the expected residual edge count of the sampled core


def lightest_bin(rows: list[int], i_mask: int, bins) -> int:
    """Mask of the lightest degree bin of the vertices outside I (ties to
    the first bin), the S_j of the construction."""
    n = len(rows)
    masks = [0] * len(bins)
    for v in range(n):
        if i_mask >> v & 1:
            continue
        d = (rows[v] & i_mask).bit_count()
        for idx, (lo, hi) in enumerate(bins):
            if lo <= d < hi:
                masks[idx] |= 1 << v
                break
    return min(masks, key=lambda m: m.bit_count())


def escape_probability(i_size: int, d: int, k: int, s: int) -> Fraction:
    """P[|I_j & N(v)| < s] when I_j is a uniform k-subset of I and v has
    d neighbours in I: the hypergeometric lower tail."""
    hits = sum(math.comb(d, x) * math.comb(i_size - d, k - x) for x in range(min(s, k + 1)))
    return Fraction(hits, math.comb(i_size, k))


def expected_e(rows: list[int], i_mask: int, bins, k: int, s: int) -> Fraction:
    """Exact E[e] = sum over v outside I and S_j of deg_I(v) * P[v escapes K]."""
    outside = ((1 << len(rows)) - 1) & ~(i_mask | lightest_bin(rows, i_mask, bins))
    i_size = i_mask.bit_count()
    total = Fraction(0)
    for v in _bits(outside):
        d = (rows[v] & i_mask).bit_count()
        total += d * escape_probability(i_size, d, k, s)
    return total
