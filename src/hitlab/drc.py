"""Large cliques in dense induced-C4-free graphs.

Two routes, mirroring the existence proof they implement.  If some
non-adjacent pair has a common neighborhood of size >= beta*n, that
neighborhood must already be a clique (two non-adjacent members would
complete an induced C4) and we are done.  Otherwise a derandomized
dependent random choice: score every vertex x by
Z(x) = |N(x)| - a*Y/(beta*(1-a)*n) - a*(n-1)/2 with Y the missing-edge
count inside N(x), take the argmax, strip a maximal matching of missing
edges from N(x), and what survives together with x is a clique.

All score arithmetic is exact (Fraction), so the argmax is deterministic;
cliqueness and freeness are asked of mis's decision search and walk.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import FreenessViolationError, PreconditionError
from .graph import Graph, InducedEmbedding, Record, VertexSet, iter_bits
from .io import FLOAT, INT, TEXT, VERTEX, VERTICES, format_record, optional, parse_record, read_vertex
from .mis import _independent_sets, has_independent

BRANCH_CODEGREE = "codegree"
BRANCH_ARGMAX = "argmax"


class DrcTrace(Record):
    """Full trace of one clique extraction.

    Invariantly clique = {x} | (U minus matched vertices); the codegree
    branch is the m = 0 case with U the fat common neighborhood.  Y counts
    the missing edges inside U; Z is the argmax score, a Fraction (None on
    the codegree branch).
    """

    __slots__ = ("branch", "n", "x", "U", "Y", "Z", "matching", "clique", "beta", "alpha_density")


def is_clique(g: Graph, vs: VertexSet) -> bool:
    return not has_independent(g.adj, vs.bits, 2)


def _scan(g: Graph, beta: float):
    """(u, common neighborhood) of the first missing pair (u, v) whose
    common neighborhood reaches beta*n, or None, asserting cliqueness of
    every common neighborhood on the way."""
    threshold = beta * g.n
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.adj[u] >> v) & 1:
                continue
            common = g.adj[u] & g.adj[v]
            # most pairs of a C4-free graph share at most one neighbor
            pair = common & (common - 1) and next(_independent_sets(g.adj, common, 2), 0)
            if pair:
                a, b = iter_bits(pair)
                raise FreenessViolationError(
                    f"induced C4 found on missing pair ({u},{v}): "
                    f"common neighbors {a},{b} are not adjacent",
                    witness=InducedEmbedding((u, v), (a, b)),
                )
            if common.bit_count() >= threshold:
                return u, common
    return None


def codegree_scan(g: Graph, beta: float) -> Optional[VertexSet]:
    """Common neighborhood of the first missing pair with codegree at
    least beta*n, or None.  Every scanned common neighborhood is checked
    to be a clique; a violation is an induced C4 and raises with its
    witness, so a None return certifies induced-C4-freeness."""
    if beta <= 0.0:
        raise PreconditionError(f"beta must be positive, got {beta}")
    found = _scan(g, beta)
    return None if found is None else VertexSet(g.n, found[1])


def maximal_missing_matching(g: Graph, u_set: VertexSet) -> list[tuple[int, int]]:
    """Greedy maximal matching of non-adjacent pairs inside u_set,
    scanning pairs lexicographically.  Unmatched survivors are pairwise
    adjacent."""
    avail = u_set.bits
    out: list[tuple[int, int]] = []
    for u in iter_bits(u_set.bits):
        if not (avail >> u) & 1:
            continue
        cand = avail & ~g.adj[u] & ~((1 << (u + 1)) - 1)
        if cand:
            v = (cand & -cand).bit_length() - 1
            out.append((u, v))
            avail &= ~((1 << u) | (1 << v))
    return out


def _missing_inside(g: Graph, bits: int) -> int:
    inside_degrees = sum((g.adj[v] & bits).bit_count() for v in iter_bits(bits))
    size = bits.bit_count()
    return size * (size - 1) // 2 - inside_degrees // 2


def drc_clique(g: Graph, alpha_density: float, sharp_beta: bool = False) -> DrcTrace:
    """Clique extraction for a graph with e(g) >= alpha_density*C(n,2).

    beta defaults to alpha^2/128; sharp_beta switches to (1-sqrt(1-a))^2
    for empirical comparison.  Deterministic: exact scores, ties to the
    smallest vertex id.
    """
    from fractions import Fraction

    if g.n < 1:
        raise PreconditionError("empty graph has no cliques")
    if not 0.0 < alpha_density <= 1.0:
        raise PreconditionError(f"alpha_density must lie in (0,1], got {alpha_density}")
    if 2 * g.m < alpha_density * g.n * (g.n - 1):
        raise PreconditionError(
            f"density precondition unmet: e={g.m} < {alpha_density}*C({g.n},2)"
        )
    a = Fraction(alpha_density)
    if sharp_beta:
        beta = Fraction((1.0 - math.sqrt(1.0 - alpha_density)) ** 2)
    else:
        beta = a * a / 128
    if beta == 0:
        raise PreconditionError("beta underflowed to zero; alpha_density too small")
    hit = _scan(g, float(beta))
    if hit is not None:
        branch, y, z, matching = BRANCH_CODEGREE, 0, None, ()
        x, u_set = hit[0], VertexSet(g.n, hit[1])
    else:
        branch, z = BRANCH_ARGMAX, None
        shift = a * (g.n - 1) / 2
        for v in range(g.n):
            v_y = _missing_inside(g, g.adj[v])
            v_z = Fraction(g.adj[v].bit_count()) - shift
            if v_y:
                # a missing edge with a = 1 cannot pass the density pre,
                # so the denominator is never zero here
                v_z -= a * v_y / (beta * (1 - a) * g.n)
            if z is None or v_z > z:
                x, z, y = v, v_z, v_y
        u_set = VertexSet(g.n, g.adj[x])
        matching = tuple(maximal_missing_matching(g, u_set))
    matched = 0
    for p, q in matching:
        matched |= (1 << p) | (1 << q)
    return DrcTrace(
        branch=branch, n=g.n, x=x, U=u_set, Y=y, Z=z, matching=matching,
        clique=VertexSet(g.n, (u_set.bits & ~matched) | (1 << x)), beta=float(beta), alpha_density=alpha_density,
    )


def matching_audit(trace: DrcTrace) -> bool:
    """Y >= m + C(m,2): the matching plus one extra missing edge per
    matched pair, which induced-C4-freeness forces."""
    m = len(trace.matching)
    return trace.Y >= m + math.comb(m, 2)


# ---------------------------------------------------------------------------
# text form

def _read_fraction(text: str, n: int) -> Fraction:
    from fractions import Fraction

    return Fraction(text)


def _read_matching(text: str, n: int) -> tuple[tuple[int, int], ...]:
    pairs = (tok.partition("-") for tok in text.split())
    return tuple((read_vertex(p, n), read_vertex(q, n)) for p, _, q in pairs)


_TRACE_FIELDS = {
    "branch": TEXT,
    "n": INT,
    "x": VERTEX,
    "U": VERTICES,
    "Y": INT,
    "Z": optional((str, _read_fraction)),
    "matching": (lambda matching: " ".join(f"{p}-{q}" for p, q in matching), _read_matching),
    "clique": VERTICES,
    "beta": FLOAT,
    "alpha_density": FLOAT,
}


def trace_to_text(trace: DrcTrace) -> str:
    return format_record(trace, _TRACE_FIELDS)


def trace_from_text(text: str, path: Optional[str] = None) -> DrcTrace:
    return DrcTrace(**parse_record(text, _TRACE_FIELDS, "trace", path))
