"""Hitting sets for all maximum independent sets of a K_{s,t}-free graph.

The centerpiece is construct_hitting_set: either the minimum-degree
shortcut (a closed neighborhood hits everything) or the sampled-core
construction: bin the outside vertices by their degree into a maximum
independent set I, keep the lightest bin S_j, sample a k-subset I_j of I,
exclude the union K of common neighborhoods of its s-subsets, then take
an averaged low-residual-degree subset H of I and output
T = H ∪ N_R(H) ∪ S_j.  Validity of T never depends on the sample seed;
only |T| does.  Every run yields a replayable HittingCertificate.

Also here: the exact minimum hitting set (the oracle the construction is
sandwiched against), an implicit hitting set loop that covers a growing
subfamily of maximum independent sets and asks the alpha oracle for the
next one missed, so the family is never listed, run on each connected
component alone; uniform-sampling search
with its union bound; and the budget / size-bound arithmetic used to
audit the averaging step.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from .errors import (
    FreenessViolationError,
    InfeasibleParamsError,
    PreconditionError,
    VerificationFailure,
)
from .graph import Graph, InducedEmbedding, VertexSet, iter_bits, min_degree_vertex
from .io import INT, TEXT, VERTEX, VERTICES, format_record, optional, parse_record
from .mis import ENUM_CAP_DEFAULT, _alpha, _full_pool, _independent_sets, alpha_with_witness, count_mis
from .mis import first_missed, has_independent, independence_check
from .mis import enumerate_mis  # noqa: F401  unused here; the traced benchmark wraps hitting.enumerate_mis

MODE_LOW_DEGREE = "low-degree"
MODE_SAMPLED_CORE = "sampled-core"
MODE_UNIFORM_SAMPLE = "uniform-sample"
MODE_TRIVIAL = "trivial"


@dataclass(frozen=True)
class ParamSchedule:
    """Tunable constants of the construction.

    Absolute degree bins (half-open [lo, hi), ordered from the heaviest
    interval down, pairwise disjoint) and one sample size k.
    """

    s: int
    t: int
    delta: float
    k: int
    bins: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (isinstance(self.s, int) and isinstance(self.t, int)):
            raise PreconditionError("s and t must be integers")
        if not 1 <= self.s <= self.t:
            raise PreconditionError(f"need 1 <= s <= t, got s={self.s}, t={self.t}")
        _check_delta(self.delta)
        if self.k < self.s:
            raise PreconditionError(f"k={self.k} below s={self.s}: no s-subsets to sample")
        bins = tuple((float(lo), float(hi)) for lo, hi in self.bins)
        object.__setattr__(self, "bins", bins)
        if not bins:
            raise PreconditionError("schedule needs at least one degree bin")
        for lo, hi in bins:
            if not (0.0 <= lo < hi):
                raise PreconditionError(f"bad bin [{lo},{hi}): need 0 <= lo < hi")
        for (lo_prev, _), (_, hi_next) in zip(bins, bins[1:]):
            if hi_next > lo_prev:
                raise PreconditionError(
                    "bins must descend and stay disjoint: "
                    f"interval ending at {hi_next} overlaps one starting at {lo_prev}"
                )

    @property
    def h_size(self) -> int:
        """(t-1)*C(k,s)+1, the forced size of the averaged subset H."""
        return (self.t - 1) * math.comb(self.k, self.s) + 1

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def log_bin(self, j: int) -> tuple[float, float, float]:
        """(ln lo, ln hi, ln k) of bin j (1-based), with ln 0 = -inf."""
        lo, hi = self.bins[j - 1]
        return (math.log(lo) if lo > 0.0 else -math.inf), math.log(hi), math.log(self.k)


@dataclass(frozen=True)
class AsymptoticSchedule:
    """The textbook parameter point, reported in natural-log space.

    Per-bin log degree bounds (log_bins) and log sample sizes (log_ks);
    `feasible` says whether the values fit inside [1, n] at all.  A
    report only: the construction runs on a ParamSchedule.
    """

    s: int
    t: int
    delta: float
    feasible: bool
    log_bins: tuple[tuple[float, float], ...]
    log_ks: tuple[float, ...]

    @property
    def num_bins(self) -> int:
        return len(self.log_bins)

    def log_bin(self, j: int) -> tuple[float, float, float]:
        """(ln lo, ln hi, ln k) of bin j (1-based)."""
        return (*self.log_bins[j - 1], self.log_ks[j - 1])


# The auto rule's delta = (d + 0.5)/n asks for at most 4n bins (an
# isolated vertex), so this admits it on every graph of up to 250,000
# vertices; a smaller delta is refused before any bin is built.
MAX_BINS = 1_000_000


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0,1), got {delta}")


def _bin_count(delta: float) -> int:
    """ceil(2/delta), the number of bins auto_bins and asymptotic_schedule build."""
    _check_delta(delta)
    if 2.0 / delta > MAX_BINS:
        raise PreconditionError(f"delta={delta} asks for more than {MAX_BINS} bins (ceil(2/delta))")
    return math.ceil(2.0 / delta)


def auto_bins(delta: float) -> tuple[tuple[float, float], ...]:
    """ceil(2/delta) unit-width bins descending to [1,2).

    Enough bins for the pigeonhole count (n-|I|)/#bins <= (1-c)*delta*n/2,
    which is what the size audit needs.
    """
    j_max = _bin_count(delta)
    return tuple((float(j_max - j), float(j_max - j + 1)) for j in range(j_max))


def _pow_or_inf(base: float, exp: int) -> float:
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def asymptotic_schedule(n: int, s: int, t: int, delta: float) -> AsymptoticSchedule:
    """The textbook parameter point, evaluated in natural-log space.

    Bin j of ceil(2/delta) covers degrees [n*(ln n)^-(10s)^(2j+1),
    n*(ln n)^-(10s)^(2j-1)) with sample size k_j = (ln n)^((10s)^(2j)).
    At desk scale k_1 already dwarfs n, so `feasible` is false.
    """
    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    j_max = _bin_count(delta)
    if not 1 <= s <= t:
        raise PreconditionError(f"need 1 <= s <= t, got s={s}, t={t}")
    ln_n = math.log(n)
    ln_ln = math.log(ln_n)
    base = float(10 * s)
    log_bins = []
    log_ks = []
    feasible = True
    for j in range(1, j_max + 1):
        log_k = _pow_or_inf(base, 2 * j) * ln_ln
        log_lo = ln_n - _pow_or_inf(base, 2 * j + 1) * ln_ln
        log_hi = ln_n - _pow_or_inf(base, 2 * j - 1) * ln_ln
        log_ks.append(log_k)
        log_bins.append((log_lo, log_hi))
        if log_lo < 0.0 or log_k > ln_n:
            feasible = False
    return AsymptoticSchedule(
        s=s, t=t, delta=delta, feasible=feasible, log_bins=tuple(log_bins), log_ks=tuple(log_ks)
    )


@dataclass(frozen=True)
class HittingCertificate:
    """Replayable trace of one hitting-set run.

    For sampled-core runs T = H | NH | S_j and all intermediate sets are
    recorded; low-degree runs record the center vertex instead; trivial
    runs have T = V.  size_accounting is (|H|, |NH|, |S_j|).
    """

    mode: str
    n: int
    seed: Optional[int]
    T: VertexSet
    I: VertexSet
    bin_index: int
    S_j: VertexSet
    I_j: VertexSet
    K: VertexSet
    H: VertexSet
    NH: VertexSet
    center: Optional[int]
    size_accounting: tuple[int, int, int]


def _bare_certificate(mode: str, seed: Optional[int], t_set: VertexSet) -> HittingCertificate:
    """A certificate whose only content is T: every other set empty, no
    bin, no center and size accounting (0, 0, 0)."""
    empty = VertexSet.empty(t_set.n)
    return HittingCertificate(
        mode=mode, n=t_set.n, seed=seed, T=t_set, I=empty, bin_index=0, S_j=empty, I_j=empty,
        K=empty, H=empty, NH=empty, center=None, size_accounting=(0, 0, 0),
    )


def closed_neighborhood_hitting(g: Graph, v: int, seed: Optional[int] = None) -> HittingCertificate:
    """Hitting set {v} | N(v): a maximum independent set avoiding all of
    it could absorb v and grow, which is absurd."""
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex {v} out of range 0..{g.n - 1}")
    t_set = VertexSet(g.n, g.adj[v] | (1 << v))
    return replace(_bare_certificate(MODE_LOW_DEGREE, seed, t_set), center=v)


def bin_and_select(g: Graph, i_set: VertexSet, sched: ParamSchedule) -> tuple[int, VertexSet]:
    """Assign each outside vertex to the bin holding its I-degree, then
    return the 1-based index and content of the lightest bin (ties to the
    smallest index).  The winner's size is at most (n-|I|)/#bins."""
    by_degree: dict[int, int] = {}
    for v in iter_bits(((1 << g.n) - 1) & ~i_set.bits):
        d = (g.adj[v] & i_set.bits).bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    masks = [0] * len(sched.bins)
    for d, bits in by_degree.items():
        for idx, (lo, hi) in enumerate(sched.bins):
            if lo <= d < hi:
                masks[idx] |= bits
                break
    best = 0
    for idx in range(1, len(masks)):
        if masks[idx].bit_count() < masks[best].bit_count():
            best = idx
    return best + 1, VertexSet(g.n, masks[best])


def _draw_bits(rng: random.Random, population, k: int) -> int:
    """The bits of the k-subset that CPython's Random.sample draws from
    `population` (distinct vertex ids, 0 <= k <= their number): the same
    getrandbits calls, so the same subset and the same generator state.

    randbelow(m) is getrandbits(m.bit_length()), redrawn while >= m.  Up
    to setsize ids, sample swaps each pick out of a copied pool; above
    it, it redraws an index until one is not yet taken.
    """
    n = len(population)
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    bits = 0
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            width = m.bit_length()
            j = getrandbits(width)
            while j >= m:
                j = getrandbits(width)
            bits |= 1 << pool[j]
            pool[j] = pool[m - 1]
    else:
        width = n.bit_length()
        taken = set()
        for _ in range(k):
            j = getrandbits(width)
            while j >= n or j in taken:
                j = getrandbits(width)
            taken.add(j)
            bits |= 1 << population[j]
    return bits


def sample_Ij(i_set: VertexSet, k: int, seed: int) -> VertexSet:
    """Uniform k-subset of I, without replacement, fixed by the seed: the
    one draw, byte-identical to Random.sample from a Random(seed)."""
    if k > i_set.size:
        raise PreconditionError(f"cannot sample k={k} from |I|={i_set.size}")
    if k < 0:
        raise PreconditionError(f"negative sample size {k}")
    return VertexSet(i_set.n, _draw_bits(random.Random(seed), i_set.members(), k))


def build_K(g: Graph, i_j: VertexSet, s: int, t: int) -> VertexSet:
    """Union over s-subsets of I_j of their common neighborhoods.

    Each common neighborhood must induce independence number <= t-1;
    an independent t-subset inside one is exactly an induced K_{s,t}
    and raises a freeness violation carrying that witness.
    """
    if i_j.size < s:
        raise PreconditionError(f"|I_j|={i_j.size} below s={s}")
    if not independence_check(g, i_j):
        raise PreconditionError("I_j is not independent")
    full = (1 << g.n) - 1
    k_bits = 0
    for side_a in combinations(i_j.members(), s):
        common = full
        for p in side_a:
            common &= g.adj[p]
        hit = next(_independent_sets(g.adj, common, t), None)
        if hit is not None:
            witness = InducedEmbedding(side_a, tuple(iter_bits(hit)))
            raise FreenessViolationError(
                f"induced K_{{{s},{t}}} found: sides {side_a} / {witness.side_b}",
                witness=witness,
            )
        k_bits |= common
    return VertexSet(g.n, k_bits)


def choose_H(g: Graph, i_set: VertexSet, r_set: VertexSet, h_size: int) -> VertexSet:
    """The h_size vertices of I with fewest residual neighbors (ties by
    id); their residual degrees total at most h_size * e / |I| where
    e = |E(I, R)|, the averaging argument made deterministic."""
    if r_set.bits & i_set.bits:
        raise PreconditionError("residual set overlaps I")
    if h_size > i_set.size:
        raise InfeasibleParamsError(
            f"need |H|={h_size} but |I|={i_set.size}; pick smaller k or t"
        )
    ranked = sorted(i_set.members(), key=lambda v: ((g.adj[v] & r_set.bits).bit_count(), v))
    return VertexSet.of(i_set.n, ranked[:h_size])


def _printable_h_size(sched: ParamSchedule) -> Optional[int]:
    """sched.h_size, or None when it has more digits than int-to-text
    conversion allows.  C(k, m) >= (k/m)^m, m = min(s, k - s), rules out
    a huge |H| first, so |H| is computed only below about 10^4 digits."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    m = min(sched.s, sched.k - sched.s)
    if sched.t > 1 and m and m * (math.log10(sched.k) - math.log10(m)) > limit + 1:
        return None
    h_size = sched.h_size
    # 8^limit < 10^limit, so the bit length settles all but huge values
    return h_size if h_size.bit_length() < 3 * limit or h_size < 10 ** limit else None


def construct_hitting_set(
    g: Graph, sched: ParamSchedule, seed: int, allow_trivial: bool = False
) -> HittingCertificate:
    """Run the full construction and return its certificate.

    Shortcut first: a vertex of degree below delta*n - 1 certifies via its
    closed neighborhood.  Otherwise sample I_j inside a maximum
    independent set and assemble T = H | N_R(H) | S_j.  T is a hitting
    set for every seed; freeness violations and h_size > alpha surface as
    errors (or as the explicit T = V fallback when allow_trivial is set).
    """
    v, d = min_degree_vertex(g)
    if d < sched.delta * g.n - 1:
        return closed_neighborhood_hitting(g, v, seed=seed)
    alpha, i_set = alpha_with_witness(g)
    h_size = _printable_h_size(sched)
    if h_size is None or h_size > alpha or sched.k > alpha:
        if allow_trivial:
            return replace(_bare_certificate(MODE_TRIVIAL, seed, VertexSet.full(g.n)), I=i_set)
        if h_size is None:
            raise InfeasibleParamsError(
                f"schedule needs |H| above alpha={alpha}: (t-1)*C(k,s)+1 has too many digits to print"
            )
        raise InfeasibleParamsError(
            f"schedule needs |H|={h_size} and k={sched.k} inside alpha={alpha}"
        )
    bin_index, s_j = bin_and_select(g, i_set, sched)
    i_j = sample_Ij(i_set, sched.k, seed)
    k_set = build_K(g, i_j, sched.s, sched.t)
    full = (1 << g.n) - 1
    r_bits = full & ~(i_set.bits | k_set.bits | s_j.bits)
    r_set = VertexSet(g.n, r_bits)
    h_set = choose_H(g, i_set, r_set, h_size)
    nh_bits = 0
    for h in iter_bits(h_set.bits):
        nh_bits |= g.adj[h]
    nh_set = VertexSet(g.n, nh_bits & r_bits)
    t_set = VertexSet(g.n, h_set.bits | nh_set.bits | s_j.bits)
    return HittingCertificate(
        mode=MODE_SAMPLED_CORE,
        n=g.n,
        seed=seed,
        T=t_set,
        I=i_set,
        bin_index=bin_index,
        S_j=s_j,
        I_j=i_j,
        K=k_set,
        H=h_set,
        NH=nh_set,
        center=None,
        size_accounting=(h_set.size, nh_set.size, s_j.size),
    )


def verify_hitting_set(g: Graph, t_set: VertexSet) -> bool:
    """True iff every maximum independent set of g meets t_set."""
    return first_missed(g, t_set) is None


def residual_edges(g: Graph, cert: HittingCertificate) -> int:
    """e = |E(I, R)| recomputed from a sampled-core certificate: the
    I-degrees summed over R = V minus (I | K | S_j)."""
    if cert.mode != MODE_SAMPLED_CORE:
        raise PreconditionError(f"no residual set in mode {cert.mode!r}")
    i_bits = cert.I.bits
    r_bits = ((1 << g.n) - 1) & ~(i_bits | cert.K.bits | cert.S_j.bits)
    return sum((g.adj[v] & i_bits).bit_count() for v in iter_bits(r_bits))


# ---------------------------------------------------------------------------
# exact minimum hitting set over the MIS hypergraph


def _cover(edges: list[int], budget: int, pool: int) -> Optional[int]:
    """Bits of at most `budget` pool vertices meeting every edge, or None.

    Branches on the edge with fewest usable vertices, trying them in id
    order and dropping each one tried from the later branches; an edge
    with none left gives nothing to try.
    """
    if not edges:
        return 0
    if budget <= 0:
        return None
    best = None
    for e in edges:
        ep = e & pool
        c = ep.bit_count()
        if best is None or c < best.bit_count():
            best = ep
            if c <= 1:
                break
    for v in iter_bits(best):
        bit = 1 << v
        pool &= ~bit
        found = _cover([e for e in edges if not e & bit], budget - 1, pool)
        if found is not None:
            return found | bit
    return None


def _components(adj, pool: int) -> list[int]:
    """Vertex sets of the connected components of the pool, in order of
    their smallest vertex, each grown by a breadth-first search."""
    comps = []
    while pool:
        comp = frontier = pool & -pool
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= adj[v]
            frontier = reach & pool & ~comp
            comp |= frontier
        pool ^= comp
        comps.append(comp)
    return comps


def _component_min_hitting_set(adj, comp: int, cap: int) -> Optional[tuple[int, int]]:
    """(h, bits of the lex-least minimum hitting set) of the component
    `comp`, or None when h exceeds cap.

    An implicit hitting set loop over the alpha oracle; the family of
    maximum independent sets is never listed.  `feasible(prefix, budget,
    pool)` asks whether prefix plus at most `budget` pool vertices meets
    every maximum independent set: it covers a growing subfamily of
    them with `_cover`, asks the oracle for the canonical maximum
    independent set that prefix plus the cover misses, adds it and
    repeats.  It answers no once the subfamily has no cover, and yes
    once nothing is missed.  Both answers are exact,
    since every subfamily set is a real maximum independent set and
    "nothing missed" is alpha(G - T) < alpha(G), so the subfamily
    persists across calls.  The size is the least feasible budget.  The
    witness fixes, position by position, the smallest vertex v after the
    last one fixed for which the prefix plus v stays feasible with the
    vertices above v.  That is the test the full-family search made, so
    the witness is the same lex-least set.
    """
    alpha = _alpha(adj, comp, 0, comp.bit_count())
    family: list[int] = []

    def feasible(prefix: int, budget: int, pool: int) -> bool:
        while True:
            cover = _cover([e for e in family if not e & prefix], budget, pool)
            if cover is None:
                return False
            missed = next(_independent_sets(adj, comp & ~(prefix | cover), alpha), None)
            if missed is None:
                return True
            family.append(missed)

    size = 0
    while not feasible(0, size, comp):
        size += 1
        if size > cap:
            return None
    chosen, rest = 0, comp
    for budget in range(size, 0, -1):
        for v in iter_bits(rest):
            bit = 1 << v
            above = comp & ~((bit << 1) - 1)
            if feasible(chosen | bit, budget - 1, above):
                break
        chosen |= bit
        rest = above
    return size, chosen


def min_hitting_set(g: Graph) -> tuple[int, VertexSet]:
    """h(g) with the lexicographically least minimum hitting set.

    Solved one connected component at a time.  A maximum independent
    set of g is one maximum independent set per component, so T meets
    every one of them iff, for some component C, T & C meets every
    maximum independent set of C: otherwise one set per component
    missing T would together miss T.  Hence h(g) = min over components
    of h(C), every minimum hitting set lies inside one component, and
    the lex-least one is the least, by sorted member list, of the
    components' lex-least sets of that size.  Each component runs the
    implicit hitting set loop of `_component_min_hitting_set` with its
    own alpha, and stops its size search once it passes the best h so
    far.
    """
    adj = g.adj
    best: Optional[tuple[int, list[int]]] = None
    for comp in _components(adj, _full_pool(g)):
        found = _component_min_hitting_set(adj, comp, g.n if best is None else best[0])
        if found is None:
            continue
        key = (found[0], list(iter_bits(found[1])))
        if best is None or key < best:
            best = key
    size, members = best
    return size, VertexSet.of(g.n, members)


# ---------------------------------------------------------------------------
# uniform sampling (the probabilistic hitting-set existence argument)


@dataclass(frozen=True)
class SampleHitResult:
    """Outcome of repeated uniform p-subset trials.

    hit is the first sampled set that verified (None if all trials
    failed); union_bound is count * (1 - p/n)^alpha, the analytic
    failure-probability envelope.
    """

    hit: Optional[VertexSet]
    hit_trial: Optional[int]
    fail_rate: float
    union_bound: float
    trials: int
    p: int
    seed: int

    def to_certificate(self) -> Optional[HittingCertificate]:
        if self.hit is None:
            return None
        return _bare_certificate(MODE_UNIFORM_SAMPLE, self.seed, self.hit)


def sample_hitting_set(
    g: Graph, p: int, seed: int, trials: int, cap: int = ENUM_CAP_DEFAULT
) -> SampleHitResult:
    """`trials` uniform p-subsets, each a hit iff alpha(G - T) < alpha(G).
    The union bound needs the family's size, counted below `cap`."""
    if not 0 <= p <= g.n:
        raise PreconditionError(f"sample size p={p} outside 0..{g.n}")
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    alpha, count = count_mis(g, cap)
    union_bound = count * (1.0 - p / g.n) ** alpha
    full = (1 << g.n) - 1
    rng = random.Random(seed)
    ids = range(g.n)
    fails = 0
    hit = None
    hit_trial = None
    for i in range(trials):
        bits = _draw_bits(rng, ids, p)
        if has_independent(g.adj, full & ~bits, alpha):
            fails += 1
        elif hit is None:
            hit, hit_trial = VertexSet(g.n, bits), i
    return SampleHitResult(
        hit=hit,
        hit_trial=hit_trial,
        fail_rate=fails / trials,
        union_bound=union_bound,
        trials=trials,
        p=p,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# arithmetic audits


def budget(n: int, c: float, delta: float, k: int, s: int, t: int) -> float:
    """delta*c*n^2 / (2(t-1)C(k,s)+2) - c*n.

    Negative means the parameter point cannot certify |T| < delta*n.
    """
    if min(n, k, s, t) < 1 or s > t:
        raise PreconditionError("need positive n, k, 1 <= s <= t")
    if not 0.0 < c <= 0.5:
        raise PreconditionError(f"c must lie in (0, 1/2], got {c}")
    if delta <= 0.0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    denom = 2 * (t - 1) * math.comb(k, s) + 2
    return delta * c * n * n / denom - c * n


def size_bound_check(cert: HittingCertificate, sched: ParamSchedule, e_observed: int) -> bool:
    """Audit |T| < h + h*e/|I| + delta*n/2 with exact arithmetic.

    h is the schedule's forced |H|; |I| plays the role of c*n.  This is
    the averaging step's displayed inequality with the observed residual
    edge count plugged in.
    """
    from fractions import Fraction

    if cert.mode != MODE_SAMPLED_CORE:
        raise PreconditionError(f"size bound audits {MODE_SAMPLED_CORE} runs, got {cert.mode!r}")
    if e_observed < 0:
        raise PreconditionError(f"negative edge count {e_observed}")
    h = _printable_h_size(sched)
    if h is None:
        return True  # |T| <= n < |H|
    alpha = cert.I.size
    rhs = Fraction(h) + Fraction(h * e_observed, alpha) + Fraction(sched.delta) * cert.n / 2
    return cert.T.size < rhs


# ---------------------------------------------------------------------------
# certificate text form and replay

def _read_counts(text: str, n: int) -> tuple[int, int, int]:
    h, nh, s_j = (int(tok) for tok in text.split())
    return h, nh, s_j


_CERT_FIELDS = {
    "mode": TEXT,
    "n": INT,
    "seed": optional(INT),
    "center": optional(VERTEX),
    "bin_index": INT,
    "I": VERTICES,
    "S_j": VERTICES,
    "I_j": VERTICES,
    "K": VERTICES,
    "H": VERTICES,
    "NH": VERTICES,
    "T": VERTICES,
    "size_accounting": (lambda acct: " ".join(str(x) for x in acct), _read_counts),
}


def certificate_to_text(cert: HittingCertificate) -> str:
    return format_record(cert, _CERT_FIELDS)


def certificate_from_text(text: str, path: Optional[str] = None) -> HittingCertificate:
    return HittingCertificate(**parse_record(text, _CERT_FIELDS, "certificate", path))


def validate_certificate(g: Graph, cert: HittingCertificate, sched: Optional[ParamSchedule] = None) -> None:
    """Structural re-check of a certificate against its graph.

    Raises VerificationFailure on the first broken invariant; passing a
    schedule additionally pins |H|, |I_j|, the bin membership of S_j and
    K, rebuilt by build_K (so an induced K_{s,t} it meets raises
    FreenessViolationError).
    """

    def fail(msg: str):
        raise VerificationFailure(f"certificate invalid: {msg}")

    if cert.n != g.n:
        fail(f"host mismatch: certificate n={cert.n}, graph n={g.n}")
    if cert.mode == MODE_LOW_DEGREE:
        if cert.center is None:
            fail("low-degree certificate without center vertex")
        expect = g.adj[cert.center] | (1 << cert.center)
        if cert.T.bits != expect:
            fail("T is not the closed neighborhood of the center")
        return
    if cert.mode == MODE_TRIVIAL:
        if cert.T.bits != (1 << g.n) - 1:
            fail("trivial certificate must carry T = V")
        return
    if cert.mode == MODE_UNIFORM_SAMPLE:
        return
    if cert.mode != MODE_SAMPLED_CORE:
        fail(f"unknown mode {cert.mode!r}")
    if cert.T.bits != cert.H.bits | cert.NH.bits | cert.S_j.bits:
        fail("T != H | NH | S_j")
    if not cert.H.issubset(cert.I):
        fail("H not inside I")
    if not cert.I_j.issubset(cert.I):
        fail("I_j not inside I")
    if cert.K.bits & cert.I.bits:
        fail("K intersects I")
    if cert.S_j.bits & cert.I.bits:
        fail("S_j intersects I")
    if not independence_check(g, cert.I):
        fail("I is not independent")
    r_bits = ((1 << g.n) - 1) & ~(cert.I.bits | cert.K.bits | cert.S_j.bits)
    nh = 0
    for h in iter_bits(cert.H.bits):
        nh |= g.adj[h]
    if cert.NH.bits != nh & r_bits:
        fail("NH is not N(H) restricted to the residual set")
    if cert.size_accounting != (cert.H.size, cert.NH.size, cert.S_j.size):
        fail("size accounting out of sync")
    if sched is not None:
        h_size = _printable_h_size(sched)
        if h_size is None:
            fail(f"|H|={cert.H.size} but schedule forces (t-1)*C(k,s)+1, too many digits to print")
        if cert.H.size != h_size:
            fail(f"|H|={cert.H.size} but schedule forces {h_size}")
        if cert.I_j.size != sched.k:
            fail(f"|I_j|={cert.I_j.size} but schedule samples k={sched.k}")
        if not 1 <= cert.bin_index <= len(sched.bins):
            fail(f"bin index {cert.bin_index} outside schedule")
        lo, hi = sched.bins[cert.bin_index - 1]
        for v in iter_bits(cert.S_j.bits):
            d = (g.adj[v] & cert.I.bits).bit_count()
            if not lo <= d < hi:
                fail(f"vertex {v} with I-degree {d} outside bin [{lo},{hi})")
        if cert.K != build_K(g, cert.I_j, sched.s, sched.t):
            fail("K differs from the common-neighborhood union of I_j")


def replay_check(g: Graph, cert: HittingCertificate, sched: Optional[ParamSchedule] = None) -> bool:
    """Reproduce the certificate from (g, sched, seed) and compare.

    Uniform-sample certificates cannot be re-derived from the record
    alone, so they replay as a verification of T.
    """
    if cert.mode == MODE_LOW_DEGREE:
        if cert.center is None:
            return False
        return closed_neighborhood_hitting(g, cert.center, seed=cert.seed) == cert
    if cert.mode == MODE_UNIFORM_SAMPLE:
        return verify_hitting_set(g, cert.T)
    if sched is None:
        raise PreconditionError(f"replaying a {cert.mode} certificate needs its schedule")
    if cert.seed is None:
        return False
    rebuilt = construct_hitting_set(
        g, sched, cert.seed, allow_trivial=cert.mode == MODE_TRIVIAL
    )
    return rebuilt == cert
