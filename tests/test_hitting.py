from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from hitlab.analysis import resolve_schedule
from hitlab.errors import (
    FreenessViolationError,
    GraphFormatError,
    InfeasibleParamsError,
    PreconditionError,
    VerificationFailure,
)
from hitlab.graph import Graph, VertexSet, gen_c4_free_process, gen_cluster, gen_cycle, gen_gnp, gen_path, replace
from hitlab.hitting import (
    MAX_BINS,
    MODE_LOW_DEGREE,
    MODE_SAMPLED_CORE,
    MODE_TRIVIAL,
    MODE_UNIFORM_SAMPLE,
    HittingCertificate,
    ParamSchedule,
    _draw_bits,
    asymptotic_schedule,
    auto_bins,
    bin_and_select,
    budget,
    build_K,
    certificate_from_text,
    certificate_to_text,
    choose_H,
    closed_neighborhood_hitting,
    construct_hitting_set,
    min_hitting_set,
    replay_check,
    residual_edges,
    sample_Ij,
    sample_hitting_set,
    size_bound_check,
    validate_certificate,
    verify_hitting_set,
)
from hitlab.mis import alpha_with_witness, enumerate_mis
from helpers import (
    address_space_cap,
    all_hit,
    brute_min_hitting,
    gen_interval,
    gen_split,
    interval_alpha,
    random_gnp_corpus,
    ref_bin_and_select,
    ref_min_hitting_set,
    ref_sample_hitting_set,
    shuffled_union,
    split_alpha,
)

UNIT_BIN = ((1.0, 2.0),)
P10_SCHED = ParamSchedule(s=2, t=2, delta=0.15, k=2, bins=((2.0, 3.0), (1.0, 2.0)))


def simple_sched(**kw):
    base = dict(s=2, t=2, delta=0.5, k=2, bins=UNIT_BIN)
    base.update(kw)
    return ParamSchedule(**base)


class TestParamSchedule:
    def test_h_size(self):
        assert simple_sched().h_size == 2
        assert ParamSchedule(s=2, t=3, delta=0.5, k=4, bins=UNIT_BIN).h_size == 2 * 6 + 1

    def test_rejects_bad_sides(self):
        with pytest.raises(PreconditionError):
            simple_sched(s=3, t=2)
        with pytest.raises(PreconditionError):
            simple_sched(s=0, t=2)
        with pytest.raises(PreconditionError, match="integers"):
            simple_sched(s=1.5, t=2)

    def test_rejects_bad_delta_and_c(self):
        for delta in (0.0, 1.0, -0.3):
            with pytest.raises(PreconditionError):
                simple_sched(delta=delta)
        # explicit bins are given, so their delta has no bin bound
        assert simple_sched(delta=1e-8).delta == 1e-8

    def test_rejects_k_below_s(self):
        with pytest.raises(PreconditionError):
            simple_sched(k=1)

    def test_rejects_bad_bins(self):
        with pytest.raises(PreconditionError):
            simple_sched(bins=())
        with pytest.raises(PreconditionError):
            simple_sched(bins=((2.0, 2.0),))
        with pytest.raises(PreconditionError):
            simple_sched(bins=((-1.0, 2.0),))
        # ascending or overlapping runs are both rejected
        with pytest.raises(PreconditionError):
            simple_sched(bins=((1.0, 2.0), (2.0, 3.0)))
        with pytest.raises(PreconditionError):
            simple_sched(bins=((2.0, 4.0), (1.0, 3.0)))

    def test_bins_normalized_to_floats(self):
        sched = simple_sched(bins=((1, 2),))
        assert sched.bins == ((1.0, 2.0),)
        assert sched.num_bins == 1


def test_auto_bins_unit_cover():
    assert auto_bins(0.5) == ((4.0, 5.0), (3.0, 4.0), (2.0, 3.0), (1.0, 2.0))
    assert auto_bins(0.9) == ((3.0, 4.0), (2.0, 3.0), (1.0, 2.0))
    assert len(auto_bins(0.07)) == math.ceil(2 / 0.07)
    with pytest.raises(PreconditionError):
        auto_bins(0.0)
    # past MAX_BINS bins is refused before any is built (1e-8 asks for 2e8;
    # under the cap, building them fails with MemoryError instead)
    for delta in (1e-8, 1.9999 / MAX_BINS, 5e-324):
        with address_space_cap(), pytest.raises(PreconditionError, match="bins"):
            auto_bins(delta)


class TestAsymptoticSchedule:
    def test_desk_scale_is_never_feasible(self):
        for n in (10, 1000, 10**6, 10**9):
            sched = asymptotic_schedule(n, 2, 2, 0.5)
            assert not sched.feasible
            assert sched.num_bins == 4
            assert len(sched.log_ks) == 4

    def test_log_values_follow_the_powers(self):
        n = 10**6
        sched = asymptotic_schedule(n, 2, 2, 0.9)
        ln_n, ln_ln = math.log(n), math.log(math.log(n))
        assert sched.log_ks[0] == pytest.approx(20**2 * ln_ln)
        lo, hi = sched.log_bins[0]
        assert lo == pytest.approx(ln_n - 20**3 * ln_ln)
        assert hi == pytest.approx(ln_n - 20 * ln_ln)

    def test_huge_exponents_saturate_instead_of_overflowing(self):
        sched = asymptotic_schedule(10**6, 3, 3, 0.005)
        assert sched.num_bins == 400
        assert any(v == math.inf for v in sched.log_ks)
        assert not sched.feasible
        # 10*s past the float range: the base of the powers is inf
        sched = asymptotic_schedule(3, 10**400, 10**400, 0.5)
        assert sched.log_ks == (math.inf,) * 4 and sched.log_bins == ((-math.inf, -math.inf),) * 4

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            asymptotic_schedule(2, 2, 2, 0.5)
        with pytest.raises(PreconditionError):
            asymptotic_schedule(100, 2, 2, 1.0)
        with pytest.raises(PreconditionError, match="1 <= s <= t"):
            asymptotic_schedule(100, 3, 2, 0.5)
        with address_space_cap(), pytest.raises(PreconditionError, match="bins"):
            asymptotic_schedule(100, 2, 2, 1e-8)


class TestClosedNeighborhood:
    def test_c5_center_zero(self, c5):
        cert = closed_neighborhood_hitting(c5, 0, seed=7)
        assert cert.mode == MODE_LOW_DEGREE
        assert cert.center == 0
        assert cert.T.members() == (0, 1, 4)
        assert verify_hitting_set(c5, cert.T)
        with pytest.raises(PreconditionError, match="no residual set in mode 'low-degree'"):
            residual_edges(c5, cert)

    def test_any_center_hits_everything(self):
        # a MIS avoiding N[v] could absorb v, so every center works
        for g in random_gnp_corpus(12, 4, 10, seed=5):
            v = random.Random(g.n).randrange(g.n)
            cert = closed_neighborhood_hitting(g, v)
            assert verify_hitting_set(g, cert.T)

    def test_center_range_checked(self, c5):
        with pytest.raises(PreconditionError):
            closed_neighborhood_hitting(c5, 5)


class TestC5Trace:
    """The worked 5-cycle example, frozen end to end."""

    def test_full_pipeline(self, c5):
        sched = simple_sched()  # delta 1/2 keeps the min-degree shortcut off
        cert = construct_hitting_set(c5, sched, seed=7)
        assert cert.mode == MODE_SAMPLED_CORE
        assert cert.I.members() == (0, 2)
        assert cert.bin_index == 1
        assert cert.S_j.members() == (3, 4)
        assert cert.I_j.members() == (0, 2)
        assert cert.K.members() == (1,)
        assert cert.H.members() == (0, 2)
        assert cert.NH.size == 0
        assert cert.T.members() == (0, 2, 3, 4)
        assert cert.size_accounting == (2, 0, 2)
        assert verify_hitting_set(c5, cert.T)
        assert residual_edges(c5, cert) == 0
        validate_certificate(c5, cert, sched)

    def test_seed_only_moves_the_sample(self, c5):
        # T is a hitting set for every seed; here even |T| is stable
        sched = simple_sched()
        for seed in range(10):
            cert = construct_hitting_set(c5, sched, seed=seed)
            assert verify_hitting_set(c5, cert.T)
            assert cert.T.size == 4

    def test_high_delta_takes_the_shortcut(self, c5):
        cert = construct_hitting_set(c5, simple_sched(delta=0.9), seed=7)
        assert cert.mode == MODE_LOW_DEGREE
        assert cert.T.members() == (0, 1, 4)


class TestPath10Trace:
    SCHED = ParamSchedule(s=2, t=2, delta=0.15, k=2, bins=((2.0, 3.0), (1.0, 2.0)))

    def test_binning_and_selection(self, p10):
        cert = construct_hitting_set(p10, self.SCHED, seed=1)
        assert cert.mode == MODE_SAMPLED_CORE
        assert cert.I.members() == (0, 2, 4, 6, 8)
        # outside degrees into I: 1,3,5,7 have two I-neighbors, 9 has one
        assert cert.bin_index == 2
        assert cert.S_j.members() == (9,)

    def test_every_seed_verifies_and_audits(self, p10):
        for seed in range(10):
            cert = construct_hitting_set(p10, self.SCHED, seed=seed)
            assert verify_hitting_set(p10, cert.T)
            validate_certificate(p10, cert, self.SCHED)
            e = residual_edges(p10, cert)
            assert size_bound_check(cert, self.SCHED, e)


def test_bin_and_select_pigeonhole():
    for g in (gen_path(17), gen_cycle(12), gen_c4_free_process(18, 28, 3)):
        alpha, i_set = alpha_with_witness(g)
        sched = simple_sched(bins=auto_bins(0.5))
        j, s_j = bin_and_select(g, i_set, sched)
        assert 1 <= j <= sched.num_bins
        assert s_j.size <= (g.n - alpha) / sched.num_bins
        # the chosen bin is a complete degree class
        lo, hi = sched.bins[j - 1]
        for v in range(g.n):
            if v in i_set:
                continue
            d = (g.adj[v] & i_set.bits).bit_count()
            assert ((v in s_j) == (lo <= d < hi))


def test_bin_and_select_matches_the_scan_of_every_bin():
    # descending bins with gaps between them, so some degrees fall in no bin
    rng = random.Random(17)
    cases = []
    for g in random_gnp_corpus(40, 4, 30, seed=19):
        cuts = sorted(rng.sample(range(2 * g.n + 2), 2 * rng.randint(1, 6)), reverse=True)
        bins = [(cuts[i + 1] / 2, cuts[i] / 2) for i in range(0, len(cuts), 2)]
        cases.append((g, alpha_with_witness(g)[1], simple_sched(bins=bins)))
    path = gen_path(2000)
    auto = resolve_schedule(path, {"mode": "auto", "s": 2, "t": 2, "k": 2})
    assert auto.num_bins > 2000
    cases.append((path, alpha_with_witness(path)[1], auto))
    for g, i_set, sched in cases:
        assert bin_and_select(g, i_set, sched) == ref_bin_and_select(g, i_set, sched)


class TestSampleIj:
    def test_subset_and_size(self):
        i_set = VertexSet.of(12, [0, 3, 5, 7, 9, 11])
        for seed in range(8):
            i_j = sample_Ij(i_set, 3, seed)
            assert i_j.size == 3 and i_j.issubset(i_set)

    def test_deterministic(self):
        i_set = VertexSet.of(12, [0, 3, 5, 7, 9, 11])
        assert sample_Ij(i_set, 3, 42) == sample_Ij(i_set, 3, 42)

    def test_bad_k(self):
        i_set = VertexSet.of(5, [0, 2])
        with pytest.raises(PreconditionError):
            sample_Ij(i_set, 3, 0)
        with pytest.raises(PreconditionError):
            sample_Ij(i_set, -1, 0)

    def test_draw_is_random_sample(self):
        # the one draw makes Random.sample's getrandbits calls: the same
        # subset and the same generator state, on both of its branches,
        # with one generator reused as sample_hitting_set reuses it
        for n in [*range(30), 40, 64, 100, 300]:
            for k in sorted({k for k in (0, 1, 2, 3, 5, 6, 7, 12, n // 2, n) if k <= n}):
                for seed in range(40):
                    want_rng, got_rng = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        want = sum(1 << v for v in want_rng.sample(range(n), k))
                        assert _draw_bits(got_rng, range(n), k) == want, (n, k, seed)
                    assert got_rng.getstate() == want_rng.getstate(), (n, k, seed)

    def test_matches_random_sample_of_the_members(self):
        for n, ids in ((12, [0, 3, 5, 7, 9, 11]), (120, range(1, 120, 2)), (200, range(0, 200, 3))):
            i_set = VertexSet.of(n, ids)
            for k in sorted({1, 2, 3, min(7, i_set.size), i_set.size}):
                for seed in range(20):
                    want = random.Random(seed).sample(i_set.members(), k)
                    assert sample_Ij(i_set, k, seed) == VertexSet.of(n, want)


class TestBuildK:
    def test_c5_common_neighborhood(self, c5):
        k_set = build_K(c5, VertexSet.of(5, [0, 2]), 2, 2)
        assert k_set.members() == (1,)

    def test_matches_threshold_identity(self):
        # K is exactly the vertices with >= s neighbors inside I_j
        for seed in range(6):
            g = gen_c4_free_process(16, 24, seed)
            _, i_set = alpha_with_witness(g)
            i_j = sample_Ij(i_set, min(3, i_set.size), seed)
            if i_j.size < 2:
                continue
            k_set = build_K(g, i_j, 2, 2)
            expect = [v for v in range(g.n) if (g.adj[v] & i_j.bits).bit_count() >= 2]
            assert k_set.members() == tuple(expect)

    def test_freeness_violation_carries_witness(self):
        c4 = gen_cycle(4)
        with pytest.raises(FreenessViolationError) as info:
            build_K(c4, VertexSet.of(4, [0, 2]), 2, 2)
        emb = info.value.witness
        assert emb.side_a == (0, 2) and emb.side_b == (1, 3)
        assert emb.check(c4)

    def test_preconditions(self, c5):
        with pytest.raises(PreconditionError):
            build_K(c5, VertexSet.of(5, [0]), 2, 2)
        with pytest.raises(PreconditionError):
            build_K(c5, VertexSet.of(5, [0, 1]), 2, 2)  # not independent


class TestChooseH:
    def test_lowest_residual_degree_first(self, p10):
        i_set = VertexSet.of(10, [0, 2, 4, 6, 8])
        r_set = VertexSet.of(10, [3, 5, 7])
        # residual degrees: 0->0, 2->1, 4->2, 6->2, 8->1
        assert choose_H(p10, i_set, r_set, 2).members() == (0, 2)
        assert choose_H(p10, i_set, r_set, 4).members() == (0, 2, 4, 8)

    def test_averaging_inequality_exact(self):
        for g in random_gnp_corpus(15, 6, 12, seed=21):
            alpha, i_set = alpha_with_witness(g)
            outside = i_set.complement()
            h_size = max(1, alpha // 2)
            h_set = choose_H(g, i_set, outside, h_size)
            e = sum((g.adj[v] & outside.bits).bit_count() for v in i_set)
            chosen = sum((g.adj[v] & outside.bits).bit_count() for v in h_set)
            assert Fraction(chosen) <= Fraction(h_size * e, alpha)

    def test_too_large_h_is_infeasible(self, c5):
        i_set = VertexSet.of(5, [0, 2])
        with pytest.raises(InfeasibleParamsError):
            choose_H(c5, i_set, VertexSet.empty(5), 3)

    def test_overlap_rejected(self, c5):
        with pytest.raises(PreconditionError):
            choose_H(c5, VertexSet.of(5, [0, 2]), VertexSet.of(5, [2]), 1)


class TestConstructModes:
    def test_trivial_fallback_on_clique(self):
        k4 = gen_cluster([4])
        sched = simple_sched()  # h_size 2 > alpha 1
        with pytest.raises(InfeasibleParamsError):
            construct_hitting_set(k4, sched, seed=0)
        cert = construct_hitting_set(k4, sched, seed=0, allow_trivial=True)
        assert cert.mode == MODE_TRIVIAL
        assert cert.T == VertexSet.full(4)
        assert verify_hitting_set(k4, cert.T)
        validate_certificate(k4, cert)

    def test_k_larger_than_alpha_is_infeasible(self, c5):
        with pytest.raises(InfeasibleParamsError):
            construct_hitting_set(c5, simple_sched(k=3), seed=0)

    def test_freeness_violation_surfaces(self):
        c4 = gen_cycle(4)
        with pytest.raises(FreenessViolationError):
            construct_hitting_set(c4, simple_sched(delta=0.4), seed=0)

    @pytest.mark.parametrize("kind, n", [("split", 200), ("split", 400), ("interval", 200), ("interval", 500)])
    def test_constructed_certificates_verify_at_large_n(self, kind, n):
        # split and interval graphs have no induced C4 = K_{2,2}, and their
        # closed forms for alpha share no code with hitlab.mis
        if kind == "split":
            g = gen_split(n, 0.3, seed=n)
            alpha = split_alpha(g)
        else:
            g, spans = gen_interval(n, seed=n)
            alpha = interval_alpha(spans)
        sched = resolve_schedule(g, {"mode": "auto", "s": 2, "t": 2, "k": 2})
        cert = construct_hitting_set(g, sched, seed=n)
        assert cert.mode == MODE_SAMPLED_CORE
        assert cert.I.size == alpha
        assert verify_hitting_set(g, cert.T)


class TestMinHittingSet:
    def test_clique_needs_everything(self):
        for q in range(1, 7):
            size, witness = min_hitting_set(gen_cluster([q]))
            assert size == q and witness == VertexSet.full(q)

    def test_c5_closed_form(self, c5):
        assert min_hitting_set(c5) == (3, VertexSet.of(5, [0, 1, 2]))

    def test_cluster_min_clique(self):
        size, witness = min_hitting_set(gen_cluster([4, 2, 3]))
        assert size == 2
        assert witness.members() == (4, 5)  # the 2-clique block

    def test_kernel_shortcut(self):
        star = gen_cluster([1, 3])  # vertex 0 isolated, in every MIS
        size, witness = min_hitting_set(star)
        assert size == 1 and witness.members() == (0,)

    def test_path_p4_lex_least(self):
        assert min_hitting_set(gen_path(4)) == (2, VertexSet.of(4, [0, 1]))

    def test_matches_brute_force(self):
        for g in random_gnp_corpus(15, 4, 10, seed=31):
            size, witness = min_hitting_set(g)
            assert size == brute_min_hitting(g)
            assert witness.size == size
            assert verify_hitting_set(g, witness)

    def test_witness_is_lexicographically_least(self):
        for g in random_gnp_corpus(8, 4, 9, seed=41):
            size, witness = min_hitting_set(g)
            fam = enumerate_mis(g)
            # no hitting set of the same size precedes it lexicographically
            from itertools import combinations

            best = None
            for combo in combinations(range(g.n), size):
                cand = VertexSet.of(g.n, combo)
                if all_hit(fam, cand):
                    best = cand
                    break
            assert witness == best


    def test_matches_the_enumeration_solver(self):
        graphs = random_gnp_corpus(40, 4, 12, seed=5)
        # on these two the first minimum cover the search finds is not the
        # lex-least one
        graphs += [random_gnp_corpus(40, 4, 12, seed=18)[10], random_gnp_corpus(40, 4, 12, seed=37)[5]]
        graphs += [gen_cluster(sizes) for sizes in ([4] * 6, [5] * 5, [6] * 4, [2, 3, 4, 5, 6])]
        graphs += [gen_cluster([2] * (n // 2)) for n in (22, 24, 26)]
        graphs += [gen_cluster([3] * (n // 3)) for n in (21, 24, 27)]
        # odd cycles with h = 3, where a pruning bound could matter
        graphs += [gen_cycle(n) for n in (25, 47, 61)] + [gen_path(n) for n in (20, 24, 28)]
        for m_frac in (0.1, 0.2):
            for n in (24, 30):
                graphs += [gen_c4_free_process(n, round(m_frac * n * (n - 1) / 2), s) for s in (0, 1)]
        for g in graphs:
            assert min_hitting_set(g) == ref_min_hitting_set(g)

    def test_empty_graph_is_a_precondition(self):
        with pytest.raises(PreconditionError, match="empty graph"):
            min_hitting_set(Graph.from_edges(0, []))

    def test_disjoint_unions_match_the_enumeration_solver(self):
        rng = random.Random(15)
        for _ in range(60):
            parts = [gen_gnp(rng.randint(1, 6), rng.choice((0.2, 0.4, 0.6, 0.8)), rng.randrange(1 << 30))
                     for _ in range(rng.randint(1, 4))]
            g = shuffled_union(parts, rng)
            assert min_hitting_set(g) == ref_min_hitting_set(g)

    @pytest.mark.parametrize(
        "g,want",
        [
            # three components with h = 2: {1, 2} is the least as an integer
            (Graph.from_edges(6, [(0, 5), (1, 2), (3, 4)]), [0, 5]),
            # {7} already hits the first component found; {1} hits its own
            (Graph.from_edges(9, [(0, 7), (0, 8)]), [1]),
            # the first component found is the K5, with h = 5
            (gen_cluster([5, 3, 4, 3]), [5, 6, 7]),
        ],
        ids=["not-the-integer-least", "not-the-first-component", "not-the-first-clique"],
    )
    def test_witness_is_the_least_over_the_components(self, g, want):
        assert min_hitting_set(g) == (len(want), VertexSet.of(g.n, want))

    def test_many_components(self):
        # h(q x K_3) = 3 with the lex-least triangle; one loop over the whole
        # graph grows its subfamily with q and needed minutes at q = 100
        assert min_hitting_set(gen_cluster([3] * 300)) == (3, VertexSet.of(900, [0, 1, 2]))


class TestSampleHittingSet:
    def test_matches_the_listing_sampler(self):
        for i, g in enumerate(random_gnp_corpus(40, 4, 12, seed=6)):
            for p in sorted({0, 1, g.n // 3, g.n // 2, g.n}):
                assert sample_hitting_set(g, p, i, 25) == ref_sample_hitting_set(g, p, i, 25)

    def test_c5_deterministic(self, c5):
        a = sample_hitting_set(c5, 3, seed=5, trials=20)
        b = sample_hitting_set(c5, 3, seed=5, trials=20)
        assert a == b
        assert a.union_bound == pytest.approx(5 * (1 - 3 / 5) ** 2)
        assert 0.0 <= a.fail_rate <= 1.0

    def test_full_sample_always_hits(self, c5):
        res = sample_hitting_set(c5, 5, seed=0, trials=4)
        assert res.fail_rate == 0.0 and res.hit_trial == 0
        assert res.hit == VertexSet.full(5)
        cert = res.to_certificate()
        assert cert is not None and verify_hitting_set(c5, cert.T)

    def test_empty_sample_never_hits(self, c5):
        res = sample_hitting_set(c5, 0, seed=0, trials=3)
        assert res.fail_rate == 1.0 and res.hit is None
        assert res.to_certificate() is None

    def test_preconditions(self, c5):
        with pytest.raises(PreconditionError):
            sample_hitting_set(c5, 6, seed=0, trials=1)
        with pytest.raises(PreconditionError):
            sample_hitting_set(c5, 2, seed=0, trials=0)


def test_budget_values():
    assert budget(100, 0.5, 0.5, 2, 2, 2) == pytest.approx(575.0)
    assert budget(10, 0.5, 0.5, 3, 2, 3) < 0
    with pytest.raises(PreconditionError):
        budget(100, 0.6, 0.5, 2, 2, 2)
    with pytest.raises(PreconditionError):
        budget(100, 0.5, 0.0, 2, 2, 2)
    with pytest.raises(PreconditionError):
        budget(100, 0.5, 0.5, 2, 3, 2)


class TestSizeBoundCheck:
    def test_c5_threshold_in_delta(self, c5):
        cert = construct_hitting_set(c5, simple_sched(), seed=7)
        e = residual_edges(c5, cert)
        assert e == 0
        # |T| = 4 against 2 + 0 + 2.5*delta: crosses at delta = 0.8
        assert not size_bound_check(cert, simple_sched(delta=0.5), e)
        assert not size_bound_check(cert, simple_sched(delta=0.79), e)
        assert size_bound_check(cert, simple_sched(delta=0.81), e)
        assert size_bound_check(cert, simple_sched(delta=0.9), e)

    def test_wrong_mode_rejected(self, c5):
        cert = closed_neighborhood_hitting(c5, 0)
        with pytest.raises(PreconditionError):
            size_bound_check(cert, simple_sched(), 0)

    def test_negative_edges_rejected(self, c5):
        cert = construct_hitting_set(c5, simple_sched(), seed=7)
        with pytest.raises(PreconditionError):
            size_bound_check(cert, simple_sched(), -1)


class TestCertificateText:
    def test_round_trip(self, c5):
        cert = construct_hitting_set(c5, simple_sched(), seed=7)
        text = certificate_to_text(cert)
        assert certificate_from_text(text) == cert
        # serialization is canonical
        assert certificate_to_text(certificate_from_text(text)) == text

    def test_low_degree_round_trip(self, c5):
        cert = closed_neighborhood_hitting(c5, 2, seed=3)
        assert certificate_from_text(certificate_to_text(cert)) == cert

    def test_malformed_text(self):
        with pytest.raises(GraphFormatError, match="missing keys"):
            certificate_from_text("mode: trivial\nn: 4\n")
        with pytest.raises(GraphFormatError, match="unknown certificate key"):
            certificate_from_text("what: 3\n")
        with pytest.raises(GraphFormatError, match="expected 'key: value'"):
            certificate_from_text("just words\n")

    def test_duplicate_key(self, c5):
        text = certificate_to_text(construct_hitting_set(c5, simple_sched(), seed=7))
        with pytest.raises(GraphFormatError, match="duplicate"):
            certificate_from_text(text + "mode: trivial\n")


class TestValidateCertificate:
    def test_detects_tampering(self, c5):
        sched = simple_sched()
        cert = construct_hitting_set(c5, sched, seed=7)
        validate_certificate(c5, cert, sched)
        bad_t = replace(cert, T=VertexSet.of(5, [0, 2, 3]))
        with pytest.raises(VerificationFailure, match="T != H"):
            validate_certificate(c5, bad_t)
        # K = {1} -> {1, 3}: vertex 3 is in S_j, so the residual set and NH stay as they were
        bad_k = replace(cert, K=VertexSet.of(5, [1, 3]))
        with pytest.raises(VerificationFailure, match="K differs from the common-neighborhood union of I_j"):
            validate_certificate(c5, bad_k, sched)
        bad_host = replace(cert, n=6)
        with pytest.raises(VerificationFailure, match="host mismatch"):
            validate_certificate(c5, bad_host)

    @pytest.mark.parametrize("k", [14278, 14280, 10**8])
    def test_huge_h_is_sized_before_it_is_printed(self, c5, k):
        # s = t = k/2: |H| = (t-1)*C(k,s)+1 has 4,300 digits at k = 14,278,
        # is past the digit limit at 14,280 and is never computed at 10^8
        cert = construct_hitting_set(c5, simple_sched(), seed=7)
        sched = simple_sched(k=k, s=k // 2, t=k // 2)
        forced = sched.h_size if k == 14278 else "(t-1)*C(k,s)+1, too many digits to print"
        with pytest.raises(VerificationFailure, match=re.escape(f"certificate invalid: |H|=2 but schedule forces {forced}")):
            validate_certificate(c5, cert, sched)
        assert size_bound_check(cert, sched, residual_edges(c5, cert))

    def test_freeness_violation_in_K_raises(self):
        # C4: the common neighborhood {1, 3} of I_j = {0, 2} is independent
        c4 = gen_cycle(4)
        sched = simple_sched()
        i_set = VertexSet.of(4, [0, 2])
        empty = VertexSet.empty(4)
        cert = HittingCertificate(
            mode=MODE_SAMPLED_CORE, n=4, seed=0, T=i_set, I=i_set, bin_index=1, S_j=empty,
            I_j=i_set, K=VertexSet.of(4, [1, 3]), H=i_set, NH=empty, center=None,
            size_accounting=(2, 0, 0),
        )
        with pytest.raises(FreenessViolationError):
            validate_certificate(c4, cert, sched)

    def test_low_degree_center_checked(self, c5):
        cert = closed_neighborhood_hitting(c5, 1)
        validate_certificate(c5, cert)
        with pytest.raises(VerificationFailure, match="T is not the closed neighborhood of the center"):
            validate_certificate(c5, replace(cert, center=2))
        with pytest.raises(VerificationFailure, match="low-degree certificate without center vertex"):
            validate_certificate(c5, replace(cert, center=None))

    def test_trivial_and_unknown_modes_checked(self, c5):
        trivial = replace(closed_neighborhood_hitting(c5, 1), mode=MODE_TRIVIAL, center=None)
        with pytest.raises(VerificationFailure, match="trivial certificate must carry T = V"):
            validate_certificate(c5, trivial)
        validate_certificate(c5, replace(trivial, T=VertexSet.full(5)))
        with pytest.raises(VerificationFailure, match="unknown mode 'bogus'"):
            validate_certificate(c5, replace(trivial, mode="bogus"))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"H": [0, 3, 8]}, "H not inside I"),
            ({"I_j": [3, 6, 8]}, "I_j not inside I"),
            ({"K": [4, 7]}, "K intersects I"),
            ({"S_j": [4, 9]}, "S_j intersects I"),
            ({"I": [0, 2, 4, 5, 6, 8]}, "I is not independent"),
            ({"H": [0, 4, 8]}, "|H|=3 but schedule forces 2"),
            ({"I_j": [4, 6, 8]}, "|I_j|=3 but schedule samples k=2"),
            ({"bin_index": 3}, "bin index 3 outside schedule"),
            ({"bin_index": 0}, "bin index 0 outside schedule"),
            ({"bin_index": 1}, "vertex 9 with I-degree 1 outside bin [2.0,3.0)"),
            ({"K": [5, 7]}, "K differs from the common-neighborhood union of I_j"),
        ],
        ids=[
            "H-outside-I", "Ij-outside-I", "K-meets-I", "Sj-meets-I", "I-not-independent", "H-size", "Ij-size",
            "bin-above", "bin-zero", "Sj-outside-bin", "K-not-rebuilt",
        ],
    )
    def test_each_invariant_refuses_alone(self, p10, fields, message):
        # P_10, seed 0: I = 0 2 4 6 8, S_j = 9 (bin 2), I_j = 6 8, K = 7,
        # H = 0 8, NH = 1, T = 0 1 8 9.  NH, T and the size accounting are
        # rebuilt from the tampered fields, so only the named check fires
        cert = construct_hitting_set(p10, P10_SCHED, seed=0)
        validate_certificate(p10, cert, P10_SCHED)
        sets = {key: VertexSet.of(10, ids) for key, ids in fields.items() if isinstance(ids, list)}
        bad = replace(cert, **{**fields, **sets})
        residual = (bad.I | bad.K | bad.S_j).complement()
        nh = VertexSet.of(10, [v for h in bad.H for v in range(10) if p10.has_edge(h, v)]) & residual
        bad = replace(bad, NH=nh, T=bad.H | nh | bad.S_j, size_accounting=(bad.H.size, nh.size, bad.S_j.size))
        with pytest.raises(VerificationFailure, match=re.escape(f"certificate invalid: {message}")):
            validate_certificate(p10, bad, P10_SCHED)

    def test_nh_and_size_accounting_checked(self, p10):
        cert = construct_hitting_set(p10, P10_SCHED, seed=0)
        with pytest.raises(VerificationFailure, match="size accounting out of sync"):
            validate_certificate(p10, replace(cert, size_accounting=(2, 1, 2)))
        with pytest.raises(VerificationFailure, match="NH is not N\\(H\\) restricted to the residual set"):
            validate_certificate(p10, replace(cert, NH=VertexSet.of(10, [1, 3]), T=VertexSet.of(10, [0, 1, 3, 8, 9])))


class TestReplay:
    def test_sampled_core_replays(self, c5):
        sched = simple_sched()
        cert = construct_hitting_set(c5, sched, seed=7)
        assert replay_check(c5, cert, sched)
        # k = |I| forces the sample, so even a foreign seed replays
        assert replay_check(c5, replace(cert, seed=8), sched)

    def test_seed_tamper_fails_replay(self, p10):
        sched = ParamSchedule(s=2, t=2, delta=0.15, k=2, bins=((2.0, 3.0), (1.0, 2.0)))
        cert = construct_hitting_set(p10, sched, seed=0)
        assert cert.I_j.members() == (6, 8)
        assert replay_check(p10, cert, sched)
        # seed 1 samples I_j = (0, 2), so the claimed trace no longer rebuilds
        assert not replay_check(p10, replace(cert, seed=1), sched)

    def test_sampled_core_needs_schedule(self, c5):
        cert = construct_hitting_set(c5, simple_sched(), seed=7)
        with pytest.raises(PreconditionError):
            replay_check(c5, cert)

    def test_low_degree_replays_without_schedule(self, c5):
        cert = closed_neighborhood_hitting(c5, 0, seed=1)
        assert replay_check(c5, cert)
        assert not replay_check(c5, replace(cert, center=None))

    def test_sampled_core_without_seed_fails_replay(self, c5):
        sched = simple_sched()
        assert not replay_check(c5, replace(construct_hitting_set(c5, sched, seed=7), seed=None), sched)

    def test_uniform_sample_replays_as_a_verification(self, c5):
        cert = sample_hitting_set(c5, 3, seed=5, trials=20).to_certificate()
        assert cert.mode == MODE_UNIFORM_SAMPLE
        assert replay_check(c5, cert)
        assert not replay_check(c5, replace(cert, T=VertexSet.of(5, [0])))
