"""Acceptance gate.

One test per shipped criterion, each ending in a single printed
PASS line with the measured quantities (visible under pytest -s).
Corpora and tolerances are pinned here; nothing is resampled until
a seed below changes.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from helpers import all_hit, brute_mis_family, gen_book, members, petersen, random_gnp_corpus
from hitlab.analysis import (
    analytic_e_bound,
    hypergeom_tail,
    load_config,
    monte_carlo_e,
    records_to_csv,
    resolve_schedule,
    run_experiment,
)
from hitlab.drc import BRANCH_CODEGREE, drc_clique, is_clique, matching_audit
from hitlab.graph import (
    Graph,
    VertexSet,
    gen_c4_free_process,
    gen_cluster,
    gen_cycle,
    gen_path,
)
from hitlab.hitting import (
    MODE_SAMPLED_CORE,
    ParamSchedule,
    certificate_to_text,
    construct_hitting_set,
    min_hitting_set,
    residual_edges,
    sample_hitting_set,
    size_bound_check,
)
from hitlab.mis import alpha_with_witness, enumerate_mis

AUTO_SCHEDULE = {"mode": "auto", "s": 2, "t": 2, "k": 2}

# family cells for the construction corpus: label, builder(seed)
CONSTRUCTION_CELLS = (
    [
        (f"cluster{sizes}", lambda seed, s=sizes: gen_cluster(list(s)))
        for sizes in ((2, 2, 2, 2), (3, 3, 3), (4, 4, 4, 4), (5, 5, 5), (6, 6, 6, 6, 6), (2, 3, 4, 5, 6))
    ]
    + [(f"path{n}", lambda seed, n=n: gen_path(n)) for n in (10, 21, 33, 40)]
    + [(f"cycle{n}", lambda seed, n=n: gen_cycle(n)) for n in (9, 20, 34)]
    + [
        (f"c4free{n}", lambda seed, n=n, m=m: gen_c4_free_process(n, m, seed))
        for n, m in ((10, 8), (16, 21), (22, 41))
    ]
)
CONSTRUCTION_SEEDS = range(32)


def build_construction_runs():
    runs = []
    for label, build in CONSTRUCTION_CELLS:
        for seed in CONSTRUCTION_SEEDS:
            g = build(seed)
            sched = resolve_schedule(g, AUTO_SCHEDULE)
            runs.append((label, g, sched, construct_hitting_set(g, sched, seed)))
    return runs


@pytest.fixture(scope="module")
def construction_runs():
    t0 = time.perf_counter()
    runs = build_construction_runs()
    return runs, time.perf_counter() - t0


def test_criterion_1_every_construction_verifies(construction_runs):
    runs, build_seconds = construction_runs
    t0 = time.perf_counter()
    mis_cache = {}
    failures = 0
    for _, g, _, cert in runs:
        fam = mis_cache.get(g)
        if fam is None:
            fam = mis_cache[g] = enumerate_mis(g)
        if not all_hit(fam, cert.T):
            failures += 1
    elapsed = build_seconds + time.perf_counter() - t0
    assert len(runs) >= 500
    assert all(cert.mode == MODE_SAMPLED_CORE for _, _, _, cert in runs)
    assert failures == 0
    assert elapsed < 300.0
    print(
        f"criterion 1: PASS ({len(runs)} runs across {len(CONSTRUCTION_CELLS)} families, "
        f"{failures} failures, {elapsed:.1f}s)"
    )


def test_criterion_2_solvers_match_subset_dp():
    graphs = random_gnp_corpus(180, 4, 14, 20260825) + random_gnp_corpus(24, 15, 18, 909)
    mismatches = 0
    for g in graphs:
        brute_alpha, brute_masks = brute_mis_family(g)
        alpha, witness = alpha_with_witness(g)
        fam = enumerate_mis(g)
        if alpha != brute_alpha or witness.bits not in brute_masks:
            mismatches += 1
        elif fam.alpha != brute_alpha:
            mismatches += 1
        elif [vs.bits for vs in fam.sets] != sorted(brute_masks, key=members):
            mismatches += 1
    assert len(graphs) >= 200
    assert mismatches == 0
    print(f"criterion 2: PASS ({len(graphs)} random graphs, {mismatches} mismatches)")


def test_criterion_3_closed_forms_exact():
    for q in range(1, 9):
        assert min_hitting_set(gen_cluster([q]))[0] == q
    assert min_hitting_set(gen_cycle(5))[0] == 3
    tuples = 0
    for length in range(1, 5):
        for sizes in combinations_with_replacement(range(1, 6), length):
            g = gen_cluster(list(sizes))
            assert min_hitting_set(g)[0] == min(sizes)
            assert enumerate_mis(g).count == math.prod(sizes)
            tuples += 1
    print(f"criterion 3: PASS (h(K_q) q<=8, h(C5)=3, {tuples} cluster tuples)")


def drc_corpus():
    out = [("book", gen_book(q)) for q in range(2, 22)]
    out += [("clique", gen_cluster([q])) for q in range(2, 10)]
    out += [("path", gen_path(n)) for n in range(3, 13)]
    out += [("cycle", gen_cycle(n)) for n in range(5, 25)]
    out += [
        ("star", Graph.from_edges(q + 1, [(0, i) for i in range(1, q + 1)]))
        for q in range(1, 11)
    ]
    out += [
        ("cluster", gen_cluster(list(sizes)))
        for sizes in (
            (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5),
            (2, 2, 2), (3, 3, 3), (4, 4, 2), (5, 3, 2),
            (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4), (5, 5, 5),
        )
    ]
    out.append(("petersen", petersen()))
    edges = []
    for block in (list(range(6)), [0, 6, 7, 8, 9, 10]):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                edges.append((block[i], block[j]))
    out.append(("two-cliques", Graph.from_edges(11, edges)))
    for n in range(8, 20):
        for frac in (0.15, 0.25):
            for seed in range(5):
                out.append(("process", gen_c4_free_process(n, round(frac * n * (n - 1) / 2), seed)))
    return [(label, g) for label, g in out if g.m >= 1]


def test_criterion_4_drc_always_returns_verified_clique():
    corpus = drc_corpus()
    violations = 0
    codegree_runs = 0
    for _, g in corpus:
        alpha = (2.0 * g.m) / (g.n * (g.n - 1)) * (1.0 - 1e-12)
        trace = drc_clique(g, alpha)
        ok = is_clique(g, trace.clique)
        ok = ok and trace.x in trace.clique.members()
        ok = ok and trace.clique.size == trace.U.size - 2 * len(trace.matching) + 1
        ok = ok and matching_audit(trace)
        if trace.branch == BRANCH_CODEGREE:
            codegree_runs += 1
        if not ok:
            violations += 1
    assert len(corpus) >= 200
    assert violations == 0
    assert codegree_runs > 0  # the early branch is genuinely exercised
    print(
        f"criterion 4: PASS ({len(corpus)} instances, {violations} violations, "
        f"{codegree_runs} codegree-branch runs)"
    )


def test_criterion_5_probability_engine():
    # Monte Carlo vs the exact tail on a fixed grid
    rng = random.Random(2026)
    draws = 10**4
    points = 0
    worst_z = 0.0
    for i_size in (6, 9, 12, 15):
        for d in range(0, i_size + 1, 3):
            for k in (2, 3, 5):
                for s in (1, 2, 3):
                    p = float(hypergeom_tail(i_size, d, k, s))
                    hits = 0
                    for _ in range(draws):
                        x = sum(1 for v in rng.sample(range(i_size), k) if v < d)
                        hits += x <= s - 1
                    freq = hits / draws
                    sigma = math.sqrt(p * (1 - p) / draws)
                    if sigma == 0.0:
                        assert freq == p, (i_size, d, k, s)
                    else:
                        z = abs(freq - p) / sigma
                        worst_z = max(worst_z, z)
                        assert z <= 3.0, (i_size, d, k, s, freq, p)
                    points += 1
    assert points >= 100

    # two evaluation paths of the expectation bounds agree to 1e-9
    pairs = 0
    for n in (20, 60):
        for c in (0.2, 0.45):
            for k, s in ((2, 1), (3, 2), (5, 3)):
                theta_hi = 0.8 * c * n
                theta_lo = theta_hi / 2.0
                sched = ParamSchedule(
                    s=s, t=s + 1, delta=0.5, k=k, bins=((theta_lo, theta_hi),)
                )
                a_s, a_l = analytic_e_bound(n, c, sched, 1)
                q = theta_hi / (c * n)
                direct_s = theta_lo * (1 - c) * n
                direct_l = c * (1 - c) * n * n * sum(
                    k**x * (1 - q) ** (k - x) for x in range(s)
                )
                assert math.exp(a_s) == pytest.approx(direct_s, rel=1e-9)
                assert math.exp(a_l) == pytest.approx(direct_l, rel=1e-9)
                pairs += 1
    print(
        f"criterion 5: PASS ({points} grid points x {draws} draws, worst z={worst_z:.2f}; "
        f"{pairs} two-path bound pairs at 1e-9)"
    )


def test_criterion_6_sampling_failure_rate():
    g = gen_cluster([3, 3, 3])
    trials = 10**4
    res = sample_hitting_set(g, 6, 2026, trials)
    exact = 27 / 84  # leftover triple must take one vertex per clique
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert res.trials == trials
    assert res.fail_rate <= res.union_bound + 3 * sigma
    assert abs(res.fail_rate - exact) <= 3 * sigma
    print(
        f"criterion 6: PASS (fail rate {res.fail_rate:.4f}, exact {exact:.4f}, "
        f"union bound {res.union_bound:.4f}, 3 sigma {3 * sigma:.4f})"
    )


def test_criterion_7_averaging_audit(construction_runs):
    runs, _ = construction_runs
    audited = 0
    for _, g, sched, cert in runs:
        if cert.mode != MODE_SAMPLED_CORE:
            continue
        e = residual_edges(g, cert)
        assert size_bound_check(cert, sched, e)
        r_bits = ((1 << g.n) - 1) & ~(cert.I.bits | cert.K.bits | cert.S_j.bits)
        h_load = sum((g.adj[v] & r_bits).bit_count() for v in cert.H)
        assert Fraction(h_load) <= Fraction(sched.h_size * e, cert.I.size)
        audited += 1
    assert audited == len(runs)
    print(f"criterion 7: PASS ({audited} certificates, size and averaging bounds exact)")


DETERMINISM_CONFIG = {
    "families": [
        {"kind": "cluster", "sizes": [3, 3, 3]},
        {"kind": "path"},
        {"kind": "cycle"},
        {"kind": "c4free", "m_frac": 0.2},
    ],
    "n_values": [9, 12],
    "seeds": [1, 2, 3],
    "schedule": AUTO_SCHEDULE,
}


def test_criterion_8_byte_identical_reruns(construction_runs):
    runs, _ = construction_runs
    rebuilt = build_construction_runs()
    assert len(rebuilt) == len(runs)
    for (_, _, _, first), (_, _, _, second) in zip(runs, rebuilt):
        assert certificate_to_text(first) == certificate_to_text(second)

    cfg = load_config(DETERMINISM_CONFIG)
    first_csv = records_to_csv(run_experiment(cfg))
    mc_first = monte_carlo_e(
        gen_path(10),
        VertexSet.of(10, [0, 2, 4, 6, 8]),
        ParamSchedule(s=2, t=2, delta=0.15, k=2, bins=((2.0, 3.0), (1.0, 2.0))),
        trials=64,
        seed=5,
    )
    second_csv = records_to_csv(run_experiment(cfg))
    mc_second = monte_carlo_e(
        gen_path(10),
        VertexSet.of(10, [0, 2, 4, 6, 8]),
        ParamSchedule(s=2, t=2, delta=0.15, k=2, bins=((2.0, 3.0), (1.0, 2.0))),
        trials=64,
        seed=5,
    )
    assert first_csv == second_csv
    assert mc_first == mc_second
    rows = len(first_csv.splitlines()) - 1
    print(
        f"criterion 8: PASS ({len(runs)} certificates byte-stable, "
        f"{rows}-row CSV identical across two runs)"
    )
