from __future__ import annotations

import inspect
import json
import math
import os
import random
import sys

import pytest

from hitlab.errors import EnumerationCapError, PreconditionError
from hitlab.graph import Graph, VertexSet, gen_c4_free_process, gen_cluster, gen_cycle, gen_gnp, gen_path
import hitlab.mis as mis
from hitlab.mis import (
    MisFamily,
    _alpha,
    _branch_vertices,
    _clique_cover_bound,
    _greedy_mis,
    _independent_sets,
    _max_independent,
    _peel,
    alpha_with_witness,
    enumerate_mis,
    first_missed,
    has_independent,
    independence_check,
    kernel,
)
from helpers import (
    brute_mis_family,
    members,
    petersen,
    random_gnp_corpus,
    ref_alpha_colour,
    ref_clique_cover_bound,
    ref_find_independent_subset,
    ref_first_missed,
    ref_greedy_mis,
    ref_iter_mis,
    ref_max_independent,
)


def assert_matches_brute(g: Graph):
    alpha, masks = brute_mis_family(g)
    got_alpha, witness = alpha_with_witness(g)
    assert got_alpha == alpha
    assert witness.size == alpha
    assert independence_check(g, witness)
    fam = enumerate_mis(g)
    assert fam.alpha == alpha
    assert sorted(vs.bits for vs in fam.sets) == sorted(masks)


@pytest.mark.parametrize(
    "builder,expected_alpha",
    [
        (lambda: gen_path(1), 1),
        (lambda: gen_path(2), 1),
        (lambda: gen_path(7), 4),
        (lambda: gen_path(10), 5),
        (lambda: gen_cycle(5), 2),
        (lambda: gen_cycle(8), 4),
        (lambda: gen_cluster([4]), 1),
        (lambda: gen_cluster([3, 3, 3]), 3),
        (lambda: gen_gnp(9, 0.0, 0), 9),
        (lambda: gen_gnp(6, 1.0, 0), 1),
        (petersen, 4),
    ],
)
def test_alpha_closed_forms(builder, expected_alpha):
    g = builder()
    alpha, witness = alpha_with_witness(g)
    assert alpha == expected_alpha
    assert independence_check(g, witness) and witness.size == alpha


def test_alpha_rejects_empty_graph():
    with pytest.raises(PreconditionError):
        alpha_with_witness(Graph(0, ()))


def test_enumerate_c5_canonical_order(c5):
    fam = enumerate_mis(c5)
    assert fam.alpha == 2 and fam.count == 5
    got = [vs.members() for vs in fam.sets]
    assert got == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    # canonical order is lexicographic on the member tuples
    assert got == sorted(got)


def test_enumerate_cluster_counts():
    for sizes in ([2, 3], [3, 3, 3], [2, 2, 2, 2], [5, 4]):
        fam = enumerate_mis(gen_cluster(sizes))
        assert fam.alpha == len(sizes)
        assert fam.count == math.prod(sizes)


def test_enumerate_respects_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_mis(gen_path(10), cap=9)
    assert enumerate_mis(gen_path(10), cap=10).count == 6


def test_mis_family_hit_queries(c5):
    fam = enumerate_mis(c5)
    assert fam.all_hit(VertexSet.of(5, [0, 1, 2]))
    assert not fam.all_hit(VertexSet.of(5, [0]))
    assert first_missed(c5, VertexSet.of(5, [0])) == VertexSet.of(5, [1, 3])
    assert first_missed(c5, VertexSet.of(5, [0, 1, 2])) is None


def test_alpha_oracle_matches_subset_dp_on_hit_queries():
    # first_missed and kernel ask alpha only; the DP lists every set
    rng = random.Random(5)
    for g in random_gnp_corpus(200, 1, 14, seed=2024):
        _, masks = brute_mis_family(g)
        full = (1 << g.n) - 1
        for t_bits in (rng.getrandbits(g.n), 0, full):
            missed = [m for m in masks if m & t_bits == 0]
            expect = min(missed, key=members) if missed else None
            got = first_missed(g, VertexSet(g.n, t_bits))
            assert (got.bits if got else None) == expect
        and_all = full
        for m in masks:
            and_all &= m
        assert kernel(g).bits == and_all


def test_kernel_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert kernel(star).members() == (1, 2, 3)  # unique MIS
    assert kernel(gen_path(4)).size == 0  # {0,2},{0,3},{1,3} intersect empty
    assert kernel(gen_path(3)).members() == (0, 2)


def test_independence_check(c5):
    assert independence_check(c5, VertexSet.of(5, [0, 2]))
    assert not independence_check(c5, VertexSet.of(5, [0, 1]))
    assert independence_check(c5, VertexSet.empty(5))


def test_oracle_equivalence_random_sample():
    # a slice of the acceptance corpus for quick runs
    for g in random_gnp_corpus(25, 4, 11, seed=77):
        assert_matches_brute(g)


def test_enumerate_order_is_sorted_by_members():
    for g in random_gnp_corpus(10, 5, 10, seed=13):
        fam = enumerate_mis(g)
        got = [vs.members() for vs in fam.sets]
        assert got == sorted(got)


def test_misfamily_value_object(c5):
    fam = enumerate_mis(c5)
    again = enumerate_mis(c5)
    assert fam == again
    assert isinstance(fam, MisFamily)
    assert fam.host_n == 5


def test_alpha_of_a_long_path_stays_within_the_recursion_limit():
    # forced inclusions take about n/2 vertices one after another
    n = 2 * sys.getrecursionlimit() + 100
    alpha, witness = alpha_with_witness(gen_path(n))
    assert alpha == (n + 1) // 2 == witness.size
    assert independence_check(gen_path(n), witness)


def assert_matches_reference(adj, pool):
    assert _greedy_mis(adj, pool) == ref_greedy_mis(adj, pool)
    cover = ref_clique_cover_bound(adj, pool)
    for limit in range(-1, cover + 2):
        assert (_clique_cover_bound(adj, pool, limit) <= limit) == (cover <= limit)
    assert _max_independent(adj, pool) == ref_max_independent(adj, pool)


def test_incremental_kernels_match_the_reference_on_random_pools():
    rng = random.Random(29)
    for g in [*random_gnp_corpus(60, 1, 30, seed=31), gen_cluster([3] * 20)]:
        full = (1 << g.n) - 1
        for pool in [full] + [rng.getrandbits(g.n) for _ in range(3)]:
            assert_matches_reference(g.adj, pool)


@pytest.mark.parametrize("n", [56, 60, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_incremental_kernels_match_the_reference_on_c4free(n, seed):
    g = gen_c4_free_process(n, round(0.1 * n * (n - 1) / 2), seed)
    assert_matches_reference(g.adj, (1 << n) - 1)


def test_the_walk_matches_the_reference_where_the_greedy_set_falls_short():
    # only pools whose greedy set is not maximum reach the walk
    rng = random.Random(71)
    graphs = random_gnp_corpus(100, 20, 40, seed=73)
    graphs += [gen_c4_free_process(n, round(0.15 * n * (n - 1) / 2), seed) for n in (24, 32, 40, 48) for seed in range(6)]
    walks = 0
    for g in graphs:
        full = (1 << g.n) - 1
        for pool in [full] + [rng.getrandbits(g.n) | rng.getrandbits(g.n) for _ in range(3)]:
            alpha, bits = ref_max_independent(g.adj, pool)
            if _greedy_mis(g.adj, pool).bit_count() < alpha:
                walks += 1
                assert _max_independent(g.adj, pool) == (alpha, bits)
    assert walks >= 100


def rescan_peel(adj, pool: int) -> tuple[int, int]:
    # take the smallest-id pool vertex of pool degree at most 1, rescanning
    # the whole pool after every take
    taken = 0
    while True:
        low = next((1 << v for v in members(pool) if (adj[v] & pool).bit_count() <= 1), 0)
        if not low:
            return taken, pool
        taken |= low
        pool &= ~(adj[low.bit_length() - 1] | low)


def test_peel_takes_what_a_rescan_takes_and_keeps_alpha():
    rng = random.Random(83)
    graphs = random_gnp_corpus(60, 1, 16, seed=89)
    graphs += [gen_gnp(n, 2.5 / n, seed) for n in (8, 12, 16) for seed in range(6)]
    graphs += [gen_path(9), gen_cycle(11), gen_cluster([2, 1, 3, 2])]
    for g in graphs:
        full = (1 << g.n) - 1
        for pool in (full, rng.getrandbits(g.n), rng.getrandbits(g.n) | rng.getrandbits(g.n)):
            taken, rest = _peel(g.adj, pool)
            assert (taken, rest) == rescan_peel(g.adj, pool)
            assert independence_check(g, VertexSet(g.n, taken))
            assert not rest & taken and not (rest | taken) & ~pool
            for v in members(taken):
                assert not g.adj[v] & rest
            for v in members(rest):
                assert (g.adj[v] & rest).bit_count() >= 2
            assert taken.bit_count() + pool_alpha(g, rest) == pool_alpha(g, pool)


def test_greedy_matches_the_reference_on_a_long_path():
    g = gen_path(2000)
    full = (1 << g.n) - 1
    assert _greedy_mis(g.adj, full) == ref_greedy_mis(g.adj, full)


def test_enumerate_long_path_and_cycle():
    # tiny families under an exponential plain DFS tree: the walk opens
    # only nodes that hold a set, so each stays at milliseconds and a
    # regression shows as a slow test
    n = 40
    path_sets = [tuple(range(0, 2 * k, 2)) + tuple(range(2 * k + 1, n, 2)) for k in range(n // 2 + 1)]
    cycle_sets = [tuple(range(0, n, 2)), tuple(range(1, n, 2))]
    for g, expected in ((gen_path(n), path_sets), (gen_cycle(n), cycle_sets)):
        fam = enumerate_mis(g)
        assert fam.alpha == n // 2
        assert [vs.members() for vs in fam.sets] == sorted(expected)


def pool_alpha(g: Graph, pool: int) -> int:
    ids = {v: i for i, v in enumerate(members(pool))}
    sub = Graph.from_edges(len(ids), [(ids[u], ids[v]) for u, v in g.edges() if u in ids and v in ids])
    return brute_mis_family(sub)[0]


def test_value_and_decision_searches_match_the_subset_dp():
    rng = random.Random(37)
    for g in random_gnp_corpus(50, 1, 14, seed=39):
        full = (1 << g.n) - 1
        for pool in (full, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            alpha = pool_alpha(g, pool)
            for target in range(alpha + 2):
                assert has_independent(g.adj, pool, target) == (target <= alpha)
            for floor in range(-1, alpha + 2):
                for goal in range(floor + 1, alpha + 3):
                    got = _alpha(g.adj, pool, floor, goal)
                    if alpha <= floor:
                        assert got == floor
                    elif alpha < goal:
                        assert got == alpha
                    else:
                        assert goal <= got <= alpha


def test_targets_up_to_two_are_answered_without_a_search():
    # a target of 1 is "the pool is not empty", 2 is "not a clique"
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)])
    cases = [
        (0, (True, False, False)),  # empty
        (0b1000, (True, True, False)),  # one vertex
        (0b0111, (True, True, False)),  # triangle
        (0b110000, (True, True, False)),  # an edge
        (0b1110, (True, True, True)),  # path 1-2-3
        (0b111111, (True, True, True)),
    ]
    for pool, answers in cases:
        assert tuple(has_independent(g.adj, pool, target) for target in (0, 1, 2)) == answers, pool
    assert has_independent(g.adj, 0, -1)


def test_the_walk_matches_the_three_searches_it_replaced():
    rng = random.Random(43)
    graphs = random_gnp_corpus(25, 1, 14, seed=47)
    graphs += [gen_c4_free_process(n, round(0.1 * n * (n - 1) / 2), n) for n in (20, 30, 40)]
    graphs += [gen_cluster([3, 2, 4, 1, 3]), gen_cycle(13), gen_path(16)]
    for g in graphs:
        full = (1 << g.n) - 1
        for pool in (full, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            alpha = _alpha(g.adj, pool, -1, g.n + 1)
            for size in range(alpha + 2):
                first = next(_independent_sets(g.adj, pool, size), None)
                assert first == ref_find_independent_subset(g, pool, size)
                assert first == ref_first_missed(g.adj, pool, size)
                assert first == next(ref_iter_mis(g.adj, pool, size), None)
            listed = list(_independent_sets(g.adj, pool, alpha))
            assert listed == list(ref_iter_mis(g.adj, pool, alpha))
            assert listed == sorted(listed, key=members)


def test_long_path_and_cycle_within_the_recursion_limit():
    # the frozen search returns every even id below 2000 on both; no
    # maximum independent set of the odd cycle misses three consecutive
    # vertices
    evens = tuple(range(0, 2000, 2))
    for g in (gen_path(2000), gen_cycle(2001)):
        assert _alpha(g.adj, (1 << g.n) - 1, 0, g.n) == 1000
        alpha, witness = alpha_with_witness(g)
        assert alpha == 1000 and witness.members() == evens
    assert first_missed(gen_cycle(2001), VertexSet.of(2001, [0, 1, 2])) is None


def test_large_cluster_within_the_recursion_limit():
    # nothing peels off a triangle; the greedy set meets the clique cover
    g = gen_cluster([3] * 1000)
    full = (1 << g.n) - 1
    assert _alpha(g.adj, full, 0, g.n) == 1000
    assert alpha_with_witness(g)[0] == 1000
    # the question kernel asks for each witness vertex
    assert has_independent(g.adj, full ^ 1, 1000)
    assert not has_independent(g.adj, full, 1001)
    assert first_missed(g, VertexSet.of(g.n, [0, 1, 2])) is None
    # every witness vertex has a triangle mate with the same closed
    # neighbourhood, so kernel makes no decision call
    assert kernel(g).size == 0
    small = gen_cluster([3] * 100)
    assert first_missed(small, VertexSet.empty(small.n)).members() == tuple(range(0, 300, 3))


def test_value_search_keeps_its_nodes_off_the_call_stack():
    # greedy takes 2 of the gadget's 3, so the search walks through one
    # vertex of every triangle before it finds the larger set
    k = 150
    gadget = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (3, 5)]
    edges = [(3 * i + x, 3 * i + y) for i in range(k) for x, y in ((0, 1), (0, 2), (1, 2))]
    g = Graph.from_edges(3 * k + 6, edges + [(3 * k + u, 3 * k + v) for u, v in gadget])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        got = _alpha(g.adj, (1 << g.n) - 1, 0, g.n)
    finally:
        sys.setrecursionlimit(limit)
    assert got == k + 3


def cycles(*lengths: int) -> Graph:
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return Graph.from_edges(base, edges)


@pytest.fixture
def refutations(monkeypatch):
    """The reasons `_refuted` returns while a test runs."""
    refuted, seen = mis._refuted, []

    def counted(*args):
        reason = refuted(*args)
        seen.append(reason)
        return reason

    monkeypatch.setattr(mis, "_refuted", counted)
    return seen


def test_unit_propagation_keeps_the_floor_goal_contract(refutations):
    # pools on which the filter prunes: odd cycles and the triangle-poor
    # c4free graphs leave one unit of slack per odd cycle in the bound
    graphs = [gen_c4_free_process(n, round(m_frac * n * (n - 1) / 2), 2)
              for n in (24, 32, 40, 44, 48) for m_frac in (0.1, 0.2)]
    graphs += [cycles(5, 7), cycles(5, 5, 7, 7), cycles(7, 5, 7, 5, 5), petersen()]
    rng = random.Random(53)
    for g in graphs:
        full = (1 << g.n) - 1
        for pool in (full, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            alpha = ref_max_independent(g.adj, pool)[0]
            assert ref_alpha_colour(g.adj, pool, -1, g.n + 1) == alpha
            for target in range(alpha + 2):
                assert has_independent(g.adj, pool, target) == (target <= alpha)
            for floor in range(-1, alpha + 2):
                for goal in range(floor + 1, alpha + 3):
                    got = _alpha(g.adj, pool, floor, goal)
                    if alpha <= floor:
                        assert got == floor
                    elif alpha < goal:
                        assert got == alpha
                    else:
                        assert goal <= got <= alpha
    assert any(refutations)


def test_value_search_matches_the_independent_oracle_on_the_benchmark_graphs():
    # bench/alpha_table.json was computed by bench/oracle.py, which shares
    # no code with hitlab.mis
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "alpha_table.json")
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    assert len(table) == 13
    for key, alpha in table.items():
        assert key.startswith("c4free0.1-")
        n, seed = map(int, key.split("-")[1:])
        g = gen_c4_free_process(n, round(0.1 * n * (n - 1) / 2), seed)
        assert _alpha(g.adj, (1 << n) - 1, 0, n) == alpha


def test_every_kept_prefix_holds_its_bound(refutations):
    # the pool less the kept vertices after the j-th holds at most
    # kmin + j members of an independent set, by the frozen reference
    rng = random.Random(59)
    graphs = [gen_c4_free_process(n, round(m_frac * n * (n - 1) / 2), seed)
              for n in (16, 24, 32) for m_frac in (0.1, 0.2) for seed in range(3)]
    graphs += [cycles(5, 7), cycles(5, 5, 7, 7), petersen(), *random_gnp_corpus(20, 6, 16, seed=61)]
    for g in graphs:
        full = (1 << g.n) - 1
        for pool in (full, rng.getrandbits(g.n) | rng.getrandbits(g.n)):
            for kmin in range(ref_clique_cover_bound(g.adj, pool) + 1):
                branch = _branch_vertices(g.adj, pool, kmin)
                rest = pool
                for j in range(len(branch), 0, -1):
                    low, bound = branch[j - 1]
                    assert bound == kmin + j
                    assert ref_max_independent(g.adj, rest)[0] <= bound
                    rest ^= low
                assert ref_max_independent(g.adj, rest)[0] <= kmin
    assert any(refutations)
