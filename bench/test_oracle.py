"""Tests of the benchmark's oracle against brute force on small graphs.

    python3 -m pytest -q bench/test_oracle.py

Nothing here imports hitlab: graphs are drawn with `random`, and the
reference is a subset DP over every vertex subset.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracle


def random_rows(n: int, p: float, rng: random.Random) -> list[int]:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return oracle.rows_from_edges(n, edges)


def brute_mis(rows: list[int], pool: int) -> tuple[int, list[int]]:
    """(alpha, every maximum independent set) inside pool, by subset DP."""
    n = len(rows)
    indep = bytearray(1 << n)
    indep[0] = 1
    best, sets = 0, [0]
    for mask in range(1, 1 << n):
        if mask & ~pool:
            continue
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if indep[rest] and rows[v] & rest == 0:
            indep[mask] = 1
            c = mask.bit_count()
            if c > best:
                best, sets = c, [mask]
            elif c == best:
                sets.append(mask)
    return best, sets


def graphs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 13)
        yield rng, random_rows(n, rng.choice((0.1, 0.2, 0.35, 0.5, 0.8)), rng)


def test_alpha_matches_subset_dp():
    for rng, rows in graphs(250, 1):
        full = (1 << len(rows)) - 1
        pool = full & rng.getrandbits(len(rows))
        assert oracle.alpha(rows, full) == brute_mis(rows, full)[0]
        assert oracle.alpha(rows, pool) == brute_mis(rows, pool)[0]


def test_hits_every_mis_matches_subset_dp():
    for rng, rows in graphs(250, 2):
        full = (1 << len(rows)) - 1
        _, family = brute_mis(rows, full)
        for _ in range(4):
            t = full & rng.getrandbits(len(rows)) & rng.getrandbits(len(rows))
            assert oracle.hits_every_mis(rows, t) == all(s & t for s in family)


def test_is_independent():
    for rng, rows in graphs(100, 3):
        full = (1 << len(rows)) - 1
        mask = full & rng.getrandbits(len(rows))
        expect = all(not (rows[u] >> v & 1) for u, v in combinations(range(len(rows)), 2)
                     if mask >> u & 1 and mask >> v & 1)
        assert oracle.is_independent(rows, mask) == expect


def cluster_rows(q: int, cliques: int) -> list[int]:
    edges = [(b * q + i, b * q + j) for b in range(cliques) for i, j in combinations(range(q), 2)]
    return oracle.rows_from_edges(q * cliques, edges)


@pytest.mark.parametrize("q,cliques", [(1, 5), (2, 4), (3, 3), (3, 4), (4, 3)])
def test_cluster_closed_forms(q, cliques):
    rows = cluster_rows(q, cliques)
    n = q * cliques
    full = (1 << n) - 1
    alpha, family = brute_mis(rows, full)
    assert oracle.cluster_alpha(n, q) == alpha
    h = min(size for size in range(n + 1) for t in combinations(range(n), size)
            if all(s & sum(1 << v for v in t) for s in family))
    assert oracle.cluster_h(q) == h


@pytest.mark.parametrize("n", range(3, 14))
def test_path_and_cycle_closed_forms(n):
    path = oracle.rows_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    cycle = oracle.rows_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    full = (1 << n) - 1
    assert oracle.path_alpha(n) == brute_mis(path, full)[0] == oracle.alpha(path, full)
    assert oracle.cycle_alpha(n) == brute_mis(cycle, full)[0] == oracle.alpha(cycle, full)


def test_expected_e_matches_enumeration_of_samples():
    rng = random.Random(4)
    checked = 0
    while checked < 40:
        n = rng.randint(6, 12)
        rows = random_rows(n, rng.choice((0.3, 0.5)), rng)
        _, family = brute_mis(rows, (1 << n) - 1)
        i_mask = family[0]
        i_ids = [v for v in range(n) if i_mask >> v & 1]
        s = rng.choice((1, 2))
        k = rng.randint(s, len(i_ids)) if len(i_ids) >= s else None
        if k is None:
            continue
        bins = ((2.0, 3.0), (1.0, 2.0))
        s_j = oracle.lightest_bin(rows, i_mask, bins)
        # e averaged over every k-subset I_j of I
        total, count = Fraction(0), 0
        for sample in combinations(i_ids, k):
            ij = sum(1 << v for v in sample)
            k_mask = sum(1 << v for v in range(n) if (rows[v] & ij).bit_count() >= s)
            residual = ((1 << n) - 1) & ~(i_mask | s_j | k_mask)
            total += sum((rows[v] & i_mask).bit_count() for v in range(n) if residual >> v & 1)
            count += 1
        assert oracle.expected_e(rows, i_mask, bins, k, s) == total / count
        checked += 1


def test_escape_probability_is_a_distribution_tail():
    for i_size in range(1, 9):
        for d in range(i_size + 1):
            for k in range(i_size + 1):
                assert oracle.escape_probability(i_size, d, k, k + 1) == 1
                p = oracle.escape_probability(i_size, d, k, 1)
                assert p == Fraction(math.comb(i_size - d, k), math.comb(i_size, k))


def test_lightest_bin_prefers_first_on_ties():
    # star: centre 0 outside I = {1, 2, 3}; vertex 4 isolated outside I
    rows = oracle.rows_from_edges(5, [(0, 1), (0, 2), (0, 3)])
    i_mask = 0b01110
    assert oracle.lightest_bin(rows, i_mask, ((3.0, 4.0), (0.0, 1.0))) == 1 << 0
    assert oracle.lightest_bin(rows, i_mask, ((5.0, 6.0), (3.0, 4.0))) == 0
