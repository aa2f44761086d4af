from __future__ import annotations

import copy
import hashlib
import inspect
import pickle
import sys
from itertools import combinations
from pathlib import Path

import pytest

from hitlab.analysis import ExperimentConfig, ExperimentRecord, McEstimate, load_config
from hitlab.drc import drc_clique
from hitlab.errors import PreconditionError
from hitlab.graph import (
    Graph,
    InducedEmbedding,
    VertexSet,
    complement,
    find_induced_kst,
    gen_c4_free_process,
    gen_cluster,
    gen_cycle,
    gen_gnp,
    gen_path,
    iter_bits,
    min_degree_vertex,
    replace,
)
from hitlab.hitting import ParamSchedule, asymptotic_schedule, construct_hitting_set, sample_hitting_set
from hitlab.io import format_edge_list
from hitlab.mis import _independent_sets, enumerate_mis
from helpers import gen_split, has_induced_kst_brute, petersen, ref_find_induced_kst, ref_gen_c4_free_process

# sha256 of format_edge_list for c4free graphs, one "n m_frac seed digest" a line
C4FREE_GRAPHS = Path(__file__).parent / "golden" / "c4free_graphs.txt"


def test_iter_bits_ascending():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]


class TestVertexSet:
    def test_constructors(self):
        vs = VertexSet.of(6, [4, 0, 2])
        assert vs.members() == (0, 2, 4)
        assert vs.size == 3 and len(vs) == 3
        assert VertexSet.empty(4).bits == 0
        assert VertexSet.full(4).bits == 0b1111

    def test_membership_and_iteration(self):
        vs = VertexSet.of(5, [1, 3])
        assert 1 in vs and 3 in vs
        assert 0 not in vs and 7 not in vs
        assert list(vs) == [1, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(3, 0b1000)
        with pytest.raises(ValueError):
            VertexSet(3, -1)

    def test_set_algebra(self):
        a = VertexSet.of(6, [0, 1, 2])
        b = VertexSet.of(6, [2, 3])
        assert (a | b).members() == (0, 1, 2, 3)
        assert (a & b).members() == (2,)
        assert (a - b).members() == (0, 1)
        assert a.complement().members() == (3, 4, 5)
        assert b.issubset(a | b)
        assert a.isdisjoint(VertexSet.of(6, [4, 5]))

    def test_host_mismatch(self):
        with pytest.raises(ValueError):
            VertexSet.of(4, [0]) | VertexSet.of(5, [0])

    def test_value_semantics(self):
        assert VertexSet.of(5, [2, 0]) == VertexSet.of(5, [0, 2])
        assert len({VertexSet.of(5, [1]), VertexSet.of(5, [1])}) == 1


class TestGraph:
    def test_from_edges_collapses_duplicates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.edges() == [(0, 1)]

    def test_self_loop_rejected(self):
        with pytest.raises(PreconditionError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(PreconditionError, match="negative vertex count -1"):
            Graph.from_edges(-1, [])

    def test_degrees_and_edges(self):
        g = gen_path(4)
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == (0, 2)
        g.check_invariants()

    def test_equality_and_hash(self):
        assert gen_path(5) == gen_path(5)
        assert gen_path(5) != gen_cycle(5)
        assert hash(gen_path(5)) == hash(gen_path(5))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_gen_path(n):
    g = gen_path(n)
    assert g.n == n and g.m == n - 1 if n > 1 else g.m == 0
    g.check_invariants()


def test_gen_cycle():
    g = gen_cycle(6)
    assert g.m == 6 and all(g.degree(v) == 2 for v in range(6))
    with pytest.raises(PreconditionError):
        gen_cycle(2)


def test_gen_cluster_blocks():
    g = gen_cluster([3, 2, 4])
    assert g.n == 9
    assert g.m == 3 + 1 + 6
    # block boundaries: no edges across
    assert not g.has_edge(2, 3) and not g.has_edge(4, 5)
    assert g.has_edge(0, 2) and g.has_edge(3, 4) and g.has_edge(5, 8)
    with pytest.raises(PreconditionError):
        gen_cluster([])
    with pytest.raises(PreconditionError):
        gen_cluster([3, 0])


def test_gen_gnp_deterministic_and_extremes():
    a = gen_gnp(12, 0.4, seed=9)
    b = gen_gnp(12, 0.4, seed=9)
    assert a == b
    assert gen_gnp(12, 0.4, seed=10) != a
    assert gen_gnp(8, 0.0, seed=1).m == 0
    assert gen_gnp(8, 1.0, seed=1).m == 28
    with pytest.raises(PreconditionError):
        gen_gnp(5, 1.5, seed=0)


def test_gen_c4_free_process_is_c4_free():
    for seed in range(6):
        g = gen_c4_free_process(14, 30, seed)
        g.check_invariants()
        assert find_induced_kst(g, 2, 2) is None
        assert not has_induced_kst_brute(g, 2, 2)
    assert gen_c4_free_process(14, 30, 3) == gen_c4_free_process(14, 30, 3)
    with pytest.raises(PreconditionError):
        gen_c4_free_process(4, 7, 0)


def test_c4_free_process_saturates():
    # short of its target the process has tried every pair: no two
    # vertices share two neighbours, and each non-edge would close a C4
    short = 0
    for n in (4, 5, 6, 9, 14, 20, 31):
        pair_count = n * (n - 1) // 2
        for target in (pair_count, round(0.3 * pair_count)):
            for seed in range(3):
                g = gen_c4_free_process(n, target, seed)
                assert g.m <= target
                if g.m == target:
                    continue
                short += 1
                for u, w in combinations(range(n), 2):
                    assert (g.adj[u] & g.adj[w]).bit_count() <= 1, (n, target, seed, u, w)
                    if not g.has_edge(u, w):
                        assert any(g.has_edge(a, b) for a in g.neighbors(u) for b in g.neighbors(w)), (u, w)
    assert short == 30


def test_c4_free_process_matches_the_reference():
    for n in [*range(30), 40, 56, 80]:
        pair_count = n * (n - 1) // 2
        targets = {0, min(1, pair_count), round(0.1 * pair_count), round(0.2 * pair_count), pair_count // 2, pair_count}
        for target in sorted(targets):
            for seed in range(3):
                assert gen_c4_free_process(n, target, seed).adj == ref_gen_c4_free_process(n, target, seed).adj


def test_c4_free_process_matches_the_golden_hashes():
    # hashes written by the original process: a change in random.shuffle
    # between Python versions would change every c4free graph
    rows = [line.split() for line in C4FREE_GRAPHS.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 99
    for n, m_frac, seed, digest in rows:
        n, m_frac, seed = int(n), float(m_frac), int(seed)
        g = gen_c4_free_process(n, round(m_frac * n * (n - 1) / 2), seed)
        assert hashlib.sha256(format_edge_list(g).encode()).hexdigest() == digest, (n, m_frac, seed)


def test_complement_involution():
    g = gen_gnp(10, 0.5, seed=4)
    assert complement(complement(g)) == g
    k5 = gen_cluster([5])
    assert complement(k5).m == 0


def test_min_degree_vertex_tie_breaks_low_id():
    g = gen_cycle(7)
    assert min_degree_vertex(g) == (0, 2)
    h = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert min_degree_vertex(h) == (0, 1)
    with pytest.raises(PreconditionError):
        min_degree_vertex(Graph(0, ()))


def test_find_independent_subset_lex_first(c5):
    # the first set of the canonical walk is the lex-first independent subset
    full = (1 << 5) - 1
    assert next(_independent_sets(c5.adj, full, 2), None) == 0b00101  # {0, 2}
    assert next(_independent_sets(c5.adj, full, 3), None) is None
    assert next(_independent_sets(c5.adj, full, 0), None) == 0
    assert next(_independent_sets(c5.adj, 0b11000, 2), None) is None  # {3,4} adjacent


def test_independent_subsets_of_a_star_stay_off_the_call_stack():
    # each member of the leaf set is one level of a depth-first search
    leaves = 300
    star = Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        subset = next(_independent_sets(star.adj, star.adj[0], 250), None)
        emb = find_induced_kst(star, 1, 250)
    finally:
        sys.setrecursionlimit(limit)
    assert subset == star.adj[0] & ((1 << 251) - 1)
    assert emb == InducedEmbedding((0,), tuple(range(1, 251)))


class TestInducedEmbedding:
    def test_check_accepts_real_c4(self):
        c4 = gen_cycle(4)
        assert InducedEmbedding((0, 2), (1, 3)).check(c4)

    def test_check_rejects_bad_sides(self):
        c4 = gen_cycle(4)
        assert not InducedEmbedding((0, 1), (2, 3)).check(c4)  # sides not independent
        assert not InducedEmbedding((0, 2), (0, 3)).check(c4)  # overlap
        k4 = gen_cluster([4])
        assert not InducedEmbedding((0, 2), (1, 3)).check(k4)  # not induced


class TestFindInducedKst:
    def test_c4_found_with_lex_minimal_a_side(self):
        emb = find_induced_kst(gen_cycle(4), 2, 2)
        assert emb is not None
        assert emb.side_a == (0, 2) and emb.side_b == (1, 3)
        assert emb.check(gen_cycle(4))

    def test_c5_is_free(self, c5):
        assert find_induced_kst(c5, 2, 2) is None

    def test_star_contains_k1t(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        emb = find_induced_kst(star, 1, 3)
        assert emb == InducedEmbedding((0,), (1, 2, 3))

    def test_complete_bipartite_found(self):
        k23 = Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        emb = find_induced_kst(k23, 2, 3)
        assert emb is not None and emb.check(k23)
        assert find_induced_kst(k23, 3, 3) is None

    def test_petersen_has_no_c4_but_a_k13(self):
        g = petersen()
        assert find_induced_kst(g, 2, 2) is None
        emb = find_induced_kst(g, 1, 3)
        assert emb is not None and emb.check(g)

    def test_agrees_with_brute_force_on_random_graphs(self):
        for seed in range(30):
            g = gen_gnp(9, 0.35, seed=seed)
            found = find_induced_kst(g, 2, 2)
            assert (found is not None) == has_induced_kst_brute(g, 2, 2)
            assert found == ref_find_induced_kst(g, 2, 2)
            if found is not None:
                assert found.check(g)
        graphs = [gen_gnp(n, p, seed=n) for n in (12, 18, 24) for p in (0.2, 0.5, 0.8)]
        graphs += [gen_c4_free_process(n, n * (n - 1) // 20, seed=n) for n in (20, 32, 44, 56)]
        graphs += [gen_split(40, p, seed=1) for p in (0.1, 0.5)]
        graphs += [gen_cycle(9), gen_path(12), gen_cluster([3, 1, 4, 2]), gen_cluster([2] * 6)]
        graphs.append(Graph.from_edges(21, [(0, v) for v in range(1, 21)]))
        for g in graphs:
            for s, t in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)):
                assert find_induced_kst(g, s, t) == ref_find_induced_kst(g, s, t), (g, s, t)

    def test_bad_sides_rejected(self):
        with pytest.raises(PreconditionError):
            find_induced_kst(gen_cycle(4), 2, 1)
        with pytest.raises(PreconditionError):
            find_induced_kst(gen_cycle(4), 0, 2)


# ---------------------------------------------------------------------------
# the record contract: one record of each immutable value class

C5_SCHEDULE = ParamSchedule(2, 2, 0.5, 2, ((1, 2),))
RECORDS = [
    VertexSet(5, 3),
    InducedEmbedding((0, 1), (2, 3)),
    enumerate_mis(gen_cycle(5)),
    drc_clique(gen_cluster([4, 4]), 0.4),
    C5_SCHEDULE,
    asymptotic_schedule(10, 2, 2, 0.5),
    construct_hitting_set(gen_cycle(5), C5_SCHEDULE, seed=7),
    sample_hitting_set(gen_cycle(5), 3, seed=0, trials=2),
    McEstimate(mean=1.5, std_error=0.5, samples=(1, 2)),
    load_config({"families": [{"kind": "path"}], "n_values": [6], "seeds": [1]}),
]


def fields_of(rec) -> dict:
    return {name: getattr(rec, name) for name in type(rec).__slots__}


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_record_contract(rec):
    cls, fields = type(rec), fields_of(rec)
    names = list(fields)
    # built by keyword or by position, equal records are equal and hash alike
    twin = cls(**fields)
    assert twin == rec and twin is not rec and cls(*fields.values()) == rec
    if cls is ExperimentConfig:
        with pytest.raises(TypeError):  # a config holds dicts, so it is unhashable
            hash(rec)
    else:
        assert hash(twin) == hash(rec) == hash(tuple(fields.values()))
    assert rec != tuple(fields.values())
    assert all(rec != other for other in RECORDS if type(other) is not cls)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    # fields can be neither assigned nor deleted, nor new attributes added
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert fields_of(rec) == fields
    # an unknown, a missing or a repeated field is refused
    with pytest.raises(TypeError):
        cls(**fields, extra=0)
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in fields.items() if k != names[-1]})
    with pytest.raises(TypeError):
        cls(*fields.values(), **{names[0]: fields[names[0]]})
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)
    with pytest.raises(TypeError):
        replace(rec, extra=0)
    # replace with an unchanged value rebuilds an equal record of the class
    changed = replace(rec, **{names[-1]: fields[names[-1]]})
    assert type(changed) is cls and changed == rec
    # pickle and copy rebuild an equal record of the same class
    for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls and back == rec and fields_of(back) == fields


def test_replace_checks_the_record_again():
    with pytest.raises(ValueError):
        replace(VertexSet(5, 3), bits=1 << 5)
    with pytest.raises(ValueError):
        replace(VertexSet(5, 3), n=-1)
    with pytest.raises(PreconditionError):
        replace(C5_SCHEDULE, s=3)
    assert replace(C5_SCHEDULE, bins=[[2, 3], [1, 2]]).bins == ((2.0, 3.0), (1.0, 2.0))
    assert replace(VertexSet(5, 3), bits=4) == VertexSet(5, 4)


def test_experiment_records_are_mutable_with_a_fresh_timing_dict():
    first, second = ExperimentRecord("path", 6, 1), ExperimentRecord(family="path", n=6, seed=1)
    assert (first.alpha, first.h_exact, first.t_bet, first.t_trivial, first.e_observed, first.error) == (None,) * 6
    first.runtime_ms["gen"] = 1.0
    first.alpha = 3
    assert second.runtime_ms == {} and second.alpha is None
    with pytest.raises(AttributeError):
        first.extra = 0
