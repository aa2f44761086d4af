from __future__ import annotations

import math
from fractions import Fraction

import pytest

import hitlab.drc as drc
from hitlab.drc import (
    BRANCH_ARGMAX,
    BRANCH_CODEGREE,
    DrcTrace,
    codegree_scan,
    drc_clique,
    is_clique,
    matching_audit,
    maximal_missing_matching,
    trace_from_text,
    trace_to_text,
)
from hitlab.errors import FreenessViolationError, GraphFormatError, PreconditionError
from hitlab.graph import Graph, VertexSet, gen_c4_free_process, gen_cluster, gen_cycle, gen_path
from helpers import gen_book, petersen


def density(g: Graph) -> float:
    # a hair under 2m / n(n-1) so float rounding never breaks the pre
    return 2 * g.m / (g.n * (g.n - 1)) * (1 - 1e-12)


def check_trace(g: Graph, trace: DrcTrace):
    assert is_clique(g, trace.clique)
    assert trace.x in trace.clique
    m = len(trace.matching)
    assert trace.clique.size == trace.U.size - 2 * m + 1
    assert matching_audit(trace)
    if trace.branch == BRANCH_CODEGREE:
        assert trace.Y == 0 and trace.matching == () and trace.Z is None
    else:
        assert isinstance(trace.Z, Fraction)


def test_is_clique():
    k4 = gen_cluster([4])
    assert is_clique(k4, VertexSet.full(4))
    assert is_clique(k4, VertexSet.of(4, [1, 3]))
    assert is_clique(gen_path(3), VertexSet.of(3, [0, 1]))
    assert not is_clique(gen_path(3), VertexSet.of(3, [0, 2]))
    assert is_clique(gen_path(3), VertexSet.empty(3))


class TestCodegreeScan:
    def test_book_spine_is_found(self):
        g = gen_book(4)
        common = codegree_scan(g, beta=0.2)  # threshold 1.2 <= |{0,1}|
        assert common == VertexSet.of(6, [0, 1])

    def test_high_threshold_returns_none(self):
        g = gen_book(4)
        assert codegree_scan(g, beta=0.9) is None

    def test_scan_proves_freeness_or_raises(self):
        c4 = gen_cycle(4)
        with pytest.raises(FreenessViolationError) as info:
            codegree_scan(c4, beta=0.1)
        emb = info.value.witness
        assert emb.side_a == (0, 2) and emb.side_b == (1, 3)
        assert emb.check(c4)

    def test_beta_must_be_positive(self):
        with pytest.raises(PreconditionError):
            codegree_scan(gen_path(4), beta=0.0)


class TestMissingMatching:
    def test_lexicographic_greedy(self):
        p4 = gen_path(4)
        u = VertexSet.full(4)
        # missing pairs in order: (0,2),(0,3),(1,3); greedy takes (0,2) then (1,3)
        assert maximal_missing_matching(p4, u) == [(0, 2), (1, 3)]

    def test_clique_has_empty_matching(self):
        k5 = gen_cluster([5])
        assert maximal_missing_matching(k5, VertexSet.full(5)) == []

    def test_maximality(self):
        for seed in range(8):
            g = gen_c4_free_process(14, 24, seed)
            u = VertexSet.full(14)
            matching = maximal_missing_matching(g, u)
            matched = 0
            for p, q in matching:
                assert not g.has_edge(p, q)
                matched |= (1 << p) | (1 << q)
            assert matched.bit_count() == 2 * len(matching)
            # survivors are pairwise adjacent
            survivors = VertexSet(14, u.bits & ~matched)
            assert is_clique(g, survivors)


class TestDrcClique:
    def test_clique_input_comes_back_whole(self):
        for q in range(2, 9):
            g = gen_cluster([q])
            trace = drc_clique(g, alpha_density=density(g))
            assert trace.branch == BRANCH_ARGMAX
            assert trace.x == 0  # ties break to the smallest id
            assert trace.clique == VertexSet.full(q)
            check_trace(g, trace)

    def test_books_trigger_codegree_branch(self):
        for pages in range(2, 12):
            g = gen_book(pages)
            trace = drc_clique(g, alpha_density=density(g))
            assert trace.branch == BRANCH_CODEGREE
            assert trace.U == VertexSet.of(g.n, [0, 1])
            assert trace.clique.size == 3
            check_trace(g, trace)

    def test_petersen(self):
        g = petersen()
        trace = drc_clique(g, alpha_density=density(g))
        check_trace(g, trace)
        # triangle-free, so no clique can beat an edge
        assert trace.clique.size <= 2

    def test_sparse_corpus_all_verified(self):
        for seed in range(12):
            g = gen_c4_free_process(15, 26, seed)
            trace = drc_clique(g, alpha_density=density(g))
            check_trace(g, trace)

    def test_sharp_beta_variant(self):
        g = gen_book(6)
        sharp = drc_clique(g, alpha_density=density(g), sharp_beta=True)
        check_trace(g, sharp)
        a = density(g)
        assert sharp.beta == pytest.approx((1 - math.sqrt(1 - a)) ** 2)

    def test_density_precondition(self):
        g = gen_path(6)
        with pytest.raises(PreconditionError, match="density"):
            drc_clique(g, alpha_density=0.9)
        with pytest.raises(PreconditionError):
            drc_clique(g, alpha_density=0.0)
        with pytest.raises(PreconditionError):
            drc_clique(g, alpha_density=1.5)
        with pytest.raises(PreconditionError, match="empty graph"):
            drc_clique(Graph(0, ()), alpha_density=0.5)
        # 1 - sqrt(1 - 1e-17) rounds to 0
        with pytest.raises(PreconditionError, match="beta underflowed"):
            drc_clique(g, alpha_density=1e-17, sharp_beta=True)

    def test_induced_c4_raises_witness(self):
        c4 = gen_cycle(4)
        with pytest.raises(FreenessViolationError):
            drc_clique(c4, alpha_density=density(c4))

    def test_disjoint_cliques_reach_argmax(self):
        # cross pairs have empty common neighborhoods, so the scan
        # cannot fire and the argmax branch must carry the whole load
        g = gen_cluster([4, 4])
        trace = drc_clique(g, alpha_density=density(g))
        assert trace.branch == BRANCH_ARGMAX
        assert trace.x == 0 and trace.clique == VertexSet.of(8, [0, 1, 2, 3])
        a = Fraction(trace.alpha_density)
        assert trace.Z == Fraction(3) - a * 7 / 2
        check_trace(g, trace)

    def test_score_penalty_steers_off_missing_edges(self):
        # two K6 blocks sharing vertex 0: with the sharp beta the scan
        # threshold exceeds every codegree, and the argmax must reject
        # the shared vertex (25 missing pairs in its neighborhood) in
        # favor of a clean block vertex
        block_a = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        block_b = [(u, v) for u in [0, 6, 7, 8, 9, 10] for v in [0, 6, 7, 8, 9, 10] if u < v]
        g = Graph.from_edges(11, block_a + block_b)
        assert g.m == 30
        trace = drc_clique(g, alpha_density=density(g), sharp_beta=True)
        assert trace.branch == BRANCH_ARGMAX
        assert trace.x == 1
        assert trace.clique == VertexSet.of(11, [0, 1, 2, 3, 4, 5])
        a = Fraction(trace.alpha_density)
        assert trace.Z == Fraction(5) - a * 10 / 2
        check_trace(g, trace)

    def test_argmax_strips_the_matched_vertices(self, monkeypatch):
        # no known input reaches the argmax branch with a missing edge
        # inside N(x), so the codegree scan is switched off: on C5 every
        # score ties, x = 0, and its neighbours 1 and 4 form the matching
        monkeypatch.setattr(drc, "_scan", lambda g, beta: None)
        g = gen_cycle(5)
        trace = drc_clique(g, alpha_density=0.5)
        assert trace.branch == BRANCH_ARGMAX and trace.x == 0
        assert trace.U == VertexSet.of(5, [1, 4])
        assert trace.matching == ((1, 4),)
        assert trace.clique == VertexSet.of(5, [0])
        check_trace(g, trace)  # a clique, and the matching audit holds


class TestTraceText:
    def test_round_trip_both_branches(self):
        book = gen_book(5)
        k6 = gen_cluster([6])
        for g in (book, k6):
            trace = drc_clique(g, alpha_density=density(g))
            text = trace_to_text(trace)
            assert trace_from_text(text) == trace
            assert trace_to_text(trace_from_text(text)) == text

    def test_malformed(self):
        with pytest.raises(GraphFormatError, match="missing keys"):
            trace_from_text("branch: argmax\n")
        with pytest.raises(GraphFormatError, match="key: value"):
            trace_from_text("nonsense line\n")
        text = trace_to_text(drc_clique(gen_book(5), alpha_density=density(gen_book(5))))
        with pytest.raises(GraphFormatError, match="unknown trace key"):
            trace_from_text(text + "extra: 1\n")
        with pytest.raises(GraphFormatError, match="duplicate trace key"):
            trace_from_text(text + "x: 0\n")
        with pytest.raises(GraphFormatError, match="outside 0..6"):
            trace_from_text(text.replace("x: ", "x: 9"))
