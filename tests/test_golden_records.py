"""The full text of the records that carry only T, and of one DRC trace
per branch, pinned byte for byte.

The round-trip tests elsewhere check that each record reads back as
written; these check what is written.
"""

from __future__ import annotations

from hitlab.drc import BRANCH_ARGMAX, BRANCH_CODEGREE, drc_clique, trace_to_text
from hitlab.graph import Graph, gen_cluster, gen_cycle
from hitlab.hitting import (
    MODE_LOW_DEGREE,
    MODE_TRIVIAL,
    MODE_UNIFORM_SAMPLE,
    ParamSchedule,
    auto_bins,
    certificate_to_text,
    construct_hitting_set,
    sample_hitting_set,
)
from helpers import gen_book

SCHED = ParamSchedule(s=1, t=2, delta=0.9, k=1, bins=auto_bins(0.9))


def test_low_degree_certificate_text():
    # pages have degree 2 < 0.9 * 5 - 1, so the first page is the center
    cert = construct_hitting_set(gen_book(3), SCHED, 7)
    assert cert.mode == MODE_LOW_DEGREE
    assert certificate_to_text(cert) == (
        "mode: low-degree\n"
        "n: 5\n"
        "seed: 7\n"
        "center: 2\n"
        "bin_index: 0\n"
        "I:\n"
        "S_j:\n"
        "I_j:\n"
        "K:\n"
        "H:\n"
        "NH:\n"
        "T: 0 1 2\n"
        "size_accounting: 0 0 0\n"
    )


def test_trivial_certificate_text():
    # alpha(K_4) = 1 is below |H| = 2, so allow_trivial falls back to T = V
    cert = construct_hitting_set(gen_cluster([4]), SCHED, 3, allow_trivial=True)
    assert cert.mode == MODE_TRIVIAL
    assert certificate_to_text(cert) == (
        "mode: trivial\n"
        "n: 4\n"
        "seed: 3\n"
        "center:\n"
        "bin_index: 0\n"
        "I: 0\n"
        "S_j:\n"
        "I_j:\n"
        "K:\n"
        "H:\n"
        "NH:\n"
        "T: 0 1 2 3\n"
        "size_accounting: 0 0 0\n"
    )


def test_uniform_sample_certificate_text():
    cert = sample_hitting_set(gen_cycle(5), 3, 11, 4).to_certificate()
    assert cert.mode == MODE_UNIFORM_SAMPLE
    assert certificate_to_text(cert) == (
        "mode: uniform-sample\n"
        "n: 5\n"
        "seed: 11\n"
        "center:\n"
        "bin_index: 0\n"
        "I:\n"
        "S_j:\n"
        "I_j:\n"
        "K:\n"
        "H:\n"
        "NH:\n"
        "T: 0 1 4\n"
        "size_accounting: 0 0 0\n"
    )


def test_codegree_trace_text():
    trace = drc_clique(gen_book(4), 0.5)
    assert trace.branch == BRANCH_CODEGREE
    assert trace_to_text(trace) == (
        "branch: codegree\n"
        "n: 6\n"
        "x: 2\n"
        "U: 0 1\n"
        "Y: 0\n"
        "Z:\n"
        "matching:\n"
        "clique: 0 1 2\n"
        "beta: 0.001953125\n"
        "alpha_density: 0.5\n"
    )


def test_argmax_trace_text():
    # two K6 blocks sharing vertex 0; the sharp beta puts the scan
    # threshold above every codegree
    block_a = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    block_b = [(u, v) for u in [0, 6, 7, 8, 9, 10] for v in [0, 6, 7, 8, 9, 10] if u < v]
    trace = drc_clique(Graph.from_edges(11, block_a + block_b), 0.54, sharp_beta=True)
    assert trace.branch == BRANCH_ARGMAX
    assert trace_to_text(trace) == (
        "branch: argmax\n"
        "n: 11\n"
        "x: 1\n"
        "U: 0 2 3 4 5\n"
        "Y: 0\n"
        "Z: 2589569785738035/1125899906842624\n"
        "matching:\n"
        "clique: 0 1 2 3 4 5\n"
        "beta: 0.10353400337494638\n"
        "alpha_density: 0.54\n"
    )
