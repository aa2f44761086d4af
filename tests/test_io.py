from __future__ import annotations

import pytest

from hitlab.errors import GraphFormatError, VertexRangeError
from hitlab.graph import gen_cluster, gen_cycle, gen_gnp
from hitlab.io import (
    format_dimacs,
    format_edge_list,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    save_graph,
    sniff_format,
)


def test_edge_list_round_trip():
    g = gen_gnp(11, 0.4, seed=2)
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    # canonical output is a fixed point
    assert format_edge_list(parse_edge_list(text)) == text


def test_edge_list_comments_and_blank_lines():
    text = "# a comment\n\n4 2\n0 1   # trailing note\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 3)


def test_edge_list_duplicate_edges_collapse():
    g = parse_edge_list("3 3\n0 1\n1 0\n0 1\n")
    assert g.m == 1


def test_edge_list_header_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("4\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("x 2\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("-1 0\n")


def test_edge_list_count_mismatch():
    with pytest.raises(GraphFormatError, match="declared 2"):
        parse_edge_list("4 2\n0 1\n")
    with pytest.raises(GraphFormatError, match="declared 1"):
        parse_edge_list("4 1\n0 1\n2 3\n")


def test_edge_list_bad_edge_lines():
    with pytest.raises(GraphFormatError):
        parse_edge_list("4 1\n0 1 2\n")
    with pytest.raises(VertexRangeError):
        parse_edge_list("4 1\n0 4\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_edge_list("4 1\n0 0\n")


def test_edge_list_error_carries_position(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 9\n")
    with pytest.raises(GraphFormatError) as info:
        load_graph(str(bad))
    assert str(bad) in str(info.value)
    assert ":2:" in str(info.value)


def test_dimacs_round_trip():
    g = gen_gnp(9, 0.5, seed=7)
    text = format_dimacs(g)
    assert parse_dimacs(text) == g
    assert format_dimacs(parse_dimacs(text)) == text


def test_dimacs_is_one_indexed():
    g = parse_dimacs("c hi\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.has_edge(0, 1) and g.has_edge(1, 2)
    assert format_dimacs(g).splitlines()[1] == "e 1 2"


def test_dimacs_errors():
    with pytest.raises(GraphFormatError, match="missing"):
        parse_dimacs("c only a comment\n")
    with pytest.raises(GraphFormatError, match="before problem"):
        parse_dimacs("e 1 2\np edge 3 1\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_dimacs("p edge 3 0\np edge 3 0\n")
    with pytest.raises(GraphFormatError, match="must be 'p edge n m'"):
        parse_dimacs("p edge 3\n")
    with pytest.raises(GraphFormatError, match="unknown line"):
        parse_dimacs("p edge 3 0\nq 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 3 1\ne 1 2 3\n")
    with pytest.raises(VertexRangeError):
        parse_dimacs("p edge 3 1\ne 0 1\n")  # 0 is out of range once shifted


def test_sniff_format():
    assert sniff_format("p edge 3 0\n") == "dimacs"
    assert sniff_format("c x\np edge 3 0\n") == "dimacs"
    assert sniff_format("# x\n3 0\n") == "edgelist"
    assert sniff_format("3 0\n") == "edgelist"


def test_load_and_save_auto_detect(tmp_path):
    g = gen_cycle(6)
    el = tmp_path / "g.el"
    dm = tmp_path / "g.col"
    save_graph(g, str(el))
    save_graph(g, str(dm), fmt="dimacs")
    assert load_graph(str(el)) == g
    assert load_graph(str(dm)) == g
    assert load_graph(str(dm), fmt="dimacs") == g
    # the sniffer skips leading blank lines, and an empty file reads as an edge list
    padded = tmp_path / "padded.col"
    padded.write_text("\n  \n" + dm.read_text())
    assert load_graph(str(padded)) == g
    empty = tmp_path / "empty.el"
    empty.write_text("")
    with pytest.raises(GraphFormatError, match="empty input"):
        load_graph(str(empty))
    with pytest.raises(GraphFormatError, match="no such file"):
        load_graph(str(tmp_path / "absent.el"))
    with pytest.raises(GraphFormatError, match="unknown format"):
        load_graph(str(el), fmt="gml")
    with pytest.raises(GraphFormatError, match="unknown format"):
        save_graph(g, str(tmp_path / "g.gml"), fmt="gml")
