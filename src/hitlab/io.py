"""Read and write graphs as edge-list or DIMACS text.

Edge list (0-indexed, '#' comments):

    # optional comment
    n m
    u v          one line per edge

DIMACS (1-indexed, 'c' comments):

    c optional comment
    p edge n m
    e u v

Readers collapse duplicate edges, reject self-loops and out-of-range ids
with file:line positions, and require exactly m edge lines.  Writers emit
canonical sorted output so write -> read -> write is byte-stable.

Certificates and DRC traces share one `key: value` record form, written
by format_record and read strictly by parse_record.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .errors import GraphFormatError, VertexRangeError
from .graph import MAX_VERTICES, Graph, VertexSet


def _parse_int(tok: str, what: str, path, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphFormatError(f"bad {what} {tok!r}", path=path, line=line_no) from None


def _read_header(n_tok: str, m_tok: str, where: str, path, line_no: int) -> tuple[int, int]:
    """(n, m) from a header's two count tokens; `where` names the line in errors."""
    n = _parse_int(n_tok, "vertex count", path, line_no)
    m = _parse_int(m_tok, "edge count", path, line_no)
    if n < 0 or m < 0:
        raise GraphFormatError(f"negative count in {where} ({n} {m})", path=path, line=line_no)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} above the ceiling {MAX_VERTICES}", path=path, line=line_no)
    return n, m


def _add_edge(rows: list[int], u_tok: str, v_tok: str, shift: int, path, line_no: int) -> None:
    """Join the two vertices the tokens name; the file's ids start at `shift`."""
    u = _parse_int(u_tok, "vertex id", path, line_no) - shift
    v = _parse_int(v_tok, "vertex id", path, line_no) - shift
    n = len(rows)
    if not (0 <= u < n and 0 <= v < n):
        raise VertexRangeError(
            f"vertex out of range 0..{n - 1} in edge ({u},{v})", path=path, line=line_no
        )
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}", path=path, line=line_no)
    rows[u] |= 1 << v
    rows[v] |= 1 << u


def _finish(rows: list[int], m: Optional[int], seen_edges: int, missing: str, where: str, path) -> Graph:
    """The graph once the input ends: `m` is None when no header was read."""
    if m is None:
        raise GraphFormatError(missing, path=path)
    if seen_edges != m:
        raise GraphFormatError(f"{where} declared {m} edges but file has {seen_edges}", path=path)
    return Graph(len(rows), tuple(rows))


def parse_edge_list(text: str, path: Optional[str] = None) -> Graph:
    """Parse edge-list text; `path` only labels error messages."""
    m: Optional[int] = None
    rows: list[int] = []
    seen_edges = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            what = "header must be 'n m'" if m is None else "edge line must be 'u v'"
            raise GraphFormatError(f"{what}, got {raw.strip()!r}", path=path, line=line_no)
        if m is None:
            n, m = _read_header(toks[0], toks[1], "header", path, line_no)
            rows = [0] * n
        else:
            _add_edge(rows, toks[0], toks[1], 0, path, line_no)
            seen_edges += 1
    return _finish(rows, m, seen_edges, "empty input, expected 'n m' header", "header", path)


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str, path: Optional[str] = None) -> Graph:
    """Parse DIMACS 'p edge' text; vertex ids are shifted to 0-indexed."""
    m: Optional[int] = None
    rows: list[int] = []
    seen_edges = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if m is not None:
                raise GraphFormatError("duplicate problem line", path=path, line=line_no)
            if len(toks) != 4 or toks[1] != "edge":
                raise GraphFormatError(
                    f"problem line must be 'p edge n m', got {raw.strip()!r}",
                    path=path,
                    line=line_no,
                )
            n, m = _read_header(toks[2], toks[3], "problem line", path, line_no)
            rows = [0] * n
        elif toks[0] == "e":
            if m is None:
                raise GraphFormatError(
                    "edge line before problem line", path=path, line=line_no
                )
            if len(toks) != 3:
                raise GraphFormatError(
                    f"edge line must be 'e u v', got {raw.strip()!r}",
                    path=path,
                    line=line_no,
                )
            _add_edge(rows, toks[1], toks[2], 1, path, line_no)
            seen_edges += 1
        else:
            raise GraphFormatError(
                f"unknown line type {toks[0]!r}", path=path, line=line_no
            )
    return _finish(rows, m, seen_edges, "missing 'p edge n m' line", "problem line", path)


def format_dimacs(g: Graph) -> str:
    edges = g.edges()
    lines = [f"p edge {g.n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def sniff_format(text: str) -> str:
    """Guess 'dimacs' or 'edgelist' from the first meaningful line."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in "pce" and (len(line) == 1 or line[1] in " \t"):
            return "dimacs"
        return "edgelist"
    return "edgelist"


def read_text(path: str) -> str:
    """Whole file as text; an unreadable file is a GraphFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise GraphFormatError("no such file", path=path) from None
    except (OSError, UnicodeDecodeError) as ex:
        raise GraphFormatError(f"cannot read: {ex}", path=path) from None


def load_graph(path: str, fmt: str = "auto") -> Graph:
    text = read_text(path)
    if fmt == "auto":
        fmt = sniff_format(text)
    if fmt == "dimacs":
        return parse_dimacs(text, path=path)
    if fmt == "edgelist":
        return parse_edge_list(text, path=path)
    raise GraphFormatError(f"unknown format {fmt!r}", path=path)


def save_graph(g: Graph, path: str, fmt: str = "edgelist") -> None:
    if fmt == "dimacs":
        text = format_dimacs(g)
    elif fmt == "edgelist":
        text = format_edge_list(g)
    else:
        raise GraphFormatError(f"unknown format {fmt!r}", path=path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# key: value records
#
# A record type maps each key, in output order, to a (write, read) pair:
# write(value) is the text after "key: ", and read(text, n) parses it
# back, raising ValueError on bad text.  n is the record's own vertex
# count, read from its `n` key, which precedes every vertex field.

Codec = tuple[Callable[[Any], str], Callable[[str, int], Any]]


def read_vertex(text: str, n: int) -> int:
    v = int(text)
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} outside 0..{n - 1}")
    return v


def optional(codec: Codec) -> Codec:
    """The same value or None, written blank."""
    write, read = codec
    return (lambda v: "" if v is None else write(v)), (lambda text, n: read(text, n) if text else None)


TEXT: Codec = (str, lambda text, n: text)
INT: Codec = (str, lambda text, n: int(text))
FLOAT: Codec = (repr, lambda text, n: float(text))
VERTEX: Codec = (str, read_vertex)
VERTICES: Codec = (
    lambda vs: " ".join(str(v) for v in vs.members()),
    lambda text, n: VertexSet.of(n, [read_vertex(tok, n) for tok in text.split()]),
)


def format_record(obj, fields: dict[str, Codec]) -> str:
    """One `key: value` line per key of `fields`, the value read off obj."""
    lines = (f"{key}: {write(getattr(obj, key))}".rstrip() for key, (write, _) in fields.items())
    return "\n".join(lines) + "\n"


def parse_record(
    text: str, fields: dict[str, Codec], kind: str, path: Optional[str] = None
) -> dict[str, Any]:
    """Field values of a record, read strictly.

    Each key must appear exactly once and no other key may; blank lines
    are skipped.  A bad value, such as a vertex id outside 0..n-1, is a
    GraphFormatError like a bad line.
    """
    got: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        key, sep, val = raw.partition(":")
        key = key.strip()
        if not sep:
            raise GraphFormatError(f"expected 'key: value', got {raw!r}", path=path, line=line_no)
        if key not in fields:
            raise GraphFormatError(f"unknown {kind} key {key!r}", path=path, line=line_no)
        if key in got:
            raise GraphFormatError(f"duplicate {kind} key {key!r}", path=path, line=line_no)
        got[key] = val.strip()
    missing = [k for k in fields if k not in got]
    if missing:
        raise GraphFormatError(f"{kind} missing keys: {', '.join(missing)}", path=path)
    values: dict[str, Any] = {}
    for key, (_, read) in fields.items():
        try:
            values[key] = read(got[key], values.get("n", 0))
        except (ValueError, ArithmeticError) as ex:
            raise GraphFormatError(f"bad {key!r} value: {ex}", path=path) from None
    return values
