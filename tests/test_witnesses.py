"""α and the witness of `alpha_with_witness`, pinned per graph.

`tests/golden/witnesses.txt` holds one line per graph: family, n, seed,
α and the sha256 of the witness's ids (ascending, space-separated).  The
value search may change its order, its incumbents and its bounds, but
the witness walk's frozen tree fixes the witness, so this file must not
change with them.  The graphs are the 13 C4-free graphs of the
construct-large benchmark and cubic and gnp (p = 3/n) graphs at n <= 100.

Rewrite the file (only when the frozen witness rule itself changes):

    PYTHONPATH=src python tests/test_witnesses.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from hitlab.graph import gen_c4_free_process, gen_gnp
from hitlab.mis import alpha_with_witness
from helpers import gen_cubic

WITNESSES = Path(__file__).parent / "golden" / "witnesses.txt"
HEADER = "# family n seed alpha sha256(witness ids, ascending, space-separated)\n"

# the construct-large benchmark's graphs: c4free at m_frac 0.1
C4FREE = [(n, seed) for n in (56, 60, 64, 72, 76, 80) for seed in (0, 1)] + [(68, 0)]
SPARSE = [(n, seed) for n in (40, 60, 80, 100) for seed in (0, 1)]


def graphs():
    for n, seed in C4FREE:
        yield "c4free0.1", n, seed, gen_c4_free_process(n, round(0.1 * n * (n - 1) / 2), seed)
    for n, seed in SPARSE:
        yield "cubic", n, seed, gen_cubic(n, seed)
    for n, seed in SPARSE:
        yield "gnp3/n", n, seed, gen_gnp(n, 3 / n, seed)


def golden_text() -> str:
    lines = [HEADER]
    for family, n, seed, g in graphs():
        alpha, witness = alpha_with_witness(g)
        digest = hashlib.sha256(" ".join(map(str, witness.members())).encode()).hexdigest()
        lines.append(f"{family} {n} {seed} {alpha} {digest}\n")
    return "".join(lines)


def test_witnesses_match_the_golden_file():
    assert golden_text() == WITNESSES.read_text()


if __name__ == "__main__":
    WITNESSES.write_text(golden_text())
