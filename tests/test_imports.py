"""Every name a hitlab module imports is used in that module, importing
hitlab loads no module that only some calls need, and the Monte Carlo
seeds hash with CPython's built-in BLAKE2b, so no call loads OpenSSL.

The one exception is a name the traced benchmark wraps: a module may
import a layer only so that `bench/run.py --trace 1` sees the calls made
through it, and `bench/tracer.py` lists those (module, name) sites in
WRAPS.  `__init__` re-exports names and is not checked.
"""

import ast
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from hitlab.analysis import derive_seed, resolve_schedule
from hitlab.graph import gen_c4_free_process, gen_cycle
from hitlab.io import save_graph
from hitlab.mis import alpha_with_witness
from helpers import ref_monte_carlo_e

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hitlab"
TRACER = ROOT / "bench" / "tracer.py"


def traced_sites() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {site for sites in tracer.WRAPS.values() for site in sites}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in the source and never
    read as a name; `from __future__` imports bind nothing usable."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import importlib.util\n"
        "from .mis import _first_missed, first_missed as fm\n"
        "def f(g):\n"
        "    from .graph import find_independent_subset\n"
        "    return fm(g), importlib.util\n"
    )
    assert unused_imports(source) == ["_first_missed", "find_independent_subset"]


def test_every_imported_name_is_used():
    traced = traced_sites()
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in traced
    ]
    assert unused == []


# modules a hitlab import leaves to the first call that needs them: _blake2
# hashes the Monte Carlo seeds alone, fractions (and through it decimal)
# serves the exact audits, json the config reader, and signal, array and
# atexit the Monte Carlo helper processes, which the first call that
# splits forks; no hitlab call loads hashlib or its _hashlib, whose import
# maps OpenSSL
DEFERRED = ("hashlib", "_hashlib", "_blake2", "fractions", "decimal", "json", "signal", "array", "atexit")


def run_bare(code: str) -> str:
    """stdout of `code` in a fresh interpreter that skips site, so no .pth
    file can load a module first, with src on the path."""
    prelude = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
    out = subprocess.run(
        [sys.executable, "-E", "-S", "-c", prelude + code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return out.stdout


def blake2b_seed(master: int, index: int, label: str) -> int:
    """derive_seed's definition: the 8-byte BLAKE2b of "master:label:index"."""
    digest = hashlib.blake2b(f"{master}:{label}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def test_import_leaves_the_deferred_modules_unloaded():
    code = f"import hitlab, hitlab.cli; print(sorted(set({DEFERRED!r}) & set(sys.modules)))"
    assert run_bare(code) == "[]\n"


# modules no hitlab import or command loads: dataclasses would pull in
# inspect, which imports dis, ast and tokenize; the records are built on
# graph.Record instead
NEVER_LOADED = ("dataclasses", "inspect", "dis", "ast", "tokenize")


def test_import_and_commands_leave_the_introspection_modules_unloaded(tmp_path):
    # a certificate written by hit, checked by verify, and a two-cell sweep
    graph, cert, config = tmp_path / "c5.el", tmp_path / "c5.cert", tmp_path / "sweep.json"
    save_graph(gen_cycle(5), str(graph))
    config.write_text(json.dumps({"families": [{"kind": "path"}], "n_values": [6], "seeds": [1, 2]}))
    commands = [
        ["hit", "--graph", str(graph), "--theta", "1:2", "--delta", "0.5", "--seed", "7", "--out", str(cert)],
        ["verify", "--graph", str(graph), "--cert", str(cert)],
        ["experiment", "--config", str(config), "--out", str(tmp_path / "sweep.csv")],
    ]
    code = (
        "import hitlab, hitlab.cli\n"
        f"loaded = sorted(set({NEVER_LOADED!r}) & set(sys.modules))\n"
        f"codes = [hitlab.cli.dispatch(argv) for argv in {commands!r}]\n"
        f"print(repr((loaded, codes, sorted(set({NEVER_LOADED!r}) & set(sys.modules)))))\n"
    )
    assert ast.literal_eval(run_bare(code).splitlines()[-1]) == ([], [0, 0, 0], [])


# C4-free n = 40 with 78 edges, graph seed 0, s = t = k = 2
MC_SETUP = (
    "import os\n"
    "from hitlab import analysis\n"
    "from hitlab.graph import gen_c4_free_process\n"
    "from hitlab.mis import alpha_with_witness\n"
    "g = gen_c4_free_process(40, 78, 0)\n"
    "sched = analysis.resolve_schedule(g, {'mode': 'auto', 's': 2, 't': 2, 'k': 2})\n"
    "i_set = alpha_with_witness(g)[1]\n"
)


def test_monte_carlo_split_over_two_cpus_loads_no_hashlib():
    # 3,000 trials on two CPUs, twice: this process runs trials 0-1499 and
    # one helper process the rest, forked by the first call and reused
    code = MC_SETUP + (
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
        "analysis._cpus = lambda: 2\n"
        "runs = [analysis.monte_carlo_e(g, i_set, sched, 3000, seed).samples for seed in (5, 6)]\n"
        "seeds = [analysis.derive_seed(5, i, 'mc-e') for i in (0, 1499, 1500, 2999)]\n"
        "print(repr((len(forks), seeds, runs, sorted({'hashlib', '_hashlib'} & set(sys.modules)))))\n"
    )
    forks, seeds, runs, loaded = ast.literal_eval(run_bare(code))
    g = gen_c4_free_process(40, 78, 0)
    sched = resolve_schedule(g, {"mode": "auto", "s": 2, "t": 2, "k": 2})
    assert forks == 1 and loaded == []
    assert seeds == [blake2b_seed(5, i, "mc-e") for i in (0, 1499, 1500, 2999)]
    assert runs == [ref_monte_carlo_e(g, alpha_with_witness(g)[1], sched, 3000, seed) for seed in (5, 6)]


def test_interpreter_exit_reaps_every_helper():
    # two 3,000-trial calls on three CPUs: two helpers, forked by the first
    # call.  The exit handler registered first runs last, after the one that
    # stops the helpers, and must find no child.  A helper holding a write
    # end of a job pipe, its own or a sibling's, could keep a helper from
    # ever seeing end of file; on Linux each helper's job pipe ends are
    # listed from /proc, and it may hold only its own pipe's read end
    code = (
        "import atexit, os\n"
        "def last():\n"
        "    try:\n"
        "        print('child left', os.waitpid(-1, os.WNOHANG))\n"
        "    except ChildProcessError:\n"
        "        print('no child left')\n"
        "atexit.register(last)\n"
    ) + MC_SETUP + (
        "analysis._cpus = lambda: 3\n"
        "for seed in (5, 6):\n"
        "    analysis.monte_carlo_e(g, i_set, sched, 3000, seed)\n"
        "ok = True\n"
        "if sys.platform == 'linux':\n"
        "    owner = {os.readlink(f'/proc/self/fd/{job_w}'): pid for pid, job_w, _ in analysis._helpers}\n"
        "    for pid in owner.values():\n"
        "        ends = [os.readlink(f'/proc/{pid}/fd/{fd}') for fd in os.listdir(f'/proc/{pid}/fd')]\n"
        "        ok = ok and [owner[end] for end in ends if end in owner] == [pid]\n"
        "print(ok, len(analysis._helpers))\n"
    )
    assert run_bare(code).splitlines()[-2:] == ["True 2", "no child left"]


def test_mc_e_command_loads_no_hashlib(tmp_path):
    # the CLI path on the same graph: `hitlab mc-e` prints its estimate, and
    # the last line says which of hashlib and _hashlib the run loaded
    graph = tmp_path / "c4free40.el"
    save_graph(gen_c4_free_process(40, 78, 0), str(graph))
    code = (
        "from hitlab import cli\n"
        f"code = cli.dispatch(['mc-e', '--graph', {str(graph)!r}, '--schedule', 'auto', '--trials', '3000', '--seed', '5'])\n"
        "print(repr((code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))))\n"
    )
    assert ast.literal_eval(run_bare(code).splitlines()[-1]) == (0, [])


def test_seeds_are_hashlibs_blake2b():
    masters = (-(2**70), -1, 0, 7, 2**64 - 1, 2**64, 2**64 + 1, 3**90)
    labels = ("", "mc-e", "cell", "a:b", "\u03b4-\u65b9")  # the last is not ASCII
    for master in masters:
        for label in labels:
            for index in (0, 1, 10, 2999, 2**64):
                assert derive_seed(master, index, label) == blake2b_seed(master, index, label)
