"""Spans around every call the program makes across a module boundary.

hitlab's modules import one another's functions by name, so a layer is
wrapped at every module attribute it is reached through: alpha needs a
wrapper in hitting, mis, analysis and cli.  Each span records its layer,
start, end, parent span and instance id.  Spans are kept in memory and
written out when the run ends.

Self time is made additive across the worker threads of HITLAB_THREADS:
every instant of the traced wall time is split evenly between the spans
open at that instant that have no open child, and an instant with no open
span belongs to the benchmark itself.  With one thread this is the usual
span-minus-children rule; with a pool, the layer sums plus the benchmark's
own time add up exactly to the wall time.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict

# (module, attribute) -> layer.  Every name the program calls a layer
# through is listed, so a call is traced whichever module makes it.
WRAPS = {
    "graph.gen": [
        (mod, fn)
        for mod in ("graph", "analysis", "cli")
        for fn in ("gen_cluster", "gen_path", "gen_cycle", "gen_c4_free_process", "gen_gnp")
    ],
    "graph.kst_search": [("graph", "find_induced_kst"), ("analysis", "find_induced_kst"), ("cli", "find_induced_kst")],
    "mis.alpha": [("mis", "alpha_with_witness"), ("hitting", "alpha_with_witness"),
                  ("analysis", "alpha_with_witness"), ("cli", "alpha_with_witness")],
    "mis.enumerate": [("mis", "enumerate_mis"), ("hitting", "enumerate_mis"), ("cli", "enumerate_mis")],
    "hitting.construct": [("hitting", "construct_hitting_set"), ("analysis", "construct_hitting_set"),
                          ("cli", "construct_hitting_set")],
    "hitting.build_K": [("hitting", "build_K"), ("analysis", "build_K")],
    "hitting.verify": [("hitting", "verify_hitting_set"), ("analysis", "verify_hitting_set"),
                       ("cli", "verify_hitting_set")],
    "hitting.validate": [("hitting", "validate_certificate"), ("cli", "validate_certificate")],
    "hitting.replay": [("hitting", "replay_check")],
    "hitting.cert_codec": [("hitting", "certificate_to_text"), ("hitting", "certificate_from_text"),
                           ("analysis", "certificate_to_text"), ("cli", "certificate_to_text"),
                           ("cli", "certificate_from_text")],
    "hitting.minhit": [("hitting", "min_hitting_set"), ("analysis", "min_hitting_set"), ("cli", "min_hitting_set")],
    "analysis.experiment": [("analysis", "run_experiment"), ("analysis", "load_config"),
                            ("cli", "run_experiment"), ("cli", "load_config")],
    "analysis.mc_e": [("analysis", "monte_carlo_e"), ("cli", "monte_carlo_e")],
    "analysis.csv": [("analysis", "records_to_csv"), ("cli", "records_to_csv")],
    "io.load": [("io", "load_graph"), ("cli", "load_graph")],
    "io.save": [("io", "save_graph")],
    "cli.dispatch": [("cli", "dispatch")],
}

LAYERS = tuple(WRAPS)


class Span:
    __slots__ = ("layer", "start", "end", "parent", "instance", "items", "argv0")

    def __init__(self, layer, start, parent, instance):
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.instance = instance
        self.items = None  # sets listed by an enumeration, cells by an experiment
        self.argv0 = None  # subcommand of a cli.dispatch span


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.instance = None
        self._originals = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker: its caller is the span the main thread waits in
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(layer, 0.0, parent, tracer.instance)
            if layer == "cli.dispatch" and args and args[0]:
                span.argv0 = args[0][0]
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if layer == "mis.enumerate":
                span.items = len(out.sets)
            elif layer == "analysis.experiment" and isinstance(out, list):
                span.items = len(out)
            return out

        return traced

    def install(self) -> None:
        for layer, sites in WRAPS.items():
            for mod_name, attr in sites:
                mod = self.modules[mod_name]
                fn = getattr(mod, attr)
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def write(self, path: str) -> None:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": sp.layer,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": None if sp.parent is None else index[id(sp.parent)],
                    "instance": sp.instance,
                }
                fh.write(json.dumps(rec) + "\n")


def check_spans(spans: list[Span], start: float, end: float) -> list[str]:
    """Spans left open, lying outside [start, end], or not inside their parent."""
    bad = []
    for sp in spans:
        parent = sp.parent
        if sp.end is None:
            bad.append(f"{sp.layer} span never ended")
        elif not start <= sp.start <= sp.end <= end:
            bad.append(f"{sp.layer} span outside its window")
        elif parent is not None and (parent.end is None or not parent.start <= sp.start <= sp.end <= parent.end):
            bad.append(f"{sp.layer} span not inside its parent {parent.layer}")
    return bad


def self_times(spans: list[Span], start: float, end: float) -> tuple[dict, float]:
    """Per-layer self time (s) inside [start, end], and the time in no span.

    Each instant is split evenly between the open spans that have no
    open child; the results sum exactly to end - start.
    """
    events = []
    for sp in spans:
        events.append((sp.start, 1, sp))
        events.append((sp.end, 0, sp))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children: dict[int, int] = {}
    leaves: dict[int, Span] = {}
    layer_s: dict[str, float] = defaultdict(float)
    outside = 0.0
    prev = start
    for t, is_start, sp in events:
        dt = t - prev
        if leaves:
            share = dt / len(leaves)
            for leaf in leaves.values():
                layer_s[leaf.layer] += share
        else:
            outside += dt
        prev = t
        parent = sp.parent
        pkey = id(parent) if parent is not None and id(parent) in open_children else None
        if is_start:
            if pkey is not None:
                open_children[pkey] += 1
                leaves.pop(pkey, None)
            open_children[id(sp)] = 0
            leaves[id(sp)] = sp
        else:
            del open_children[id(sp)]
            leaves.pop(id(sp), None)
            if pkey is not None:
                open_children[pkey] -= 1
                if open_children[pkey] == 0:
                    leaves[pkey] = parent
    outside += end - prev
    return dict(layer_s), outside
