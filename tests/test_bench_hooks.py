"""The traced benchmark wraps hitlab functions by (module, attribute);
every one of them must exist, or `bench/run.py --trace 1` cannot start."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"hitlab.{mod}.{attr}"
        for sites in tracer.WRAPS.values()
        for mod, attr in sites
        if not callable(getattr(importlib.import_module(f"hitlab.{mod}"), attr, None))
    ]
    assert tracer.WRAPS and missing == []
