"""Every function the benchmark tracer wraps is still a function of its
``lyub`` module, so a change that removes or renames one fails here and not
only in the benchmark's own self-test."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_span_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.SPANS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"lyub.{mod}"), fn, None))
    ]
    assert missing == []
