"""The benchmark's tracer patches named attributes of ikcs modules and
classes; every one of them must exist, or `perfbench/run.py --trace 1`
fails with a KeyError at install time."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_boundaries_are_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing.boundaries()
        if attr not in owner.__dict__
    ]
    assert not missing
