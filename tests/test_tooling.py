"""The benchmark tracer wraps functions by name; every name it lists must
still resolve in the package, or traced runs break silently."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for metric, (home, path) in tracer.TRACED.items():
        owner = importlib.import_module(f"tautilt.{home}")
        for attr in path.split("."):
            assert hasattr(owner, attr), metric
            owner = getattr(owner, attr)
        assert callable(owner), metric
