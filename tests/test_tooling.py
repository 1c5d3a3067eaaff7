"""Tooling outside the package that breaks silently when the package
changes: the benchmark tracer wraps functions by name, and the demos call
the public API and assert their own claims."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
