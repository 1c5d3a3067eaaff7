"""Tooling outside the package that breaks silently when the package
changes: the benchmark tracer wraps functions by name, the demos call
the public API and assert their own claims, numpy stays the only
runtime dependency, and no public callable takes a random generator."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_package_does_not_import_sympy():
    for path in sorted((ROOT / "src" / "tautilt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "sympy" for n in names), path


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group()
             for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_public_api_takes_no_random_generator():
    # decomposition seeds its own generator, so results are deterministic
    # and no public callable takes one
    tautilt = importlib.import_module("tautilt")
    for name in tautilt.__all__:
        obj = getattr(tautilt, name)
        if not callable(obj) or (isinstance(obj, type)
                                 and issubclass(obj, Exception)):
            continue
        assert "rng" not in inspect.signature(obj).parameters, name


def _traced() -> dict:
    """perfbench/tracer.py's TRACED: metric -> (module, dotted path)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for metric, (home, path) in traced.items():
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


def test_private_helpers_are_used():
    # a private helper that nothing else in the package names is dead
    # code, kept alive only by the tests that call it
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "tautilt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defined.append((path.name, name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined
    assert [d for d in defined if d[1] not in named] == []


def _readme_names() -> set:
    """Identifiers in the README's python blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    fence = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
    spans = [body for lang, body in fence.findall(text) if lang == "python"]
    spans += re.findall(r"`([^`\n]+)`", fence.sub("", text))
    return {name for span in spans
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_public_names_are_used():
    # a public function, class or method that no module of the package
    # names, the README does not document and the benchmark does not trace
    # is kept alive only by the tests that call it; the package's __init__
    # only re-exports, so its imports name nothing
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "tautilt").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    traced = {path for _, path in _traced().values()}
    named |= _readme_names()
    assert defined
    assert [qual for qual, name in defined if not name.startswith("_")
            and name not in named and qual not in traced] == []


def test_no_unused_imports():
    # every name an import binds is used in its file; the package's
    # __init__ is exempt, as its imports are the public API
    paths = [path for path in sorted((ROOT / "src" / "tautilt").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / "demos").glob("*.py"))
    unused = []
    for path in paths:
        bound, used = set(), set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    bound |= {alias.asname or alias.name.split(".")[0]
                              for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [(path.name, name) for name in sorted(bound - used)]
    assert unused == []


def test_structure_constants_stay_in_algebra():
    # the algebra owns the format of its products: no module keeps a dense
    # table, and only algebra.py reads the structure constants, which the
    # rest of the package reaches through the algebra's methods
    hits = []
    for path in sorted((ROOT / "src" / "tautilt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.arg, ast.keyword)):
                name = node.arg
            else:
                continue
            if name == "mult_table" or (name == "_constants"
                                        and path.name != "algebra.py"):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
