"""Memory: every command and library entry point leaves nothing of tautilt
in reference cycles once its algebra is released, so a process that runs
many commands frees each one's algebra by reference counting; and
BoundQuiverAlgebra.release keeps the algebra usable."""

import contextlib
import gc
import io
import json
import types

import pytest

from tautilt.cli import main
from tautilt.modules import decompose, iso_classes, regular
from tautilt.pairs import (
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    summand_flags,
    two_cy_obstruction_report,
)
from tautilt.textio import (
    algebra_json,
    module_expr_string,
    parse_algebra_file,
    parse_module_terms,
)

from conftest import DATA

FILES = sorted(p.name for p in DATA.glob("*.alg"))


def _in_tautilt(obj) -> bool:
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return (module or "").split(".")[0] == "tautilt"


def _tautilt_garbage(run) -> list:
    """The tautilt objects, by type or function name, that run() leaves in
    reference cycles: run() goes with the collector off, then one
    collection keeps what it finds unreachable in gc.garbage.  Cycles of
    other modules (json's encoder, ast.literal_eval) are not counted."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        found = sorted({getattr(o, "__qualname__", type(o).__qualname__)
                        for o in gc.garbage if _in_tautilt(o)})
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found


def _main(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3), argv
    return out.getvalue()


@pytest.mark.parametrize("name", FILES)
def test_commands_leave_no_cyclic_garbage(name):
    path = str(DATA / name)
    cap = ["--cap", "10"] if name == "kronecker.alg" else []
    printed = []

    def walk():
        printed.append(_main(["enumerate", path] + cap))

    assert _tautilt_garbage(walk) == []
    entries = [e for e in json.loads(printed[0])["entries"] if e["modules"]]
    pair = entries[len(entries) // 2]
    pair_args = ["+".join(pair["modules"]), "--pverts",
                 ",".join(map(str, pair["projective_vertices"]))]
    runs = [["info", path], ["info", path, "--json"]]
    for command in ("check", "phi"):
        runs.append([command, path] + pair_args)
        runs.append([command, path] + pair_args + ["--json"])
    for filter_ in ("tilting", "nu-stable"):
        runs.append(["enumerate", path, "--filter", filter_] + cap)
    runs.append(["report-2cy", path] + cap)
    for argv in runs:
        assert _tautilt_garbage(lambda: _main(argv)) == [], argv


@pytest.mark.parametrize("entry", [
    lambda alg: decompose(regular(alg)),
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    two_cy_obstruction_report,
], ids=["decompose", "enumerate_nu_stable", "enumerate_support_tau_tilting",
        "two_cy_obstruction_report"])
@pytest.mark.parametrize("name", ["nakayama4.alg", "preproj_a3.alg"])
def test_library_entry_points_leave_no_cyclic_garbage_after_release(entry,
                                                                    name):
    def run():
        alg = parse_algebra_file(str(DATA / name))
        assert entry(alg)
        alg.release()

    assert _tautilt_garbage(run) == []


def test_release_keeps_the_algebra_usable():
    alg = parse_algebra_file(str(DATA / "nakayama6.alg"))
    op = alg.opposite()
    expr = "S(3)+S(6)+P(2)/<a2*a3>+P(5)/<a5*a6>"

    def answers():
        parts = [part for term in parse_module_terms(alg, expr)
                 for part in decompose(term)]
        classes, mults = iso_classes(parts)
        pe = enumerate_nu_stable(alg)
        return (summand_flags(alg, classes, mults, (1, 4)),
                [([module_expr_string(m) for m in p.modules],
                  sorted(p.pverts)) for p in pe.pairs],
                algebra_json(alg))

    before = answers()
    assert before[0]["nu-stable"] and before[2]["relations"] == ["radical^4"]
    alg.release()
    assert answers() == before
    alg.release()
    alg.release()
    assert answers() == before
    assert alg.opposite().opposite() is alg
    assert alg.opposite() is not op
