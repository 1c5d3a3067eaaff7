"""Command line interface: output shapes, exit codes, JSON round-trips
and determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from sympy import nextprime

from tautilt.cli import main
from tautilt.pairs import (
    complex_to_pair,
    enumerate_nu_stable,
    make_pair,
    pair_to_complex,
)
from tautilt.textio import (
    parse_algebra_file,
    parse_algebra_text,
    parse_module_expr,
)

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_human(capsys, data_dir):
    code, out, _ = run(capsys, "info", str(data_dir / "nakayama6.alg"))
    assert code == 0
    assert "dimension: 24" in out
    assert "selfinjective: yes" in out
    assert "(1 4)(2 5)(3 6)" in out


def test_info_json(capsys, data_dir):
    code, out, _ = run(capsys, "info", str(data_dir / "preproj_a3.alg"),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 10
    assert doc["selfinjective"] is True
    assert doc["nakayama_permutation"] == {"1": 3, "2": 2, "3": 1}


def test_check_pass_and_fail(capsys, data_dir):
    alg = str(data_dir / "nakayama6.alg")
    code, out, _ = run(capsys, "check", alg,
                       "S(3)+S(6)+P(2)/<a2*a3>+P(5)/<a5*a6>",
                       "--pverts", "1,4",
                       "--require", "support-tau-tilting,nu-stable")
    assert code == 0
    assert "support-tau-tilting: yes (required)" in out
    assert "nu-stable: yes (required)" in out
    code, out, _ = run(capsys, "check", alg, "S(1)+S(2)", "--pverts", "3,4,5,6")
    assert code == 1
    assert "support-tau-tilting: no (required)" in out
    assert "result: failed" in out


def test_check_json_flags(capsys, data_dir):
    alg = str(data_dir / "nakayama4.alg")
    code, out, _ = run(capsys, "check", alg, "S(1)", "--pverts", "2,3,4",
                       "--require", "tau-rigid", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["tau-rigid"] is True
    assert doc["flags"]["support-tau-tilting"] is True


def test_check_nu_stable_needs_selfinjective(capsys, data_dir):
    alg = str(data_dir / "a2.alg")
    code, _, err = run(capsys, "check", alg, "S(1)", "--pverts", "2",
                       "--require", "nu-stable")
    assert code == 2
    assert "error" in err
    # without requiring stability the same pair passes
    code, out, _ = run(capsys, "check", alg, "S(1)", "--pverts", "2")
    assert code == 0
    assert "nu-stable: n/a" in out


def test_check_rejects_bad_require(capsys, data_dir):
    code, _, err = run(capsys, "check", str(data_dir / "a2.alg"), "S(1)",
                       "--pverts", "2", "--require", "nosuch-flag")
    assert code == 2


def test_phi_human_and_json(capsys, data_dir):
    alg = str(data_dir / "nakayama4.alg")
    code, out, _ = run(capsys, "phi", alg, "S(1)+S(3)+P(1)+P(3)")
    assert code == 0
    assert "deg -1: P(2) + P(4)" in out
    assert "deg  0: P(1) + P(1) + P(3) + P(3)" in out
    assert "[a1, 0]" in out and "[0, a3]" in out
    code, out, _ = run(capsys, "phi", alg, "S(1)+S(3)+P(1)+P(3)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["complex"]["m1"] == [0, 1, 0, 1]
    assert doc["complex"]["m0"] == [2, 0, 2, 0]


def test_phi_rejects_non_pair(capsys, data_dir):
    code, _, err = run(capsys, "phi", str(data_dir / "nakayama4.alg"),
                       "S(1)+S(1)")
    assert code == 1
    assert "error" in err


def test_enumerate_one_vertex(capsys, data_dir):
    code, out, _ = run(capsys, "enumerate", str(data_dir / "one_vertex.alg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["flag"] == "COMPLETE"
    assert len(doc["entries"]) == 2
    mods = sorted(tuple(e["modules"]) for e in doc["entries"])
    assert mods == [(), ("S(1)",)]  # the one projective is simple here


def test_enumerate_filters_and_roundtrip(capsys, data_dir):
    alg = str(data_dir / "nakayama4.alg")
    code, out, _ = run(capsys, "enumerate", alg, "--filter", "nu-stable")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 6
    assert all(e["nu_stable"] and e["tilting"] for e in doc["entries"])
    # every emitted entry re-parses and passes check with the same flags
    for e in doc["entries"]:
        expr = "+".join(e["modules"]) if e["modules"] else "0"
        argv = ["check", alg, expr, "--require",
                "support-tau-tilting,nu-stable"]
        if e["projective_vertices"]:
            argv += ["--pverts",
                     ",".join(str(v) for v in e["projective_vertices"])]
        code2, _, _ = run(capsys, *argv)
        assert code2 == 0, e["modules"]


def test_enumerate_truncation_exit_code(capsys, data_dir):
    code, out, _ = run(capsys, "enumerate", str(data_dir / "nakayama4.alg"),
                       "--cap", "10")
    assert code == 3
    assert json.loads(out)["flag"] == "TRUNCATED"


def test_cap_counts_nodes_once_per_level(capsys, data_dir):
    """--cap bounds the node count, checked at the start of each
    breadth-first level: a truncated walk prints every node it found, at
    least the cap (28 for nakayama6 at cap 10), and a cap at or above the
    full count completes."""
    alg = str(data_dir / "nakayama6.alg")
    code, out, _ = run(capsys, "enumerate", alg, "--cap", "10")
    doc = json.loads(out)
    assert code == 3 and doc["flag"] == "TRUNCATED"
    assert len(doc["entries"]) >= 10
    code, out, _ = run(capsys, "enumerate", alg)
    full = len(json.loads(out)["entries"])
    assert code == 0 and full > 10
    code, out, _ = run(capsys, "enumerate", alg, "--cap", str(full))
    doc = json.loads(out)
    assert code == 0 and doc["flag"] == "COMPLETE"
    assert len(doc["entries"]) == full


def test_nu_stable_cap_counts_visited_nodes(capsys, data_dir):
    """For --filter nu-stable, --cap bounds the stable nodes the walk over
    stable nodes finds (20 on nakayama6), checked before each node is
    expanded: a small cap stops it TRUNCATED, and the stable count
    completes it."""
    alg = str(data_dir / "nakayama6.alg")
    visited = len(enumerate_nu_stable(parse_algebra_file(alg)).silting.nodes)
    assert visited == 20
    code, out, _ = run(capsys, "enumerate", alg, "--filter", "nu-stable",
                       "--cap", "10")
    doc = json.loads(out)
    assert code == 3 and doc["flag"] == "TRUNCATED"
    assert len(doc["entries"]) < 20
    code, out, _ = run(capsys, "enumerate", alg, "--filter", "nu-stable",
                       "--cap", str(visited))
    doc = json.loads(out)
    assert code == 0 and doc["flag"] == "COMPLETE"
    assert len(doc["entries"]) == 20


def test_nu_stable_completes_nakayama_8_8_at_the_default_cap(capsys, tmp_path,
                                                            algebras):
    """N(8,8) has one orbit of the Nakayama functor on the stalks of the
    algebra, so the whole silting graph (12870 nodes) is not walked: the
    two stable nodes, the algebra and its shift, are one orbit mutation
    apart."""
    alg = tmp_path / "n88.alg"
    alg.write_text(algebras.nakayama(8, 8))
    code, out, _ = run(capsys, "enumerate", str(alg), "--filter", "nu-stable")
    doc = json.loads(out)
    assert code == 0 and doc["flag"] == "COMPLETE"
    assert len(doc["entries"]) == 2


def test_enumerate_nu_stable_rejected_off_selfinjective(capsys, data_dir):
    code, _, err = run(capsys, "enumerate", str(data_dir / "a2.alg"),
                       "--filter", "nu-stable")
    assert code == 2
    assert "error" in err


def test_enumerate_deterministic(capsys, data_dir):
    alg = str(data_dir / "preproj_a3.alg")
    _, out1, _ = run(capsys, "enumerate", alg, "--seed", "3")
    _, out2, _ = run(capsys, "enumerate", alg, "--seed", "3")
    assert out1 == out2


def test_report_exit_codes(capsys, data_dir):
    code, out, _ = run(capsys, "report-2cy", str(data_dir / "nakayama4.alg"))
    assert code == 0
    assert json.loads(out)["verdict"] == "CONSISTENT"
    code, out, _ = run(capsys, "report-2cy", str(data_dir / "preproj_a3.alg"))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "OBSTRUCTED"
    assert doc["checks"]["gorenstein-injective-dimension"] == "PASS"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "info", "/no/such/file.alg")
    assert code == 2
    assert "error" in err


def test_bad_module_expression(capsys, data_dir):
    code, _, err = run(capsys, "check", str(data_dir / "a2.alg"), "S(9)",
                       "--pverts", "2")
    assert code == 2


def test_rep_literal_entries_are_exact_residues(capsys, data_dir):
    alg = str(data_dir / "a2.alg")
    huge = 10**20

    def check(entry):
        return run(capsys, "check", alg,
                   f"rep{{ dims = [1,1]; arrow a = [[{entry}]]; }}",
                   "--require", "tau-rigid", "--json")

    got = check(huge)
    assert got[0] == 0
    assert got == check(huge % 32003)


@pytest.mark.parametrize("literal", [
    "rep{ dims = [1,1]; arrow a = [[1.5]]; }",
    "rep{ dims = [1,1]; arrow a = [[True]]; }",
    "rep{ dims = [1.7,1]; }",
])
def test_rep_literal_rejects_non_integers(capsys, data_dir, literal):
    code, out, err = run(capsys, "check", str(data_dir / "a2.alg"), literal)
    assert code == 2 and not out
    assert "integer" in err


@pytest.mark.parametrize("literal, key", [
    ("rep{ dims = [-1,0,0,0]; }", "'dims'"),
    ("rep{ dims = [1,0,0,0]; dims = [0,1,0,0]; }", "'dims'"),
    ("rep{ dims = [1,1,0,0]; arrow a1 = [[1]]; arrow a1 = [[0]]; }",
     "'arrow a1'"),
    # a1: 1 -> 2 needs 2 rows of 1, and the transposed block is refused
    ("rep{ dims = [2,1,0,0]; arrow a1 = [[1,2]]; }", "'arrow a1'"),
])
def test_rep_literal_names_the_bad_key(capsys, data_dir, literal, key):
    code, out, err = run(capsys, "check", str(data_dir / "nakayama4.alg"),
                         literal, "--require", "tau-rigid")
    assert code == 2 and not out
    assert err.startswith("error: rep literal") and key in err


@pytest.mark.parametrize("expr", ["S(1)+S(1)", "S(1)"])
@pytest.mark.parametrize("pverts, message", [
    ("9", "vertex 9 out of range"),
    ("0,2", "vertex 0 out of range"),
    ("2,2", "complement vertices repeat"),
])
def test_check_rejects_bad_complement_vertices(capsys, data_dir, expr, pverts,
                                               message):
    # the same rejection as phi's, whether or not the module part is basic
    alg = str(data_dir / "nakayama4.alg")
    code, out, err = run(capsys, "check", alg, expr, "--pverts", pverts)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    if expr == "S(1)":
        assert run(capsys, "phi", alg, expr, "--pverts", pverts) == (
            code, out, err)


def _cyclic_nakayama_text(n, loewy):
    arrows = "\n".join(f"arrow a{v} {v} -> {v % n + 1}" for v in range(1, n + 1))
    return f"vertices {n}\n{arrows}\nrelations:\nradical^{loewy}\n"


def test_dimension_limit_in_user_terms(capsys, tmp_path):
    # two-term complexes need what modules need, p > 4 * d^2
    text = _cyclic_nakayama_text(7, 5)
    assert parse_algebra_text(text).dim == 35
    path = tmp_path / "nakayama7.alg"
    path.write_text(text)
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and "dimension: 35" in out
    code, _, err = run(capsys, "enumerate", str(path), "--field-p", "4889")
    assert code == 2
    assert "dimension 35" in err and "4900" in err and "--field-p" in err
    assert "105" not in err and "44100" not in err


def test_prime_too_large_is_input_error(capsys, data_dir):
    alg = str(data_dir / "nakayama4.alg")
    code, _, err = run(capsys, "enumerate", alg, "--field-p", "4294967291")
    assert code == 2
    assert "too large" in err and "--field-p" in err
    code, _, err = run(capsys, "info", str(data_dir / "preproj_a3.alg"),
                       "--field-p", str(2**31 - 1))
    assert code == 2
    assert "dimension 10" in err


def test_enumerate_at_largest_accepted_prime(capsys, data_dir):
    # complexes need only the bound of the algebra, of dimension 12
    alg = str(data_dir / "nakayama4.alg")
    big = oracles.largest_exact_prime(12)
    code, out, _ = run(capsys, "enumerate", alg, "--field-p", str(big))
    assert code == 0
    code, _, err = run(capsys, "enumerate", alg,
                       "--field-p", str(nextprime(big)))
    assert code == 2 and "dimension 12" in err
    golden = (data_dir / "golden" / "enumerate_nakayama4_silting.stdout")
    expect = json.loads(golden.read_text())
    doc = json.loads(out)
    assert doc["algebra"]["p"] == big
    assert doc["entries"] == expect["entries"]


def test_walk_never_builds_the_triangular_algebra(capsys, monkeypatch,
                                                  data_dir, algebras,
                                                  tmp_path):
    # every command, and the inverse transport of the library, builds the
    # algebra it reads and at most that algebra's opposite
    from tautilt.algebra import build_algebra

    built = []

    def counting(*args, **kwargs):
        built.append(args[0].num_vertices)
        return build_algebra(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tautilt") and hasattr(module, "build_algebra"):
            monkeypatch.setattr(module, "build_algebra", counting)
    pa4 = tmp_path / "pa4.alg"
    pa4.write_text(algebras.preprojective(4))
    nak6 = str(data_dir / "nakayama6.alg")
    nak4 = str(data_dir / "nakayama4.alg")
    for argv in (("enumerate", nak6, "--filter", "nu-stable"),
                 ("enumerate", str(pa4), "--filter", "nu-stable"),
                 ("check", nak4, "S(1)+P(1)+S(3)+P(3)", "--require",
                  "support-tau-tilting,nu-stable"),
                 ("phi", nak4, "S(1)+P(1)+S(3)+P(3)"),
                 ("report-2cy", nak4)):
        built.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert 1 <= len(built) <= 2, argv
    built.clear()
    alg = parse_algebra_file(nak4)
    mods = [parse_module_expr(alg, s) for s in ("S(1)", "P(1)", "S(3)", "P(3)")]
    pair = complex_to_pair(pair_to_complex(make_pair(alg, mods, ())))
    assert len(pair.modules) == 4
    assert 1 <= len(built) <= 2


GOLDEN_RUNS = [
    (("enumerate", "nakayama4.alg", "--filter", "silting"),
     "enumerate_nakayama4_silting.stdout", 0),
    (("enumerate", "preproj_a3.alg", "--filter", "silting"),
     "enumerate_preproj_a3_silting.stdout", 0),
    (("report-2cy", "nakayama4.alg"), "report-2cy_nakayama4.stdout", 0),
    (("enumerate", "nakayama4.alg", "--filter", "nu-stable"),
     "enumerate_nakayama4_nu_stable.stdout", 0),
    (("report-2cy", "a2.alg"), "report-2cy_a2.stdout", 0),
    (("report-2cy", "gorenstein_witness.alg"),
     "report-2cy_gorenstein_witness.stdout", 1),
    (("report-2cy", "nakayama6.alg"), "report-2cy_nakayama6.stdout", 1),
    (("report-2cy", "one_vertex.alg"), "report-2cy_one_vertex.stdout", 0),
    (("report-2cy", "preproj_a3.alg"), "report-2cy_preproj_a3.stdout", 1),
    (("report-2cy", "kronecker.alg", "--cap", "10"),
     "report-2cy_kronecker_cap10.stdout", 3),
]


@pytest.mark.parametrize(
    "argv, golden, exit_code", GOLDEN_RUNS,
    ids=[f"argv{i}-{golden}" for i, (_, golden, _) in enumerate(GOLDEN_RUNS)])
def test_stdout_matches_golden(capsys, data_dir, argv, golden, exit_code):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, str(data_dir / name), *rest)
    assert code == exit_code
    assert out.encode() == (data_dir / "golden" / golden).read_bytes()


def _assert_runs_without(module, argv, code=0):
    """main(argv) exits with code in a fresh process where importing
    module fails."""
    script = ("import contextlib, io, sys\n"
              f"sys.modules[{module!r}] = None\n"
              "from tautilt.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              f"assert code == {code}, code\n")
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _assert_runs_without_sympy(argv, code=0):
    _assert_runs_without("sympy", argv, code)


def test_walk_runs_without_sympy(data_dir):
    # the package imports sympy nowhere
    _assert_runs_without_sympy(["enumerate", str(data_dir / "nakayama6.alg"),
                                "--filter", "nu-stable"])


def test_enumerate_ignores_seed(capsys, data_dir):
    # the walk draws no random numbers; --seed stays accepted but inert
    alg = str(data_dir / "nakayama4.alg")
    _, out0, _ = run(capsys, "enumerate", alg, "--seed", "0")
    _, out7, _ = run(capsys, "enumerate", alg, "--seed", "7")
    assert out0 == out7


def _check_variants(entries):
    """Each (modules, pverts) as given, with one summand dropped and with
    one module summand repeated; the positions rotate with the entry."""
    for k, e in enumerate(entries):
        mods, pverts = list(e["modules"]), list(e["projective_vertices"])
        yield mods, pverts
        i = k % (len(mods) + len(pverts))
        if i < len(mods):
            yield mods[:i] + mods[i + 1:], pverts
        else:
            i -= len(mods)
            yield mods, pverts[:i] + pverts[i + 1:]
        if mods:
            yield mods + [mods[k % len(mods)]], pverts


def _assert_check_matches_whole_sum(capsys, path, expr, pverts, required):
    argv = ["check", str(path), expr, "--pverts", ",".join(map(str, pverts)),
            "--require", ",".join(required), "--json"]
    code, out, _ = run(capsys, *argv)
    want = oracles.whole_sum_check_flags(parse_algebra_file(str(path)), expr,
                                         tuple(pverts), required)
    assert code == want["code"], argv
    if code != 2:
        doc = json.loads(out)
        assert (doc["basic"], doc["flags"]) == (want["basic"],
                                                want["flags"]), argv


@pytest.mark.parametrize("name", ["nakayama6", "nakayama4", "preproj_a3",
                                  "a2", "gorenstein_witness"])
def test_check_matches_whole_sum_route(capsys, data_dir, name):
    path = data_dir / f"{name}.alg"
    if name == "nakayama6":
        entries = json.loads(
            (data_dir / "nakayama6_nu_stable_golden.json").read_text())
        entries = entries["entries"]
    else:
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        entries = json.loads(out)["entries"]
    selfinj = name not in ("a2", "gorenstein_witness")
    required = (("support-tau-tilting", "nu-stable") if selfinj
                else ("support-tau-tilting",))
    for mods, pverts in _check_variants(entries):
        _assert_check_matches_whole_sum(capsys, path, "+".join(mods) or "0",
                                        pverts, required)


@pytest.mark.parametrize("name, expr, pverts, required", [
    ("nakayama4", "0", (), ("tau-rigid",)),
    ("nakayama4", "0", (1, 2, 3, 4), ("support-tau-tilting", "nu-stable")),
    # a term that itself splits, into S(1) + S(2)
    ("nakayama4", "rep{ dims = [1,1,0,0]; }", (), ("tau-rigid",)),
    ("nakayama4", "rep{ dims = [1,1,0,0]; }+P(2)", (3, 4),
     ("support-tau-tilting",)),
    ("nakayama4", "rep{ dims = [2,0,0,0]; }", (), ("tau-rigid",)),
    ("nakayama4", "S(1)+P(1)", (1, 1), ("tau-rigid",)),
    ("a2", "S(1)", (2,), ("nu-stable",)),
    # more classes than fit beside the zero-support vertex 3
    ("preproj_a3", "S(1)+S(2)+P(1)/<a*b>", (), ("tau-rigid",)),
])
def test_check_edge_cases_match_whole_sum_route(capsys, data_dir, name, expr,
                                                pverts, required):
    _assert_check_matches_whole_sum(capsys, data_dir / f"{name}.alg", expr,
                                    pverts, required)


def test_check_more_classes_than_vertices_exits_2(capsys, data_dir):
    code, out, err = run(capsys, "check", str(data_dir / "a2.alg"),
                         "S(1)+S(2)+P(1)")
    assert code == 2 and not out
    assert "more summands than the algebra has vertices" in err


def test_check_modules_in_order_of_first_appearance(capsys, data_dir):
    code, out, _ = run(capsys, "check", str(data_dir / "nakayama4.alg"),
                       "P(3)+S(1)+S(1)", "--require", "", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["modules"] == ["P(3)", "S(1)"]
    assert doc["basic"] is False


def test_check_and_report_run_without_sympy(data_dir):
    # every term of a golden pair is indecomposable, so nothing splits;
    # the two rep literals split, S(1) + S(1) and S(1) + S(3)
    entry = json.loads((data_dir / "nakayama6_nu_stable_golden.json")
                       .read_text())["entries"][0]
    _assert_runs_without_sympy(
        ["check", str(data_dir / "nakayama6.alg"), "+".join(entry["modules"]),
         "--pverts", ",".join(map(str, entry["projective_vertices"])),
         "--require", "support-tau-tilting,nu-stable"])
    _assert_runs_without_sympy(["report-2cy",
                                str(data_dir / "nakayama4.alg")])
    _assert_runs_without_sympy(["check", str(data_dir / "nakayama4.alg"),
                                "rep{ dims=[2,0,0,0]; }"], code=1)
    _assert_runs_without_sympy(["phi", str(data_dir / "preproj_a3.alg"),
                                "rep{ dims=[1,0,1]; }", "--pverts", "2"])


def test_commands_without_a_draw_never_import_numpy_random(data_dir):
    # decompose builds its generator at its first draw, and every term
    # here is indecomposable, so nothing draws; the walk, report-2cy and
    # info decompose no module at all
    nak6 = str(data_dir / "nakayama6.alg")
    pair = [nak6, "S(1)+S(4)+P(3)/<a3*a4>+P(6)/<a6*a1>", "--pverts", "2,5"]
    for argv in (["check", *pair], ["phi", *pair],
                 ["enumerate", nak6, "--filter", "nu-stable"],
                 ["report-2cy", str(data_dir / "nakayama4.alg")],
                 ["info", nak6]):
        _assert_runs_without("numpy.random", argv)


def test_residue_field_larger_than_the_prime_is_an_input_error(capsys,
                                                               data_dir):
    # End is F_p[x]/(x^2 - 2), a field of p^2 elements: 2 is not a square
    # mod 32003, so the module is indecomposable but fails the local test
    code, out, err = run(capsys, "check", str(data_dir / "kronecker.alg"),
                         "rep{ dims = [2,2]; arrow a = [[1,0],[0,1]]; "
                         "arrow b = [[0,1],[2,0]]; }")
    assert code == 2
    assert out == ""
    assert "dimension vector [2, 2]" in err
    assert "residue field larger than F_32003" in err


def test_projectives_survive_check_and_enumerate(capsys, monkeypatch,
                                                 data_dir):
    from tautilt import cli
    from tautilt.modules import projective

    path = str(data_dir / "nakayama4.alg")
    alg = parse_algebra_file(path)
    assert projective(alg, 1) is projective(alg, 1)
    monkeypatch.setattr(cli, "parse_algebra_file", lambda *_: alg)
    # main releases the algebra after each command; keep its caches so the
    # second command shares the first one's modules
    monkeypatch.setattr(alg, "release", lambda: None)
    assert run(capsys, "check", path, "S(1)+P(1)/<a1*a2>+P(3)",
               "--pverts", "2")[0] in (0, 1)
    assert run(capsys, "enumerate", path)[0] == 0
    fresh = parse_algebra_file(path)
    for v in range(1, alg.num_vertices + 1):
        kept, new = projective(alg, v), projective(fresh, v)
        assert kept.dims == new.dims
        for a in alg.quiver.arrows:
            assert (kept.maps[a.name] == new.maps[a.name]).all()
            assert not kept.maps[a.name].flags.writeable


def test_projective_sums_survive_check_and_enumerate(capsys, monkeypatch,
                                                    data_dir):
    from tautilt import cli
    from tautilt.modules import direct_sum, projective, projective_sum

    path = str(data_dir / "nakayama4.alg")
    alg = parse_algebra_file(path)
    first = projective_sum(alg, [1, 3, 1])
    assert projective_sum(alg, (1, 3, 1)) is first
    monkeypatch.setattr(cli, "parse_algebra_file", lambda *_: alg)
    # main releases the algebra after each command; keep its caches so the
    # second command shares the first one's modules
    monkeypatch.setattr(alg, "release", lambda: None)
    assert run(capsys, "check", path, "S(1)+P(1)/<a1*a2>+P(3)",
               "--pverts", "2")[0] in (0, 1)
    assert run(capsys, "enumerate", path)[0] == 0
    cached = alg._cache["projective_sums"]
    assert len(cached) > 1
    fresh = parse_algebra_file(path)
    for verts, (kept, offsets) in cached.items():
        new, new_offsets = direct_sum(
            fresh, [projective(fresh, v) for v in verts])
        assert offsets == new_offsets
        assert kept.dims == new.dims
        for a in alg.quiver.arrows:
            assert (kept.maps[a.name] == new.maps[a.name]).all()
            assert not kept.maps[a.name].flags.writeable
