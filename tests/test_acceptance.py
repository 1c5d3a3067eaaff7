"""Acceptance gate.  Each test prints one PASS/FAIL line (run with -s to
see them) and asserts the same condition, so the suite fails exactly when
a criterion does."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from tautilt.complexes import (
    TwoTermComplex,
    complexes_isomorphic,
    is_two_term_tilting,
    minimalize,
    nu_complex,
    presentation_complex,
)
from tautilt.modules import (
    are_isomorphic,
    decompose,
    direct_sum,
    dual,
    hom_dim,
    projective,
    simple,
)
from tautilt.mutation import enumerate_two_term_silting, mutate_silting
from tautilt.pairs import (
    complex_to_pair,
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    is_nu_stable_pair,
    is_support_tau_minus_tilting,
    is_support_tau_tilting_pair,
    make_pair,
    pair_to_complex,
)
from tautilt.textio import parse_element, parse_module_expr
from tautilt.translate import (
    nakayama_permutation,
    tau,
    tau_minus,
)

import oracles
from oracles import is_nu_stable_module


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(*argv) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "tautilt.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def entries_to_pairs(algebra, entries):
    out = []
    for e in entries:
        mods = [parse_module_expr(algebra, s) for s in e["modules"]]
        out.append(make_pair(algebra, mods, tuple(e["projective_vertices"])))
    return out


def complex_from_json(algebra, doc) -> TwoTermComplex:
    deg1 = [v for v in range(1, algebra.num_vertices + 1)
            for _ in range(doc["m1"][v - 1])]
    deg0 = [v for v in range(1, algebra.num_vertices + 1)
            for _ in range(doc["m0"][v - 1])]
    d = np.zeros((len(deg0), len(deg1), algebra.dim), dtype=np.int64)
    for r, row in enumerate(doc["differential"]):
        for c, text in enumerate(row):
            d[r, c] = parse_element(algebra, text)
    return TwoTermComplex(algebra, deg1, deg0, d)


@pytest.fixture(scope="module")
def cli_nu_stable_run(data_dir):
    start = time.monotonic()
    code, out, err = run_cli("enumerate", str(data_dir / "nakayama6.alg"),
                             "--filter", "nu-stable")
    elapsed = time.monotonic() - start
    assert code == 0, err
    return json.loads(out), elapsed


@pytest.fixture(scope="module")
def cli_tilting_run(data_dir):
    code, out, err = run_cli("enumerate", str(data_dir / "nakayama6.alg"),
                             "--filter", "tilting")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def nak4_enumeration(nak4):
    return enumerate_support_tau_tilting(nak4)


def test_criterion_1_stable_enumeration_matches_golden(
        cli_nu_stable_run, nak6, data_dir):
    doc, elapsed = cli_nu_stable_run
    golden = json.loads((data_dir / "nakayama6_nu_stable_golden.json")
                        .read_text())
    got = entries_to_pairs(nak6, doc["entries"])
    want = entries_to_pairs(nak6, golden["entries"])
    ok = (doc["flag"] == "COMPLETE" and len(got) == 20 and len(want) == 20
          and oracles.same_pair_sets(got, want) and elapsed < 60.0)
    verdict(1, ok,
            f"{len(got)} stable pairs, flag {doc['flag']}, "
            f"golden matched, {elapsed:.1f}s single-threaded")


def test_criterion_2_tilting_filter_inverts_to_stable_pairs(
        cli_tilting_run, cli_nu_stable_run, nak6):
    doc = cli_tilting_run
    stable_doc, _ = cli_nu_stable_run
    complexes = [complex_from_json(nak6, e["complex"]) for e in doc["entries"]]
    inverted = [complex_to_pair(c) for c in complexes]
    stable_pairs = entries_to_pairs(nak6, stable_doc["entries"])
    ok = (doc["flag"] == "COMPLETE" and len(complexes) == 20
          and oracles.same_pair_sets(inverted, stable_pairs))
    verdict(2, ok, f"{len(complexes)} tilting complexes, transport "
                   "inverts onto the stable pair set")


def test_criterion_3_explicit_transport_six_cycle(nak6):
    mods = [parse_module_expr(nak6, s) for s in
            ("S(3)", "S(6)", "P(2)/<a2*a3>", "P(5)/<a5*a6>")]
    pair = make_pair(nak6, mods, (1, 4))
    got = pair_to_complex(pair)
    deg1 = (4, 1, 4, 1, 1, 4)
    deg0 = (3, 6, 2, 5)
    d = np.zeros((4, 6, nak6.dim), dtype=np.int64)
    d[0, 0] = nak6.element_from_path(["a3"])
    d[1, 1] = nak6.element_from_path(["a6"])
    d[2, 2] = nak6.element_from_path(["a2", "a3"])
    d[3, 3] = nak6.element_from_path(["a5", "a6"])
    expected = TwoTermComplex(nak6, deg1, deg0, d)
    ok = complexes_isomorphic(got, expected) and is_two_term_tilting(got)
    verdict(3, ok, "transport of the stable pair matches the explicit "
                   "complex and is tilting")


def test_criterion_4_four_cycle_transport_and_translates(nak4):
    mods = [simple(nak4, 1), simple(nak4, 3),
            projective(nak4, 1), projective(nak4, 3)]
    got = pair_to_complex(make_pair(nak4, mods, ()))
    d = np.zeros((4, 2, nak4.dim), dtype=np.int64)
    d[0, 0] = nak4.element_from_path(["a1"])
    d[1, 1] = nak4.element_from_path(["a3"])
    expected = TwoTermComplex(nak4, (2, 4), (1, 3, 1, 3), d)
    ok = complexes_isomorphic(got, expected) and is_two_term_tilting(got)
    checks = 0
    for i in range(1, 5):
        nxt = 1 + i % 4
        checks += are_isomorphic(tau(simple(nak4, i)), simple(nak4, nxt))
    for i in range(1, 5):
        nxt = 1 + i % 4
        after = 1 + nxt % 4
        uni = parse_module_expr(nak4, f"P({i})/<a{i}*a{nxt}>")
        uni_next = parse_module_expr(nak4, f"P({nxt})/<a{nxt}*a{after}>")
        checks += are_isomorphic(tau(uni), uni_next)
    ok = ok and checks == 8
    verdict(4, ok, f"explicit complex matched, tilting, {checks}/8 "
                   "translate identities hold")


def test_criterion_5_preprojective_counterexample(prep3, data_dir):
    x_parts = [parse_module_expr(prep3, s) for s in
               ("P(2)", "P(2)/<astar>", "P(2)/<b>")]
    pair = make_pair(prep3, x_parts, ())
    x = pair.module_sum()
    stt = is_support_tau_tilting_pair(pair)
    stable = is_nu_stable_pair(pair)
    asymmetric = not are_isomorphic(tau(x), tau_minus(x))
    fwd, _ = direct_sum(prep3, [simple(prep3, 1), simple(prep3, 3)])
    bwd, _ = direct_sum(prep3, [parse_module_expr(prep3, "P(1)/<a*b>"),
                                parse_module_expr(prep3, "P(3)/<bstar*astar>")])
    fwd_ok = (are_isomorphic(tau(x), fwd)
              and are_isomorphic(oracles.tau_syzygy_oracle(x), fwd))
    bwd_ok = (are_isomorphic(tau_minus(x), bwd)
              and are_isomorphic(oracles.tau_minus_syzygy_oracle(x), bwd))
    code, out, _ = run_cli("report-2cy", str(data_dir / "preproj_a3.alg"))
    report_ok = code == 1 and json.loads(out)["verdict"] == "OBSTRUCTED"
    ok = all((stt, stable, asymmetric, fwd_ok, bwd_ok, report_ok))
    verdict(5, ok, "stable pair with distinct translates; report "
                   "OBSTRUCTED with exit 1")


def test_criterion_6_translate_symmetry_four_cycle(nak4, nak4_enumeration):
    direct = nak4_enumeration.pairs
    minus_ok = all(is_support_tau_minus_tilting(list(p.modules), nak4)
                   for p in direct)
    op_pairs = enumerate_support_tau_tilting(nak4.opposite()).pairs
    transported = [make_pair(nak4, [dual(m) for m in p.modules], p.pverts)
                   for p in op_pairs]
    sets_ok = oracles.same_pair_sets(direct, transported)
    stable = enumerate_nu_stable(nak4).pairs
    prop_ok = all(are_isomorphic(tau(p.module_sum()),
                                 tau_minus(p.module_sum())) for p in stable)
    ok = minus_ok and sets_ok and prop_ok
    verdict(6, ok, f"{len(direct)} pairs two-sided, opposite enumeration "
                   f"matches, translates agree on {len(stable)} stable pairs")


def test_criterion_7_lemma_suite(nak6, nak4, prep3):
    total = 0
    violations = 0
    for alg in (nak6, nak4, prep3):
        rng = np.random.default_rng(17)
        corpus = oracles.module_corpus(alg, rng, count=50)
        assert len(corpus) >= 50
        total += len(corpus)
        for m in corpus:
            module_route = is_nu_stable_module(m)
            pres = presentation_complex(m)
            complex_route = complexes_isomorphic(
                minimalize(nu_complex(pres)), pres)
            if module_route != complex_route:
                violations += 1
        stable = enumerate_nu_stable(alg)
        perm = nakayama_permutation(alg)
        for pair in stable.pairs:
            if sorted(perm[v] for v in pair.pverts) != sorted(pair.pverts):
                violations += 1
        # the lemmas below are read over every node of the silting graph
        silting = enumerate_two_term_silting(alg)
        for node in silting.nodes:
            setwise = silting.is_node_nu_stable(node)
            if setwise:
                # stability splits along the shifted-stalk part and the rest
                shifted = frozenset(i for i in node
                                    if not silting.registry.items[i].deg0)
                rest = node - shifted
                if frozenset(silting.nu_id(i) for i in shifted) != shifted:
                    violations += 1
                if frozenset(silting.nu_id(i) for i in rest) != rest:
                    violations += 1
            if silting.is_node_tilting(node) != setwise:
                violations += 1
        sample_nodes = list(silting.nodes)[::max(1, len(silting.nodes) // 6)]
        for node in sample_nodes:
            direct_tilt = is_two_term_tilting(silting.node_complex(node))
            if direct_tilt != silting.is_node_tilting(node):
                violations += 1
    ok = violations == 0
    verdict(7, ok, f"{total} corpus modules over three algebras, "
                   f"{violations} lemma violations")


def test_criterion_8_infrastructure_oracles(nak4, nak4_enumeration, a2,
                                            one_vertex, prep3):
    uniserials = oracles.uniserial_quotients(nak4)
    failures = 0
    for m in uniserials:
        for n in uniserials:
            if hom_dim(m, n) != oracles.brute_hom_dim(m, n):
                failures += 1
    multisets = [[]]

    def rec(start, remaining, acc):
        for k in range(start, len(uniserials)):
            d = uniserials[k].total_dim
            if d <= remaining:
                acc2 = acc + [uniserials[k]]
                multisets.append(acc2)
                rec(k, remaining - d, acc2)

    rec(0, 4, [])
    for parts in multisets:
        total, _ = direct_sum(nak4, parts)
        got = decompose(total)
        if len(got) != len(parts):
            failures += 1
            continue
        left = list(parts)
        for g in got:
            hit = next((k for k, p in enumerate(left)
                        if are_isomorphic(g, p)), None)
            if hit is None:
                failures += 1
                break
            left.pop(hit)
        for v in range(1, 5):
            if hom_dim(projective(nak4, v), total) != total.dims[v]:
                failures += 1
    graph_ok = True
    runs = {"a2": enumerate_two_term_silting(a2),
            "one_vertex": enumerate_two_term_silting(one_vertex),
            "nak4": nak4_enumeration.silting,
            "prep3": enumerate_two_term_silting(prep3)}
    for r in runs.values():
        if r.status != "COMPLETE":
            graph_ok = False
        n = r.algebra.num_vertices
        for node in r.nodes:
            fan = r.edges[node]
            nbrs = set(fan.values())
            if set(fan) != set(node) or len(nbrs) != n or node in nbrs:
                graph_ok = False
    invol_ok = True
    for run in (runs["a2"], runs["prep3"]):
        for node in list(run.nodes)[:4]:
            c = run.node_complex(node)
            for index in range(len(oracles.summand_classes(c))):
                once = mutate_silting(c, index)
                old = [rep for rep, _ in oracles.summand_classes(c)]
                new_index = next(
                    k for k, (rep, _)
                    in enumerate(oracles.summand_classes(once))
                    if not any(complexes_isomorphic(rep, o) for o in old))
                twice = mutate_silting(once, new_index)
                if not complexes_isomorphic(minimalize(c), minimalize(twice)):
                    invol_ok = False
    ok = failures == 0 and graph_ok and invol_ok
    verdict(8, ok, f"{len(multisets)} small modules cross-checked "
                   f"({failures} failures), graphs regular, mutation "
                   "involutive")


def test_criterion_9_preprojective_census(prep3):
    indecs = oracles.translate_closure_indecomposables(prep3)
    brute = oracles.brute_force_pairs(prep3, indecs)
    walked = enumerate_support_tau_tilting(prep3)
    ok = (len(indecs) == 12 and len(brute) == 24
          and walked.status == "COMPLETE" and len(walked.pairs) == 24
          and oracles.same_pair_sets(brute, walked.pairs))
    verdict(9, ok, f"{len(indecs)} indecomposables, {len(brute)} pairs by "
                   f"exhaustion, walk found {len(walked.pairs)} "
                   f"({walked.status})")
