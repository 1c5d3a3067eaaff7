"""Silting mutation and the breadth-first enumeration.  Regularity of
the exchange graph and involutivity of single mutations are structural
facts that every complete enumeration must exhibit."""

import numpy as np
import pytest

from tautilt.complexes import (
    TwoTermComplex,
    chain_maps_mod_homotopy,
    complexes_isomorphic,
    decompose_complex,
    hom_dim,
    isomorphic_by_top_trace,
    presentation_complex,
    projective_stalk,
    sum_complexes,
    top_trace,
)
from tautilt.errors import (
    MutationAmbiguousError,
    NotSiltingError,
    TheoremViolationError,
)
from tautilt.modules import simple
from tautilt.mutation import (
    ComplexRegistry,
    EnumerationResult,
    enumerate_two_term_silting,
    find_completion,
    g_vector_key,
    mutate_silting,
    mutate_summand,
    require_local,
)
from tautilt.translate import is_selfinjective

import oracles


@pytest.fixture(scope="module")
def runs(a2, one_vertex, nak4, prep3):
    algs = {"a2": a2, "one_vertex": one_vertex, "nak4": nak4, "prep3": prep3}
    return {k: enumerate_two_term_silting(v) for k, v in algs.items()}


def test_known_counts(runs):
    assert len(runs["a2"].nodes) == 5
    assert len(runs["one_vertex"].nodes) == 2
    assert len(runs["nak4"].nodes) == 50
    assert len(runs["prep3"].nodes) == 24
    for r in runs.values():
        assert r.status == "COMPLETE"


def test_a2_walk_matches_hand_mutations(a2, runs):
    lam = projective_stalk(a2, [1, 2])
    # mutating the regular stalk at P(1) replaces it with the shift
    got = mutate_silting(lam, summand_index_of(a2, lam, 1))
    expect = sum_complexes([projective_stalk(a2, [1], shifted=True),
                            projective_stalk(a2, [2])])
    assert complexes_isomorphic(got, expect)
    # mutating at P(2) instead yields the presentation of the simple top
    got2 = mutate_silting(lam, summand_index_of(a2, lam, 2))
    keep = presentation_complex(simple(a2, 1))
    assert any(complexes_isomorphic(part, keep)
               for part, _ in oracles.summand_classes(got2))


def summand_index_of(algebra, c, vertex):
    """Index of the stalk P(vertex) among the summand classes of c."""
    stalk = projective_stalk(algebra, [vertex])
    for k, (rep, _) in enumerate(oracles.summand_classes(c)):
        if complexes_isomorphic(rep, stalk):
            return k
    raise AssertionError("summand not found")


def test_exchange_graph_is_regular(runs):
    # a complete run mutates every node at every summand class, and the
    # resulting neighbors are pairwise distinct
    for name, r in runs.items():
        n = r.algebra.num_vertices
        for node in r.nodes:
            fan = r.edges[node]
            assert set(fan) == set(node), name
            nbrs = set(fan.values())
            assert len(nbrs) == n and node not in nbrs, name


def test_edges_are_symmetric_single_swaps(runs):
    for name, r in runs.items():
        for node, fan in r.edges.items():
            for x, nbr in fan.items():
                assert x in node and x not in nbr, name
                assert len(node - nbr) == 1, name
                # the reverse edge is recorded at the swapped-in summand
                (y,) = nbr - node
                assert r.edges[nbr][y] == node, name


def test_mutation_is_an_involution(a2, nak4, rng):
    for alg, tries in ((a2, None), (nak4, 6)):
        run = enumerate_two_term_silting(alg)
        nodes = list(run.nodes)
        if tries is not None:
            nodes = [nodes[int(k)] for k in
                     rng.choice(len(nodes), size=tries, replace=False)]
        for node in nodes:
            c = run.node_complex(node)
            for index in range(len(oracles.summand_classes(c))):
                once = mutate_silting(c, index)
                twice = mutate_silting(once, locate_changed(c, once))
                assert complexes_isomorphic(minimal(c), minimal(twice))


def locate_changed(before, after):
    """Index in after's class list of the summand not present in before."""
    old = [rep for rep, _ in oracles.summand_classes(before)]
    for k, (rep, _) in enumerate(oracles.summand_classes(after)):
        if not any(complexes_isomorphic(rep, o) for o in old):
            return k
    raise AssertionError("mutation changed nothing")


def minimal(c):
    from tautilt.complexes import minimalize

    return minimalize(c)


def test_mutating_non_silting_raises(nak4):
    junk = projective_stalk(nak4, [1, 2])  # too few classes
    with pytest.raises(NotSiltingError):
        mutate_silting(junk, 0)


def test_enumeration_is_deterministic(nak4):
    one = enumerate_two_term_silting(nak4)
    two = enumerate_two_term_silting(nak4)

    def profile(r):
        return sorted(sorted(r.node_complex(n).deg1) +
                      [-v for v in r.node_complex(n).deg0] for n in r.nodes)

    assert profile(one) == profile(two)


def test_every_mutation_discovers_an_item(a2, nak4, prep3, monkeypatch):
    # edges to registered items are looked up, so the walk mutates once
    # per indecomposable beyond the n stalks it starts from
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return mutate_summand(*args, **kwargs)

    monkeypatch.setattr("tautilt.mutation.mutate_summand", counting)
    for alg in (a2, nak4, prep3):
        calls.clear()
        run = enumerate_two_term_silting(alg)
        assert len(calls) == len(run.registry) - alg.num_vertices


def test_three_completions_are_a_theorem_violation(a2, monkeypatch):
    # an almost complete presilting complex has exactly two completions
    # (Adachi-Iyama-Reiten); with every Hom(-, -[1]) forced to vanish, the
    # stalk P(1) of the a2 start node has three: P(2), and the two items
    # outside the node that pass the sign-coherence prefilter, P(2)[1] and
    # P(2) -> P(1)
    run = enumerate_two_term_silting(a2)
    assert len(run.registry) == 5
    start = run.nodes[0]
    x = max(start)
    assert find_completion(run, start, x) is not None
    monkeypatch.setattr(EnumerationResult, "hom_shift",
                        lambda self, i, j, shift: 0)
    # compatibility masks are kept per result, so a fresh result over the
    # same registry is the one that reads the patched Hom
    fresh = EnumerationResult(a2, run.registry, run.nodes, run.edges,
                              run.status)
    with pytest.raises(TheoremViolationError):
        find_completion(fresh, start, x)


def test_cap_truncates(nak4):
    r = enumerate_two_term_silting(nak4, cap=10)
    assert r.status == "TRUNCATED"
    assert 10 < len(r.nodes) < 50  # stopped past the cap, well short of all


@pytest.fixture(scope="module")
def recorded(a2, nak4, prep3, pa4):
    """Walks whose registries record every lookup, Nakayama images
    included on selfinjective algebras, and every completion the walk
    looked up next to the scan's answer at that moment:
    name -> (run, [(complex, id)], [(found, scanned)]).  The walk decides
    edges by registry lookup, so every recorded edge is also mutated and
    must land on the swapped-in item."""
    lookups = {}
    completions = {}
    original = ComplexRegistry.get_or_insert
    original_find = find_completion

    def recording(registry, c):
        i = original(registry, c)
        lookups.setdefault(id(registry), []).append((c, i))
        return i

    def checking(result, node, x):
        found = original_find(result, node, x)
        completions.setdefault(id(result), []).append(
            (found, oracles.scan_completion(result, node, x)))
        return found

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ComplexRegistry, "get_or_insert", recording)
        mp.setattr("tautilt.mutation.find_completion", checking)
        for name, alg in (("a2", a2), ("nak4", nak4), ("prep3", prep3),
                          ("pa4", pa4)):
            run = enumerate_two_term_silting(alg)
            items = run.registry.items
            for node, fan in run.edges.items():
                for x, nbr in fan.items():
                    qs = [items[q] for q in sorted(node) if q != x]
                    (y,) = nbr - node
                    got = mutate_summand(items[x], qs)
                    assert run.registry.get_or_insert(got) == y, name
                    checking(run, node, x)
            if is_selfinjective(alg):
                for node in run.nodes:
                    run.is_node_nu_stable(node)
            out[name] = (run, lookups[id(run.registry)],
                         completions[id(run)])
    return out


def test_registry_keys_are_g_vectors(recorded):
    # Adachi-Iyama-Reiten: g-vectors determine two-term presilting
    # complexes, and minimal ones share no vertex between the degrees
    for name, (run, lookups, _) in recorded.items():
        items = run.registry.items
        keys = [g_vector_key(c) for c in items]
        assert len(set(keys)) == len(items), name
        for c in items:
            assert not set(c.deg1) & set(c.deg0), name
        assert len(lookups) > len(items), name
        for c, i in lookups:
            for j, item in enumerate(items):
                same_key = g_vector_key(c) == keys[j]
                assert same_key == (i == j), name
                assert same_key == oracles.triangular_isomorphic(c, item), name


def test_top_trace_pairing_matches_triangular_route(recorded):
    # the registry confirms a first hit by the top-trace pairing; on every
    # lookup, Nakayama images included, it agrees with isomorphism of
    # modules over the triangular algebra, and both say yes
    for name, (run, lookups, _) in recorded.items():
        items = run.registry.items
        for c, i in lookups:
            assert isomorphic_by_top_trace(items[i], c), name
            assert oracles.triangular_isomorphic(items[i], c), name


@pytest.mark.parametrize("name", ["a2", "nak4", "prep3", "pa4"])
def test_decomposition_matches_triangular_route(recorded, name):
    # on every node complex, and on one node doubled, the split through
    # the cokernel gives the summands whose g-vectors the registry holds
    # for the node, and each is isomorphic, as a module over the
    # triangular algebra, to a summand the triangular route splits off
    run = recorded[name][0]
    items = run.registry.items
    cases = [(run.node_complex(node), list(node)) for node in run.nodes]
    last, node = cases[-1]
    cases.append((sum_complexes([last, last]), node * 2))
    for c, node in cases:
        got = decompose_complex(c)
        want = oracles.triangular_decompose(c)
        keys = sorted(g_vector_key(items[i]) for i in node)
        assert sorted(map(g_vector_key, got)) == keys
        assert sorted(map(g_vector_key, want)) == keys
        for s in got:
            assert any(g_vector_key(w) == g_vector_key(s)
                       and oracles.triangular_isomorphic(s, w) for w in want)


def test_completion_masks_match_the_scan(recorded):
    for name, (run, _, completions) in recorded.items():
        assert len(completions) > len(run.nodes), name
        for found, scanned in completions:
            assert found == scanned, name
        assert any(found is None for found, _ in completions), name
        # the sign-coherence prefilter hides no candidate: every pair it
        # drops has a nonzero Hom(-, -[1]) one way or the other
        items = run.registry.items
        for i, a in enumerate(items):
            for y, b in enumerate(items):
                if set(a.deg1) & set(b.deg0) or set(a.deg0) & set(b.deg1):
                    assert run.hom_shift(i, y, 1) or run.hom_shift(y, i, 1), \
                        name


def test_registry_cross_checks_its_first_hit(a2):
    registry = ComplexRegistry(a2)
    pres = presentation_complex(simple(a2, 1))
    assert registry.get_or_insert(pres) == 0
    # P(2) -> P(1) with zero differential has the same degrees but splits
    split = TwoTermComplex(a2, pres.deg1, pres.deg0, None)
    with pytest.raises(TheoremViolationError):
        registry.get_or_insert(split)
    assert registry.get_or_insert(pres) == 0
    assert len(registry) == 1


def test_complex_hom_dim_against_brute_force(runs):
    for name in ("nak4", "prep3"):
        items = runs[name].registry.items
        for p in items:
            for q in items:
                for shift in (-1, 0, 1):
                    assert hom_dim(p, q, shift) == \
                        oracles.brute_complex_hom_dim(p, q, shift), name


def test_minimal_mutation_matches_universal_oracle(recorded):
    # the cone of the minimal approximation is already the new summand;
    # the universal route splits it off the extra add(Q) summands.  Its
    # decompositions make Pi(A4) cost about 40 s, so that walk is left out
    for name in ("a2", "nak4", "prep3"):
        run = recorded[name][0]
        items = run.registry.items
        for node, fan in run.edges.items():
            for x in fan:
                qs = [items[q] for q in sorted(node) if q != x]
                got = mutate_summand(items[x], qs)
                want = oracles.universal_mutation(items[x], qs)
                assert g_vector_key(got) == g_vector_key(want), name
                assert oracles.triangular_isomorphic(got, want), name
                assert len(oracles.triangular_decompose(got)) == 1, name


def identity_map(c):
    """The identity chain map of c as element matrices (f1, f0)."""
    alg = c.algebra

    def ident(verts):
        e = np.zeros((len(verts), len(verts), alg.dim), dtype=np.int64)
        for r, v in enumerate(verts):
            e[r, r, alg.trivial_index(v)] = 1
        return e

    return ident(c.deg1), ident(c.deg0)


def test_locality_check(a2, nak4, runs):
    def check(c):
        require_local(c, chain_maps_mod_homotopy(c, c))

    for name in ("a2", "nak4", "prep3"):
        for item in runs[name].registry.items:
            check(item)
            assert top_trace(item, *identity_map(item)) != 0, name
    for alg, verts in ((a2, [1, 2]), (nak4, [1, 3]), (nak4, [2, 2])):
        split = sum_complexes([projective_stalk(alg, [v]) for v in verts])
        with pytest.raises(MutationAmbiguousError):
            check(split)
    # a summand in each degree: a trace on the degree 0 top alone would
    # not see the shifted summand
    mixed = sum_complexes([projective_stalk(a2, [1]),
                           projective_stalk(a2, [2], shifted=True)])
    with pytest.raises(MutationAmbiguousError):
        check(mixed)
