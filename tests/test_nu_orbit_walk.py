"""The walk over stable nodes against the whole silting walk.

enumerate_nu_stable visits only the stable nodes, stepping from each by
tilting mutation at one orbit of the Nakayama functor on its items.  One
oracle filters every node of the whole walk (oracles.full_walk_nu_stable),
another walks every node that contains a stable node less one orbit
(oracles.reduced_walk_nu_stable); all must give the same stable pairs,
and the complex printed for a pair must be isomorphic to the whole
walk's.  The paper's third description of the same objects, stable
functorially finite torsion classes (Fac M = Fac of its Nakayama image),
is checked against node stability on every node.  Each orbit mutation
is checked against mutating every item of the orbit on its own
(oracles.per_item_orbit_mutation)."""

import pytest

from tautilt.complexes import complexes_isomorphic, isomorphic_by_top_trace
from tautilt.errors import TheoremViolationError
from tautilt.mutation import (
    EnumerationResult,
    _PairMaps,
    find_stable_completion,
    g_vector_key,
    mutate_summand,
    nu_orbits,
    walk_nu_stable,
)
from tautilt.pairs import (
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    is_nu_stable_pair,
)
from tautilt.textio import parse_algebra_text

import oracles

SELFINJECTIVE = ["nak4", "nak6", "prep3", "one_vertex", "pa4", "pa5", "pd4",
                 "n66"]


@pytest.fixture(scope="module")
def algebra_of(request, algebras):
    built = {
        "pa5": lambda: parse_algebra_text(algebras.preprojective(5)),
        "pd4": lambda: parse_algebra_text(oracles.preprojective_d(4)),
        "n66": lambda: parse_algebra_text(algebras.nakayama(6, 6)),
        "n53": lambda: parse_algebra_text(algebras.nakayama(5, 3)),
        "n65": lambda: parse_algebra_text(algebras.nakayama(6, 5)),
    }
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = (built[name]() if name in built
                           else request.getfixturevalue(name))
        return cache[name]
    return get


@pytest.fixture(scope="module")
def orbit_run(algebra_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = enumerate_nu_stable(algebra_of(name))
        return cache[name]
    return get


@pytest.mark.parametrize("name", SELFINJECTIVE)
def test_orbit_walk_finds_the_full_walks_stable_pairs(algebra_of, orbit_run,
                                                      name):
    run = orbit_run(name)
    full = oracles.full_walk_nu_stable(algebra_of(name))
    assert run.status == full.status == "COMPLETE"
    assert len(run.silting.nodes) == len(run.pairs)
    assert oracles.same_pair_sets(run.pairs, full.pairs), name


@pytest.mark.parametrize("name", SELFINJECTIVE)
def test_orbit_walk_finds_the_reduced_walks_stable_pairs(algebra_of, orbit_run,
                                                         name):
    run = orbit_run(name)
    reduced = oracles.reduced_walk_nu_stable(algebra_of(name))
    assert reduced.status == "COMPLETE"
    assert oracles.same_pair_sets(run.pairs, reduced.pairs), name


def test_orbit_walk_on_one_orbit_visits_the_two_stable_nodes(orbit_run):
    """The Nakayama functor of N(6,6) has one orbit on the stalks of the
    algebra, and its stable nodes are the algebra and its shift."""
    run = orbit_run("n66")
    assert run.status == "COMPLETE"
    assert len(run.silting.nodes) == len(run.pairs) == 2


def test_two_stable_completions_are_a_theorem_violation(nak4, monkeypatch):
    """With every Hom(-, -[1]) forced to vanish, both registered pairs of
    items outside the nakayama4 start node that the Nakayama functor
    fixes complete the start node less one orbit."""
    run = walk_nu_stable(nak4)
    start = run.nodes[0]
    orbit = nu_orbits(run, start)[0]
    assert find_stable_completion(run, start, orbit) is not None
    monkeypatch.setattr(EnumerationResult, "hom_shift",
                        lambda self, i, j, shift: 0)
    # compatibility masks are kept per result, so a fresh result over the
    # same registry is the one that reads the patched Hom
    fresh = EnumerationResult(nak4, run.registry, run.nodes, run.edges,
                              run.status)
    with pytest.raises(TheoremViolationError):
        find_stable_completion(fresh, start, orbit)


def test_orbit_mutated_both_ways_is_a_theorem_violation(nak4, monkeypatch):
    """Every orbit mutation of nakayama4 is a left one, seen as
    Hom(y, x[1]) != 0 for each item x of the orbit and its image y.
    Forcing Hom(-, x[1]) to vanish for one item x of the first orbit makes
    that item look mutated to the right, and the walk must refuse it."""
    run = walk_nu_stable(nak4)
    x = max(nu_orbits(run, run.nodes[0])[0])
    hom_shift = EnumerationResult.hom_shift
    monkeypatch.setattr(
        EnumerationResult, "hom_shift",
        lambda self, i, j, shift: 0 if (j, shift) == (x, 1)
        else hom_shift(self, i, j, shift))
    with pytest.raises(TheoremViolationError, match="directions"):
        walk_nu_stable(nak4)


def test_orbit_mutation_off_the_stable_nodes_is_a_theorem_violation(
        nak4, monkeypatch):
    monkeypatch.setattr(EnumerationResult, "is_node_nu_stable",
                        lambda self, node: False)
    with pytest.raises(TheoremViolationError):
        walk_nu_stable(nak4)


@pytest.mark.parametrize("name", SELFINJECTIVE + ["n53", "n65"])
def test_orbit_edges_match_the_per_item_mutations(orbit_run, name):
    """The walk mutates the least item of an orbit and carries the result
    round the orbit with the Nakayama functor.  For every orbit edge it
    records, mutating each item of the orbit on its own must give the
    edge's new items, matched by g-vector and confirmed by the top-trace
    pairing.  On N(5,3) and N(6,5) the Nakayama permutation has order 5
    and 3."""
    run = orbit_run(name).silting
    items = run.registry.items
    maps = _PairMaps()
    for node, fan in run.edges.items():
        for orbit, new_node in fan.items():
            new = {g_vector_key(items[i]): i for i in new_node - node}
            ys = oracles.per_item_orbit_mutation(run, node, orbit, maps)
            assert len(new) == len(ys) == len(orbit), name
            for y in ys.values():
                assert g_vector_key(y) in new, name
                assert isomorphic_by_top_trace(items[new[g_vector_key(y)]],
                                               y), name
            assert {g_vector_key(y) for y in ys.values()} == set(new), name


def test_orbit_mutation_mutates_one_item_per_orbit(algebra_of, monkeypatch):
    """One mutate_summand call per orbit mutation: 9 on nakayama6, 4 on
    N(6,5) and 1 on N(5,3), where mutating every item of each orbit made
    18, 12 and 5."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return mutate_summand(*args, **kwargs)

    monkeypatch.setattr("tautilt.mutation.mutate_summand", counting)
    for name, count in (("nak6", 9), ("n65", 4), ("n53", 1)):
        calls.clear()
        walk_nu_stable(algebra_of(name))
        assert len(calls) == count, name


@pytest.mark.parametrize("name", SELFINJECTIVE)
def test_one_stable_neighbour_per_orbit(orbit_run, name):
    """Observed, not cited: for a stable node T and an orbit X of the
    Nakayama functor on its items, exactly one other stable node contains
    T - X."""
    run = orbit_run(name)
    stable = list(run.node_index)
    for t in stable:
        for orbit in nu_orbits(run.silting, t):
            rest = t - orbit
            assert sum(u != t and u >= rest for u in stable) == 1, name


@pytest.mark.parametrize("name", ["nak4", "prep3", "nak6", "pa4"])
def test_torsion_class_route_matches_node_stability(algebra_of, name):
    pe = enumerate_support_tau_tilting(algebra_of(name))
    for pair in pe.pairs:
        assert oracles.nu_stable_torsion_check(pair.module_sum()) == \
            is_nu_stable_pair(pair, pe.tables), name


@pytest.mark.parametrize("name", ["nak4", "nak6", "prep3"])
def test_printed_complexes_match_the_full_walks(algebra_of, orbit_run, name):
    """The representative kept for an item depends on the walk that found
    it, so a printed differential may change; its complex may not."""
    run = orbit_run(name)
    full = oracles.full_walk_nu_stable(algebra_of(name))
    for node, k in run.node_index.items():
        (twin,) = [other for other, j in full.node_index.items()
                   if oracles.pairs_match(run.pairs[k], full.pairs[j])]
        assert complexes_isomorphic(run.silting.node_complex(node),
                                    full.silting.node_complex(twin)), name
