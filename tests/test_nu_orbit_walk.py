"""The walk over stable nodes against the whole silting walk.

enumerate_nu_stable visits only the nodes that contain a stable node
less one orbit of the Nakayama functor on its items.  The oracle filters
every node of the whole walk (oracles.full_walk_nu_stable); both must give
the same stable pairs, and the complex printed for a pair must be
isomorphic to the whole walk's.  The paper's third description of the
same objects, stable functorially finite torsion classes (Fac M = Fac of
its Nakayama image), is checked against node stability on every node."""

import pytest

from tautilt.complexes import complexes_isomorphic
from tautilt.mutation import nu_orbits
from tautilt.pairs import (
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    nu_stable_torsion_check,
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
    assert len(run.silting.nodes) <= len(full.silting.nodes)
    assert oracles.same_pair_sets(run.pairs, full.pairs), name


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
    for node, k in pe.node_index.items():
        assert nu_stable_torsion_check(pe.pairs[k].module_sum()) == \
            pe.is_node_nu_stable(node), name


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
