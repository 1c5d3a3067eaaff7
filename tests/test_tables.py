"""Operators and facts kept per object, against the routes that rebuild
them per call or per pair.

Complex Homs read the multiplication tables each complex keeps for its
differential and the coordinate spaces each algebra keeps per pair of
vertex tuples; the oracle builds both on every call, as the package did
before.  The whole-walk enumeration reads support tau-tilting per node
as bitmask tests over per-item facts; the public per-pair predicates
compute it from the pair.  The enumerations present each top by its
registry item; the module route presents it by minimal_presentation."""

from types import SimpleNamespace

import numpy as np
import pytest

from tautilt.complexes import TwoTermComplex, chain_maps_mod_homotopy, hom_dim
from tautilt.errors import TheoremViolationError
from tautilt.modules import _indec_iso
from tautilt.mutation import EnumerationResult, enumerate_two_term_silting
from tautilt.pairs import (
    SummandTables,
    _pair_enumeration,
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    is_support_tau_tilting_pair,
    make_pair,
)
from tautilt.textio import parse_algebra_text
from tautilt.translate import is_selfinjective, nu_module, tau

import oracles


@pytest.fixture(scope="module")
def walks(nak4, prep3, pa4):
    return {name: enumerate_two_term_silting(alg)
            for name, alg in (("nak4", nak4), ("prep3", prep3),
                              ("pa4", pa4))}


@pytest.mark.parametrize("name", ["nak4", "prep3", "pa4"])
def test_kept_operators_match_the_per_call_route(walks, name):
    items = walks[name].registry.items
    for p in items:
        for q in items:
            for shift in (-1, 0, 1):
                assert hom_dim(p, q, shift) == \
                    oracles.percall_hom_dim(p, q, shift), name
            kept = chain_maps_mod_homotopy(p, q)
            fresh = oracles.percall_chain_maps_mod_homotopy(p, q)
            assert len(kept) == len(fresh) == oracles.percall_hom_dim(p, q)
            for (a1, a0), (b1, b0) in zip(kept, fresh):
                assert np.array_equal(a1, b1) and np.array_equal(a0, b0)


def test_kept_tables_match_the_full_contraction(pa4):
    rng = np.random.default_rng(5)
    for _ in range(20):
        r, k, c = rng.integers(1, 4, size=3)
        # sparse entries, as differentials and chain maps have
        a = rng.integers(0, pa4.field.p, size=(r, k, pa4.dim))
        a *= rng.random(a.shape) < 0.1
        b = rng.integers(0, pa4.field.p, size=(k, c, pa4.dim))
        assert np.array_equal(pa4.left_table(a),
                              oracles.percall_left_table(pa4, a))
        assert np.array_equal(pa4.right_table(a),
                              oracles.percall_right_table(pa4, a))
        assert np.array_equal(pa4.element_matmul(a, b),
                              oracles.percall_element_matmul(pa4, a, b))


def test_differential_is_read_only(walks):
    for run in walks.values():
        for c in run.registry.items:
            if c.d.size:
                with pytest.raises(ValueError):
                    c.d[0, 0, 0] = 1
            for table in (c.left_table, c.right_table):
                assert not table.flags.writeable


def _neighbours(enum):
    """Every node of the walk, and each node with one item x swapped for
    the next registry id after x that is not in it: sets of n items that
    are mostly not presilting."""
    count = len(enum.registry)
    for node in enum.nodes:
        yield node
        for x in sorted(node):
            y = next((x + s) % count for s in range(1, count)
                     if (x + s) % count not in node)
            yield frozenset(node - {x} | {y})


def _pair(pe, ids):
    items = pe.silting.registry.items
    return make_pair(pe.algebra,
                     [pe.tops[i] for i in sorted(ids) if pe.tops[i] is not None],
                     [items[i].deg1[0] for i in ids if pe.tops[i] is None])


@pytest.mark.parametrize("name", ["a2", "nak4", "prep3", "nak6", "n66"])
def test_mask_predicates_match_the_per_pair_routes(request, algebras, name):
    if name == "n66":
        alg = parse_algebra_text(algebras.nakayama(6, 6))
    else:
        alg = request.getfixturevalue(name)
    pe = enumerate_support_tau_tilting(alg)
    assert pe.status == "COMPLETE"
    walk = pe.silting
    per_pair = SummandTables()  # shares nothing with the masks' tables
    assert all(pe.is_node_support_tau_tilting(node) for node in walk.nodes)
    rejected = 0
    for ids in _neighbours(walk):
        pair = _pair(pe, ids)
        rigid = pe.is_node_support_tau_tilting(ids)
        assert rigid == is_support_tau_tilting_pair(pair, tables=per_pair)
        rejected += not rigid
        assert walk.is_node_tilting(ids) == all(
            walk.hom_shift(i, j, -1) == 0 for i in ids for j in ids)
    assert rejected > 0


@pytest.mark.parametrize("route", ["stability", "tilting", "closure"])
def test_disagreeing_nu_routes_are_a_theorem_violation(nak4, monkeypatch,
                                                       route):
    if route == "stability":
        monkeypatch.setattr("tautilt.pairs.is_nu_stable_pair",
                            lambda pair, tables=None: False)
    elif route == "tilting":  # wrong on every node the walk visits
        tilting = EnumerationResult.is_node_tilting
        monkeypatch.setattr(EnumerationResult, "is_node_tilting",
                            lambda self, node: not tilting(self, node))
    else:  # a stable pair's complement vertices, sent off themselves
        monkeypatch.setattr("tautilt.pairs.nakayama_permutation",
                            lambda alg: {v: 0 for v in range(
                                1, alg.num_vertices + 1)})
    with pytest.raises(TheoremViolationError):
        enumerate_nu_stable(nak4)


@pytest.mark.parametrize("name", ["a2", "witness", "kronecker", "nak4",
                                  "nak6", "one_vertex", "prep3", "n65"])
def test_tops_presented_by_their_items(request, algebras, name):
    """Each top's translate and Nakayama image are read from its registry
    item (an indecomposable presilting complex with nonzero H^0 is the
    minimal presentation of its top); they must be isomorphic to those
    of the module route."""
    if name == "n65":
        alg = parse_algebra_text(algebras.nakayama(6, 5))
    else:
        alg = request.getfixturevalue(name)
    pe = enumerate_support_tau_tilting(alg, cap=10)
    functors = [tau, nu_module] if is_selfinjective(alg) else [tau]
    items = pe.silting.registry.items
    for item, top in zip(items, pe.tops):
        if top is None:
            continue
        assert pe.tables._presentations[top][2] is item.d, name
        for functor in functors:
            a, b = pe.tables.image(functor, top), functor(top)
            assert a.is_zero() == b.is_zero(), name
            assert a.is_zero() or _indec_iso(a, b), name


def test_non_minimal_item_is_refused(nak4):
    """A zero column added to an item's differential, a summand P(v)[1],
    presents the same top, but not minimally: tau of the top gains the
    injective I(v), and SummandTables.image refuses the decomposable
    translate."""
    walk = enumerate_two_term_silting(nak4)
    items = list(walk.registry.items)
    i = next(i for i, c in enumerate(items) if c.deg1 and c.deg0)
    c = items[i]
    d = np.zeros((len(c.deg0), len(c.deg1) + 1, nak4.dim), dtype=np.int64)
    d[:, :-1] = c.d
    items[i] = TwoTermComplex(nak4, c.deg1 + (1,), c.deg0, d)
    pe = _pair_enumeration(nak4, walk)
    assert not pe.tables.image(tau, pe.tops[i]).is_zero()
    padded = _pair_enumeration(nak4, SimpleNamespace(
        registry=SimpleNamespace(items=items), status=walk.status))
    with pytest.raises(TheoremViolationError, match="decomposable"):
        padded.tables.image(tau, padded.tops[i])
