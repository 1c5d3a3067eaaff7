"""The one route from element matrices to modules: presented_module
agrees with the cokernel of the map of projective sums that the oracle
builds one entry at a time, on every registry item of each data walk, on
the item's transposed presentation over the opposite algebra, on its
Nakayama-twisted presentation over a selfinjective algebra, and on random
element matrices."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tautilt.algebra import BoundQuiverAlgebra
from tautilt.modules import presented_module, projective_sum, quotient_rep
from tautilt.mutation import enumerate_two_term_silting
from tautilt.textio import parse_algebra_file
from tautilt.translate import is_selfinjective, nu_element, selfinjective_data

import oracles

DATA = pathlib.Path(__file__).parent / "data"
WALKS = sorted(path.stem for path in DATA.glob("*.alg"))


def _assert_one_route(alg, verts1, verts0, e):
    got = presented_module(alg, verts1, verts0, e)
    f = oracles.elements_to_repmap(alg, list(verts1), list(verts0), e)
    want = quotient_rep(f.tgt, f.blocks)[0]
    assert got.dims == want.dims
    for a in alg.quiver.arrows:
        assert np.array_equal(got.maps[a.name], want.maps[a.name]), a.name


@pytest.mark.parametrize("name", WALKS)
def test_registry_items_present_alike(name):
    alg = parse_algebra_file(str(DATA / f"{name}.alg"))
    walk = enumerate_two_term_silting(alg, 10 if name == "kronecker" else
                                      10000)
    perm = selfinjective_data(alg)[0] if is_selfinjective(alg) else None
    for item in walk.registry.items:
        _assert_one_route(alg, item.deg1, item.deg0, item.d)
        _assert_one_route(alg.opposite(), item.deg0, item.deg1,
                          item.d.transpose(1, 0, 2))
        if perm is not None:
            _assert_one_route(alg, [perm[v] for v in item.deg1],
                              [perm[v] for v in item.deg0],
                              nu_element(alg, item.d))


ALGEBRAS = {name: parse_algebra_file(str(DATA / f"{name}.alg"))
            for name in ("nakayama4", "kronecker", "preproj_a3")}


@st.composite
def presentations(draw):
    """(algebra, verts1, verts0, e) with each entry e[r, c] an element of
    e_{verts0[r]} A e_{verts1[c]}; the vertex lists may be empty or
    repeat, and entries are often zero."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    verts = st.lists(st.integers(1, alg.num_vertices), max_size=3)
    verts1, verts0 = draw(verts), draw(verts)
    mask = alg.slice_mask(verts0, verts1)
    coeff = st.one_of(st.just(0), st.integers(0, alg.field.p - 1))
    e = np.zeros(mask.shape, dtype=np.int64)
    size = int(mask.sum())
    e[mask] = draw(st.lists(coeff, min_size=size, max_size=size))
    return alg, verts1, verts0, e


@given(presentations())
@settings(max_examples=60, deadline=None)
def test_random_element_matrices_present_alike(presentation):
    _assert_one_route(*presentation)


@pytest.mark.parametrize("verts1, verts0", [
    ([], []), ([1, 2], []), ([], [1, 1]), ([2, 2, 1], [1, 1]), ([2], [1]),
])
def test_zero_and_degenerate_presentations(verts1, verts0):
    # the zero map presents the whole target sum, which may be empty
    alg = ALGEBRAS["kronecker"]
    e = np.zeros((len(verts0), len(verts1), alg.dim), dtype=np.int64)
    _assert_one_route(alg, verts1, verts0, e)
    assert presented_module(alg, verts1, verts0, e).total_dim == sum(
        len(alg.paths_from(v)) for v in verts0)


def test_zero_element_matrix_is_the_target_sum(monkeypatch):
    # no multiplication table is built for the zero map
    alg = ALGEBRAS["preproj_a3"]
    verts1, verts0 = [2, 3], [1, 2, 1]
    want = projective_sum(alg, verts0)[0]

    def refuse(self, a):
        raise AssertionError("left_table built for a zero matrix")

    monkeypatch.setattr(BoundQuiverAlgebra, "left_table", refuse)
    got = presented_module(alg, verts1, verts0,
                           np.zeros((3, 2, alg.dim), dtype=np.int64))
    assert got.dims == want.dims
    for a in alg.quiver.arrows:
        assert np.array_equal(got.maps[a.name], want.maps[a.name]), a.name
