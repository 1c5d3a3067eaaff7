"""Bound quiver algebra construction: basis dimensions frozen by hand
path-counting, multiplication identities, the opposite algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import nextprime

from tautilt.algebra import Arrow, Quiver, Relation, build_algebra
from tautilt.errors import (
    MixedEndpointsError,
    NonAdmissibleError,
    PrimeTooLargeError,
)
from tautilt.field import PrimeField
from tautilt.textio import parse_algebra_file, parse_algebra_text

import oracles
from conftest import DATA


def test_dimensions_by_path_count(nak6, nak4, prep3, a2, one_vertex):
    # cyclic n-cycle mod R^L has n*L basis paths
    assert nak6.dim == 24
    assert nak4.dim == 12
    # preprojective A3: per-vertex projective dims 3, 4, 3
    assert prep3.dim == 10
    # A2: e1, e2, a
    assert a2.dim == 3
    assert one_vertex.dim == 1


def test_basis_labels(nak6):
    labels = [nak6.label(k) for k in range(nak6.dim)]
    assert "e_1" in labels
    assert "a1" in labels
    assert "a1*a2*a3" in labels
    assert "a1*a2*a3*a4" not in labels  # killed by radical^4


def test_multiplication_assoc_and_truncation(nak6):
    a1 = nak6.element_from_path(["a1"])
    a2 = nak6.element_from_path(["a2"])
    a3 = nak6.element_from_path(["a3"])
    a4 = nak6.element_from_path(["a4"])
    left = nak6.multiply(nak6.multiply(a1, a2), a3)
    right = nak6.multiply(a1, nak6.multiply(a2, a3))
    assert (left == right).all()
    assert left.any()
    assert not nak6.multiply(left, a4).any()  # length four vanishes


def test_trivial_paths_are_idempotents(nak4):
    for v in range(1, 5):
        ev = nak4.trivial_path(v)
        assert (nak4.multiply(ev, ev) == ev).all()
    total = sum(nak4.trivial_path(v) for v in range(1, 5)) % nak4.field.p
    a1 = nak4.element_from_path(["a1"])
    assert (nak4.multiply(total, a1) == a1).all()
    assert (nak4.multiply(a1, total) == a1).all()


def test_mesh_relation_holds(prep3):
    a, astar, b, bstar = (prep3.element_from_path([name])
                          for name in ("a", "astar", "b", "bstar"))
    astar_a = prep3.multiply(astar, a)
    b_bstar = prep3.multiply(b, bstar)
    assert astar_a.any()
    assert (astar_a == b_bstar).all()
    aa = prep3.multiply(a, astar)
    assert not aa.any()


def test_opposite_involution(nak6):
    op = nak6.opposite()
    assert op.dim == nak6.dim
    assert op.opposite() is nak6
    # the anti-isomorphism reverses products; over the relabelled opposite
    # it is the identity on coordinates, over the reference it is op_matrix
    a1 = nak6.element_from_path(["a1"])
    a2 = nak6.element_from_path(["a2"])
    assert (nak6.multiply(a1, a2) == op.multiply(a2, a1)).all()
    ref, op_matrix = oracles.reference_opposite(nak6)
    lhs = nak6.field.matmul(nak6.multiply(a1, a2), op_matrix)
    rhs = ref.multiply(nak6.field.matmul(a2, op_matrix),
                       nak6.field.matmul(a1, op_matrix))
    assert (lhs == rhs).all()


def test_op_element_is_linear_involution(nak4, rng):
    # the reference anti-isomorphism, applied twice, is the identity
    ref, op_matrix = oracles.reference_opposite(nak4)
    back_alg, back = oracles.reference_opposite(ref)
    assert back_alg.basis_words == nak4.basis_words
    x = rng.integers(0, nak4.field.p, size=nak4.dim)
    once = nak4.field.matmul(x, op_matrix)
    assert (nak4.field.matmul(once, back) == x % nak4.field.p).all()


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.alg"))
                         + ["pa4", "N(6,6)"])
def test_relabelled_opposite_matches_reference(name, algebras):
    # the relabelled structure constants, transported to the reference's
    # basis by its op_matrix, are the reference's structure constants
    if name == "pa4":
        alg = parse_algebra_text(algebras.preprojective(4))
    elif name == "N(6,6)":
        alg = parse_algebra_text(algebras.nakayama(6, 6))
    else:
        alg = parse_algebra_file(str(DATA / name))
    op = alg.opposite()
    ref, m = oracles.reference_opposite(alg)
    p = alg.field.p
    assert op.opposite() is alg
    assert op.basis_words == [
        (alg.target_of(k), tuple(reversed(w[1])))
        for k, w in enumerate(alg.basis_words)]
    ref_table = np.einsum("ka,abm->kbm", m, oracles.dense_table(ref)) % p
    ref_table = np.einsum("lb,kbm->klm", m, ref_table) % p
    assert (np.einsum("klc,cm->klm", oracles.dense_table(op), m) % p
            == ref_table).all()
    for k, (src, arrows) in enumerate(alg.basis_words):
        if arrows:
            names = [alg.quiver.arrows[a].name for a in arrows]
            assert (op.element_from_path(names[::-1])
                    == alg.element_from_path(names)).all()


def test_slice_indices_partition(prep3):
    seen = []
    for i in range(1, 4):
        for j in range(1, 4):
            seen.extend(prep3.slice_indices(i, j))
    assert sorted(seen) == list(range(prep3.dim))


def test_nonadmissible_rejected():
    q = Quiver(1, [Arrow("x", 1, 1)])
    with pytest.raises(NonAdmissibleError):
        build_algebra(q, [], PrimeField(32003))  # loop never truncated


def test_relation_with_mixed_endpoints_rejected():
    q = Quiver(4, [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 2, 4)])
    rel = Relation(((1, ("a", "b")), (1, ("a", "c"))))
    with pytest.raises(MixedEndpointsError):
        build_algebra(q, [rel], PrimeField(32003))


def test_short_relation_term_rejected():
    q = Quiver(2, [Arrow("a", 1, 2)])
    with pytest.raises(NonAdmissibleError):
        build_algebra(q, [Relation(((1, ("a",)),))], PrimeField(32003))


# arrows a, b: 1 -> 2 and c: 2 -> 3 with a*c = b*c, so the constants
# a * c and b * c share (j, m) = (c, a*c) and the scatter-add accumulates
SHARED = """vertices 3
arrow a 1 -> 2
arrow b 1 -> 2
arrow c 2 -> 3
relations:
a*c - b*c = 0
"""


@pytest.mark.parametrize("largest", [False, True],
                         ids=["default-p", "largest-p"])
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.alg"))
                         + ["pa4", "shared"])
def test_products_match_dense_table(name, largest, algebras):
    # every product the algebra hands out, against the dense table worked
    # in Python integers, at the default prime and at the largest one the
    # parser accepts for the dimension; the coordinates are dense, so each
    # shared (j, m) cell sums several products
    text = {"pa4": algebras.preprojective(4), "shared": SHARED}.get(name)
    if text is None:
        text = (DATA / name).read_text()
    alg = parse_algebra_text(text)
    if largest:
        alg = parse_algebra_text(text, oracles.largest_exact_prime(alg.dim))
    d, p = alg.dim, alg.field.p
    table = oracles.dense_table(alg).astype(object)
    if name == "shared":
        assert np.count_nonzero(table) == 13
        assert ((table != 0).sum(axis=0) > 1).any()
    gen = np.random.default_rng(0)
    a = gen.integers(0, p, size=(2, 3, d))
    b = gen.integers(0, p, size=(3, 2, d))
    left = np.tensordot(a.astype(object), table, axes=1) % p
    right_of = table.transpose(1, 0, 2)
    assert (alg.left_table(a) == left).all()
    assert (alg.right_table(a) == np.tensordot(
        a.astype(object), right_of, axes=1) % p).all()
    op_table = oracles.dense_table(alg.opposite()).astype(object)
    assert (alg.opposite().left_table(a) == np.tensordot(
        a.astype(object), op_table, axes=1) % p).all()
    assert (alg.multiply(a[0, 0], b[0, 0])
            == b[0, 0].astype(object) @ left[0, 0] % p).all()
    assert (alg.form_pairing(a[0, 0]) == np.tensordot(
        table, a[0, 0].astype(object), axes=1) % p).all()
    arrows = np.array([alg.element_from_path([x.name])
                       for x in alg.quiver.arrows], dtype=object).reshape(-1, d)
    assert (alg.arrow_actions() == np.tensordot(arrows, right_of, axes=1)).all()
    want = np.zeros((2, 2, d), dtype=object)
    for r in range(2):
        for c in range(2):
            for k in range(3):
                want[r, c] += b[k, c].astype(object) @ left[r, k]
    assert (alg.element_matmul(a, b) == want % p).all()


def test_element_matmul_matches_multiply(nak6, rng):
    e = np.zeros((2, 2, nak6.dim), dtype=np.int64)
    f = np.zeros((2, 2, nak6.dim), dtype=np.int64)
    verts = [1, 2]
    mids = [2, 3]
    outs = [3, 4]
    for r in range(2):
        for c in range(2):
            for w in nak6.paths_from(outs[r]):
                if nak6.target_of(w) == mids[c]:
                    e[r, c, w] = rng.integers(0, nak6.field.p)
            for w in nak6.paths_from(mids[r]):
                if nak6.target_of(w) == verts[c]:
                    f[r, c, w] = rng.integers(0, nak6.field.p)
    prod = nak6.element_matmul(e, f)
    for r in range(2):
        for c in range(2):
            manual = sum(nak6.multiply(e[r, k], f[k, c]) for k in range(2))
            assert (prod[r, c] == manual % nak6.field.p).all()


# preproj_a3 (dimension 10, relations with coefficient -1) at the largest
# prime the parser accepts for it
BIG = parse_algebra_file(str(DATA / "preproj_a3.alg"),
                         oracles.largest_exact_prime(10))


def _reference_product(alg, x, y) -> list:
    """sum_ij x_i y_j table[i, j] in Python integers."""
    p = alg.field.p
    table = oracles.dense_table(alg).tolist()
    return [sum(x[i] * y[j] * table[i][j][m]
                for i in range(alg.dim) for j in range(alg.dim)) % p
            for m in range(alg.dim)]


def _elements(alg, count):
    entry = st.integers(min_value=0, max_value=alg.field.p - 1)
    return st.lists(st.lists(entry, min_size=alg.dim, max_size=alg.dim),
                    min_size=count, max_size=count)


def test_parser_rejects_primes_past_the_int64_bound():
    path = str(DATA / "preproj_a3.alg")
    assert BIG.field.p == oracles.largest_exact_prime(10)
    for p in (nextprime(BIG.field.p), 2**31 - 1, 4294967291):
        with pytest.raises(PrimeTooLargeError):
            parse_algebra_file(path, p)


@given(_elements(BIG, 2))
@settings(max_examples=40, deadline=None)
def test_multiply_exact_at_largest_prime(xy):
    x, y = xy
    got = BIG.multiply(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))
    assert got.tolist() == _reference_product(BIG, x, y)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_element_matmul_exact_at_largest_prime(data):
    r, k, c = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    a = data.draw(_elements(BIG, r * k))
    b = data.draw(_elements(BIG, k * c))
    got = BIG.element_matmul(np.array(a, dtype=np.int64).reshape(r, k, -1),
                             np.array(b, dtype=np.int64).reshape(k, c, -1))
    p = BIG.field.p
    for i in range(r):
        for j in range(c):
            want = [0] * BIG.dim
            for t in range(k):
                prod = _reference_product(BIG, a[i * k + t], b[t * c + j])
                want = [(u + v) % p for u, v in zip(want, prod)]
            assert got[i, j].tolist() == want
