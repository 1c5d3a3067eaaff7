"""Exact linear algebra over the prime field, checked against first
principles: rank plus nullity, solve producing actual solutions, inverses
multiplying to the identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tautilt.field import DEFAULT_PRIME, PrimeField
from tautilt.errors import FieldTooSmallError, PrimeTooLargeError

import oracles

F = PrimeField(97)


def matrices(max_side=6):
    side = st.integers(min_value=0, max_value=max_side)
    return st.tuples(side, side).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(min_value=0, max_value=96),
                     min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0],
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(rc))
    )


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_plus_nullity(a):
    assert F.rank(a) + len(F.kernel_basis(a)) == a.shape[1]


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_rows_annihilate(a):
    k = F.kernel_basis(a)
    if len(k):
        assert not ((a @ k.T) % 97).any()
    assert F.rank(k) == len(k)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_transpose_rank(a):
    assert F.rank(a) == F.rank(a.T.copy())


@given(matrices(), st.integers(min_value=0, max_value=96))
@settings(max_examples=100, deadline=None)
def test_row_space_basis_spans(a, seed):
    basis = F.row_space_basis(a)
    assert F.rank(basis) == len(basis) == F.rank(a)
    if len(basis):
        stacked = np.vstack([basis, a])
        assert F.rank(stacked) == len(basis)


@given(matrices(4), matrices(4))
@settings(max_examples=100, deadline=None)
def test_solve_right_exact(a, brows):
    if brows.shape[0] != a.shape[0]:
        brows = brows[: a.shape[0]]
        if brows.shape[0] < a.shape[0]:
            return
    x = F.solve_right(a, brows)
    if x is not None:
        assert ((a @ x - brows) % 97 == 0).all()
    else:
        # no solution: b must add new rows to the column space
        assert F.rank(np.hstack([a, brows])) > F.rank(a)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_roundtrip(n, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=96), min_size=n, max_size=n),
        min_size=n, max_size=n))
    a = np.array(rows, dtype=np.int64)
    if F.rank(a) < n:
        assert not oracles.is_invertible(F, a)
        with pytest.raises(ValueError, match="singular"):
            oracles.matrix_inverse(F, a)
        return
    inv = oracles.matrix_inverse(F, a)
    assert (F.matmul(a, inv) == F.identity(n)).all()
    assert (F.matmul(inv, a) == F.identity(n)).all()


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError, match="non-square"):
        oracles.matrix_inverse(F, np.ones((2, 3), dtype=np.int64))
    assert not oracles.is_invertible(F, np.ones((3, 2), dtype=np.int64))


@st.composite
def prime_and_matrix(draw):
    """A prime and a matrix of up to 5 x 5 whose entries lie outside
    [0, p) as well as inside, negatives included."""
    p = draw(st.sampled_from([2, 97, oracles.largest_exact_prime(2)]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    flat = draw(st.lists(st.integers(-3 * p, 3 * p),
                         min_size=rows * cols, max_size=rows * cols))
    return p, np.array(flat, dtype=np.int64).reshape(rows, cols)


@given(prime_and_matrix())
@example((2, np.zeros((0, 3), dtype=np.int64)))
@example((97, np.zeros((4, 0), dtype=np.int64)))
@example((97, np.array([[0, 0, -5, 195]], dtype=np.int64)))
@example((97, np.zeros((1, 3), dtype=np.int64)))
@settings(max_examples=300, deadline=None)
def test_rref_matches_the_loop_oracle(case):
    # the fast paths (a zero side, one row) must give what the loop gives
    p, a = case
    before = a.copy()
    r, pivots = PrimeField(p).rref(a)
    want, want_pivots = oracles.gauss_rref(a.tolist(), a.shape[1], p)
    assert r.shape == a.shape
    assert r.tolist() == want
    assert pivots == want_pivots
    assert (a == before).all()


def test_inv_scalar():
    for x in range(1, 97):
        assert (x * F.inv_scalar(x)) % 97 == 1


def test_default_prime():
    assert DEFAULT_PRIME == 32003
    assert PrimeField().p == 32003


def test_trace_bound_rejects_small_fields():
    small = PrimeField(5)
    with pytest.raises(FieldTooSmallError):
        small.check_trace_bound(10)


def test_field_equality_by_prime():
    assert PrimeField(97) == PrimeField(97)
    assert PrimeField(97) != PrimeField(32003)


# the largest prime whose residue products fit in int64: matmul must then
# split every inner dimension into single terms
TOP = PrimeField(oracles.largest_exact_prime(1))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_matmul_exact_at_largest_prime(data):
    p = TOP.p
    r, n, c = (data.draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    entry = st.integers(min_value=0, max_value=p - 1)
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=r, max_size=r))
    b = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                           min_size=n, max_size=n))
    got = TOP.matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    want = [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(c)]
            for i in range(r)]
    assert got.tolist() == want
    top = np.full((2, 6), p - 1, dtype=np.int64)
    assert (TOP.matmul(top, top.T) == 6 % p).all()


def test_prime_size_bounds():
    assert TOP.max_terms == 1
    with pytest.raises(PrimeTooLargeError):
        PrimeField(4294967291)
    field = PrimeField(oracles.largest_exact_prime(12))
    field.check_exact(12)
    with pytest.raises(PrimeTooLargeError):
        field.check_exact(13)


def _scaled_permutation(n, rng):
    perm = rng.permutation(n)
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n), perm] = rng.integers(1, 97, size=n)
    return a


def _block_monomial(sizes, rng):
    # a permutation of dense invertible blocks: most pivots are alone in
    # their column, the rest share it with their block
    blocks = []
    for k in sizes:
        while True:
            b = rng.integers(0, 97, size=(k, k))
            if F.rank(b) == k:
                break
        blocks.append(b)
    n = sum(sizes)
    a = np.zeros((n, n), dtype=np.int64)
    starts = np.cumsum([0] + list(sizes))
    order = rng.permutation(len(sizes))
    col = 0
    for i in order:
        r0, k = starts[i], sizes[i]
        a[r0:r0 + k, col:col + k] = blocks[i]
        col += k
    return a


@pytest.mark.parametrize("seed", range(6))
def test_eliminations_with_lone_pivots(seed):
    # rref skips the update of the other rows when a pivot is alone in its
    # column; rref, solve_right and inverse must still be right, checked
    # by their products
    rng = np.random.default_rng(seed)
    n = 2 + seed
    for a in (_scaled_permutation(n, rng),
              _block_monomial([1, 2, 1, 3][:1 + seed % 4], rng)):
        k = a.shape[0]
        r, piv = F.rref(a)
        want, want_piv = oracles.gauss_rref(a.tolist(), k, 97)
        assert r.tolist() == want and piv == want_piv == list(range(k))
        inv = oracles.matrix_inverse(F, a)
        assert (F.matmul(a, inv) == F.identity(k)).all()
        assert (F.matmul(inv, a) == F.identity(k)).all()
        b = rng.integers(0, 97, size=(k, 3))
        x = F.solve_right(a, b)
        assert (F.matmul(a, x) == b).all()
        # a wide system with a dependent column: a lone pivot next to a
        # non-pivot column
        wide = np.hstack([a, a[:, :1] * 5 % 97])
        assert F.rank(wide) == k
        xw = F.solve_right(wide, b)
        assert (F.matmul(wide, xw) == b).all()
