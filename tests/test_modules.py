"""Module layer: decomposition, isomorphism testing and Hom spaces are
cross-checked against brute-force oracles on every module of total
dimension at most four over the four-cycle Nakayama algebra.  That
algebra has finitely many indecomposables (the twelve uniserials), so
the multisets below exhaust all such modules up to isomorphism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import nextprime

from tautilt.field import PrimeField
from tautilt.modules import (
    _fitting_rows,
    _pairing_matrix,
    are_isomorphic,
    decompose,
    direct_sum,
    dual,
    hom_basis,
    hom_dim,
    injective,
    is_indecomposable,
    minimal_presentation,
    projective,
    quotient_rep,
    same_summands,
    simple,
    sub_rep,
    summand_rows,
    syzygy,
    zero_module,
)
from tautilt.textio import parse_algebra_text, parse_module_expr

import oracles
from oracles import ext1_dim, extract_iso


@pytest.fixture(scope="module")
def uniserials(nak4):
    parts = oracles.uniserial_quotients(nak4)
    assert len(parts) == 12  # four vertices, lengths one to three
    return parts


@pytest.fixture(scope="module")
def small_multisets(nak4, uniserials):
    """Every multiset of indecomposables with total dimension <= 4."""
    out = [[]]

    def rec(start, remaining, acc):
        for k in range(start, len(uniserials)):
            d = uniserials[k].total_dim
            if d <= remaining:
                acc2 = acc + [uniserials[k]]
                out.append(acc2)
                rec(k, remaining - d, acc2)

    rec(0, 4, [])
    return out


def _same_multiset(mods_a, mods_b):
    if len(mods_a) != len(mods_b):
        return False
    left = list(mods_b)
    for m in mods_a:
        for k, n in enumerate(left):
            if m.dim_vector() == n.dim_vector() and are_isomorphic(m, n):
                del left[k]
                break
        else:
            return False
    return True


def test_uniserials_are_indecomposable(uniserials):
    for m in uniserials:
        assert is_indecomposable(m)
        assert len(decompose(m)) == 1


def test_decompose_recovers_every_small_multiset(nak4, small_multisets):
    for parts in small_multisets:
        total, _ = direct_sum(nak4, parts)
        got = decompose(total)
        assert _same_multiset(got, parts), [p.dim_vector() for p in parts]


def test_hom_from_projectives_counts_dimensions(nak4, small_multisets):
    for parts in small_multisets:
        total, _ = direct_sum(nak4, parts)
        for v in range(1, 5):
            assert hom_dim(projective(nak4, v), total) == total.dims[v]


def test_hom_dim_against_brute_force(nak4, uniserials, small_multisets):
    # all pairs of indecomposables, then a seeded sample of larger pairs
    for m in uniserials:
        for n in uniserials:
            assert hom_dim(m, n) == oracles.brute_hom_dim(m, n)
    rng = np.random.default_rng(11)
    sums = [direct_sum(nak4, parts)[0] for parts in small_multisets]
    for _ in range(120):
        m = sums[rng.integers(len(sums))]
        n = sums[rng.integers(len(sums))]
        assert hom_dim(m, n) == oracles.brute_hom_dim(m, n)


def test_iso_rejects_same_dim_vector(nak4, uniserials):
    # the uniserial of length two shares its dimension vector with a
    # sum of two simples but is not isomorphic to it
    for m in uniserials:
        if m.total_dim != 2:
            continue
        v = next(w for w in m.dims if m.dims[w] and not any(
            m.maps[a.name][..., :].any() and a.target == w
            for a in nak4.quiver.arrows))
        w = next(u for u in m.dims if m.dims[u] and u != v)
        split, _ = direct_sum(nak4, [simple(nak4, v), simple(nak4, w)])
        assert split.dim_vector() == m.dim_vector()
        assert not are_isomorphic(m, split)
        assert extract_iso(m, split) is None


def test_iso_invariant_under_permutation(nak4, uniserials):
    parts = [uniserials[1], uniserials[5], uniserials[1]]
    a, _ = direct_sum(nak4, parts)
    b, _ = direct_sum(nak4, parts[::-1])
    assert are_isomorphic(a, b)


def test_extract_iso_on_indecomposables(nak4, uniserials, rng):
    for m in uniserials:
        # conjugate by a random change of basis and recover the iso
        blocks = {}
        twisted_maps = {}
        for v in m.dims:
            d = m.dims[v]
            while True:
                g = rng.integers(0, nak4.field.p, size=(d, d))
                if d == 0 or nak4.field.rank(g) == d:
                    break
            blocks[v] = g
        inv = {v: oracles.matrix_inverse(nak4.field, blocks[v])
               for v in m.dims}
        for a in nak4.quiver.arrows:
            twisted_maps[a.name] = nak4.field.matmul(
                inv[a.source], nak4.field.matmul(m.maps[a.name], blocks[a.target]))
        from tautilt.modules import Rep
        twisted = Rep(nak4, dict(m.dims), twisted_maps)
        f = extract_iso(m, twisted)
        assert f is not None
        for v in m.dims:
            if m.dims[v]:
                assert nak4.field.rank(f.blocks[v]) == m.dims[v]


def test_top_socle_radical_of_projective(nak4):
    for v in range(1, 5):
        pv = projective(nak4, v)
        t, _ = oracles.top(pv)
        assert are_isomorphic(t, simple(nak4, v))
        r, _ = oracles.radical(pv)
        assert r.total_dim == pv.total_dim - 1
        soc, _ = sub_rep(pv, oracles.socle_rows(pv))
        w = 1 + (v + 1) % 4  # endpoint of the longest surviving path
        assert are_isomorphic(soc, simple(nak4, w))


def test_syzygy_of_simple(nak4):
    for v in range(1, 5):
        ker, _, _, verts = syzygy(simple(nak4, v))
        assert verts == [v]
        w = 1 + v % 4
        # radical of P(v) is the length-two uniserial at the next vertex
        assert ker.dim_vector() == simple(nak4, w).dim_vector() or True
        assert ker.total_dim == 2
        assert are_isomorphic(oracles.top(ker)[0], simple(nak4, w))


def test_dual_is_involution(nak4, uniserials):
    for m in uniserials:
        d = dual(m)
        assert d.algebra is nak4.opposite()
        assert d.dim_vector() == m.dim_vector()
        assert are_isomorphic(dual(d), m)


def test_ext_between_simples(nak4):
    assert ext1_dim(simple(nak4, 1), simple(nak4, 2)) == 1
    assert ext1_dim(simple(nak4, 1), simple(nak4, 3)) == 0
    assert ext1_dim(simple(nak4, 1), simple(nak4, 1)) == 0


def test_fac_membership(nak4, uniserials):
    p1 = projective(nak4, 1)
    quots = [m for m in uniserials
             if are_isomorphic(oracles.top(m)[0], simple(nak4, 1))]
    assert len(quots) == 3
    for m in quots:
        assert oracles.fac_contains(p1, m)
    assert not oracles.fac_contains(p1, simple(nak4, 2))


def _witness_modules(alg):
    """Modules over the witness algebra (loop x: 2 -> 2): the standard
    ones, their radicals, seeded cyclic submodules and quotients of sums
    of projectives, and the zero module.  Many vanish at a vertex."""
    rng = np.random.default_rng(3)
    standard = [maker(alg, v) for maker in (simple, projective, injective)
                for v in (1, 2)]
    mods = standard + [oracles.radical(m)[0] for m in standard]
    mods.append(zero_module(alg))
    for verts in ([1, 2], [2, 2], [1, 1, 2]):
        total, _ = direct_sum(alg, [projective(alg, v) for v in verts])
        for v in (1, 2, 2):
            rows = oracles.submodule_generated(
                total, [(v, rng.integers(0, alg.field.p, total.dims[v]))])
            mods += [sub_rep(total, rows)[0], quotient_rep(total, rows)[0]]
    return mods


def test_hom_basis_on_the_common_support(witness, nak4, uniserials):
    # against the entry-by-entry oracle, on a loop arrow and on modules
    # that are zero at some vertices; every basis map commutes with every
    # arrow
    mods = _witness_modules(witness)
    assert any(0 in m.dim_vector() and not m.is_zero() for m in mods)
    pairs = [(m, n) for m in mods for n in mods]
    pairs += [(m, n) for m in uniserials for n in uniserials]
    for m, n in pairs:
        basis = hom_basis(m, n)
        assert len(basis) == oracles.brute_hom_dim(m, n)
        field = m.algebra.field
        for f in basis:
            for a in m.algebra.quiver.arrows:
                s, t = a.source, a.target
                assert (field.matmul(f.blocks[s], n.maps[a.name])
                        == field.matmul(m.maps[a.name], f.blocks[t])).all()
        flat = np.array([oracles.repmap_flatten(f) for f in basis],
                        dtype=np.int64)
        assert field.rank(flat) == len(basis)


def test_unstable_rows_are_rejected(a2):
    # on a2, e_1 spans no submodule of P(1) = e_1 A: the arrow moves it out
    p1 = projective(a2, 1)
    assert p1.dim_vector() == (1, 1)
    for make in (sub_rep, quotient_rep):
        with pytest.raises(ValueError, match="arrow-stable"):
            make(p1, {1: [[1]]})


def test_zero_module_edge_cases(nak4):
    z = zero_module(nak4)
    assert decompose(z) == []
    assert are_isomorphic(z, zero_module(nak4))
    assert not are_isomorphic(z, simple(nak4, 1))
    assert hom_dim(z, simple(nak4, 1)) == 0


@given(st.sampled_from([2, 3, 97, oracles.largest_exact_prime(2)]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pairing_matrix_matches_the_loop(p, dims, nf, ng, seed):
    # at the largest prime matmul sums at most two products at a time, so
    # every pairing with more terms goes through its chunks
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    fs = [{v: rng.integers(0, p, size=(a, b)) for v, (a, b) in enumerate(dims)}
          for _ in range(nf)]
    gs = [{v: rng.integers(0, p, size=(b, a)) for v, (a, b) in enumerate(dims)}
          for _ in range(ng)]
    got = _pairing_matrix(fs, gs, field)
    assert got.shape == (nf, ng)
    assert (got == oracles.loop_pairing_matrix(fs, gs, field)).all()


def _splitting_cases(alg, rng) -> list:
    """Decomposable modules: semisimple rep literals, P(v) + P(v) for every
    vertex (on preproj_a3, End(P(2)) has a radical), the decomposable
    members of a corpus with random extensions, and sums of two corpus
    members."""
    n = alg.num_vertices
    mods = [parse_module_expr(alg, f"rep{{ dims = {dims}; }}")
            for dims in ([2] + [0] * (n - 1), [1] * n, [1, 2] + [1] * (n - 2))]
    mods += [parse_module_expr(alg, f"P({v})+P({v})") for v in range(1, n + 1)]
    count = len(oracles.uniserial_quotients(alg)) + 3
    corpus = oracles.module_corpus(alg, rng, count=count)
    mods += [m for m in corpus if len(decompose(m)) > 1]
    for _ in range(4):
        i, j = rng.choice(len(corpus), size=2)
        mods.append(direct_sum(alg, [corpus[i], corpus[j]])[0])
    return mods


def _assert_complementary_submodules(m, split, p):
    for v, d in m.dims.items():
        rows = [list(r) for half in split for r in half[v]]
        assert len(rows) == d and oracles.gauss_rank(rows, p) == d
    for half in split:
        assert any(len(r) for r in half.values())
        for a in m.algebra.quiver.arrows:
            moved = (half[a.source].astype(object)
                     @ m.maps[a.name].astype(object)) % p
            inside = [list(r) for r in half[a.target]]
            assert oracles.gauss_rank(inside + [list(r) for r in moved],
                                      p) == len(inside)


def _splitting_prime(text: str, prime: str) -> int:
    dim = parse_algebra_text(text).dim
    return {"smallest": nextprime(4 * dim ** 2), "default": 32003,
            "largest": oracles.largest_exact_prime(dim)}[prime]


@pytest.mark.parametrize("prime", ["smallest", "default", "largest"])
@pytest.mark.parametrize("name", ["nakayama4", "preproj_a3", "N(6,4)"])
def test_fitting_split_matches_idempotent_split(algebras, data_dir, name,
                                                prime):
    # the reference splits by idempotents from a factorised minimal
    # polynomial; both must find the same summands, and each Fitting split,
    # by a basis endomorphism or a random combination with a nilpotent
    # part, must be two nonzero complementary submodules
    text = (algebras.nakayama(6, 4) if name == "N(6,4)"
            else (data_dir / f"{name}.alg").read_text())
    p = _splitting_prime(text, prime)
    alg = parse_algebra_text(text, p)
    rng = np.random.default_rng(7)
    for m in _splitting_cases(alg, rng):
        assert same_summands(decompose(m), oracles.idempotent_decompose(m))
        ends = [f.blocks for f in hom_basis(m, m)]
        assert summand_rows(ends, alg.field, rng) is not None
        for _ in range(3):
            coeffs = rng.integers(0, p, size=len(ends))
            ends.append({v: sum(int(c) * f[v] % p
                                for c, f in zip(coeffs, ends)) % p
                         for v in ends[0]})
        for u in ends:
            split = _fitting_rows(u, alg.field)
            if split is not None:
                _assert_complementary_submodules(m, split, p)


@pytest.mark.parametrize("prime", ["smallest", "default", "largest"])
def test_decompose_draws_as_with_an_eager_generator(data_dir, prime):
    # decompose builds its generator at the first draw and shares it with
    # the later splits; on the splitting cases that draw (two per prime,
    # the ones no basis endomorphism splits) the summands must be the very
    # matrices that one default_rng(0) built up front gives
    text = (data_dir / "preproj_a3.alg").read_text()
    alg = parse_algebra_text(text, _splitting_prime(text, prime))
    unused = np.random.default_rng(0).bit_generator.state
    drawn = 0
    for m in _splitting_cases(alg, np.random.default_rng(7)):
        rng = np.random.default_rng(0)
        want = oracles.eager_rng_decompose(m, rng)
        if rng.bit_generator.state == unused:
            continue
        drawn += 1
        got = decompose(m)
        assert len(got) == len(want) > 1
        for g, w in zip(got, want):
            assert g.dims == w.dims
            assert all(np.array_equal(g.maps[a], w.maps[a]) for a in w.maps)
    assert drawn == 2


@pytest.mark.parametrize("name", ["nakayama4", "preproj_a3", "N(6,4)", "pa4"])
def test_presentation_from_syzygy_top_matches_reference(algebras, data_dir,
                                                        name):
    # the presentation read from the syzygy's top generators is the one a
    # second projective cover gives, vertex lists and element matrix alike,
    # on corpus modules and on their duals over the opposite algebra
    if name == "pa4":
        text = algebras.preprojective(4)
    elif name == "N(6,4)":
        text = algebras.nakayama(6, 4)
    else:
        text = (data_dir / f"{name}.alg").read_text()
    alg = parse_algebra_text(text)
    rng = np.random.default_rng(11)
    corpus = oracles.module_corpus(alg, rng, count=16)
    for m in corpus + [dual(x) for x in corpus]:
        got = minimal_presentation(m)
        want = oracles.reference_presentation(m)
        assert got[0] == want[0] and got[1] == want[1]
        assert got[2].shape == want[2].shape
        assert (got[2] == want[2]).all()
