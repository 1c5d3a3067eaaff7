"""Auslander-Reiten translates and the Nakayama functor.  The transpose
route used by tau/tau_minus is cross-checked against an independent
syzygy route available over selfinjective algebras, and the Nakayama
functor read off a Frobenius form against the route that matches each
injective with a projective by an explicit isomorphism."""

import importlib.util
import pathlib

import numpy as np
import pytest
from sympy import nextprime

from tautilt.algebra import Arrow, Quiver, build_algebra
from tautilt.errors import NotSelfinjectiveError
from tautilt.modules import (
    are_isomorphic,
    injective,
    projective,
    simple,
    zero_module,
)
from tautilt.translate import (
    is_selfinjective,
    nakayama_permutation,
    nu_element,
    nu_module,
    selfinjective_data,
    tau,
    tau_minus,
)
from tautilt.textio import parse_algebra_text

import oracles
from oracles import is_nu_stable_module

ROOT = pathlib.Path(__file__).parent.parent


def _generator():
    spec = importlib.util.spec_from_file_location(
        "perfbench_algebras", ROOT / "perfbench" / "algebras.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _algebra(name, prime="file"):
    """A test-data algebra by file stem, or a generated one: N(n,l) is the
    selfinjective Nakayama algebra, Pi(A4) the preprojective algebra.
    prime is "file", "smallest" (the first prime past the 4 d^2 bound the
    parser enforces) or "largest" (the last one below the int64 bound)."""
    gen = _generator()
    texts = {"N(5,3)": gen.nakayama(5, 3), "N(4,2)": gen.nakayama(4, 2),
             "N(3,5)": gen.nakayama(3, 5), "Pi(A4)": gen.preprojective(4)}
    text = texts.get(name) or (ROOT / "tests" / "data" / f"{name}.alg"
                               ).read_text()
    alg = parse_algebra_text(text)
    if prime == "smallest":
        return parse_algebra_text(text, nextprime(4 * alg.dim ** 2))
    if prime == "largest":
        return parse_algebra_text(text, oracles.largest_exact_prime(alg.dim))
    return alg


NU_CASES = [("nakayama4", "file"), ("nakayama6", "file"),
            ("preproj_a3", "file"), ("one_vertex", "file"),
            ("N(5,3)", "file"), ("N(4,2)", "file"), ("N(3,5)", "file"),
            ("Pi(A4)", "file"), ("N(5,3)", "smallest"),
            ("nakayama4", "largest")]


def test_selfinjectivity_flags(nak6, nak4, prep3, a2, one_vertex, witness):
    assert is_selfinjective(nak6)
    assert is_selfinjective(nak4)
    assert is_selfinjective(prep3)
    assert is_selfinjective(one_vertex)
    assert not is_selfinjective(a2)
    assert not is_selfinjective(witness)
    with pytest.raises(NotSelfinjectiveError):
        nakayama_permutation(a2)


def test_nakayama_permutations(nak6, nak4, prep3):
    assert nakayama_permutation(nak6) == {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
    assert nakayama_permutation(nak4) == {1: 3, 2: 4, 3: 1, 4: 2}
    assert nakayama_permutation(prep3) == {1: 3, 2: 2, 3: 1}
    # the defining property, checked independently of the stored maps
    for alg in (nak6, nak4, prep3):
        perm = nakayama_permutation(alg)
        for i, j in perm.items():
            assert are_isomorphic(injective(alg, i), projective(alg, j))


def test_tau_kills_projectives(nak6, prep3):
    for alg in (nak6, prep3):
        for v in range(1, alg.num_vertices + 1):
            assert tau(projective(alg, v)).is_zero()
            assert tau_minus(injective(alg, v)).is_zero()


def test_tau_shifts_uniserials(nak4, nak6):
    # over a cyclic Nakayama algebra tau moves a non-projective uniserial
    # one step around the cycle, keeping its length
    for alg in (nak4, nak6):
        n = alg.num_vertices
        for m in oracles.uniserial_quotients(alg):
            if m.total_dim == projective(alg, 1).total_dim:
                continue  # projective
            t = tau(m)
            assert t.total_dim == m.total_dim
            assert oracles.is_uniserial(t)
    # spot checks with explicit vertices
    assert are_isomorphic(tau(simple(nak4, 1)), simple(nak4, 2))
    assert are_isomorphic(tau(simple(nak4, 4)), simple(nak4, 1))
    assert are_isomorphic(tau(simple(nak6, 3)), simple(nak6, 4))


def test_tau_tau_minus_inverse_on_uniserials(nak4):
    pdim = projective(nak4, 1).total_dim
    for m in oracles.uniserial_quotients(nak4):
        if m.total_dim == pdim:
            continue
        assert are_isomorphic(tau_minus(tau(m)), m)
        assert are_isomorphic(tau(tau_minus(m)), m)


@pytest.mark.parametrize("name", ["nak6", "nak4", "prep3"])
def test_tau_agrees_with_syzygy_route(name, request):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    corpus = oracles.module_corpus(alg, rng, count=18)
    for m in corpus:
        assert are_isomorphic(tau(m), oracles.tau_syzygy_oracle(m)), (
            name, m.dim_vector())
        assert are_isomorphic(tau_minus(m), oracles.tau_minus_syzygy_oracle(m)), (
            name, m.dim_vector())


def test_nu_module_on_projectives_and_simples(nak6, prep3):
    for alg in (nak6, prep3):
        perm = nakayama_permutation(alg)
        for v in range(1, alg.num_vertices + 1):
            assert are_isomorphic(nu_module(projective(alg, v)),
                                  injective(alg, v))
            assert are_isomorphic(nu_module(simple(alg, v)),
                                  simple(alg, perm[v]))


def test_nu_stability(nak6, prep3):
    assert is_nu_stable_module(simple(prep3, 2))
    assert not is_nu_stable_module(simple(prep3, 1))
    assert not is_nu_stable_module(simple(nak6, 1))
    from tautilt.modules import direct_sum
    both, _ = direct_sum(nak6, [simple(nak6, 1), simple(nak6, 4)])
    assert is_nu_stable_module(both)
    assert is_nu_stable_module(zero_module(nak6))


def test_nu_element_is_multiplicative(nak4, prep3, rng):
    for alg in (nak4, prep3):
        n = alg.num_vertices
        for _ in range(30):
            i, j, k = (int(rng.integers(1, n + 1)) for _ in range(3))
            x = np.zeros(alg.dim, dtype=np.int64)
            y = np.zeros(alg.dim, dtype=np.int64)
            xs = alg.slice_indices(i, j)
            ys = alg.slice_indices(j, k)
            if xs:
                x[xs] = rng.integers(0, alg.field.p, size=len(xs))
            if ys:
                y[ys] = rng.integers(0, alg.field.p, size=len(ys))
            lhs = nu_element(alg, alg.multiply(x, y))
            rhs = alg.multiply(nu_element(alg, x), nu_element(alg, y))
            assert (lhs == rhs).all()


def test_nu_element_fixes_identity(nak6):
    perm = nakayama_permutation(nak6)
    for v in range(1, 7):
        moved = nu_element(nak6, nak6.trivial_path(v))
        assert (moved == nak6.trivial_path(perm[v])).all()


def test_tau_of_zero(nak4):
    assert tau(zero_module(nak4)).is_zero()
    assert tau_minus(zero_module(nak4)).is_zero()


@pytest.mark.parametrize("name, prime", NU_CASES)
def test_nu_agrees_with_injective_route(name, prime):
    # N(5,3) has the non-involutive permutation (1 4 2 5 3), so a route
    # that built the inverse functor would fail here
    alg = _algebra(name, prime)
    perm, nu = oracles.nakayama_oracle(alg)
    assert nakayama_permutation(alg) == perm
    rng = np.random.default_rng(5)
    for v in range(1, alg.num_vertices + 1):
        moved = nu_element(alg, alg.trivial_path(v))
        assert (moved == alg.trivial_path(perm[v])).all()
        assert are_isomorphic(nu_module(projective(alg, v)),
                              injective(alg, v))
    for _ in range(10):
        x, y = rng.integers(0, alg.field.p, size=(2, alg.dim))
        assert (nu_element(alg, alg.multiply(x, y))
                == alg.multiply(nu_element(alg, x), nu_element(alg, y))).all()
    # the base field has a single indecomposable and nothing to extend
    count = 12 if alg.dim > 1 else 1
    for m in oracles.module_corpus(alg, rng, count=count):
        assert are_isomorphic(nu_module(m),
                              oracles.nu_module_oracle(m, perm, nu)), (
            name, m.dim_vector())


def _two_socle_algebra():
    """Arrows 1 -> 2 and 1 -> 3, no relations: P(1) has socle S(2) + S(3)."""
    return build_algebra(Quiver(3, [Arrow("a", 1, 2), Arrow("b", 1, 3)]), [])


@pytest.mark.parametrize("name", ["a2", "gorenstein_witness", "two-socle"]
                         + sorted({n for n, _ in NU_CASES}))
def test_selfinjectivity_agrees_with_injective_route(name):
    alg = _two_socle_algebra() if name == "two-socle" else _algebra(name)
    assert is_selfinjective(alg) == (oracles.nakayama_oracle(alg) is not None)


def test_not_selfinjective_names_the_vertex(a2, witness):
    for alg in (a2, witness):
        with pytest.raises(NotSelfinjectiveError,
                           match=r"P\(1\) and P\(2\) both have socle S\(2\)"):
            selfinjective_data(alg)
    with pytest.raises(NotSelfinjectiveError,
                       match=r"P\(1\) has a socle of dimension 2"):
        selfinjective_data(_two_socle_algebra())
