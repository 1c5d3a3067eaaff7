"""Support tau-tilting counts against closed forms from the literature,
on algebras built by the benchmark's generator and by the oracles:
C(2n, n) for the selfinjective Nakayama algebra with n simples and Loewy
length n (Adachi, J. Algebra 2016), and the order of the Weyl group W for
the preprojective algebra of a Dynkin graph, (n+1)! for A_n (Mizuno,
Math. Z. 2014), and the number of clusters of the cluster algebra of a
Dynkin type for the algebras tilted from its cluster category: the
Catalan number C(2n+2, n+1) / (n+2) for A_n, (3n-2)/n C(2n-2, n-1) for
D_n, 833 and 4160 for E6 and E7 (Fomin-Zelevinsky, Ann. Math. 2003;
Buan-Marsh-Reineke-Reiten-Todorov, Adv. Math. 2006).  Node and registry
counts come from the whole silting walk, stable counts from the walk
over stable nodes.  All of them run at the default prime."""

import math

import pytest

from tautilt.mutation import enumerate_two_term_silting
from tautilt.pairs import (
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    two_cy_obstruction_report,
)
from tautilt.textio import parse_algebra_text

import oracles


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_selfinjective_nakayama_count(algebras, n):
    enum = enumerate_support_tau_tilting(
        parse_algebra_text(algebras.nakayama(n, n)))
    assert enum.status == "COMPLETE"
    assert len(enum.pairs) == math.comb(2 * n, n)


def test_preprojective_a4_count(pa4):
    enum = enumerate_support_tau_tilting(pa4)
    assert enum.status == "COMPLETE"
    assert len(enum.silting.nodes) == math.factorial(5)
    # the stable routes and the tilting route are cross-checked inside
    stable = enumerate_nu_stable(pa4)
    assert stable.status == "COMPLETE"
    assert len(stable.pairs) == 8


def test_preprojective_a5_nu_stable_count(algebras):
    """720 = 6! nodes, of which 48 are stable: the order of the
    centraliser of the longest element w0 in W = S_6.  This argument was
    derived here, not quoted: the Nakayama functor of Pi(A_n) twists by
    the automorphism that -w0 induces, so it sends the support
    tau-tilting module of w to that of w0 w w0, and the stable ones are
    the w commuting with w0.  For A_5, w0 is the product of three disjoint
    transpositions, with centraliser 2^3 * 3! = 48."""
    alg = parse_algebra_text(algebras.preprojective(5))
    walk = enumerate_two_term_silting(alg)
    assert walk.status == "COMPLETE"
    assert len(walk.nodes) == math.factorial(6)
    assert len(walk.registry) == 2**6 - 2
    stable = enumerate_nu_stable(alg)
    assert stable.status == "COMPLETE"
    assert len(stable.pairs) == 2**3 * math.factorial(3)


def test_preprojective_a6_nu_stable_count(algebras):
    """5040 = 7! nodes and 126 = 2^7 - 2 indecomposables, of which 48
    nodes are stable.  By the argument for A_5 above, the stable nodes are
    the w commuting with w0 in W = S_7; there w0 is the product of three
    disjoint transpositions and a fixed point, with centraliser
    2^3 * 3! * 1! = 48."""
    alg = parse_algebra_text(algebras.preprojective(6))
    walk = enumerate_two_term_silting(alg)
    assert walk.status == "COMPLETE"
    assert len(walk.nodes) == math.factorial(7)
    assert len(walk.registry) == 2**7 - 2
    stable = enumerate_nu_stable(alg)
    assert stable.status == "COMPLETE"
    assert len(stable.pairs) == 2**3 * math.factorial(3) * math.factorial(1)


def test_preprojective_d4_every_node_is_stable():
    """192 = |W(D4)| nodes, all of them stable.  By the argument for A_5
    above, the stable nodes are the w commuting with w0; in W(D4),
    w0 = -1 is central, so that is all of W.  Both orders come from the
    signed-permutation oracle."""
    order, centraliser = oracles.weyl_group_d(4)
    assert (order, centraliser) == (192, 192)
    alg = parse_algebra_text(oracles.preprojective_d(4))
    walk = enumerate_two_term_silting(alg)
    assert walk.status == "COMPLETE"
    assert len(walk.nodes) == order
    stable = enumerate_nu_stable(alg)
    assert stable.status == "COMPLETE"
    assert len(stable.pairs) == centraliser


def _type_d_count(n):
    return (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n


def _clusters(kind, n):
    if kind == "A":
        return math.comb(2 * n + 2, n + 1) // (n + 2)
    if kind == "D":
        return _type_d_count(n)
    return {6: 833, 7: 4160}[n]


def _positive_roots(kind, n):
    if kind == "A":
        return n * (n + 1) // 2
    if kind == "D":
        return n * (n - 1)
    return {6: 36, 7: 63}[n]


@pytest.mark.parametrize("kind, n, pairs", [
    ("A", 4, 42), ("A", 6, 429), ("D", 4, 50), ("D", 5, 182),
    ("D", 6, 672), ("E", 6, 833), ("E", 7, 4160),
])
def test_dynkin_path_algebra_count(kind, n, pairs):
    """kQ for a Dynkin quiver Q, in a seeded random orientation: its
    support tau-tilting pairs are the clusters of type Q, and its
    indecomposable presilting complexes are the indecomposable modules,
    one per positive root (Gabriel), and the n shifted projectives."""
    alg = parse_algebra_text(oracles.dynkin_path_algebra(kind, n, seed=n))
    enum = enumerate_support_tau_tilting(alg)
    assert enum.status == "COMPLETE"
    assert len(enum.pairs) == _clusters(kind, n) == pairs
    assert len(enum.silting.registry) == _positive_roots(kind, n) + n


@pytest.mark.parametrize("kind, n", [("D", 5), ("E", 6)])
def test_dynkin_path_algebra_is_consistent(kind, n):
    # kQ is tilted from the cluster category of Q, a 2-Calabi-Yau category
    alg = parse_algebra_text(oracles.dynkin_path_algebra(kind, n, seed=n))
    assert two_cy_obstruction_report(alg).verdict == "CONSISTENT"


@pytest.mark.parametrize("n, stable", [(3, 2), (4, 6), (5, 2), (6, 6)])
def test_nakayama_one_below_its_rank_is_type_d(algebras, n, stable):
    """N(n, n-1) is cluster-tilted of type D_n (Ringel), so it has as
    many support tau-tilting pairs as D_n has clusters.  The stable
    counts are pinned as observed, not as a closed form."""
    alg = parse_algebra_text(algebras.nakayama(n, n - 1))
    enum = enumerate_support_tau_tilting(alg)
    assert enum.status == "COMPLETE"
    assert len(enum.pairs) == _type_d_count(n)
    assert two_cy_obstruction_report(alg).verdict == "CONSISTENT"
    assert len(enumerate_nu_stable(alg).pairs) == stable
