"""Support tau-tilting counts against closed forms from the literature,
on algebras built by the benchmark's generator: C(2n, n) for the
selfinjective Nakayama algebra with n simples and Loewy length n (Adachi,
J. Algebra 2016) and (n+1)! for the preprojective algebra of A_n (Mizuno,
Math. Z. 2014).  All of them run at the default prime."""

import math

import pytest

from tautilt.pairs import enumerate_nu_stable, enumerate_support_tau_tilting
from tautilt.textio import parse_algebra_text


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_selfinjective_nakayama_count(algebras, n):
    enum = enumerate_support_tau_tilting(
        parse_algebra_text(algebras.nakayama(n, n)))
    assert enum.status == "COMPLETE"
    assert len(enum.pairs) == math.comb(2 * n, n)


def test_preprojective_a4_count(pa4):
    # the stable route and the tilting route are cross-checked inside
    stable = enumerate_nu_stable(pa4)
    assert stable.status == "COMPLETE"
    assert len(stable.silting.nodes) == math.factorial(5)
    assert len(stable.pairs) == 8


def test_preprojective_a5_nu_stable_count(algebras):
    """720 = 6! nodes, of which 48 are stable: the order of the
    centraliser of the longest element w0 in W = S_6.  This argument was
    derived here, not quoted: the Nakayama functor of Pi(A_n) twists by
    the automorphism that -w0 induces, so it sends the support
    tau-tilting module of w to that of w0 w w0, and the stable ones are
    the w commuting with w0.  For A_5, w0 is the product of three disjoint
    transpositions, with centraliser 2^3 * 3! = 48."""
    stable = enumerate_nu_stable(
        parse_algebra_text(algebras.preprojective(5)))
    assert stable.status == "COMPLETE"
    assert len(stable.silting.nodes) == math.factorial(6)
    assert len(stable.silting.registry) == 2**6 - 2
    assert len(stable.pairs) == 2**3 * math.factorial(3)
