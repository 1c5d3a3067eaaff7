"""Support tau-tilting counts against closed forms from the literature,
on algebras built by the benchmark's generator: C(2n, n) for the
selfinjective Nakayama algebra with n simples and Loewy length n (Adachi,
J. Algebra 2016) and (n+1)! for the preprojective algebra of A_n (Mizuno,
Math. Z. 2014)."""

import importlib.util
import math
import pathlib

import pytest

from tautilt.mutation import enumerate_two_term_silting
from tautilt.pairs import enumerate_nu_stable, enumerate_support_tau_tilting
from tautilt.textio import parse_algebra_text

GENERATOR = pathlib.Path(__file__).parent.parent / "perfbench" / "algebras.py"


@pytest.fixture(scope="module")
def algebras():
    spec = importlib.util.spec_from_file_location("perfbench_algebras",
                                                  GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [3, 4, 5])
def test_selfinjective_nakayama_count(algebras, n):
    enum = enumerate_support_tau_tilting(
        parse_algebra_text(algebras.nakayama(n, n)))
    assert enum.status == "COMPLETE"
    assert len(enum.pairs) == math.comb(2 * n, n)


def test_preprojective_a4_count(algebras):
    # the stable route and the tilting route are cross-checked inside
    stable = enumerate_nu_stable(
        parse_algebra_text(algebras.preprojective(4)))
    assert stable.status == "COMPLETE"
    assert len(stable.silting.nodes) == math.factorial(5)
    assert len(stable.pairs) == 8


def test_preprojective_a5_walk(algebras):
    # p = 44111 > 36 * 35^2 is the prime the CLI needs on this algebra of
    # dimension 35; the tilting count over the 720 nodes takes tens of
    # seconds and stays out of this test
    silting = enumerate_two_term_silting(
        parse_algebra_text(algebras.preprojective(5), field_p=44111))
    assert silting.status == "COMPLETE"
    assert len(silting.nodes) == math.factorial(6)
    assert len(silting.registry) == 2**6 - 2
