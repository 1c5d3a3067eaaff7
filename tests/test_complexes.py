"""Two-term complexes of projectives: homotopy Hom spaces, minimal
models, silting and tilting predicates."""

import numpy as np
import pytest

from tautilt.complexes import (
    TwoTermComplex,
    complexes_isomorphic,
    decompose_complex,
    hom_dim,
    is_two_term_presilting,
    is_two_term_silting,
    is_two_term_tilting,
    isomorphic_by_top_trace,
    minimalize,
    nu_complex,
    presentation_complex,
    projective_stalk,
    sum_complexes,
)
from tautilt.modules import (
    are_isomorphic,
    direct_sum,
    projective,
    same_summands,
    simple,
)
from tautilt.mutation import enumerate_two_term_silting, g_vector_key
from tautilt.textio import parse_element
from tautilt.translate import nakayama_permutation, nu_module

import oracles


def _pres(alg, *verts):
    mods = [simple(alg, v) for v in verts]
    return sum_complexes([presentation_complex(m) for m in mods])


def test_presentation_of_simple(nak4):
    c = presentation_complex(simple(nak4, 1))
    assert c.deg1 == (2,)
    assert c.deg0 == (1,)
    assert nak4.format_element(c.d[0, 0]) == "a1"


def test_h0_recovers_module(nak4, nak6):
    for alg in (nak4, nak6):
        m, _ = direct_sum(alg, [simple(alg, 1), projective(alg, 2)])
        assert are_isomorphic(presentation_complex(m).h0(), m)


def test_differential_entries_are_checked(nak4):
    d = np.zeros((1, 1, nak4.dim), dtype=np.int64)
    d[0, 0, nak4.trivial_index(2)] = 1  # e_2 does not lie in e_1 A e_2
    with pytest.raises(ValueError):
        TwoTermComplex(nak4, [2], [1], d)


def test_minimalize_strips_trivial_summands(nak4):
    base = presentation_complex(simple(nak4, 1))
    junk = TwoTermComplex(nak4, [3], [3],
                          nak4.trivial_path(3).reshape(1, 1, -1), check=False)
    fat = sum_complexes([base, junk])
    slim = minimalize(fat)
    assert complexes_isomorphic(slim, base)
    again = minimalize(slim)
    assert (len(again.deg1), len(again.deg0)) == (len(slim.deg1), len(slim.deg0))


def test_complex_iso_invariant_under_order(nak4):
    a = _pres(nak4, 1, 2)
    b = _pres(nak4, 2, 1)
    assert complexes_isomorphic(a, b)
    assert not complexes_isomorphic(a, _pres(nak4, 1, 3))
    assert not complexes_isomorphic(a, projective_stalk(nak4, [1, 2]))


def test_hom_dim_between_stalks(a2, nak4):
    # maps between projective stalks are algebra slices
    for alg in (a2, nak4):
        n = alg.num_vertices
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = hom_dim(projective_stalk(alg, [i]),
                              projective_stalk(alg, [j]))
                assert got == len(alg.slice_indices(j, i))


def test_hom_dim_far_shifts_vanish(nak4):
    c = _pres(nak4, 1, 2)
    for shift in (-3, -2, 2, 3):
        assert hom_dim(c, c, shift) == 0


def test_hom_dim_shift_one_detects_self_extension(nak4):
    # S(1) and S(2) obstruct each other in one direction
    c = _pres(nak4, 1, 2)
    assert hom_dim(c, c, 1) > 0
    single = _pres(nak4, 1)
    assert hom_dim(single, single, 1) == 0


def test_presilting_flags(nak4):
    assert is_two_term_presilting(_pres(nak4, 1))
    assert not is_two_term_presilting(_pres(nak4, 1, 2))
    assert is_two_term_presilting(projective_stalk(nak4, [1, 2, 3, 4]))


def test_silting_and_tilting_flags(a2, nak4):
    lam_a2 = projective_stalk(a2, [1, 2])
    assert is_two_term_silting(lam_a2)
    assert is_two_term_tilting(lam_a2)
    shifted = projective_stalk(a2, [1, 2], shifted=True)
    assert is_two_term_silting(shifted)
    assert is_two_term_tilting(shifted)  # shifts preserve tilting
    # presentation of P(1) + its simple top
    mixed = sum_complexes([projective_stalk(a2, [1]),
                           presentation_complex(simple(a2, 1))])
    assert is_two_term_silting(mixed)
    assert is_two_term_tilting(mixed)
    # P(2) + shifted P(1) is silting but carries the chain map given by
    # the arrow in degree zero, with no homotopies to kill it
    split = sum_complexes([projective_stalk(a2, [2]),
                           projective_stalk(a2, [1], shifted=True)])
    assert is_two_term_silting(split)
    assert not is_two_term_tilting(split)
    assert hom_dim(split, split, -1) == 1
    # too few summand classes
    assert not is_two_term_silting(projective_stalk(nak4, [1]))


def test_summand_classes_count(nak4):
    c = sum_complexes([_pres(nak4, 1), _pres(nak4, 1),
                       projective_stalk(nak4, [2])])
    assert len(oracles.summand_classes(c)) == 2
    parts = decompose_complex(c)
    assert len(parts) == 3


@pytest.mark.parametrize("name", ["a2", "nak4", "prep3"])
def test_summand_classes_match_the_top_trace_grouping(request, name):
    # the classes read off one split of the cokernel agree, representative
    # by representative, with the summands of decompose_complex grouped
    # by the top-trace pairing of chain maps
    alg = request.getfixturevalue(name)
    run = enumerate_two_term_silting(alg)
    for node in run.nodes:
        c = run.node_complex(node)
        want = []
        for x in decompose_complex(c):
            hit = next((k for k, (y, _) in enumerate(want)
                        if isomorphic_by_top_trace(x, y)), None)
            if hit is None:
                want.append((x, 1))
            else:
                want[hit] = (want[hit][0], want[hit][1] + 1)
        got = oracles.summand_classes(c)
        assert [(x.deg1, x.deg0, k) for x, k in got] == [
            (y.deg1, y.deg0, k) for y, k in want]


def test_decomposition_rejects_non_minimal_complexes(kronecker):
    # a contractible P(2) -> P(2) beside the presentation of S(1) has the
    # cokernel S(1), so splitting the cokernel would call its degree -1
    # copy of P(2) a shifted stalk
    base = presentation_complex(simple(kronecker, 1))
    junk = TwoTermComplex(kronecker, [2], [2],
                          kronecker.trivial_path(2).reshape(1, 1, -1))
    fat = sum_complexes([base, junk])
    with pytest.raises(ValueError, match="minimalize"):
        decompose_complex(fat)
    with pytest.raises(ValueError, match="minimalize"):
        complexes_isomorphic(fat, fat)
    got = decompose_complex(minimalize(fat))
    want = decompose_complex(base)
    assert sorted(map(g_vector_key, got)) == sorted(map(g_vector_key, want))
    assert same_summands(got, want, complexes_isomorphic)


def test_complex_iso_with_equal_vertex_lists(kronecker):
    # P(2) -> P(1) given by a combination of the two arrows: the cokernels
    # are the two-dimensional modules, isomorphic exactly when the
    # combinations are proportional
    def arrow_complex(text):
        d = parse_element(kronecker, text).reshape(1, 1, -1)
        return TwoTermComplex(kronecker, [2], [1], d)

    for x, y, want in [("a", "b", False), ("a", "2*a", True),
                       ("a+b", "a-b", False)]:
        p, q = arrow_complex(x), arrow_complex(y)
        assert complexes_isomorphic(p, q) == want, (x, y)
        assert oracles.triangular_isomorphic(p, q) == want, (x, y)


def test_nu_complex_transports_presentations(nak6):
    perm = nakayama_permutation(nak6)
    for v in (1, 3, 5):
        moved = nu_complex(presentation_complex(simple(nak6, v)))
        expect = presentation_complex(simple(nak6, perm[v]))
        assert complexes_isomorphic(minimalize(moved), expect)
    stalk = projective_stalk(nak6, [2])
    assert complexes_isomorphic(minimalize(nu_complex(stalk)),
                                projective_stalk(nak6, [perm[2]]))


def test_nu_complex_matches_nu_module(nak4):
    # on modules without projective summands the two routes agree in H^0
    m = simple(nak4, 1)
    moved = minimalize(nu_complex(presentation_complex(m)))
    assert are_isomorphic(moved.h0(), nu_module(m))
