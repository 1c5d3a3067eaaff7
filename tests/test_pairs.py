"""Support tau-tilting pairs, stability under the Nakayama functor, and
the obstruction battery."""

import pytest

from tautilt.errors import NotSupportTauTiltingError
from tautilt.modules import (
    decompose,
    hom_dim,
    iso_classes,
    projective,
    regular,
    simple,
)
from tautilt.pairs import (
    CHECK_GORENSTEIN,
    CHECK_NU_TRANSLATE,
    CHECK_TAU_MINUS,
    STPair,
    SummandTables,
    complex_to_pair,
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    gorenstein_injdim_le1,
    is_nu_stable_pair,
    is_support_tau_minus_tilting,
    is_support_tau_tilting_pair,
    make_pair,
    pair_to_complex,
    two_cy_obstruction_report,
)
from tautilt.modules import dual
from tautilt.translate import tau, tau_minus
from tautilt.modules import are_isomorphic
from tautilt.complexes import is_two_term_tilting, projective_stalk
from tautilt.mutation import (
    enumerate_two_term_silting,
    g_vector_key,
    mutate_silting,
)
from tautilt.textio import parse_algebra_file, parse_algebra_text

import oracles


@pytest.fixture(scope="module")
def nak4_pairs(nak4):
    return enumerate_support_tau_tilting(nak4)


def test_pair_construction_guards(nak4):
    with pytest.raises(ValueError):
        STPair(nak4, (), (1, 1))
    with pytest.raises(ValueError):
        STPair(nak4, (), (0,))
    with pytest.raises(ValueError):
        make_pair(nak4, [simple(nak4, v) for v in range(1, 5)], (1,))


def test_tau_rigidity_basics(nak4, a2):
    def is_tau_rigid(x):
        return SummandTables().tau_rigid(iso_classes(decompose(x))[0])

    assert is_tau_rigid(simple(nak4, 1))
    assert is_tau_rigid(regular(nak4))
    from tautilt.modules import direct_sum
    bad, _ = direct_sum(nak4, [simple(nak4, 1), simple(nak4, 2)])
    assert not is_tau_rigid(bad)
    assert is_tau_rigid(simple(a2, 1))


def test_completion_projectives(nak6, a2):
    mods = [simple(nak6, 3), simple(nak6, 6)]
    assert is_support_tau_tilting_pair(make_pair(nak6, mods, (1, 2, 4, 5)))
    # a sincere tau-rigid module with too few summands has no completion
    # by zero-support vertices alone
    assert not is_support_tau_tilting_pair(make_pair(a2, [projective(a2, 1)],
                                                     ()))


def test_enumeration_counts(nak4_pairs, a2, prep3):
    assert len(nak4_pairs.pairs) == 50
    assert nak4_pairs.status == "COMPLETE"
    assert len(enumerate_support_tau_tilting(a2).pairs) == 5
    assert len(enumerate_support_tau_tilting(prep3).pairs) == 24


def test_a2_pairs_against_brute_force(a2):
    indecs = [projective(a2, 1), projective(a2, 2), simple(a2, 1)]
    expected = oracles.brute_force_pairs(a2, indecs)
    got = enumerate_support_tau_tilting(a2).pairs
    assert len(expected) == 5
    assert oracles.same_pair_sets(expected, got)


def test_pair_complex_roundtrip(nak4_pairs, rng):
    sample = [nak4_pairs.pairs[int(k)] for k in
              rng.choice(len(nak4_pairs.pairs), size=8, replace=False)]
    for pair in sample:
        back = complex_to_pair(pair_to_complex(pair))
        assert oracles.pairs_match(pair, back)


def test_complex_to_pair_of_non_basic_complexes(a2):
    # repeated summands, shifted or not, give the basic pair
    shifted = complex_to_pair(projective_stalk(a2, [1, 1, 2], shifted=True))
    assert shifted.modules == () and shifted.pverts == (1, 2)
    unshifted = complex_to_pair(projective_stalk(a2, [1, 2, 1]))
    assert unshifted.pverts == ()
    assert [m.dim_vector() for m in unshifted.modules] == [(0, 1), (1, 1)]
    assert oracles.pairs_match(
        unshifted, make_pair(a2, [projective(a2, 1), projective(a2, 2)], ()))


def _sampled_node_answers(algebra) -> dict:
    """Keyed by the g-vectors of its summands, for every tenth silting
    node: the inverse transport (dimension vectors and complement
    vertices), the tilting flag, and the g-vectors mutation reaches."""
    run = enumerate_two_term_silting(algebra)
    items = run.registry.items
    keyed = sorted(((tuple(sorted(g_vector_key(items[i]) for i in node)), node)
                    for node in run.nodes), key=lambda kv: kv[0])
    out = {}
    for key, node in keyed[::10]:
        c = run.node_complex(node)
        pair = complex_to_pair(c)
        out[key] = (sorted(m.dim_vector() for m in pair.modules),
                    sorted(pair.pverts), is_two_term_tilting(c),
                    {g_vector_key(mutate_silting(c, k))
                     for k in range(algebra.num_vertices)})
    return out


def test_inverse_transport_above_the_module_bound(data_dir):
    # nakayama4 has dimension 12: 4 * 12^2 = 576 < 5179 < 36 * 12^2 = 5184,
    # and complexes need only the bound of the algebra
    path = str(data_dir / "nakayama4.alg")
    low = _sampled_node_answers(parse_algebra_file(path, 5179))
    assert {tilting for _, _, tilting, _ in low.values()} == {False, True}
    assert low == _sampled_node_answers(parse_algebra_file(path, 32003))


def test_inverse_transport_on_preprojective_a5(algebras):
    # dimension 35 at the default prime: 4 * 35^2 = 4900 < 32003 < 44100
    alg = parse_algebra_text(algebras.preprojective(5))
    run = enumerate_two_term_silting(alg)
    items = run.registry.items
    node = next(node for node in run.nodes if run.is_node_tilting(node)
                and any(items[i].deg1 and items[i].deg0 for i in node))
    pair = complex_to_pair(run.node_complex(node))
    assert len(pair.modules) + len(pair.pverts) == 5
    assert is_nu_stable_pair(pair)


def test_pair_to_complex_rejects_non_pairs(nak4):
    broken = make_pair(nak4, [simple(nak4, 1)], (2, 3))  # wrong count
    with pytest.raises(NotSupportTauTiltingError):
        pair_to_complex(broken)


def test_nu_stable_enumeration(nak4):
    stable = enumerate_nu_stable(nak4)
    assert len(stable.pairs) == 6
    for pair in stable.pairs:
        assert is_nu_stable_pair(pair)
        # complement vertices are closed under the permutation 1<->3, 2<->4
        flipped = sorted(1 + (v + 1) % 4 for v in pair.pverts)
        assert flipped == sorted(pair.pverts)


def test_forward_backward_translates_agree_on_stable_pairs(nak4):
    # over a selfinjective algebra the two translates of a stable module
    # part coincide
    for pair in enumerate_nu_stable(nak4).pairs:
        x = pair.module_sum()
        assert are_isomorphic(tau(x), tau_minus(x))


def test_tau_and_tau_minus_pairs_coincide_selfinjective(nak4, nak4_pairs):
    # route one: every enumerated pair is also support tau-minus-tilting
    for pair in nak4_pairs.pairs:
        assert is_support_tau_minus_tilting(list(pair.modules), nak4)
    # route two: dualized enumeration over the opposite algebra gives the
    # same set of pairs
    op_pairs = enumerate_support_tau_tilting(nak4.opposite()).pairs
    transported = [make_pair(nak4, [dual(m) for m in p.modules], p.pverts)
                   for p in op_pairs]
    assert oracles.same_pair_sets(nak4_pairs.pairs, transported)


def test_tau_minus_membership_frozen_values(a2):
    p1, p2, s1 = projective(a2, 1), projective(a2, 2), simple(a2, 1)
    assert is_support_tau_minus_tilting([s1], a2)
    assert is_support_tau_minus_tilting([p1, s1], a2)
    assert is_support_tau_minus_tilting([p1, p2], a2)
    assert not is_support_tau_minus_tilting([p1], a2)  # sincere, incomplete


@pytest.mark.parametrize("name", ["a2", "nak4", "nak6", "prep3", "witness",
                                  "one_vertex", "kronecker", "pa4"])
def test_tau_minus_matches_the_dual_route(request, name):
    # the package decides support tau-minus-tilting by tau-minus alone;
    # the oracle takes the duals to a support tau-tilting pair over A^op
    alg = request.getfixturevalue(name)
    cap = 10 if name == "kronecker" else 10000
    tables = SummandTables()
    less_one = []
    for pair in enumerate_support_tau_tilting(alg, cap).pairs:
        mods = list(pair.modules)
        assert is_support_tau_minus_tilting(mods, alg, tables=tables) == \
            oracles.dual_route_tau_minus(mods, alg)
        for k in range(len(mods)):
            fewer = mods[:k] + mods[k + 1:]
            got = is_support_tau_minus_tilting(fewer, alg, tables=tables)
            assert got == oracles.dual_route_tau_minus(fewer, alg)
            zero = [v for v in range(1, alg.num_vertices + 1)
                    if not any(m.dims[v] for m in fewer)]
            less_one.append((got, len(fewer) + len(zero) == alg.num_vertices))
    if name != "one_vertex":  # there the only such list is empty, and holds
        assert any(not got for got, _ in less_one)
    if name in ("nak6", "prep3", "pa4"):  # some fail past the count test
        assert any(not got and counted for got, counted in less_one)


def test_fac_helpers(nak6):
    p1 = projective(nak6, 1)
    lam = regular(nak6)
    assert oracles.fac_equal(p1, p1)
    assert not oracles.fac_equal(p1, lam)
    # m is Ext-projective in Fac(x) when Hom(x, tau m) = 0
    assert oracles.fac_contains(lam, p1) and hom_dim(lam, tau(p1)) == 0
    s1 = simple(nak6, 1)
    assert oracles.fac_contains(lam, s1) and hom_dim(lam, tau(s1)) != 0
    assert not oracles.fac_contains(p1, simple(nak6, 2))


def test_nu_stable_torsion_check(prep3, nak6):
    from tautilt.modules import direct_sum
    both, _ = direct_sum(prep3, [simple(prep3, 1), simple(prep3, 3)])
    assert oracles.nu_stable_torsion_check(both)
    assert oracles.nu_stable_torsion_check(simple(prep3, 2))
    assert not oracles.nu_stable_torsion_check(projective(nak6, 1))


def test_gorenstein_dimension_bound(nak4, nak6, prep3, a2, one_vertex, witness):
    for alg in (nak4, nak6, prep3, a2, one_vertex):
        assert gorenstein_injdim_le1(alg)
    assert not gorenstein_injdim_le1(witness)


def test_obstruction_report_selfinjective(nak4):
    report = two_cy_obstruction_report(nak4)
    assert report.verdict == "CONSISTENT"
    assert report.checks == {CHECK_GORENSTEIN: "PASS", CHECK_TAU_MINUS: "PASS",
                             CHECK_NU_TRANSLATE: "PASS"}
    assert not report.truncated


def test_obstruction_report_hereditary(a2):
    # the two-vertex path algebra is cluster-tilted of its own type, so
    # the necessary conditions all hold even though it is not selfinjective
    report = two_cy_obstruction_report(a2)
    assert report.verdict == "CONSISTENT"
    assert report.checks[CHECK_GORENSTEIN] == "PASS"
    assert report.checks[CHECK_TAU_MINUS] == "PASS"
    assert report.checks[CHECK_NU_TRANSLATE] == "SKIPPED"


@pytest.mark.parametrize("name", ["a2", "nak4", "nak6", "prep3", "witness",
                                  "one_vertex", "pa4"])
def test_tau_minus_coincidence_matches_op_walk(request, name):
    # on a complete walk the counting argument makes the walk over A^op
    # redundant: its converse inclusion holds exactly when the check passes
    alg = request.getfixturevalue(name)
    report = two_cy_obstruction_report(alg)
    status, converse = oracles.op_walk_converse(alg)
    assert not report.truncated
    assert status == "COMPLETE"
    assert (report.checks[CHECK_TAU_MINUS] == "PASS") == converse


def test_obstruction_report_walks_once(nak4, monkeypatch):
    walks = []

    def counting(*args, **kwargs):
        walks.append(args)
        return enumerate_support_tau_tilting(*args, **kwargs)

    monkeypatch.setattr("tautilt.pairs.enumerate_support_tau_tilting",
                        counting)
    two_cy_obstruction_report(nak4)
    assert len(walks) == 1


def test_obstruction_report_builds_no_pair_over_the_opposite(nak4,
                                                            monkeypatch):
    algebras = []

    def recording(pair, *args, **kwargs):
        algebras.append(pair.algebra)
        return is_support_tau_tilting_pair(pair, *args, **kwargs)

    monkeypatch.setattr("tautilt.pairs.is_support_tau_tilting_pair",
                        recording)
    two_cy_obstruction_report(nak4)
    assert algebras  # the stable pairs are still checked over nak4
    assert not any(alg is nak4.opposite() for alg in algebras)


def test_obstruction_report_witness(witness):
    report = two_cy_obstruction_report(witness)
    assert report.verdict == "OBSTRUCTED"
    assert report.checks[CHECK_GORENSTEIN] == "FAIL"
    assert report.checks[CHECK_NU_TRANSLATE] == "SKIPPED"
    assert report.details
