"""Text formats: algebra files, element expressions, module expressions,
JSON emission."""

import numpy as np
import pytest

from tautilt.errors import ParseError
from tautilt.modules import are_isomorphic, direct_sum, projective, simple
from tautilt.textio import (
    complex_json,
    differential_rows,
    module_expr_string,
    parse_algebra_text,
    parse_element,
    parse_module_expr,
)
from tautilt.translate import tau

import oracles


GOOD = """\
field p=32003
vertices 3
arrow a 1 -> 2
arrow b 2 -> 3
relations:
a*b = 0
"""


def test_algebra_file_roundtrip():
    alg = parse_algebra_text(GOOD)
    assert alg.dim == 5  # e1 e2 e3 a b
    assert not alg.multiply(alg.element_from_path(["a"]),
                            alg.element_from_path(["b"])).any()


def test_field_override():
    alg = parse_algebra_text(GOOD, field_p=1009)
    assert alg.field.p == 1009


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("field p=32003", "characteristic 32003"),
    lambda t: t + "field p=7\n",
    lambda t: t.replace("arrow a 1 -> 2", "arrow a 1 -> 9"),
    lambda t: t.replace("a*b = 0", "a*b = e_1"),
    lambda t: t.replace("a*b = 0", "q*b = 0"),
    lambda t: t.replace("a*b = 0", "a*b = 0\ne_2 = 0"),
])
def test_bad_algebra_files_rejected(mangle):
    with pytest.raises(ParseError):
        parse_algebra_text(mangle(GOOD))


def test_parse_element_roundtrip(nak6, rng):
    for _ in range(25):
        x = rng.integers(0, nak6.field.p, size=nak6.dim)
        # elements must live in one e_i A e_j slice to stay printable-parseable
        piece = np.zeros(nak6.dim, dtype=np.int64)
        ids = nak6.slice_indices(1, 4)
        piece[ids] = x[ids]
        text = nak6.format_element(piece)
        back = parse_element(nak6, text)
        assert (back == piece % nak6.field.p).all()


def test_parse_element_trivial_and_signs(nak4):
    p = nak4.field.p
    x = parse_element(nak4, "2*e_1 - a1*a2 + 3*a1")
    assert x[nak4.trivial_index(1)] == 2
    assert x[nak4.element_from_path(["a1", "a2"]).argmax()] == p - 1
    y = parse_element(nak4, "e2")
    assert y[nak4.trivial_index(2)] == 1
    with pytest.raises(ParseError):
        parse_element(nak4, "a1 * nosuch")
    with pytest.raises(ParseError):
        parse_element(nak4, "a1 a2")


def test_parse_module_expr_atoms(nak6, prep3):
    s = parse_module_expr(nak6, "S(3)")
    assert are_isomorphic(s, simple(nak6, 3))
    p = parse_module_expr(nak6, "P(2)")
    assert are_isomorphic(p, projective(nak6, 2))
    two = parse_module_expr(nak6, "S(3) + P(2)")
    assert two.total_dim == simple(nak6, 3).total_dim + projective(nak6, 2).total_dim
    z = parse_module_expr(nak6, "0")
    assert z.total_dim == 0
    quot = parse_module_expr(prep3, "P(2)/<b>")
    assert quot.dim_vector() == (1, 1, 0)


def test_parse_module_expr_rep_literal(prep3):
    m = parse_module_expr(prep3, "rep{ dims = [1, 1, 0]; arrow astar = [[1]] }")
    assert m.dim_vector() == (1, 1, 0)
    assert are_isomorphic(m, parse_module_expr(prep3, "P(2)/<b>"))
    with pytest.raises(ParseError):
        parse_module_expr(prep3, "rep{ dims = [1, 1, 0]; arrow nosuch = [[1]] }")
    with pytest.raises(ParseError):
        parse_module_expr(prep3, "rep{ arrow a = [[1]] }")


@pytest.mark.parametrize("body, key", [
    ("dims = [1, -1, 0]", "'dims'"),
    ("dims = [1, 1, 0]; dims = [1, 1, 0]", "'dims'"),
    ("dims = [1, 1, 0]; arrow astar = [[1]]; arrow astar = [[1]]",
     "'arrow astar'"),
])
def test_rep_literal_rejects_negative_dims_and_repeated_keys(prep3, body,
                                                             key):
    with pytest.raises(ParseError, match=key):
        parse_module_expr(prep3, f"rep{{ {body}; }}")


@pytest.mark.parametrize("block", [
    "[[1, 2], [3, 4], [5, 6]]",  # transposed
    "[1, 2, 3, 4, 5, 6]",  # flat
    "[[1, 2, 3]]",  # short
    "[[1, 2, 3], [4, 5]]",  # ragged
])
def test_rep_literal_arrow_has_its_block_shape(kronecker, block):
    # arrow a: 1 -> 2 needs dims[1] rows of dims[2] entries, as written
    with pytest.raises(ParseError, match="'arrow a' needs 2 rows of 3 "):
        parse_module_expr(kronecker,
                          f"rep{{ dims = [2, 3]; arrow a = {block}; }}")


def test_rep_literal_accepts_an_empty_block(kronecker):
    m = parse_module_expr(kronecker,
                          "rep{ dims = [0, 3]; arrow a = []; arrow b = []; }")
    assert m.dim_vector() == (0, 3)
    assert m.maps["a"].shape == (0, 3)
    wide = parse_module_expr(kronecker, "rep{ dims = [2, 0]; arrow a = []; "
                                        "arrow b = [[], []]; }")
    assert wide.maps["a"].shape == wide.maps["b"].shape == (2, 0)


def test_module_expr_string_roundtrip(nak4, prep3):
    sample = oracles.uniserial_quotients(nak4) + oracles.uniserial_quotients(prep3)
    rng = np.random.default_rng(7)
    sample += [
        oracles.random_extension(simple(prep3, 1), simple(prep3, 2), rng),
        direct_sum(nak4, [simple(nak4, 1), simple(nak4, 1)])[0],
    ]
    for m in sample:
        text = module_expr_string(m)
        back = parse_module_expr(m.algebra, text)
        assert are_isomorphic(back, m), text


def test_module_expr_string_names(nak6, nak4):
    assert module_expr_string(simple(nak6, 4)) == "S(4)"
    assert module_expr_string(projective(nak6, 1)) == "P(1)"
    # tau of S(1) over the four-cycle is S(2), printed as a simple
    assert module_expr_string(tau(simple(nak4, 1))) == "S(2)"


def test_module_expr_string_of_a_projective_builds_no_self_hom(nak6,
                                                              monkeypatch):
    """Naming the cached P(1) compares it with itself; a nonzero module is
    isomorphic to itself without a Hom basis from it to itself."""
    from tautilt import modules

    m = projective(nak6, 1)
    seen = []
    hom_basis = modules.hom_basis

    def recording(a, b, *args, **kwargs):
        seen.append((a, b))
        return hom_basis(a, b, *args, **kwargs)

    monkeypatch.setattr(modules, "hom_basis", recording)
    assert module_expr_string(m) == "P(1)"
    assert not [pair for pair in seen if pair[0] is m and pair[1] is m]
    zero = modules.zero_module(nak6)
    assert not modules._indec_iso(zero, zero)


def test_complex_json_and_canonical_string(nak4):
    from tautilt.complexes import presentation_complex

    c = presentation_complex(simple(nak4, 1))
    j = complex_json([(c, differential_rows(c))])
    assert j["m1"] == [0, 1, 0, 0]
    assert j["m0"] == [1, 0, 0, 0]
    assert j["differential"] == [["a1"]]
