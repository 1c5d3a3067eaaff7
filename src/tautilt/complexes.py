"""Two-term complexes of projectives, hom spaces, and silting predicates.

A complex P^{-1} -> P^0 is stored as two vertex lists and a matrix of
algebra elements: entry (r, c) lies in e_{deg0[r]} A e_{deg1[c]} and is the
component from the c-th degree -1 summand to the r-th degree 0 summand, so
composition of maps is the ordinary matrix product over the algebra.

Hom spaces in the homotopy category are computed degreewise on element
matrices.  Each complex keeps the multiplication tables of its
differential, built on first use, and each algebra keeps the coordinate
spaces of element matrices per pair of vertex tuples, so a composition
operator is one gather from a kept table and a Hom dimension is gathers
plus one elimination.  A single unit-elimination
routine, eliminate_units, strips contractible summands both from two-term
complexes and from the three-term cones that mutation builds.

Minimal complexes are homotopy equivalent exactly when they are
isomorphic on the nose.  A minimal complex c, one whose differential lies
in the radical, is the minimal presentation of its cokernel H^0(c) plus
shifted stalks P(v)[1]: c^0 is the projective cover of H^0(c).  So c is
decomposed by splitting the module H^0(c) (modules.decompose) and
presenting each summand (decompose_complex), and two minimal complexes
are isomorphic exactly when their vertex lists agree and their cokernels
are isomorphic (complexes_isomorphic).  Minimal presentations of modules
are isomorphic exactly when the modules are, so the summand classes of c
are the classes of the summands of H^0(c) (modules.iso_classes), plus
one class per stalk vertex (_classes).  The silting test,
transport to a pair and mutation all read the classes of one such split
(silting_classes).  All of these reject a complex that is not minimal.
An item of the enumeration's registry, whose endomorphism ring is local,
is compared with another complex by the top-trace pairing
(isomorphic_by_top_trace): one product of the top actions of the chain
maps each way.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from .errors import NotSelfinjectiveError, TheoremViolationError
from .modules import (
    Rep,
    _pairing_matrix,
    are_isomorphic,
    decompose,
    iso_classes,
    minimal_presentation,
    present_by_table,
    presented_module,
)
from .translate import nu_element, selfinjective_data


class TwoTermComplex:
    """A complex of projectives in degrees -1 and 0.

    deg1 and deg0 are the summand vertex tuples in degrees -1 and 0; d is
    the differential element matrix of shape (len(deg0), len(deg1), dim),
    read-only, so the tables built from it stay valid.
    """

    def __init__(self, algebra, deg1, deg0, d, check: bool = True):
        self.algebra = algebra
        self.deg1 = tuple(int(v) for v in deg1)
        self.deg0 = tuple(int(v) for v in deg0)
        d = algebra.field.reduce(d) if d is not None else np.zeros(
            (len(self.deg0), len(self.deg1), algebra.dim), dtype=np.int64)
        if d.shape != (len(self.deg0), len(self.deg1), algebra.dim):
            raise ValueError(f"differential shape {d.shape} is wrong")
        d.flags.writeable = False
        self.d = d
        if check:
            bad = np.argwhere(d.astype(bool)
                              & ~algebra.slice_mask(self.deg0, self.deg1))
            if len(bad):
                r, c = int(bad[0][0]), int(bad[0][1])
                raise ValueError(f"entry ({r}, {c}) leaves "
                                 f"e_{self.deg0[r]} A e_{self.deg1[c]}")

    def __repr__(self):
        return f"TwoTermComplex(deg1={list(self.deg1)}, deg0={list(self.deg0)})"

    def is_zero(self) -> bool:
        return not self.deg1 and not self.deg0

    @cached_property
    def left_table(self) -> np.ndarray:
        """algebra.left_table(d), built once and kept read-only."""
        t = self.algebra.left_table(self.d)
        t.flags.writeable = False
        return t

    @cached_property
    def right_table(self) -> np.ndarray:
        """algebra.right_table(d), built once and kept read-only."""
        t = self.algebra.right_table(self.d)
        t.flags.writeable = False
        return t

    def h0(self) -> Rep:
        """The cokernel of the differential, the module the complex
        presents (modules.presented_module), from the kept left_table."""
        if not self.d.any():
            return presented_module(self.algebra, self.deg1, self.deg0,
                                    self.d)
        return present_by_table(self.algebra, self.deg1, self.deg0,
                                self.left_table)


def projective_stalk(algebra, verts, shifted: bool = False) -> TwoTermComplex:
    """Sum of projectives as a stalk complex, in degree -1 if shifted."""
    verts = list(verts)
    if shifted:
        return TwoTermComplex(algebra, verts, [], None, check=False)
    return TwoTermComplex(algebra, [], verts, None, check=False)


def presentation_complex(m: Rep) -> TwoTermComplex:
    """Minimal projective presentation of a module, as a complex."""
    verts1, verts0, e = minimal_presentation(m)
    return TwoTermComplex(m.algebra, verts1, verts0, e, check=False)


def sum_complexes(complexes: list) -> TwoTermComplex:
    algebra = complexes[0].algebra
    deg1 = [v for c in complexes for v in c.deg1]
    deg0 = [v for c in complexes for v in c.deg0]
    d = np.zeros((len(deg0), len(deg1), algebra.dim), dtype=np.int64)
    r0 = c0 = 0
    for c in complexes:
        d[r0:r0 + len(c.deg0), c0:c0 + len(c.deg1)] = c.d
        r0 += len(c.deg0)
        c0 += len(c.deg1)
    return TwoTermComplex(algebra, deg1, deg0, d, check=False)


# -- hom spaces in the homotopy category -------------------------------------


class _Space:
    """Coordinates of element matrices of shape (len(tverts), len(sverts),
    dim) whose entry (r, c) lies in e_{tverts[r]} A e_{sverts[c]}: the n-th
    coordinate is basis word basis[n] of entry (rows[n], cols[n]), in
    row-major order.  Built through _space, once per algebra and pair of
    vertex tuples."""

    def __init__(self, algebra, tverts, sverts):
        self.shape = (len(tverts), len(sverts), algebra.dim)
        self.rows, self.cols, self.basis = np.nonzero(
            algebra.slice_mask(tverts, sverts))
        for a in (self.rows, self.cols, self.basis):
            a.flags.writeable = False
        self.total = len(self.basis)

    def flatten(self, e) -> np.ndarray:
        return e[self.rows, self.cols, self.basis]

    def unflatten(self, vec) -> np.ndarray:
        e = np.zeros(self.shape, dtype=np.int64)
        e[self.rows, self.cols, self.basis] = vec
        return e


def _space(algebra, tverts, sverts) -> _Space:
    """The _Space of (tverts, sverts), kept in algebra._cache."""
    cache = algebra._cache.setdefault("spaces", {})
    key = (tuple(tverts), tuple(sverts))
    if key not in cache:
        cache[key] = _Space(algebra, tverts, sverts)
    return cache[key]


def _left_op(t, xsp: _Space, osp: _Space) -> np.ndarray:
    """Matrix of X -> a . X from xsp to osp coordinates, one row per input
    coordinate, where t = left_table(a): t[r, k, j, m] is the coefficient
    of word m in a[r, k] * word j."""
    same_col = xsp.cols[:, None] == osp.cols
    return t[osp.rows, xsp.rows[:, None], xsp.basis[:, None], osp.basis] * same_col


def _right_op(t, xsp: _Space, osp: _Space) -> np.ndarray:
    """Matrix of X -> X . b from xsp to osp coordinates, one row per input
    coordinate, where t = right_table(b): t[k, c, i, m] is the coefficient
    of word m in word i * b[k, c]."""
    same_row = xsp.rows[:, None] == osp.rows
    return t[xsp.cols[:, None], osp.cols, xsp.basis[:, None], osp.basis] * same_row


def _chain_map_data(p: TwoTermComplex, q: TwoTermComplex):
    """Kernel basis of the chain-map condition and the homotopy images, as
    rows in the joint (F1, F0) coordinate space."""
    alg = p.algebra
    field = alg.field
    f1 = _space(alg, q.deg1, p.deg1)
    f0 = _space(alg, q.deg0, p.deg0)
    out = _space(alg, q.deg0, p.deg1)
    hsp = _space(alg, q.deg1, p.deg0)
    cons = np.vstack([_left_op(q.left_table, f1, out),
                      (-_right_op(p.right_table, f0, out)) % field.p])
    maps = field.left_kernel_basis(cons)
    himg = np.hstack([_right_op(p.right_table, hsp, f1),
                      _left_op(q.left_table, hsp, f0)])
    return f1, f0, maps, himg


def hom_dim(p: TwoTermComplex, q: TwoTermComplex, shift: int = 0) -> int:
    """Dimension of Hom(p, q[shift]) in the homotopy category."""
    alg = p.algebra
    field = alg.field
    if abs(shift) >= 2:
        return 0
    if shift == 0:
        _, _, maps, himg = _chain_map_data(p, q)
        return len(maps) - field.rank(himg)
    if shift == 1:
        fsp = _space(alg, q.deg0, p.deg1)
        img = np.vstack([
            _right_op(p.right_table, _space(alg, q.deg0, p.deg0), fsp),
            _left_op(q.left_table, _space(alg, q.deg1, p.deg1), fsp),
        ])
        return fsp.total - field.rank(img)
    gsp = _space(alg, q.deg1, p.deg0)
    cons = np.hstack([
        _right_op(p.right_table, gsp, _space(alg, q.deg1, p.deg1)),
        _left_op(q.left_table, gsp, _space(alg, q.deg0, p.deg0)),
    ])
    return gsp.total - field.rank(cons)


def chain_maps_mod_homotopy(p: TwoTermComplex, q: TwoTermComplex,
                            modulo=()) -> list:
    """Representatives of a basis of Hom(p, q) modulo homotopy and the span
    of the chain maps in modulo, as pairs of element matrices (f1, f0).
    Reading the homotopy images, then modulo, then the chain-map basis as
    columns, the representatives are the chain maps whose columns are
    pivots of one row reduction."""
    field = p.algebra.field
    f1, f0, maps, himg = _chain_map_data(p, q)
    fixed = np.vstack([himg] + [
        np.concatenate([f1.flatten(g1), f0.flatten(g0)])[None]
        for g1, g0 in modulo])
    _, pivots = field.rref(np.vstack([fixed, maps]).T)
    picked = [maps[c - len(fixed)] for c in pivots if c >= len(fixed)]
    return [(f1.unflatten(vec[:f1.total]), f0.unflatten(vec[f1.total:]))
            for vec in picked]


def _tops(alg, verts, f) -> np.ndarray:
    """Trivial-path coefficients of an element matrix f whose rows lie
    over the vertices verts: the image of f under A -> A/rad A, whose entry
    (r, s) is zero unless both ends are one vertex.  This is a ring
    homomorphism, so it takes products of element matrices to products of
    scalar matrices."""
    triv = np.array([alg.trivial_index(v) for v in verts], dtype=np.intp)
    return f[np.arange(len(verts))[:, None], np.arange(f.shape[1]),
             triv[:, None]]


def top_action(c: TwoTermComplex, f1, f0) -> np.ndarray:
    """Matrix of a chain map (f1, f0) from c to itself on the top of
    c^{-1} + c^0: entry (r, s) of each diagonal block is the trivial-path
    coefficient of entry (r, s) of f1 or f0.  A minimal complex has its
    differential in the radical, so null-homotopic maps act as zero and
    this is a ring homomorphism on End_K(c)."""
    n1 = len(c.deg1)
    out = np.zeros((n1 + len(c.deg0),) * 2, dtype=np.int64)
    out[:n1, :n1] = _tops(c.algebra, c.deg1, f1)
    out[n1:, n1:] = _tops(c.algebra, c.deg0, f0)
    return out


def top_trace(c: TwoTermComplex, f1, f0) -> int:
    """Trace of top_action.  When End_K(c) is local with residue field the
    ground field, this is a nonzero multiple of the residue map, so its
    kernel is the radical."""
    return int(np.trace(top_action(c, f1, f0))) % c.algebra.field.p


# -- minimality ---------------------------------------------------------------


def eliminate_units(algebra, verts: list, ds: list) -> tuple:
    """Minimalise a complex of projectives by Gaussian elimination.

    verts lists the summand vertices of each degree and ds[k] is the
    element matrix of the differential from degree k to degree k + 1.
    While some differential has a unit entry between equal vertices (first
    differential, then row, then column), take the Schur complement on it
    and drop the matching row of the previous differential and column of
    the next one; the complex then has no unit entries left.  Returns new
    (verts, ds).
    """
    field = algebra.field
    verts = [list(v) for v in verts]
    ds = [field.reduce(d) for d in ds]
    for da, db in zip(ds, ds[1:]):
        if algebra.element_matmul(db, da).any():
            raise AssertionError("differentials do not compose to zero")
    while True:
        pivot = next(((k, r, c) for k, d in enumerate(ds)
                      for r, tv in enumerate(verts[k + 1])
                      for c, sv in enumerate(verts[k])
                      if tv == sv and algebra.is_local_unit(d[r, c], tv)), None)
        if pivot is None:
            return verts, ds
        k, r, c = pivot
        d = ds[k]
        uinv = algebra.local_inverse(d[r, c], verts[k + 1][r])
        mu = algebra.element_matmul(d[:, c:c + 1], uinv.reshape(1, 1, -1))
        d = (d - algebra.element_matmul(mu, d[r:r + 1])) % field.p
        ds[k] = np.delete(np.delete(d, r, axis=0), c, axis=1)
        if k > 0:
            ds[k - 1] = np.delete(ds[k - 1], c, axis=0)
        if k + 1 < len(ds):
            ds[k + 1] = np.delete(ds[k + 1], r, axis=1)
        del verts[k][c], verts[k + 1][r]


def minimalize(c: TwoTermComplex) -> TwoTermComplex:
    """Strip contractible summands by unit elimination."""
    (deg1, deg0), (d,) = eliminate_units(c.algebra, [c.deg1, c.deg0], [c.d])
    return TwoTermComplex(c.algebra, deg1, deg0, d, check=False)


# -- decomposition through the cokernel --------------------------------------


def _require_minimal(c: TwoTermComplex) -> None:
    """Raise ValueError when some entry of the differential between equal
    vertices is a unit, that is, when c has a contractible summand."""
    alg = c.algebra
    for r, tv in enumerate(c.deg0):
        for k, sv in enumerate(c.deg1):
            if tv == sv and alg.is_local_unit(c.d[r, k], tv):
                raise ValueError(
                    f"entry ({r}, {k}) of the differential is a unit, so the "
                    "complex is not minimal: strip its contractible summands "
                    "with minimalize first")


def _split_through_h0(c: TwoTermComplex) -> tuple:
    """(parts, presentations, stalks) for a minimal complex c: the
    indecomposable summands of H^0(c) with repetition (modules.decompose),
    the minimal presentation of each, and the vertices v of the shifted
    stalks P(v)[1] that c has besides.  As the differential of c lies in
    the radical, c^0 is the projective cover of H^0(c), so c is the sum
    of the presentations and the stalks, and the stalk vertices are what
    the presentations leave of c.deg1."""
    _require_minimal(c)
    parts = decompose(c.h0())
    presentations = [presentation_complex(m) for m in parts]
    stalks = Counter(c.deg1)
    stalks.subtract(v for x in presentations for v in x.deg1)
    if any(k < 0 for k in stalks.values()):
        raise AssertionError(
            "the presentations of the cokernel's summands outgrow the "
            "complex in degree -1")
    return parts, presentations, sorted(stalks.elements())


def decompose_complex(c: TwoTermComplex) -> list:
    """Indecomposable direct summands of a minimal complex, with
    repetition: the minimal presentations of the summands of its cokernel,
    then its shifted stalks (_split_through_h0).  Raises ValueError when c
    is not minimal."""
    _, presentations, stalks = _split_through_h0(c)
    return presentations + [projective_stalk(c.algebra, [v], shifted=True)
                            for v in stalks]


def isomorphic_by_top_trace(x: TwoTermComplex, y: TwoTermComplex) -> bool:
    """Isomorphism in the homotopy category of minimal complexes x and y,
    where End_K(x) is local with residue field the ground field, by the
    top-trace pairing: whether tr T(g f) != 0 for some basis maps f in
    Hom_K(x, y) and g in Hom_K(y, x) (chain_maps_mod_homotopy), with T the
    top_action on x.

    Why this is exact.  T is a ring homomorphism on End_K(x) and sends the
    radical to nilpotent matrices, so tr T(l 1 + r) = l N with
    N = |x.deg1| + |x.deg0|.  For x an item of the enumeration's registry
    (mutation.ComplexRegistry), N is nonzero in F_p: a stalk has N = 1,
    and otherwise the rank-one test of mutation.require_local, which x
    passed or which the complex it is a Nakayama image of passed, fails
    when p divides N.

    So the pairing is nonzero at some g f exactly when some g f is a unit,
    that is, when x is a direct summand of y.  The pairing is bilinear, so
    it suffices to try pairs of basis maps.  A summand of the minimal
    complex y is minimal, and minimal complexes are homotopy equivalent
    exactly when they are isomorphic, so when y has the vertex lists of x
    it has no other summand.  T(g f) is the product of the trivial-path
    coefficient matrices of g and f, so the whole pairing is one product
    (modules._pairing_matrix)."""
    if sorted(x.deg1) != sorted(y.deg1) or sorted(x.deg0) != sorted(y.deg0):
        return False
    alg = x.algebra
    fs = [{-1: _tops(alg, y.deg1, f1), 0: _tops(alg, y.deg0, f0)}
          for f1, f0 in chain_maps_mod_homotopy(x, y)]
    gs = [{-1: _tops(alg, x.deg1, g1), 0: _tops(alg, x.deg0, g0)}
          for g1, g0 in chain_maps_mod_homotopy(y, x)]
    return bool(_pairing_matrix(fs, gs, alg.field).any())


def _classes(c: TwoTermComplex) -> list:
    """(cokernel, summand, multiplicity) per isomorphism class of the
    indecomposable summands of a minimal complex c, from one split of
    H^0(c) (_split_through_h0): the classes of the cokernel's summands in
    the order of their first appearance, each with the presentation of its
    first member, then one class per stalk vertex in vertex order, with
    cokernel None."""
    parts, presentations, stalks = _split_through_h0(c)
    modules, mults = iso_classes(parts)
    out = [(m, presentations[parts.index(m)], k)
           for m, k in zip(modules, mults)]
    return out + [(None, projective_stalk(c.algebra, [v], shifted=True), k)
                  for v, k in sorted(Counter(stalks).items())]


def complexes_isomorphic(p: TwoTermComplex, q: TwoTermComplex) -> bool:
    """Isomorphism in the homotopy category.  Both inputs must be minimal,
    which enumeration and minimalize guarantee, or ValueError is raised.
    A minimal complex is the presentation of its cokernel plus shifted
    stalks (_split_through_h0), so two of them are isomorphic exactly when
    they have the same vertex lists and isomorphic cokernels."""
    _require_minimal(p)
    _require_minimal(q)
    if sorted(p.deg1) != sorted(q.deg1) or sorted(p.deg0) != sorted(q.deg0):
        return False
    return are_isomorphic(p.h0(), q.h0())


# -- the Nakayama functor on complexes ----------------------------------------


def nu_complex(c: TwoTermComplex) -> TwoTermComplex:
    """Apply the Nakayama functor: permute summand vertices and transport
    each differential entry through the twisted automorphism."""
    alg = c.algebra
    perm, _ = selfinjective_data(alg)
    return TwoTermComplex(alg, [perm[v] for v in c.deg1],
                          [perm[v] for v in c.deg0], nu_element(alg, c.d),
                          check=False)


# -- silting and tilting -------------------------------------------------------


def is_two_term_presilting(c: TwoTermComplex) -> bool:
    return hom_dim(c, c, 1) == 0


def silting_classes(c: TwoTermComplex) -> list | None:
    """The summand classes of minimalize(c), as (cokernel, summand,
    multiplicity) (_classes), when c is two-term silting: presilting with
    as many classes as the algebra has vertices.  None otherwise.  Classes
    are counted on the minimal form so that contractible summands never
    inflate the count."""
    if not is_two_term_presilting(c):
        return None
    classes = _classes(minimalize(c))
    return classes if len(classes) == c.algebra.num_vertices else None


def is_two_term_silting(c: TwoTermComplex) -> bool:
    return silting_classes(c) is not None


def is_two_term_tilting(c: TwoTermComplex) -> bool:
    """Silting with no negative self-maps.  Over a selfinjective algebra
    this must agree with invariance under the Nakayama functor; the two
    routes are both computed and a mismatch is a hard error."""
    if not is_two_term_silting(c):
        return False
    answer = hom_dim(c, c, -1) == 0
    try:
        selfinjective_data(c.algebra)
    except NotSelfinjectiveError:
        return answer
    nu_route = complexes_isomorphic(minimalize(c), minimalize(nu_complex(c)))
    if nu_route != answer:
        raise TheoremViolationError(
            "negative-self-map and Nakayama-invariance routes disagree "
            "on a silting complex"
        )
    return answer
