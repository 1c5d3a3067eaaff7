"""Two-term complexes of projectives, hom spaces, and silting predicates.

A complex P^{-1} -> P^0 is stored as two vertex lists and a matrix of
algebra elements: entry (r, c) lies in e_{deg0[r]} A e_{deg1[c]} and is the
component from the c-th degree -1 summand to the r-th degree 0 summand, so
composition of maps is the ordinary matrix product over the algebra.

Hom spaces in the homotopy category are computed degreewise on element
matrices; each composition operator is read off the multiplication table
by one vectorised product and one gather.  A single unit-elimination
routine, eliminate_units, strips contractible summands both from two-term
complexes and from the three-term cones that mutation builds.

Minimal complexes are homotopy equivalent exactly when they are
isomorphic on the nose.  An indecomposable minimal complex with a local
endomorphism ring, such as every item of the enumeration's registry, is
compared with another complex by the top-trace pairing
(isomorphic_by_top_trace): one product of the top actions of the chain
maps each way.  Decomposition, and isomorphism of complexes that may
decompose, are delegated to the module layer: a two-term complex is the
same thing as a module over the triangular matrix algebra of A, of
dimension 3d, where both are plain module questions.  The walk never
builds that algebra; it serves only summand_classes (the silting
predicates and mutate_silting), complex_to_pair, the Nakayama route of
is_two_term_tilting and the cross-checks in the tests.
"""

from __future__ import annotations

import numpy as np

from .algebra import Arrow, Quiver, Relation, build_algebra
from .errors import (
    FieldTooSmallError,
    NotSelfinjectiveError,
    PrimeTooLargeError,
    TheoremViolationError,
)
from .modules import (
    Rep,
    RepMap,
    decompose,
    elements_to_repmap,
    minimal_presentation,
    projective_cover,
    quotient_rep,
    repmap_to_elements,
)
from .translate import nu_element, selfinjective_data


class TwoTermComplex:
    """A complex of projectives in degrees -1 and 0.

    deg1 and deg0 are the summand vertex tuples in degrees -1 and 0; d is
    the differential element matrix of shape (len(deg0), len(deg1), dim).
    """

    def __init__(self, algebra, deg1, deg0, d, check: bool = True):
        self.algebra = algebra
        self.deg1 = tuple(int(v) for v in deg1)
        self.deg0 = tuple(int(v) for v in deg0)
        d = algebra.field.reduce(d) if d is not None else np.zeros(
            (len(self.deg0), len(self.deg1), algebra.dim), dtype=np.int64)
        if d.shape != (len(self.deg0), len(self.deg1), algebra.dim):
            raise ValueError(f"differential shape {d.shape} is wrong")
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

    def expand(self) -> RepMap:
        """The differential as a map of actual projective modules."""
        return elements_to_repmap(self.algebra, list(self.deg1),
                                  list(self.deg0), self.d)

    def h0(self) -> Rep:
        f = self.expand()
        quo, _ = quotient_rep(f.tgt, {v: f.blocks[v] for v in f.blocks})
        return quo


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
    row-major order."""

    def __init__(self, algebra, tverts, sverts):
        self.shape = (len(tverts), len(sverts), algebra.dim)
        self.rows, self.cols, self.basis = np.nonzero(
            algebra.slice_mask(tverts, sverts))
        self.total = len(self.basis)

    def flatten(self, e) -> np.ndarray:
        return e[self.rows, self.cols, self.basis]

    def unflatten(self, vec) -> np.ndarray:
        e = np.zeros(self.shape, dtype=np.int64)
        e[self.rows, self.cols, self.basis] = vec
        return e


def _left_op(algebra, a, xsp: _Space, osp: _Space) -> np.ndarray:
    """Matrix of X -> a . X from xsp to osp coordinates, one row per input
    coordinate."""
    t = algebra.left_table(a)  # t[r, k, j, m]: word m in a[r, k] * word j
    same_col = xsp.cols[:, None] == osp.cols
    return t[osp.rows, xsp.rows[:, None], xsp.basis[:, None], osp.basis] * same_col


def _right_op(algebra, b, xsp: _Space, osp: _Space) -> np.ndarray:
    """Matrix of X -> X . b from xsp to osp coordinates, one row per input
    coordinate."""
    t = algebra.right_table(b)  # t[k, c, i, m]: word m in word i * b[k, c]
    same_row = xsp.rows[:, None] == osp.rows
    return t[xsp.cols[:, None], osp.cols, xsp.basis[:, None], osp.basis] * same_row


def _chain_map_data(p: TwoTermComplex, q: TwoTermComplex):
    """Kernel basis of the chain-map condition and the homotopy images, as
    rows in the joint (F1, F0) coordinate space."""
    alg = p.algebra
    field = alg.field
    f1 = _Space(alg, q.deg1, p.deg1)
    f0 = _Space(alg, q.deg0, p.deg0)
    out = _Space(alg, q.deg0, p.deg1)
    hsp = _Space(alg, q.deg1, p.deg0)
    cons = np.vstack([_left_op(alg, q.d, f1, out),
                      (-_right_op(alg, p.d, f0, out)) % field.p])
    maps = field.left_kernel_basis(cons)
    himg = np.hstack([_right_op(alg, p.d, hsp, f1), _left_op(alg, q.d, hsp, f0)])
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
        fsp = _Space(alg, q.deg0, p.deg1)
        img = np.vstack([
            _right_op(alg, p.d, _Space(alg, q.deg0, p.deg0), fsp),
            _left_op(alg, q.d, _Space(alg, q.deg1, p.deg1), fsp),
        ])
        return fsp.total - field.rank(img)
    gsp = _Space(alg, q.deg1, p.deg0)
    cons = np.hstack([
        _right_op(alg, p.d, gsp, _Space(alg, q.deg1, p.deg1)),
        _left_op(alg, q.d, gsp, _Space(alg, q.deg0, p.deg0)),
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


# -- complexes as modules over the triangular algebra -------------------------


def triangular_algebra(algebra):
    """The lower triangular matrix algebra of A, as a bound quiver algebra.
    Vertices 1..n are the degree -1 layer, n+1..2n the degree 0 layer, with
    a connecting arrow per vertex and commutation relations.  It has
    dimension 3d for A of dimension d, so the bounds on the prime are
    stated here in terms of d."""
    if "triangular" not in algebra._cache:
        d, p = algebra.dim, algebra.field.p
        if p <= 36 * d * d:
            raise FieldTooSmallError(
                f"p = {p} too small for two-term complexes over an algebra "
                f"of dimension {d}: need p > 36 * {d}^2 = {36 * d * d}")
        if algebra.field.max_terms < 3 * d:
            raise PrimeTooLargeError(
                f"p = {p} too large for two-term complexes over an algebra "
                f"of dimension {d}: need {3 * d} * (p-1)^2 + (p-1) < 2^63")
        n = algebra.num_vertices
        quiver = algebra.quiver
        arrows = []
        for a in quiver.arrows:
            arrows.append(Arrow(f"{a.name}@1", a.source, a.target))
        for a in quiver.arrows:
            arrows.append(Arrow(f"{a.name}@0", a.source + n, a.target + n))
        for v in range(1, n + 1):
            arrows.append(Arrow(f"@{v}", v, v + n))
        rels = []
        for src, tgt, _, terms in algebra.normalised_relations():
            for layer in ("1", "0"):
                rels.append(Relation(tuple(
                    (coeff, tuple(f"{quiver.arrows[ai].name}@{layer}"
                                  for ai in ids))
                    for coeff, ids in terms)))
        for a in quiver.arrows:
            rels.append(Relation((
                (1, (f"@{a.source}", f"{a.name}@0")),
                (-1, (f"{a.name}@1", f"@{a.target}")),
            )))
        tri = build_algebra(Quiver(2 * n, arrows), rels, algebra.field)
        if tri.dim != 3 * algebra.dim:
            raise AssertionError("triangular algebra has the wrong dimension")
        algebra._cache["triangular"] = tri
    return algebra._cache["triangular"]


def complex_to_module(c: TwoTermComplex) -> Rep:
    """A two-term complex as a module over the triangular algebra."""
    alg = c.algebra
    n = alg.num_vertices
    tri = triangular_algebra(alg)
    f = c.expand()
    dims = {}
    maps = {}
    for v in range(1, n + 1):
        dims[v] = f.src.dims[v]
        dims[v + n] = f.tgt.dims[v]
        maps[f"@{v}"] = f.blocks[v]
    for a in alg.quiver.arrows:
        maps[f"{a.name}@1"] = f.src.maps[a.name]
        maps[f"{a.name}@0"] = f.tgt.maps[a.name]
    return Rep(tri, dims, maps, check=False)


def _module_to_complex(algebra, s: Rep) -> TwoTermComplex:
    """Back from a triangular module whose layers are projective; the
    layers are re-coordinatised onto the path basis through their covers."""
    n = algebra.num_vertices
    layer1 = Rep(algebra, {v: s.dims[v] for v in range(1, n + 1)},
                 {a.name: s.maps[f"{a.name}@1"] for a in algebra.quiver.arrows},
                 check=False)
    layer0 = Rep(algebra, {v: s.dims[v + n] for v in range(1, n + 1)},
                 {a.name: s.maps[f"{a.name}@0"] for a in algebra.quiver.arrows},
                 check=False)
    conn = RepMap(layer1, layer0,
                  {v: s.maps[f"@{v}"] for v in range(1, n + 1)})
    _, cm1, verts1 = projective_cover(layer1)
    _, cm0, verts0 = projective_cover(layer0)
    if not (cm1.is_iso() and cm0.is_iso()):
        raise AssertionError("triangular summand has a non-projective layer")
    comp = cm1.compose(conn).compose(cm0.inverse())
    return TwoTermComplex(algebra, verts1, verts0,
                          repmap_to_elements(comp, verts1, verts0),
                          check=False)


def decompose_complex(c: TwoTermComplex, rng=None) -> list:
    """Indecomposable direct summands, with repetition."""
    if c.is_zero():
        return []
    return [_module_to_complex(c.algebra, s)
            for s in decompose(complex_to_module(c), rng)]


def complexes_isomorphic(p: TwoTermComplex, q: TwoTermComplex) -> bool:
    """Isomorphism in the homotopy category.  Both inputs must be minimal,
    which enumeration and minimalize guarantee; minimal complexes are
    homotopy equivalent exactly when the triangular modules match."""
    if sorted(p.deg1) != sorted(q.deg1) or sorted(p.deg0) != sorted(q.deg0):
        return False
    from .modules import are_isomorphic

    return are_isomorphic(complex_to_module(p), complex_to_module(q))


def isomorphic_by_top_trace(x: TwoTermComplex, y: TwoTermComplex) -> bool:
    """Isomorphism in the homotopy category of minimal complexes x and y,
    where End_K(x) is local with residue field the ground field, by the
    top-trace pairing: whether tr T(g f) != 0 for some basis maps f in
    Hom_K(x, y) and g in Hom_K(y, x) (chain_maps_mod_homotopy), with T the
    top_action on x.

    Why this is exact.  T is a ring homomorphism on End_K(x) and sends the
    radical to nilpotent matrices, so tr T(l 1 + r) = l N with
    N = |x.deg1| + |x.deg0|.  N is nonzero in F_p: a stalk has N = 1, and
    otherwise the rank-one test of mutation.require_local, which x passed
    or which the complex it is a Nakayama image of passed, fails when p
    divides N.  So the pairing is nonzero at some g f exactly when some
    g f is a unit, that is, when x is a direct summand of y.  The pairing
    is bilinear, so it suffices to try pairs of basis maps.  A summand of
    the minimal complex y is minimal, and minimal complexes are homotopy
    equivalent exactly when they are isomorphic, so when y has the vertex
    lists of x it has no other summand.  T(g f) is the product of the
    trivial-path coefficient matrices of g and f, so the whole pairing is
    one matrix product."""
    if sorted(x.deg1) != sorted(y.deg1) or sorted(x.deg0) != sorted(y.deg0):
        return False
    alg = x.algebra
    fs = [np.concatenate([_tops(alg, y.deg1, f1).ravel(),
                          _tops(alg, y.deg0, f0).ravel()])
          for f1, f0 in chain_maps_mod_homotopy(x, y)]
    gs = [np.concatenate([_tops(alg, x.deg1, g1).T.ravel(),
                          _tops(alg, x.deg0, g0).T.ravel()])
          for g1, g0 in chain_maps_mod_homotopy(y, x)]
    if not fs or not gs:
        return False
    return bool(alg.field.matmul(np.array(fs), np.array(gs).T).any())


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


def summand_classes(c: TwoTermComplex, rng=None) -> list:
    """Indecomposable summands grouped up to isomorphism:
    a list of (representative, multiplicity)."""
    classes = []
    for s in decompose_complex(c, rng):
        for k, (rep, mult) in enumerate(classes):
            if complexes_isomorphic(s, rep):
                classes[k] = (rep, mult + 1)
                break
        else:
            classes.append((s, 1))
    return classes


def is_two_term_presilting(c: TwoTermComplex) -> bool:
    return hom_dim(c, c, 1) == 0


def is_two_term_silting(c: TwoTermComplex, rng=None) -> bool:
    """Presilting with as many indecomposable summand classes as the
    algebra has vertices.  Classes are counted on the minimal form so that
    contractible summands never inflate the count."""
    if not is_two_term_presilting(c):
        return False
    return len(summand_classes(minimalize(c), rng)) == c.algebra.num_vertices


def is_two_term_tilting(c: TwoTermComplex, rng=None) -> bool:
    """Silting with no negative self-maps.  Over a selfinjective algebra
    this must agree with invariance under the Nakayama functor; the two
    routes are both computed and a mismatch is a hard error."""
    if not is_two_term_silting(c, rng):
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
