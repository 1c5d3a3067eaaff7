"""Independent computation routes used to freeze expected values.

Everything here deliberately avoids the code path it checks: hom
dimensions come from a loop-assembled linear system with its own row
reduction, translates come from the syzygy route, the preprojective
indecomposable list comes from translate-closure of a seed rather than
from any enumeration walk, complex homs build every operator from the
full multiplication table on each call rather than reading kept tables,
mutation goes through the universal approximation and decomposition
rather than the minimal approximation, complexes are decomposed and
compared as modules over the triangular matrix algebra rather than
through their cokernels, modules are split by idempotents
from a factorised minimal polynomial (sympy) rather than by Fitting's
lemma, the stable pairs come from filtering the whole silting walk, or
from walking every node around each stable node, rather than from the
orbit mutations of the walk over stable nodes, an orbit mutation mutates
every item of the orbit rather than one carried round by the Nakayama
functor, the support
tau-minus-tilting modules come from a second walk over the opposite
algebra rather than by counting, support tau-minus-tilting is tested
through dual pairs over the opposite algebra rather than by tau-minus,
the opposite algebra is built again
from the reversed relations rather than relabelled, minimal
presentations come from a second projective cover rather than from the
syzygy's top, decompose's draws come from one generator built before
the first split rather than at the first draw, and a map of projective
sums given by an element matrix is
realised one entry, one vertex and one pair of slices at a time
(elements_to_repmap) rather than presented by one gather
(modules.presented_module), and products come from a dense table built
one pair of basis words at a time (dense_table) rather than from the
algebra's nonzero structure constants.  ext1_dim, is_nu_stable_module,
the module-map helpers (repmap_compose and the rest), submodule_generated,
top, radical, socle_rows, summand_classes and the torsion-class route
(fac_contains, fac_equal, nu_stable_torsion_check) are not oracles but
helpers that only the tests call.
"""

from __future__ import annotations

import weakref

import numpy as np

from tautilt.algebra import (
    Arrow,
    Quiver,
    RadicalPower,
    Relation,
    build_algebra,
)
from tautilt.complexes import TwoTermComplex, _classes
from tautilt.errors import (
    FieldTooSmallError,
    PrimeTooLargeError,
    TheoremViolationError,
)
from tautilt.modules import (
    Rep,
    RepMap,
    _is_local,
    are_isomorphic,
    decompose,
    direct_sum,
    dual,
    hom_basis,
    injective,
    minimal_presentation,
    projective,
    projective_cover,
    projective_sum,
    quotient_rep,
    radical_rows,
    simple,
    sub_rep,
    summand_rows,
    syzygy,
)
from tautilt.mutation import (
    find_completion,
    mutate_summand,
    nu_orbits,
    start_walk,
)
from tautilt.pairs import (
    PairEnumeration,
    STPair,
    SummandTables,
    _nu_stable_enumeration,
    enumerate_support_tau_tilting,
    is_nu_stable_pair,
    is_support_tau_tilting_pair,
    make_pair,
)
from tautilt.translate import (
    nakayama_permutation,
    nu_module,
    selfinjective_data,
    tau,
    tau_minus,
)


# -- self-contained linear algebra ----------------------------------------------


def gauss_rref(rows: list, ncols: int, p: int) -> tuple:
    """Reduced row echelon form written from scratch: no numpy vector
    tricks, no shared code with the field layer.  rows is a list of
    integer rows of length ncols, entries taken mod p.  Returns (rows of
    the form as lists of ints, pivot columns of its nonzero rows)."""
    mat = [list(int(x) % p for x in row) for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def gauss_rank(rows: list, p: int) -> int:
    """Rank by gauss_rref."""
    return len(gauss_rref(rows, len(rows[0]) if rows else 0, p)[1])


def largest_exact_prime(dim: int) -> int:
    """Largest prime p with dim * (p-1)^2 + (p-1) < 2^63: the largest
    coefficient prime the package accepts for an algebra of dimension dim,
    worked out in Python integers."""
    from math import isqrt

    from sympy import prevprime

    limit = 2**63 - 1
    p = prevprime(isqrt(limit // dim) + 2)
    while dim * (p - 1) ** 2 + (p - 1) > limit:
        p = prevprime(p)
    return p


_DENSE_TABLES = weakref.WeakKeyDictionary()


def dense_table(alg) -> np.ndarray:
    """The structure constants as a dense (dim, dim, dim) array: t[u, v] is
    the canonical form of word u * word v, read off the word list, one
    pair of basis words at a time.  Built once per algebra."""
    if alg not in _DENSE_TABLES:
        d = alg.dim
        t = np.zeros((d, d, d), dtype=np.int64)
        for u, (usrc, uarr) in enumerate(alg.basis_words):
            utgt = alg.target_of(u)
            for v, (vsrc, varr) in enumerate(alg.basis_words):
                if vsrc != utgt:
                    continue
                if len(uarr) + len(varr) >= alg.level:
                    continue
                t[u, v] = alg._canon[alg._word_index[(usrc, uarr + varr)]]
        t.flags.writeable = False
        _DENSE_TABLES[alg] = t
    return _DENSE_TABLES[alg]


def brute_hom_dim(m: Rep, n: Rep) -> int:
    """Dimension of Hom(m, n) by writing out every linear condition
    entry by entry."""
    alg = m.algebra
    p = alg.field.p
    verts = sorted(m.dims)
    offset = {}
    pos = 0
    for v in verts:
        offset[v] = pos
        pos += m.dims[v] * n.dims[v]
    total = pos
    if total == 0:
        return 0

    def var(v, i, j):
        return offset[v] + i * n.dims[v] + j

    rows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        ma, na = m.maps[a.name], n.maps[a.name]
        # condition: sum_k f_s[i,k] na[k,j] - sum_k ma[i,k] f_t[k,j] = 0
        for i in range(m.dims[s]):
            for j in range(n.dims[t]):
                row = [0] * total
                for k in range(n.dims[s]):
                    row[var(s, i, k)] = (row[var(s, i, k)] + int(na[k, j])) % p
                for k in range(m.dims[t]):
                    row[var(t, k, j)] = (row[var(t, k, j)] - int(ma[i, k])) % p
                rows.append(row)
    if not rows:
        return total
    return total - gauss_rank(rows, p)


def loop_pairing_matrix(fs: list, gs: list, field) -> np.ndarray:
    """Traces of composites f then g, for per-vertex block families
    f: M -> N and g: N -> M, one trace of one block product at a time."""
    out = field.zeros(len(fs), len(gs))
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            t = 0
            for v in f:
                t += int(np.trace(field.matmul(f[v], g[v])))
            out[i, j] = t % field.p
    return out


# -- complex hom oracle -----------------------------------------------------------


def _entry_product(alg, x, y) -> list:
    """Product of two algebra elements, term by term over the table."""
    out = [0] * alg.dim
    table = dense_table(alg)
    for i in np.nonzero(x)[0]:
        for j in np.nonzero(y)[0]:
            for m in np.nonzero(table[i, j])[0]:
                out[m] += int(x[i]) * int(y[j]) * int(table[i, j, m])
    return out


def brute_complex_hom_dim(p, q, shift: int = 0) -> int:
    """Dimension of Hom(p, q[shift]) in the homotopy category of two-term
    complexes, by pushing every coordinate unit through the chain-map and
    homotopy conditions one entry at a time."""
    alg = p.algebra
    prime = alg.field.p
    if abs(shift) >= 2:
        return 0

    def space(tverts, sverts):
        return [(r, c, k) for r, tv in enumerate(tverts)
                for c, sv in enumerate(sverts)
                for k in alg.slice_indices(tv, sv)]

    def product(a, b):
        out = [[[0] * alg.dim for _ in range(b.shape[1])]
               for _ in range(a.shape[0])]
        for r in range(a.shape[0]):
            for c in range(b.shape[1]):
                for k in range(a.shape[1]):
                    for m, v in enumerate(_entry_product(alg, a[r, k], b[k, c])):
                        out[r][c][m] += v
        return out

    def images(tverts, sverts, maps):
        """One row per unit of space(tverts, sverts): the images under each
        (map, target space) in maps, concatenated."""
        rows = []
        for r, c, k in space(tverts, sverts):
            unit = np.zeros((len(tverts), len(sverts), alg.dim), dtype=np.int64)
            unit[r, c, k] = 1
            row = []
            for fn, target in maps:
                img = fn(unit)
                row += [img[i][j][m] % prime for i, j, m in target]
            rows.append(row)
        return rows

    def left(a):
        return lambda x: product(a, x)

    def right(b):
        return lambda x: product(x, b)

    def neg(fn):
        return lambda x: [[[-v for v in e] for e in row] for row in fn(x)]

    if shift == 1:
        target = space(q.deg0, p.deg1)
        rows = (images(q.deg0, p.deg0, [(right(p.d), target)])
                + images(q.deg1, p.deg1, [(left(q.d), target)]))
        return len(target) - gauss_rank(rows, prime)
    if shift == -1:
        rows = images(q.deg1, p.deg0, [(right(p.d), space(q.deg1, p.deg1)),
                                       (left(q.d), space(q.deg0, p.deg0))])
        return len(space(q.deg1, p.deg0)) - gauss_rank(rows, prime)
    out = space(q.deg0, p.deg1)
    cond = (images(q.deg1, p.deg1, [(left(q.d), out)])
            + images(q.deg0, p.deg0, [(neg(right(p.d)), out)]))
    chain_maps = len(cond) - gauss_rank(cond, prime)
    homotopies = images(q.deg1, p.deg0, [(right(p.d), space(q.deg1, p.deg1)),
                                         (left(q.d), space(q.deg0, p.deg0))])
    return chain_maps - gauss_rank(homotopies, prime)


# -- the per-call route for complex homs ----------------------------------------
#
# The package keeps the multiplication tables of each differential on its
# complex and the coordinate spaces on the algebra.  This is the route it
# replaced, kept as it was: every operator is built from the full
# multiplication table on every call.


def percall_left_table(alg, a):
    """t[..., j, m]: the coefficient of basis word m in a[...] * word j."""
    d = alg.dim
    a = alg.field.reduce(a)
    flat = alg.field.matmul(a.reshape(-1, d), dense_table(alg).reshape(d, d * d))
    return flat.reshape(a.shape[:-1] + (d, d))


def percall_right_table(alg, b):
    """t[..., i, m]: the coefficient of basis word m in word i * b[...]."""
    d = alg.dim
    table = np.ascontiguousarray(dense_table(alg).transpose(1, 0, 2)).reshape(
        d, d * d)
    b = alg.field.reduce(b)
    flat = alg.field.matmul(b.reshape(-1, d), table)
    return flat.reshape(b.shape[:-1] + (d, d))


class PercallSpace:
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


def _percall_left_op(algebra, a, xsp, osp) -> np.ndarray:
    t = percall_left_table(algebra, a)
    same_col = xsp.cols[:, None] == osp.cols
    return t[osp.rows, xsp.rows[:, None], xsp.basis[:, None], osp.basis] * same_col


def _percall_right_op(algebra, b, xsp, osp) -> np.ndarray:
    t = percall_right_table(algebra, b)
    same_row = xsp.rows[:, None] == osp.rows
    return t[xsp.cols[:, None], osp.cols, xsp.basis[:, None], osp.basis] * same_row


def _percall_chain_map_data(p, q):
    alg = p.algebra
    field = alg.field
    f1 = PercallSpace(alg, q.deg1, p.deg1)
    f0 = PercallSpace(alg, q.deg0, p.deg0)
    out = PercallSpace(alg, q.deg0, p.deg1)
    hsp = PercallSpace(alg, q.deg1, p.deg0)
    cons = np.vstack([_percall_left_op(alg, q.d, f1, out),
                      (-_percall_right_op(alg, p.d, f0, out)) % field.p])
    maps = field.left_kernel_basis(cons)
    himg = np.hstack([_percall_right_op(alg, p.d, hsp, f1),
                      _percall_left_op(alg, q.d, hsp, f0)])
    return f1, f0, maps, himg


def percall_hom_dim(p, q, shift: int = 0) -> int:
    """Dimension of Hom(p, q[shift]) in the homotopy category, with every
    operator built on this call."""
    alg = p.algebra
    field = alg.field
    if abs(shift) >= 2:
        return 0
    if shift == 0:
        _, _, maps, himg = _percall_chain_map_data(p, q)
        return len(maps) - field.rank(himg)
    if shift == 1:
        fsp = PercallSpace(alg, q.deg0, p.deg1)
        img = np.vstack([
            _percall_right_op(alg, p.d, PercallSpace(alg, q.deg0, p.deg0), fsp),
            _percall_left_op(alg, q.d, PercallSpace(alg, q.deg1, p.deg1), fsp),
        ])
        return fsp.total - field.rank(img)
    gsp = PercallSpace(alg, q.deg1, p.deg0)
    cons = np.hstack([
        _percall_right_op(alg, p.d, gsp, PercallSpace(alg, q.deg1, p.deg1)),
        _percall_left_op(alg, q.d, gsp, PercallSpace(alg, q.deg0, p.deg0)),
    ])
    return gsp.total - field.rank(cons)


def percall_chain_maps_mod_homotopy(p, q, modulo=()) -> list:
    """complexes.chain_maps_mod_homotopy with every operator built on this
    call."""
    field = p.algebra.field
    f1, f0, maps, himg = _percall_chain_map_data(p, q)
    fixed = np.vstack([himg] + [
        np.concatenate([f1.flatten(g1), f0.flatten(g0)])[None]
        for g1, g0 in modulo])
    _, pivots = field.rref(np.vstack([fixed, maps]).T)
    picked = [maps[c - len(fixed)] for c in pivots if c >= len(fixed)]
    return [(f1.unflatten(vec[:f1.total]), f0.unflatten(vec[f1.total:]))
            for vec in picked]


def percall_element_matmul(alg, a, b) -> np.ndarray:
    """Product of element matrices through a table built on this call."""
    (r, k, d), c = a.shape, b.shape[1]
    left = percall_left_table(alg, a).transpose(0, 3, 1, 2).reshape(r * d, k * d)
    right = alg.field.reduce(b).transpose(0, 2, 1).reshape(k * d, c)
    return alg.field.matmul(left, right).reshape(r, d, c).transpose(0, 2, 1)


# -- module maps, submodules and tops -------------------------------------------


def repmap_compose(f: RepMap, g: RepMap) -> RepMap:
    """f followed by g.  The middle objects may be distinct instances as
    long as they are equal on the nose."""
    mid, src = f.tgt, g.src
    if src is not mid:
        if src.algebra is not mid.algebra or src.dims != mid.dims or any(
                (src.maps[a.name] != mid.maps[a.name]).any()
                for a in src.algebra.quiver.arrows):
            raise ValueError("maps do not compose")
    field = f.src.algebra.field
    return RepMap(f.src, g.tgt, {v: field.matmul(f.blocks[v], g.blocks[v])
                                 for v in f.blocks})


def matrix_inverse(field, a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    # a @ x = 1 has a solution only when the square matrix a is invertible
    x = field.solve_right(a, field.identity(a.shape[0]))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def is_invertible(field, a: np.ndarray) -> bool:
    return a.shape[0] == a.shape[1] and field.rank(a) == a.shape[0]


def repmap_is_iso(f: RepMap) -> bool:
    field = f.src.algebra.field
    return all(is_invertible(field, b) for b in f.blocks.values())


def repmap_inverse(f: RepMap) -> RepMap:
    field = f.src.algebra.field
    return RepMap(f.tgt, f.src, {v: matrix_inverse(field, b)
                                 for v, b in f.blocks.items()})


def repmap_flatten(f: RepMap) -> np.ndarray:
    return np.concatenate(
        [f.blocks[v].ravel() for v in sorted(f.blocks)]
    ) if f.blocks else np.zeros(0, dtype=np.int64)


def submodule_generated(m: Rep, gens: list) -> dict:
    """Row spans, per vertex, of the submodule generated by the given
    (vertex, row vector) pairs."""
    field = m.algebra.field
    rows = {v: [] for v in m.dims}
    for v, row in gens:
        rows[v].append(field.reduce(row))
    spans = {v: field.row_space_basis(np.array(rows[v], dtype=np.int64))
             if rows[v] else field.zeros(0, m.dims[v]) for v in m.dims}
    changed = True
    while changed:
        changed = False
        for a in m.algebra.quiver.arrows:
            moved = field.matmul(spans[a.source], m.maps[a.name])
            stacked = np.vstack([spans[a.target], moved])
            nb = field.row_space_basis(stacked)
            if nb.shape[0] != spans[a.target].shape[0]:
                spans[a.target] = nb
                changed = True
    return spans


def radical(m: Rep) -> tuple:
    return sub_rep(m, radical_rows(m))


def top(m: Rep) -> tuple:
    """(top, projection m -> top)."""
    return quotient_rep(m, radical_rows(m))


def socle_rows(m: Rep) -> dict:
    field = m.algebra.field
    out = {}
    for v in m.dims:
        blocks = [m.maps[a.name] for a in m.algebra.quiver.arrows if a.source == v]
        out[v] = (field.left_kernel_basis(np.hstack(blocks))
                  if blocks else field.identity(m.dims[v]))
    return out


# -- element matrices of maps between projective sums ---------------------------


def elements_to_repmap(algebra, src_verts: list, tgt_verts: list,
                       e: np.ndarray) -> RepMap:
    """Realise an element matrix as a map of projective sums on the path
    basis, one entry, one vertex and one pair of slices at a time: entry
    (r, c) acts by left multiplication from the c-th source summand to the
    r-th target summand, read off the full multiplication table."""
    field = algebra.field
    src, soff = projective_sum(algebra, src_verts)
    tgt, toff = projective_sum(algebra, tgt_verts)
    blocks = {u: field.zeros(src.dims[u], tgt.dims[u]) for u in src.dims}
    for c, sv in enumerate(src_verts):
        for r, tv in enumerate(tgt_verts):
            x = field.reduce(e[r, c])
            if not x.any():
                continue
            for u in src.dims:
                rows_sl = algebra.slice_indices(sv, u)
                cols_sl = algebra.slice_indices(tv, u)
                if not rows_sl or not cols_sl:
                    continue
                sub = dense_table(algebra)[:, rows_sl][:, :, cols_sl]
                blocks[u][soff[c][u]:soff[c][u] + len(rows_sl),
                          toff[r][u]:toff[r][u] + len(cols_sl)] = (
                    np.einsum("k,krc->rc", x, sub) % field.p)
    return RepMap(src, tgt, blocks)


def repmap_to_elements(f: RepMap, src_verts: list, tgt_verts: list) -> np.ndarray:
    """Element matrix of a map between projective sums on the path basis.

    The result has shape (len(tgt_verts), len(src_verts), dim); entry (r, c)
    lies in e_{tgt[r]} A e_{src[c]} and acts by left multiplication.
    """
    alg = f.src.algebra
    field = alg.field
    soff = projective_sum(alg, src_verts)[1]
    toff = projective_sum(alg, tgt_verts)[1]
    out = np.zeros((len(tgt_verts), len(src_verts), alg.dim), dtype=np.int64)
    for c, sv in enumerate(src_verts):
        sl = alg.slice_indices(sv, sv)
        gen_pos = soff[c][sv] + sl.index(alg.trivial_index(sv))
        row = f.blocks[sv][gen_pos]
        for r, tv in enumerate(tgt_verts):
            seg = alg.slice_indices(tv, sv)
            vec = field.zeros(1, alg.dim)[0]
            for k, w in enumerate(seg):
                vec[w] = row[toff[r][sv] + k]
            out[r, c] = vec
    return out


# -- the triangular route for complexes ------------------------------------------


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


def complex_to_module(c) -> Rep:
    """A two-term complex as a module over the triangular algebra."""
    alg = c.algebra
    n = alg.num_vertices
    tri = triangular_algebra(alg)
    f = elements_to_repmap(alg, list(c.deg1), list(c.deg0), c.d)
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


def _module_to_complex(algebra, s: Rep):
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
    if not (repmap_is_iso(cm1) and repmap_is_iso(cm0)):
        raise AssertionError("triangular summand has a non-projective layer")
    comp = repmap_compose(repmap_compose(cm1, conn), repmap_inverse(cm0))
    return TwoTermComplex(algebra, verts1, verts0,
                          repmap_to_elements(comp, verts1, verts0),
                          check=False)


def triangular_decompose(c) -> list:
    """Indecomposable direct summands, with repetition, as the summands of
    the triangular module."""
    if c.is_zero():
        return []
    return [_module_to_complex(c.algebra, s)
            for s in decompose(complex_to_module(c))]


def triangular_isomorphic(p, q) -> bool:
    """Isomorphism in the homotopy category.  Both inputs must be minimal,
    which enumeration and minimalize guarantee; minimal complexes are
    homotopy equivalent exactly when the triangular modules match."""
    if sorted(p.deg1) != sorted(q.deg1) or sorted(p.deg0) != sorted(q.deg0):
        return False
    return are_isomorphic(complex_to_module(p), complex_to_module(q))


def summand_classes(c: TwoTermComplex) -> list:
    """Indecomposable summands of a minimal complex grouped up to
    isomorphism, as a list of (representative, multiplicity), from the
    package's one split of the complex (complexes._classes)."""
    return [(x, k) for _, x, k in _classes(c)]


# -- idempotent splitter -----------------------------------------------------------


def _min_poly_coeffs(blocks: dict, field) -> list:
    """Monic minimal polynomial of a per-vertex family of square matrices,
    lowest degree first."""
    p = field.p
    flat0 = np.concatenate([field.identity(b.shape[0]).ravel()
                            for b in blocks.values()])
    power = np.concatenate([b.ravel() for b in blocks.values()])
    cur = {v: b.copy() for v, b in blocks.items()}
    stack = [flat0]
    while True:
        sol = field.solve_left(np.array(stack, dtype=np.int64), power)
        if sol is not None:
            return [(-int(c)) % p for c in sol] + [1]
        stack.append(power)
        cur = {v: field.matmul(cur[v], blocks[v]) for v in blocks}
        power = np.concatenate([b.ravel() for b in cur.values()])
        if len(stack) > flat0.size + 2:
            raise AssertionError("minimal polynomial search did not terminate")


def _poly_eval(coeffs: list, blocks: dict, field) -> dict:
    """Evaluate a polynomial (lowest degree first) at a per-vertex family."""
    out = {}
    for v, b in blocks.items():
        acc = field.zeros(b.shape[0], b.shape[0])
        for c in reversed(coeffs):
            acc = (field.matmul(acc, b)
                   + int(c) % field.p * field.identity(b.shape[0])) % field.p
        out[v] = acc
    return out


def idempotent_of(u: dict, field) -> dict | None:
    """A nontrivial idempotent that is a polynomial in the block family u,
    or None.  Factors the minimal polynomial of u; coprime factors give an
    exact idempotent via the extended Euclidean algorithm."""
    import sympy

    p = field.p
    blocks = {v: b for v, b in u.items() if b.shape[0] > 0}
    if not blocks:
        return None
    coeffs = _min_poly_coeffs(blocks, field)
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
    _, factors = poly.factor_list()
    if len(factors) < 2:
        return None
    factors = sorted(factors, key=lambda fm: (fm[0].degree(), str(fm[0])))
    f1 = factors[0][0] ** factors[0][1]
    f2 = sympy.Poly(1, x, modulus=p)
    for fac, mult in factors[1:]:
        f2 = f2 * fac ** mult
    _, t, h = f1.gcdex(f2)
    if h.degree() != 0:
        raise AssertionError("complementary factors are not coprime")
    # on ker f1(u) the combination t*f2 acts as 1, on ker f2(u) as 0
    hinv = field.inv_scalar(int(h.all_coeffs()[-1]))
    pcoeffs = [int(c) * hinv % p for c in reversed((t * f2).all_coeffs())]
    eps = _poly_eval(pcoeffs, u, field)
    ranks = sum(field.rank(b) for b in eps.values())
    if ranks == 0 or ranks == sum(b.shape[0] for b in eps.values()):
        return None
    for b in eps.values():
        if (field.matmul(b, b) != b).any():
            raise AssertionError("idempotent construction failed")
    return eps


def idempotent_decompose(m: Rep, rng=None) -> list:
    """Indecomposable summands of m, with repetition: the images of
    complementary idempotents (e, 1 - e) of End(m), split again in turn.
    Each basis element of End(m) is tried, then random combinations."""
    if m.is_zero():
        return []
    rng = np.random.default_rng(0) if rng is None else rng
    field = m.algebra.field
    p = field.p
    ends = [f.blocks for f in hom_basis(m, m)]
    if _is_local(ends, field):
        return [m]
    candidates = list(ends)
    for _ in range(200):
        for u in candidates:
            eps = idempotent_of(u, field)
            if eps is not None:
                rest = {v: (field.identity(b.shape[0]) - b) % p
                        for v, b in eps.items()}
                return [part for e in (eps, rest)
                        for part in idempotent_decompose(sub_rep(m, e)[0],
                                                         rng)]
        coeffs = rng.integers(0, p, size=len(ends))
        candidates = [{v: sum(int(c) * f[v] % p for c, f in zip(coeffs, ends))
                       % p for v in ends[0]}]
    raise AssertionError("no splitting idempotent found")


def eager_rng_decompose(m: Rep, rng) -> list:
    """decompose's split loop with rng, built by the caller, passed through
    every summand_rows call: decompose(m) must equal this with
    rng = np.random.default_rng(0)."""
    if m.is_zero():
        return []
    rows = summand_rows([f.blocks for f in hom_basis(m, m)], m.algebra.field,
                        rng)
    if rows is None:
        return [m]
    return [part for r in rows
            for part in eager_rng_decompose(sub_rep(m, r)[0], rng)]


# -- mutation oracle --------------------------------------------------------------


def universal_mutation(x, q_reps: list):
    """Mutation at x by the universal add(Q)-approximation: every chain map
    in a basis modulo homotopy to (or from) each fixed summand, so the
    reduced cone carries extra add(Q) summands beside the new one; they are
    split off by the triangular route and dropped by g-vector."""
    from tautilt.complexes import chain_maps_mod_homotopy
    from tautilt.mutation import _left_candidate, _right_candidate, g_vector_key

    left = _left_candidate(x, [(q, f1, f0) for q in q_reps
                               for f1, f0 in chain_maps_mod_homotopy(x, q)])
    right = _right_candidate(x, [(q, g1, g0) for q in q_reps
                                 for g1, g0 in chain_maps_mod_homotopy(q, x)])
    (cone,) = [c for c in (left, right) if c is not None]
    fixed = {g_vector_key(q) for q in q_reps}
    (new,) = [s for s in triangular_decompose(cone)
              if g_vector_key(s) not in fixed]
    assert g_vector_key(new) != g_vector_key(x)
    return new


def per_item_orbit_mutation(result, node, orbit, maps) -> dict:
    """Tilting mutation of the stable node at an orbit of the Nakayama
    functor with every item x of the orbit mutated at node - orbit on its
    own (mutate_summand), rather than one item mutated and the result
    carried round the orbit.  maps is a mutation._PairMaps other than the
    walk's, so no Hom the walk kept is read.  Returns {x: its mutation},
    unregistered.  Every item must go one way: Hom(y, x[1]) of each x and
    its own mutation y is nonzero for all of them or for none, or
    TheoremViolationError is raised."""
    from tautilt.complexes import hom_dim

    items = result.registry.items
    rest = [items[q] for q in sorted(node - orbit)]
    ys = {x: mutate_summand(items[x], rest, _maps=maps) for x in sorted(orbit)}
    if len({hom_dim(y, items[x], 1) != 0 for x, y in ys.items()}) > 1:
        raise TheoremViolationError(
            "the items of one orbit mutate in different directions")
    return ys


def scan_completion(result, node, x: int):
    """The registry items outside node compatible with node - {x}, found
    by scanning every item: Hom(y, q[1]) = 0 = Hom(q, y[1]) for each other
    q of the node.  Returns the one such item, None when there is none,
    and a list when there are several."""
    rest = node - {x}
    found = [y for y in range(len(result.registry)) if y not in node
             and all(result.hom_shift(y, q, 1) == 0 == result.hom_shift(q, y, 1)
                     for q in rest)]
    if len(found) > 1:
        return found
    return found[0] if found else None


# -- whole-sum check oracle -------------------------------------------------------


def whole_sum_check_flags(algebra, expr: str, pverts: tuple,
                          required: tuple) -> dict:
    """What `check` reports, by the whole-sum route: decompose the parsed
    sum, and test tau-rigidity, stability and translate symmetry on the
    sum itself.  Returns {"code", "basic", "flags"}; code 2 with basic and
    flags None where check rejects the input."""
    from tautilt.modules import hom_dim
    from tautilt.textio import parse_module_expr
    from tautilt.translate import is_selfinjective

    n = algebra.num_vertices
    selfinj = is_selfinjective(algebra)
    if "nu-stable" in required and not selfinj:
        return {"code": 2, "basic": None, "flags": None}
    x = parse_module_expr(algebra, expr)
    parts = decompose(x)
    classes = []
    for part in parts:
        if not any(are_isomorphic(part, c) for c in classes):
            classes.append(part)
    basic = len(parts) == len(classes)
    zero_verts = [v for v in range(1, n + 1) if x.dims[v] == 0]
    if len(set(pverts)) != len(pverts) or not all(
            1 <= v <= n for v in pverts):
        return {"code": 2, "basic": None, "flags": None}
    try:
        if basic and len(classes) + len(pverts) <= n:
            make_pair(algebra, classes, pverts)  # rejects bad vertex lists
        if basic and len(classes) + len(zero_verts) > n:
            raise ValueError("more summands than the algebra has vertices")
    except ValueError:
        return {"code": 2, "basic": None, "flags": None}
    rigid = hom_dim(x, tau(x)) == 0
    flags = {
        "tau-rigid": rigid,
        "support-tau-tilting": (
            basic and len(classes) + len(pverts) == n and rigid
            and all(x.dims[v] == 0 for v in pverts)),
        "tau-minus-tilting": (
            basic and len(classes) + len(zero_verts) == n
            and hom_dim(tau_minus(x), x) == 0),
        "nu-stable": are_isomorphic(nu_module(x), x) if selfinj else None,
        "tau-symmetric": are_isomorphic(tau(x), tau_minus(x)),
    }
    code = 0 if all(flags[name] for name in required) else 1
    return {"code": code, "basic": basic, "flags": flags}


# -- Nakayama functor oracle ------------------------------------------------------


def extract_iso(m: Rep, n: Rep) -> RepMap | None:
    """An explicit isomorphism between indecomposables, or None."""
    if m.dim_vector() != n.dim_vector():
        return None
    field = m.algebra.field
    fs = hom_basis(m, n)
    gs = hom_basis(n, m)
    pair = loop_pairing_matrix([f.blocks for f in fs],
                               [g.blocks for g in gs], field)
    idx = np.argwhere(pair)
    if idx.size == 0:
        return None
    i, j = idx[0]
    # trace(f g) != 0 makes g f a unit in the local endomorphism ring
    return fs[int(i)]


def nakayama_oracle(algebra):
    """(pi, nu matrix) by matching injectives with projectives, or None
    when some injective is not projective.  pi(i) is the vertex whose
    projective admits an explicit isomorphism phi_i from I_i; row k of the
    matrix is the Nakayama functor on basis path k, a map of injectives
    realised as the dual of a map over the opposite algebra, conjugated by
    those isomorphisms into a map of projectives."""
    n = algebra.num_vertices
    perm, phis = {}, {}
    for i in range(1, n + 1):
        inj = injective(algebra, i)
        for j in range(1, n + 1):
            iso = extract_iso(inj, projective(algebra, j))
            if iso is not None:
                perm[i], phis[i] = j, iso
                break
        else:
            return None
    op = algebra.opposite()
    nu = algebra.field.zeros(algebra.dim, algebra.dim)
    for k in range(algebra.dim):
        i, j = algebra.basis_words[k][0], algebra.target_of(k)
        x = algebra.zero()
        x[k] = 1
        # the opposite algebra shares the coordinates of the algebra
        op_map = elements_to_repmap(op, [i], [j], x.reshape(1, 1, -1))
        nu_map = RepMap(dual(op_map.tgt), dual(op_map.src),
                        {v: b.T.copy() for v, b in op_map.blocks.items()})
        conj = repmap_compose(repmap_compose(repmap_inverse(phis[j]), nu_map),
                              phis[i])
        nu[k] = repmap_to_elements(conj, [perm[j]], [perm[i]])[0, 0]
    return perm, nu


def nu_module_oracle(m: Rep, perm: dict, nu: np.ndarray) -> Rep:
    """The Nakayama functor on a module, by transporting its minimal
    presentation with a given permutation and twist matrix."""
    alg = m.algebra
    verts1, verts0, e = minimal_presentation(m)
    moved = alg.field.matmul(e.reshape(-1, alg.dim), nu).reshape(e.shape)
    induced = elements_to_repmap(alg, [perm[v] for v in verts1],
                                 [perm[v] for v in verts0], moved)
    return quotient_rep(induced.tgt, induced.blocks)[0]


# -- the opposite algebra and minimal presentations ---------------------------------


def reference_opposite(algebra) -> tuple:
    """(op, op_matrix): the opposite algebra built again from the reversed
    quiver and relations, with its own basis, and the matrix whose row k
    is the op-basis coordinate vector of the reversal of basis word k, so
    that right-multiplying by it is the anti-isomorphism."""
    q = algebra.quiver
    rq = Quiver(q.num_vertices,
                [Arrow(a.name, a.target, a.source) for a in q.arrows])
    rrels = [rel if isinstance(rel, RadicalPower) else Relation(tuple(
        (c, tuple(reversed(path))) for c, path in rel.terms))
        for rel in algebra.relations]
    op = build_algebra(rq, rrels, algebra.field)
    assert op.dim == algebra.dim and op.level == algebra.level
    m = algebra.field.zeros(algebra.dim, algebra.dim)
    for k, (src, arrows) in enumerate(algebra.basis_words):
        if not arrows:
            m[k, op.trivial_index(src)] = 1
        else:
            m[k] = op.element_from_path(
                [q.arrows[a].name for a in reversed(arrows)])
    return op, m


def reference_presentation(m: Rep) -> tuple:
    """Minimal projective presentation (deg1_verts, deg0_verts, e) through
    a second projective cover: the cover of the syzygy composed with its
    inclusion into the first cover, read off as an element matrix."""
    ker, incl, _, verts0 = syzygy(m)
    _, kcover, verts1 = projective_cover(ker)
    e = repmap_to_elements(repmap_compose(kcover, incl), verts1, verts0)
    return verts1, verts0, e


# -- translate oracles ------------------------------------------------------------


def tau_syzygy_oracle(x: Rep) -> Rep:
    """Translate of a module over a selfinjective algebra as the Nakayama
    functor applied to the second syzygy."""
    s1 = syzygy(x)[0]
    s2 = syzygy(s1)[0]
    return nu_module(s2)


def _cosyzygy(x: Rep) -> Rep:
    return dual(syzygy(dual(x))[0])


def _nu_inverse(x: Rep) -> Rep:
    return dual(nu_module(dual(x)))


def tau_minus_syzygy_oracle(x: Rep) -> Rep:
    """Inverse translate as the inverse Nakayama functor applied to the
    second cosyzygy."""
    return _nu_inverse(_cosyzygy(_cosyzygy(x)))


# -- Ext and stability of modules -------------------------------------------------


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1(m, n), via maps out of the syzygy modulo those extending
    to the projective cover."""
    ker, incl, _, _ = syzygy(m)
    target = hom_basis(ker, n)
    if not target:
        return 0
    cover_maps = hom_basis(incl.tgt, n)
    if not cover_maps:
        return len(target)
    field = m.algebra.field
    restricted = np.array([repmap_flatten(repmap_compose(incl, h))
                           for h in cover_maps], dtype=np.int64)
    return len(target) - field.rank(restricted)


def is_nu_stable_module(m: Rep) -> bool:
    return are_isomorphic(m, nu_module(m))


# -- torsion classes ------------------------------------------------------------


def fac_contains(m: Rep, x: Rep) -> bool:
    """Whether x is a quotient of a finite sum of copies of m: the images
    of all maps m -> x must fill x."""
    field = m.algebra.field
    fs = hom_basis(m, x)
    for v in x.dims:
        if x.dims[v] == 0:
            continue
        if not fs:
            return False
        stacked = np.vstack([f.blocks[v] for f in fs])
        if field.rank(stacked) < x.dims[v]:
            return False
    return True


def fac_equal(x: Rep, y: Rep) -> bool:
    """Whether x and y generate the same quotient-closed class."""
    return fac_contains(x, y) and fac_contains(y, x)


def nu_stable_torsion_check(x: Rep) -> bool:
    """Whether x and its Nakayama image generate the same class."""
    selfinjective_data(x.algebra)
    return fac_equal(x, nu_module(x))


# -- module corpora ---------------------------------------------------------------


def radical_layer_dims(m: Rep) -> list:
    out = []
    cur = m
    while cur.total_dim > 0:
        rad, _ = sub_rep(cur, radical_rows(cur))
        out.append(cur.total_dim - rad.total_dim)
        cur = rad
    return out


def is_uniserial(m: Rep) -> bool:
    return m.total_dim > 0 and all(d == 1 for d in radical_layer_dims(m))


def _radical_power_rows(m: Rep, k: int) -> dict:
    """Spanning rows of rad^k m, in the coordinates of m."""
    field = m.algebra.field
    rows = radical_rows(m)
    for _ in range(k - 1):
        radm, incl = sub_rep(m, rows)
        deeper = radical_rows(radm)
        rows = {w: field.matmul(np.asarray(deeper[w], dtype=np.int64),
                                incl.blocks[w])
                if len(deeper[w]) else field.zeros(0, m.dims[w])
                for w in deeper}
    return rows


def uniserial_quotients(algebra) -> list:
    """All uniserial quotients of the indecomposable projectives, up to
    isomorphism: quotients by single-path submodules and by radical
    powers, filtered by the unique-composition-series test."""
    found = []

    def keep(m):
        if m.total_dim == 0 or not is_uniserial(m):
            return
        if not any(are_isomorphic(m, k) for k in found):
            found.append(m)

    for v in range(1, algebra.num_vertices + 1):
        pv = projective(algebra, v)
        keep(pv)
        for k in algebra.paths_from(v):
            if not algebra.basis_words[k][1]:
                continue
            x = algebra.zero()
            x[k] = 1
            gens = []
            for w in range(1, algebra.num_vertices + 1):
                sl = algebra.slice_indices(v, w)
                coords = x[sl]
                if coords.any():
                    gens.append((w, coords))
            quo, _ = quotient_rep(pv, submodule_generated(pv, gens))
            keep(quo)
        for power in range(1, algebra.level + 1):
            quo, _ = quotient_rep(pv, _radical_power_rows(pv, power))
            keep(quo)
    return found


def random_extension(a: Rep, b: Rep, rng) -> Rep:
    """A middle term of a short exact sequence from a to b: push the
    syzygy inclusion of b out along a random map into a."""
    alg = a.algebra
    field = alg.field
    ker, incl, _, verts0 = syzygy(b)
    cover = direct_sum(alg, [projective(alg, v) for v in verts0])[0] \
        if verts0 else None
    if cover is None:
        return direct_sum(alg, [a, b])[0] if b.total_dim else a
    fs = hom_basis(ker, a)
    g = {v: field.zeros(ker.dims[v], a.dims[v]) for v in ker.dims}
    if fs:
        coeffs = rng.integers(0, field.p, size=len(fs))
        for c, f in zip(coeffs, fs):
            for v in g:
                g[v] = (g[v] + int(c) * f.blocks[v]) % field.p
    total, offsets = direct_sum(alg, [a, cover])
    rows = {}
    for v in total.dims:
        block = field.zeros(ker.dims[v], total.dims[v])
        if ker.dims[v]:
            block[:, offsets[0][v]:offsets[0][v] + a.dims[v]] = \
                (-g[v]) % field.p
            block[:, offsets[1][v]:offsets[1][v] + cover.dims[v]] = \
                incl.blocks[v]
        rows[v] = block
    quo, _ = quotient_rep(total, rows)
    return quo


def module_corpus(algebra, rng, count: int = 50) -> list:
    """At least `count` pairwise non-isomorphic modules: all simples, all
    uniserial quotients of projectives, then random extensions between
    corpus members until the target is reached."""
    corpus = []

    def keep(m):
        if m.total_dim == 0:
            return False
        if any(m.dim_vector() == k.dim_vector() and are_isomorphic(m, k)
               for k in corpus):
            return False
        corpus.append(m)
        return True

    for v in range(1, algebra.num_vertices + 1):
        keep(simple(algebra, v))
    for m in uniserial_quotients(algebra):
        keep(m)
    attempts = 0
    while len(corpus) < count and attempts < 4000:
        attempts += 1
        a = corpus[int(rng.integers(0, len(corpus)))]
        b = corpus[int(rng.integers(0, len(corpus)))]
        keep(random_extension(a, b, rng))
    return corpus


# -- preprojective indecomposables and the pair count ------------------------------


def translate_closure_indecomposables(algebra) -> list:
    """Indecomposables of a representation-finite algebra by closing a
    seed (simples, projectives, duals of opposite projectives, uniserial
    quotients) under both translates."""
    seed = []
    for v in range(1, algebra.num_vertices + 1):
        seed.append(simple(algebra, v))
        seed.append(projective(algebra, v))
        seed.append(dual(projective(algebra.opposite(), v)))
    seed.extend(uniserial_quotients(algebra))

    classes = []

    def keep(m):
        if m.total_dim == 0:
            return False
        for part in decompose(m):
            if not any(part.dim_vector() == k.dim_vector()
                       and are_isomorphic(part, k) for k in classes):
                classes.append(part)
        return True

    for m in seed:
        keep(m)
    changed = True
    while changed:
        changed = False
        for m in list(classes):
            for image in (tau(m), tau_minus(m)):
                if image.total_dim == 0:
                    continue
                before = len(classes)
                keep(image)
                if len(classes) != before:
                    changed = True
    return classes


def brute_force_pairs(algebra, indecs: list) -> list:
    """Support tau-tilting pairs by exhaustive search over subsets of the
    indecomposable list, no mutation walk involved."""
    from itertools import combinations

    n = algebra.num_vertices
    found = []
    for size in range(0, n + 1):
        for subset in combinations(range(len(indecs)), size):
            mods = [indecs[i] for i in subset]
            support = set()
            for m in mods:
                support |= {v for v in m.dims if m.dims[v]}
            pverts = tuple(v for v in range(1, n + 1) if v not in support)
            if len(mods) + len(pverts) != n:
                continue
            pair = make_pair(algebra, mods, pverts)
            if is_support_tau_tilting_pair(pair):
                found.append(pair)
    return found


def op_walk_converse(algebra, cap: int = 10000) -> tuple:
    """The converse half of tau-minus coincidence from a second walk, over
    the opposite algebra: (status of that walk, whether the dual of every
    support tau-tilting A^op-module, with the same complement vertices, is
    a support tau-tilting pair over A)."""
    op_enum = enumerate_support_tau_tilting(algebra.opposite(), cap)
    tables = SummandTables()
    # one dual object per module, so that tables shares its facts
    duals = {m: dual(m) for op_pair in op_enum.pairs for m in op_pair.modules}
    holds = all(
        is_support_tau_tilting_pair(
            STPair(algebra, tuple(duals[m] for m in op_pair.modules),
                   op_pair.pverts),
            tables=tables)
        for op_pair in op_enum.pairs)
    return op_enum.status, holds


def dual_route_tau_minus(modules: list, algebra) -> bool:
    """Support tau-minus-tilting through duality: the duals of the
    modules, with their zero-support vertices as complement, form a support
    tau-tilting pair over the opposite algebra (Adachi-Iyama-Reiten,
    Compos. Math. 2014, Thm 2.14).  Raises ValueError, as the pair
    constructor does, when they outnumber the vertices."""
    zero_verts = tuple(v for v in range(1, algebra.num_vertices + 1)
                       if not any(m.dims[v] for m in modules))
    pair = STPair(algebra.opposite(), tuple(dual(m) for m in modules),
                  zero_verts)
    return is_support_tau_tilting_pair(pair)


# -- preprojective algebras of type D and their Weyl groups ----------------------


def preprojective_d(n: int) -> str:
    """Pi(D_n) in the text format: the doubled quiver of the D_n graph, the
    path 1 - 2 - ... - (n-1) with vertex n joined to n-2, and at each
    vertex v the mesh relation sum of a astar over the arrows a leaving v
    minus sum of astar a over the arrows a entering v."""
    if n < 4:
        raise ValueError("type D needs n >= 4")
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    names = [f"x{k}" for k in range(1, len(edges) + 1)]
    lines = [f"# preprojective algebra of the D{n} graph", f"vertices {n}"]
    for (s, t), a in zip(edges, names):
        lines += [f"arrow {a} {s} -> {t}", f"arrow {a}star {t} -> {s}"]
    lines.append("relations:")
    for v in range(1, n + 1):
        out = [f"{a}*{a}star" for (s, _), a in zip(edges, names) if s == v]
        into = [f"{a}star*{a}" for (_, t), a in zip(edges, names) if t == v]
        if out:
            lines.append(" - ".join([" + ".join(out)] + into) + " = 0")
        else:
            lines.append(" + ".join(into) + " = 0")
    return "\n".join(lines) + "\n"


def weyl_group_d(n: int) -> tuple:
    """(|W|, |C_W(w0)|) for the Weyl group W of type D_n, by brute force.
    W is listed as the signed permutations with an even number of sign
    changes, w[i] = s * (j + 1) meaning e_{i+1} -> s e_{j+1}; w0 is found as
    the element that sends every positive root e_i - e_j, e_i + e_j (i < j)
    to a negative one, and its centraliser is counted element by element."""
    from itertools import permutations, product

    group = [tuple(s * (j + 1) for s, j in zip(signs, perm))
             for perm in permutations(range(n))
             for signs in product((1, -1), repeat=n)
             if signs.count(-1) % 2 == 0]

    def image(w, signed):
        return w[abs(signed) - 1] * (1 if signed > 0 else -1)

    def compose(w, u):
        return tuple(image(w, x) for x in u)

    def act(w, vec):
        out = [0] * n
        for i, c in enumerate(vec):
            j = image(w, i + 1)
            out[abs(j) - 1] += c * (1 if j > 0 else -1)
        return tuple(out)

    positive = set()
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (1, -1):
                vec = [0] * n
                vec[i], vec[j] = 1, sign
                positive.add(tuple(vec))
    (w0,) = [w for w in group
             if all(tuple(-x for x in act(w, r)) in positive for r in positive)]
    central = sum(compose(u, w0) == compose(w0, u) for u in group)
    return len(group), central


# -- path algebras of Dynkin quivers -------------------------------------------


def dynkin_path_algebra(kind: str, n: int, seed: int) -> str:
    """The path algebra kQ of a Dynkin quiver Q in the text format, each
    edge oriented at random from seed.  The graphs: A_n the path
    1 - 2 - ... - n; D_n the path 1 - ... - (n-1) with vertex n joined to
    n-2; E_n (n = 6, 7, 8) the path 1 - ... - (n-1) with vertex n joined
    to 3.  No relations: Q is a tree, so kQ is finite dimensional."""
    if kind == "D" and n < 4 or kind == "E" and n not in (6, 7, 8):
        raise ValueError(f"no Dynkin graph {kind}{n}")
    path = [(i, i + 1) for i in range(1, n - 1)]
    edges = {"A": path + [(n - 1, n)], "D": path + [(n - 2, n)],
             "E": path + [(3, n)]}[kind]
    flips = np.random.default_rng(seed).integers(0, 2, size=len(edges))
    lines = [f"# path algebra of an orientation of the {kind}{n} graph",
             f"vertices {n}"]
    for k, ((s, t), flip) in enumerate(zip(edges, flips), start=1):
        if flip:
            s, t = t, s
        lines.append(f"arrow x{k} {s} -> {t}")
    return "\n".join(lines) + "\n"


# -- stable pairs from the whole silting walk -----------------------------------


def full_walk_nu_stable(algebra, cap: int = 10000) -> PairEnumeration:
    """Stable pairs by two independent routes over every node of the
    silting walk: filtering the pair enumeration by is_nu_stable_pair
    (the Nakayama functor permutes the pair's modules), and filtering the
    walk by the tilting criterion.  The index sets must agree, and the
    complement vertices of a stable pair must be closed under the
    Nakayama permutation."""
    base = enumerate_support_tau_tilting(algebra, cap)
    perm = nakayama_permutation(algebra)
    by_stability = []
    for k, pair in enumerate(base.pairs):
        if not is_nu_stable_pair(pair, base.tables):
            continue
        pverts = pair.pverts
        if sorted(perm[v] for v in pverts) != sorted(pverts):
            raise TheoremViolationError(
                "stable module part with complement vertices not closed "
                "under the Nakayama permutation"
            )
        by_stability.append(k)
    by_tilting = [k for k, node in enumerate(base.silting.nodes)
                  if base.silting.is_node_tilting(node)]
    if by_stability != by_tilting:
        raise TheoremViolationError(
            "stable-pair route and tilting-complex route disagree"
        )
    picked = [base.pairs[k] for k in by_stability]
    index = {base.silting.nodes[k]: i for i, k in enumerate(by_stability)}
    return PairEnumeration(algebra, picked, base.status, base.silting, index,
                           base.tops, base.tables)


# -- stable pairs from the reduced graphs around each stable node -------------


def _walk_reduced(result, start, cap: int, frozen) -> list:
    """Breadth-first walk from start over the nodes that contain frozen,
    mutating only at items outside it; returns the nodes reached, start
    first.  With frozen a presilting set of items, these nodes form the
    mutation graph of a smaller algebra (tau-tilting reduction; Jasso,
    IMRN 2015).  Edges are looked up and recorded as in
    mutation.walk_from, and a node no earlier walk on result reached is
    appended to result.nodes.  The walk stops, setting result.status to
    TRUNCATED, at the first level that starts with more than cap nodes in
    result.nodes."""
    registry = result.registry
    reached = [start]
    seen = {start}
    frontier = [start]
    while frontier:
        if len(result.nodes) > cap:
            result.status = "TRUNCATED"
            break
        nxt = []
        for node in sorted(frontier, key=lambda nd: tuple(sorted(nd))):
            fan = result.edges.setdefault(node, {})
            for x in sorted(node - frozen):
                if x not in fan:
                    yid = find_completion(result, node, x)
                    if yid is None:
                        qs = [registry.items[q] for q in sorted(node)
                              if q != x]
                        yid = registry.get_or_insert(mutate_summand(
                            registry.items[x], qs, _maps=result._maps))
                    new_node = frozenset((node - {x}) | {yid})
                    fan[x] = new_node
                    if new_node not in result.edges:  # first edge into it
                        result.nodes.append(new_node)
                    result.edges.setdefault(new_node, {})[yid] = node
                if fan[x] not in seen:
                    seen.add(fan[x])
                    reached.append(fan[x])
                    nxt.append(fan[x])
        frontier = nxt
    return reached


def reduced_walk_nu_stable(algebra, cap: int = 10000) -> PairEnumeration:
    """Stable pairs from the reduced graphs: from each stable node T,
    starting with the algebra, and each orbit X of the Nakayama functor on
    its items, walk every node that contains T - X and queue the stable
    nodes reached.  Each frozen set T - X is walked once.  silting.nodes
    holds every node visited, and each is checked as in
    enumerate_nu_stable."""
    result = start_walk(algebra)
    stable = list(result.nodes)
    queued = set(stable)
    walked = set()
    for t in stable:  # grows as stable nodes are reached
        for orbit in nu_orbits(result, t):
            frozen = t - orbit
            if frozen in walked:
                continue
            walked.add(frozen)
            reached = _walk_reduced(result, t, cap, frozen)
            if result.status == "TRUNCATED":
                return _nu_stable_enumeration(algebra, result)
            for u in reached:
                if u not in queued and result.is_node_nu_stable(u):
                    queued.add(u)
                    stable.append(u)
    return _nu_stable_enumeration(algebra, result)


# -- pair set comparison ------------------------------------------------------------


def pairs_match(p, q) -> bool:
    if tuple(sorted(p.pverts)) != tuple(sorted(q.pverts)):
        return False
    if len(p.modules) != len(q.modules):
        return False
    used = [False] * len(q.modules)
    for m in p.modules:
        hit = next((j for j, x in enumerate(q.modules)
                    if not used[j] and m.dim_vector() == x.dim_vector()
                    and are_isomorphic(m, x)), None)
        if hit is None:
            return False
        used[hit] = True
    return True


def same_pair_sets(pairs_a: list, pairs_b: list) -> bool:
    if len(pairs_a) != len(pairs_b):
        return False
    used = [False] * len(pairs_b)
    for p in pairs_a:
        hit = next((j for j, q in enumerate(pairs_b)
                    if not used[j] and pairs_match(p, q)), None)
        if hit is None:
            return False
        used[hit] = True
    return True
