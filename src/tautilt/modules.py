"""Finite-dimensional right modules over a bound quiver algebra.

A representation assigns a vector space to each vertex and a matrix to each
arrow.  Everything follows the row convention from the field layer: for an
arrow a: s -> t the matrix has shape (dim_s, dim_t) and acts on row vectors
by right multiplication, so the action of a path is the product of its
arrow matrices in path order.

Maps between projective modules are handled in one form, as matrices of
algebra elements.  A map from the projective at vertex i to the projective
at vertex j is left multiplication by an element of e_j A e_i, and a map
of finite sums is an element matrix indexed (target summand, source
summand) so that composition is the ordinary matrix product over the
algebra.  presented_module takes such a matrix straight to its cokernel,
the module it presents.

A block with a zero side is never eliminated: loops over vertices and
arrows skip zero vertex spaces, and Hom systems have unknowns only where
both modules are nonzero.

Modules are decomposed by Fitting's lemma: an endomorphism u of a module
of finite length splits it as ker u^N + im u^N (summand_rows).  No
polynomial is factorised.  Two-term complexes are decomposed through
their cokernels (complexes.decompose_complex).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AlgebraMismatchError,
    RandomnessExhaustedError,
    ZeroModuleError,
)


def _check_same(*objs):
    alg = objs[0].algebra
    for o in objs[1:]:
        if o.algebra is not alg:
            raise AlgebraMismatchError("objects live over different algebras")
    return alg


class Rep:
    """A right module, given by vertex dimensions and arrow matrices."""

    def __init__(self, algebra, dims: dict, maps: dict, check: bool = True):
        self.algebra = algebra
        n = algebra.num_vertices
        self.dims = {v: int(dims.get(v, 0)) for v in range(1, n + 1)}
        field = algebra.field
        self.maps = {}
        for a in algebra.quiver.arrows:
            shape = (self.dims[a.source], self.dims[a.target])
            m = maps.get(a.name)
            if m is None:
                m = field.zeros(*shape)
            else:
                m = np.asarray(m, dtype=np.int64)
                if m.shape != shape:
                    raise ValueError(
                        f"arrow {a.name}: matrix shape {m.shape} does not "
                        f"match {shape}")
                if m.size:
                    m = field.reduce(m)
            self.maps[a.name] = m
        if check:
            self._validate()

    def _validate(self):
        field = self.algebra.field
        quiver = self.algebra.quiver
        for src, tgt, _, terms in self.algebra.normalised_relations():
            acc = field.zeros(self.dims[src], self.dims[tgt])
            for coeff, ids in terms:
                m = field.identity(self.dims[src])
                for ai in ids:
                    m = field.matmul(m, self.maps[quiver.arrows[ai].name])
                acc = (acc + coeff * m) % field.p
            if acc.any():
                raise ValueError("arrow matrices do not satisfy the relations")
        for src, arrows in self.algebra.boundary_words():
            m = field.identity(self.dims[src])
            for ai in arrows:
                m = field.matmul(m, self.maps[quiver.arrows[ai].name])
            if m.any():
                raise ValueError("a path at the truncation level acts nonzero")

    # -- basic data -------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> tuple:
        n = self.algebra.num_vertices
        return tuple(self.dims[v] for v in range(1, n + 1))

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Rep(dim_vector={self.dim_vector()})"


class RepMap:
    """A module map, one matrix per vertex, acting on row vectors."""

    def __init__(self, src: Rep, tgt: Rep, blocks: dict):
        _check_same(src, tgt)
        self.src = src
        self.tgt = tgt
        field = src.algebra.field
        self.blocks = {}
        for v in src.dims:
            shape = (src.dims[v], tgt.dims[v])
            b = blocks.get(v)
            if b is None:
                b = field.zeros(*shape)
            else:
                b = np.asarray(b, dtype=np.int64)
                if b.shape != shape:
                    raise ValueError(f"vertex {v}: block shape {b.shape} is wrong")
                if b.size:
                    b = field.reduce(b)
            self.blocks[v] = b

    def is_zero(self) -> bool:
        return not any(b.any() for b in self.blocks.values())

    def __repr__(self):
        return f"RepMap({self.src!r} -> {self.tgt!r})"


# -- constructions ---------------------------------------------------------


def zero_module(algebra) -> Rep:
    return Rep(algebra, {}, {}, check=False)


def simple(algebra, v: int) -> Rep:
    return Rep(algebra, {v: 1}, {}, check=False)


def projective(algebra, v: int) -> Rep:
    """The indecomposable projective e_v A, on the path basis.  Built once
    per algebra and vertex; every caller shares the returned module, whose
    arrow matrices are read-only."""
    cache = algebra._cache.setdefault("projectives", {})
    if v not in cache:
        dims = {u: len(algebra.slice_indices(v, u))
                for u in range(1, algebra.num_vertices + 1)}
        # word b from v to a.source goes to b * a
        maps = {a.name: act[algebra.slice_indices(v, a.source)][
                    :, algebra.slice_indices(v, a.target)]
                for a, act in zip(algebra.quiver.arrows, algebra.arrow_actions())}
        rep = Rep(algebra, dims, maps, check=False)
        for m in rep.maps.values():
            m.flags.writeable = False
        cache[v] = rep
    return cache[v]


def injective(algebra, v: int) -> Rep:
    return dual(projective(algebra.opposite(), v))


def regular(algebra) -> Rep:
    rep, _ = direct_sum(algebra, [projective(algebra, v)
                                  for v in range(1, algebra.num_vertices + 1)])
    return rep


def direct_sum(algebra, reps: list) -> tuple:
    """Block direct sum.  Returns (rep, offsets) where offsets[i][v] is the
    start of summand i inside vertex space v."""
    for r in reps:
        if r.algebra is not algebra:
            raise AlgebraMismatchError("summand over a different algebra")
    field = algebra.field
    dims = {v: sum(r.dims[v] for r in reps)
            for v in range(1, algebra.num_vertices + 1)}
    offsets = []
    running = {v: 0 for v in dims}
    for r in reps:
        offsets.append(dict(running))
        for v in dims:
            running[v] += r.dims[v]
    maps = {}
    for a in algebra.quiver.arrows:
        m = field.zeros(dims[a.source], dims[a.target])
        for i, r in enumerate(reps):
            rs, cs = offsets[i][a.source], offsets[i][a.target]
            blk = r.maps[a.name]
            m[rs:rs + blk.shape[0], cs:cs + blk.shape[1]] = blk
        maps[a.name] = m
    return Rep(algebra, dims, maps, check=False), offsets


def dual(m: Rep) -> Rep:
    """The dual module over the opposite algebra, via transposed matrices."""
    op = m.algebra.opposite()
    return Rep(op, dict(m.dims),
               {a.name: m.maps[a.name].T.copy() for a in m.algebra.quiver.arrows},
               check=False)


# -- hom spaces -------------------------------------------------------------


def hom_basis(m: Rep, n: Rep) -> list:
    """Basis of the space of module maps m -> n."""
    alg = _check_same(m, n)
    field = alg.field
    # unknowns: the entries of f_v, row-major, where m and n are both nonzero
    verts = [v for v in sorted(m.dims) if m.dims[v] and n.dims[v]]
    if not verts:
        return []
    offset = {}
    pos = 0
    for v in verts:
        offset[v] = pos
        pos += m.dims[v] * n.dims[v]
    total = pos
    crows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        ms, nt = m.dims[s], n.dims[t]
        if not ms or not nt or (s not in offset and t not in offset):
            continue
        # f_s @ n_a - m_a @ f_t = 0, one row per entry (i, j) of the
        # (ms, nt) product: f_s[i, k] has coefficient n_a[k, j], f_t[k, j]
        # has coefficient -m_a[i, k]; on a loop both land on f_s
        blk = field.zeros(ms * nt, total)
        if s in offset:
            ns = n.dims[s]
            term = (field.identity(ms)[:, None, :, None]
                    * n.maps[a.name].T[None, :, None, :])
            blk[:, offset[s]:offset[s] + ms * ns] = term.reshape(ms * nt, ms * ns)
        if t in offset:
            mt = m.dims[t]
            term = (m.maps[a.name][:, None, :, None]
                    * field.identity(nt)[None, :, None, :])
            blk[:, offset[t]:offset[t] + mt * nt] -= term.reshape(ms * nt, mt * nt)
        crows.append(blk)
    # rref reduces the negative entries into [0, p)
    c = np.vstack(crows) if crows else field.zeros(0, total)
    out = []
    for vec in field.kernel_basis(c):
        blocks = {v: vec[offset[v]:offset[v] + m.dims[v] * n.dims[v]]
                  .reshape(m.dims[v], n.dims[v]) for v in verts}
        out.append(RepMap(m, n, blocks))
    return out


def hom_dim(m: Rep, n: Rep) -> int:
    return len(hom_basis(m, n))


def _pairing_matrix(fs: list, gs: list, field) -> np.ndarray:
    """Traces of composites f then g, for per-vertex block families
    f: M -> N and g: N -> M (dicts from vertex to block, keyed alike), as
    one product: tr(F G) = vec(F) . vec(G^T), summed over the vertices."""
    if not fs or not gs:
        return field.zeros(len(fs), len(gs))
    keys = list(fs[0])
    left = np.array([np.concatenate([f[v].ravel() for v in keys]) for f in fs])
    right = np.array([np.concatenate([g[v].T.ravel() for v in keys])
                      for g in gs])
    return field.matmul(left, right.T)


def is_indecomposable(m: Rep) -> bool:
    """Whether the endomorphism ring is local (_is_local)."""
    if m.is_zero():
        raise ZeroModuleError("the zero module is not indecomposable")
    return _is_local([f.blocks for f in hom_basis(m, m)], m.algebra.field)


# -- submodules, quotients, radical ----------------------------------------


def sub_rep(m: Rep, rows: dict) -> tuple:
    """Submodule spanned by the given rows (per vertex, need not be
    independent).  Returns (sub, inclusion).  The span must be closed under
    the arrow action."""
    alg = m.algebra
    field = alg.field
    basis = {}
    for v in m.dims:
        r = rows.get(v)
        if m.dims[v] == 0 or r is None or len(r) == 0:
            basis[v] = field.zeros(0, m.dims[v])
        else:
            basis[v] = field.row_space_basis(r)
    dims = {v: basis[v].shape[0] for v in m.dims}
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        if dims[s] == 0 or m.dims[t] == 0:
            # nothing to move, or nowhere to move it: the solve must succeed
            maps[a.name] = field.zeros(dims[s], dims[t])
            continue
        moved = field.matmul(basis[s], m.maps[a.name])
        x = field.solve_left(basis[t], moved)
        if x is None:
            raise ValueError("rows do not span an arrow-stable subspace")
        maps[a.name] = x
    sub = Rep(alg, dims, maps, check=False)
    return sub, RepMap(sub, m, basis)


def quotient_rep(m: Rep, rows: dict) -> tuple:
    """Quotient by the submodule spanned by the rows.  Returns
    (quotient, projection)."""
    alg = m.algebra
    field = alg.field
    proj = {}
    for v in m.dims:
        r = rows.get(v)
        if m.dims[v] == 0 or r is None or len(r) == 0:
            proj[v] = field.identity(m.dims[v])
            continue
        rr, piv = field.rref(r)
        y = field.identity(m.dims[v])
        for i, c in enumerate(piv):
            y[c] = (y[c] - rr[i]) % field.p
        pivset = set(piv)
        proj[v] = y[:, [j for j in range(m.dims[v]) if j not in pivset]]
    dims = {v: proj[v].shape[1] for v in m.dims}
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        if m.dims[s] == 0 or dims[t] == 0:
            # nothing to map, or an empty quotient: the solve must succeed
            maps[a.name] = field.zeros(dims[s], dims[t])
            continue
        rhs = field.matmul(m.maps[a.name], proj[t])
        x = field.solve_right(proj[s], rhs)
        if x is None:
            raise ValueError("rows do not span an arrow-stable subspace")
        maps[a.name] = x
    quo = Rep(alg, dims, maps, check=False)
    return quo, RepMap(m, quo, proj)


def radical_rows(m: Rep) -> dict:
    """Rows spanning the radical of m at each vertex, in reduced row
    echelon form (field.row_space_basis)."""
    field = m.algebra.field
    out = {}
    for v in m.dims:
        blocks = [m.maps[a.name] for a in m.algebra.quiver.arrows
                  if a.target == v and m.dims[a.source]]
        out[v] = (field.row_space_basis(np.vstack(blocks))
                  if blocks and m.dims[v] else field.zeros(0, m.dims[v]))
    return out


def kernel(f: RepMap) -> tuple:
    """(kernel, inclusion into f.src)."""
    field = f.src.algebra.field
    rows = {v: field.left_kernel_basis(b) for v, b in f.blocks.items()
            if b.shape[0]}
    return sub_rep(f.src, rows)


# -- projective covers and presentations ------------------------------------


def top_generators(m: Rep) -> list:
    """One (vertex, row) generator per simple summand of the top."""
    field = m.algebra.field
    gens = []
    rad = radical_rows(m)
    for v in sorted(m.dims):
        if m.dims[v] == 0:
            continue
        # radical_rows is in reduced row echelon form: each row's first
        # nonzero entry is its pivot
        pivset = {int(np.flatnonzero(row)[0]) for row in rad[v]}
        for j in range(m.dims[v]):
            if j not in pivset:
                row = field.zeros(1, m.dims[v])[0]
                row[j] = 1
                gens.append((v, row))
    return gens


def projective_cover(m: Rep) -> tuple:
    """(cover rep, surjection cover -> m, list of cover vertices): the
    summand at a top generator g sends each basis path w to g * w, one
    product per path for all generators at its source (_push)."""
    alg = m.algebra
    field = alg.field
    gens = top_generators(m)
    verts = [v for v, _ in gens]
    cover, offsets = projective_sum(alg, verts)
    blocks = {u: field.zeros(cover.dims[u], m.dims[u]) for u in m.dims}
    for v in sorted(set(verts)):
        idx = [i for i, u in enumerate(verts) if u == v]
        pushed = {(): np.array([gens[i][1] for i in idx])}
        for u in m.dims:
            for k, w in enumerate(alg.slice_indices(v, u)):
                blocks[u][[offsets[i][u] + k for i in idx]] = _push(
                    m, pushed, alg.basis_words[w][1])
    return cover, RepMap(cover, m, blocks), verts


def _push(m: Rep, pushed: dict, arrows: tuple) -> np.ndarray:
    """The rows pushed[()] moved along the arrows, memoised by prefix."""
    if arrows not in pushed:
        a = m.algebra.quiver.arrows[arrows[-1]]
        pushed[arrows] = m.algebra.field.matmul(
            _push(m, pushed, arrows[:-1]), m.maps[a.name])
    return pushed[arrows]


def projective_sum(algebra, verts: list) -> tuple:
    """Direct sum of projectives at the given vertices, in order, on the
    path basis.  Returns (rep, offsets).  Built once per algebra and vertex
    tuple; every caller shares the returned pair, whose arrow matrices are
    read-only."""
    cache = algebra._cache.setdefault("projective_sums", {})
    key = tuple(verts)
    if key not in cache:
        rep, offsets = direct_sum(algebra, [projective(algebra, v) for v in key])
        for m in rep.maps.values():
            m.flags.writeable = False
        cache[key] = rep, offsets
    return cache[key]


def syzygy(m: Rep) -> tuple:
    """(syzygy, inclusion into the cover, cover map, cover vertices)."""
    cover, cmap, verts = projective_cover(m)
    ker, incl = kernel(cmap)
    return ker, incl, cmap, verts


def minimal_presentation(m: Rep) -> tuple:
    """Minimal projective presentation as an element matrix.

    Returns (deg1_verts, deg0_verts, e) where e has shape
    (len(deg0), len(deg1), dim) and entry (r, c) is the component from the
    c-th degree -1 summand to the r-th degree 0 summand.  Column c is the
    c-th top generator g of the syzygy pushed into the cover: g * incl,
    read on the r-th summand, is e[r, c] on the paths from deg0[r].
    """
    alg = m.algebra
    ker, incl, _, verts0 = syzygy(m)
    gens = top_generators(ker)
    toff = projective_sum(alg, verts0)[1]
    e = np.zeros((len(verts0), len(gens), alg.dim), dtype=np.int64)
    for c, (v, g) in enumerate(gens):
        row = alg.field.matmul(g, incl.blocks[v])
        for r, tv in enumerate(verts0):
            seg = alg.slice_indices(tv, v)
            e[r, c, seg] = row[toff[r][v]:toff[r][v] + len(seg)]
    return [v for v, _ in gens], verts0, e


def presented_module(algebra, verts1: list, verts0: list,
                     e: np.ndarray) -> Rep:
    """The cokernel of the map from the sum of the P(verts1[c]) to the sum
    of the P(verts0[r]) whose entry (r, c) is left multiplication by
    e[r, c], on the path basis of projective_sum(algebra, verts0).

    The images of the source's basis paths are one gather from
    algebra.left_table(e), with both path bases in projective_sum order
    (_path_basis); the gathered matrix is cut at each vertex into the rows
    that quotient_rep divides out.  With e zero the cokernel is the
    target sum itself, and the shared projective_sum module is returned."""
    if not e.any():
        return projective_sum(algebra, verts0)[0]
    return present_by_table(algebra, verts1, verts0, algebra.left_table(e))


def present_by_table(algebra, verts1: list, verts0: list,
                     table: np.ndarray) -> Rep:
    """presented_module for a nonzero e, given table = algebra.left_table(e),
    for callers that keep that table (TwoTermComplex.left_table)."""
    n = algebra.num_vertices
    s_end, s_sum, s_word = _path_basis(algebra, verts1)
    t_end, t_sum, t_word = _path_basis(algebra, verts0)
    images = table[t_sum, s_sum[:, None], s_word[:, None], t_word]
    s_cut = np.searchsorted(s_end, np.arange(n + 1))
    t_cut = np.searchsorted(t_end, np.arange(n + 1))
    rows = {v: images[s_cut[v - 1]:s_cut[v], t_cut[v - 1]:t_cut[v]]
            for v in range(1, n + 1)}
    return quotient_rep(projective_sum(algebra, verts0)[0], rows)[0]


def _path_basis(algebra, verts: list) -> tuple:
    """(end vertex - 1, summand, word) arrays listing the path basis of
    projective_sum(algebra, verts) in its order: by end vertex, then by
    summand, then by word."""
    mask = algebra.slice_mask(verts, range(1, algebra.num_vertices + 1))
    return np.nonzero(mask.transpose(1, 0, 2))


# -- decomposition -----------------------------------------------------------


def _is_local(ends: list, field) -> bool:
    """Whether the ring spanned by ends, a basis of the endomorphisms of
    some object as per-vertex block families, is local with residue field
    F_p: its trace form has rank one, the dimension of the semisimple
    quotient.  Exact while the indecomposable summands have dimension
    below p."""
    return field.rank(_pairing_matrix(ends, ends, field)) == 1


def _fitting_rows(u: dict, field) -> tuple | None:
    """Rows spanning ker v and im v per vertex, for the endomorphism
    v = u^(q (p-1) / 2) - 1 with q a power of p at least every block size,
    or None when one side is zero at every vertex.

    By Fitting's lemma the q-th power kills the nilpotent part of u, and a
    power of a diagonalisable map is diagonalisable, so the object is
    ker v + im v, a direct sum of subobjects.  ker v is the sum of the
    generalised eigenspaces of u at the nonzero squares of F_p."""
    p = field.p
    q = p
    while q < max(b.shape[0] for b in u.values()):
        q *= p
    ker, im = {}, {}
    for k, b in u.items():
        n = b.shape[0]
        w, e = field.identity(n), q * (p - 1) // 2
        while e:
            if e & 1:
                w = field.matmul(w, b)
            b, e = field.matmul(b, b), e >> 1
        v = (w - field.identity(n)) % p
        ker[k], im[k] = field.left_kernel_basis(v), field.row_space_basis(v)
        if field.rank(np.vstack([ker[k], im[k]])) != n:
            raise AssertionError("Fitting halves are not complementary")
    if not any(len(r) for r in ker.values()) or not any(
            len(r) for r in im.values()):
        return None
    return ker, im


def summand_rows(ends: list, field, rng) -> tuple | None:
    """Two complementary nonzero summands of a module, as rows spanning
    them per vertex, or None when its endomorphism ring is local
    (_is_local).  ends is a basis of the endomorphisms of the module, each
    as the blocks of the map keyed by vertex.  Each basis element is tried
    for a Fitting split (_fitting_rows), then random combinations of
    them, with coefficients from rng.integers; rng is touched only when
    no basis element splits."""
    if _is_local(ends, field):
        return None
    p = field.p
    candidates = list(ends)
    for _ in range(200):
        for u in candidates:
            split = _fitting_rows(u, field)
            if split is not None:
                return split
        coeffs = rng.integers(0, p, size=len(ends))
        candidates = [{v: sum(int(c) * f[v] % p for c, f in zip(coeffs, ends))
                       % p for v in ends[0]}]
    raise RandomnessExhaustedError(
        "no endomorphism splits an object whose endomorphism ring is not "
        "local with residue field F_p: it looks local with a larger "
        "residue field"
    )


class _SeededOnFirstDraw:
    """np.random.default_rng(0), built at the first draw: a decompose
    whose splits all come from basis endomorphisms never imports
    numpy.random."""

    def __init__(self):
        self._rng = None

    def integers(self, *args, **kwargs):
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return self._rng.integers(*args, **kwargs)


def decompose(m: Rep) -> list:
    """Indecomposable summands of m, with repetition, as a list of Rep: the
    two halves of a Fitting split of m by an element of End(m)
    (summand_rows), split again in turn (_split).  The random combinations
    come from one generator per call, seeded at 0 on its first draw and
    passed down to the later splits, so the result is deterministic.  The
    recursion is a module-level function, not a closure over itself, so a
    call leaves no reference cycle behind."""
    return _split(m, _SeededOnFirstDraw())


def _split(x: Rep, rng) -> list:
    """decompose's recursion: x split by summand_rows, each half in turn."""
    if x.is_zero():
        return []
    rows = summand_rows([f.blocks for f in hom_basis(x, x)],
                        x.algebra.field, rng)
    if rows is None:
        return [x]
    return [part for r in rows for part in _split(sub_rep(x, r)[0], rng)]


def _indec_iso(m: Rep, n: Rep) -> bool:
    """Isomorphism test for indecomposables via the trace pairing: any
    composite through a non-isomorphism is nilpotent and traceless, while
    an isomorphism pairs with its inverse to the total dimension."""
    if m is n:
        return not m.is_zero()
    if m.dim_vector() != n.dim_vector():
        return False
    fs = hom_basis(m, n)
    if not fs:
        return False
    gs = hom_basis(n, m)
    return _pairing_matrix([f.blocks for f in fs], [g.blocks for g in gs],
                           m.algebra.field).any()


def iso_classes(parts: list) -> tuple:
    """(classes, multiplicities) of a list of indecomposable modules, with
    the classes in the order of their first appearance."""
    classes, mults = [], []
    for part in parts:
        hit = next((k for k, c in enumerate(classes) if _indec_iso(part, c)),
                   None)
        if hit is None:
            classes.append(part)
            mults.append(1)
        else:
            mults[hit] += 1
    return classes, mults


def same_summands(parts_m: list, parts_n: list, iso=_indec_iso) -> bool:
    """Whether two lists of indecomposables agree up to isomorphism and
    order; iso tests two of them for isomorphism.  By Krull-Schmidt, two
    objects are isomorphic exactly when their summand lists agree."""
    parts_n = list(parts_n)
    if len(parts_m) != len(parts_n):
        return False
    for a in parts_m:
        hit = next((k for k, b in enumerate(parts_n) if iso(a, b)), None)
        if hit is None:
            return False
        parts_n.pop(hit)
    return True


def are_isomorphic(m: Rep, n: Rep) -> bool:
    if m.dim_vector() != n.dim_vector():
        return False
    if m.is_zero():
        return True
    return same_summands(decompose(m), decompose(n))
