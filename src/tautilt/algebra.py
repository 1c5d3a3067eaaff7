"""Bound quiver algebras with exact arithmetic over a prime field.

A quiver has vertices 1..n and named arrows.  Paths compose left to right:
``a*b`` means traverse ``a`` first, then ``b``, so the paths from i to j
span e_i * A * e_j.  The algebra is the path algebra modulo the given
relations together with a high enough radical power; the construction
raises the truncation level until the quotient dimension stabilises, which
happens exactly when the relations generate an admissible ideal up to
radical closure.  If no level below the cap stabilises the quiver admits
arbitrarily long nonzero paths and NonAdmissibleError is raised.

Elements are coordinate row vectors over the path basis.  The basis always
contains every trivial path and every arrow, because relations live in the
square of the arrow ideal so Gaussian elimination only ever pivots on
longer words.

The opposite algebra is this one relabelled by reversing every word, so
an element has the same coordinates over both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedEndpointsError, NonAdmissibleError
from .field import PrimeField

# the longest path length build_algebra tries before it calls the
# relations non-admissible
NILPOTENCY_CAP = 30


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Quiver:
    """Finite quiver on vertices 1..num_vertices with named arrows."""

    def __init__(self, num_vertices: int, arrows: list[Arrow]):
        if num_vertices < 1:
            raise ValueError("a quiver needs at least one vertex")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be distinct")
        for a in arrows:
            if not (1 <= a.source <= num_vertices and 1 <= a.target <= num_vertices):
                raise ValueError(f"arrow {a.name}: endpoints outside 1..{num_vertices}")
        self.num_vertices = num_vertices
        self.arrows = list(arrows)
        self._by_name = {a.name: i for i, a in enumerate(arrows)}

    def arrow_index(self, name: str) -> int:
        if name not in self._by_name:
            raise KeyError(f"no arrow named {name!r}")
        return self._by_name[name]

    def arrows_from(self, v: int) -> list[int]:
        return [i for i, a in enumerate(self.arrows) if a.source == v]

    def __repr__(self):
        return f"Quiver({self.num_vertices} vertices, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class Relation:
    """Linear combination of parallel paths, each path a tuple of arrow
    names, set to zero.  All paths must share source and target."""

    terms: tuple[tuple[int, tuple[str, ...]], ...]


@dataclass(frozen=True)
class RadicalPower:
    """Shorthand relation: every path of the given length is zero."""

    power: int


# A word is (source_vertex, tuple_of_arrow_indices); the vertex is
# redundant for nonempty words but keeps trivial paths uniform.


def _word_target(quiver: Quiver, word) -> int:
    src, arrows = word
    return src if not arrows else quiver.arrows[arrows[-1]].target


def _words_by_length(quiver: Quiver, max_len: int) -> list[list]:
    levels = [sorted((v, ()) for v in range(1, quiver.num_vertices + 1))]
    for _ in range(max_len):
        nxt = []
        for src, arrows in levels[-1]:
            tail = _word_target(quiver, (src, arrows))
            for ai in quiver.arrows_from(tail):
                nxt.append((src, arrows + (ai,)))
        levels.append(sorted(nxt))
    return levels


def _normalise_relations(quiver: Quiver, relations, field: PrimeField):
    """Expand radical powers, validate endpoints, convert to arrow indices.

    Returns a list of (source, target, min_length, [(coeff, arrow_ids)]).
    """
    out = []
    for rel in relations:
        if isinstance(rel, RadicalPower):
            if rel.power < 2:
                raise NonAdmissibleError("radical power relations need exponent >= 2")
            for level in _words_by_length(quiver, rel.power)[rel.power]:
                src, arrows = level
                tgt = _word_target(quiver, level)
                out.append((src, tgt, rel.power, [(1, arrows)]))
            continue
        terms = []
        endpoints = None
        for coeff, path in rel.terms:
            coeff = int(coeff) % field.p
            if coeff == 0:
                continue
            if len(path) < 2:
                raise NonAdmissibleError(
                    "relation terms must be paths of length >= 2"
                )
            ids = tuple(quiver.arrow_index(nm) for nm in path)
            for a, b in zip(ids, ids[1:]):
                if quiver.arrows[a].target != quiver.arrows[b].source:
                    raise ValueError(f"path {'*'.join(path)} is not composable")
            ends = (quiver.arrows[ids[0]].source, quiver.arrows[ids[-1]].target)
            if endpoints is None:
                endpoints = ends
            elif endpoints != ends:
                raise MixedEndpointsError(
                    "relation mixes paths with different endpoints: "
                    f"{endpoints} vs {ends}"
                )
            terms.append((coeff, ids))
        if terms:
            src, tgt = endpoints
            out.append((src, tgt, min(len(t[1]) for t in terms), terms))
    return out


def _quotient_level(quiver, rels, field, level):
    """Basis data for the path algebra modulo relations and all words of
    length >= level."""
    levels = _words_by_length(quiver, level - 1)
    words = [w for lv in levels for w in lv]
    index = {w: i for i, w in enumerate(words)}
    by_target = {}
    by_source = {}
    for w in words:
        by_target.setdefault(_word_target(quiver, w), []).append(w)
        by_source.setdefault(w[0], []).append(w)

    rows = []
    for src, tgt, minlen, terms in rels:
        budget = level - 1 - minlen
        for p in by_target.get(src, []):
            if len(p[1]) > budget:
                continue
            for q in by_source.get(tgt, []):
                if len(p[1]) + len(q[1]) > budget:
                    continue
                row = np.zeros(len(words), dtype=np.int64)
                for coeff, ids in terms:
                    full = p[1] + ids + q[1]
                    if len(full) < level:
                        row[index[(p[0], full)]] += coeff
                rows.append(row % field.p)
    if rows:
        rr, piv = field.rref(np.array(rows, dtype=np.int64))
    else:
        rr, piv = field.zeros(0, len(words)), []
    return words, rr, piv


def _basis_and_canon(words, rr, piv, field) -> tuple:
    """The basis (the non-pivot words) and canon for build_algebra."""
    pivset = set(piv)
    y = field.identity(len(words))
    for i, c in enumerate(piv):
        y[c] = (y[c] - rr[i]) % field.p
    nonpiv = [i for i in range(len(words)) if i not in pivset]
    return [words[i] for i in nonpiv], y[:, nonpiv].copy()


def build_algebra(quiver: Quiver, relations,
                  field: PrimeField | None = None) -> "BoundQuiverAlgebra":
    """Quotient of the path algebra of the quiver by the relations.

    Raises NonAdmissibleError when the quotient dimension has not
    stabilised by path length NILPOTENCY_CAP, i.e. the relations leave
    arbitrarily long nonzero paths.
    """
    field = field or PrimeField()
    rels = _normalise_relations(quiver, relations, field)
    prev = None
    for level in range(2, NILPOTENCY_CAP + 2):
        words, rr, piv = _quotient_level(quiver, rels, field, level)
        dim = len(words) - len(piv)
        if prev is not None and prev[0] == dim:
            _, pwords, prr, ppiv, plevel = prev
            return BoundQuiverAlgebra(
                quiver, relations, field, plevel, pwords,
                *_basis_and_canon(pwords, prr, ppiv, field))
        prev = (dim, words, rr, piv, level)
    raise NonAdmissibleError(
        f"quotient dimension still growing at path length {NILPOTENCY_CAP}; "
        "the relations do not bound the algebra"
    )


class BoundQuiverAlgebra:
    """Finite-dimensional quotient of a path algebra, with a fixed path
    basis, structure constants, and the opposite algebra on demand.

    Built by build_algebra or opposite(), not directly; canon takes the
    coordinates of words, every word below the truncation level, to basis
    coordinates.  The structure constants are the nonzero triples, four 1-D
    arrays (i, j, m, c): word i * word j has coefficient c at word m.  Only
    this class reads them; opposite() shares them with i and j swapped.
    """

    def __init__(self, quiver, relations, field, level, words, basis_words,
                 canon, constants=None):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field
        self.level = level
        self._words = words
        self._word_index = {w: i for i, w in enumerate(words)}
        self.basis_words = basis_words
        self.dim = len(self.basis_words)
        field.check_trace_bound(self.dim)
        field.check_exact(self.dim)
        self._canon = canon

        self._sources = np.array([w[0] for w in self.basis_words], dtype=np.int64)
        self._targets = np.array(
            [_word_target(quiver, w) for w in self.basis_words], dtype=np.int64
        )
        self._lengths = np.array([len(w[1]) for w in self.basis_words], dtype=np.int64)
        self._trivial = {v: k for k, (v, arrows) in enumerate(self.basis_words)
                         if not arrows}
        self._arrow_pos = {arrows[0]: k for k, (v, arrows) in
                           enumerate(self.basis_words) if len(arrows) == 1}
        self._slices = {}
        for k in range(self.dim):
            key = (int(self._sources[k]), int(self._targets[k]))
            self._slices.setdefault(key, []).append(k)

        self._constants = constants or self._structure_constants()
        self._opposite = None
        self._cache = {}
        # what the parser read, for algebra_json; set by textio
        self.file_meta = None

    def _structure_constants(self) -> tuple:
        """(i, j, m, c): one gather of the canon rows of the products of
        composable basis words, cut to their nonzero entries."""
        us, vs = np.nonzero((self._targets[:, None] == self._sources)
                            & (self._lengths[:, None] + self._lengths < self.level))
        words = self.basis_words
        rows = self._canon[[self._word_index[(words[u][0], words[u][1] + words[v][1])]
                            for u, v in zip(us, vs)]]
        k, m = np.nonzero(rows)
        return us[k], vs[k], m, rows[k, m]

    def __repr__(self):
        return (f"BoundQuiverAlgebra(dim={self.dim}, "
                f"vertices={self.quiver.num_vertices}, p={self.field.p})")

    @property
    def num_vertices(self) -> int:
        return self.quiver.num_vertices

    # -- elements ---------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def trivial_index(self, v: int) -> int:
        return self._trivial[v]

    def trivial_path(self, v: int) -> np.ndarray:
        x = self.zero()
        x[self._trivial[v]] = 1
        return x

    def element_from_path(self, names) -> np.ndarray:
        """Canonical coordinates of a composable path given by arrow names."""
        ids = tuple(self.quiver.arrow_index(nm) for nm in names)
        for a, b in zip(ids, ids[1:]):
            if self.quiver.arrows[a].target != self.quiver.arrows[b].source:
                raise ValueError(f"path {'*'.join(names)} is not composable")
        if not ids:
            raise ValueError("empty path: use trivial_path(vertex)")
        if len(ids) >= self.level:
            return self.zero()
        return self._canon[self._word_index[(self.quiver.arrows[ids[0]].source, ids)]].copy()

    def target_of(self, basis_index: int) -> int:
        return int(self._targets[basis_index])

    def slice_indices(self, i: int, j: int) -> list[int]:
        """Basis indices of paths from i to j."""
        return list(self._slices.get((i, j), []))

    def slice_mask(self, tverts, sverts) -> np.ndarray:
        """Boolean mask of shape (len(tverts), len(sverts), dim) marking the
        basis paths from tverts[r] to sverts[c]."""
        t = np.asarray(tverts, dtype=np.int64).reshape(-1, 1, 1)
        s = np.asarray(sverts, dtype=np.int64).reshape(1, -1, 1)
        return (self._sources == t) & (self._targets == s)

    def paths_from(self, i: int) -> list[int]:
        return [k for k in range(self.dim) if self._sources[k] == i]

    # -- arithmetic -------------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.field.matmul(self.field.reduce(y), self.left_table(x))

    def left_table(self, a: np.ndarray) -> np.ndarray:
        """Left multiplication by the entries of a, of shape (..., dim):
        t[..., j, m] is the coefficient of basis word m in a[...] * word j."""
        return self._table(a, *self._constants)

    def right_table(self, b: np.ndarray) -> np.ndarray:
        """Right multiplication by the entries of b, of shape (..., dim):
        t[..., i, m] is the coefficient of basis word m in word i * b[...]."""
        i, j, m, c = self._constants
        return self._table(b, j, i, m, c)

    def arrow_actions(self) -> np.ndarray:
        """Right multiplication by each arrow, in quiver order: t[a, k, m] is
        the coefficient of basis word m in word k * arrow a.  Read-only."""
        if "arrow_actions" not in self._cache:
            pos = [self._arrow_pos[a] for a in range(len(self.quiver.arrows))]
            acts = self.right_table(self.field.identity(self.dim)[pos])
            acts.flags.writeable = False
            self._cache["arrow_actions"] = acts
        return self._cache["arrow_actions"]

    def form_pairing(self, form: np.ndarray) -> np.ndarray:
        """g[a, b] = form(word a * word b), for the linear form with the
        given values on the basis words."""
        i, j, m, c = self._constants
        return self._table(form, m, i, j, c)

    def _table(self, a, factor, row, col, coeff) -> np.ndarray:
        """t[..., r, s]: the sum of a[..., factor] * coeff over the constants
        at (row, col) = (r, s), at most dim reduced products per cell."""
        d, p = self.dim, self.field.p
        flat = self.field.reduce(a).reshape(-1, d)
        out = np.zeros((len(flat), d, d), dtype=np.int64)
        np.add.at(out, (slice(None), row, col), flat[:, factor] * coeff % p)
        out[:, row, col] %= p
        return out.reshape(np.shape(a)[:-1] + (d, d))

    def element_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of matrices with algebra-element entries.

        a has shape (r, k, dim), b has shape (k, c, dim); the result is
        (r, c, dim) with entries sum_k a[i,k] * b[k,j].
        """
        return self.operator_matmul(self.left_operator(a), b)

    def left_operator(self, a: np.ndarray) -> tuple:
        """Left multiplication by the element matrix a of shape (r, k, dim),
        as (r, rows, cols, values): left_table(a) laid out as a matrix from
        (k, dim) to (r, dim) coordinates, cut down to its nonzero rows and
        columns.  Entries of a lie in a few slices e_i A e_j, so the cut
        matrix is much smaller than the table and is what a caller keeps
        to multiply by a again."""
        r, k, d = a.shape
        left = self.left_table(a).transpose(0, 3, 1, 2).reshape(r * d, k * d)
        rows = np.flatnonzero(left.any(axis=1))
        cols = np.flatnonzero(left.any(axis=0))
        return r, rows, cols, left[np.ix_(rows, cols)]

    def operator_matmul(self, op: tuple, b: np.ndarray) -> np.ndarray:
        """element_matmul(a, b) from op = left_operator(a)."""
        r, rows, cols, values = op
        k, c, d = b.shape
        right = self.field.reduce(b).transpose(0, 2, 1).reshape(k * d, c)
        out = np.zeros((r * d, c), dtype=np.int64)
        out[rows] = self.field.matmul(values, right[cols])
        return out.reshape(r, d, c).transpose(0, 2, 1)

    def is_local_unit(self, x: np.ndarray, v: int) -> bool:
        """Whether x, known to lie in e_v A e_v, is a unit there."""
        return int(x[self._trivial[v]]) % self.field.p != 0

    def local_inverse(self, x: np.ndarray, v: int) -> np.ndarray:
        """Inverse inside the local ring e_v A e_v, via geometric series:
        the radical part is nilpotent."""
        p = self.field.p
        x = self.field.reduce(x)
        c = int(x[self._trivial[v]])
        if c == 0:
            raise ValueError("element is not a unit in its local ring")
        cinv = self.field.inv_scalar(c)
        ev = self.trivial_path(v)
        r = (ev - cinv * x) % p
        acc = ev.copy()
        power = r.copy()
        for _ in range(self.level + 1):
            if not power.any():
                break
            acc = (acc + power) % p
            power = self.multiply(power, r)
        else:
            raise AssertionError("radical part failed to vanish")
        return (cinv * acc) % p

    def normalised_relations(self):
        """Relations as (source, target, min_length, [(coeff, arrow_ids)]),
        radical powers expanded."""
        if "rels" not in self._cache:
            self._cache["rels"] = _normalise_relations(
                self.quiver, self.relations, self.field
            )
        return self._cache["rels"]

    def boundary_words(self):
        """Words of length equal to the truncation level; these act as zero
        on every module."""
        if "boundary" not in self._cache:
            self._cache["boundary"] = _words_by_length(self.quiver, self.level)[self.level]
        return self._cache["boundary"]

    # -- opposite algebra -------------------------------------------------

    def opposite(self) -> "BoundQuiverAlgebra":
        """The opposite algebra on the reversed quiver, whose basis is this
        basis with every word reversed, in the same order: reversal maps
        the relations' ideal onto the reversed relations' ideal, so the
        anti-isomorphism is the identity on coordinates and the structure
        constants are these with the factors swapped.  Cached and
        cross-linked so op of op is the original object."""
        if self._opposite is None:
            rq = Quiver(self.quiver.num_vertices,
                        [Arrow(a.name, a.target, a.source) for a in self.quiver.arrows])
            rrels = [rel if isinstance(rel, RadicalPower) else Relation(tuple(
                (c, tuple(reversed(path))) for c, path in rel.terms))
                for rel in self.relations]

            def rev(w):
                return _word_target(self.quiver, w), tuple(reversed(w[1]))

            i, j, m, c = self._constants
            op = BoundQuiverAlgebra(
                rq, rrels, self.field, self.level,
                [rev(w) for w in self._words],
                [rev(w) for w in self.basis_words], self._canon, (j, i, m, c))
            op._opposite = self
            self._opposite = op
        return self._opposite

    def release(self) -> None:
        """Drop the caches of this algebra and of its opposite, and unlink
        the two.  Cached modules point back at their algebra, so while a
        cache or the opposite link is kept the algebra sits in reference
        cycles that only the cyclic collector frees; after release() it is
        freed by reference counting as soon as its last user lets go.
        cli.main calls this when each command returns; a long-running
        library caller that is done with an algebra may call it too.
        Both algebras stay usable: caches are rebuilt on demand, opposite()
        builds a new opposite, and file_meta stays.  Calling it again is
        harmless."""
        op, self._opposite = self._opposite, None
        self._cache.clear()
        if op is not None:
            op._opposite = None
            op._cache.clear()

    # -- formatting -------------------------------------------------------

    def label(self, basis_index: int) -> str:
        src, arrows = self.basis_words[basis_index]
        if not arrows:
            return f"e_{src}"
        return "*".join(self.quiver.arrows[a].name for a in arrows)

    def format_element(self, x: np.ndarray) -> str:
        p = self.field.p
        parts = []
        for k in range(self.dim):
            c = int(x[k]) % p
            if c == 0:
                continue
            if c > p // 2:
                c -= p
            mag = abs(c)
            term = self.label(k) if mag == 1 else f"{mag}*{self.label(k)}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        head = parts[0]
        head = head[2:] if head.startswith("+ ") else "-" + head[2:]
        return " ".join([head] + parts[1:])
