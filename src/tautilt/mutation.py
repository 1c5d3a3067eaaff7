"""Irreducible mutation of two-term silting complexes and exhaustive
enumeration of all of them by breadth-first mutation.

Mutation at an indecomposable summand X of P = X + Q forms the cone over
the minimal left add(Q)-approximation of X, or dually the cocone over the
minimal right approximation (Aihara-Iyama, J. LMS 2012).  The minimal
approximation takes, for each summand q of Q, a basis of Hom(X, q) modulo
homotopy and the maps that factor through a radical map inside add(Q);
the radical of End(q) is the kernel of the top trace, the trace of the
action on the top of q's projectives.  Its reduced cone is then the new
indecomposable itself, so nothing is decomposed: one check per result
confirms that its endomorphism ring is local.  A cone is a three-term
complex, and it reduces to a two-term one exactly when unit elimination
(complexes.eliminate_units) empties the outer degree.  Exactly one of the
two directions survives for each summand.  Any other count of survivors,
a result in add(Q) or equal to X, and a result whose endomorphism ring is
not local raise MutationAmbiguousError.

Two-term presilting complexes are determined by their g-vectors
(Adachi-Iyama-Reiten, Compos. Math. 2014), and a minimal one has no
vertex in both degrees, so its sorted vertex lists are its g-vector.  The
enumeration walks the mutation graph from the stalk of the algebra over a
registry of indecomposable complexes keyed by g-vector, and records every
edge in both directions.  The first lookup that lands on a registered
item confirms it by the top-trace pairing, which is exact because every
item has a local endomorphism ring.  By the same paper, P + Q is
presilting exactly when Hom(P, Q[1]) = 0 = Hom(Q, P[1]), and an almost
complete two-term presilting complex has exactly two completions.  So the
edge at a summand X of a node is the one registered item outside the
node that is compatible in this sense with the rest of it; a second such
item is a TheoremViolationError.  Each item keeps a bitmask of the items
compatible with it, extended as the registry grows, and the completion is
the AND of the masks of the rest of the node.  Only when none is
registered yet is the mutation computed, and its result is new, so the
walk mutates once per indecomposable beyond the stalks it starts from.
The Hom spaces and radical maps that the approximations read are kept
once per ordered pair of registry items, each map with its left
multiplication operator, so every composite in an approximation is one
product by a kept operator; each complex keeps the multiplication tables
of its own differential (complexes.TwoTermComplex).  Whether a node is tilting is
read from per-item bitmasks of the j with Hom(i, j[-1]) = 0.

Over a selfinjective algebra the stable (tilting) nodes are reached
without the whole graph: walk_nu_stable visits only them, stepping from
each stable node by tilting mutation at each orbit of the Nakayama functor
on its items (Aihara-Iyama, J. LMS 2012), on the same registry and
tables.  The neighbour is looked up as the one union of candidate orbits
compatible with the rest of the node; only when it is not registered is
one item mutated, and the result carried round the orbit by the functor.
"""

from __future__ import annotations

import numpy as np

from .complexes import (
    TwoTermComplex,
    chain_maps_mod_homotopy,
    eliminate_units,
    hom_dim,
    isomorphic_by_top_trace,
    nu_complex,
    projective_stalk,
    silting_classes,
    sum_complexes,
    top_action,
    top_trace,
)
from .errors import (
    MutationAmbiguousError,
    NotSiltingError,
    TheoremViolationError,
)
from .modules import _is_local


def _radical_maps(q: TwoTermComplex, maps: tuple, same: bool) -> tuple:
    """Radical maps q -> r between summands of Q, from maps, a basis of
    Hom(q, r) modulo homotopy: all of it when they are different summands,
    and the kernel of the top trace on End_K(q) when they are the same
    one."""
    if not same:
        return maps
    p = q.algebra.field.p
    traces = [top_trace(q, f1, f0) for f1, f0 in maps]
    k = next((k for k, t in enumerate(traces) if t), None)
    if k is None:
        raise MutationAmbiguousError(
            "a fixed summand has no endomorphism with nonzero top trace")
    u1, u0 = maps[k]
    inv = q.algebra.field.inv_scalar(traces[k])
    return tuple(((f1 - t * inv % p * u1) % p, (f0 - t * inv % p * u0) % p)
                 for n, ((f1, f0), t) in enumerate(zip(maps, traces))
                 if n != k)


def _frozen(maps) -> tuple:
    """A list of chain maps as a tuple of read-only pairs."""
    for pair in maps:
        for f in pair:
            f.flags.writeable = False
    return tuple(tuple(pair) for pair in maps)


class _PairMaps:
    """chain_maps_mod_homotopy(p, q) and the radical maps p -> q, computed
    once per ordered pair of complex objects and kept read-only, each with
    the left multiplication operators of its maps
    (algebra.left_operator), built the first time they are composed.  The
    walk keeps one for its registry items; each mutate_summand call
    without it makes its own."""

    def __init__(self):
        self._homs: dict = {}
        self._radical: dict = {}
        self._operators: dict = {}

    def homs(self, p: TwoTermComplex, q: TwoTermComplex) -> tuple:
        if (p, q) not in self._homs:
            self._homs[p, q] = _frozen(chain_maps_mod_homotopy(p, q))
        return self._homs[p, q]

    def radical(self, q: TwoTermComplex, r: TwoTermComplex) -> tuple:
        if (q, r) not in self._radical:
            self._radical[q, r] = _frozen(
                _radical_maps(q, self.homs(q, r), q is r))
        return self._radical[q, r]

    def hom_operators(self, p: TwoTermComplex, q: TwoTermComplex) -> tuple:
        """The left operators (of f1, of f0) of each map in homs(p, q)."""
        return self._left_operators("homs", p, q, self.homs)

    def radical_operators(self, q: TwoTermComplex,
                          r: TwoTermComplex) -> tuple:
        """The left operators (of g1, of g0) of each map in radical(q, r)."""
        return self._left_operators("radical", q, r, self.radical)

    def _left_operators(self, kind: str, p, q, maps) -> tuple:
        key = (kind, p, q)
        if key not in self._operators:
            left = p.algebra.left_operator
            self._operators[key] = tuple(
                (left(f1), left(f0)) for f1, f0 in maps(p, q))
        return self._operators[key]


def _approximation(x: TwoTermComplex, q_reps: list, left: bool,
                   maps: _PairMaps) -> list:
    """The minimal left (or right) add(Q)-approximation of x as a list of
    (q, f1, f0), one per copy of a summand q of Q.  The maps x -> q (or
    q -> x) to each q form a basis of Hom_K modulo the maps that factor
    through a radical map inside add(Q), so no copy is redundant.  Each
    composite is one product by the kept operator of its left factor."""
    mul = x.algebra.operator_matmul
    ends = (lambda q: (x, q)) if left else (lambda q: (q, x))
    homs = [maps.homs(*ends(q)) for q in q_reps]
    copies = []
    for i, qi in enumerate(q_reps):
        if not homs[i]:
            continue
        factored = []
        for j, qj in enumerate(q_reps):
            if not homs[j]:
                continue
            if left:  # x -> qj -> qi
                factored += [(mul(t1, f1), mul(t0, f0))
                             for t1, t0 in maps.radical_operators(qj, qi)
                             for f1, f0 in homs[j]]
            else:  # qi -> qj -> x
                factored += [(mul(t1, g1), mul(t0, g0))
                             for g1, g0 in maps.radical(qi, qj)
                             for t1, t0 in maps.hom_operators(qj, x)]
        # with nothing factored, the basis modulo homotopy is homs[i] itself
        kept = (chain_maps_mod_homotopy(*ends(qi), factored) if factored
                else homs[i])
        copies += [(qi, f1, f0) for f1, f0 in kept]
    return copies


def _left_candidate(x: TwoTermComplex, copies: list) -> TwoTermComplex | None:
    """Reduced cone over the left approximation x -> (sum of copies), or
    None when it stays three-term."""
    alg = x.algebra
    t1 = [v for q, _, _ in copies for v in q.deg1]
    t0 = [v for q, _, _ in copies for v in q.deg0]
    va = list(x.deg1)
    vb = t1 + list(x.deg0)
    vc = list(t0)
    da = np.zeros((len(vb), len(va), alg.dim), dtype=np.int64)
    db = np.zeros((len(vc), len(vb), alg.dim), dtype=np.int64)
    r1 = r0 = 0
    for q, f1, f0 in copies:
        da[r1:r1 + len(q.deg1)] = f1
        db[r0:r0 + len(q.deg0), r1:r1 + len(q.deg1)] = q.d
        db[r0:r0 + len(q.deg0), len(t1):] = f0
        r1 += len(q.deg1)
        r0 += len(q.deg0)
    da[len(t1):] = (-x.d) % alg.field.p
    (va, vb, vc), (_, db) = eliminate_units(alg, [va, vb, vc], [da, db])
    if va:
        return None
    return TwoTermComplex(alg, vb, vc, db, check=False)


def _right_candidate(x: TwoTermComplex, copies: list) -> TwoTermComplex | None:
    """Reduced cocone over the right approximation (sum of copies) -> x,
    or None when it stays three-term."""
    alg = x.algebra
    t1 = [v for q, _, _ in copies for v in q.deg1]
    t0 = [v for q, _, _ in copies for v in q.deg0]
    va = list(t1)
    vb = t0 + list(x.deg1)
    vc = list(x.deg0)
    da = np.zeros((len(vb), len(va), alg.dim), dtype=np.int64)
    db = np.zeros((len(vc), len(vb), alg.dim), dtype=np.int64)
    r1 = r0 = 0
    for q, g1, g0 in copies:
        da[r0:r0 + len(q.deg0), r1:r1 + len(q.deg1)] = q.d
        da[len(t0):, r1:r1 + len(q.deg1)] = g1
        db[:, r0:r0 + len(q.deg0)] = g0
        r1 += len(q.deg1)
        r0 += len(q.deg0)
    db[:, len(t0):] = (-x.d) % alg.field.p
    (va, vb, vc), (da, _) = eliminate_units(alg, [va, vb, vc], [da, db])
    if vc:
        return None
    return TwoTermComplex(alg, va, vb, da, check=False)


def g_vector_key(c: TwoTermComplex) -> tuple:
    """(sorted deg -1 vertices, sorted deg 0 vertices).  On minimal
    presilting complexes, which share no vertex between the degrees, this
    is the g-vector, and it determines the complex up to isomorphism."""
    return tuple(sorted(c.deg1)), tuple(sorted(c.deg0))


def require_local(c: TwoTermComplex, ends) -> None:
    """Raise MutationAmbiguousError unless End_K(c) of the minimal complex c,
    with basis ends (chain_maps_mod_homotopy(c, c)), is local with residue
    field the ground field: the trace pairing tr(T(f) T(g)) of the top
    actions on End_K(c) must have rank one, as in
    modules.is_indecomposable."""
    if not _is_local([{0: top_action(c, f1, f0)} for f1, f0 in ends],
                     c.algebra.field):
        raise MutationAmbiguousError(
            "mutation produced a complex whose endomorphism ring is not local")


def mutate_summand(x: TwoTermComplex, q_reps: list, *,
                   _maps: _PairMaps | None = None) -> TwoTermComplex:
    """The unique other indecomposable complement of add(Q) at X, reached
    by whichever of left and right mutation stays two-term.  The walk
    passes its own _maps so that Hom between its items is computed once."""
    maps = _PairMaps() if _maps is None else _maps
    left = _left_candidate(x, _approximation(x, q_reps, True, maps))
    right = _right_candidate(x, _approximation(x, q_reps, False, maps))
    outs = [c for c in (left, right) if c is not None]
    if len(outs) != 1:
        raise MutationAmbiguousError(
            f"{len(outs)} mutation directions stayed two-term"
        )
    (y,) = outs
    if g_vector_key(y) in {g_vector_key(q) for q in q_reps}:
        raise MutationAmbiguousError("mutation produced a fixed summand")
    if g_vector_key(y) == g_vector_key(x):
        raise MutationAmbiguousError("mutation reproduced the mutated summand")
    require_local(y, maps.homs(y, y))
    return y


def mutate_silting(c: TwoTermComplex, index: int) -> TwoTermComplex:
    """Mutate a basic two-term silting complex at its index-th summand
    class (in decomposition order, complexes.silting_classes).  Returns
    the mutated silting complex."""
    found = silting_classes(c)
    if found is None:
        raise NotSiltingError("mutation input is not a two-term silting complex")
    classes = [x for _, x, _ in found]
    if not (0 <= index < len(classes)):
        raise ValueError(f"summand index {index} out of range")
    x = classes[index]
    q_reps = [rep for k, rep in enumerate(classes) if k != index]
    y = mutate_summand(x, q_reps)
    return sum_complexes(q_reps[:index] + [y] + q_reps[index:])


# -- enumeration ---------------------------------------------------------------


class ComplexRegistry:
    """Indecomposable minimal presilting complexes keyed by g-vector, with
    stable integer ids in insertion order.  The first lookup that lands on
    an existing item is cross-checked by the top-trace pairing
    (complexes.isomorphic_by_top_trace).  That test is exact because
    End_K of every item is local with residue field the ground field: a
    stalk because the algebra is basic, a mutation result because it
    passed require_local, and a Nakayama image because the Nakayama
    functor is an auto-equivalence."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.items: list[TwoTermComplex] = []
        self._ids: dict = {}
        self._confirmed: set = set()

    def get_or_insert(self, c: TwoTermComplex) -> int:
        key = g_vector_key(c)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.items)
            self.items.append(c)
        elif i not in self._confirmed:
            if not isomorphic_by_top_trace(self.items[i], c):
                raise TheoremViolationError(
                    "two complexes with one g-vector are not isomorphic")
            self._confirmed.add(i)
        return i

    def __len__(self):
        return len(self.items)


class ItemMasks:
    """A fact about ordered pairs of registry items, kept per item i as two
    bitmasks over item ids: the j for which fact(i, j) is known, and the j
    for which it holds.  Facts are computed on first need, so a set of
    items is checked with one AND per item once its pairs are known.  The
    fact is passed to each all_hold call and not kept, so an owner whose
    fact is one of its own methods holds no reference cycle."""

    def __init__(self):
        self._known: dict = {}
        self._holds: dict = {}

    def all_hold(self, ids, fact) -> bool:
        """Whether fact(i, j) for all i and j in ids.  Unknown pairs are
        computed row by row in the order of ids, stopping at the first
        pair where the fact fails."""
        mask = 0
        for j in ids:
            mask |= 1 << j
        for i in ids:
            known = self._known.get(i, 0)
            holds = self._holds.get(i, 0)
            if mask & ~known:
                for j in ids:
                    bit = 1 << j
                    if not known & bit:
                        known |= bit
                        if fact(i, j):
                            holds |= bit
                    if not holds & bit:
                        break
                self._known[i], self._holds[i] = known, holds
            if mask & ~holds:
                return False
        return True


class EnumerationResult:
    """Mutation graph of basic two-term silting complexes.

    nodes are frozensets of registry ids in discovery order: every node
    for the whole walk, only the stable nodes for walk_nu_stable.
    edges[node] maps a summand id (whole walk) or a frozenset of them, an
    orbit of the Nakayama functor (walk_nu_stable), to the neighbouring
    node reached by mutating there, recorded both ways.  status is
    COMPLETE when the walk was exhausted and TRUNCATED when the node cap
    stopped it.
    Facts about registry items are kept per item or per pair of items:
    Hom(-, -[shift]) dimensions, Nakayama images, compatibility masks, the
    masks of vanishing Hom(i, j[-1]) that decide tilting, and the chain
    maps that mutation reads with their multiplication operators.
    """

    def __init__(self, algebra, registry, nodes, edges, status):
        self.algebra = algebra
        self.registry = registry
        self.nodes = nodes
        self.edges = edges
        self.status = status
        self._hom_cache: dict = {}
        self._nu_cache: dict = {}
        self._masks: dict = {}
        self._maps = _PairMaps()
        self._no_negative = ItemMasks()

    def node_complex(self, node) -> TwoTermComplex:
        return sum_complexes([self.registry.items[i] for i in sorted(node)])

    def hom_shift(self, i: int, j: int, shift: int) -> int:
        key = (i, j, shift)
        if key not in self._hom_cache:
            self._hom_cache[key] = hom_dim(
                self.registry.items[i], self.registry.items[j], shift)
        return self._hom_cache[key]

    def compatible_mask(self, i: int) -> int:
        """Bitmask of the registry items y that sum with item i to a
        presilting complex: Hom(i, y[1]) = 0 = Hom(y, i[1]).  A minimal
        presilting sum has no vertex in both degrees (sign-coherence;
        Adachi-Iyama-Reiten 2014, Demonet-Iyama-Jasso 2019), so a y that
        shares one with i is dropped before any Hom is computed.  Ids only
        grow, so the mask is extended over the ids registered since the
        last call."""
        items = self.registry.items
        a = items[i]
        mask, known = self._masks.get(i, (0, 0))
        for y in range(known, len(items)):
            b = items[y]
            if (set(a.deg1).isdisjoint(b.deg0)
                    and set(a.deg0).isdisjoint(b.deg1)
                    and self.hom_shift(i, y, 1) == 0 == self.hom_shift(y, i, 1)):
                mask |= 1 << y
        self._masks[i] = mask, len(items)
        return mask

    def is_node_tilting(self, node) -> bool:
        """Whether Hom(i, j[-1]) = 0 for all items i and j of the node."""
        return self._no_negative.all_hold(node, self._no_negative_hom)

    def _no_negative_hom(self, i: int, j: int) -> bool:
        return self.hom_shift(i, j, -1) == 0

    def nu_id(self, i: int) -> int:
        if i not in self._nu_cache:
            self._nu_cache[i] = self.registry.get_or_insert(
                nu_complex(self.registry.items[i]))
        return self._nu_cache[i]

    def is_node_nu_stable(self, node) -> bool:
        return frozenset(self.nu_id(i) for i in node) == node


def find_completion(result: EnumerationResult, node, x: int) -> int | None:
    """The registry item other than x that completes node - {x}, or None
    when the registry does not hold it yet.  A candidate is any item outside
    node compatible with the rest q of the node, Hom(y, q[1]) = 0 =
    Hom(q, y[1]): the AND of their compatibility masks with the node's
    bits cleared.  An almost complete presilting complex has exactly two
    completions, so a second candidate is a contradiction."""
    found = (1 << len(result.registry)) - 1
    for q in node:
        found &= ~(1 << q)
        if q != x:
            found &= result.compatible_mask(q)
    count = found.bit_count()
    if count > 1:
        raise TheoremViolationError(
            f"{count} registry items complete one almost complete "
            "presilting complex")
    return found.bit_length() - 1 if found else None


def start_walk(algebra) -> EnumerationResult:
    """A walk holding one node, the stalk of the algebra, and no edges."""
    registry = ComplexRegistry(algebra)
    start = frozenset(
        registry.get_or_insert(projective_stalk(algebra, [v]))
        for v in range(1, algebra.num_vertices + 1))
    return EnumerationResult(algebra, registry, [start], {}, "COMPLETE")


def walk_from(result: EnumerationResult, cap: int) -> None:
    """Breadth-first walk from result.nodes[0].  Each edge is looked up in
    result.edges, then in the registry; only an edge to an item not yet
    registered runs a mutation, which then registers it.  A node reached
    for the first time is appended to result.nodes.  The walk stops,
    setting result.status to TRUNCATED, at the first level that starts
    with more than cap nodes in result.nodes."""
    registry = result.registry
    frontier = [result.nodes[0]]
    while frontier:
        if len(result.nodes) > cap:
            result.status = "TRUNCATED"
            break
        nxt = []
        for node in sorted(frontier, key=lambda nd: tuple(sorted(nd))):
            fan = result.edges.setdefault(node, {})
            for x in sorted(node):
                if x in fan:
                    continue
                yid = find_completion(result, node, x)
                if yid is None:
                    qs = [registry.items[q] for q in sorted(node) if q != x]
                    yid = registry.get_or_insert(mutate_summand(
                        registry.items[x], qs, _maps=result._maps))
                new_node = frozenset((node - {x}) | {yid})
                fan[x] = new_node
                if new_node not in result.edges:  # first edge into it
                    result.nodes.append(new_node)
                    nxt.append(new_node)
                result.edges.setdefault(new_node, {})[yid] = node
        frontier = nxt


def nu_orbit(result: EnumerationResult, i: int) -> frozenset:
    """The orbit of the Nakayama functor through registry item i."""
    orbit = {i}
    j = result.nu_id(i)
    while j != i:
        orbit.add(j)
        j = result.nu_id(j)
    return frozenset(orbit)


def nu_orbits(result: EnumerationResult, node) -> list:
    """The orbits of the Nakayama functor on the items of a stable node,
    as frozensets ordered by their least item."""
    orbits = []
    for i in sorted(node):
        if not any(i in orbit for orbit in orbits):
            orbits.append(nu_orbit(result, i))
    return orbits


def find_stable_completion(result: EnumerationResult, node,
                           orbit) -> frozenset | None:
    """The registry items Y outside the stable node that make
    (node - orbit) + Y another stable node, or None when the registry does
    not hold them yet.  The candidates are the items outside node
    compatible with every item of node - orbit, as in find_completion,
    taken in whole orbits of the Nakayama functor; Y is a union of such
    orbits with as many items as orbit, pairwise compatible.  Then
    (node - orbit) + Y is presilting with a full count of items, so
    silting, and fixed by the Nakayama functor, so tilting; a second such
    Y is a TheoremViolationError (the tests observe exactly one stable
    node besides node that contains node - orbit).  The unions are
    searched by _unions, a module-level recursion rather than a closure
    over itself, so a call leaves no reference cycle behind."""
    found = (1 << len(result.registry)) - 1
    for q in node:
        found &= ~(1 << q)
        if q not in orbit:
            found &= result.compatible_mask(q)
    candidates = []  # (orbit, its bits, the AND of its items' masks)
    seen = set()
    for i in range(found.bit_length()):
        if found >> i & 1 and i not in seen:
            other = nu_orbit(result, i)
            seen |= other
            bits, mask = 0, -1
            for j in other:
                bits |= 1 << j
                mask &= result.compatible_mask(j)
            if bits & found & mask == bits:
                candidates.append((other, bits, mask))
    unions = _unions(candidates, len(orbit), 0, frozenset(), found)
    if len(unions) > 1:
        raise TheoremViolationError(
            f"{len(unions)} other stable nodes contain a stable node less "
            "one orbit")
    return unions[0] if unions else None


def _unions(candidates: list, size: int, k: int, items: frozenset,
            mask: int) -> list:
    """find_stable_completion's search, depth first: the unions of items
    with candidates from candidates[k:] that have size items, where each
    candidate taken lies in mask, the AND of the masks taken so far."""
    if len(items) == size:
        return [items]
    unions = []
    for m in range(k, len(candidates)):
        other, bits, own = candidates[m]
        if len(items) + len(other) <= size and bits & mask == bits:
            unions += _unions(candidates, size, m + 1, items | other,
                              mask & own)
    return unions


def _mutate_orbit(result: EnumerationResult, node, orbit) -> frozenset:
    """Tilting mutation of the stable node at the orbit: its least item x
    is mutated at node - orbit (mutate_summand) and the result y carried
    round the orbit, nu^k y standing for the mutation of nu^k x, since the
    Nakayama functor is a triangle autoequivalence fixing add(node - orbit)
    (Aihara-Iyama, J. LMS 2012).  The left mutation of the whole orbit is
    the sum of its items' left mutations, and likewise on the right, so
    every item must go one way.  A left mutation x -> Q' -> y -> x[1] has
    a nonzero connecting map, so Hom(y, x[1]) != 0, while a right one,
    y -> Q' -> x -> y[1], leaves Hom(y, x[1]) = 0 because y is compatible
    with Q'.  The new node must keep the item count and be stable, which
    confirms nu^|orbit| y = y, or a TheoremViolationError is raised."""
    registry = result.registry
    rest = [registry.items[q] for q in sorted(node - orbit)]
    x = min(orbit)
    y = registry.get_or_insert(mutate_summand(
        registry.items[x], rest, _maps=result._maps))
    ys = {}
    for _ in orbit:
        ys[x], x, y = y, result.nu_id(x), result.nu_id(y)
    if len({result.hom_shift(y, x, 1) != 0 for x, y in ys.items()}) > 1:
        raise TheoremViolationError(
            "the items of one orbit mutate in different directions")
    new_items = frozenset(ys.values())
    new_node = (node - orbit) | new_items
    if len(new_node) != len(node) or not result.is_node_nu_stable(new_node):
        raise TheoremViolationError(
            "mutation at an orbit of the Nakayama functor left the stable "
            "nodes")
    return new_items


def walk_nu_stable(algebra, cap: int = 10000) -> EnumerationResult:
    """A walk over the stable nodes only (two-term tilting complexes, over
    a selfinjective algebra).  From each stable node T, starting with the
    algebra, and each orbit X of the Nakayama functor on its items, the
    neighbour is the tilting mutation of T at X, which exchanges X for
    another set of items the Nakayama functor fixes (Aihara-Iyama, J. LMS
    2012): looked up in the registry first (find_stable_completion), else
    computed from one item of X (_mutate_orbit).  That these exchanges
    reach every stable node is checked against the whole walk by the
    tests.  result.nodes holds the stable nodes in the order found, and
    result.edges[T][X] the neighbour, recorded both ways.  cap bounds the
    count of stable nodes found, checked before each node is expanded;
    the walk stops TRUNCATED when it is exceeded."""
    result = start_walk(algebra)
    for node in result.nodes:  # grows as stable nodes are found
        if len(result.nodes) > cap:
            result.status = "TRUNCATED"
            break
        fan = result.edges.setdefault(node, {})
        for orbit in nu_orbits(result, node):
            if orbit in fan:
                continue
            ys = find_stable_completion(result, node, orbit)
            if ys is None:
                ys = _mutate_orbit(result, node, orbit)
            new_node = (node - orbit) | ys
            fan[orbit] = new_node
            if new_node not in result.edges:
                result.nodes.append(new_node)
            result.edges.setdefault(new_node, {})[ys] = node
    return result


def enumerate_two_term_silting(algebra, cap: int = 10000) -> EnumerationResult:
    """Breadth-first walk of the whole mutation graph from the stalk of
    the algebra (walk_from).  The walk draws no random numbers."""
    result = start_walk(algebra)
    walk_from(result, cap)
    return result
