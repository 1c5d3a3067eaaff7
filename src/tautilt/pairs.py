"""Support tau-tilting pairs, stability under the Nakayama functor, and the
transport between pairs and two-term silting complexes.

A pair is a basic list of indecomposable modules X together with a set of
vertices naming the projectives P that must not map into X.  The pair is
support tau-tilting when X is tau-rigid, X vanishes at every named vertex,
and the summand count |X| + |P| reaches the number of vertices.  The
correspondence with two-term silting complexes sends X to its minimal
presentation and each named vertex to a shifted projective stalk.

Every predicate of a pair, and every check flag of a module written as a
sum of indecomposable classes with multiplicities (summand_flags), is read
off a SummandTables: the translates and the Nakayama image of each class,
computed once and confirmed indecomposable once, and Hom and isomorphism
tests once per pair of classes.  By Krull-Schmidt a sum is then tau-rigid
when its Hom(X_i, tau X_j) table vanishes, and stable when the Nakayama
functor permutes its classes.  The enumerations share one table across
all nodes: each registry item's cokernel (its "top", kept in
PairEnumeration.tops) is one module object, checked once to be
indecomposable and not isomorphic to another top, whose minimal
presentation is the item itself.  Over the whole silting walk a node is
checked by bitmask tests over registry ids: tau-rigidity is an AND of
per-top masks of vanishing Hom(top_i, tau top_j).  The stable pairs come
from a walk that visits only the stable nodes (mutation.walk_nu_stable),
and each pair it visits is checked by is_support_tau_tilting_pair and
is_nu_stable_pair, the predicates check reports.

Stability under the Nakayama functor carries a second, independently
computed route, the tilting complexes, and a disagreement raises
TheoremViolationError.  Support tau-minus-tilting is decided by one
route, Hom from tau-minus; its duality with support tau-tilting over the
opposite algebra is checked by the tests, not on every call.  The
obstruction report for 2-Calabi-Yau tilted algebras only ever rules an
algebra out; a fully consistent report proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    TwoTermComplex,
    presentation_complex,
    projective_stalk,
    silting_classes,
    sum_complexes,
)
from .errors import (
    NotSiltingError,
    NotSupportTauTiltingError,
    TheoremViolationError,
)
from .modules import (
    Rep,
    _indec_iso,
    direct_sum,
    dual,
    hom_dim as module_hom_dim,
    is_indecomposable,
    minimal_presentation,
    regular,
    same_summands,
    syzygy,
    zero_module,
)
from .mutation import (
    EnumerationResult,
    ItemMasks,
    enumerate_two_term_silting,
    walk_nu_stable,
)
from .translate import (
    _nu_module_of,
    _transpose_of,
    is_selfinjective,
    nakayama_permutation,
    nu_module,
    tau,
    tau_minus,
)


@dataclass(frozen=True)
class STPair:
    """A basic pair: indecomposable modules plus complement vertices."""

    algebra: object
    modules: tuple
    pverts: tuple

    def __post_init__(self):
        _check_pverts(self.algebra, self.pverts)
        if len(self.modules) + len(self.pverts) > self.algebra.num_vertices:
            raise ValueError("more summands than the algebra has vertices")

    def module_sum(self) -> Rep:
        if not self.modules:
            return zero_module(self.algebra)
        return direct_sum(self.algebra, list(self.modules))[0]


def _check_pverts(algebra, pverts):
    """Raise ValueError unless the complement vertices are distinct
    vertices of the algebra; the least bad vertex is named."""
    if len(set(pverts)) != len(pverts):
        raise ValueError("complement vertices repeat")
    for v in sorted(pverts):
        if not 1 <= v <= algebra.num_vertices:
            raise ValueError(f"vertex {v} out of range")


def make_pair(algebra, modules, pverts) -> STPair:
    mods = tuple(sorted(modules, key=lambda m: (m.total_dim, m.dim_vector())))
    return STPair(algebra, mods, tuple(sorted(pverts)))


class SummandTables:
    """Facts about indecomposable modules, kept per module object.

    The translates and the Nakayama image of each module are computed once
    and confirmed once to be indecomposable or zero; Hom vanishing and
    isomorphism are tested once per ordered pair of modules.  One minimal
    presentation per module (for a top, its registry item) serves its
    translate and Nakayama image; tau_minus, asked once per module, is
    computed from the dual's presentation by translate.tau_minus.  Hom and
    the functors are additive, so by Krull-Schmidt every predicate of a sum
    of indecomposables is read off these tables.  One instance may hold
    modules over several algebras (the duals live over the opposite one).
    """

    def __init__(self):
        self._images: dict = {}
        self._presentations: dict = {}
        self._no_maps: dict = {}
        self._isos: dict = {}

    def _presentation(self, m: Rep) -> tuple:
        if m not in self._presentations:
            self._presentations[m] = minimal_presentation(m)
        return self._presentations[m]

    def _apply(self, functor, m: Rep) -> Rep:
        """functor(m) for tau, tau_minus or nu_module.  tau(m), the dual
        of the transpose, and nu_module(m) read the presentation of m kept
        here; tau_minus(m) presents the dual, which nothing else asks for."""
        if functor is nu_module:
            return _nu_module_of(m.algebra, self._presentation(m))
        if functor is tau_minus:
            return tau_minus(m)
        return dual(_transpose_of(m.algebra, self._presentation(m)))

    def image(self, functor, m: Rep) -> Rep:
        """functor(m) for tau, tau_minus or nu_module, computed once; raises
        TheoremViolationError when the image of m is decomposable."""
        key = (functor, m)
        if key not in self._images:
            y = self._apply(functor, m)
            if not y.is_zero() and not is_indecomposable(y):
                raise TheoremViolationError(
                    f"{functor.__name__} of an indecomposable module is "
                    "decomposable")
            self._images[key] = y
        return self._images[key]

    def hom_vanishes(self, sources, targets) -> bool:
        """Whether Hom(a, b) = 0 for every a in sources and b in targets."""
        for a in sources:
            for b in targets:
                if a.is_zero() or b.is_zero():
                    continue
                if (a, b) not in self._no_maps:
                    self._no_maps[(a, b)] = module_hom_dim(a, b) == 0
                if not self._no_maps[(a, b)]:
                    return False
        return True

    def iso(self, a: Rep, b: Rep) -> bool:
        if (a, b) not in self._isos:
            self._isos[(a, b)] = _indec_iso(a, b)
        return self._isos[(a, b)]

    def same_sum(self, xs, ys) -> bool:
        """Whether two lists of (indecomposable, multiplicity) give
        isomorphic sums.  Each list must hold pairwise non-isomorphic
        modules; images of a class list under tau, tau_minus or the
        Nakayama functor do, since each is injective on the isomorphism
        classes it does not kill."""
        return same_summands([a for a, k in xs for _ in range(k)],
                             [b for b, k in ys for _ in range(k)], self.iso)

    def tau_rigid(self, classes) -> bool:
        return self.hom_vanishes(classes,
                                 [self.image(tau, c) for c in classes])

    def nu_fixed(self, classes, mults) -> bool:
        """Whether the Nakayama functor permutes the classes, keeping
        multiplicities: the sum is then fixed up to isomorphism."""
        return self.same_sum(
            list(zip((self.image(nu_module, c) for c in classes), mults)),
            list(zip(classes, mults)))

    def tau_symmetric(self, classes, mults) -> bool:
        """Whether tau and tau_minus of the sum are isomorphic."""
        def nonzero(functor):
            return [(y, k) for y, k in zip(
                (self.image(functor, c) for c in classes), mults)
                if not y.is_zero()]
        return self.same_sum(nonzero(tau), nonzero(tau_minus))


def is_support_tau_tilting_pair(pair: STPair,
                                tables: SummandTables | None = None) -> bool:
    if any(m.dims[v] != 0 for m in pair.modules for v in pair.pverts):
        return False
    if len(pair.modules) + len(pair.pverts) != pair.algebra.num_vertices:
        return False
    tables = SummandTables() if tables is None else tables
    return tables.tau_rigid(pair.modules)


def is_nu_stable_pair(pair: STPair,
                      tables: SummandTables | None = None) -> bool:
    """Whether the module part is fixed by the Nakayama functor.  For a
    support tau-tilting pair the complement vertices must then be closed
    under the Nakayama permutation, which is asserted."""
    perm = nakayama_permutation(pair.algebra)
    tables = SummandTables() if tables is None else tables
    stable = tables.nu_fixed(pair.modules, [1] * len(pair.modules))
    if stable and is_support_tau_tilting_pair(pair, tables=tables):
        _require_nu_closed(perm, pair.pverts)
    return stable


def _require_nu_closed(perm: dict, pverts) -> None:
    """Raise TheoremViolationError unless pverts, the complement of a stable
    support tau-tilting pair, is closed under the Nakayama permutation."""
    if sorted(perm[v] for v in pverts) != sorted(pverts):
        raise TheoremViolationError(
            "stable module part with complement vertices not closed "
            "under the Nakayama permutation")


def is_support_tau_minus_tilting(modules: list, algebra=None,
                                 tables: SummandTables | None = None) -> bool:
    """Whether the modules and their zero-support vertices count the
    vertices (more raise ValueError, as make_pair does) and
    Hom(tau_minus X_i, X_j) = 0 for all summands X_i, X_j.  The tests
    check this against duality over the opposite algebra."""
    if algebra is None:
        if not modules:
            raise ValueError("an empty module list needs an explicit algebra")
        algebra = modules[0].algebra
    zero_verts = [v for v in range(1, algebra.num_vertices + 1)
                  if not any(m.dims[v] for m in modules)]
    pair = make_pair(algebra, modules, zero_verts)
    if len(pair.modules) + len(pair.pverts) != algebra.num_vertices:
        return False
    tables = SummandTables() if tables is None else tables
    return tables.hom_vanishes(
        [tables.image(tau_minus, m) for m in pair.modules], pair.modules)


def summand_flags(algebra, classes: list, mults: list, pverts) -> dict:
    """The five check flags of the module sum of classes[i] taken
    mults[i] times, with complement vertices pverts.  The classes must be
    pairwise non-isomorphic indecomposables; every flag is read off one
    SummandTables.  nu-stable is None off selfinjective algebras.  Repeated
    or out-of-range complement vertices raise ValueError before any flag
    is computed, and so does a basic module with more classes than fit
    beside its zero-support vertices, as the pair constructors do."""
    _check_pverts(algebra, pverts)
    tables = SummandTables()
    basic = all(k == 1 for k in mults)
    pair = None
    if basic and len(classes) + len(pverts) <= algebra.num_vertices:
        pair = make_pair(algebra, classes, pverts)
    flags = {"tau-rigid": tables.tau_rigid(classes)}
    flags["support-tau-tilting"] = (
        pair is not None and is_support_tau_tilting_pair(pair, tables=tables))
    flags["tau-minus-tilting"] = basic and is_support_tau_minus_tilting(
        classes, algebra, tables=tables)
    if not is_selfinjective(algebra):
        flags["nu-stable"] = None
    elif pair is not None:
        flags["nu-stable"] = is_nu_stable_pair(pair, tables=tables)
    else:
        flags["nu-stable"] = tables.nu_fixed(classes, mults)
    flags["tau-symmetric"] = tables.tau_symmetric(classes, mults)
    return flags


# -- transport to and from two-term complexes ----------------------------------


def pair_to_complex(pair: STPair) -> TwoTermComplex:
    """Minimal presentations of the module part plus shifted stalks for the
    complement vertices, as one two-term complex."""
    if not is_support_tau_tilting_pair(pair):
        raise NotSupportTauTiltingError(
            "transport to a complex needs a support tau-tilting pair"
        )
    parts = [presentation_complex(m) for m in pair.modules]
    if pair.pverts:
        parts.append(projective_stalk(pair.algebra, list(pair.pverts),
                                      shifted=True))
    return sum_complexes(parts)


def complex_to_pair(c: TwoTermComplex) -> STPair:
    """The basic pair of a silting complex: the cokernels of its summand
    classes and the vertices of its shifted stalks, from one split of its
    minimal form (complexes.silting_classes)."""
    classes = silting_classes(c)
    if classes is None:
        raise NotSiltingError("transport to a pair needs a silting complex")
    return make_pair(c.algebra,
                     [m for m, _, _ in classes if m is not None],
                     [x.deg1[0] for m, x, _ in classes if m is None])


# -- enumeration ----------------------------------------------------------------


@dataclass
class PairEnumeration:
    """Basic support tau-tilting pairs of the nodes of a silting walk;
    node_index maps each node that has a pair to its index in pairs.
    tops[i] is the cokernel of registry item i, None for a shifted stalk;
    the pairs share these module objects, and tables holds what the
    predicates learned about them.  is_node_support_tau_tilting reads
    facts kept per top: the vertices it is nonzero at, and a bitmask of
    the tops j with Hom(top_i, tau top_j) = 0."""

    algebra: object
    pairs: list
    status: str
    silting: EnumerationResult
    node_index: dict = field(default_factory=dict)
    tops: list = field(default_factory=list)
    tables: SummandTables = field(default_factory=SummandTables)

    def __post_init__(self):
        self._support = [0 if m is None else
                         sum(1 << v for v, k in m.dims.items() if k)
                         for m in self.tops]
        self._rigid = ItemMasks()

    def is_node_support_tau_tilting(self, node) -> bool:
        """is_support_tau_tilting_pair for the pair of a set of registry
        ids: its shifted stalks name the complement vertices, where none of
        its tops may be nonzero, and Hom(top_i, tau top_j) = 0 for all of
        its tops i and j, read from the per-top masks."""
        items = self.silting.registry.items
        mods = [i for i in node if self.tops[i] is not None]
        complement = 0
        for i in node:
            if self.tops[i] is None:
                complement |= 1 << items[i].deg1[0]
        if any(self._support[i] & complement for i in mods):
            return False
        if len(node) != self.algebra.num_vertices:
            return False
        return self._rigid.all_hold(mods, self._no_hom_to_tau)

    def _no_hom_to_tau(self, i: int, j: int) -> bool:
        """Hom(top_i, tau top_j) = 0."""
        return self.tables.hom_vanishes(
            [self.tops[i]], [self.tables.image(tau, self.tops[j])])


def _pair_enumeration(algebra, enum: EnumerationResult) -> PairEnumeration:
    """A PairEnumeration of the walk enum with no pairs yet: the tops of
    its registry items, each checked once to be indecomposable and not
    isomorphic to another top, and presented by its item, which is its
    minimal presentation (Adachi-Iyama-Reiten 2014, Thm 3.2); else tau of
    the top would have an injective summand, refused by tables.image."""
    tops = [item.h0() if item.deg0 else None for item in enum.registry.items]
    modules = [m for m in tops if m is not None]
    tables = SummandTables()
    tables._presentations.update((m, (c.deg1, c.deg0, c.d)) for c, m in zip(
        enum.registry.items, tops) if m is not None)
    if not all(is_indecomposable(m) and not any(
            tables.iso(m, other) for other in modules[:k])
            for k, m in enumerate(modules)):
        raise TheoremViolationError(
            "a silting summand has a decomposable or repeated top")
    return PairEnumeration(algebra, [], enum.status, enum, {}, tops, tables)


def _node_pair(out: PairEnumeration, node) -> STPair:
    """The pair of a node: its tops and the vertices of its shifted
    stalks."""
    items = out.silting.registry.items
    return make_pair(
        out.algebra,
        [out.tops[i] for i in sorted(node) if out.tops[i] is not None],
        [items[i].deg1[0] for i in node if out.tops[i] is None])


def enumerate_support_tau_tilting(algebra, cap: int = 10000) -> PairEnumeration:
    out = _pair_enumeration(algebra, enumerate_two_term_silting(algebra, cap))
    for node in out.silting.nodes:
        if not out.is_node_support_tau_tilting(node):
            raise TheoremViolationError(
                "a silting node transported to a non-tau-tilting pair")
        out.node_index[node] = len(out.pairs)
        out.pairs.append(_node_pair(out, node))
    return out


def enumerate_nu_stable(algebra, cap: int = 10000) -> PairEnumeration:
    """The stable pairs, from the walk over stable nodes
    (mutation.walk_nu_stable); silting.nodes holds the stable nodes it
    found, and pairs their pairs.  Each node is checked as in
    _nu_stable_enumeration."""
    return _nu_stable_enumeration(algebra, walk_nu_stable(algebra, cap))


def _nu_stable_enumeration(algebra, walk: EnumerationResult) -> PairEnumeration:
    """The pairs of the stable nodes among walk.nodes.  Every node's pair
    is checked by the predicates check reports: it is support
    tau-tilting, and it is stable (is_nu_stable_pair, which also asserts
    that its complement vertices are closed under the Nakayama
    permutation) exactly when the node is by the complex route (the
    Nakayama functor permutes its items) and exactly when it is
    tilting."""
    out = _pair_enumeration(algebra, walk)
    for node in walk.nodes:
        pair = _node_pair(out, node)
        if not is_support_tau_tilting_pair(pair, out.tables):
            raise TheoremViolationError(
                "a silting node transported to a non-tau-tilting pair")
        stable = is_nu_stable_pair(pair, out.tables)
        if not stable == walk.is_node_nu_stable(node) == \
                walk.is_node_tilting(node):
            raise TheoremViolationError(
                "stable-pair route, stable-complex route and tilting-complex "
                "route disagree")
        if stable:
            out.node_index[node] = len(out.pairs)
            out.pairs.append(pair)
    return out


# -- the obstruction battery ----------------------------------------------------


def gorenstein_injdim_le1(algebra) -> bool:
    """Injective dimension of the regular module at most 1 on both sides,
    read off from the second syzygy of the dual over the opposite ring."""

    def side(alg):
        m = dual(regular(alg))
        first, _, _, _ = syzygy(m)
        second, _, _, _ = syzygy(first)
        return second.is_zero()

    return side(algebra) and side(algebra.opposite())


@dataclass
class ObstructionReport:
    """Outcome of the necessary conditions for being 2-Calabi-Yau tilted.

    checks maps each condition name to PASS, FAIL, or SKIPPED; the verdict
    is OBSTRUCTED when any check fails, INCONCLUSIVE-TRUNCATED when the
    walk hit its cap, and CONSISTENT otherwise.  CONSISTENT is not a
    certificate: the conditions are necessary, never sufficient.
    """

    checks: dict
    verdict: str
    details: list
    truncated: bool


CHECK_GORENSTEIN = "gorenstein-injective-dimension"
CHECK_TAU_MINUS = "tau-minus-coincidence"
CHECK_NU_TRANSLATE = "stable-pair-translate-symmetry"


def two_cy_obstruction_report(algebra, cap: int = 10000) -> ObstructionReport:
    """Necessary conditions for being 2-Calabi-Yau tilted, from one walk of
    the support tau-tilting pairs (at most cap nodes).  The checks:
    gorenstein-injective-dimension (injective dimension of the regular
    module at most 1 on both sides), tau-minus-coincidence (the support
    tau-tilting and support tau-minus-tilting modules are the same) and,
    on a selfinjective algebra only, stable-pair-translate-symmetry (each
    Nakayama-stable pair has isomorphic tau and tau-minus translates).
    The verdicts are those of ObstructionReport.

    The walk over A decides tau-minus-coincidence.  Distinct nodes have
    non-isomorphic modules (a pair's complement is fixed by its module),
    so when all N support tau-tilting modules are support
    tau-minus-tilting they inject into the support tau-minus-tilting
    modules, the duals of the N support tau-tilting A^op-modules
    (Adachi-Iyama-Reiten, Compos. Math. 2014, Thm 2.14).  The injection is
    then onto.  A finite walk is the whole graph (ibid., Cor 2.38), and
    the A^op graph has as many nodes, so a walk over A^op would be cut by
    cap exactly when this one is.  On a cut walk only the nodes found are
    checked: where an unreached support tau-minus-tilting module is not
    support tau-tilting, the verdict is INCONCLUSIVE-TRUNCATED, not
    OBSTRUCTED.
    """
    checks = {}
    details = []

    checks[CHECK_GORENSTEIN] = "PASS" if gorenstein_injdim_le1(algebra) else "FAIL"
    if checks[CHECK_GORENSTEIN] == "FAIL":
        details.append("the regular module has injective dimension above 1")

    enum = enumerate_support_tau_tilting(algebra, cap)
    truncated = enum.status == "TRUNCATED"

    tables = enum.tables
    coincide = True
    for pair in enum.pairs:
        if not is_support_tau_minus_tilting(list(pair.modules), algebra,
                                            tables=tables):
            coincide = False
            details.append(
                "a support tau-tilting module is not support tau-minus-tilting"
            )
            break
    checks[CHECK_TAU_MINUS] = "PASS" if coincide else "FAIL"

    if not is_selfinjective(algebra):
        checks[CHECK_NU_TRANSLATE] = "SKIPPED"
    else:
        symmetric = True
        for pair in enum.pairs:
            if not is_nu_stable_pair(pair, tables=tables):
                continue
            if not tables.tau_symmetric(pair.modules,
                                        [1] * len(pair.modules)):
                symmetric = False
                details.append(
                    "a stable pair has non-isomorphic forward and backward "
                    "translates"
                )
                break
        checks[CHECK_NU_TRANSLATE] = "PASS" if symmetric else "FAIL"

    if any(v == "FAIL" for v in checks.values()):
        verdict = "OBSTRUCTED"
    elif truncated:
        verdict = "INCONCLUSIVE-TRUNCATED"
    else:
        verdict = "CONSISTENT"
    return ObstructionReport(checks, verdict, details, truncated)
