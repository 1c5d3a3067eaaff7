"""Transpose, Auslander-Reiten translates, and the Nakayama functor.

The transpose of a module with minimal presentation P1 -> P0 is the
cokernel of the induced map Hom(P0, A) -> Hom(P1, A) of right modules over
the opposite algebra; Hom(e_i A, A) is e_i A-op on the path basis, so the
induced map is realised by the opposite-transposed element matrix.  The
translate is the dual of the transpose and the inverse translate is the
transpose of the dual.

For a selfinjective algebra each injective I_i is projective, and matching
them up yields the permutation pi with I_i isomorphic to P_{pi(i)} together
with explicit isomorphisms.  Conjugating the Nakayama functor by those
isomorphisms turns it into a permutation-twisted automorphism of the
algebra itself, which is what the complex layer applies entrywise.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSelfinjectiveError
from .modules import (
    Rep,
    dual,
    dual_map,
    elements_to_repmap,
    extract_iso,
    injective,
    minimal_presentation,
    projective,
    quotient_rep,
    repmap_to_elements,
)


def _op_transposed(algebra, e: np.ndarray) -> np.ndarray:
    """Opposite element matrix of an element matrix: transpose the shape
    and apply the anti-isomorphism entrywise."""
    return algebra.op_element(e).transpose(1, 0, 2)


def cokernel(f) -> Rep:
    rows = {v: f.blocks[v] for v in f.blocks}
    quo, _ = quotient_rep(f.tgt, rows)
    return quo


def transpose(m: Rep) -> Rep:
    """Transpose over the opposite algebra."""
    alg = m.algebra
    verts1, verts0, e = minimal_presentation(m)
    induced = elements_to_repmap(alg.opposite(), verts0, verts1,
                                 _op_transposed(alg, e))
    return cokernel(induced)


def tau(m: Rep) -> Rep:
    """Auslander-Reiten translate: dual of the transpose.  Projective
    summands contribute nothing."""
    return dual(transpose(m))


def tau_minus(m: Rep) -> Rep:
    """Inverse translate: transpose of the dual.  Injective summands
    contribute nothing."""
    return transpose(dual(m))


# -- selfinjective structure -------------------------------------------------


def selfinjective_data(algebra):
    """(permutation, isomorphisms) with I_i isomorphic to P_{pi(i)} via the
    stored maps.  Raises NotSelfinjectiveError when some injective is not
    projective."""
    cached = algebra._cache.get("selfinj")
    if cached is None:
        perm = {}
        phis = {}
        projs = {v: projective(algebra, v)
                 for v in range(1, algebra.num_vertices + 1)}
        for i in range(1, algebra.num_vertices + 1):
            inj = injective(algebra, i)
            for j, pj in projs.items():
                iso = extract_iso(inj, pj)
                if iso is not None:
                    perm[i] = j
                    phis[i] = iso
                    break
        cached = (perm, phis)
        algebra._cache["selfinj"] = cached
    perm, phis = cached
    if len(perm) != algebra.num_vertices:
        missing = [i for i in range(1, algebra.num_vertices + 1) if i not in perm]
        raise NotSelfinjectiveError(
            f"injective at vertex {missing[0]} is not projective"
        )
    return perm, phis


def is_selfinjective(algebra) -> bool:
    try:
        selfinjective_data(algebra)
        return True
    except NotSelfinjectiveError:
        return False


def nakayama_permutation(algebra) -> dict:
    return dict(selfinjective_data(algebra)[0])


def _nu_of_morphism(algebra, x: np.ndarray, i: int, j: int):
    """The Nakayama functor on the morphism P_j -> P_i given by left
    multiplication with x in e_i A e_j, as a map I_j -> I_i."""
    op = algebra.opposite()
    op_map = elements_to_repmap(op, [i], [j],
                                algebra.op_element(x).reshape(1, 1, -1))
    return dual_map(op_map)


def nu_matrix(algebra) -> np.ndarray:
    """Matrix of the permutation-twisted automorphism induced by the
    Nakayama functor: row k holds the image of basis element k, an element
    of e_{pi(i)} A e_{pi(j)} when basis element k lies in e_i A e_j."""
    if "nu_matrix" not in algebra._cache:
        perm, phis = selfinjective_data(algebra)
        phi_inv = {i: phis[i].inverse() for i in phis}
        m = algebra.field.zeros(algebra.dim, algebra.dim)
        for k in range(algebra.dim):
            i = algebra.source_of(k)
            j = algebra.target_of(k)
            x = algebra.zero()
            x[k] = 1
            nu_map = _nu_of_morphism(algebra, x, i, j)
            conj = phi_inv[j].compose(nu_map).compose(phis[i])
            e = repmap_to_elements(conj, [perm[j]], [perm[i]])
            m[k] = e[0, 0]
        algebra._cache["nu_matrix"] = m
    return algebra._cache["nu_matrix"]


def nu_element(algebra, x: np.ndarray) -> np.ndarray:
    """The twisted automorphism applied to an element, or to every entry
    of an array of elements of shape (..., dim)."""
    x = algebra.field.reduce(x)
    return algebra.field.matmul(x.reshape(-1, algebra.dim),
                                nu_matrix(algebra)).reshape(x.shape)


def nu_module(m: Rep) -> Rep:
    """Nakayama functor applied to a module over a selfinjective algebra,
    via the transported minimal presentation."""
    alg = m.algebra
    perm, _ = selfinjective_data(alg)
    verts1, verts0, e = minimal_presentation(m)
    induced = elements_to_repmap(alg, [perm[v] for v in verts1],
                                 [perm[v] for v in verts0], nu_element(alg, e))
    return cokernel(induced)


def is_nu_stable_module(m: Rep, rng=None) -> bool:
    from .modules import are_isomorphic

    return are_isomorphic(m, nu_module(m), rng)
