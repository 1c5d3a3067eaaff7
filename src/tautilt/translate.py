"""Transpose, Auslander-Reiten translates, and the Nakayama functor.

The transpose of a module with minimal presentation P1 -> P0 is the
cokernel of the induced map Hom(P0, A) -> Hom(P1, A) of right modules over
the opposite algebra; Hom(e_i A, A) is e_i A-op on the path basis, and
the opposite algebra has the same coordinates as A, so the induced map is
realised by the transposed element matrix.  The translate is the dual of
the transpose and the inverse translate is the transpose of the dual.

A basic algebra is selfinjective exactly when it is Frobenius, and one
linear form then gives everything the Nakayama functor needs
(Skowronski-Yamagata, Frobenius Algebras I, 2011).  Each right socle of
e_i A must be simple, spanned by an element of e_i A e_sigma(i); the form
lambda reading one nonzero coordinate of each socle element is
nondegenerate exactly when sigma is a permutation, which is exactly when
the algebra is selfinjective.  Then e_i A is the injective envelope of
S_sigma(i), so I_j is isomorphic to P_pi(j) with pi the inverse of sigma.
The automorphism nu with lambda(bc) = lambda(nu(c) b) is one solve
against the Gram matrix G[a, b] = lambda(ab); it maps e_i to e_pi(i) and
is the Nakayama functor on maps between projectives once each I_j is
identified with P_pi(j), which is how the complex layer applies it
entrywise.  No trace certificate is involved, so the test is exact at
every accepted prime.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSelfinjectiveError, TheoremViolationError
from .modules import Rep, dual, minimal_presentation, presented_module


def transpose(m: Rep) -> Rep:
    """Transpose over the opposite algebra."""
    return _transpose_of(m.algebra, minimal_presentation(m))


def _transpose_of(alg, presentation) -> Rep:
    """Transpose of the module with the given minimal presentation
    P(verts1) -> P(verts0): the module over the opposite algebra presented
    by the transposed element matrix, from the sum of the P(verts0) to the
    sum of the P(verts1)."""
    verts1, verts0, e = presentation
    return presented_module(alg.opposite(), verts0, verts1,
                            e.transpose(1, 0, 2))


def tau(m: Rep) -> Rep:
    """Auslander-Reiten translate: dual of the transpose.  Projective
    summands contribute nothing."""
    return dual(transpose(m))


def tau_minus(m: Rep) -> Rep:
    """Inverse translate: transpose of the dual.  Injective summands
    contribute nothing."""
    return transpose(dual(m))


# -- selfinjective structure -------------------------------------------------


def _frobenius_data(algebra):
    """(permutation, nu matrix) read off a Frobenius form, or a message
    naming the vertex where the algebra fails to be selfinjective."""
    field = algebra.field
    acts = algebra.arrow_actions()
    form, sigma = algebra.zero(), {}
    for i in range(1, algebra.num_vertices + 1):
        rows = algebra.paths_from(i)
        # the right socle of e_i A: the elements every arrow kills (zero
        # columns of the system constrain nothing)
        system = acts[:, rows].transpose(1, 0, 2).reshape(len(rows), -1)
        soc = field.left_kernel_basis(system[:, system.any(axis=0)])
        if len(soc) != 1:
            return (f"P({i}) has a socle of dimension {len(soc)}, so the "
                    "algebra is not selfinjective")
        k = rows[int(np.flatnonzero(soc[0])[0])]
        form[k] = 1
        sigma[i] = algebra.target_of(k)
    gram = algebra.form_pairing(form)
    # one solve decides invertibility and gives the inverse
    gram_inv = field.solve_right(gram, field.identity(algebra.dim))
    if gram_inv is None:
        first = {}
        for i, v in sigma.items():
            if v in first:
                return (f"P({first[v]}) and P({i}) both have socle S({v}), "
                        "so the algebra is not selfinjective")
            first[v] = i
        raise TheoremViolationError(
            "simple socles with distinct tops but a degenerate Frobenius form")
    nu = field.matmul(gram.T, gram_inv)
    nu.flags.writeable = False
    return dict(sorted((v, i) for i, v in sigma.items())), nu


def selfinjective_data(algebra):
    """(pi, nu) for a selfinjective algebra: I_i is isomorphic to
    P_{pi(i)}, and nu is nu_matrix(algebra).  Raises NotSelfinjectiveError,
    naming a vertex where it fails, for any other algebra."""
    if "selfinj" not in algebra._cache:
        algebra._cache["selfinj"] = _frobenius_data(algebra)
    data = algebra._cache["selfinj"]
    if isinstance(data, str):
        raise NotSelfinjectiveError(data)
    return data


def is_selfinjective(algebra) -> bool:
    try:
        selfinjective_data(algebra)
        return True
    except NotSelfinjectiveError:
        return False


def nakayama_permutation(algebra) -> dict:
    return dict(selfinjective_data(algebra)[0])


def nu_matrix(algebra) -> np.ndarray:
    """Matrix of the permutation-twisted automorphism induced by the
    Nakayama functor: row k holds the image of basis element k, an element
    of e_{pi(i)} A e_{pi(j)} when basis element k lies in e_i A e_j."""
    return selfinjective_data(algebra)[1]


def nu_element(algebra, x: np.ndarray) -> np.ndarray:
    """The twisted automorphism applied to an element, or to every entry
    of an array of elements of shape (..., dim)."""
    x = algebra.field.reduce(x)
    return algebra.field.matmul(x.reshape(-1, algebra.dim),
                                nu_matrix(algebra)).reshape(x.shape)


def nu_module(m: Rep) -> Rep:
    """Nakayama functor applied to a module over a selfinjective algebra,
    via the transported minimal presentation."""
    return _nu_module_of(m.algebra, minimal_presentation(m))


def _nu_module_of(alg, presentation) -> Rep:
    """Nakayama image of the module with the given minimal presentation:
    the module presented by its image under nu, with each vertex moved by
    the Nakayama permutation and each entry by nu_element."""
    perm, _ = selfinjective_data(alg)
    verts1, verts0, e = presentation
    return presented_module(alg, [perm[v] for v in verts1],
                            [perm[v] for v in verts0], nu_element(alg, e))

