"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p); all
arithmetic is exact and there are no tolerances anywhere in the package.

The whole package uses the row convention: a linear map K^m -> K^n is an
(m, n) matrix acting on row vectors by right multiplication, v |-> v @ f.
Composition "f then g" is therefore the plain matrix product f @ g.

Exactness in int64: a sum of n products of residues stays below 2^63 while
n <= max_terms.  matmul splits longer inner dimensions into chunks of
max_terms and reduces between chunks, so it is exact for every shape.
Outside matmul the algebra layer's tables (BoundQuiverAlgebra._table) sum at
most d products, each reduced mod p first, for an algebra of dimension d;
check_exact asks max_terms >= d of every algebra, which bounds these too.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldTooSmallError, PrimeTooLargeError

DEFAULT_PRIME = 32003
INT64_MAX = 2**63 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic and Gaussian elimination over F_p."""

    def __init__(self, p: int = DEFAULT_PRIME):
        p = int(p)
        # how many products of two residues, plus one residue, fit in int64
        self.max_terms = (INT64_MAX - (p - 1)) // max(p - 1, 1) ** 2
        if self.max_terms < 1:
            raise PrimeTooLargeError(
                f"p = {p} too large: a product of two residues overflows "
                "64-bit integers")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- element and matrix construction ---------------------------------

    def reduce(self, a) -> np.ndarray:
        return np.asarray(a, dtype=np.int64) % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def inv_scalar(self, x: int) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(x, self.p - 2, self.p)

    # -- arithmetic -------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        step = self.max_terms
        if a.shape[-1] <= step:
            return (a @ b) % self.p
        out = 0
        for s in range(0, a.shape[-1], step):
            out = (out + a[..., s:s + step] @ b[s:s + step]) % self.p
        return out

    # -- elimination ------------------------------------------------------

    def rref(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form.

        Returns (r, pivots) where pivots lists the pivot column of each
        nonzero row of r, in order.  A matrix with a zero side or a single
        row needs no elimination loop, and a pivot alone in its column
        needs no update of the other rows.
        """
        a = self.reduce(a)  # a fresh array, safe to work on in place
        rows, cols = a.shape
        if rows == 0 or cols == 0:
            return a, []
        if rows == 1:
            nz = a[0].nonzero()[0]
            if nz.size == 0:
                return a, []
            c = int(nz[0])
            a[0] = (a[0] * self.inv_scalar(a[0, c])) % self.p
            return a, [c]
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            a[r] = (a[r] * self.inv_scalar(a[r, c])) % self.p
            col = a[:, c].copy()
            col[r] = 0
            if col.any():
                a = (a - np.outer(col, a[r])) % self.p
            pivots.append(c)
            r += 1
        return a, pivots

    def rank(self, a: np.ndarray) -> int:
        if a.size == 0:
            return 0
        return len(self.rref(a)[1])

    def row_space_basis(self, a: np.ndarray) -> np.ndarray:
        """Rows forming a basis of the row space of a."""
        r, piv = self.rref(a)
        return r[: len(piv)].copy()

    def kernel_basis(self, a: np.ndarray) -> np.ndarray:
        """Rows v (of length a.shape[1]) spanning {v : a @ v = 0}."""
        rows, cols = a.shape
        r, piv = self.rref(a)
        pivset = set(piv)
        free = [c for c in range(cols) if c not in pivset]
        out = self.zeros(len(free), cols)
        for k, f in enumerate(free):
            out[k, f] = 1
            for i, c in enumerate(piv):
                out[k, c] = (-r[i, f]) % self.p
        return out

    def left_kernel_basis(self, a: np.ndarray) -> np.ndarray:
        """Rows v (of length a.shape[0]) spanning {v : v @ a = 0}."""
        return self.kernel_basis(a.T)

    def solve_right(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Some X with a @ X = b, or None when the system is inconsistent."""
        a = self.reduce(a)
        b = self.reduce(b)
        if b.ndim == 1:
            sol = self.solve_right(a, b.reshape(-1, 1))
            return None if sol is None else sol[:, 0]
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        aug = np.hstack([a, b])
        r, piv = self.rref(aug)
        n = a.shape[1]
        if any(c >= n for c in piv):
            return None
        x = self.zeros(n, b.shape[1])
        for i, c in enumerate(piv):
            x[c] = r[i, n:]
        return x

    def solve_left(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Some X with X @ a = b, or None."""
        sol = self.solve_right(a.T, b.T)
        return None if sol is None else sol.T

    # -- guards -----------------------------------------------------------

    def check_trace_bound(self, dim: int):
        """Trace certificates need p comfortably above the dimensions in
        play; the session-wide margin is p > 4 * dim**2."""
        if self.p <= 4 * dim * dim:
            raise FieldTooSmallError(
                f"p = {self.p} too small for an algebra of dimension {dim}: "
                f"need p > {4 * dim * dim}"
            )

    def check_exact(self, dim: int):
        """Contractions over the basis of an algebra of dimension dim sum
        dim products of residues: they stay exact while
        dim * (p-1)**2 + (p-1) < 2**63."""
        if self.max_terms < dim:
            raise PrimeTooLargeError(
                f"p = {self.p} too large for an algebra of dimension {dim}: "
                f"need {dim} * (p-1)^2 + (p-1) < 2^63"
            )
