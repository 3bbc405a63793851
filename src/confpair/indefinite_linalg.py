"""Linear algebra over real spaces with indefinite inner products.

This module is the only place where singular values or eigenvalues turn into
ranks, kernels, spans, complements, radicals or signatures.  Bases are
columns that are orthonormal for the standard (definite) dot product on
coordinates; the possibly indefinite product is the diagonal metric
``diag(eps)`` with entries +-1, and geometry w.r.t. it is read off Gram
matrices.

The rank rule (Golub, Klema & Stewart 1976, "Rank degeneracy and least
squares problems"): a singular value ``s`` of a matrix counts when

    s > tol * max(s_max, floor)

with ``s_max`` the largest singular value of that matrix.  ``floor`` is an
argument chosen by the caller to fit its data:

* ``0`` is the pure relative rule, for spanning sets of arbitrary scale;
* ``1.0`` for rows built from dot-orthonormal bases and unit metrics (Gram
  matrices, pairings against frames), whose natural scale is one, so that
  roundoff below ``tol`` never counts as a direction;
* a data scale, such as the largest entry of a sampled second fundamental
  form, so that a point where the form nearly vanishes is not judged at its
  own relative scale.

`signature` applies the same rule to the eigenvalues of a symmetric Gram
matrix with the floor fixed at ``1.0``: Gram matrices of dot-orthonormal
bases under a unit metric have eigenvalues of size at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSubspace

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# the rank rule and what it decides
# ---------------------------------------------------------------------------


def _count(s: np.ndarray, tol: float, floor: float):
    """Singular values (descending on the last axis) that pass the rank rule."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    thr = tol * np.maximum(s[..., :1], floor)
    return (s > thr).sum(axis=-1)


def rank(matrix: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Numerical rank of a matrix, or of each matrix of a (..., m, k) stack."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[-2] == 0 or matrix.shape[-1] == 0:
        counts = np.zeros(matrix.shape[:-2], dtype=int)
    else:
        counts = _count(np.linalg.svd(matrix, compute_uv=False), tol, floor)
    return int(counts) if matrix.ndim == 2 else counts


def kernel(rows: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the right null space of `rows`; everything when
    there are no rows."""
    rows = np.asarray(rows, dtype=float)
    ncols = rows.shape[1]
    if rows.shape[0] == 0 or ncols == 0:
        return np.eye(ncols)
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[int(_count(s, tol, floor)):].T


def orthonormal_columns(vectors: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis (dot product) of the column span of `vectors`."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    m = vectors.shape[0]
    if m == 0 or vectors.shape[1] == 0:
        return np.zeros((m, 0))
    count, u = span_stack(vectors, tol, floor)
    return u[:, : int(count)]


def span_stack(vectors: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Ranks and orthonormal bases of the column spans of a (..., m, s) stack.

    One SVD call for the whole stack.  Returns (ranks (...), bases
    (..., m, min(m, s))): the first ``ranks[i]`` columns of ``bases[i]`` are
    an orthonormal basis of the span of ``vectors[i]``.
    """
    u, s, _ = np.linalg.svd(np.asarray(vectors, dtype=float), full_matrices=False)
    return _count(s, tol, floor), u


def complement(sub: np.ndarray, within: np.ndarray, eps: np.ndarray, tol: float) -> np.ndarray:
    """Vectors of span(`within`) orthogonal to span(`sub`) w.r.t. diag(eps)."""
    if within.shape[1] == 0:
        return within[:, :0]
    if sub.shape[1] == 0:
        return within
    rows = (sub * eps[:, None]).T @ within  # constraints on coefficients
    return orthonormal_columns(within @ kernel(rows, tol, 1.0), tol)


def radical(basis: np.ndarray, eps: np.ndarray, tol: float) -> np.ndarray:
    """span(basis) intersected with its diag(eps)-orthogonal: the kernel of
    its Gram matrix."""
    gram = basis.T @ (basis * eps[:, None])
    return orthonormal_columns(basis @ kernel(gram, tol, 1.0), tol)


def signature(gram: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, int, int]:
    """(positive, negative, null) inertia of a symmetric matrix."""
    gram = np.asarray(gram, dtype=float)
    k = gram.shape[0]
    if k == 0:
        return 0, 0, 0
    vals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    thr = tol * max(float(np.max(np.abs(vals))), 1.0)
    pos = int(np.sum(vals > thr))
    neg = int(np.sum(vals < -thr))
    return pos, neg, k - pos - neg


def gap(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral distance of the dot projectors onto two spans given by
    orthonormal columns (1.0 signals a rank mismatch)."""
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(a @ a.T - b @ b.T, ord=2))


def project(basis: np.ndarray, eps: np.ndarray, vectors: np.ndarray, tol: float) -> np.ndarray:
    """diag(eps)-orthogonal projection of `vectors` (columns) onto span(basis).

    Raises DegenerateSubspace when span(basis) has a radical by `signature`.
    """
    weighted = basis * eps[:, None]
    gram = basis.T @ weighted
    null = signature(gram, tol)[2]
    if null:
        raise DegenerateSubspace(f"projection target has a radical of dimension {null}")
    return basis @ np.linalg.solve(gram, weighted.T @ vectors)


# ---------------------------------------------------------------------------
# scalar products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarProduct:
    """A flat inner product on R^dim given by a diagonal +-1 signature.

    When ``pseudo_pair`` is set the first two basis vectors are a null pair
    with <e0,e0> = <e1,e1> = 0 and <e0,e1> = 1 (the light-cone convention);
    the remaining vectors stay orthonormal.  The stored signature always
    lists the diagonalized eigenvalue signs, so the pair contributes (-1, +1).
    """

    dim: int
    signature: tuple[int, ...]
    pseudo_pair: bool = False

    def __post_init__(self):
        if len(self.signature) != self.dim:
            raise ValueError("signature length must equal dim")
        if any(s not in (-1, 1) for s in self.signature):
            raise ValueError("signature entries must be +-1")
        if self.pseudo_pair:
            if self.dim < 2 or self.signature[0] != -1 or self.signature[1] != 1:
                raise ValueError("pseudo pair requires signature starting (-1, +1)")

    @property
    def index(self) -> int:
        return sum(1 for s in self.signature if s == -1)

    @cached_property
    def gram(self) -> np.ndarray:
        if not self.pseudo_pair:
            return np.diag(np.asarray(self.signature, dtype=float))
        g = np.zeros((self.dim, self.dim))
        g[0, 1] = g[1, 0] = 1.0
        for i in range(2, self.dim):
            g[i, i] = float(self.signature[i])
        return g

    # factories ---------------------------------------------------------

    @staticmethod
    def euclidean(dim: int) -> "ScalarProduct":
        return ScalarProduct(dim, (1,) * dim)

    @staticmethod
    def from_pattern(pattern) -> "ScalarProduct":
        pattern = tuple(int(s) for s in pattern)
        return ScalarProduct(len(pattern), pattern)

    @staticmethod
    def lorentz(dim: int) -> "ScalarProduct":
        return ScalarProduct(dim, (-1,) + (1,) * (dim - 1))

    @staticmethod
    def lightcone(n_euclidean: int) -> "ScalarProduct":
        """Ambient of the light-cone model over R^n: dim n+2, index 1, null pair."""
        return ScalarProduct(n_euclidean + 2, (-1,) + (1,) * (n_euclidean + 1), pseudo_pair=True)

    # pairings ------------------------------------------------------------

    def inner(self, u: np.ndarray, v: np.ndarray):
        """<u, v>; broadcasts over leading axes (vectors on the last axis)."""
        return np.einsum("...i,ij,...j->...", np.asarray(u, float), self.gram, np.asarray(v, float))

    def norm_sq(self, u: np.ndarray):
        return self.inner(u, u)
