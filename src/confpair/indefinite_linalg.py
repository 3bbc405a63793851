"""Linear algebra over real spaces with indefinite inner products.

This module is the only place where singular values or eigenvalues turn into
ranks, kernels, spans, complements, radicals or signatures, and the one
place that reads coordinates in pseudo-orthonormal frames.  Bases are
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

`rank`, `span_stack` and `kernel_stack` take their singular values from
`_svd`: LAPACK for matrices whose smaller side is 3 or more, and one closed
form (`_small_svd`) for a smaller side of 1 or 2, where LAPACK's cost per
tiny matrix dominates.  The closed form works on the columns (a wide stack
through its transpose) and forms no Gram matrix, because squaring would put
a decision at a relative 1e-9 below roundoff.

The metric kernels serve stacks of small symmetric matrices (the induced
metric has n = 2 to 5) without LAPACK's cost per matrix.  One point-last
kernel, the unpivoted signed Cholesky factor R diag(signs) R^T = a (the
LDL^T factor with R = L |D|^(1/2)), loops over the matrix entries, each step
over all points: `signed_cholesky_stack` gives R, R^-1, the pivots' signs
and a mask of nonzero finite pivots, for indefinite metrics too, and
`cholesky_stack` is its all-positive case, bit for bit the Cholesky factor.
Without pivoting an indefinite factor can grow, so its callers judge it by
||R||_F^2, which bounds its backward error (Higham, ch. 10-11).
`inverse_stack` builds L^-T L^-1 from the factor; `eigvalsh_stack` takes
n = 1 and n = 2 in closed form, bit for bit LAPACK's own 2x2 rule, and
n >= 3 through one stacked `eigvalsh`.

Two helpers serve the whole package: `contract`, the one `np.einsum` of
three or more operands, whose pairwise path is planned once per
(subscripts, operand shapes), and `row_classes`, the one grouping of
integer tuples (rank classes here, region profiles in `regions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateSubspace

DEFAULT_TOL = 1e-9

# (subscripts, operand shapes) keys whose contraction paths are kept: a run
# repeats a few dozen contractions on a few chart and region sizes
PATH_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=PATH_CACHE_SIZE)
def _contraction_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The pairwise path that `np.einsum(..., optimize=True)` picks for
    operands of these shapes; the plan reads shapes only."""
    dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *dummies, optimize=True)[0])


def contract(subscripts: str, *operands):
    """`np.einsum` contracting pairwise (Smith & Gray, "opt_einsum", JOSS
    2018) along the path `optimize=True` would pick, planned once per
    (subscripts, operand shapes): the same contractions, so the same floats."""
    path = _contraction_path(subscripts, tuple(np.shape(op) for op in operands))
    return np.einsum(subscripts, *operands, optimize=list(path))


# ---------------------------------------------------------------------------
# the rank rule and what it decides
# ---------------------------------------------------------------------------


def _count(s: np.ndarray, tol: float, floor: float):
    """Singular values (descending on the last axis) that pass the rank rule."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    thr = tol * np.maximum(s[..., :1], floor)
    return (s > thr).sum(axis=-1)


def _svd(a: np.ndarray, vectors: str | None = None):
    """Singular values (..., p), descending, of a non-empty (..., m, k) stack,
    p = min(m, k); with vectors="left" also the reduced u (..., m, p), with
    "right" the full vt (..., k, k).  In closed form when p is 1 or 2
    (`_small_svd`), by LAPACK otherwise."""
    m, k = a.shape[-2:]
    if min(m, k) <= 2:
        if not np.isfinite(a).all():  # LAPACK does not converge on them either
            raise np.linalg.LinAlgError("SVD did not converge")
        return _small_svd(a, vectors)
    if vectors is None:
        return np.linalg.svd(a, compute_uv=False)
    # U is reduced unless the rows are wide, where the full vt is the kernel's
    u, s, vt = np.linalg.svd(a, full_matrices=vectors == "right" and m < k)
    return (s, u) if vectors == "left" else (s, vt)


def _unit(x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """x / norm along the last axis; the first coordinate vector where norm is 0."""
    zero = norm == 0
    out = x / np.where(zero, 1.0, norm)[..., None]
    if zero.any():
        out[zero] = np.eye(x.shape[-1])[0]
    return out


def _reflector(v: np.ndarray) -> np.ndarray:
    """Householder reflections (..., n, n), symmetric, whose first row is
    -+v for dot-unit vectors v (..., n); w = v + sign(v_0) e_0 never cancels."""
    w = v.copy()
    w[..., 0] += np.where(v[..., 0] < 0, -1.0, 1.0)
    scale = 2.0 / (w * w).sum(axis=-1)
    return np.eye(v.shape[-1]) - scale[..., None, None] * (w[..., :, None] * w[..., None, :])


def _complete(q: np.ndarray) -> np.ndarray:
    """Orthogonal (..., n, n) matrices whose first p rows are the p dot-
    orthonormal columns of q (..., n, p), p <= 2 and p < n: the rows of one
    reflection that maps e_0 to -+q_0, and for p = 2 those below the first
    turned by a second reflection that maps e_1 to -+q_1."""
    p = q.shape[-1]
    out = _reflector(q[..., 0])
    if p == 2:
        rest = out[..., 1:, :]
        w = rest @ q[..., 1:]  # q_1 in the coordinates of rows 1..n-1: a unit vector
        out[..., 1:, :] = _reflector(w[..., 0]) @ rest
    out[..., :p, :] = np.swapaxes(q, -1, -2)
    return out


def _small_svd(a: np.ndarray, vectors: str | None):
    """`_svd` of a (..., m, k) stack whose smaller side p is 1 or 2, in
    closed form; singular vectors may differ from LAPACK's in sign or, for
    equal singular values, by a rotation.

    A wide stack is decided through its transpose, so the work is on tall
    (..., n, p) stacks t = left diag(s) right^T, and only the side asked for
    is formed.  For p = 1 the singular value is the column's norm and the
    left vector its unit vector.  For p = 2 the larger column comes first,
    Gram-Schmidt run twice gives t P = Q R with R = [[f, g], [0, h]] and
    f >= h >= 0, and LAPACK's `dlasv2` (Demmel & Kahan, SIAM J. Sci. Stat.
    Comput. 11, 1990) gives the SVD of R with high relative accuracy, so the
    singular values are as good as LAPACK's.  No Gram matrix is formed:
    squaring would put a decision at a relative 1e-9 below roundoff.  The
    full vt of a wide stack is completed by `_complete`.  Every step works
    on each entry alone, elementwise or by one small product per entry, so
    each entry gets, bit for bit, what a one-entry stack gets.
    """
    wide = a.shape[-2] < a.shape[-1]
    cols = a if wide else np.swapaxes(a, -1, -2)  # the columns of t, as rows (..., p, n)
    n = cols.shape[-1]
    want_left = vectors is not None and (vectors == "left") != wide
    if cols.shape[-2] == 1:
        norm = np.sqrt((cols[..., 0, :] ** 2).sum(axis=-1))
        s = norm[..., None]
        if vectors is None:
            return s
        if want_left:
            left = _unit(cols[..., 0, :], norm)[..., None]
        else:
            right = np.ones(s.shape + (1,))
    else:
        sq = (cols * cols).sum(axis=-1)
        swap = (sq[..., 1] > sq[..., 0])[..., None]
        x = np.where(swap, cols[..., 1, :], cols[..., 0, :])
        y = np.where(swap, cols[..., 0, :], cols[..., 1, :])
        f = np.sqrt(np.maximum(sq[..., 0], sq[..., 1]))
        q1 = _unit(x, f)
        g = (q1 * y).sum(axis=-1)
        y1 = y - g[..., None] * q1
        g1 = (q1 * y1).sum(axis=-1)
        y2 = y1 - g1[..., None] * q1
        g = g + g1
        residual = np.sqrt((y2 * y2).sum(axis=-1))
        h = np.minimum(residual, f)
        # dlasv2 for f >= h >= 0 (no swap), with its 0/0 cases made safe
        fs = np.where(f == 0, 1.0, f)
        d = f - h
        l = np.where(d == f, 1.0, d / fs)
        mq = g / fs
        tl = 2.0 - l
        mm = mq * mq
        ss = np.sqrt(tl * tl + mm)
        r = np.where(l == 0, np.abs(mq), np.sqrt(l * l + mm))
        amp = 0.5 * (ss + r)
        s = np.stack([f * amp, h / amp], axis=-1)
        if vectors is None:
            return s
        rl = np.where(r + l == 0, 1.0, r + l)
        tiny = np.where(l == 0, 2.0, g / np.where(d == 0, 1.0, d) + mq / tl)
        tt = np.where(mm == 0, tiny, (mq / (ss + tl) + mq / rl) * (1.0 + amp))
        lt = np.sqrt(tt * tt + 4.0)
        crt, srt = 2.0 / lt, tt / lt
        # [[clt, slt], [-slt, clt]] R [[crt, -srt], [srt, crt]] = +-diag(s)
        if want_left:
            clt, slt = ((crt + srt * mq) / amp)[..., None], ((h / fs) * srt / amp)[..., None]
            # the second pass kept the residual: it is orthogonal to q1
            # (Kahan's "twice is enough"); else y lies in span(q1) to roundoff
            kept = residual > 0.5 * np.sqrt((y1 * y1).sum(axis=-1))
            q2 = y2 / np.where(kept, residual, 1.0)[..., None]
            lost = ~kept
            if lost.any():  # a unit vector orthogonal to q1: its smallest axis, projected off q1
                ql = q1[lost]
                j = np.argmin(np.abs(ql), axis=-1)
                e = np.eye(n)[j] - np.take_along_axis(ql, j[:, None], axis=-1) * ql
                q2[lost] = e / np.sqrt((e * e).sum(axis=-1))[:, None]
            left = np.stack([clt * q1 + slt * q2, clt * q2 - slt * q1], axis=-1)
        else:
            # (crt, srt) in the order of t's columns, and its normal
            c1, c2 = np.where(swap[..., 0], srt, crt), np.where(swap[..., 0], crt, srt)
            right = np.stack([np.stack([c1, -c2], axis=-1), np.stack([c2, c1], axis=-1)], axis=-2)
    if want_left:
        return s, (left if vectors == "left" else _complete(left))
    return s, (right if vectors == "left" else np.swapaxes(right, -1, -2))


def rank(matrix: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Numerical rank of a matrix, or of each matrix of a (..., m, k) stack."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[-2] == 0 or matrix.shape[-1] == 0:
        counts = np.zeros(matrix.shape[:-2], dtype=int)
    else:
        counts = _count(_svd(matrix), tol, floor)
    return int(counts) if matrix.ndim == 2 else counts


# Stack forms.  Each takes (B, m, k) stacks of one width and returns the ranks
# (B,) and padded bases (B, m, K): the first ranks[i] columns of bases[i] are
# an orthonormal basis of the answer for entry i.  Where an intermediate width
# varies over the stack, the entries are grouped by it and each group runs as
# one stacked call on unpadded matrices, so every entry sees exactly the
# numpy call that a one-entry stack makes.


def row_classes(keys: np.ndarray):
    """Classes of the equal rows of a (B, c) integer array, by one stable sort.

    Returns (order, starts, codes).  The classes come in ascending
    lexicographic order of their rows, column 0 first; class j holds the
    rows order[starts[j]:starts[j + 1]], in ascending index, and codes[i] =
    j for each row i of class j, so `codes` is the inverse that
    `np.unique(keys, axis=0)` gives.  An empty array has no class.
    """
    keys = np.asarray(keys)
    size = len(keys)
    order = np.lexsort(keys.T[::-1])  # the last key sorts first
    ordered = keys[order]
    new = np.ones(size, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    codes = np.empty(size, dtype=np.intp)
    codes[order] = np.cumsum(new) - 1
    return order, np.append(np.flatnonzero(new), size), codes


def rank_classes(*ranks):
    """(key, indices) for each distinct tuple of the given (B,) rank columns,
    in ascending key order, each class's indices ascending."""
    keys = np.stack([np.asarray(r, dtype=int) for r in ranks], axis=1)
    order, starts, _ = row_classes(keys)
    for lo, hi in zip(starts[:-1], starts[1:]):
        yield tuple(int(k) for k in keys[order[lo]]), order[lo:hi]


def by_class(fn, ragged, *args):
    """Run a stack form over ragged stacks, one call per class of widths.

    `ragged` lists (widths (B,), padded (B, m, K)) pairs; `fn` gets each
    class's stacks cut to their widths, then `args`, and returns (ranks,
    bases).  Returns the merged (ranks (B,), padded bases).
    """
    size = len(ragged[0][0])
    parts = []
    for key, idx in rank_classes(*(w for w, _ in ragged)):
        cut = [padded[idx][:, :, :k] for k, (_, padded) in zip(key, ragged)]
        parts.append((idx, fn(*cut, *args)))
    rows = parts[0][1][1].shape[1]
    ranks = np.zeros(size, dtype=int)
    out = np.zeros((size, rows, max(bases.shape[2] for _, (_, bases) in parts)))
    for idx, (r, bases) in parts:
        ranks[idx] = r
        out[idx, :, : bases.shape[2]] = bases
    return ranks, out


def max_by_class(fn, ranks: np.ndarray, padded: np.ndarray) -> float:
    """Largest entry of fn(indices, stack) over the rank classes of a ragged
    stack, each class cut to its width; 0 when there are none."""
    return max((float(np.max(fn(idx, padded[idx][:, :, :k]), initial=0.0))
                for (k,), idx in rank_classes(ranks)), default=0.0)


def span_stack(vectors: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Ranks and orthonormal bases of the column spans of a (..., m, s) stack.

    One `_svd` call for the whole stack.  Returns (ranks (...), bases
    (..., m, min(m, s))): the first ``ranks[i]`` columns of ``bases[i]`` are
    an orthonormal basis of the span of ``vectors[i]``.
    """
    vectors = np.asarray(vectors, dtype=float)
    m, s = vectors.shape[-2:]
    if m == 0 or s == 0:
        return np.zeros(vectors.shape[:-2], dtype=int), np.zeros(vectors.shape[:-2] + (m, 0))
    sv, u = _svd(vectors, "left")
    return _count(sv, tol, floor), u


def kernel_stack(rows: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0):
    """Nullities (B,) and bases (B, k, k) of the right null spaces of a
    (B, m, k) stack; everything when there are no rows."""
    rows = np.asarray(rows, dtype=float)
    size, m, k = rows.shape
    if m == 0 or k == 0:
        return np.full(size, k), np.broadcast_to(np.eye(k), (size, k, k)).copy()
    s, vt = _svd(rows, "right")
    count = _count(s, tol, floor)
    # rotate the right singular vectors so that the kernel columns come first
    order = (np.arange(k) + count[:, None]) % k
    return k - count, np.take_along_axis(vt.transpose(0, 2, 1), order[:, None, :], axis=2)


def image_stack(basis: np.ndarray, widths: np.ndarray, coeffs: np.ndarray, tol: float):
    """Ranks and bases of span(basis[i] @ coeffs[i][:, :widths[i]])."""
    full = np.full(len(basis), basis.shape[2])
    return by_class(lambda b, c: span_stack(b @ c, tol), [(full, basis), (widths, coeffs)])


def complement_stack(sub: np.ndarray, within: np.ndarray, eps: np.ndarray, tol: float):
    """Vectors of span(`within`) orthogonal to span(`sub`) w.r.t. diag(eps)."""
    size, _, w = within.shape
    if w == 0:
        return np.zeros(size, dtype=int), within
    if sub.shape[2] == 0:
        return np.full(size, w), within
    rows = (sub * eps[:, None]).transpose(0, 2, 1) @ within  # constraints on coefficients
    null, coeffs = kernel_stack(rows, tol, 1.0)
    return image_stack(within, null, coeffs, tol)


def radical_stack(basis: np.ndarray, eps: np.ndarray, tol: float):
    """span(basis) intersected with its diag(eps)-orthogonal: the kernel of
    its Gram matrix."""
    gram = basis.transpose(0, 2, 1) @ (basis * eps[:, None])
    null, coeffs = kernel_stack(gram, tol, 1.0)
    return image_stack(basis, null, coeffs, tol)


def signature(gram: np.ndarray, tol: float = DEFAULT_TOL):
    """(positive, negative, null) inertia of a symmetric matrix, or a (B, 3)
    array of them for a (B, k, k) stack."""
    gram = np.asarray(gram, dtype=float)
    stack = gram if gram.ndim == 3 else gram[None]
    k = stack.shape[1]
    counts = np.zeros((len(stack), 3), dtype=int)
    if k:
        vals = np.linalg.eigvalsh(0.5 * (stack + stack.transpose(0, 2, 1)))
        thr = tol * np.maximum(np.max(np.abs(vals), axis=1, keepdims=True), 1.0)
        counts[:, 0], counts[:, 1] = np.sum(vals > thr, axis=1), np.sum(vals < -thr, axis=1)
        counts[:, 2] = k - counts[:, 0] - counts[:, 1]
    return counts if gram.ndim == 3 else tuple(int(x) for x in counts[0])


# ---------------------------------------------------------------------------
# metric stacks: point-axis kernels for small symmetric matrices
# ---------------------------------------------------------------------------


# LAPACK's relative machine precision, dlamch("E"): half the spacing of 1.0
_LAPACK_EPS = np.finfo(float).eps / 2


def eigvalsh_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., n), ascending, of each symmetric matrix of a
    (..., n, n) stack, read from its lower triangle as `np.linalg.eigvalsh`
    reads it.

    n = 1 is the entry.  n = 2 is LAPACK's own 2x2 rule: `dsyevd` hands
    `dsterf` the diagonal (a, c) and the off-diagonal b, `dsterf` keeps
    (a, c) when |b| <= sqrt|a| sqrt|c| eps and otherwise takes `dlae2`
    (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990), so the values
    are bit for bit those of `eigvalsh` for entries in LAPACK's unscaled
    range (about 1e-146 to 1e146).  n >= 3 takes one stacked `eigvalsh`.
    NaN where an entry of a 2x2 matrix is not finite.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0].copy()
    if n != 2:
        return np.linalg.eigvalsh(a)
    x, b, c = a[..., 0, 0], a[..., 1, 0], a[..., 1, 1]
    with np.errstate(all="ignore"):
        sm, adf, ab = x + c, np.abs(x - c), np.abs(b + b)
        big = np.abs(x) > np.abs(c)
        acmx, acmn = np.where(big, x, c), np.where(big, c, x)
        rt = np.where(adf > ab, adf * np.sqrt(1.0 + (ab / adf) ** 2),
                      np.where(adf < ab, ab * np.sqrt(1.0 + (adf / ab) ** 2), ab * np.sqrt(2.0)))
        rt1 = np.where(sm < 0, 0.5 * (sm - rt), 0.5 * (sm + rt))  # the larger in modulus
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
        rt1, rt2 = np.where(sm == 0, 0.5 * rt, rt1), np.where(sm == 0, -0.5 * rt, rt2)
        split = np.abs(b) <= np.sqrt(np.abs(x)) * np.sqrt(np.abs(c)) * _LAPACK_EPS
        lo, hi = np.where(split, x, rt1), np.where(split, c, rt2)
    out = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=-1)
    out[~np.isfinite(x + b + c)] = np.nan
    return out


def _point_last(a: np.ndarray) -> np.ndarray:
    """A (..., n, n) stack as a contiguous (n, n, B) array: each entry of the
    matrices is one contiguous row over the B points."""
    n = a.shape[-1]
    return np.ascontiguousarray(np.moveaxis(a.reshape(-1, n, n), 0, -1))


def _point_first(t: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The inverse of `_point_last`: an (n, n, B) array as a (..., n, n) stack."""
    return np.ascontiguousarray(np.moveaxis(t, -1, 0)).reshape(shape)


def _signed_cholesky_point_last(a: np.ndarray):
    """`signed_cholesky_stack` on a point-last (n, n, B) array: (R, R^-1,
    signs (n, B), ok)."""
    n = a.shape[0]
    chol, inv = np.zeros_like(a), np.zeros_like(a)
    signs = np.ones_like(a[0])
    ok = np.ones(a.shape[2:], dtype=bool)
    with np.errstate(all="ignore"):  # a failing entry is reported by ok
        for j in range(n):
            scaled = chol[j, :j] * signs[:j]  # R_jk s_k: R_jk itself where the signs are +1
            pivot = a[j, j] - np.sum(chol[j, :j] * scaled, axis=0)
            size = np.abs(pivot)
            ok &= (size > 0) & (size < np.inf)  # NaN compares False
            signs[j] = np.sign(pivot)
            chol[j, j] = np.sqrt(np.where(ok, size, 1.0))
            diag = chol[j, j] * signs[j]
            for i in range(j + 1, n):
                chol[i, j] = (a[i, j] - np.sum(chol[i, :j] * scaled, axis=0)) / diag
        for i in range(n):
            inv[i, i] = 1.0 / chol[i, i]
            for j in range(i):
                inv[i, j] = -np.sum(chol[i, j:i] * inv[j:i, j], axis=0) / chol[i, i]
    return chol, inv, signs, ok


def signed_cholesky_stack(a: np.ndarray):
    """Signed Cholesky factors of a (..., n, n) stack of symmetric matrices,
    read from the lower triangle, with their inverses.

    Returns (R, R^-1, signs (..., n), ok): lower-triangular R with
    R diag(signs) R^T = a, which is the unpivoted LDL^T with
    R = L |D|^(1/2) and signs = sign(D), its inverse by forward
    substitution, and ok (...) where every pivot is nonzero and finite; R,
    R^-1 and signs mean nothing where ok is False.  Without pivoting the
    factor can grow: its backward error is bounded by gamma_{n+1} |R| |R^T|
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    ch. 10-11), whose norm is at most gamma_{n+1} ||R||_F^2, so a caller
    judges the factor by ||R||_F^2, not by ||a||.  Where every sign is +1
    this is the unblocked Cholesky column algorithm, and `cholesky_stack`
    is that case bit for bit: multiplying by a sign of 1.0 is exact.  The
    loops run over the matrix entries, each step over all points at once,
    on a point-last copy so that every entry is one contiguous row.
    """
    a = np.asarray(a, dtype=float)
    chol, inv, signs, ok = _signed_cholesky_point_last(_point_last(a))
    batch = a.shape[:-2]
    return (_point_first(chol, a.shape), _point_first(inv, a.shape),
            np.ascontiguousarray(signs.T).reshape(batch + signs.shape[:1]), ok.reshape(batch))


def _positive(signs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Where a point-last signed factor is a Cholesky factor: every pivot positive."""
    return ok & np.all(signs > 0, axis=0)


def cholesky_stack(a: np.ndarray):
    """Cholesky factors of a (..., n, n) stack of symmetric matrices, read
    from the lower triangle, with their inverses.

    Returns (L, L^-1, ok): lower-triangular L with L L^T = a, its inverse
    by forward substitution, and ok (...) where every pivot is positive and
    finite; L and L^-1 mean nothing where ok is False.  This is the
    all-positive case of `signed_cholesky_stack`, the unblocked column
    algorithm, backward stable (Higham, ch. 10).
    """
    a = np.asarray(a, dtype=float)
    chol, inv, signs, ok = _signed_cholesky_point_last(_point_last(a))
    return (_point_first(chol, a.shape), _point_first(inv, a.shape),
            _positive(signs, ok).reshape(a.shape[:-2]))


def inverse_stack(a: np.ndarray) -> np.ndarray:
    """Inverses of a (B, n, n) stack of symmetric matrices: L^-T L^-1 from
    `cholesky_stack` where every pivot is positive, LAPACK's `inv` for the
    other entries (indefinite ones)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    _, inv, signs, ok = _signed_cholesky_point_last(_point_last(a))
    ok = _positive(signs, ok)
    out = np.empty_like(inv)
    for i in range(n):
        for j in range(i + 1):  # (L^-T L^-1)_ij = sum over k >= i of L^-1_ki L^-1_kj
            out[i, j] = out[j, i] = np.sum(inv[i:, i] * inv[i:, j], axis=0)
    out = _point_first(out, a.shape)
    if not ok.all():
        out[~ok] = np.linalg.inv(a[~ok])
    return out


def gap_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spectral distances (B,) of the dot projectors onto two spans given by
    orthonormal columns (1.0 signals a rank mismatch).  The difference of
    the projectors is symmetric: its spectral norm is its largest |eigenvalue|."""
    if a.shape[1] == 0:
        return np.zeros(len(a))
    diff = a @ a.transpose(0, 2, 1) - b @ b.transpose(0, 2, 1)
    return np.max(np.abs(eigvalsh_stack(diff)), axis=-1)


def project_stack(basis: np.ndarray, eps: np.ndarray, vectors: np.ndarray, tol: float) -> np.ndarray:
    """diag(eps)-orthogonal projections of `vectors` (B, m, v) onto span(basis).

    Raises DegenerateSubspace when some span(basis[i]) has a radical by
    `signature`.
    """
    weighted = basis * eps[:, None]
    gram = basis.transpose(0, 2, 1) @ weighted
    null = signature(gram, tol)[:, 2]
    if null.any():
        raise DegenerateSubspace(
            f"projection target has a radical of dimension {null[np.flatnonzero(null)[0]]}"
        )
    return basis @ np.linalg.solve(gram, weighted.transpose(0, 2, 1) @ vectors)


def frame_coords(frames: np.ndarray, eps, pattern, vectors: np.ndarray) -> np.ndarray:
    """Coordinates (B, k, w) of `vectors` (B, m, w) in pseudo-orthonormal
    frames (B, m, k) of diag(eps) whose columns f_u have <f_u, f_u> =
    pattern[u]: c_u = pattern[u] <f_u, v>.  On the span of the frames,
    `frames @ c` gives the vectors back; elsewhere it is their projection."""
    weighted = frames * np.asarray(eps, dtype=float)[:, None]
    return np.asarray(pattern, dtype=float)[:, None] * (np.swapaxes(weighted, -1, -2) @ vectors)


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
    def lightcone(n_euclidean: int) -> "ScalarProduct":
        """Ambient of the light-cone model over R^n: dim n+2, index 1, null pair."""
        return ScalarProduct(n_euclidean + 2, (-1,) + (1,) * (n_euclidean + 1), pseudo_pair=True)

    # pairings ------------------------------------------------------------

    def inner(self, u: np.ndarray, v: np.ndarray):
        """<u, v>; broadcasts over leading axes (vectors on the last axis)."""
        return contract("...i,ij,...j->...", np.asarray(u, float), self.gram, np.asarray(v, float))

    def norm_sq(self, u: np.ndarray):
        return self.inner(u, u)
