"""Exact rational oracles used to certify the floating-point linear algebra.

Everything here works over `fractions.Fraction`, so results are exact on
integer inputs.  These are test-only references; the package itself never
imports them.  The module ends with the one-matrix views of the stack forms
that the certifying tests compare against the oracles.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from confpair.indefinite_linalg import DEFAULT_TOL, kernel_stack, span_stack


def _to_fractions(matrix) -> list[list[Fraction]]:
    return [[Fraction(x).limit_denominator(10**12) if not isinstance(x, Fraction) else x
             for x in row] for row in np.asarray(matrix).tolist()]


def rational_rank(matrix) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = _to_fractions(matrix)
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        col += 1
    return rank


def rational_signature(gram) -> tuple[int, int, int]:
    """Exact inertia (pos, neg, null) of a symmetric rational matrix.

    Symmetric congruence reduction: clear one diagonal pivot at a time; a
    zero diagonal with a nonzero off-diagonal entry is first repaired by a
    congruence that adds the partner row/column.
    """
    g = _to_fractions(gram)
    k = len(g)
    pos = neg = 0
    active = list(range(k))
    while active:
        # find a nonzero diagonal entry among active indices
        pivot = None
        for i in active:
            if g[i][i] != 0:
                pivot = i
                break
        if pivot is None:
            repaired = False
            for i in active:
                for j in active:
                    if i != j and g[i][j] != 0:
                        for c in range(k):
                            g[i][c] += g[j][c]
                        for c in range(k):
                            g[c][i] += g[c][j]
                        pivot = i
                        repaired = True
                        break
                if repaired:
                    break
            if not repaired:
                break  # remaining block is zero
        d = g[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        others = [i for i in active if i != pivot]
        for i in others:
            if g[i][pivot] != 0:
                f = g[i][pivot] / d
                for c in range(k):
                    g[i][c] -= f * g[pivot][c]
                for c in range(k):
                    g[c][i] -= f * g[c][pivot]
        active = others
    null = k - pos - neg
    return pos, neg, null


def rational_intersection_dim(basis_u, basis_v) -> int:
    """dim(span U ^ span V) for integer column bases, exactly."""
    u = np.asarray(basis_u)
    v = np.asarray(basis_v)
    ru = rational_rank(u.T)
    rv = rational_rank(v.T)
    runion = rational_rank(np.hstack([u, v]).T)
    return ru + rv - runion


# ---------------------------------------------------------------------------
# one-matrix views of the stack forms
# ---------------------------------------------------------------------------


def span(vectors, tol=DEFAULT_TOL, floor=0.0):
    """Orthonormal basis of the column span of one matrix, by the call
    `jets._seed_frame` makes."""
    count, basis = span_stack(vectors, tol, floor)
    return basis[:, :count]


def null_space(rows, tol=DEFAULT_TOL, floor=0.0):
    """Orthonormal basis of the right null space of one matrix; everything
    when there are no rows."""
    null, basis = kernel_stack(np.asarray(rows, dtype=float)[None], tol, floor)
    return basis[0, :, : null[0]]
