"""Grid-region bookkeeping: flood fill over rank profiles, interior masks.

The structure results hold on connected components where every constructed
subbundle has constant rank; these helpers segment a chart grid accordingly.
Neighbours are found by stride arithmetic on flat C-order indices, one whole
flood front at a time.
"""

from __future__ import annotations

import numpy as np

from .indefinite_linalg import row_classes


def _flood(shape: tuple[int, ...], allowed: np.ndarray, seed: int) -> np.ndarray:
    """The points of `allowed` (flat bool) that `seed` reaches through axis
    neighbours, as a flat bool mask."""
    extent = np.repeat(np.asarray(shape, dtype=int), 2)      # one slot per (axis, -1/+1)
    strides = np.repeat(np.cumprod((1,) + tuple(shape)[:0:-1])[::-1], 2)
    sign = np.tile([-1, 1], len(shape))
    seen = np.zeros(allowed.shape, dtype=bool)
    seen[seed] = True
    front = np.array([seed])
    while front.size:
        moved = front[:, None] // strides % extent + sign
        cand = (front[:, None] + sign * strides)[(moved >= 0) & (moved < extent)]
        front = np.unique(cand[allowed[cand] & ~seen[cand]])
        seen[front] = True
    return seen


def label_regions(shape: tuple[int, ...], profile: np.ndarray) -> np.ndarray:
    """Connected components of equal profile codes (P,), such as those of
    `pack_profile`; labels count up in the order of each component's first
    flat index."""
    codes = np.asarray(profile).reshape(-1)
    labels = np.full(codes.size, -1, dtype=int)
    current = 0
    while (labels < 0).any():
        start = int(np.argmax(labels < 0))
        labels[_flood(shape, codes == codes[start], start)] = current
        current += 1
    return labels


def pack_profile(columns: list[np.ndarray]) -> np.ndarray:
    """One integer code per point for the tuple of its integer columns:
    equal codes exactly where the tuples are equal, counting up in ascending
    tuple order."""
    return row_classes(np.stack([np.asarray(c, dtype=int) for c in columns], axis=1))[2]


def interior_mask(shape: tuple[int, ...], mask: np.ndarray, margin: int) -> np.ndarray:
    """Erode `mask` by `margin` grid steps along every axis."""
    m = np.asarray(mask, dtype=bool).reshape(shape)
    out = m.copy()
    for _ in range(margin):
        eroded = out.copy()
        for ax in range(len(shape)):
            lo = np.zeros_like(out)
            hi = np.zeros_like(out)
            sl_lo = [slice(None)] * len(shape)
            sl_hi = [slice(None)] * len(shape)
            sl_lo[ax] = slice(1, None)
            sl_hi[ax] = slice(None, -1)
            lo[tuple(sl_lo)] = out[tuple(sl_hi)]
            hi[tuple(sl_hi)] = out[tuple(sl_lo)]
            eroded &= lo & hi
        out = eroded
    return out.reshape(-1)
