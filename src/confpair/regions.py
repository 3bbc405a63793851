"""Grid-region bookkeeping: flood fill over rank profiles, interior masks.

The structure results hold on connected components where every constructed
subbundle has constant rank; these helpers segment a chart grid accordingly
and provide the BFS levels of frame alignment.  Neighbours are found by
stride arithmetic on flat C-order indices, one whole BFS level at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .indefinite_linalg import row_classes

# (shape, mask, seed) keys whose levels are kept: one run sweeps the same few
# charts and regions many times, for each map, its lift and each check
LEVELS_CACHE_SIZE = 32


def _expand(shape: tuple[int, ...], allowed: np.ndarray, seed: int):
    """BFS levels of `allowed` (flat bool) from `seed`, and the visited mask.

    Each level is (points, parents).  A point's parent is the first point of
    the previous level, in level order, that has it as an axis neighbour,
    with the neighbours of a point taken axis by axis, -1 before +1: the
    order of a deque BFS.
    """
    extent = np.repeat(np.asarray(shape, dtype=int), 2)      # one slot per (axis, -1/+1)
    strides = np.repeat(np.cumprod((1,) + tuple(shape)[:0:-1])[::-1], 2)
    sign = np.tile([-1, 1], len(shape))
    seen = np.zeros(allowed.shape, dtype=bool)
    seen[seed] = True
    front = np.array([seed])
    levels = [(front, np.array([-1]))]
    while True:
        moved = front[:, None] // strides % extent + sign
        inside = ((moved >= 0) & (moved < extent)).ravel()
        cand = (front[:, None] + sign * strides).ravel()[inside]
        parents = np.repeat(front, sign.size)[inside]
        fresh = allowed[cand] & ~seen[cand]
        cand, parents = cand[fresh], parents[fresh]
        if cand.size == 0:
            return levels, seen
        first = np.sort(np.unique(cand, return_index=True)[1])
        front = cand[first]
        seen[front] = True
        levels.append((front, parents[first]))


@lru_cache(maxsize=LEVELS_CACHE_SIZE)
def _cached_levels(shape: tuple[int, ...], mask_bytes: bytes, seed: int):
    """Read-only BFS levels of the flat bool mask in `mask_bytes` from
    `seed`, and whether they cover the mask."""
    flat_mask = np.frombuffer(mask_bytes, dtype=bool)
    levels, seen = _expand(shape, flat_mask, seed)
    for points, parents in levels:
        points.flags.writeable = False
        parents.flags.writeable = False
    return tuple(levels), int(seen.sum()) == int(flat_mask.sum())


def bfs_levels(shape: tuple[int, ...], mask: np.ndarray, seed: int | None = None):
    """(points, parents) int arrays per BFS level covering `mask`.

    The first level is the seed (default: the first masked point) with parent
    -1; flattened, the levels give the (point, parent) order of a deque BFS.
    Raises if the mask is disconnected.  Levels are memoized on (shape,
    mask, seed), so their arrays are read-only; the list is new on each call.
    """
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    if seed is None:
        seeds = np.flatnonzero(flat_mask)
        if seeds.size == 0:
            return []
        seed = int(seeds[0])
    levels, connected = _cached_levels(tuple(int(s) for s in shape), flat_mask.tobytes(), int(seed))
    if not connected:
        raise ValueError("mask is not connected; segment it first")
    return list(levels)


def label_regions(shape: tuple[int, ...], profile: np.ndarray) -> np.ndarray:
    """Connected components of equal profile codes (P,), such as those of
    `pack_profile`; labels count up in the order of each component's first
    flat index."""
    codes = np.asarray(profile).reshape(-1)
    labels = np.full(codes.size, -1, dtype=int)
    current = 0
    while (labels < 0).any():
        start = int(np.argmax(labels < 0))
        _, seen = _expand(shape, codes == codes[start], start)
        labels[seen] = current
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
