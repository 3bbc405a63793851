"""Grid topology by stride arithmetic against the deque references it replaced."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confpair import regions
from confpair.regions import bfs_levels, label_regions, pack_profile


def neighbors(shape, flat_index):
    """Axis neighbours of a flat index, axis by axis, -1 before +1."""
    idx = list(np.unravel_index(flat_index, shape))
    out = []
    for ax, size in enumerate(shape):
        for step in (-1, 1):
            j = idx[ax] + step
            if 0 <= j < size:
                nb = idx.copy()
                nb[ax] = j
                out.append(int(np.ravel_multi_index(nb, shape)))
    return out


def deque_bfs(shape, mask, seed=None):
    """(point, parent) pairs of a deque BFS over the points of `mask` that
    `seed` reaches."""
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    if seed is None:
        seed = int(np.flatnonzero(flat_mask)[0])
    order = [(seed, -1)]
    seen = {seed}
    queue = deque([seed])
    while queue:
        p = queue.popleft()
        for nb in neighbors(shape, p):
            if flat_mask[nb] and nb not in seen:
                seen.add(nb)
                order.append((nb, p))
                queue.append(nb)
    return order


def flood_labels(shape, profile):
    """Components of equal profile values, numbered by first flat index."""
    labels = np.full(len(profile), -1, dtype=int)
    current = 0
    for start in range(len(profile)):
        if labels[start] >= 0:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for nb in neighbors(shape, p):
                if labels[nb] < 0 and profile[nb] == profile[start]:
                    labels[nb] = current
                    queue.append(nb)
        current += 1
    return labels


def flatten(levels):
    return [(int(q), int(par)) for pts, pars in levels for q, par in zip(pts, pars)]


shapes = st.lists(st.integers(1, 5), min_size=1, max_size=5).filter(
    lambda s: int(np.prod(s)) <= 400)


@st.composite
def masked_grids(draw):
    """A shape, a connected mask (the component of a random mask around a
    seed) and that seed, or None for the first masked point."""
    shape = tuple(draw(shapes))
    npts = int(np.prod(shape))
    raw = np.array(draw(st.lists(st.booleans(), min_size=npts, max_size=npts)))
    seed = draw(st.integers(0, npts - 1))
    raw[seed] = True
    component = np.zeros(npts, dtype=bool)
    component[[q for q, _ in deque_bfs(shape, raw, seed)]] = True
    if not draw(st.booleans()):
        seed = None
    return shape, component, seed


@settings(max_examples=80, deadline=None)
@given(masked_grids())
def test_bfs_levels_flatten_to_the_deque_order(case):
    shape, mask, seed = case
    levels = bfs_levels(shape, mask, seed)
    assert flatten(levels) == deque_bfs(shape, mask, seed)
    # every parent sits in the level right above its child
    for (above, _), (_, parents) in zip(levels, levels[1:]):
        assert np.isin(parents, above).all()


@settings(max_examples=60, deadline=None)
@given(shapes, st.data())
def test_disconnected_mask_raises(shape, data):
    shape = tuple(shape)
    npts = int(np.prod(shape))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=npts, max_size=npts)))
    if not mask.any():
        assert bfs_levels(shape, mask) == []
        return
    expected = deque_bfs(shape, mask)
    if len(expected) < mask.sum():
        with pytest.raises(ValueError):
            bfs_levels(shape, mask)
    else:
        assert flatten(bfs_levels(shape, mask)) == expected


def test_two_islands_raise():
    mask = np.array([True, False, True])
    with pytest.raises(ValueError, match="not connected"):
        bfs_levels((3,), mask)


@settings(max_examples=80, deadline=None)
@given(shapes, st.integers(1, 3), st.data())
def test_label_regions_matches_flood_fill(shape, values, data):
    shape = tuple(shape)
    npts = int(np.prod(shape))
    profile = np.array(data.draw(st.lists(st.integers(0, values - 1), min_size=npts, max_size=npts)))
    assert label_regions(shape, profile).tolist() == flood_labels(shape, profile.tolist()).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.data())
def test_pack_profile_codes_equal_exactly_on_equal_rows(npts, ncols, data):
    columns = [np.array(data.draw(st.lists(st.integers(-2, 2), min_size=npts, max_size=npts)))
               for _ in range(ncols)]
    codes = pack_profile(columns)
    rows = list(zip(*[c.tolist() for c in columns]))
    for i in range(npts):
        for j in range(npts):
            assert (codes[i] == codes[j]) == (rows[i] == rows[j])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_pack_profile_codes_are_the_inverse_of_unique_rows(size, cols, spread, seed):
    columns = list(np.random.default_rng(seed).integers(-spread, spread + 1, size=(cols, size)))
    expected = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)[1].reshape(-1)
    assert np.array_equal(pack_profile(columns), expected)


def test_bfs_levels_are_memoized_per_shape_mask_and_seed(monkeypatch):
    regions._cached_levels.cache_clear()
    expanded = []

    def counted(shape, allowed, seed):
        expanded.append((shape, seed))
        return real(shape, allowed, seed)

    real = regions._expand
    monkeypatch.setattr(regions, "_expand", counted)
    shape = (4, 5)
    mask = np.ones(20, dtype=bool)
    first = bfs_levels(shape, mask)
    again = bfs_levels(list(shape), mask.reshape(shape).copy(), 0)  # the same key, seed resolved
    assert expanded == [(shape, 0)]
    assert flatten(again) == flatten(first) == deque_bfs(shape, mask)
    # cached arrays are read-only, and each call hands out its own list
    with pytest.raises(ValueError):
        again[1][0][0] = 7
    again.clear()
    assert flatten(bfs_levels(shape, mask)) == flatten(first)
    assert expanded == [(shape, 0)]
    # another seed or mask gets its own levels
    other = mask.copy()
    other[19] = False
    assert flatten(bfs_levels(shape, mask, 7)) == deque_bfs(shape, mask, 7)
    assert flatten(bfs_levels(shape, other)) == deque_bfs(shape, other)
    assert expanded == [(shape, 0), (shape, 7), (shape, 0)]
