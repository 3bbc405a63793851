"""Grid topology by stride arithmetic against the deque references it replaced."""

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from confpair.regions import label_regions, pack_profile


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


shapes = st.lists(st.integers(1, 5), min_size=1, max_size=5).filter(
    lambda s: int(np.prod(s)) <= 400)


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
