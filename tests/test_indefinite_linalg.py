import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confpair import indefinite_linalg
from confpair.errors import DegenerateSubspace
from confpair.indefinite_linalg import (
    DEFAULT_TOL,
    PATH_CACHE_SIZE,
    ScalarProduct,
    cholesky_stack,
    complement_stack,
    contract,
    eigvalsh_stack,
    frame_coords,
    gap_stack,
    inverse_stack,
    kernel_stack,
    max_by_class,
    project_stack,
    radical_stack,
    rank,
    rank_classes,
    row_classes,
    signature,
    signed_cholesky_stack,
    span_stack,
)

from oracles import null_space, rational_intersection_dim, rational_rank, rational_signature, span

LORENTZ2 = ScalarProduct(2, (-1, 1))
RNG = np.random.default_rng(20240811)
FLOORS = (0.0, 1.0)  # the pure relative rule and the floor the pipeline uses on frames


def lightcone_null_pair(dim=4):
    sp = ScalarProduct.lightcone(dim - 2)
    e0 = np.zeros(dim)
    e0[0] = 1.0
    e1 = np.zeros(dim)
    e1[1] = 1.0
    return sp, e0, e1


def lorentz_null_line(dim=4):
    """diag(-1, 1, ..., 1) and a dot-unit null vector of it."""
    eps = np.r_[-1.0, np.ones(dim - 1)]
    e0 = np.zeros(dim)
    e0[:2] = np.sqrt(0.5)
    return eps, e0


def image(vals):
    """Spanning set (columns) of all values of a sampled bilinear form."""
    return vals.reshape(-1, vals.shape[-1]).T


def pairing_rows(vals, eps, sub):
    """Rows X -> <beta(X, Y), xi> over all Y and all xi in span(sub)."""
    return np.einsum("lrm,m,mt->rtl", vals, eps, sub).reshape(-1, vals.shape[0])


def contains(basis, v, tol=DEFAULT_TOL):
    residual = np.linalg.norm(v - basis @ (basis.T @ v))
    return residual <= tol * max(1.0, float(np.linalg.norm(v)))


def gram(basis, eps):
    return basis.T @ (basis * eps[:, None])


def first(ranks, bases):
    """The answer for the one entry of a one-entry stack."""
    return bases[0, :, : ranks[0]]


def project_one(basis, eps, vectors, tol):
    """Projection of columns, or of one vector, as a one-entry stack."""
    vectors = np.asarray(vectors, dtype=float)
    out = project_stack(basis[None], eps, vectors.reshape(len(vectors), -1)[None], tol)[0]
    return out.reshape(vectors.shape)


def intersection(bu, bv, floor, tol=DEFAULT_TOL):
    """span(bu) ^ span(bv) as the kernel of the stacked dot-annihilators."""
    ann_u = null_space(span(bu, tol, floor).T, tol, floor)
    ann_v = null_space(span(bv, tol, floor).T, tol, floor)
    return null_space(np.vstack([ann_u.T, ann_v.T]), tol, floor)


def test_lightcone_gram_conventions():
    sp, e0, e1 = lightcone_null_pair(5)
    assert sp.inner(e0, e0) == 0
    assert sp.inner(e1, e1) == 0
    assert sp.inner(e0, e1) == 1
    assert sp.index == 1


def test_span_of_zero_form_is_zero_subspace():
    vectors = image(np.zeros((2, 2, 3)))
    for floor in FLOORS:
        assert span(vectors, DEFAULT_TOL, floor).shape[1] == 0
        assert rank(vectors, DEFAULT_TOL, floor) == 0


def test_span_of_rank_one_form():
    w = np.array([1.0, 2.0, 0.0, -1.0])
    vals = np.zeros((3, 3, 4))
    for i in range(3):
        vals[i, i] = w
    for floor in FLOORS:
        sub = span(image(vals), DEFAULT_TOL, floor)
        assert sub.shape[1] == 1
        assert contains(sub, w)
        assert rank(image(vals), DEFAULT_TOL, floor) == 1


def test_span_rank_matches_rational_oracle_on_random_integer_forms():
    stack = []
    for _ in range(20):
        r = int(RNG.integers(1, 4))
        left = RNG.integers(-3, 4, size=(3 * 3, r))
        right = RNG.integers(-3, 4, size=(r, 5))
        vals = (left @ right).reshape(3, 3, 5).astype(float)
        expected = rational_rank(vals.reshape(-1, 5))
        for floor in FLOORS:
            assert span(image(vals), DEFAULT_TOL, floor).shape[1] == expected
            assert rank(image(vals), DEFAULT_TOL, floor) == expected
        stack.append((image(vals), expected))
    # the stacked form decides every matrix as the single one does
    ranks = rank(np.stack([m for m, _ in stack]), DEFAULT_TOL, 1.0)
    assert ranks.tolist() == [e for _, e in stack]


def test_span_stack_matches_rational_oracle_and_single_spans():
    # a (B, m, s) stack of integer spanning sets of ranks 0 to 3, some scaled up
    mats = []
    for b in range(24):
        r = b % 4
        left = RNG.integers(-3, 4, size=(5, r))
        right = RNG.integers(-3, 4, size=(r, 4))
        mats.append((left @ right).astype(float) * (10.0 if b % 3 else 1.0))
    stack = np.stack(mats)
    expected = [rational_rank(m) for m in mats]
    for floor in FLOORS:
        ranks, bases = span_stack(stack, DEFAULT_TOL, floor)
        assert ranks.tolist() == expected
        for m, r, basis in zip(mats, ranks, bases):
            single = span(m, DEFAULT_TOL, floor)
            assert single.shape[1] == r
            assert np.array_equal(basis[:, :r], single)
            assert all(contains(basis[:, :r], col) for col in m.T)


def test_nullity_of_zero_form_is_everything():
    eps = np.ones(3)
    rows = pairing_rows(np.zeros((4, 2, 3)), eps, np.eye(3))
    for floor in FLOORS:
        assert null_space(rows, DEFAULT_TOL, floor).shape[1] == 4


def test_nullity_with_zero_constraint_space_is_everything():
    eps = np.ones(3)
    vals = RNG.normal(size=(4, 2, 3))
    rows = pairing_rows(vals, eps, np.zeros((3, 0)))
    for floor in FLOORS:
        assert null_space(rows, DEFAULT_TOL, floor).shape[1] == 4


# Gram matrices of dot-orthonormal bases under a unit metric have scale one,
# so `radical` decides at floor 1.0: relative to its own size, a Gram entry
# of roundoff would count as a direction.


def test_radical_riemannian_is_zero():
    basis = span(RNG.normal(size=(4, 2)))
    assert first(*radical_stack(basis[None], np.ones(4), DEFAULT_TOL)).shape[1] == 0


def test_radical_null_line_is_itself():
    eps, e0 = lorentz_null_line(4)
    rad = first(*radical_stack(span(e0[:, None])[None], eps, DEFAULT_TOL))
    assert rad.shape[1] == 1
    assert contains(rad, e0)


def test_radical_mixed_null_plus_spacelike():
    eps, e0 = lorentz_null_line(4)
    u = np.zeros(4)
    u[2] = 1.0  # unit spacelike, orthogonal to the null line
    rad = first(*radical_stack(span(np.stack([e0, u], axis=1))[None], eps, DEFAULT_TOL))
    assert rad.shape[1] == 1
    assert contains(rad, e0)
    assert not contains(rad, u)


def test_projection_fixes_members_and_kills_orthogonals():
    eps = np.ones(5)
    basis = RNG.normal(size=(5, 2))
    sub = span(basis)
    v = basis @ RNG.normal(size=2)
    assert np.allclose(project_one(sub, eps, v, DEFAULT_TOL), v)
    w = RNG.normal(size=5)
    w_perp = w - project_one(sub, eps, w, DEFAULT_TOL)
    assert np.allclose(project_one(sub, eps, w_perp, DEFAULT_TOL), 0.0)


def test_projection_onto_timelike_line_in_lorentz_plane():
    u = np.array([2.0, 1.0])  # <u,u> = -4+1 = -3, timelike
    sub = span(u[:, None])
    v = RNG.normal(size=2)
    pv = project_one(sub, np.diag(LORENTZ2.gram), v, DEFAULT_TOL)
    assert abs(LORENTZ2.inner(v - pv, u)) < 1e-12


def test_projection_rejects_degenerate_target():
    eps, e0 = lorentz_null_line(4)  # the Gram matrix of e0 is roundoff, not exactly 0
    with pytest.raises(DegenerateSubspace):
        project_one(e0[:, None], eps, np.ones(4), DEFAULT_TOL)


def test_intersect_self_and_complementary():
    u = RNG.normal(size=(4, 2))
    a, b = np.eye(4)[:, :2], np.eye(4)[:, 2:]
    for floor in FLOORS:
        assert intersection(u, u, floor).shape[1] == 2
        assert intersection(a, b, floor).shape[1] == 0


def test_intersect_planted_two_dimensional():
    common = RNG.integers(-3, 4, size=(6, 2)).astype(float)
    extra_u = RNG.integers(-3, 4, size=(6, 1)).astype(float)
    extra_v = RNG.integers(-3, 4, size=(6, 1)).astype(float)
    bu = np.hstack([common, extra_u])
    bv = np.hstack([common, extra_v])
    expected = rational_intersection_dim(bu, bv)
    for floor in FLOORS:
        assert intersection(bu, bv, floor).shape[1] == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 3), st.data())
def test_signature_matches_rational_oracle(dim, index, data):
    idx = min(index, dim)
    sig = tuple([-1] * idx + [1] * (dim - idx))
    eps = np.asarray(sig, dtype=float)
    k = data.draw(st.integers(1, dim))
    entries = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=dim, max_size=dim)
    )
    basis = np.array(entries, dtype=float)
    if rational_rank(basis.T) != k:
        return  # only compare on full-rank spans
    gram_exact = basis.T @ np.diag(sig) @ basis
    assert signature(gram(span(basis), eps)) == rational_signature(
        gram_exact.astype(int)
    )


def test_signature_of_totally_null_plane():
    # the Gram matrix of the orthonormalized plane holds roundoff of 3e-16;
    # judged relative to its own size it reads as two positive directions
    eps = np.array([-1.0, -1.0, 1.0, 1.0])
    basis = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
    gram_exact = basis.T @ np.diag(eps) @ basis
    assert rational_signature(gram_exact.astype(int)) == (0, 0, 2)
    assert signature(gram(span(basis), eps)) == (0, 0, 2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_signature_invariant_under_basis_remix(data):
    eps = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
    entries = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=5, max_size=5)
    )
    sub = span(np.array(entries, dtype=float))
    if sub.shape[1] != 3:
        return
    # a generator of its own: hypothesis runs a varying number of examples,
    # and draws from the module RNG would shift the data of every later test
    seed = data.draw(st.integers(0, 2**32 - 1))
    mix = np.random.default_rng(seed).normal(size=(3, 3)) + 3 * np.eye(3)
    remixed = span(sub @ mix)
    assert signature(gram(remixed, eps)) == signature(gram(sub, eps))


def test_projection_idempotent_and_self_adjoint():
    amb = ScalarProduct(4, (-1, 1, 1, 1))
    eps = np.diag(amb.gram)
    for _ in range(10):
        sub = span(RNG.normal(size=(4, 2)))
        if signature(gram(sub, eps))[2] != 0:
            continue
        v, w = RNG.normal(size=4), RNG.normal(size=4)
        pv = project_one(sub, eps, v, DEFAULT_TOL)
        assert np.allclose(project_one(sub, eps, pv, DEFAULT_TOL), pv, atol=1e-10)
        lhs = amb.inner(pv, w)
        rhs = amb.inner(v, project_one(sub, eps, w, DEFAULT_TOL))
        assert abs(lhs - rhs) < 1e-10


def test_cylinder_sff_nullity_is_ruling_directions():
    # second fundamental form of a 3-dim cylinder against its whole normal
    # line: the nullity is the plane of straight rulings
    from confpair import jet3 as j3
    from confpair.jets import ChartGrid, ImmersionJet, PipelineConfig, fundamental_data

    grid = ChartGrid((5, 5, 5), (0.05, 0.05, 0.05), (0.1, -0.1, -0.1))

    def cyl(xs):
        x1, x2, x3 = xs
        return [j3.cos(x1), j3.sin(x1), x2, x3]

    fund = fundamental_data(ImmersionJet.from_function(cyl, grid, ScalarProduct.euclidean(4)),
                            PipelineConfig())
    q = grid.center_index()
    rows = pairing_rows(fund.alpha[q], np.ones(1), np.eye(1))
    for floor in FLOORS:
        null = null_space(rows, DEFAULT_TOL, floor)
        assert null.shape[1] == 2
        # the curled direction is not in the nullity
        assert not contains(null, np.array([1.0, 0.0, 0.0]))


# Stack forms: each entry is decided as the single-matrix form decides it, and
# both agree with the rational oracles.  24 instances each, of mixed ranks.
STACK = 24
EPS5 = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
NULL_PLANE = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [0, 0]])  # totally null under EPS5


def integer_matrix(rows, cols, rank_):
    return (RNG.integers(-3, 4, size=(rows, rank_)) @ RNG.integers(-3, 4, size=(rank_, cols))).astype(float)


def test_kernel_stack_matches_rational_oracle_and_single_kernels():
    mats = [integer_matrix(4, 5, b % 5) * (10.0 if b % 3 else 1.0) for b in range(STACK)]
    expected = [5 - rational_rank(m) for m in mats]
    for floor in FLOORS:
        null, bases = kernel_stack(np.stack(mats), DEFAULT_TOL, floor)
        assert null.tolist() == expected
        for m, k, basis in zip(mats, null, bases):
            assert np.array_equal(basis[:, :k], null_space(m, DEFAULT_TOL, floor))
            assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-12)
            assert np.max(np.abs(m @ basis[:, :k]), initial=0.0) < 1e-12 * max(1.0, np.abs(m).max())


def test_complement_stack_matches_rational_oracle_and_single_complements():
    subs, withins, expected = [], [], []
    while len(subs) < STACK:
        sub = integer_matrix(5, 1 + len(subs) % 3, 1 + len(subs) % 3)
        within = integer_matrix(5, 3, 3)
        if rational_rank(within) != 3 or rational_rank(sub) != sub.shape[1]:
            continue
        if len(subs) % 4 == 0:
            within[:, :2] = NULL_PLANE  # constraints that vanish on part of `within`
            sub[:, :1] = NULL_PLANE[:, :1]
        subs.append(sub)
        withins.append(within)
        expected.append(3 - rational_rank(sub.T @ np.diag(EPS5.astype(int)) @ within))
    for width in (1, 2, 3):
        idx = [i for i, s in enumerate(subs) if s.shape[1] == width]
        sub_on = np.stack([span(subs[i]) for i in idx])
        within_on = np.stack([span(withins[i]) for i in idx])
        ranks, bases = complement_stack(sub_on, within_on, EPS5, DEFAULT_TOL)
        assert ranks.tolist() == [expected[i] for i in idx]
        for s, w, r, basis in zip(sub_on, within_on, ranks, bases):
            assert np.array_equal(basis[:, :r], first(*complement_stack(s[None], w[None], EPS5, DEFAULT_TOL)))
            assert np.max(np.abs(gram_between(s, basis[:, :r])), initial=0.0) < 1e-12


def gram_between(a, b, eps=EPS5):
    return a.T @ (b * eps[:, None])


def planted_radicals():
    """Rank-3 integer spanning sets in R^5 whose radicals under EPS5 have
    ranks 0, 1 and 2."""
    mats = []
    while len(mats) < STACK:
        nulls = len(mats) % 3
        null_part = NULL_PLANE @ RNG.integers(-2, 3, size=(2, nulls))
        rest = integer_matrix(5, 3 - nulls, 3 - nulls)
        if len(mats) % 6 == 5:  # orthogonal to the null plane: a radical of rank 2
            rest[:4] = NULL_PLANE[:4] @ RNG.integers(-2, 3, size=(2, 1))
        m = np.hstack([null_part, rest])
        if rational_rank(m) == 3:
            mats.append(m)
    return mats


def test_radical_stack_matches_rational_oracle_and_single_radicals():
    mats = planted_radicals()
    expected = [3 - rational_rank(m.T @ np.diag(EPS5.astype(int)) @ m) for m in mats]
    assert set(expected) >= {0, 1, 2}
    ranks, bases = radical_stack(np.stack([span(m) for m in mats]), EPS5, DEFAULT_TOL)
    assert ranks.tolist() == expected
    for m, r, basis in zip(mats, ranks, bases):
        assert np.array_equal(basis[:, :r], first(*radical_stack(span(m)[None], EPS5, DEFAULT_TOL)))


def test_gap_stack_vanishes_exactly_on_equal_spans():
    pairs, equal = [], []
    while len(pairs) < STACK:
        a = integer_matrix(5, 2, 2)
        if len(pairs) % 3 == 0:
            other = a @ np.array([[2.0, 1.0], [1.0, 1.0]])  # same span, other basis
        else:
            other = integer_matrix(5, 2, 1 + len(pairs) % 2)
        if rational_rank(a) != 2:
            continue
        pairs.append((span(a), span(other)))
        equal.append(rational_rank(other) == rational_intersection_dim(a, other) == 2)
    assert any(equal) and not all(equal)
    for width in (1, 2):
        idx = [i for i, (_, o) in enumerate(pairs) if o.shape[1] == width]
        gaps = gap_stack(np.stack([pairs[i][0] for i in idx]), np.stack([pairs[i][1] for i in idx]))
        for i, g in zip(idx, gaps):
            assert (g < 1e-12) == equal[i]
            assert g == gap_stack(pairs[i][0][None], pairs[i][1][None])[0]
            if width == 1:
                assert abs(g - 1.0) < 1e-12  # a rank mismatch reads 1


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_gap_stack_is_the_spectral_norm_of_the_projector_difference(m):
    # random spans, the same span in another basis, and spans 1e-9 apart
    rng = np.random.default_rng(m)
    for ka, kb in sorted({(1, 1), (m, m), (m // 2 + 1, m // 2 + 1), (1, m)}):
        a = np.linalg.qr(rng.standard_normal((300, m, ka)))[0]
        b = np.linalg.qr(rng.standard_normal((300, m, kb)))[0]
        if ka == kb:
            b[:100] = np.linalg.qr(a[:100] @ rng.standard_normal((100, ka, ka)))[0]
            b[100:200] = np.linalg.qr(a[100:200] + 1e-9 * rng.standard_normal((100, m, ka)))[0]
        want = np.linalg.norm(a @ a.transpose(0, 2, 1) - b @ b.transpose(0, 2, 1), ord=2, axis=(1, 2))
        assert np.max(np.abs(gap_stack(a, b) - want)) <= 1e-14
        if ka != kb:  # a rank mismatch
            assert np.max(np.abs(gap_stack(a, b) - 1.0)) <= 1e-14


def test_project_stack_matches_rational_oracle_and_single_projections():
    bases, vectors, degenerate = [], [], []
    for b in range(STACK):
        basis = integer_matrix(5, 2, 2)
        if b % 4 == 0:
            basis[:, 0] = NULL_PLANE[:, b % 8 // 4]
        if rational_rank(basis) != 2:
            continue
        bases.append(span(basis))
        vectors.append(RNG.normal(size=(5, 3)))
        exact = basis.T @ np.diag(EPS5.astype(int)) @ basis
        degenerate.append(rational_signature(exact.astype(int))[2] > 0)
    for i, (basis, vecs) in enumerate(zip(bases, vectors)):
        if degenerate[i]:
            with pytest.raises(DegenerateSubspace):
                project_stack(basis[None], EPS5, vecs[None], DEFAULT_TOL)
            continue
        proj = project_stack(basis[None], EPS5, vecs[None], DEFAULT_TOL)[0]
        assert np.array_equal(proj, project_one(basis, EPS5, vecs, DEFAULT_TOL))
        assert np.allclose(project_one(basis, EPS5, basis, DEFAULT_TOL), basis, atol=1e-10)
        assert np.max(np.abs(gram_between(basis, vecs - proj))) < 1e-10
    good = [i for i, d in enumerate(degenerate) if not d]
    assert len(good) >= STACK // 2 and any(degenerate)
    stacked = project_stack(np.stack([bases[i] for i in good]), EPS5,
                            np.stack([vectors[i] for i in good]), DEFAULT_TOL)
    for i, proj in zip(good, stacked):
        assert np.array_equal(proj, project_one(bases[i], EPS5, vectors[i], DEFAULT_TOL))
    with pytest.raises(DegenerateSubspace):
        project_stack(np.stack(bases), EPS5, np.stack(vectors), DEFAULT_TOL)


def test_frame_coords_invert_pseudo_orthonormal_frames():
    # frames of nondegenerate integer spans under EPS5, by the seed-frame rule:
    # eigenvectors of the Gram matrix scaled to unit norm, negative ones first
    checked = 0
    while checked < STACK:
        m = integer_matrix(5, 3, 3)
        exact = (m.T @ np.diag(EPS5.astype(int)) @ m).astype(int)
        if rational_rank(m) != 3 or rational_signature(exact)[2]:
            continue
        basis = span(m)
        vals, vecs = np.linalg.eigh(gram(basis, EPS5))
        frames = (basis @ (vecs / np.sqrt(np.abs(vals))))[None]
        pattern = np.sign(vals)
        # a frame's own coordinates are the identity ...
        assert np.allclose(frame_coords(frames, EPS5, pattern, frames)[0], np.eye(3), atol=1e-10)
        # ... and on any vector they give the diag(EPS5)-orthogonal projection
        vectors = RNG.normal(size=(1, 5, 4))
        proj = frames @ frame_coords(frames, EPS5, pattern, vectors)
        assert np.allclose(proj, project_stack(frames, EPS5, vectors, DEFAULT_TOL), atol=1e-10)
        checked += 1


# Per-matrix references: the one-matrix-at-a-time LAPACK forms the stack
# forms replaced.  Where every SVD of a chain has a smaller side of 3 or more,
# the stack forms make the same LAPACK calls on the same matrices, so they
# must agree bit for bit; where a matrix of smaller side 1 or 2 is decided in
# closed form, they must give the same rank and span.


def closed_form(matrix):
    """Whether the stack forms decide this matrix in closed form."""
    return 0 < min(matrix.shape) <= 2


def assert_same_answer(got, want, closed):
    """Bit for bit, or for a closed-form chain the same rank and span."""
    if not closed:
        assert np.array_equal(got, want)
        return
    assert got.shape == want.shape
    assert np.max(np.abs(got @ got.T - want @ want.T), initial=0.0) <= 1e-12


def loop_kernel(rows, tol, floor):
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return np.eye(rows.shape[1])
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[int(np.sum(s > tol * max(s[0], floor))):].T


def loop_span(vectors, tol, floor=0.0):
    if vectors.shape[0] == 0 or vectors.shape[1] == 0:
        return np.zeros((vectors.shape[0], 0))
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, : int(np.sum(s > tol * max(s[0], floor)))]


def loop_complement(sub, within, eps, tol):
    if within.shape[1] == 0:
        return within[:, :0]
    if sub.shape[1] == 0:
        return within
    return loop_span(within @ loop_kernel((sub * eps[:, None]).T @ within, tol, 1.0), tol)


def loop_radical(basis, eps, tol):
    return loop_span(basis @ loop_kernel(basis.T @ (basis * eps[:, None]), tol, 1.0), tol)


def test_stack_forms_equal_per_matrix_loops_bit_for_bit():
    # mixed ranks inside each stack, so the stack forms group entries by rank
    rows = np.stack([integer_matrix(4, 5, b % 5) for b in range(STACK)])
    for floor in FLOORS:
        null, bases = kernel_stack(rows, DEFAULT_TOL, floor)
        for m, k, basis in zip(rows, null, bases):
            assert np.array_equal(basis[:, :k], loop_kernel(m, DEFAULT_TOL, floor))
    spans = np.stack([span(m) for m in planted_radicals()])
    ranks, bases = radical_stack(spans, EPS5, DEFAULT_TOL)
    for m, r, basis in zip(spans, ranks, bases):
        want = loop_radical(m, EPS5, DEFAULT_TOL)
        # the Gram kernel (3 x 3) runs on LAPACK, the span of its image (5 x
        # nullity, of full rank) in closed form when the nullity is 1 or 2
        assert_same_answer(basis[:, :r], want, closed_form(want))
    assert {1, 2} <= set(ranks.tolist())
    subs = spans[:, :, :2]
    withins = np.stack([span(RNG.normal(size=(5, 3))) for _ in range(STACK)])
    ranks, bases = complement_stack(subs, withins, EPS5, DEFAULT_TOL)
    for s, w, r, basis in zip(subs, withins, ranks, bases):
        # the constraints on coefficients are two rows: a closed-form kernel
        assert_same_answer(basis[:, :r], loop_complement(s, w, EPS5, DEFAULT_TOL), True)
    gaps = gap_stack(withins[:, :, :2], subs)
    for a, b, g in zip(withins[:, :, :2], subs, gaps):
        assert g == float(np.max(np.abs(np.linalg.eigvalsh(a @ a.T - b @ b.T))))
    targets = withins[:, :, :2]
    vectors = RNG.normal(size=(STACK, 5, 3))
    proj = project_stack(targets, np.ones(5), vectors, DEFAULT_TOL)
    for t, v, pv in zip(targets, vectors, proj):
        assert np.array_equal(pv, t @ np.linalg.solve(t.T @ t, t.T @ v))


@pytest.mark.parametrize("m, k", [(12, 3), (20, 4), (9, 2), (6, 6), (4, 5), (2, 7)])
def test_kernel_stack_asks_no_full_u_of_tall_stacks(monkeypatch, m, k):
    rows = np.stack([integer_matrix(m, k, b % (min(m, k) + 1)) for b in range(STACK)])
    expected = {floor: [loop_kernel(r, DEFAULT_TOL, floor) for r in rows] for floor in FLOORS}
    full_vt = np.linalg.svd(rows, full_matrices=True)[2]
    asked = []
    real = np.linalg.svd

    def spy(a, full_matrices=True, *args, **kwargs):
        asked.append(full_matrices)
        return real(a, full_matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    closed = closed_form(rows[0])
    for floor in FLOORS:
        null, bases = kernel_stack(rows, DEFAULT_TOL, floor)
        for want, nk, basis, vt in zip(expected[floor], null, bases, full_vt):
            assert_same_answer(basis[:, :nk], want, closed)
            if closed:
                assert np.max(np.abs(basis.T @ basis - np.eye(k))) <= 1e-13
            else:
                # every right singular vector is that of the full factorisation, bit for bit
                assert np.array_equal(np.roll(basis, k - nk, axis=1), vt.T)
    # LAPACK's full vt is asked only when there are fewer rows than columns,
    # and LAPACK not at all for a smaller side of 2 or less
    assert asked == ([] if closed else [m < k] * len(FLOORS))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_row_classes_match_unique_rows(size, cols, spread, seed):
    keys = np.random.default_rng(seed).integers(-spread, spread + 1, size=(size, cols))
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order, starts, codes = row_classes(keys)
    assert np.array_equal(codes, inverse)
    assert len(starts) == len(uniq) + 1 and starts[-1] == size
    classes = list(rank_classes(*keys.T))
    assert [key for key, _ in classes] == [tuple(int(x) for x in row) for row in uniq]
    for c, (_, idx) in enumerate(classes):
        assert np.array_equal(idx, np.flatnonzero(inverse == c))
        assert np.array_equal(order[starts[c]:starts[c + 1]], idx)


def test_an_empty_stack_has_no_rank_class():
    assert list(rank_classes(np.zeros(0, dtype=int), np.zeros(0, dtype=int))) == []
    order, starts, codes = row_classes(np.zeros((0, 2), dtype=int))
    assert order.size == codes.size == 0 and starts.tolist() == [0]


def test_max_by_class_is_zero_on_an_empty_stack():
    def size(idx, stack):
        return np.abs(stack)

    assert max_by_class(size, np.zeros(0, dtype=int), np.zeros((0, 3, 2))) == 0.0
    # a padding column beyond a point's width is never read
    padded = np.array([[[1.0, 9.0]], [[-4.0, 2.0]], [[3.0, 9.0]]])
    assert max_by_class(size, np.array([1, 2, 1]), padded) == 4.0


def test_contraction_is_planned_once_per_subscripts_and_shapes(monkeypatch):
    indefinite_linalg._contraction_path.cache_clear()
    planned = []
    real = np.einsum_path

    def counted(subscripts, *operands, **kwargs):
        planned.append((subscripts, tuple(op.shape for op in operands)))
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counted)
    subscripts = "pia,ab,pjb->pij"
    for trial in range(3):  # new contents, the same shapes: planned once
        d1, g = RNG.normal(size=(40, 3, 5)), np.diag(RNG.choice([-1.0, 1.0], size=5))
        assert np.array_equal(contract(subscripts, d1, g, d1),
                              np.einsum(subscripts, d1, g, d1, optimize=True))
    assert planned == [(subscripts, ((40, 3, 5), (5, 5), (40, 3, 5)))]
    d1 = RNG.normal(size=(7, 3, 5))
    assert np.array_equal(contract(subscripts, d1, g, d1),
                          np.einsum(subscripts, d1, g, d1, optimize=True))
    assert len(planned) == 2
    assert indefinite_linalg._contraction_path.cache_info().maxsize == PATH_CACHE_SIZE


def spd_stack(seed: int, n: int, size: int, scale: float, spread: float) -> np.ndarray:
    """Symmetric positive definite (size, n, n) matrices with eigenvalues in
    scale * [1, spread], turned by random orthogonal matrices."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(size, n, n)))[0]
    lam = scale * spread ** rng.uniform(size=(size, n))
    return (q * lam[:, None, :]) @ q.transpose(0, 2, 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6))
def test_cholesky_stack_matches_lapack_on_spd_stacks(n, seed, exponent):
    a = spd_stack(seed, n, 50, 10.0 ** exponent, 100.0)
    chol, inv, ok = cholesky_stack(a)
    assert ok.all()
    ref = np.linalg.cholesky(a)
    # condition number of L at most 10: both factors are backward stable
    assert np.max(np.abs(chol - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(chol, np.tril(chol))
    ref_inv = np.linalg.inv(ref)
    assert np.max(np.abs(inv - ref_inv)) <= 1e-13 * np.max(np.abs(ref_inv))
    ref_a_inv = np.linalg.inv(a)
    assert np.max(np.abs(inverse_stack(a) - ref_a_inv)) <= 1e-13 * np.max(np.abs(ref_a_inv))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6),
       spread=st.sampled_from([1.0, 1.0 + 1e-9, 100.0, 1e12]))
def test_eigvalsh_stack_is_lapacks_eigvalsh(n, seed, exponent, spread):
    a = spd_stack(seed, n, 50, 10.0 ** exponent, spread)
    a[:10] -= 2 * 10.0 ** exponent * np.eye(n)  # indefinite and negative ones too
    # near-diagonal, off-diagonal entries 1e-14 to 1e-23 of the diagonal: LAPACK's split test
    a[10:20] = np.diag(np.diag(a[10])) + 10.0 ** -np.arange(14, 24)[:, None, None] * a[10:20]
    # not symmetric: the lower triangle counts
    a[20:30] = np.triu(a[20:30]) + np.tril(a[20:30], -1) * 2
    assert np.array_equal(eigvalsh_stack(a), np.linalg.eigvalsh(a))  # bit for bit


def test_cholesky_stack_flags_the_entries_without_positive_pivots():
    a = spd_stack(7, 3, 6, 1.0, 10.0)
    a[1] = np.diag([1.0, -1.0, 1.0])
    a[3] = np.diag([1.0, 1.0, 0.0])
    a[4, 2, 2] = np.nan
    _, _, ok = cholesky_stack(a)
    assert ok.tolist() == [True, False, True, False, False, True]
    indefinite = a[[0, 1, 2]]
    assert np.allclose(inverse_stack(indefinite) @ indefinite, np.eye(3), atol=1e-12)


# the metric gate's threshold and roundoff unit (`jets.METRIC_DEGENERATE`, `jets._METRIC_ROUNDOFF`)
METRIC_DEGENERATE, METRIC_ROUNDOFF = 1e-12, 1e3 * np.finfo(float).eps


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6),
       spread=st.sampled_from([1.0, 1e3, 1e6, 1e9]), offdiag=st.sampled_from([0.3, 3.0, 30.0]))
def test_signed_cholesky_is_certified_where_its_margin_holds(n, seed, exponent, spread, offdiag):
    # g = R0 S R0^T for random signs S and lower-triangular R0 whose
    # diagonal spans `spread` and whose off-diagonal entries reach `offdiag`
    # (growth); the unpivoted factor recovers R0 S R0^T = g
    rng = np.random.default_rng(seed)
    size = 60
    r0 = np.tril(rng.uniform(-offdiag, offdiag, size=(size, n, n)), -1)
    r0 += spread ** rng.uniform(-0.5, 0.5, size=(size, n))[:, :, None] * np.eye(n)
    signs0 = rng.choice([-1.0, 1.0], size=(size, n))
    g = 10.0 ** exponent * (r0 * signs0[:, None, :]) @ r0.transpose(0, 2, 1)
    chol, inv, signs, ok = signed_cholesky_stack(g)
    assert np.array_equal(chol, np.tril(chol))
    fro2 = np.sum(chol * chol, axis=(1, 2))
    # the stated backward error: R S R^T reproduces g within _METRIC_ROUNDOFF ||R||_F^2
    rebuilt = (chol * signs[:, None, :]) @ chol.transpose(0, 2, 1)
    gap = np.max(np.abs(rebuilt - g), axis=(1, 2))
    assert np.all(gap[ok] <= METRIC_ROUNDOFF * fro2[ok])
    assert np.max(np.abs(inv @ chol - np.eye(n))[ok]) <= 1e-6
    # where the certificate holds, the inertia is eigvalsh's, and no
    # eigenvalue lies below the degenerate threshold
    with np.errstate(divide="ignore"):
        lower = 1.0 / np.sum(inv * inv, axis=(1, 2))
    certified = ok & (lower >= 2 * (METRIC_DEGENERATE + 2 * METRIC_ROUNDOFF * fro2))
    vals = np.linalg.eigvalsh(g[certified])
    assert np.array_equal(np.sum(vals < 0, axis=1), np.sum(signs[certified] < 0, axis=1))
    assert np.all(np.abs(vals) >= METRIC_DEGENERATE)


def test_cholesky_stack_is_the_all_positive_signed_factor():
    a = spd_stack(3, 4, 30, 1.0, 1e4)
    a[:5] -= 2e4 * np.eye(4)  # negative pivots: the signed factor goes on
    a[5] = np.diag([1.0, 0.0, 1.0, 1.0])
    chol, inv, ok = cholesky_stack(a)
    schol, sinv, signs, sok = signed_cholesky_stack(a)
    positive = sok & np.all(signs > 0, axis=1)
    assert np.array_equal(ok, positive) and ok.sum() == 24
    assert np.array_equal(chol[ok], schol[ok]) and np.array_equal(inv[ok], sinv[ok])
    assert sok[:5].all() and not sok[5]
    assert np.allclose((schol[:5] * signs[:5, None, :]) @ schol[:5].transpose(0, 2, 1), a[:5],
                       rtol=0, atol=1e-10 * np.max(np.abs(a[:5])))


def test_eigvalsh_stack_of_a_2x2_with_a_non_finite_entry_is_nan():
    a = np.array([[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 1.0], [1.0, 1.0]],
                  [[2.0, 1.0], [1.0, 2.0]]])
    vals = eigvalsh_stack(a)
    assert np.isnan(vals[:2]).all() and vals[2].tolist() == [1.0, 3.0]
