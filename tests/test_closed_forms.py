"""The closed forms behind `rank`, `span_stack` and `kernel_stack` for stacks
whose smaller side is 1 or 2, against LAPACK's SVD; and a spy showing that
LAPACK no longer sees such stacks."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from confpair import indefinite_linalg
from confpair.cli import run_manifest
from confpair.indefinite_linalg import DEFAULT_TOL, kernel_stack, rank, span_stack

from oracles import null_space, span

FLOORS = (0.0, 1.0)
STACK = 40
ORTHONORMAL = 1e-13
PROJECTOR = 1e-12
ROUNDOFF = 1e-13
SHAPES = [(1, 1), (2, 1), (5, 1), (1, 2), (1, 6), (2, 2), (3, 2), (7, 2), (2, 3), (2, 9)]
BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def random_orthonormal(rng, size, n, p):
    return np.linalg.qr(rng.normal(size=(size, n, p)))[0]


def stacks(m, k, floor, rng):
    """Named (STACK, m, k) stacks: random, rank-deficient, of scales 1e-6 to
    1e3, and with the smallest singular value within a factor 2 of the
    rank threshold tol * max(s_max, floor), on either side."""
    p = min(m, k)
    yield "random", rng.normal(size=(STACK, m, k))
    outer = rng.normal(size=(STACK, m, 1)) * rng.normal(size=(STACK, 1, k))
    yield "dependent", outer
    holes = rng.normal(size=(STACK, m, k))
    holes[::2, :, rng.integers(k)] = 0.0  # a zero column
    holes[1::2, rng.integers(m), :] = 0.0  # a zero row
    holes[::5] = 0.0
    yield "zero columns and rows", holes
    yield "zero", np.zeros((STACK, m, k))
    yield "scaled", rng.normal(size=(STACK, m, k)) * 10.0 ** rng.uniform(-6, 3, size=(STACK, 1, 1))
    s_max = 10.0 ** rng.uniform(-6, 3, size=STACK)
    if p == 1:
        s_max = np.minimum(s_max, 0.5)  # only a floor puts a lone value near the threshold
    factors = np.resize([0.5, 0.7, 1.4, 2.0], STACK)
    s = np.stack([s_max, factors * DEFAULT_TOL * np.maximum(s_max, floor)], axis=1)[:, :p]
    if p == 1:
        s = factors[:, None] * DEFAULT_TOL * np.maximum(s_max, floor)[:, None]
    u, v = random_orthonormal(rng, STACK, m, p), random_orthonormal(rng, STACK, k, p)
    yield "near the threshold", (u * s[:, None, :]) @ v.transpose(0, 2, 1)


def lapack(a, floor):
    """Ranks, singular values, u and the full vt by LAPACK."""
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    return (s > DEFAULT_TOL * np.maximum(s[:, :1], floor)).sum(axis=1), s, u, vt


def projector(basis):
    return basis @ basis.T


def gauge_bound(s, r):
    """How far two backward-stable bases of the span of the first r singular
    vectors may lie apart (Wedin's sin-theta bound): PROJECTOR where that
    span is well separated from the rest, more where s_r is tiny."""
    rest = s[r] if r < len(s) else 0.0
    return PROJECTOR * s[0] / (s[r - 1] - rest) if r else PROJECTOR


@pytest.mark.parametrize("m, k", SHAPES)
@pytest.mark.parametrize("floor", FLOORS)
def test_closed_forms_decide_as_lapack_does(m, k, floor):
    rng = np.random.default_rng(1000 * m + 10 * k + int(floor))
    p = min(m, k)
    for name, a in stacks(m, k, floor, rng):
        want, s, u_ref, vt_ref = lapack(a, floor)
        ranks, bases = span_stack(a, DEFAULT_TOL, floor)
        null, kernels = kernel_stack(a, DEFAULT_TOL, floor)
        assert rank(a, DEFAULT_TOL, floor).tolist() == want.tolist(), name
        assert ranks.tolist() == want.tolist(), name
        assert null.tolist() == (k - want).tolist(), name
        assert bases.shape == (STACK, m, p) and kernels.shape == (STACK, k, k)
        assert np.all(np.isfinite(bases)) and np.all(np.isfinite(kernels))
        for i in range(STACK):
            r, sv, basis, kernel = want[i], s[i], bases[i], kernels[i]
            assert np.max(np.abs(basis.T @ basis - np.eye(p))) <= ORTHONORMAL, name
            assert np.max(np.abs(kernel.T @ kernel - np.eye(k))) <= ORTHONORMAL, name
            span_gap = np.abs(projector(basis[:, :r]) - projector(u_ref[i][:, :r])).max(initial=0.0)
            assert span_gap <= gauge_bound(sv, r), name
            kernel_gap = np.abs(projector(kernel[:, :k - r]) - projector(vt_ref[i][r:].T)).max(initial=0.0)
            assert kernel_gap <= gauge_bound(sv, r), name
            # a kernel vector leaves what the rank rule dropped, and roundoff
            dropped = sv[r] if r < p else 0.0
            residual = np.linalg.norm(a[i] @ kernel[:, :k - r], axis=0).max(initial=0.0)
            assert residual <= dropped * (1 + 1e-6) + ROUNDOFF * sv[0], name


@pytest.mark.parametrize("m, k", SHAPES)
def test_a_stack_gives_each_entry_what_a_one_entry_stack_gives(m, k):
    rng = np.random.default_rng(7 * m + k)
    for floor in FLOORS:
        for name, a in stacks(m, k, floor, rng):
            ranks, bases = span_stack(a, DEFAULT_TOL, floor)
            null, kernels = kernel_stack(a, DEFAULT_TOL, floor)
            counts = rank(a, DEFAULT_TOL, floor)
            for i in range(0, STACK, 3):
                one = a[i:i + 1]
                single = span_stack(a[i], DEFAULT_TOL, floor)
                assert single[0] == ranks[i] and np.array_equal(single[1], bases[i]), name
                assert np.array_equal(span_stack(one, DEFAULT_TOL, floor)[1][0], bases[i]), name
                assert np.array_equal(kernel_stack(one, DEFAULT_TOL, floor)[1][0], kernels[i]), name
                assert rank(a[i], DEFAULT_TOL, floor) == counts[i] == ranks[i], name
                assert null[i] == k - counts[i]


@pytest.mark.parametrize("m, k", [(3, 1), (1, 4), (3, 2), (2, 4)])
def test_a_matrix_that_is_not_finite_raises_as_lapack_does(m, k):
    a = np.ones((3, m, k))
    a[1, 0, 0] = np.nan
    for fn in (rank, span_stack, kernel_stack):
        with pytest.raises(np.linalg.LinAlgError):
            fn(a)


def load_benchmark_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_lapack_gets_no_stack_whose_smaller_side_is_two_or_less(monkeypatch):
    lapack_sides, closed_sides = [], []
    real_svd, real_small = np.linalg.svd, indefinite_linalg._small_svd

    def svd(a, *args, **kwargs):
        lapack_sides.append(min(np.shape(a)[-2:]))
        return real_svd(a, *args, **kwargs)

    def small(a, *args):
        closed_sides.append(min(a.shape[-2:]))
        return real_small(a, *args)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(indefinite_linalg, "_small_svd", small)
    # spans and intersections as criterion 10 decides them, through the oracles' views
    rng = np.random.default_rng(10)
    for _ in range(60):
        m, k = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        for floor in FLOORS:
            span(rng.integers(-3, 4, size=(m, k)).astype(float), DEFAULT_TOL, floor)
        m, c = int(rng.integers(4, 13)), int(rng.integers(1, 3))
        common = rng.integers(-3, 4, size=(m, c))
        bu = np.hstack([common, rng.integers(-3, 4, size=(m, 1))]).astype(float)
        bv = np.hstack([common, rng.integers(-3, 4, size=(m, 1))]).astype(float)
        for floor in FLOORS:
            ann_u = null_space(span(bu, DEFAULT_TOL, floor).T, DEFAULT_TOL, floor)
            ann_v = null_space(span(bv, DEFAULT_TOL, floor).T, DEFAULT_TOL, floor)
            null_space(np.vstack([ann_u.T, ann_v.T]), DEFAULT_TOL, floor)
    assert {1, 2} <= set(closed_sides)
    # one pass of the benchmark's pairs workload
    for op in load_benchmark_workloads(monkeypatch).build("pairs", 1):
        run_manifest(op.doc)
    assert lapack_sides and min(lapack_sides) > 2
    assert len(closed_sides) > 200
