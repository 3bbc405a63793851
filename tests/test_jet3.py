import numpy as np
import pytest

from confpair import gallery, jet3
from confpair.jets import ChartGrid


def manual_jets(fn, point, h=1e-3):
    """Finite-difference reference for value/grad/hess of a scalar callable."""
    n = len(point)
    val = fn(point)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad[i] = (fn(point + e) - fn(point - e)) / (2 * h)
        hess[i, i] = (fn(point + e) - 2 * val + fn(point - e)) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = np.zeros(n), np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                fn(point + ei + ej) - fn(point + ei - ej) - fn(point - ei + ej) + fn(point - ei - ej)
            ) / (4 * h**2)
    return val, grad, hess


def test_polynomial_jets_are_exact():
    pts = np.array([[0.3, -1.2], [1.5, 0.4]])
    x, y = jet3.variables(pts)
    f = x * x * y + 2.0 * y - x
    # f = x^2 y + 2y - x
    assert np.allclose(f.v, pts[:, 0] ** 2 * pts[:, 1] + 2 * pts[:, 1] - pts[:, 0])
    assert np.allclose(f.g[:, 0], 2 * pts[:, 0] * pts[:, 1] - 1)
    assert np.allclose(f.g[:, 1], pts[:, 0] ** 2 + 2)
    assert np.allclose(f.h[:, 0, 0], 2 * pts[:, 1])
    assert np.allclose(f.h[:, 0, 1], 2 * pts[:, 0])


def test_division_and_sqrt_against_fd():
    pts = np.array([[0.7, 0.9]])
    x, y = jet3.variables(pts)
    g = (jet3.sin(x) + 2.0) / jet3.sqrt(x * x + y * y)

    def ref(p):
        return (np.sin(p[0]) + 2.0) / np.hypot(p[0], p[1])

    val, grad, hess = manual_jets(ref, pts[0])
    assert np.allclose(g.v[0], val)
    assert np.allclose(g.g[0], grad, atol=1e-8)
    assert np.allclose(g.h[0], hess, atol=1e-5)


def test_reduced_order_skips_tensors():
    pts = np.random.default_rng(0).normal(size=(5, 3))
    xs = jet3.variables(pts, order=1)
    f = xs[0] * xs[1] + xs[2]
    assert f.h is None
    assert np.allclose(f.g[:, 0], pts[:, 1])


def test_norm_helpers():
    pts = np.array([[3.0, 4.0]])
    x, y = jet3.variables(pts)
    r = jet3.norm(x, y)
    assert np.allclose(r.v, 5.0)
    assert np.allclose(r.g[0], [0.6, 0.8])


# -- reference: every non-jet operand coerced to a constant jet --------------
# The arithmetic before scalar operands were applied to the arrays directly:
# the operand became a jet with zero derivatives and took the full Leibniz
# product.


def _ref_const(value, like):
    n, shape = like.nvars, like.v.shape
    return jet3.Jet3(
        np.broadcast_to(np.asarray(value, dtype=float), shape).copy(),
        None if like.g is None else np.zeros(shape + (n,)),
        None if like.h is None else np.zeros(shape + (n, n)),
        nvars=n,
    )


def _ref_coerce(other, like):
    return other if isinstance(other, jet3.Jet3) else _ref_const(other, like)


def _map(fn, *jets):
    a = jets[0]
    parts = [fn(*(getattr(j, k) for j in jets)) if getattr(a, k) is not None else None
             for k in ("g", "h")]
    return jet3.Jet3(fn(*(j.v for j in jets)), *parts, nvars=a.nvars)


def ref_add(a, b):
    return _map(np.add, a, _ref_coerce(b, a))


def ref_neg(a):
    return _map(np.negative, a)


def ref_mul(a, b):
    b = _ref_coerce(b, a)
    v = a.v * b.v
    g = h = None
    if a.g is not None:
        g = a.g * b.v[..., None] + b.g * a.v[..., None]
    if a.h is not None:
        cross = a.g[..., :, None] * b.g[..., None, :]
        h = (a.h * b.v[..., None, None] + b.h * a.v[..., None, None]
             + cross + np.swapaxes(cross, -1, -2))
    return jet3.Jet3(v, g, h, nvars=a.nvars)


def ref_apply_univariate(a, f0, f1, f2):
    g = h = None
    if a.g is not None:
        g = f1[..., None] * a.g
    if a.h is not None:
        gg = a.g[..., :, None] * a.g[..., None, :]
        h = f2[..., None, None] * gg + f1[..., None, None] * a.h
    return jet3.Jet3(f0, g, h, nvars=a.nvars)


def ref_reciprocal(a):
    inv = 1.0 / a.v
    return ref_apply_univariate(a, inv, -(inv**2), 2 * inv**3)


def ref_div(a, b):
    return ref_mul(a, ref_reciprocal(_ref_coerce(b, a)))


# (operator, jet on the left, reference)
OPERATIONS = {
    "a + s": (lambda a, s: a + s, lambda a, s: ref_add(a, s)),
    "s + a": (lambda a, s: s + a, lambda a, s: ref_add(a, s)),
    "a - s": (lambda a, s: a - s, lambda a, s: ref_add(a, ref_neg(_ref_coerce(s, a)))),
    "s - a": (lambda a, s: s - a, lambda a, s: ref_add(ref_neg(a), s)),
    "a * s": (lambda a, s: a * s, lambda a, s: ref_mul(a, s)),
    "s * a": (lambda a, s: s * a, lambda a, s: ref_mul(a, s)),
    "a / s": (lambda a, s: a / s, lambda a, s: ref_div(a, s)),
    "s / a": (lambda a, s: s / a, lambda a, s: ref_mul(ref_reciprocal(a), s)),
}

POINTS = 7


def random_jet(rng, n, order):
    """Seeded jet with symmetric derivative tensors, values bounded away from 0."""
    p = POINTS
    v = rng.choice([-1.0, 1.0], size=p) * rng.uniform(0.5, 2.0, size=p)
    g = h = None
    if order >= 1:
        g = rng.normal(size=(p, n))
    if order >= 2:
        h = rng.normal(size=(p, n, n))
        h = h + np.swapaxes(h, 1, 2)
    return jet3.Jet3(v, g, h, nvars=n)


def _arrays(jet):
    return [x for x in (jet.v, jet.g, jet.h) if x is not None]


def _abs(jet):
    return _map(np.abs, jet)


SHAPES = [(n, order) for n in range(1, 5) for order in range(3)]


@pytest.mark.parametrize("op", sorted(OPERATIONS))
@pytest.mark.parametrize("kind", ["float", "0-d array", "per-point array"])
def test_scalar_operands_match_the_constant_jet_product_exactly(op, kind):
    fn, ref = OPERATIONS[op]
    for n, order in SHAPES:
        rng = np.random.default_rng([n, order, sorted(OPERATIONS).index(op)])
        a = random_jet(rng, n, order)
        s = {"float": -1.37,
             "0-d array": np.array(0.83),
             "per-point array": rng.uniform(0.5, 2.0, POINTS) * rng.choice([-1.0, 1.0], POINTS),
             }[kind]
        got, want = fn(a, s), ref(a, s)
        assert isinstance(got, jet3.Jet3)
        assert (got.g is None, got.h is None) == (order == 0, order < 2)  # the operand's order
        for x, y in zip(_arrays(got), _arrays(want), strict=True):
            np.testing.assert_array_equal(x, y)  # -0.0 == 0.0


def test_jet_products_match_the_two_symmetrization_product():
    ulp = np.finfo(float).eps
    for n, order in SHAPES:
        rng = np.random.default_rng([10, n, order])
        a, b = random_jet(rng, n, order), random_jet(rng, n, order)
        # the same products summed in another order: within a few ulp of the
        # sum of the terms' magnitudes
        cases = [(a * b, ref_mul(a, b), ref_mul(_abs(a), _abs(b))),
                 (a / b, ref_div(a, b), ref_mul(_abs(a), _abs(ref_reciprocal(b))))]
        for got, want, scale in cases:
            for x, y, bound in zip(_arrays(got), _arrays(want), _arrays(scale), strict=True):
                assert np.all(np.abs(x - y) <= 8 * ulp * bound)
        for got, want in ((a + b, ref_add(a, b)), (a - b, ref_add(a, ref_neg(b)))):
            for x, y in zip(_arrays(got), _arrays(want), strict=True):
                np.testing.assert_array_equal(x, y)


def ref_sin(a):
    s, c = np.sin(a.v), np.cos(a.v)
    return ref_apply_univariate(a, s, c, -s)


def ref_sqrt(a):
    r = np.sqrt(a.v)
    return ref_apply_univariate(a, r, 0.5 / r, -0.25 / r**3)


def ref_cube(a):
    u = a.v
    return ref_apply_univariate(a, u**3, 3 * u**2, 6 * u**1)


def test_jet_arithmetic_matches_the_point_first_expressions_bit_for_bit():
    # the derivatives are stored point-last; every Leibniz and chain-rule
    # term keeps its operands' order, so the point-first expressions above
    # give the same bits
    for n, order in SHAPES:
        rng = np.random.default_rng([20, n, order])
        a, b = random_jet(rng, n, order), random_jet(rng, n, order)
        positive = jet3.Jet3(np.abs(a.v), a.g, a.h, nvars=n)
        cases = [(a * b, ref_mul(a, b)), (a / b, ref_div(a, b)), (jet3.sin(a), ref_sin(a)),
                 (jet3.sqrt(positive), ref_sqrt(positive)), (a**3, ref_cube(a))]
        for got, want in cases:
            assert got.g is None or got.g.shape == (POINTS, n)
            assert got.h is None or got.h.shape == (POINTS, n, n)
            assert len(_arrays(got)) == order + 1
            for x, y in zip(_arrays(got), _arrays(want), strict=True):
                assert np.array_equal(x, y)


def test_graph_jet_makes_no_constant_jets_beyond_jet3_constant(monkeypatch):
    calls = {"zero_like": 0, "constant": 0}
    zero_like, constant = jet3.Jet3._zero_like, jet3.constant

    def counted_zero_like(self, value):
        calls["zero_like"] += 1
        return zero_like(self, value)

    def counted_constant(value, template):
        calls["constant"] += 1
        return constant(value, template)

    monkeypatch.setattr(jet3.Jet3, "_zero_like", counted_zero_like)
    monkeypatch.setattr(jet3, "constant", counted_constant)
    chart = ChartGrid((10,) * 4, (0.02,) * 4, (-0.09,) * 4)
    gallery.graph(n=4).jet(chart)
    assert calls["constant"] >= 1
    assert calls["zero_like"] == calls["constant"]
