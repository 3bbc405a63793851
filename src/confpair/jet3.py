"""Forward-mode Taylor arithmetic up to second order, vectorized over a batch.

A `Jet3` carries value, gradient and Hessian of a scalar function of
``nvars`` chart variables, evaluated at a batch of points: the 2-jet that
the metric, the second fundamental form and the normal connection are
built from.  Arithmetic propagates derivatives by the Leibniz rule;
univariate functions compose through `apply_univariate`.  Requesting
``order < 2`` drops the higher arrays, which keeps level-set scans over
large meshes cheap.

An operand that is not a `Jet3` (a Python or numpy scalar, or a per-point
array that broadcasts to the values) never becomes a constant jet: it
scales or shifts the stored arrays directly, which gives the constant-jet
result exactly, up to the sign of zero.  Jets share arrays (a shifted jet
keeps its operand's derivative arrays), so no jet is ever written in place.

Derivatives are stored point-last, the gradient as (n, ...) and the Hessian
as (n, n, ...), so that every term of the arithmetic runs over contiguous
rows of points; `g` and `h` read them point-first, (..., n) and
(..., n, n), as views.  `Jet3(v, g, h)` takes point-first arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet3", "variables", "constant", "sin", "cos", "exp", "sqrt", "norm2", "norm"]


class Jet3:
    __slots__ = ("v", "_g", "_h", "nvars")

    def __init__(self, v, g=None, h=None, nvars=None):
        """A jet from point-first derivatives: g (..., n) and h (..., n, n)."""
        if nvars is None:
            if g is None:
                raise ValueError("nvars required when no gradient is stored")
            nvars = g.shape[-1]
        self.v = np.asarray(v, dtype=float)
        self._g = None if g is None else np.moveaxis(g, -1, 0)
        self._h = None if h is None else np.moveaxis(h, (-2, -1), (0, 1))
        self.nvars = nvars

    @classmethod
    def _rows(cls, v, g, h, nvars):
        """A jet from point-last derivatives: g (n, ...) and h (n, n, ...)."""
        jet = object.__new__(cls)
        jet.v, jet._g, jet._h, jet.nvars = np.asarray(v, dtype=float), g, h, nvars
        return jet

    @property
    def g(self):
        """The gradient (..., n), a point-first view of the stored rows."""
        return None if self._g is None else np.moveaxis(self._g, 0, -1)

    @property
    def h(self):
        """The Hessian (..., n, n), a point-first view of the stored rows."""
        return None if self._h is None else np.moveaxis(self._h, (0, 1), (-2, -1))

    # -- construction -------------------------------------------------

    def _zero_like(self, value):
        value = np.broadcast_to(np.asarray(value, dtype=float), self.v.shape).copy()
        n = self.nvars
        g = np.zeros((n,) + self.v.shape) if self._g is not None else None
        h = np.zeros((n, n) + self.v.shape) if self._h is not None else None
        return Jet3._rows(value, g, h, n)

    def _scalar(self, other) -> np.ndarray:
        """A non-jet operand as float values shaped like ``v`` (a view)."""
        return np.broadcast_to(np.asarray(other, dtype=float), self.v.shape)

    # -- ring operations ----------------------------------------------

    # numpy operands on the left defer to the reflected operators below
    # instead of building an object array of jets
    __array_ufunc__ = None

    def __add__(self, other):
        if not isinstance(other, Jet3):
            return Jet3._rows(self.v + self._scalar(other), self._g, self._h, self.nvars)
        return Jet3._rows(
            self.v + other.v,
            None if self._g is None else self._g + other._g,
            None if self._h is None else self._h + other._h,
            self.nvars,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet3._rows(
            -self.v,
            None if self._g is None else -self._g,
            None if self._h is None else -self._h,
            self.nvars,
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            s = self._scalar(other)
            return Jet3._rows(
                self.v * s,
                None if self._g is None else self._g * s,
                None if self._h is None else self._h * s,
                self.nvars,
            )
        a, b = self, other
        v = a.v * b.v
        g = h = None
        if a._g is not None:
            g = a._g * b.v + b._g * a.v
        if a._h is not None:
            cross = a._g[:, None] * b._g[None, :]
            h = a._h * b.v + b._h * a.v + cross + np.swapaxes(cross, 0, 1)
        return Jet3._rows(v, g, h, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet3):
            return self * (1.0 / self._scalar(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        u = self.v
        if isinstance(k, int) and k >= 0:
            f0 = u**k
            f1 = k * u ** (k - 1) if k >= 1 else np.zeros_like(u)
            f2 = k * (k - 1) * u ** (k - 2) if k >= 2 else np.zeros_like(u)
        else:
            f0 = u**k
            f1 = k * u ** (k - 1)
            f2 = k * (k - 1) * u ** (k - 2)
        return self.apply_univariate(f0, f1, f2)

    def reciprocal(self):
        u = self.v
        inv = 1.0 / u
        return self.apply_univariate(inv, -(inv**2), 2 * inv**3)

    # -- composition with a univariate map -----------------------------

    def apply_univariate(self, f0, f1, f2=None):
        """Chain rule for h = f(u) given derivative values of f at u."""
        g = h = None
        if self._g is not None:
            f1 = np.asarray(f1, dtype=float)
            g = f1 * self._g
        if self._h is not None:
            f2 = np.asarray(f2, dtype=float)
            gg = self._g[:, None] * self._g[None, :]
            h = f2 * gg + f1 * self._h
        return Jet3._rows(f0, g, h, self.nvars)


def variables(points: np.ndarray, order: int = 2) -> list[Jet3]:
    """Seed jets for the chart coordinates at a batch of points (P, n)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    p, n = points.shape
    out = []
    for i in range(n):
        g = None
        h = None
        if order >= 1:
            g = np.zeros((n, p))
            g[i] = 1.0
        if order >= 2:
            h = np.zeros((n, n, p))
        out.append(Jet3._rows(points[:, i].copy(), g, h, n))
    return out


def constant(value, template: Jet3) -> Jet3:
    """A constant jet shaped like `template`."""
    return template._zero_like(value)


def sin(x: Jet3) -> Jet3:
    s, c = np.sin(x.v), np.cos(x.v)
    return x.apply_univariate(s, c, -s)


def cos(x: Jet3) -> Jet3:
    s, c = np.sin(x.v), np.cos(x.v)
    return x.apply_univariate(c, -s, -c)


def exp(x: Jet3) -> Jet3:
    e = np.exp(x.v)
    return x.apply_univariate(e, e, e)


def sqrt(x: Jet3) -> Jet3:
    r = np.sqrt(x.v)
    return x.apply_univariate(r, 0.5 / r, -0.25 / r**3)


def norm2(*xs: Jet3) -> Jet3:
    """Sum of squares of the arguments."""
    acc = xs[0] * xs[0]
    for x in xs[1:]:
        acc = acc + x * x
    return acc


def norm(*xs: Jet3) -> Jet3:
    return sqrt(norm2(*xs))
