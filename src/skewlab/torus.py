"""Flat 2-torus geometry: wrapped points, the translation-invariant metric,
rectangular chart regions, and compactly supported smooth bump profiles.

Everything here is pure and operates on plain floats or numpy arrays of
shape (..., 2).  The canonical representative of a torus point is [0, 1)^2.
Two points are close when ``torus_dist(a, b)`` is below a tolerance that
the caller names; their coordinates can differ by nearly 1 across the seam.

Every wrap is ``x - floor(x)`` followed by a fold of 1.0 to 0.0.  For finite
x this is bitwise ``x % 1.0`` (both are one rounding of the real x - floor(x),
and both give +0.0 at integers and at -0.0) at a fraction of numpy's
remainder cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def mod1(values):
    """Componentwise reduction mod 1 into [0, 1), safe at the seam.

    Computed as ``x - floor(x)``, bitwise equal to ``x % 1.0`` for finite x.
    Both round to exactly 1.0 for tiny negative inputs (-1e-20 + 1 rounds to
    1.0); those are folded back to 0.0 so the half-open invariant holds
    bitwise.  Non-finite input raises, since x - floor(x) would turn it into
    nan.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite input to mod1/wrap")
    out = arr - np.floor(arr)
    return np.where(out >= 1.0, 0.0, out)


def wrapped_diff(a, b):
    """Shortest displacement vector from ``b`` to ``a``, components in [-1/2, 1/2)."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + 0.5
    d = d - np.floor(d)
    d = np.where(d >= 1.0, 0.0, d)
    return d - 0.5


def torus_dist(a, b):
    """Minimum Euclidean distance over integer translates.

    Symmetric, satisfies the triangle inequality, and bounded by sqrt(2)/2.
    Broadcasts over leading dimensions.
    """
    d = np.abs(wrapped_diff(a, b))
    return np.hypot(d[..., 0], d[..., 1])


@dataclass(frozen=True)
class TorusPoint:
    """A point of the 2-torus with canonical coordinates in [0, 1)^2."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("non-finite torus coordinates")
        if not (0.0 <= self.u < 1.0 and 0.0 <= self.v < 1.0):
            raise ValueError(f"coordinates {(self.u, self.v)} not in [0,1)^2; use wrap()")

    def __iter__(self):
        yield self.u
        yield self.v

    def __array__(self, dtype=None, copy=None):
        return np.array([self.u, self.v], dtype=dtype or float)


def wrap(point) -> TorusPoint:
    """Reduce a coordinate pair mod 1 into a canonical TorusPoint."""
    arr = mod1(np.asarray(point, dtype=float).reshape(2))
    return TorusPoint(float(arr[0]), float(arr[1]))


def lift(point) -> np.ndarray:
    """Canonical lift of a point to the fundamental domain [0,1)^2."""
    return np.asarray(point, dtype=float).reshape(2).copy()


def cell_grid(n: int) -> np.ndarray:
    """(n*n, 2) array of the cell centres ((i + 1/2)/n, (j + 1/2)/n) of the
    n x n grid on [0, 1)^2, in ``ij`` order (j varies fastest)."""
    ticks = (np.arange(n) + 0.5) / n
    uu, vv = np.meshgrid(ticks, ticks, indexing="ij")
    return np.stack([uu.ravel(), vv.ravel()], axis=-1)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle on the fiber torus, given by center and half-widths.

    Must fit inside one chart: half-widths are capped below 1/2.
    """

    center: tuple[float, float]
    half: tuple[float, float]

    def __post_init__(self):
        h = np.asarray(self.half, float)
        if not np.all((h > 0) & (h < 0.5)):
            raise ValueError("region half-widths must lie in (0, 1/2)")

    def grid(self, n: int) -> np.ndarray:
        """(n*n, 2) array of wrapped grid points covering the region."""
        c = np.asarray(self.center, float)
        h = np.asarray(self.half, float)
        us = np.linspace(c[0] - h[0], c[0] + h[0], n)
        vs = np.linspace(c[1] - h[1], c[1] + h[1], n)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        return mod1(np.stack([uu.ravel(), vv.ravel()], axis=-1))

    def contains(self, points, margin: float = 0.0) -> np.ndarray:
        d = np.abs(wrapped_diff(points, np.asarray(self.center, float)))
        h = np.asarray(self.half, float) + margin
        return (d[..., 0] <= h[0]) & (d[..., 1] <= h[1])

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        c = np.asarray(self.center, float)
        h = np.asarray(self.half, float)
        offs = rng.uniform(-h, h, size=(m, 2))
        return mod1(c + offs)


# smoothstep's coefficients as 0-d float64 arrays: numpy takes one with less
# per-call work than a Python float, and computes the same bits
_C = {c: np.array(float(c)) for c in (0, 1, -2, 6, 10, -15, -30, 60, 120, -180)}


def smoothstep(r, inner, band, n_derivs: int = 2):
    """Radial quintic profile 1 - (10t^3 - 15t^4 + 6t^5) of
    t = clip((r - inner) / band, 0, 1), and its first ``n_derivs`` derivatives
    in r.  ``inner`` and ``band`` are scalars or arrays broadcasting against r,
    which must be nonnegative (not checked here)."""
    # min(max(.)) is np.clip without its Python-level argument handling;
    # t is never -0.0 (r >= 0 and inner > 0), the one input where they differ
    t = np.minimum(np.maximum((r - inner) / band, _C[0]), _C[1])
    # s, s', s'' all reach their clip values exactly (s(1) = 1 in exact
    # float arithmetic), so no branch masks are needed.
    t2 = t * t
    s = t2 * t * (_C[10] + t * (_C[-15] + _C[6] * t))
    out = [_C[1] - s]
    if n_derivs >= 1:
        out.append(t2 * (_C[1] + t * (_C[-2] + t)) * (_C[-30] / band))
    if n_derivs >= 2:
        out.append(t * (_C[60] + t * (_C[-180] + _C[120] * t)) / -band**2)
    return tuple(out)


@dataclass(frozen=True)
class BumpProfile:
    """Radial bump: 1 on [0, inner], 0 on [outer, inf), smooth monotone between.

    The transition band is the C^2 quintic smoothstep 1 - (10t^3 - 15t^4 + 6t^5)
    of t = (r - inner) / (outer - inner).
    """

    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not (self.inner_radius > 0):
            raise ValueError("inner_radius must be positive")
        if not (self.outer_radius > self.inner_radius):
            raise ValueError("outer_radius must exceed inner_radius")

    @property
    def band(self) -> float:
        return self.outer_radius - self.inner_radius

    def value(self, r):
        return self.value_and_derivatives(r, 0)[0]

    def value_and_derivatives(self, r, n_derivs: int = 2):
        """Profile value and its first ``n_derivs`` radial derivatives at r >= 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        return smoothstep(r, self.inner_radius, self.band, n_derivs)

    def max_abs_derivative(self) -> float:
        """max |d value/dr|: 30 t^2 (1 - t)^2 / band peaks at t = 1/2."""
        return 1.875 / self.band
