"""Area-preserving fiber map families over the Anosov base and the skew product.

A family assigns to each base point x an area-preserving diffeomorphism g_x of
the fiber torus.  All family methods are vectorized: base and fiber arguments
broadcast against each other with trailing shape (..., 2).  Derivatives are
analytic per variant so that domination certificates carry no finite-difference
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anosov import LinearAnosov
from .torus import BumpProfile, TorusPoint, cell_grid, mod1, torus_dist

TWO_PI = 2.0 * math.pi
MAX_COCYCLE_STEPS = 10**6


# ---------------------------------------------------------------------------
# parameter fields built from bump profiles (computable Lipschitz constants)

@dataclass(frozen=True)
class FieldBump:
    """One radial bump contribution amplitude * psi(dist(x, center))."""

    center: TorusPoint
    profile: BumpProfile
    amplitude: tuple  # scalar wrapped in a 1-tuple, or an (a, b) vector

    def lipschitz(self) -> float:
        amp = math.hypot(*self.amplitude) if len(self.amplitude) == 2 else abs(self.amplitude[0])
        return amp * self.profile.max_abs_derivative()


@dataclass(frozen=True)
class ScalarField:
    """c(x) = base_value + sum of bump contributions, evaluated on (..., 2) arrays."""

    base_value: float
    bumps: tuple[FieldBump, ...] = ()

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.full(xs.shape[:-1], self.base_value)
        for b in self.bumps:
            out = out + b.amplitude[0] * b.profile.value(torus_dist(xs, b.center))
        return out

    def lipschitz(self) -> float:
        return sum(b.lipschitz() for b in self.bumps)


@dataclass(frozen=True)
class VectorField:
    """tau(x) in R^2, a constant plus vector-amplitude bumps."""

    base_value: tuple[float, float]
    bumps: tuple[FieldBump, ...] = ()

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.broadcast_to(np.asarray(self.base_value, float),
                              xs.shape[:-1] + (2,)).copy()
        for b in self.bumps:
            psi = b.profile.value(torus_dist(xs, b.center))
            out = out + psi[..., None] * np.asarray(b.amplitude, float)
        return out

    def lipschitz(self) -> float:
        return sum(b.lipschitz() for b in self.bumps)


# ---------------------------------------------------------------------------
# the Lewowicz family of conservative torus maps

def lewowicz_raw(c, y):
    """f_c(y1, y2) = (2 y1 - (c/2pi) sin(2pi y1) + y2, y1 - (c/2pi) sin(2pi y1) + y2)
    evaluated mod 1; unit Jacobian determinant identically.

    c may be a scalar or an array broadcasting against y[..., 0].
    """
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    s = np.sin(TWO_PI * y[..., 0]) * (c / TWO_PI)
    out = np.empty(np.broadcast(y[..., 0], c).shape + (2,))
    out[..., 0] = 2.0 * y[..., 0] - s + y[..., 1]
    out[..., 1] = y[..., 0] - s + y[..., 1]
    return mod1(out)


def lewowicz_inverse_raw(c, Y):
    """Closed-form inverse: y1 = Y1 - Y2, y2 = Y2 - y1 + (c/2pi) sin(2pi y1), mod 1."""
    Y = np.asarray(Y, dtype=float)
    c = np.asarray(c, dtype=float)
    y1 = mod1(Y[..., 0] - Y[..., 1])
    y2 = Y[..., 1] - y1 + (c / TWO_PI) * np.sin(TWO_PI * y1)
    out = np.empty(np.broadcast(Y[..., 0], c).shape + (2,))
    out[..., 0] = y1
    out[..., 1] = y2
    return mod1(out)


def lewowicz_jacobian_raw(c, y):
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    ccos = c * np.cos(TWO_PI * y[..., 0])
    shape = np.broadcast(y[..., 0], c).shape
    jac = np.empty(shape + (2, 2))
    jac[..., 0, 0] = 2.0 - ccos
    jac[..., 0, 1] = 1.0
    jac[..., 1, 0] = 1.0 - ccos
    jac[..., 1, 1] = 1.0
    return jac


def lewowicz_fixed_point_type(c) -> str:
    """Linear type of the fixed point at the origin, decided in exact arithmetic.

    The fiber derivative there has trace 3 - c and determinant 1, so the
    eigenvalues are non-real of modulus one exactly when |3 - c| < 2.
    """
    from fractions import Fraction

    c = Fraction(c) if not isinstance(c, Fraction) else c
    trace = 3 - c
    if abs(trace) < 2:
        return "elliptic"
    if abs(trace) == 2:
        return "parabolic"
    return "hyperbolic"


# ---------------------------------------------------------------------------
# fiber maps and families

@dataclass(frozen=True)
class IdentityMap:
    """The identity map of the fiber torus."""

    def apply(self, y):
        return mod1(y)

    def inverse(self, y):
        return mod1(y)

    def jacobian(self, y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(np.eye(2), y.shape[:-1] + (2, 2)).copy()


class FiberFamily:
    """Base-point-dependent family x -> g_x; methods broadcast x against y.

    A constant map is a field family whose field has no bumps: a translation
    by v is RotationFamily(VectorField(v)), and the Lewowicz map f_c is
    LewowiczFamily(ScalarField(c)).
    """

    def apply(self, x, y):
        raise NotImplementedError

    def inverse(self, x, y):
        raise NotImplementedError

    def jacobian(self, x, y):
        raise NotImplementedError

    def base_lipschitz(self) -> float:
        """Bound on the C^0 variation of g_x in the base point."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantFamily(FiberFamily):
    """The identity family ConstantFamily(IdentityMap()): the cheapest one, and
    the one whose perturbations the ergodic event scan recognises."""

    fiber_map: IdentityMap

    def apply(self, x, y):
        return self.fiber_map.apply(y)

    def inverse(self, x, y):
        return self.fiber_map.inverse(y)

    def jacobian(self, x, y):
        return self.fiber_map.jacobian(y)

    def base_lipschitz(self) -> float:
        return 0.0


@dataclass(frozen=True)
class RotationFamily(FiberFamily):
    """g_x(y) = y + tau(x): fiberwise rigid translations."""

    field: VectorField

    def apply(self, x, y):
        return mod1(np.asarray(y, float) + self.field(x))

    def inverse(self, x, y):
        return mod1(np.asarray(y, float) - self.field(x))

    def jacobian(self, x, y):
        shape = np.broadcast(np.asarray(x, float)[..., 0],
                             np.asarray(y, float)[..., 0]).shape
        return np.broadcast_to(np.eye(2), shape + (2, 2)).copy()

    def base_lipschitz(self) -> float:
        return self.field.lipschitz()


@dataclass(frozen=True)
class LewowiczFamily(FiberFamily):
    """g_x = Lewowicz map with base-dependent parameter c(x) in [0, 5)."""

    field: ScalarField

    def apply(self, x, y):
        return lewowicz_raw(self.field(x), y)

    def inverse(self, x, y):
        return lewowicz_inverse_raw(self.field(x), y)

    def jacobian(self, x, y):
        return lewowicz_jacobian_raw(self.field(x), y)

    def base_lipschitz(self) -> float:
        # |d f_c / dc| <= 1/(2 pi) pointwise
        return self.field.lipschitz() / TWO_PI


@dataclass(frozen=True)
class SkewProduct:
    """F(x, y) = (A x mod 1, g_x(y)) on T^2 x T^2."""

    base: LinearAnosov
    family: FiberFamily

    def step(self, xs, ys):
        """One skew-product step, vectorized over matching batches."""
        return self.base.apply(xs), self.family.apply(xs, ys)


def cocycle(sp: SkewProduct, x, n: int, y):
    """Fiber component of F^n(x, y); negative n uses inverse fiber maps."""
    if abs(n) > MAX_COCYCLE_STEPS:
        raise ValueError(f"cocycle iteration budget |n| <= {MAX_COCYCLE_STEPS} exceeded")
    xs = np.asarray(x, dtype=float).reshape(2)
    ys = np.asarray(y, dtype=float)
    if n >= 0:
        for _ in range(n):
            ys = sp.family.apply(xs, ys)
            xs = sp.base.apply(xs)
    else:
        for _ in range(-n):
            xs = sp.base.apply_inverse(xs)
            ys = sp.family.inverse(xs, ys)
    return ys


# ---------------------------------------------------------------------------
# partial hyperbolicity / center bunching certification on grids

@dataclass(frozen=True)
class PHEstimates:
    """Grid-certified domination and bunching data; never a proof."""

    lambda_s: float
    lambda_u: float
    L_plus: float
    L_minus: float
    dominated: bool
    bunched: bool
    grid_n: int

    def as_dict(self) -> dict:
        return {
            "lambda_s": self.lambda_s, "lambda_u": self.lambda_u,
            "L_plus": self.L_plus, "L_minus": self.L_minus,
            "dominated": self.dominated, "bunched": self.bunched,
            "grid_n": self.grid_n, "certificate": "grid-certified",
        }


def _singular_values(jac):
    """Extreme singular values of a batch of 2x2 matrices, closed form."""
    a, b = jac[..., 0, 0], jac[..., 0, 1]
    c, d = jac[..., 1, 0], jac[..., 1, 1]
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0))
    smax = np.sqrt((t + disc) / 2.0)
    smin = np.sqrt(np.maximum((t - disc) / 2.0, 0.0))
    return smax, smin


def certify_partial_hyperbolicity(sp: SkewProduct, grid_n: int = 16) -> PHEstimates:
    """Sample ||Dg_x|| extremes over a grid_n^2 x grid_n^2 base-fiber grid."""
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    pts = cell_grid(grid_n)
    xs = np.repeat(pts, grid_n * grid_n, axis=0)
    ys = np.tile(pts, (grid_n * grid_n, 1))
    jac = sp.family.jacobian(xs, ys)
    smax, smin = _singular_values(jac)
    L_plus = float(np.max(smax))
    L_minus = float(np.min(smin))
    lam_s = abs(sp.base.lambda_s)
    lam_u = abs(sp.base.lambda_u)
    dominated = lam_s < L_minus and L_plus < lam_u
    bunched = (lam_s * L_plus / L_minus < 1.0) and ((L_plus / L_minus) / lam_u < 1.0)
    return PHEstimates(lambda_s=lam_s, lambda_u=lam_u, L_plus=L_plus, L_minus=L_minus,
                       dominated=dominated, bunched=bunched, grid_n=grid_n)
