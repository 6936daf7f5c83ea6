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

    def act(self, x, y, inverse):
        """g_x(y) where ``inverse`` is False and g_x^{-1}(y) where it is True,
        per point: x and y broadcast as in apply, and inverse against their
        shape without the last axis.  One apply call on the forward points
        and one inverse call on the others."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        inverse = np.broadcast_to(inverse, shape[:-1])
        x, y = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
        out = np.empty(shape)
        for where, fn in ((~inverse, self.apply), (inverse, self.inverse)):
            if np.any(where):
                out[where] = fn(x[where], y[where])
        return out

    def base_lipschitz(self) -> float:
        """Bound on the C^0 variation of g_x in the base point."""
        raise NotImplementedError

    def translation(self, x):
        """tau(x) when every g_x is the translation y -> y + tau(x), else None."""
        return None

    def quiet(self, x):
        """Bool mask, of x's shape without the last axis, of the base points
        where g_x and its inverse return every y in [0, 1)^2 bitwise; None
        when the family cannot say."""
        return None


@dataclass(frozen=True)
class ConstantFamily(FiberFamily):
    """The identity family ConstantFamily(IdentityMap()): the cheapest one,
    quiet at every base point."""

    fiber_map: IdentityMap

    def apply(self, x, y):
        return self.fiber_map.apply(y)

    def inverse(self, x, y):
        return self.fiber_map.inverse(y)

    def jacobian(self, x, y):
        return self.fiber_map.jacobian(y)

    def base_lipschitz(self) -> float:
        return 0.0

    def quiet(self, x):
        return np.ones(np.shape(x)[:-1], dtype=bool)


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

    def translation(self, x):
        return self.field(x)


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


def row_elements(a):
    """A C-contiguous, non-empty array as a 1-D view with one element per
    index of its first axis.  numpy gathers and scatters such elements by a
    1-D index several times faster than the rows of an (n, 2) or (n, 2, 2)
    array, and moves the same bytes."""
    a = a.reshape(len(a), -1)
    return a.view(np.dtype((np.void, a.strides[0]))).reshape(-1)


def run_steps(family, rows, xs, inverse, states, record=None, select=None):
    """Compose fiber steps on the rows of a (rows, points, 2) state batch, in place.

    Step j moves states[rows[j]] by g_{xs[j]}, or by its inverse where
    inverse[j] is set; rows is sorted, and a row's steps act in the order
    given.  The d-th steps of all rows go through one family.act call, so a
    bump kernel's fixed cost is paid once per depth.  record[j], if given,
    receives the state step j leaves.

    select, if given, is a (rows, points) bool array: a step then moves only
    the selected points of its row, each with its step's base point, and the
    others keep their bits.  states must then be C-contiguous."""
    depth = np.arange(len(rows)) - np.searchsorted(rows, rows)
    order = np.argsort(depth, kind="stable")   # by depth; rows in order within a depth
    flat = None if select is None else states.reshape(-1, 2)
    for grp in np.split(order, np.cumsum(np.bincount(depth)))[:-1]:
        at = rows[grp]
        if select is None:
            states[at] = family.act(xs[grp, None], states[at], inverse[grp, None])
        else:
            r, p = np.nonzero(select[at])
            idx, step = at[r] * states.shape[1] + p, grp[r]
            got = family.act(xs.take(step, axis=0), flat.take(idx, axis=0), inverse[step])
            row_elements(flat)[idx] = row_elements(np.ascontiguousarray(got))
        if record is not None:
            record[grp] = states[at]


@dataclass(frozen=True)
class SkewProduct:
    """F(x, y) = (A x mod 1, g_x(y)) on T^2 x T^2."""

    base: LinearAnosov
    family: FiberFamily

    def step(self, xs, ys):
        """One skew-product step, vectorized over matching batches."""
        return self.base.apply(xs), self.family.apply(xs, ys)


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
    """Extreme singular values of a batch of 2x2 matrices, closed form, each
    scaled by a power of two (exact) so that no finite entry overflows."""
    e = np.frexp(np.max(np.abs(jac), axis=(-2, -1)))[1]
    jac = np.ldexp(jac, -e[..., None, None])
    a, b = jac[..., 0, 0], jac[..., 0, 1]
    c, d = jac[..., 1, 0], jac[..., 1, 1]
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0))
    smax = np.sqrt((t + disc) / 2.0)
    # smin * smax = |det|; sqrt((t - disc)/2) would cancel to 0 once smax >> 1
    smin = np.divide(np.abs(det), smax, out=np.zeros_like(smax), where=smax > 0)
    return np.ldexp(smax, e), np.ldexp(smin, e)


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
    # L_minus is 0.0 where a sampled determinant rounds to 0: not bunched
    dominated = lam_s < L_minus and L_plus < lam_u
    bunched = L_minus > 0 and lam_s * L_plus / L_minus < 1.0 and L_plus / L_minus / lam_u < 1.0
    return PHEstimates(lambda_s=lam_s, lambda_u=lam_u, L_plus=L_plus, L_minus=L_minus,
                       dominated=dominated, bunched=bunched, grid_n=grid_n)
