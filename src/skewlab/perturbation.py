"""Compactly supported area-preserving bump translations and the
trivial-class destruction procedure for conservative skew products.

A BumpTranslation is the time-t map (t = base bump value at the base point) of
the Hamiltonian flow of chi(y) = psi_fiber(|y - c|) * ((y2-c2) v1 - (y1-c1) v2)
about the fiber center c.  Inside the plateau the field is exactly the constant
v, so the map is the exact translation y + t v there; outside the support it is
exactly the identity.  On the band the map is MIDPOINT_STEPS implicit-midpoint
steps of h = t / MIDPOINT_STEPS: symplectic, so its Jacobian (a product of
Cayley factors) has det 1 by construction, and symmetric, so the flow by -t
inverts it.  A point's image depends on its own t alone, not on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accessibility import (displacement_jacobian, find_fixed_points, loop_map,
                            standard_generators, trivial_set_scan)
from .errors import (BumpEscape, NoConvergence, OverlapError, PostconditionFailure,
                     RegularValueFailure)
from .fiber import FiberFamily, SkewProduct
from .holonomy import DEFAULT_TOL, PathHolonomy, make_holonomy
from .torus import BumpProfile, Region, TorusPoint, lift, mod1, torus_dist, wrap, wrapped_diff

MIDPOINT_STEPS = 20     # implicit-midpoint steps per band point
NEWTON_ITERS = 5        # fixed Newton iterations per step (no early stop)
NEWTON_TOL = 1e-12      # largest midpoint residual accepted after them

# destroy_trivial_class: fixed bump geometry and search budgets
BASE_INNER_FRAC, BASE_OUTER_FRAC = 0.45, 0.9  # base bump radii / quad ball radius
FIBER_INNER, FIBER_OUTER = 0.34, 0.46         # fiber plateau and support radii
FIBER_ANCHOR = (0.5, 0.5)   # fiber point over x whose holonomy images centre the bumps
MAX_DRAWS = 100             # random translation draws per bump
MIN_SINGULAR = 1e-4         # singular-value floor of a regular value of l_i - id
SEED_GRID_N = 48            # fixed-point seed grid on the plateau


@dataclass(frozen=True)
class BumpTranslation:
    """Fiberwise conservative bump: active over B(base_center, base outer radius),
    translating by (base value) * v on the fiber plateau."""

    base_center: TorusPoint
    base_bump: BumpProfile
    fiber_center: TorusPoint
    fiber_bump: BumpProfile
    v: tuple[float, float]

    def __post_init__(self):
        if self.base_bump.outer_radius >= 0.5 or self.fiber_bump.outer_radius >= 0.5:
            raise BumpEscape("bump support must fit in one torus chart (outer < 1/2)")
        vmax = (self.fiber_bump.outer_radius - self.fiber_bump.inner_radius) / 2.0
        norm = math.hypot(*self.v)
        if norm >= vmax:
            raise BumpEscape(f"|v| = {norm:.4g} >= (outer - inner)/2 = {vmax:.4g}")
        if norm <= 0:
            raise BumpEscape("translation vector must be nonzero")
        if self.fiber_bump.inner_radius <= norm:
            raise BumpEscape("plateau smaller than |v|: certified region empty")

    @property
    def v_norm(self) -> float:
        return math.hypot(*self.v)

    @property
    def certified_inner_radius(self) -> float:
        return self.fiber_bump.inner_radius - self.v_norm

    def base_value(self, x):
        return self.base_bump.value(torus_dist(x, self.base_center))


def _field(d, vs, prof: BumpProfile):
    """Hamiltonian field X and its derivative DX at fiber offsets d from the center."""
    r = np.hypot(d[..., 0], d[..., 1])
    psi, dpsi, d2psi = prof.value_and_derivatives(r, 2)
    v0, v1 = vs[..., 0], vs[..., 1]
    h0 = d[..., 1] * v0 - d[..., 0] * v1
    rsafe = np.where(r > 0, r, 1.0)
    w = dpsi * h0 / rsafe
    X = np.empty_like(d)
    X[..., 0] = w * d[..., 1] + psi * v0
    X[..., 1] = -w * d[..., 0] + psi * v1
    rh0 = d[..., 0] / rsafe
    rh1 = d[..., 1] / rsafe
    # dw/dd_j = psi'' rhat_j H0/r + psi' gradH_j / r - psi' H0 d_j / r^3
    gw0 = d2psi * rh0 * h0 / rsafe + dpsi * (-v1) / rsafe - dpsi * h0 * d[..., 0] / rsafe**3
    gw1 = d2psi * rh1 * h0 / rsafe + dpsi * v0 / rsafe - dpsi * h0 * d[..., 1] / rsafe**3
    DX = np.empty(d.shape[:-1] + (2, 2))
    DX[..., 0, 0] = gw0 * d[..., 1] + dpsi * rh0 * v0
    DX[..., 0, 1] = gw1 * d[..., 1] + w + dpsi * rh1 * v0
    DX[..., 1, 0] = -gw0 * d[..., 0] - w + dpsi * rh0 * v1
    DX[..., 1, 1] = -gw1 * d[..., 0] + dpsi * rh1 * v1
    return X, DX


def _solve_unit_minus(A, b):
    """x with (I - A) x = b for batched 2x2 A and b of shape (..., 2, k), in
    closed form so that no point's result depends on its batch."""
    p, q = 1.0 - A[..., 0, 0, None], -A[..., 0, 1, None]
    r, s = -A[..., 1, 0, None], 1.0 - A[..., 1, 1, None]
    det = p * s - q * r
    b0, b1 = b[..., 0, :], b[..., 1, :]
    return np.stack(((s * b0 - q * b1) / det, (p * b1 - r * b0) / det), axis=-2)


def _flow(d0, times, vs, prof: BumpProfile, want_jac: bool = False):
    """Implicit-midpoint flow of the bump field for per-point signed times.

    Each step of h = t / MIDPOINT_STEPS solves m = y + (h/2) X(m) by
    NEWTON_ITERS Newton iterations, raises NoConvergence if the residual is
    still above NEWTON_TOL, and sets y <- y + h X(m).  Its Jacobian factor is
    (I - A)^{-1} (I + A) = 2 (I - A)^{-1} - I with A = (h/2) DX(m).
    """
    y = np.array(d0, dtype=float)
    h2 = (0.5 / MIDPOINT_STEPS) * np.asarray(times, dtype=float)[..., None]
    vs = np.broadcast_to(np.asarray(vs, float), y.shape)
    jac = None
    if want_jac:
        jac = np.broadcast_to(np.eye(2), y.shape[:-1] + (2, 2)).copy()
    for _ in range(MIDPOINT_STEPS):
        m = y
        for _ in range(NEWTON_ITERS):
            X, DX = _field(m, vs, prof)
            m = m - _solve_unit_minus(h2[..., None] * DX, (m - y - h2 * X)[..., None])[..., 0]
        X, DX = _field(m, vs, prof)
        resid = float(np.max(np.abs(m - y - h2 * X)))
        if resid > NEWTON_TOL:
            raise NoConvergence(f"implicit-midpoint residual {resid:.3g} > {NEWTON_TOL:g}")
        if want_jac:
            jac = 2.0 * _solve_unit_minus(h2[..., None] * DX, jac) - jac
        y = y + 2.0 * h2 * X
    return y, jac


def _bump_fiber_action(bt: BumpTranslation, t, ys, inverse: bool = False,
                       want_jac: bool = False):
    """Apply h (or h^{-1}) with per-point base activation t to fiber points ys.

    Exact identity outside the support; exact translation where the whole
    trajectory stays in the plateau; implicit midpoint on the band.
    """
    ys = np.asarray(ys, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), ys.shape[:-1]).copy()
    sign = -1.0 if inverse else 1.0
    c = lift(bt.fiber_center)
    v = np.asarray(bt.v, float)
    d = wrapped_diff(ys, c)
    r = np.hypot(d[..., 0], d[..., 1])
    inner, outer = bt.fiber_bump.inner_radius, bt.fiber_bump.outer_radius
    active = (t > 0) & (r < outer)
    shifted = d + sign * t[..., None] * v
    r_shift = np.hypot(shifted[..., 0], shifted[..., 1])
    plateau = active & (r <= inner) & (r_shift <= inner)
    band = active & ~plateau
    out = d.copy()
    out[plateau] = shifted[plateau]
    jac = None
    if want_jac:
        jac = np.broadcast_to(np.eye(2), ys.shape[:-1] + (2, 2)).copy()
    if np.any(band):
        flowed, jband = _flow(d[band], sign * t[band], v, bt.fiber_bump,
                              want_jac=want_jac)
        out[band] = flowed
        if want_jac:
            jac[band] = jband
    result = mod1(c + out)
    # preserve untouched points bitwise
    result[~active] = mod1(ys)[~active]
    return (result, jac) if want_jac else result


def apply_bump(bt: BumpTranslation, x, y):
    """h_x(y): identity bitwise off-support, y + t v on the certified plateau."""
    t = float(bt.base_value(np.asarray(x, float).reshape(2)))
    return _bump_fiber_action(bt, t, y, inverse=False)


def apply_bump_inverse(bt: BumpTranslation, x, y):
    t = float(bt.base_value(np.asarray(x, float).reshape(2)))
    return _bump_fiber_action(bt, t, y, inverse=True)


def bump_jacobian(bt: BumpTranslation, x, y, inverse: bool = False):
    t = float(bt.base_value(np.asarray(x, float).reshape(2)))
    _, jac = _bump_fiber_action(bt, t, y, inverse=inverse, want_jac=True)
    return jac


@dataclass(frozen=True)
class PerturbedFamily(FiberFamily):
    """inner family post-composed fiberwise with the inverse combined bump map:
    g'_x = g_x o h_x^{-1} (the skew product becomes F o h^{-1})."""

    inner: FiberFamily
    bumps: tuple[BumpTranslation, ...]

    def _h_action(self, x, y, inverse: bool, want_jac: bool = False):
        """Combined bump map h_x^{±1} on broadcast (x, y) batches."""
        xb = np.asarray(x, dtype=float)
        yb = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(xb.shape, yb.shape)
        out = np.broadcast_to(yb, shape).copy()
        jac = None
        if want_jac:
            jac = np.broadcast_to(np.eye(2), shape[:-1] + (2, 2)).copy()
        for bt in self.bumps:
            # activation at x's own shape (often one point), then broadcast
            t = np.broadcast_to(bt.base_value(xb), shape[:-1])
            mask = t > 0
            if not np.any(mask):
                continue
            if want_jac:
                res, jb = _bump_fiber_action(bt, t[mask], out[mask],
                                             inverse=inverse, want_jac=True)
                out[mask] = res
                jac[mask] = jb  # supports disjoint: at most one active bump
            else:
                out[mask] = _bump_fiber_action(bt, t[mask], out[mask], inverse=inverse)
        return (out, jac) if want_jac else out

    def apply(self, x, y):
        return self.inner.apply(x, self._h_action(x, y, inverse=True))

    def inverse(self, x, y):
        return self._h_action(x, self.inner.inverse(x, y), inverse=False)

    def jacobian(self, x, y):
        hy, hjac = self._h_action(x, y, inverse=True, want_jac=True)
        return self.inner.jacobian(x, hy) @ hjac

    def base_lipschitz(self) -> float:
        extra = sum(b.base_bump.max_abs_derivative() * b.v_norm for b in self.bumps)
        return self.inner.base_lipschitz() + extra


def perturb_skew(sp: SkewProduct, bumps) -> SkewProduct:
    """Wrap a skew product with fiberwise bump translations (F -> F o h^{-1}).

    Holonomies whose defining orbits avoid every base support are unchanged.
    Base supports must be pairwise disjoint, including those of the bumps
    already on a perturbed family.
    """
    bumps = tuple(bumps)
    if not bumps:
        return sp
    inner = sp.family
    if isinstance(inner, PerturbedFamily):
        inner, bumps = inner.inner, inner.bumps + bumps
    for i in range(len(bumps)):
        for j in range(i + 1, len(bumps)):
            gap = float(torus_dist(bumps[i].base_center, bumps[j].base_center))
            if gap <= bumps[i].base_bump.outer_radius + bumps[j].base_bump.outer_radius:
                raise OverlapError(
                    f"base supports of bumps {i} and {j} overlap (centers {gap:.4g} apart)")
    return SkewProduct(base=sp.base, family=PerturbedFamily(inner, bumps))


# ---------------------------------------------------------------------------
# destruction of trivial accessibility classes

@dataclass(frozen=True)
class DestroyParams:
    holonomy_tol: float = DEFAULT_TOL
    fixed_point_tol: float = 1e-8
    scan_tol: float = 1e-6
    scan_grid_n: int = 32
    # anchor of the second bump's fiber support; None reuses FIBER_ANCHOR.
    # The antipode (offset (1/2, 1/2)) makes the two supports cover the whole
    # fiber torus, leaving no frozen region.
    fiber_anchor2: tuple[float, float] | None = None
    v_frac: float = 0.5
    rng_seed: int = 0


@dataclass(frozen=True)
class DestroyResult:
    skew_product: SkewProduct
    bumps: tuple[BumpTranslation, BumpTranslation]
    region: Region                      # certified region V_x in fiber(x)
    v1: tuple[float, float]
    v2: tuple[float, float]
    residual_fixed_points: np.ndarray   # Fix(h1^{-1} o l1) on the plateau
    projected_fixed_points: np.ndarray
    delta: float
    draws_used: tuple[int, int]
    scan: object
    scan_double: object


def _plateau_region(center, radius_eff: float) -> Region:
    half = radius_eff * 0.999 / math.sqrt(2.0)
    return Region(center=(float(center[0]), float(center[1])), half=(half, half))


def _min_singular_value(map_fn, points) -> float:
    """Smallest singular value of the FD derivative of (map - id) over points."""
    if len(points) == 0:
        return math.inf
    jac = np.stack(displacement_jacobian(map_fn, points), axis=-1)
    svals = np.linalg.svd(jac, compute_uv=False)
    return float(np.min(svals))


def destroy_trivial_class(sp: SkewProduct, quad, epsilon: float,
                          params: DestroyParams = DestroyParams()) -> DestroyResult:
    """Destroy every trivial accessibility class over the quad's base point.

    Picks a translation v (both +v and -v numerically regular values of
    l1 - id on the plateau), mounts a conservative bump at w_1, projects the
    residual plateau fixed points of h1^{-1} o l1 to fiber(w_2) along the
    shared stable leaf, mounts a second non-parallel bump at w_2 that moves
    every projected point, and certifies by an independent trivial-set scan
    (plus one at double resolution) that the certified region V_x holds no
    point fixed by all generators.
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(params.rng_seed)
    tol = params.fixed_point_tol

    # l_i based at fiber(w_i): loop i rotated to w_i -> x -> z_i -> p_i -> w_i
    l_paths = {}
    for i in (1, 2):
        maps = loop_map(sp, quad, i, params.holonomy_tol).path.maps
        l_paths[i] = PathHolonomy(maps[-1:] + maps[:-1])

    anchor_y = np.asarray(FIBER_ANCHOR, float)
    anchor2 = anchor_y if params.fiber_anchor2 is None \
        else np.asarray(params.fiber_anchor2, float)
    centers = {}
    for i, anch in ((1, anchor_y), (2, anchor2)):
        s_w = quad.s_w[i - 1]
        h_xw = make_holonomy(sp, "stable", lift(quad.x), 0.0, s_w,
                             tol=params.holonomy_tol)
        centers[i] = h_xw(anch)

    fiber_prof = BumpProfile(FIBER_INNER, FIBER_OUTER)
    delta = min(epsilon, 0.95 * (FIBER_OUTER - FIBER_INNER) / 2.0,
                0.9 * FIBER_INNER)
    v_norm = params.v_frac * delta

    def regular_for(loop, center, v):
        reg = _plateau_region(center, FIBER_INNER - v_norm)
        for sign in (1.0, -1.0):
            target = sign * np.asarray(v)

            def shifted(pts):
                return mod1(loop(pts) - target)

            res = find_fixed_points(shifted, reg, tol=tol, seed_grid_n=SEED_GRID_N)
            if res.identity_like:
                return None
            if len(res.points):
                smin = _min_singular_value(loop, res.points)
                if smin <= MIN_SINGULAR:
                    return None
        return reg

    v1 = None
    draws1 = 0
    for k in range(MAX_DRAWS):
        draws1 = k + 1
        theta = rng.uniform(0.0, 2.0 * math.pi)
        cand = (v_norm * math.cos(theta), v_norm * math.sin(theta))
        reg1 = regular_for(l_paths[1], centers[1], cand)
        if reg1 is not None:
            v1 = cand
            break
    if v1 is None:
        raise RegularValueFailure(
            f"no regular translation for loop 1 after {MAX_DRAWS} draws")

    def make_bump(i, v):
        r_ball = quad.ball_radius(i)
        base_prof = BumpProfile(BASE_INNER_FRAC * r_ball, BASE_OUTER_FRAC * r_ball)
        _, w, _ = quad.loop_points(i)
        return BumpTranslation(base_center=w, base_bump=base_prof,
                               fiber_center=wrap(centers[i]), fiber_bump=fiber_prof,
                               v=v)

    bt1 = make_bump(1, v1)

    def m1(pts):
        return _bump_fiber_action(bt1, 1.0, l_paths[1](pts), inverse=True)

    fp1 = find_fixed_points(m1, reg1, tol=tol, seed_grid_n=SEED_GRID_N)
    if fp1.identity_like:
        raise RegularValueFailure("perturbed loop 1 is identity-like; bump ineffective")

    proj = make_holonomy(sp, "stable", lift(quad.x), quad.s_w[0], quad.s_w[1],
                         tol=params.holonomy_tol)
    projected = proj(fp1.points) if len(fp1.points) else np.empty((0, 2))

    v2 = None
    draws2 = 0
    base_angle = math.atan2(v1[1], v1[0])
    for k in range(MAX_DRAWS):
        draws2 = k + 1
        theta = base_angle + math.pi / 2.0 + rng.uniform(-0.4, 0.4)
        cand = (v_norm * math.cos(theta), v_norm * math.sin(theta))
        reg2 = regular_for(l_paths[2], centers[2], cand)
        if reg2 is None:
            continue
        bt2_cand = make_bump(2, cand)

        def m2(pts):
            return _bump_fiber_action(bt2_cand, 1.0, l_paths[2](pts), inverse=True)

        if len(projected):
            moved = torus_dist(m2(projected), projected)
            if np.min(moved) <= 10 * tol:
                continue
        v2 = cand
        bt2 = bt2_cand
        break
    if v2 is None:
        raise RegularValueFailure(
            f"no admissible second translation after {MAX_DRAWS} draws")

    perturbed = perturb_skew(sp, (bt1, bt2))

    # V_x certified through bump 1's plateau; when the second bump shares the
    # anchor its (identical) plateau certifies the same region
    radius_eff = (FIBER_INNER - v_norm) * 0.9
    vx = _plateau_region(anchor_y, radius_eff)

    gens = standard_generators(perturbed, [quad])
    scan = trivial_set_scan(perturbed, [quad], params.scan_grid_n, params.scan_tol,
                            region=vx, generators=gens)
    if not scan.empty:
        raise PostconditionFailure(
            f"{len(scan.points)} grid points remain fixed by all generators",
            data=scan.points)
    scan_double = trivial_set_scan(perturbed, [quad], 2 * params.scan_grid_n,
                                   params.scan_tol, region=vx, generators=gens)
    if not scan_double.empty:
        raise PostconditionFailure(
            "double-resolution scan found residual trivial points",
            data=scan_double.points)

    return DestroyResult(skew_product=perturbed, bumps=(bt1, bt2), region=vx,
                         v1=v1, v2=v2, residual_fixed_points=fp1.points,
                         projected_fixed_points=projected, delta=delta,
                         draws_used=(draws1, draws2), scan=scan,
                         scan_double=scan_double)
