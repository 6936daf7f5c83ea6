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
from functools import cached_property

import numpy as np

from .accessibility import (LoopMap, displacement_jacobian, find_fixed_points,
                            standard_generators, trivial_set_scan)
from .errors import (BumpEscape, NoConvergence, OverlapError, PostconditionFailure,
                     RegularValueFailure)
from .fiber import ConstantFamily, FiberFamily, IdentityMap, SkewProduct, row_elements
from .holonomy import DEFAULT_TOL, make_holonomy
from .torus import (BumpProfile, Region, TorusPoint, lift, mod1, smoothstep, torus_dist, wrap,
                    wrapped_diff)

MIDPOINT_STEPS = 20     # implicit-midpoint steps per band point
NEWTON_ITERS = 3        # most Newton iterations per step (stops at a bitwise fixed point);
                        # the fewest that leave the residual 100x below NEWTON_TOL
NEWTON_TOL = 1e-12      # largest midpoint residual accepted after them

# destroy_trivial_class: fixed bump geometry and search budgets
BASE_INNER_FRAC, BASE_OUTER_FRAC = 0.45, 0.9  # base bump radii / quad ball radius
FIBER_INNER, FIBER_OUTER = 0.34, 0.46         # fiber plateau and support radii
FIBER_ANCHOR = (0.5, 0.5)   # fiber point over x whose holonomy images centre the bumps
MAX_DRAWS = 100             # random translation draws per bump
MIN_SINGULAR = 1e-4         # singular-value floor of a regular value of l_i - id
SEED_GRID_N = 48            # fixed-point seed grid on the plateau

# the kernel's float constants as 0-d float64 arrays: numpy takes one with
# less per-call work than a Python float, and computes the same bits
_ONE, _TWO = np.array(1.0), np.array(2.0)


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
        if not all(math.isfinite(c) for c in self.v):
            raise BumpEscape(f"translation vector {self.v} must be finite")
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

    def base_value(self, x):
        return self.base_bump.value(torus_dist(x, self.base_center))


def _field(d0, d1, v0, v1, nv1, inner, band, want_dx: bool = True):
    """Hamiltonian field (X0, X1) and, if ``want_dx``, its derivative (DX00,
    DX01, DX10, DX11) at fiber offsets (d0, d1) from the center, component by
    component; ``nv1`` is -v1, negated once by the caller.  X is computed the
    same way either way, so bitwise the same."""
    r = np.hypot(d0, d1)
    psi, dpsi, *d2psi = smoothstep(r, inner, band, 2 if want_dx else 1)
    h0 = d1 * v0 - d0 * v1
    rsafe = r + (r == 0)   # 1.0 where r is 0.0; r is a hypot, never -0.0
    dh = dpsi * h0
    w = dh / rsafe
    X0 = w * d1 + psi * v0
    X1 = psi * v1 - w * d0
    if not want_dx:
        return X0, X1
    d2psi, = d2psi
    rh0 = d0 / rsafe
    rh1 = d1 / rsafe
    # dw/dd_j = psi'' rhat_j H0/r + psi' gradH_j / r - psi' H0 d_j / r^3
    r3 = rsafe**3
    gw0 = d2psi * rh0 * h0 / rsafe + dpsi * nv1 / rsafe - dh * d0 / r3
    gw1 = d2psi * rh1 * h0 / rsafe + dpsi * v0 / rsafe - dh * d1 / r3
    p0 = dpsi * rh0
    p1 = dpsi * rh1
    return (X0, X1, gw0 * d1 + p0 * v0, gw1 * d1 + w + p1 * v0,
            p0 * v1 - (gw0 * d0 + w), p1 * v1 - gw1 * d0)


def _unit_minus(h2, a00, a01, a10, a11):
    """I - h2 DX = [[p, -q], [-r, s]]: returns p, q, r, s and its determinant."""
    p, q = _ONE - h2 * a00, h2 * a01
    r, s = h2 * a10, _ONE - h2 * a11
    return p, q, r, s, p * s - q * r


def _flow(y0, y1, times, v0, v1, inner, band, want_jac: bool = False):
    """Implicit-midpoint flow of the bump field for per-point signed times, on
    1-D component arrays.

    Each step of h = t / MIDPOINT_STEPS solves m = y + (h/2) X(m) by at most
    NEWTON_ITERS Newton iterations, raises NoConvergence unless the residual
    is at most NEWTON_TOL (NaN fails), and sets y <- y + h X(m).  Its Jacobian
    factor is (I - A)^{-1} (I + A) = 2 (I - A)^{-1} - I with A = (h/2) DX(m).

    The Newton loop stops at the first iteration that leaves every point's
    midpoint m bitwise unchanged.  An iteration is a deterministic map of m,
    so the remaining ones would repeat it exactly: that iteration's X, DX and
    residual are the ones the full count would end with, and are reused.  If
    no iteration stops it, the residual evaluation computes X alone (and DX
    only for the Jacobian).  Every 2x2 solve is written out in closed form,
    so no point's result depends on its batch.  Returns (y0, y1, jac) with
    jac = (J00, J01, J10, J11) or None.
    """
    h2 = (0.5 / MIDPOINT_STEPS) * np.asarray(times, dtype=float)
    h = _TWO * h2
    nv1 = -v1
    j00, j01, j10, j11 = 1.0, 0.0, 0.0, 1.0
    for _ in range(MIDPOINT_STEPS):
        m0, m1 = y0, y1
        for _ in range(NEWTON_ITERS):
            X0, X1, *dx = _field(m0, m1, v0, v1, nv1, inner, band)
            # Newton update: solve (I - h2 DX) x = m - y - h2 X
            p, q, r, s, det = _unit_minus(h2, *dx)
            b0 = m0 - y0 - h2 * X0
            b1 = m1 - y1 - h2 * X1
            n0, n1 = m0 - (s * b0 + q * b1) / det, m1 - (p * b1 + r * b0) / det
            # equal bytes: bitwise equal, signed zeros and NaN payloads included
            if n0.tobytes() == m0.tobytes() and n1.tobytes() == m1.tobytes():
                break
            m0, m1 = n0, n1
        else:   # no fixed point within NEWTON_ITERS: evaluate at the last m
            X0, X1, *dx = _field(m0, m1, v0, v1, nv1, inner, band, want_dx=want_jac)
            b0 = m0 - y0 - h2 * X0
            b1 = m1 - y1 - h2 * X1
            if want_jac:
                p, q, r, s, det = _unit_minus(h2, *dx)
        resid = float(np.maximum(np.abs(b0), np.abs(b1)).max())
        if not resid <= NEWTON_TOL:
            raise NoConvergence(f"implicit-midpoint residual {resid:.3g} > {NEWTON_TOL:g}")
        if want_jac:
            j00, j01, j10, j11 = (_TWO * ((s * j00 + q * j10) / det) - j00,
                                  _TWO * ((s * j01 + q * j11) / det) - j01,
                                  _TWO * ((p * j10 + r * j00) / det) - j10,
                                  _TWO * ((p * j11 + r * j01) / det) - j11)
        y0, y1 = y0 + h * X0, y1 + h * X1
    return y0, y1, ((j00, j01, j10, j11) if want_jac else None)


def _bump_fiber_action(params, t, ys, want_jac: bool = False):
    """Flow fiber points ys by the bump field for per-point signed times t.

    The flow by t = base activation is h; the flow by -t is its inverse, so
    points can go either way in one call.

    ``params`` are per-point fiber parameters (centre, v, inner, outer), of
    shapes (n, 2), (n, 2), (n,) and (n,) for arrays ys and t of shapes
    (n, 2) and (n,), so that points of several bumps flow in one call.  Exact
    identity outside the support; exact translation where the whole
    trajectory stays in the plateau; implicit midpoint on the band.
    """
    c, v, inner, outer = params
    d = wrapped_diff(ys, c)
    r = np.hypot(d[..., 0], d[..., 1])
    active = (t != 0) & (r < outer)
    shifted = d + t[..., None] * v
    r_shift = np.hypot(shifted[..., 0], shifted[..., 1])
    plateau = active & (r <= inner) & (r_shift <= inner)
    band = active & ~plateau
    out = np.where(plateau[..., None], shifted, d)
    jac = None
    if want_jac:
        jac = np.broadcast_to(np.eye(2), ys.shape[:-1] + (2, 2)).copy()
    band = np.flatnonzero(band)
    if len(band):
        v, db = v.take(band, axis=0), d.take(band, axis=0)
        inner, outer = inner.take(band), outer.take(band)
        y0, y1, jb = _flow(db[:, 0], db[:, 1], t.take(band), v[:, 0], v[:, 1],
                           inner, outer - inner, want_jac=want_jac)
        row_elements(out)[band] = row_elements(np.stack((y0, y1), axis=-1))
        if want_jac:
            row_elements(jac)[band] = row_elements(np.stack(jb, axis=-1))
    # untouched points keep their bits
    result = np.where(active[..., None], mod1(c + out), mod1(ys))
    return (result, jac) if want_jac else result


@dataclass(frozen=True)
class PerturbedFamily(FiberFamily):
    """inner family post-composed fiberwise with the inverse combined bump map:
    g'_x = g_x o h_x^{-1} (the skew product becomes F o h^{-1}).

    Base supports must be pairwise disjoint, so at most one bump is active
    over any base point.
    """

    inner: FiberFamily
    bumps: tuple[BumpTranslation, ...]

    def __post_init__(self):
        bumps = self.bumps
        for i in range(len(bumps)):
            for j in range(i + 1, len(bumps)):
                gap = float(torus_dist(bumps[i].base_center, bumps[j].base_center))
                if gap <= bumps[i].base_bump.outer_radius + bumps[j].base_bump.outer_radius:
                    raise OverlapError(
                        f"base supports of bumps {i} and {j} overlap (centers {gap:.4g} apart)")

    @cached_property
    def _fiber_params(self):
        """Per-bump fiber (centre, v, inner, outer) tables, indexed by bump."""
        return (np.array([lift(b.fiber_center) for b in self.bumps]),
                np.array([b.v for b in self.bumps], dtype=float),
                np.array([b.fiber_bump.inner_radius for b in self.bumps]),
                np.array([b.fiber_bump.outer_radius for b in self.bumps]))

    def _activation(self, x):
        """Base activation t and active bump index per base point of x (x's
        shape without the last axis); t = 0 and index 0 where no bump is
        active.  The base supports are disjoint, so at most one is.

        A bump's base value is evaluated only at the points whose per-axis
        wrapped distance to its centre is below its outer radius + 1e-9.  That
        distance differs from the one ``torus_dist`` computes by rounding
        only, far below the margin, so every other point has torus distance
        r >= outer, where the profile is exactly 0: the filter is exact.  Off
        [0, 1)^2 an axis offset a >= 1 gives min(a, 1 - a) <= 0, so the filter
        never drops a point that it should evaluate.
        """
        x = np.asarray(x, dtype=float)
        t = np.zeros(x.shape[:-1])
        which = np.zeros(x.shape[:-1], dtype=np.intp)
        for i, b in enumerate(self.bumps):
            c0, c1 = lift(b.base_center)
            reach = b.base_bump.outer_radius + 1e-9
            a0 = np.abs(x[..., 0] - c0)
            a1 = np.abs(x[..., 1] - c1)
            near = (np.minimum(a0, 1.0 - a0) < reach) & (np.minimum(a1, 1.0 - a1) < reach)
            ti = b.base_value(x[near])
            on = ti > 0
            hit = np.flatnonzero(near)[on]   # flat indices of the points bump i moves
            t.flat[hit], which.flat[hit] = ti[on], i
        return t, which

    def _h_action(self, x, y, inverse, want_jac: bool = False):
        """Combined bump map h_x^{-1} where ``inverse`` is True and h_x where
        it is False, on broadcast (x, y) batches, in one kernel call whatever
        the number of bumps.  ``inverse`` is one bool or one per point; it
        reaches the kernel as the sign of the point's time."""
        xb = np.asarray(x, dtype=float)
        yb = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(xb.shape, yb.shape)
        out = np.broadcast_to(yb, shape).copy()
        jac = None
        if want_jac:
            jac = np.broadcast_to(np.eye(2), shape[:-1] + (2, 2)).copy()
        # activation at x's own shape (often one point), then broadcast
        t, which = (np.broadcast_to(a, shape[:-1]) for a in self._activation(xb))
        mask = t > 0
        if np.any(mask):
            # (n, 2) rows move by take and through row_elements, several
            # times faster than numpy's boolean row indexing
            params = tuple(p.take(which[mask], axis=0) for p in self._fiber_params)
            t = np.where(inverse, -t, t)[mask]
            mask, rows = np.flatnonzero(mask), out.reshape(-1, 2)
            got = _bump_fiber_action(params, t, rows.take(mask, axis=0), want_jac=want_jac)
            if want_jac:
                got, jac_got = got
                row_elements(jac.reshape(-1, 2, 2))[mask] = row_elements(jac_got)
            row_elements(rows)[mask] = row_elements(got)
        return (out, jac) if want_jac else out

    def apply(self, x, y):
        return self.inner.apply(x, self._h_action(x, y, inverse=True))

    def inverse(self, x, y):
        return self._h_action(x, self.inner.inverse(x, y), inverse=False)

    def jacobian(self, x, y):
        hy, hjac = self._h_action(x, y, inverse=True, want_jac=True)
        return self.inner.jacobian(x, hy) @ hjac

    def act(self, x, y, inverse):
        """Where the inner family is quiet at every x, g_x is h_x^{-1} on
        [0, 1)^2, bitwise: one _h_action call flows each point by -t forward
        and by +t backward.  Otherwise the default's two calls."""
        quiet = self.inner.quiet(x)
        if quiet is None or not np.all(quiet):
            return super().act(x, y, inverse)
        return self._h_action(x, y, inverse=~np.asarray(inverse))

    def base_lipschitz(self) -> float:
        extra = sum(b.base_bump.max_abs_derivative() * b.v_norm for b in self.bumps)
        return self.inner.base_lipschitz() + extra

    def quiet(self, x):
        """The inner family's mask, False where a bump is active (activation
        t > 0); None when the inner family's is None.  Where no bump is
        active, ``_h_action`` returns a copy of y, so g_x is the inner map."""
        quiet = self.inner.quiet(x)
        if quiet is None:
            return None
        return np.asarray(quiet, dtype=bool) & ~(self._activation(x)[0] > 0)


def perturb_skew(sp: SkewProduct, bumps) -> SkewProduct:
    """Wrap a skew product with fiberwise bump translations (F -> F o h^{-1}).

    Holonomies whose defining orbits avoid every base support are unchanged.
    Bumps on an already perturbed family are joined with the new ones, so
    their base supports must be disjoint from the new ones too (OverlapError).
    """
    bumps = tuple(bumps)
    if not bumps:
        return sp
    inner = sp.family
    if isinstance(inner, PerturbedFamily):
        inner, bumps = inner.inner, inner.bumps + bumps
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
    # The antipode (offset (1/2, 1/2)) does not make the two supports cover
    # the fiber torus: over the identity family the points at offset (1/2, 0)
    # and (0, 1/2) from one anchor lie 1/2 from both centres, beyond FIBER_OUTER.
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
    delta: float
    draws_used: tuple[int, int]
    scan: object
    scan_double: object
    generators: list[LoopMap]           # the unperturbed system's standard generators


def _plateau_region(center, radius_eff: float) -> Region:
    half = radius_eff * 0.999 / math.sqrt(2.0)
    return Region(center=(float(center[0]), float(center[1])), half=(half, half))


def _min_singular_value(map_fn, points) -> float:
    """Smallest singular value of the FD derivative of (map - id) over points."""
    if len(points) == 0:
        return math.inf
    jac = np.stack(displacement_jacobian(map_fn, points)[1:], axis=-1)
    svals = np.linalg.svd(jac, compute_uv=False)
    return float(np.min(svals))


def _regular_value(loop, region, target, tol) -> bool:
    """Whether ``target`` is a numerically regular value of loop - id on
    region: the search is not identity-like, and D(loop - id) has smallest
    singular value above MIN_SINGULAR at every solution of loop(y) - y = target."""
    res = find_fixed_points(lambda pts: mod1(loop(pts) - target), region, tol=tol,
                            seed_grid_n=SEED_GRID_N)
    return not res.identity_like and _min_singular_value(loop, res.points) > MIN_SINGULAR


def _draw_translation(rng, loop, center, v_norm, tol, angle, lo, hi, admits=None):
    """Draw translations v of norm v_norm at angle ``angle`` + U(lo, hi) until
    both +v and -v are regular values of loop - id on the plateau region about
    ``center`` and ``admits(v)`` holds; RegularValueFailure after MAX_DRAWS
    draws.  Returns (v, that region, the draws used)."""
    region = _plateau_region(center, FIBER_INNER - v_norm)
    for draws in range(1, MAX_DRAWS + 1):
        theta = angle + rng.uniform(lo, hi)
        v = (v_norm * math.cos(theta), v_norm * math.sin(theta))
        if all(_regular_value(loop, region, sign * np.asarray(v), tol) for sign in (1.0, -1.0)) \
                and (admits is None or admits(v)):
            return v, region, draws
    raise RegularValueFailure(f"no admissible translation after {MAX_DRAWS} draws")


def _mount(quad, i, v, fiber_center) -> BumpTranslation:
    """Destroy's bump translation by v: its base bump at the quad's w_i, with
    radii BASE_INNER_FRAC and BASE_OUTER_FRAC of loop i's ball radius, and its
    fiber bump BumpProfile(FIBER_INNER, FIBER_OUTER) at fiber_center."""
    r = quad.ball_radius(i)
    return BumpTranslation(base_center=quad.loop_points(i)[1],
                           base_bump=BumpProfile(BASE_INNER_FRAC * r, BASE_OUTER_FRAC * r),
                           fiber_center=wrap(fiber_center),
                           fiber_bump=BumpProfile(FIBER_INNER, FIBER_OUTER), v=v)


def _postcondition(sp, quads, region, params):
    """Destroy's postcondition: trivial-set scans of region at scan_grid_n and
    at twice it, with one set of generators.  The first scan that finds grid
    points fixed by every generator raises PostconditionFailure with them, so
    the second runs only if the first is empty.  Returns (scan, scan_double)."""
    gens = standard_generators(sp, quads, tol=params.holonomy_tol)
    scans = []
    for n in (params.scan_grid_n, 2 * params.scan_grid_n):
        scan = trivial_set_scan(sp, quads, n, params.scan_tol, region=region, generators=gens)
        if not scan.empty:
            raise PostconditionFailure(
                f"{len(scan.points)} points of the {n}x{n} grid remain fixed by all generators",
                data=scan.points)
        scans.append(scan)
    return tuple(scans)


def destroy_trivial_class(sp: SkewProduct, quad, epsilon: float,
                          params: DestroyParams = DestroyParams()) -> DestroyResult:
    """Destroy every trivial accessibility class over the quad's base point.

    Picks a translation v (both +v and -v numerically regular values of
    l1 - id on the plateau), mounts a conservative bump at w_1, projects the
    residual plateau fixed points of h1^{-1} o l1 to fiber(w_2) along the
    shared stable leaf, mounts a second non-parallel bump at w_2 that moves
    every projected point, and certifies by an independent trivial-set scan
    (plus one at double resolution) that the certified region V_x holds no
    point fixed by all generators.  Its parts: ``_draw_translation`` (once
    per bump), ``_mount`` and ``_postcondition``.
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(params.rng_seed)
    tol, htol = params.fixed_point_tol, params.holonomy_tol

    # l_i based at fiber(w_i): loop i rotated to w_i -> x -> z_i -> p_i -> w_i
    gens = standard_generators(sp, [quad], tol=htol)
    loops = [LoopMap(g.maps[-1:] + g.maps[:-1]) for g in gens]
    # bump i's fiber centre: the stable-holonomy image over w_i of its anchor over x
    anchors = (FIBER_ANCHOR, FIBER_ANCHOR if params.fiber_anchor2 is None
               else params.fiber_anchor2)
    centers = [make_holonomy(sp, "stable", lift(quad.x), 0.0, s_w, tol=htol)(
                   np.asarray(anchor, float)) for s_w, anchor in zip(quad.s_w, anchors)]

    delta = min(epsilon, 0.95 * (FIBER_OUTER - FIBER_INNER) / 2.0,
                0.9 * FIBER_INNER)
    v_norm = params.v_frac * delta

    def bumped(i, v):
        """h_i^{-1} o l_i on fiber(w_i), where bump i by v is fully active."""
        bt = _mount(quad, i, v, centers[i - 1])
        fam = PerturbedFamily(ConstantFamily(IdentityMap()), (bt,))
        return lambda pts: fam.apply(bt.base_center, loops[i - 1](pts))

    v1, reg1, draws1 = _draw_translation(rng, loops[0], centers[0], v_norm, tol,
                                         0.0, 0.0, 2.0 * math.pi)
    fp1 = find_fixed_points(bumped(1, v1), reg1, tol=tol, seed_grid_n=SEED_GRID_N)
    if fp1.identity_like:
        raise RegularValueFailure("perturbed loop 1 is identity-like; bump ineffective")

    proj = make_holonomy(sp, "stable", lift(quad.x), quad.s_w[0], quad.s_w[1], tol=htol)
    projected = proj(fp1.points) if len(fp1.points) else np.empty((0, 2))

    def moves_projected(v):
        """Whether h_2^{-1} o l_2 with bump 2 by v moves every projected point."""
        return not len(projected) or \
            np.min(torus_dist(bumped(2, v)(projected), projected)) > 10 * tol

    v2, _, draws2 = _draw_translation(rng, loops[1], centers[1], v_norm, tol,
                                      math.atan2(v1[1], v1[0]) + math.pi / 2.0, -0.4, 0.4,
                                      admits=moves_projected)
    bumps = (_mount(quad, 1, v1, centers[0]), _mount(quad, 2, v2, centers[1]))
    perturbed = perturb_skew(sp, bumps)

    # V_x certified through bump 1's plateau; when the second bump shares the
    # anchor its (identical) plateau certifies the same region
    vx = _plateau_region(FIBER_ANCHOR, (FIBER_INNER - v_norm) * 0.9)
    scan, scan_double = _postcondition(perturbed, [quad], vx, params)

    return DestroyResult(skew_product=perturbed, bumps=bumps, region=vx,
                         v1=v1, v2=v2, delta=delta,
                         draws_used=(draws1, draws2), scan=scan,
                         scan_double=scan_double, generators=gens)
