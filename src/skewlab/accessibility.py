"""Loop maps from heteroclinic quads, fixed-point detection, orbit exploration
of center accessibility classes, and the point/curve/open trichotomy classifier.

A loop map is the fiber self-map over fiber(x) obtained by composing the four
holonomies around one heteroclinic loop x -> z_i -> p_i -> w_i -> x.  Its fixed
points are exactly the fiber points whose center accessibility class (under the
available generators) is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anosov import HeteroclinicQuad
from .fiber import SkewProduct
from .holonomy import DEFAULT_TOL, PathHolonomy, make_holonomy
from .torus import Region, cell_grid, lift, mod1, torus_dist, wrapped_diff

DIAMETER_TRIVIAL = 1e-6
CURVE_BAND = (0.75, 1.25)
OPEN_MIN = 1.6
DYADIC_SCALES = tuple(range(3, 9))
MIN_BOXES = 24
_QUANT = 1e-9
FD_STEP = 1e-6          # central-difference step of displacement_jacobian
NEWTON_MAX_ITER = 50    # damped Newton iterations of find_fixed_points
DEDUP_FACTOR = 10.0     # fixed points closer than DEDUP_FACTOR * tol are one
REFINE_LEVELS = 3       # fivefold shrinks of a singular seed's refinement scan
DIAMETER_CELLS = 256    # sample_diameter's grid: the finest with this many cells occupied
DIAMETER_RUN = 256      # points per run of one cell; DIAMETER_RUN**2 pairs per kernel call
# Rounding slack of sample_diameter: both its cheap kernel and torus_dist are
# within 1e-15 (absolute plus relative) of the exact distance, so widening by
# these never prunes, nor leaves unrecomputed, the pair torus_dist maximises.
_ROUND_REL = 1e-12
_ROUND_ABS = 1e-14


@dataclass(frozen=True)
class LoopMap:
    """Alternating 4-holonomy composition around a quad, acting on fiber(x).

    Every image point lies in the center accessibility class of its argument
    by construction, so fixed points witness trivial classes.
    """

    quad: HeteroclinicQuad
    index: int
    path: PathHolonomy
    tol: float

    def __call__(self, ys):
        return self.path(ys)

    def inverse(self, ys):
        return self.path.inverse(ys)

    def displacement(self, ys):
        ys = mod1(np.asarray(ys, dtype=float))
        return wrapped_diff(self(ys), ys)


def loop_map(sp: SkewProduct, quad: HeteroclinicQuad, i: int,
             tol: float = DEFAULT_TOL) -> LoopMap:
    """Loop map for loop i of a quad; propagates NoConvergence from holonomies.

    The legs x -> z_i -> p_i -> w_i -> x take the quad's certified leaf
    coordinates. Legs through p_i are anchored at p_i and legs through x at x,
    so each leg rides one consistently iterated orbit.
    """
    p, _, _ = quad.loop_points(i)
    x, p, k = lift(quad.x), lift(p), i - 1
    legs = (("unstable", x, 0.0, quad.u_z[k]), ("stable", p, quad.s_z[k], 0.0),
            ("unstable", p, 0.0, quad.u_w[k]), ("stable", x, quad.s_w[k], 0.0))
    path = PathHolonomy(maps=tuple(make_holonomy(sp, *leg, tol=tol) for leg in legs))
    return LoopMap(quad=quad, index=i, path=path, tol=tol)


def standard_generators(sp: SkewProduct, quads, tol: float = DEFAULT_TOL) -> list[LoopMap]:
    return [loop_map(sp, quad, i, tol=tol) for quad in quads for i in (1, 2)]


# ---------------------------------------------------------------------------
# fixed points of fiber self-maps

@dataclass(frozen=True)
class FixedPointResult:
    identity_like: bool
    points: np.ndarray  # (m, 2), deterministic order

    def __len__(self):
        return len(self.points)


def _dedup(points: np.ndarray, radius: float) -> np.ndarray:
    if len(points) == 0:
        return points.reshape(0, 2)
    keys = np.round(points / radius).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    pts = points[np.sort(idx)]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order]


def displacement_jacobian(map_fn, pts: np.ndarray):
    """Columns d/du and d/dv of the wrapped displacement map_fn(p) - p at pts,
    by central differences of step FD_STEP."""
    cols = []
    for e in (np.array([FD_STEP, 0.0]), np.array([0.0, FD_STEP])):
        fwd, back = mod1(pts + e), mod1(pts - e)
        cols.append((wrapped_diff(map_fn(fwd), fwd) - wrapped_diff(map_fn(back), back))
                    / (2 * FD_STEP))
    return tuple(cols)


def find_fixed_points(map_fn, region: Region, tol: float = 1e-8,
                      seed_grid_n: int = 64) -> FixedPointResult:
    """All fixed points of a fiber self-map inside a chart rectangle.

    Grid seeding + damped Newton on the wrapped displacement with
    finite-difference derivatives; seeds with a singular derivative fall back
    to a bisection-refined local grid scan.  If more than half of the seed
    grid is already fixed, the map is flagged identity-like instead.
    """
    center = np.asarray(region.center, float)
    seeds = region.grid(seed_grid_n)

    def disp(pts):
        return wrapped_diff(map_fn(pts), pts)

    d0 = disp(seeds)
    fixed_frac = float(np.mean(np.hypot(d0[:, 0], d0[:, 1]) < tol))
    if fixed_frac > 0.5:
        return FixedPointResult(identity_like=True, points=np.empty((0, 2)))

    xi = wrapped_diff(seeds, center)
    active = np.ones(len(seeds), dtype=bool)
    singular_seeds = []
    converged = []
    for _ in range(NEWTON_MAX_ITER):
        if not np.any(active):
            break
        q = mod1(center + xi[active])
        d = disp(q)
        dn = np.hypot(d[:, 0], d[:, 1])
        done = dn < 0.25 * tol
        if np.any(done):
            converged.append(mod1(center + xi[active][done]))
        j00_01, j10_11 = displacement_jacobian(map_fn, q)
        det = j00_01[:, 0] * j10_11[:, 1] - j00_01[:, 1] * j10_11[:, 0]
        sing = (np.abs(det) < 1e-12) & ~done
        if np.any(sing):
            singular_seeds.extend(mod1(center + xi[active][sing]))
        ok = ~done & ~sing
        step = np.zeros_like(d)
        safe_det = np.where(np.abs(det) < 1e-300, 1.0, det)
        step[:, 0] = (d[:, 0] * j10_11[:, 1] - d[:, 1] * j10_11[:, 0]) / safe_det
        step[:, 1] = (d[:, 1] * j00_01[:, 0] - d[:, 0] * j00_01[:, 1]) / safe_det
        norm = np.hypot(step[:, 0], step[:, 1])
        cap = 0.2
        scale = np.where(norm > cap, cap / np.maximum(norm, 1e-300), 1.0)
        new_xi = xi[active].copy()
        new_xi[ok] -= step[ok] * scale[ok, None]
        out = np.max(np.abs(new_xi), axis=1) > np.max(region.half) + 0.1
        keep = ok & ~out
        idx = np.flatnonzero(active)
        xi[idx] = new_xi
        active[idx[~keep]] = False

    # chunks of len(seeds) // 25 seeds: no refinement scan outgrows the seed grid
    singular = np.reshape(singular_seeds, (-1, 2))
    chunk = max(1, len(seeds) // 25)
    span = 2.2 * np.max(region.half) / seed_grid_n
    for lo in range(0, len(singular), chunk):
        converged.append(_refine_by_scan(map_fn, singular[lo:lo + chunk], span))

    if not converged:
        return FixedPointResult(identity_like=False, points=np.empty((0, 2)))
    pts = np.concatenate(converged, axis=0)
    resid = torus_dist(map_fn(pts), pts)
    pts = pts[(resid < tol) & region.contains(pts, margin=1e-9)]
    return FixedPointResult(identity_like=False,
                            points=_dedup(pts, DEDUP_FACTOR * tol))


def _refine_by_scan(map_fn, seeds: np.ndarray, span: float) -> np.ndarray:
    """Per seed of an (S, 2) array, the least-displaced point of a 5x5 grid
    around it, re-centred and shrunk fivefold per level: one map call a level."""
    best = seeds
    rows = np.arange(len(seeds))
    for _ in range(REFINE_LEVELS):
        offs = np.linspace(-span, span, 5)
        uu, vv = np.meshgrid(offs, offs, indexing="ij")
        cand = mod1(best[:, None, :] + np.stack([uu.ravel(), vv.ravel()], axis=-1))
        flat = cand.reshape(-1, 2)
        d = torus_dist(map_fn(flat), flat).reshape(len(seeds), -1)
        best = cand[rows, np.argmin(d, axis=1)]
        span /= 5.0
    return best


# ---------------------------------------------------------------------------
# class exploration and classification

@dataclass
class ClassSample:
    """Orbit of a seed fiber point under the loop-map groupoid."""

    seed: tuple[float, float]
    points: np.ndarray
    generators_used: int
    word_length: int
    diagnostics: "Classification | None" = field(default=None)


@dataclass(frozen=True)
class Classification:
    verdict: str            # Trivial | Curve | Open | Indeterminate
    diameter: float
    dim_estimate: float
    scales_used: tuple[int, ...]
    box_counts: tuple[int, ...]
    n_points: int


def explore_class(sp: SkewProduct, quads, seed, K: int = 2000,
                  word_length: int = 12, tol: float = DEFAULT_TOL,
                  generators=None) -> ClassSample:
    """Breadth-first orbit of one seed under all loop maps and inverses."""
    return explore_classes(sp, quads, np.asarray(seed, float).reshape(1, 2),
                           K=K, word_length=word_length, tol=tol,
                           generators=generators)[0]


def explore_classes(sp: SkewProduct, quads, seeds, K: int = 2000,
                    word_length: int = 12, tol: float = DEFAULT_TOL,
                    generators=None) -> list[ClassSample]:
    """Lockstep breadth-first exploration of many seeds at once.

    Produces exactly the same per-seed samples as explore_class run seed by
    seed; batching exists because generator evaluation is vectorized and
    dominated by per-call overhead.
    """
    seeds = mod1(np.asarray(seeds, dtype=float).reshape(-1, 2))
    gens = standard_generators(sp, quads, tol=tol) if generators is None else list(generators)
    if not gens:
        raise ValueError("at least one generator loop map is required")
    actions = [(g, False) for g in gens] + [(g, True) for g in gens]

    m = len(seeds)

    def keys_of(pts, sids):
        # (seed, point quantized to _QUANT) as one complex number, injective
        # because the quantized coordinates of points of [0, 1) are below 2^30
        q = np.round(pts * (1.0 / _QUANT))
        key = np.empty(len(pts), dtype=complex)
        key.real = sids * 2.0 ** 30 + q[:, 0]
        key.imag = q[:, 1]
        return key

    frontier_pts, frontier_sid = seeds, np.arange(m)
    seen = np.sort(keys_of(seeds, frontier_sid))
    taken_pts, taken_sid = [seeds], [frontier_sid]
    counts = np.ones(m, dtype=int)
    for _ in range(word_length):
        if len(frontier_pts) == 0 or np.all(counts >= K):
            break
        pts = mod1(np.concatenate([gen.inverse(frontier_pts) if inv else gen(frontier_pts)
                                   for gen, inv in actions]))
        sids = np.tile(frontier_sid, len(actions))
        keys = keys_of(pts, sids)
        # first occurrence of each key in this level, if no earlier level took it
        _, first = np.unique(keys, return_index=True)
        at = np.minimum(np.searchsorted(seen, keys[first]), len(seen) - 1)
        first = np.sort(first[seen[at] != keys[first]])
        # each seed takes its first K - counts new points, in candidate order
        sid = sids[first]
        by_seed = np.argsort(sid, kind="stable")
        rank = np.empty(len(first), dtype=int)
        rank[by_seed] = np.arange(len(first)) - np.searchsorted(sid[by_seed], sid[by_seed])
        take = first[rank < K - counts[sid]]
        counts += np.bincount(sids[take], minlength=m)
        new_keys = np.sort(keys[take])
        seen = np.insert(seen, np.searchsorted(seen, new_keys), new_keys)
        frontier_pts, frontier_sid = pts[take], sids[take]
        taken_pts.append(frontier_pts)
        taken_sid.append(frontier_sid)

    by_seed = np.argsort(np.concatenate(taken_sid), kind="stable")
    points = np.split(np.concatenate(taken_pts)[by_seed], np.cumsum(counts)[:-1])
    return [ClassSample(seed=(float(s[0]), float(s[1])), points=points[i],
                        generators_used=2 * len(gens), word_length=word_length)
            for i, s in enumerate(seeds)]


def _cell_keys(points: np.ndarray, j: int) -> np.ndarray:
    """One int64 key per point: its cell of the 2^j x 2^j dyadic grid."""
    cells = np.minimum(np.floor(points * (1 << j)).astype(np.int64), (1 << j) - 1)
    return (cells[:, 0] << j) | cells[:, 1]


def _reach(lo, hi):
    """Largest |x - rint(x)| over the differences x of two runs' coordinates on
    one axis, for every pair of runs with coordinate ranges [lo, hi]: the
    wrapped distance of the ranges' centres plus their half-widths, at most
    1/2.  Returns an (m, m) array."""
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    d = centre[:, None] - centre[None, :]
    d -= np.rint(d)
    np.abs(d, out=d)
    d += half[:, None] + half[None, :]
    return np.minimum(d, 0.5, out=d)


def _wrapped_sq(x1, y1, x2, y2):
    """Squared torus distances by the cheap kernel: d -= rint(d)."""
    dx, dy = x1 - x2, y1 - y2
    dx -= np.rint(dx)
    dy -= np.rint(dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def sample_diameter(points: np.ndarray) -> float:
    """Max pairwise torus distance: bitwise the maximum of torus_dist over all
    ordered pairs, found by pruning pairs of dyadic cells instead of
    evaluating every pair.

    The points are binned on the finest dyadic grid with at most
    DIAMETER_CELLS occupied cells, from 16 x 16 up, and each cell's points
    are cut into runs of at most DIAMETER_RUN.  Run pairs are visited by
    decreasing upper bound of their distance, at most DIAMETER_RUN**2 point
    pairs at a time, and the visit stops once no bound reaches the best
    distance found so far.  Every pair within the rounding window of that
    best is recomputed with torus_dist in both argument orders, as the
    all-pairs scan computes it, and the largest of those values is returned.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 2:
        return 0.0
    j = 4
    while j < 30 and len(np.unique(_cell_keys(pts, j + 1))) <= DIAMETER_CELLS:
        j += 1
    keys = _cell_keys(pts, j)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    x, y = pts[order, 0], pts[order, 1]
    new_cell = np.r_[True, keys[1:] != keys[:-1]]
    rank = np.arange(n) - np.flatnonzero(new_cell)[np.cumsum(new_cell) - 1]
    start = np.flatnonzero(rank % DIAMETER_RUN == 0)
    count = np.diff(np.r_[start, n])

    def cutoff(best_sq):  # least distance of a pair that may still be the maximum
        return math.sqrt(best_sq) * (1 - _ROUND_REL) - _ROUND_ABS

    # lower bound: the largest squared distance between run representatives
    xs, ys = x[start], y[start]
    best_sq = float(np.max(_wrapped_sq(xs[:, None], ys[:, None], xs[None, :], ys[None, :])))

    # run pairs a <= b whose upper bound, widened against rounding, reaches it
    bound = np.sqrt(_reach(np.minimum.reduceat(x, start), np.maximum.reduceat(x, start)) ** 2
                    + _reach(np.minimum.reduceat(y, start), np.maximum.reduceat(y, start)) ** 2)
    bound = bound * (1 + _ROUND_REL) + _ROUND_ABS
    a, b = np.nonzero(np.triu(bound >= cutoff(best_sq)))
    by_bound = np.argsort(-bound[a, b], kind="stable")
    a, b = a[by_bound], b[by_bound]
    neg_bound = -bound[a, b]
    size = count[a] * count[b]
    ends = np.cumsum(size)

    best, k = 0.0, 0
    while True:
        live = int(np.searchsorted(neg_bound, -cutoff(best_sq), side="right"))
        if k >= live:
            return best
        first = ends[k] - size[k]
        k1 = max(k + 1, min(live, int(np.searchsorted(ends, first + DIAMETER_RUN ** 2,
                                                      side="right"))))
        sizes = size[k:k1]
        pair = np.repeat(np.arange(k, k1), sizes)
        row, col = np.divmod(np.arange(first, ends[k1 - 1])
                             - np.repeat(ends[k:k1] - sizes, sizes), count[b[pair]])
        i, i2 = start[a[pair]] + row, start[b[pair]] + col
        sq = _wrapped_sq(x[i], y[i], x[i2], y[i2])
        best_sq = max(best_sq, float(np.max(sq)))
        cut = cutoff(best_sq)
        near = np.flatnonzero(sq >= cut * cut) if cut > 0 else np.arange(len(sq))
        near = near[i[near] < i2[near]]
        if len(near):
            p = np.stack([x[i[near]], y[i[near]]], axis=-1)
            q = np.stack([x[i2[near]], y[i2[near]]], axis=-1)
            best = max(best, float(np.max(torus_dist(p, q))),
                       float(np.max(torus_dist(q, p))))
        k = k1


def box_counts(points: np.ndarray, scales=DYADIC_SCALES) -> tuple[int, ...]:
    return tuple(int(len(np.unique(_cell_keys(points, j)))) for j in scales)


def classify_class(sample: ClassSample) -> Classification:
    """Trichotomy verdict for a class sample.

    Trivial below the diameter threshold; otherwise a box-counting dimension
    estimate over dyadic scales restricted to the scaling regime: scales
    saturated by the finite sample (count above max(n/4, 32)) and scales at
    the sample-diameter regime (count below MIN_BOXES) are dropped before the
    fit.  Banded verdicts, with an honest Indeterminate when ambiguous.
    """
    pts = np.asarray(sample.points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        raise ValueError("empty class sample")
    diameter = sample_diameter(pts)
    if diameter < DIAMETER_TRIVIAL:
        cls = Classification("Trivial", diameter, 0.0, (), (), n)
        sample.diagnostics = cls
        return cls
    counts = box_counts(pts, DYADIC_SCALES)
    cap = max(n / 4.0, 32.0)
    kept = [(j, c) for j, c in zip(DYADIC_SCALES, counts) if MIN_BOXES <= c <= cap]
    if len(kept) < 2:
        cls = Classification("Indeterminate", diameter, float("nan"),
                             tuple(j for j, _ in kept), counts, n)
        sample.diagnostics = cls
        return cls
    js = np.array([j for j, _ in kept], dtype=float)
    logs = np.log2([c for _, c in kept])
    slope = float(np.polyfit(js, logs, 1)[0])
    if CURVE_BAND[0] <= slope <= CURVE_BAND[1]:
        verdict = "Curve"
    elif slope > OPEN_MIN:
        verdict = "Open"
    else:
        verdict = "Indeterminate"
    cls = Classification(verdict, diameter, slope, tuple(int(j) for j in js), counts, n)
    sample.diagnostics = cls
    return cls


# ---------------------------------------------------------------------------
# trivial-set scan (desk-scale Gamma_0 restricted to one fiber)

@dataclass(frozen=True)
class TrivialScanResult:
    points: np.ndarray          # grid points fixed by every generator
    grid: np.ndarray
    fixed_mask: np.ndarray
    max_displacement: np.ndarray
    grid_n: int
    tol: float

    @property
    def all_trivial(self) -> bool:
        return bool(np.all(self.fixed_mask))

    @property
    def empty(self) -> bool:
        return not np.any(self.fixed_mask)


def trivial_set_scan(sp: SkewProduct, quads, fiber_grid_n: int, tol: float,
                     region: Region | None = None, generators=None) -> TrivialScanResult:
    """Grid points fixed by all generator loop maps, with the displacement field."""
    gens = standard_generators(sp, quads) if generators is None else list(generators)
    grid = cell_grid(fiber_grid_n) if region is None else region.grid(fiber_grid_n)
    fixed = np.ones(len(grid), dtype=bool)
    max_disp = np.zeros(len(grid))
    for gen in gens:
        d = torus_dist(gen(grid), grid)
        fixed &= d < tol
        max_disp = np.maximum(max_disp, d)
    return TrivialScanResult(points=grid[fixed], grid=grid, fixed_mask=fixed,
                             max_displacement=max_disp, grid_n=fiber_grid_n, tol=tol)
