"""Loop maps from heteroclinic quads, fixed-point detection, orbit exploration
of center accessibility classes, and the point/curve/open trichotomy classifier.

A loop map is the fiber self-map over fiber(x) obtained by composing the four
holonomies around one heteroclinic loop x -> z_i -> p_i -> w_i -> x.  A point
whose center accessibility class (under the available generators) is trivial
is fixed by every loop map; a fixed point of one loop map need not be, so
``trivial_set_scan`` checks a point against every generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .anosov import HeteroclinicQuad
from .fiber import SkewProduct, run_steps
from .holonomy import DEFAULT_TOL, HolonomyMap, make_holonomy
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
DIAMETER_CELLS = 64     # sample_diameter's cells: the finest level with at most this many
                        # occupied, or 16 x 16 where that has more
DIAMETER_RUN = 256      # points per run of one cell; DIAMETER_RUN**2 pairs per kernel call
# Rounding slack of sample_diameter: both its cheap kernel and torus_dist are
# within 1e-15 (absolute plus relative) of the exact distance, so widening by
# these never prunes, nor leaves unrecomputed, the pair torus_dist maximises.
_ROUND_REL = 1e-12
_ROUND_ABS = 1e-14


@dataclass(frozen=True)
class LoopMap:
    """Ordered composition of leaf holonomies acting on one fiber, and its inverse.

    Around a quad's loop every image point lies in the center accessibility
    class of its argument by construction: a point of a trivial class is a
    fixed point, and a point is of a trivial class when every generator fixes
    it (``trivial_set_scan``).  Both directions are evaluated by loop_actions.
    The legs share one fiber family; with no legs the map is the identity.
    """

    maps: tuple[HolonomyMap, ...]

    def __post_init__(self):
        if any(h.sp.family != self.maps[0].sp.family for h in self.maps[1:]):
            raise ValueError("the legs of a loop map must share one fiber family")

    def __call__(self, ys):
        return loop_actions([(self, False)], ys)[0]

    def inverse(self, ys):
        return loop_actions([(self, True)], ys)[0]

    @cached_property
    def _plans(self):
        """How loop_actions evaluates the map (index 0) and its inverse (index
        1), built once; the inverse takes the legs in reverse, each inverted."""
        return _plan(self.maps), _plan(tuple(h.inverse_map() for h in reversed(self.maps)))


def _plan(legs):
    """One loop action, the composition of legs in acting order, as
    loop_actions evaluates it.

    - ("shift", T) for a translation family, and for no legs: one
      closed-form translation per leg, as HolonomyMap.evaluate_at adds it;
    - ("steps", (family, points, inverse)) for any other family: the steps
      of every leg (HolonomyMap.steps, quiet ones dropped), legs in order.
    """
    shifts = [h._translation_steps(h.truncation_n) for h in legs]
    if all(s is not None for s in shifts):
        return "shift", [s.sum(axis=0) for s, h in zip(shifts, legs) if h.truncation_n]
    points, inverse = (np.concatenate(col) for col in zip(*(h.steps() for h in legs)))
    return "steps", (legs[0].sp.family, points, inverse)


def loop_actions(actions, ys, select=None) -> np.ndarray:
    """Images of one fiber batch under many loop actions, in lockstep.

    An action is a pair (loop, inverse): the LoopMap, or its inverse where
    ``inverse`` is True.  Returns an array of shape (len(actions),) plus the
    shape of ys whose row a is bitwise the image of ys under action a alone.

    A translation family's legs are closed-form translations.  Any other
    action is a list of family steps, and an action with a step is one row
    of a fiber.run_steps call per family: one FiberFamily.act call per
    composition depth moves every such action, not one per action and step.

    select, if given, is a (len(actions), points) bool array over the points
    of ys flattened to (points, 2).  Row a is then the image under action a
    only where select[a] is set, and unspecified elsewhere: family steps
    move the selected points alone.  A translation family's shifts move
    every point, which costs less than picking some out.
    """
    ys = np.asarray(ys, dtype=float)
    flat = mod1(ys.reshape(-1, 2))
    out = np.broadcast_to(flat, (len(actions),) + flat.shape).copy()
    lockstep = {}
    for a, (loop, inverse) in enumerate(actions):
        kind, plan = loop._plans[bool(inverse)]
        if kind == "shift":
            for shift in plan:
                out[a] = mod1(out[a] + shift)
        elif len(plan[1]) and (select is None or select[a].any()):
            family, points, inverse = plan
            lockstep.setdefault(id(family), (family, []))[1].append(
                (np.full(len(points), a), points, inverse))
    for family, members in lockstep.values():
        run_steps(family, *(np.concatenate(col) for col in zip(*members)), out,
                  select=select)
    return out.reshape((len(actions),) + ys.shape)


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
    return LoopMap(tuple(make_holonomy(sp, *leg, tol=tol) for leg in legs))


def standard_generators(sp: SkewProduct, quads, tol: float = DEFAULT_TOL) -> list[LoopMap]:
    return [loop_map(sp, quad, i, tol=tol) for quad in quads for i in (1, 2)]


# ---------------------------------------------------------------------------
# fixed points of fiber self-maps

@dataclass(frozen=True)
class FixedPointResult:
    identity_like: bool
    points: np.ndarray  # (m, 2), deterministic order


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
    finite-difference derivatives; seeds with a singular derivative fall back,
    len(seeds) // 25 at a time, to a 5x5 grid about each that shrinks fivefold
    per level for REFINE_LEVELS levels (``_refine_by_scan``).  If more than
    half of the seed grid is already fixed, the map is flagged identity-like instead.
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
    if len(singular):
        converged.append(_refine_by_scan(map_fn, singular, 2.2 * np.max(region.half) / seed_grid_n,
                                         max(1, len(seeds) // 25)))

    if not converged:
        return FixedPointResult(identity_like=False, points=np.empty((0, 2)))
    pts = np.concatenate(converged, axis=0)
    resid = torus_dist(map_fn(pts), pts)
    pts = pts[(resid < tol) & region.contains(pts, margin=1e-9)]
    return FixedPointResult(identity_like=False,
                            points=_dedup(pts, DEDUP_FACTOR * tol))


def _refine_by_scan(map_fn, seeds: np.ndarray, span: float, chunk: int) -> np.ndarray:
    """Per seed of an (S, 2) array, the least-displaced point of a 5x5 grid
    around it, re-centred and shrunk fivefold per level: one map call a level
    per chunk of seeds.  The grids of offsets are built once for all chunks."""
    grids = []
    for _ in range(REFINE_LEVELS):
        offs = np.linspace(-span, span, 5)
        uu, vv = np.meshgrid(offs, offs, indexing="ij")
        grids.append(np.stack([uu.ravel(), vv.ravel()], axis=-1))
        span /= 5.0
    refined = []
    for lo in range(0, len(seeds), chunk):
        best = seeds[lo:lo + chunk]
        rows = np.arange(len(best))
        for offs in grids:
            cand = mod1(best[:, None, :] + offs)
            flat = cand.reshape(-1, 2)
            d = torus_dist(map_fn(flat), flat).reshape(len(best), -1)
            best = cand[rows, np.argmin(d, axis=1)]
        refined.append(best)
    return np.concatenate(refined)


# ---------------------------------------------------------------------------
# class exploration and classification

@dataclass(frozen=True)
class ClassSample:
    """Orbit of a seed fiber point under the loop-map groupoid."""

    seed: tuple[float, float]
    points: np.ndarray
    generators_used: int
    word_length: int


@dataclass(frozen=True)
class Classification:
    verdict: str            # Trivial | Curve | Open | Indeterminate
    diameter: float
    dim_estimate: float
    scales_used: tuple[int, ...]
    box_counts: tuple[int, ...]
    n_points: int


def _seed_rank(sids):
    """Per entry of an array of seed ids, how many entries before it have its id."""
    by_seed = np.argsort(sids, kind="stable")
    rank = np.empty(len(sids), dtype=int)
    rank[by_seed] = np.arange(len(sids)) - np.searchsorted(sids[by_seed], sids[by_seed])
    return rank


def explore_classes(sp: SkewProduct, quads, seeds, K: int = 2000,
                    word_length: int = 12, generators=None) -> list[ClassSample]:
    """Lockstep breadth-first orbits of many seeds under all loop maps and
    their inverses.

    Each level sends the frontier points through the actions, and each seed
    takes its first K - count new points in candidate order (action, then
    frontier point).  Three kinds of image are not computed, because no
    seed could take them:
    - a point made by action a is not sent through a's inverse, which
      returns it to its parent, a point an earlier level took (reduced
      words);
    - a seed that holds K points leaves the frontier (saturated seeds);
    - a seed with more candidates at a level than it can take (it fills)
      evaluates them in prefix order, in rounds, and stops once it has its
      K - count new points.  Its first round evaluates as many candidates
      as it needs, each later round as many as it still lacks, and from the
      third round on at least twice the round before, so a level makes
      fewer than 2 + log2(C) loop_actions calls, C the largest candidate
      count of a seed; the seeds still short share each round's call.  A
      level where no seed fills makes one call.
    So each seed's sample is exactly the one it gets when explored alone,
    and the one every action on every frontier point would give.
    """
    seeds = mod1(np.asarray(seeds, dtype=float).reshape(-1, 2))
    gens = standard_generators(sp, quads) if generators is None else list(generators)
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

    # per frontier point, the inverse of the action that made it (-1: a seed)
    frontier_pts, frontier_sid, back = seeds, np.arange(m), np.full(m, -1)
    seen = np.sort(keys_of(seeds, frontier_sid))
    taken_pts, taken_sid = [seeds], [frontier_sid]
    counts = np.ones(m, dtype=int)
    for _ in range(word_length):
        live = np.flatnonzero(counts[frontier_sid] < K)
        frontier_pts, frontier_sid, back = (frontier_pts.take(live, axis=0),
                                            frontier_sid[live], back[live])
        n = len(frontier_pts)
        if n == 0:
            break
        select = np.arange(len(actions))[:, None] != back
        cand = np.flatnonzero(select)
        sids = frontier_sid[cand % n]
        need, size = K - counts, np.bincount(sids, minlength=m)
        # per seed, the prefix of its candidates evaluated by the end of a round
        start, end = np.zeros(m, dtype=int), np.minimum(size, need)
        fills = bool(np.any(end < size))
        rank = _seed_rank(sids) if fills else None
        got, rounds = np.zeros(m, dtype=int), []
        while True:
            part, sid = cand, sids
            if fills:
                inside = (rank >= start[sids]) & (rank < end[sids])
                part, sid = cand[inside], sids[inside]
                select = np.zeros(select.shape, dtype=bool)
                select.flat[part] = True
            pts = mod1(loop_actions(actions, frontier_pts, select).reshape(-1, 2)
                       .take(part, axis=0))
            keys = keys_of(pts, sid)
            # first occurrence of each key in this round, if no earlier level
            # or round evaluated it
            _, first = np.unique(keys, return_index=True)
            at = np.minimum(np.searchsorted(seen, keys[first]), len(seen) - 1)
            first = np.sort(first[seen[at] != keys[first]])
            new_keys = np.sort(keys[first])
            seen = np.insert(seen, np.searchsorted(seen, new_keys), new_keys)
            # a seed that fills takes its first need - got new points
            found = np.bincount(sid[first], minlength=m)
            if np.any(got + found > need):
                first = first[_seed_rank(sid[first]) < (need - got)[sid[first]]]
                found = np.minimum(found, need - got)
            got += found
            rounds.append((part[first], pts.take(first, axis=0), sid[first]))
            short = (got < need) & (end < size)
            if not np.any(short):
                break
            lack = need - got
            request = lack if len(rounds) == 1 else np.maximum(lack, 2 * (end - start))
            start, end = end, np.where(short, np.minimum(size, end + request), end)
        made, frontier_pts, frontier_sid = (np.concatenate(col) for col in zip(*rounds))
        if len(rounds) > 1:     # back to candidate order
            order = np.argsort(made)
            made, frontier_pts, frontier_sid = (made[order], frontier_pts[order],
                                                frontier_sid[order])
        counts += got
        back = (made // n + len(gens)) % len(actions)
        taken_pts.append(frontier_pts)
        taken_sid.append(frontier_sid)

    by_seed = np.argsort(np.concatenate(taken_sid), kind="stable")
    points = np.split(np.concatenate(taken_pts)[by_seed], np.cumsum(counts)[:-1])
    return [ClassSample(seed=(float(s[0]), float(s[1])), points=points[i],
                        generators_used=2 * len(gens), word_length=word_length)
            for i, s in enumerate(seeds)]


_KEY_LEVEL = 30         # the dyadic level of _morton_keys' cells
# (shift, mask) steps that spread the 30 bits of a cell index to the even bits
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
           (2, 0x3333333333333333), (1, 0x5555555555555555))


def _morton_keys(points: np.ndarray) -> np.ndarray:
    """One int64 key per point of the torus: its cell of the 2^30 x 2^30 dyadic
    grid, the bits of the two axes interleaved (Morton order), x's above y's.

    ``key >> 2 * (30 - j)`` is then the point's cell at any level j <= 30,
    bitwise floor(p * 2^j) of its coordinates p mod 1: scaling by a power of
    two is exact, floor(x / 2) == floor(floor(x) / 2), and p < 1 needs no
    clamp to 2^j - 1.  So sorted keys order every level at once, each
    level's cells contiguous.  Non-finite points raise ValueError, as mod1
    does.
    """
    cells = np.floor(mod1(points).reshape(-1, 2) * float(1 << _KEY_LEVEL)).astype(np.int64)
    for shift, mask in _SPREAD:
        cells |= cells << shift
        cells &= mask
    return (cells[:, 0] << 1) | cells[:, 1]


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

    One stable sort of the points' Morton keys orders every dyadic level at
    once.  The points are grouped into the cells of the finest level with at
    most DIAMETER_CELLS occupied cells, or of the 16 x 16 grid where that
    has more; each cell is contiguous in the sorted order, and its points
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
    keys = _morton_keys(pts)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # consecutive points share their level-j cell iff split < 1 << 2 * (30 - j)
    split = keys[1:] ^ keys[:-1]
    j = 4
    while j < _KEY_LEVEL and np.count_nonzero(
            split >= 1 << 2 * (_KEY_LEVEL - j - 1)) < DIAMETER_CELLS:
        j += 1
    x, y = pts[order, 0], pts[order, 1]
    new_cell = np.r_[True, split >= 1 << 2 * (_KEY_LEVEL - j)]
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
    """Occupied cells of the 2^j x 2^j dyadic grid of the torus, per scale
    j <= 30 of scales (points taken mod 1; none for no points): one sort of
    the Morton keys, then per scale a count of the level-j cell changes."""
    keys = np.sort(_morton_keys(points))
    split = keys[1:] ^ keys[:-1]
    return tuple(min(len(keys), 1) + int(np.count_nonzero(split >= 1 << 2 * (_KEY_LEVEL - j)))
                 for j in scales)


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
        return Classification("Trivial", diameter, 0.0, (), (), n)
    counts = box_counts(pts, DYADIC_SCALES)
    cap = max(n / 4.0, 32.0)
    kept = [(j, c) for j, c in zip(DYADIC_SCALES, counts) if MIN_BOXES <= c <= cap]
    if len(kept) < 2:
        return Classification("Indeterminate", diameter, float("nan"),
                              tuple(j for j, _ in kept), counts, n)
    js = np.array([j for j, _ in kept], dtype=float)
    logs = np.log2([c for _, c in kept])
    slope = float(np.polyfit(js, logs, 1)[0])
    if CURVE_BAND[0] <= slope <= CURVE_BAND[1]:
        verdict = "Curve"
    elif slope > OPEN_MIN:
        verdict = "Open"
    else:
        verdict = "Indeterminate"
    return Classification(verdict, diameter, slope, tuple(int(j) for j in js), counts, n)


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
    for image in loop_actions([(gen, False) for gen in gens], grid):
        d = torus_dist(image, grid)
        fixed &= d < tol
        max_disp = np.maximum(max_disp, d)
    return TrivialScanResult(points=grid[fixed], grid=grid, fixed_mask=fixed,
                             max_displacement=max_disp, grid_n=fiber_grid_n, tol=tol)
