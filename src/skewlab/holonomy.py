"""Stable and unstable fiber holonomies as certified finite composition limits.

For a skew product F(x, y) = (Ax, g_x(y)) and y0 on the stable leaf of x0, the
holonomy from fiber(x0) to fiber(y0) is the C^0 limit of

    H_n = (g^(n) over y0)^{-1} o (g^(n) over x0),

certified by a Cauchy test on a fiber grid.  Both base orbits are derived from
a single *anchor* orbit plus analytic leaf offsets s * rate^k along the
eigendirection: iterating the two base points independently in floating point
would inject noise growing like lambda_u^n and destroy the limit.  All the
correctness oracles (equivariance, composition, inverse, shadowing) are stated
against this evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .anosov import LEAF_RESIDUAL_TOL, leaf_coordinate
from .errors import BrokenPath, NoConvergence
from .fiber import SkewProduct
from .torus import TorusPoint, cell_grid, lift, mod1, torus_dist

DEFAULT_TOL = 1e-10
N_MAX_COMPOSITIONS = 200
CERT_GRID_N = 32
_LOOKAHEAD = 6
_DECAY_FLOOR = 1e-13    # increments at or below this are rounding, not decay


@dataclass(frozen=True)
class HolonomyMap:
    """Certified truncation of a stable/unstable holonomy between two fibers.

    The two base points are anchor + s_from * e and anchor + s_to * e on a
    common leaf; from_pts/to_pts hold their anchored orbits in visiting order,
    so composition k steps over index k for either kind.
    """

    sp: SkewProduct
    kind: str                 # "stable" | "unstable"
    anchor: tuple[float, float]
    s_from: float
    s_to: float
    truncation_n: int
    certified_tol: float
    tol: float
    increments: tuple[float, ...] = field(repr=False, default=())
    from_pts: np.ndarray | None = field(repr=False, compare=False, default=None)
    to_pts: np.ndarray | None = field(repr=False, compare=False, default=None)

    def push_pull(self):
        """Fiber steps: push along the from-orbit, pull back over the to-orbit."""
        fam = self.sp.family
        return (fam.apply, fam.inverse) if self.kind == "stable" else (fam.inverse, fam.apply)

    def __call__(self, ys):
        return self.evaluate_at(ys, self.truncation_n)

    def evaluate_at(self, ys, n: int):
        push, pull = self.push_pull()
        v = mod1(np.asarray(ys, dtype=float))
        for k in range(n):
            v = push(self.from_pts[k], v)
        for k in range(n - 1, -1, -1):
            v = pull(self.to_pts[k], v)
        return v

    def inverse_map(self) -> "HolonomyMap":
        """The reverse holonomy (same anchor, endpoints and orbits swapped)."""
        return replace(self, s_from=self.s_to, s_to=self.s_from,
                       from_pts=self.to_pts, to_pts=self.from_pts)

    def measured_decay_ratio(self) -> float:
        """Geometric-mean per-step ratio of the Cauchy increments above _DECAY_FLOOR.

        Individual consecutive ratios fluctuate with the field gradient along
        the orbit; the envelope rate (first to last significant increment) is
        the meaningful contraction measurement.
        """
        sig = [(k, d) for k, d in enumerate(self.increments) if d > _DECAY_FLOOR]
        if len(sig) < 2:
            return 0.0
        (k0, d0), (k1, d1) = sig[0], sig[-1]
        return float((d1 / d0) ** (1.0 / (k1 - k0)))


_TAIL_SAFETY = 100.0


def _min_horizon(sp: SkewProduct, kind: str, s_from: float, s_to: float,
                 tol: float, n_max: int) -> int:
    """Smallest n past which step-n contributions are provably below tol/2.

    The fiber maps at the paired base points differ by at most
    base_lipschitz * |s_from - s_to| * rate^n, so a family that has not yet
    shown an increment may still produce one until this horizon; the Cauchy
    scan must not stop before it.
    """
    scale = sp.family.base_lipschitz() * abs(s_from - s_to) * _TAIL_SAFETY
    if scale == 0.0:
        return 0
    lam = abs(sp.base.contraction_rate(kind))
    if tol / 2 >= scale:
        return 0
    n = int(np.ceil(np.log((tol / 2) / scale) / np.log(lam)))
    return min(max(n, 0), n_max - _LOOKAHEAD)


def _certify(h: HolonomyMap, n_max: int):
    """Run the Cauchy scan on h; return (truncation_n, certified_tol, increments).

    The push is kept from one n to the next; the pull is redone for each n.
    """
    push, pull = h.push_pull()
    tol = h.tol
    grid = cell_grid(CERT_GRID_N)
    n_min = _min_horizon(h.sp, h.kind, h.s_from, h.s_to, tol, n_max)
    ups = grid.copy()
    h_prev = grid.copy()
    increments: list[float] = []
    for n in range(1, n_max + 1):
        ups = push(h.from_pts[n - 1], ups)
        v = ups
        for k in range(n - 1, -1, -1):
            v = pull(h.to_pts[k], v)
        increments.append(float(np.max(torus_dist(v, h_prev))))
        h_prev = v
        if (n >= n_min + _LOOKAHEAD
                and all(d < tol / 2 for d in increments[-_LOOKAHEAD:])):
            break
        if n >= max(60, n_min + 20) and min(increments[-10:]) > 1e-4:
            raise NoConvergence(
                f"{h.kind} holonomy increments not decaying after {n} compositions "
                "(domination failure)")
    else:
        raise NoConvergence(
            f"{h.kind} holonomy failed its Cauchy certificate within {n_max} compositions")
    trunc = 0
    for k, d in enumerate(increments, start=1):
        if d >= tol / 2:
            trunc = k
    certified = max(increments[trunc:], default=0.0)
    return trunc, certified, tuple(increments)


def make_holonomy(sp: SkewProduct, kind: str, anchor, s_from: float, s_to: float,
                  tol: float = DEFAULT_TOL, n_max: int = N_MAX_COMPOSITIONS) -> HolonomyMap:
    """Certified holonomy between anchor + s_from*e and anchor + s_to*e.

    Both base orbits ride one anchor orbit plus the offsets s * rate^k, stored
    for n_max + 1 compositions (one past the longest Cauchy scan); unstable
    compositions start one backward step off the anchor.
    """
    anchor = tuple(np.asarray(anchor, float).reshape(2))
    a = sp.base
    start = 0 if kind == "stable" else 1
    anchors = a.orbit(np.asarray(anchor), n_max + start, forward=kind == "stable")[start:]
    scales = a.contraction_rate(kind) ** np.arange(start, n_max + 1 + start)
    e = a.eigen_direction(kind)
    h = HolonomyMap(sp=sp, kind=kind, anchor=anchor, s_from=s_from, s_to=s_to,
                    truncation_n=0, certified_tol=np.inf, tol=tol,
                    from_pts=mod1(anchors + np.multiply.outer(s_from * scales, e)),
                    to_pts=mod1(anchors + np.multiply.outer(s_to * scales, e)))
    trunc, certified, increments = _certify(h, n_max)
    return replace(h, truncation_n=trunc, certified_tol=certified,
                   increments=increments)


def _leaf_offset(sp: SkewProduct, kind: str, x, y) -> float:
    s, resid = leaf_coordinate(sp.base, kind, x, y)
    if resid > LEAF_RESIDUAL_TOL:
        raise BrokenPath(
            f"point {tuple(np.round(lift(y), 12))} not on the {kind} leaf of "
            f"{tuple(np.round(lift(x), 12))} (residual {resid:.3e})")
    return s


def stable_holonomy(sp: SkewProduct, x, y, tol: float = DEFAULT_TOL,
                    n_max: int = N_MAX_COMPOSITIONS) -> HolonomyMap:
    """Holonomy from fiber(x) to fiber(y) for y on the stable leaf of x."""
    s = _leaf_offset(sp, "stable", x, y)
    return make_holonomy(sp, "stable", lift(x), 0.0, s, tol, n_max)


def unstable_holonomy(sp: SkewProduct, x, y, tol: float = DEFAULT_TOL,
                      n_max: int = N_MAX_COMPOSITIONS) -> HolonomyMap:
    """Mirror of stable_holonomy along backward iterates."""
    s = _leaf_offset(sp, "unstable", x, y)
    return make_holonomy(sp, "unstable", lift(x), 0.0, s, tol, n_max)


@dataclass(frozen=True)
class SuLeg:
    kind: str
    from_point: TorusPoint
    to_point: TorusPoint


@dataclass(frozen=True)
class SuPath:
    """Chain of stable/unstable legs; consecutive legs share endpoints."""

    legs: tuple[SuLeg, ...]


@dataclass(frozen=True)
class PathHolonomy:
    """Ordered composition of leg holonomies along an su-path."""

    maps: tuple[HolonomyMap, ...]

    def __call__(self, ys):
        v = mod1(np.asarray(ys, dtype=float))
        for h in self.maps:
            v = h(v)
        return v

    def inverse(self, ys):
        v = mod1(np.asarray(ys, dtype=float))
        for h in reversed(self.maps):
            v = h.inverse_map()(v)
        return v

    @property
    def certified_tol(self) -> float:
        return float(sum(h.certified_tol for h in self.maps))


def project_su(sp: SkewProduct, path: SuPath, tol: float = DEFAULT_TOL,
               anchors: tuple | None = None) -> PathHolonomy:
    """Compose leg holonomies along a multi-leg su-path.

    Each leg is validated for leaf membership and chaining; an optional
    per-leg anchor list overrides the default anchor (the leg's own start),
    which matters when several legs should share one exactly-iterable orbit.
    """
    maps = []
    for i, leg in enumerate(path.legs):
        if leg.kind not in ("stable", "unstable"):
            raise BrokenPath(f"leg {i} has unknown kind {leg.kind!r}")
        if i > 0 and torus_dist(path.legs[i - 1].to_point, leg.from_point) > 1e-9:
            raise BrokenPath(f"legs {i - 1} and {i} do not chain")
        anchor = lift(leg.from_point) if anchors is None else np.asarray(anchors[i], float)
        s_from = _leaf_offset(sp, leg.kind, anchor, leg.from_point)
        s_to = _leaf_offset(sp, leg.kind, anchor, leg.to_point)
        maps.append(make_holonomy(sp, leg.kind, anchor, s_from, s_to, tol=tol))
    return PathHolonomy(maps=tuple(maps))
