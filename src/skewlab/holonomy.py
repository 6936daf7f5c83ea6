"""Stable and unstable fiber holonomies as certified finite composition limits.

For a skew product F(x, y) = (Ax, g_x(y)) and y0 on the stable leaf of x0, the
holonomy from fiber(x0) to fiber(y0) is the C^0 limit of

    H_n = (g^(n) over y0)^{-1} o (g^(n) over x0),

certified by a Cauchy test on a fiber grid, or on exact step lengths for a
translation family, whose H_n is one translation.  A push or pull over a
quiet base point (g is the identity there, bitwise) is skipped; where both
base points of step n are quiet, H_n equals H_{n-1} bitwise.  Both base
orbits are derived from a single *anchor* orbit plus analytic leaf offsets
s * rate^k along the eigendirection: iterating the two base points
independently in floating point would inject noise growing like lambda_u^n
and destroy the limit.  All the correctness oracles (equivariance, composition, inverse,
shadowing) are stated against this evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .anosov import LEAF_RESIDUAL_TOL, leaf_coordinate
from .errors import BrokenPath, NoConvergence
from .fiber import SkewProduct, run_steps
from .torus import cell_grid, lift, mod1, torus_dist

DEFAULT_TOL = 1e-10
N_MAX_COMPOSITIONS = 200
CERT_GRID_N = 32
_LOOKAHEAD = 6


@dataclass(frozen=True)
class HolonomyMap:
    """Certified truncation of a stable/unstable holonomy between two fibers.

    The two base points are anchor + s_from * e and anchor + s_to * e on a
    common leaf; from_pts/to_pts hold their anchored orbits in visiting order,
    so composition k steps over index k for either kind.  loud marks the
    steps where from_pts[k] or to_pts[k] is not quiet for the family
    (_loud_steps), the ones whose Cauchy increment is measured; with None
    every increment is.
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
    loud: np.ndarray | None = field(repr=False, compare=False, default=None)

    def push_pull(self):
        """Fiber steps: push along the from-orbit, pull back over the to-orbit."""
        fam = self.sp.family
        return (fam.apply, fam.inverse) if self.kind == "stable" else (fam.inverse, fam.apply)

    def steps(self, n: int | None = None):
        """The steps of H_n (n = truncation_n by default) in acting order:
        base points (S, 2) and, per step, True where it is family.inverse.
        The pushes along from_pts come first, then the pulls back over
        to_pts.  Each step whose own base point family.quiet marks is
        dropped: a quiet g_x returns every wrapped point bitwise."""
        n = self.truncation_n if n is None else n
        points = np.concatenate([self.from_pts[:n], self.to_pts[:n][::-1]])
        inverse = np.repeat([self.kind == "unstable", self.kind == "stable"], n)
        quiet = self.sp.family.quiet(points)
        keep = slice(None) if quiet is None else ~quiet
        return points[keep], inverse[keep]

    def _translation_steps(self, n: int):
        """The n per-composition translations of a translation family, or None.

        Over g_x(y) = y + tau(x), composition k moves every fiber point by
        tau(from_k) - tau(to_k) on a stable leg and by its negative on an
        unstable one.
        """
        fam = self.sp.family
        tau_from = fam.translation(self.from_pts[:n])
        if tau_from is None:
            return None
        steps = tau_from - fam.translation(self.to_pts[:n])
        return steps if self.kind == "stable" else -steps

    def __call__(self, ys):
        return self.evaluate_at(ys, self.truncation_n)

    def evaluate_at(self, ys, n: int):
        """H_n(ys) for 0 <= n <= len(from_pts); ValueError for any other n.
        Over any family but a translation family, steps(n) are one run_steps row."""
        if not 0 <= n <= len(self.from_pts):
            raise ValueError(f"truncation {n} outside 0..{len(self.from_pts)}")
        v = mod1(np.asarray(ys, dtype=float))
        steps = self._translation_steps(n)
        if steps is not None:
            return mod1(v + steps.sum(axis=0))
        points, inverse = self.steps(n)
        states = v.reshape(1, -1, 2)
        run_steps(self.sp.family, np.zeros(len(points), dtype=int), points, inverse, states)
        return states.reshape(v.shape)

    def inverse_map(self) -> "HolonomyMap":
        """The reverse holonomy (same anchor, endpoints and orbits swapped).

        The loud mask is symmetric in the two orbits, so it carries over.
        """
        return replace(self, s_from=self.s_to, s_to=self.s_from,
                       from_pts=self.to_pts, to_pts=self.from_pts)


_TAIL_SAFETY = 100.0


def _min_horizon(sp: SkewProduct, kind: str, s_from: float, s_to: float,
                 tol: float, n_max: int) -> int:
    """A lower bound on the Cauchy scan's length, taken from the base
    contraction with a safety factor.

    It is the smallest n with _TAIL_SAFETY * base_lipschitz * |s_from - s_to|
    * rate^n <= tol/2, at most n_max - _LOOKAHEAD.  The term has no factor
    for the growth of the fiber maps along the composition, so it bounds
    nothing about step n's contribution; it only keeps a family that has not
    yet shown an increment from stopping the scan before this horizon.
    """
    scale = sp.family.base_lipschitz() * abs(s_from - s_to) * _TAIL_SAFETY
    if scale == 0.0:
        return 0
    lam = abs(sp.base.contraction_rate(kind))
    if tol / 2 >= scale:
        return 0
    n = int(np.ceil(np.log((tol / 2) / scale) / np.log(lam)))
    return min(max(n, 0), n_max - _LOOKAHEAD)


def _loud_steps(family, from_pts, to_pts):
    """Bool mask of the steps where from_pts[k] or to_pts[k] is not quiet for
    the family, or None when the family cannot say."""
    quiet_from = family.quiet(from_pts)
    if quiet_from is None:
        return None
    return ~(quiet_from & family.quiet(to_pts))


def _increments(h: HolonomyMap, n_max: int):
    """Yield the Cauchy increment sup_y d(H_n(y), H_{n-1}(y)) for n = 1..n_max.

    A translation family moves every fiber point by the same step, so its
    increments are the exact step lengths.  A quiet step leaves H_n equal to
    H_{n-1} bitwise, so its increment is exactly 0.0 at every fiber point.
    A loud step of any other family is sampled on a CERT_GRID_N^2 fiber grid;
    the push is kept from one n to the next and the pull through the loud
    steps so far is redone for each n.
    """
    steps = h._translation_steps(n_max)
    if steps is not None:
        yield from torus_dist(steps, 0.0).tolist()
        return
    push, pull = h.push_pull()
    grid = cell_grid(CERT_GRID_N)
    ups = grid.copy()
    h_prev = grid.copy()
    loud = h.loud
    pulled: list[int] = []
    for k in range(n_max):
        if loud is not None and not loud[k]:
            yield 0.0
            continue
        ups = push(h.from_pts[k], ups)
        pulled.append(k)
        v = ups
        for j in reversed(pulled):
            v = pull(h.to_pts[j], v)
        yield float(np.max(torus_dist(v, h_prev)))
        h_prev = v


def _certify(h: HolonomyMap, n_max: int):
    """Run the Cauchy scan on h; return (truncation_n, certified_tol, increments).

    The scan stops once _LOOKAHEAD consecutive increments past the analytic
    horizon are below tol/2.  For a translation family the increments are the
    exact step lengths, and at a quiet step they are exactly 0.0, both valid
    at every fiber point; at the loud steps of any other family they are
    maxima over the fiber grid.
    """
    tol = h.tol
    n_min = _min_horizon(h.sp, h.kind, h.s_from, h.s_to, tol, n_max)
    increments: list[float] = []
    for n, inc in enumerate(_increments(h, n_max), start=1):
        increments.append(inc)
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


def _check_kind(kind: str) -> None:
    if kind not in ("stable", "unstable"):
        raise ValueError(f"holonomy kind must be 'stable' or 'unstable', not {kind!r}")


def make_holonomy(sp: SkewProduct, kind: str, anchor, s_from: float, s_to: float,
                  tol: float = DEFAULT_TOL, n_max: int = N_MAX_COMPOSITIONS) -> HolonomyMap:
    """Certified holonomy between anchor + s_from*e and anchor + s_to*e.

    Both base orbits ride one anchor orbit plus the offsets s * rate^k, stored
    for n_max + 1 compositions (one past the longest Cauchy scan); unstable
    compositions start one backward step off the anchor.
    """
    _check_kind(kind)
    anchor = tuple(np.asarray(anchor, float).reshape(2))
    a = sp.base
    start = 0 if kind == "stable" else 1
    anchors = a.orbit(np.asarray(anchor), n_max + start, forward=kind == "stable")[start:]
    scales = a.contraction_rate(kind) ** np.arange(start, n_max + 1 + start)
    e = a.eigen_direction(kind)
    from_pts = mod1(anchors + np.multiply.outer(s_from * scales, e))
    to_pts = mod1(anchors + np.multiply.outer(s_to * scales, e))
    h = HolonomyMap(sp=sp, kind=kind, anchor=anchor, s_from=s_from, s_to=s_to,
                    truncation_n=0, certified_tol=np.inf, tol=tol,
                    from_pts=from_pts, to_pts=to_pts,
                    loud=_loud_steps(sp.family, from_pts, to_pts))
    trunc, certified, increments = _certify(h, n_max)
    return replace(h, truncation_n=trunc, certified_tol=certified,
                   increments=increments)


def leaf_holonomy(sp: SkewProduct, kind: str, x, y, tol: float = DEFAULT_TOL,
                  n_max: int = N_MAX_COMPOSITIONS) -> HolonomyMap:
    """Holonomy from fiber(x) to fiber(y) for y on the `kind` leaf of x."""
    _check_kind(kind)
    s, resid = leaf_coordinate(sp.base, kind, x, y)
    if resid > LEAF_RESIDUAL_TOL:
        raise BrokenPath(
            f"point {tuple(np.round(lift(y), 12))} not on the {kind} leaf of "
            f"{tuple(np.round(lift(x), 12))} (residual {resid:.3e})")
    return make_holonomy(sp, kind, lift(x), 0.0, s, tol, n_max)

