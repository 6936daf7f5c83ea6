"""Linear Anosov base dynamics on the 2-torus.

Eigenstructure of hyperbolic integer matrices, local stable/unstable leaf
segments, the local product structure bracket, exact rational periodic-point
search, and the heteroclinic quadrilateral (two periodic points joined to a
base point by alternating stable/unstable legs, with certified separation of
the neighborhoods used later for perturbation supports).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguousBranch, ConstructionFailed, NotAnosov, NotFound
from .torus import TorusPoint, lift, mod1, points_equal, torus_dist, wrap, wrapped_diff

EIGEN_RESIDUAL_TOL = 1e-12
LEAF_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinearAnosov:
    """Hyperbolic 2x2 integer torus automorphism with eigen-data.

    lambda_u and lambda_s are the signed eigenvalues (|lambda_u| > 1 >
    |lambda_s|, lambda_u * lambda_s = det); e_u, e_s are unit eigenvectors
    with a fixed sign convention for determinism.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    lambda_u: float
    lambda_s: float
    e_u: np.ndarray
    e_s: np.ndarray

    @property
    def det(self) -> int:
        m = self.matrix
        return int(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def apply(self, points):
        """Base map on wrapped points; broadcasts over (..., 2)."""
        pts = np.asarray(points, dtype=float)
        return mod1(pts @ self.matrix.T)

    def apply_inverse(self, points):
        pts = np.asarray(points, dtype=float)
        return mod1(pts @ self.inverse.T)

    def orbit(self, point, n: int, forward: bool = True) -> np.ndarray:
        """(n+1, 2) array: point, f(point), ..., f^{±n}(point)."""
        out = np.empty((n + 1, 2))
        out[0] = np.asarray(point, dtype=float).reshape(2)
        step = self.apply if forward else self.apply_inverse
        for k in range(n):
            out[k + 1] = step(out[k])
        return out

    def eigen_direction(self, kind: str) -> np.ndarray:
        return self.e_s if kind == "stable" else self.e_u

    def contraction_rate(self, kind: str) -> float:
        """Signed per-step factor of leaf coordinates under the natural iteration
        direction (forward for stable, backward for unstable)."""
        return self.lambda_s if kind == "stable" else 1.0 / self.lambda_u


def _unit_with_sign(vec: np.ndarray) -> np.ndarray:
    v = vec / math.hypot(vec[0], vec[1])
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = -v
    return v


def make_anosov(matrix) -> LinearAnosov:
    """Build a LinearAnosov from a 2x2 integer matrix.

    Raises NotAnosov unless |det| = 1 and |trace| > 2.
    """
    m = np.asarray(matrix)
    if m.shape != (2, 2):
        raise NotAnosov("matrix must be 2x2")
    if not np.all(m == np.round(m)):
        raise NotAnosov("matrix entries must be integers")
    m = m.astype(np.int64)
    a, b, c, d = int(m[0, 0]), int(m[0, 1]), int(m[1, 0]), int(m[1, 1])
    det = a * d - b * c
    tr = a + d
    if abs(det) != 1:
        raise NotAnosov(f"|det| = {abs(det)} != 1")
    if abs(tr) <= 2:
        raise NotAnosov(f"|trace| = {abs(tr)} <= 2 (not hyperbolic)")
    disc = math.sqrt(tr * tr - 4 * det)
    lam_a = (tr + disc) / 2.0
    lam_b = (tr - disc) / 2.0
    lam_u, lam_s = (lam_a, lam_b) if abs(lam_a) > abs(lam_b) else (lam_b, lam_a)
    # b != 0 whenever |trace| > 2 and |det| = 1, so (b, lam - a) spans the eigenline
    e_u = _unit_with_sign(np.array([b, lam_u - a], dtype=float))
    e_s = _unit_with_sign(np.array([b, lam_s - a], dtype=float))
    inv = np.array([[d, -b], [-c, a]], dtype=np.int64) * det
    ano = LinearAnosov(matrix=m, inverse=inv, lambda_u=lam_u, lambda_s=lam_s, e_u=e_u, e_s=e_s)
    for lam, e in ((lam_u, e_u), (lam_s, e_s)):
        resid = np.linalg.norm(m.astype(float) @ e - lam * e)
        if resid > EIGEN_RESIDUAL_TOL:
            raise NotAnosov(f"eigen residual {resid:.3e} exceeds {EIGEN_RESIDUAL_TOL}")
    return ano


@dataclass(frozen=True)
class LeafSegment:
    """Segment of a stable or unstable leaf: t -> wrap(lift(base) + t*direction)."""

    base: TorusPoint
    kind: str  # "stable" | "unstable"
    half_length: float
    direction: np.ndarray

    def point_at(self, t):
        t = np.asarray(t, dtype=float)
        return mod1(lift(self.base) + np.multiply.outer(t, self.direction))

    def contains(self, point, tol: float = LEAF_RESIDUAL_TOL):
        """(membership, leaf coordinate, transverse residual)."""
        d = wrapped_diff(point, self.base)
        t = float(d @ self.direction)
        resid = float(np.linalg.norm(d - t * self.direction))
        return (resid < tol and abs(t) <= self.half_length + tol), t, resid


def leaf(a: LinearAnosov, x, kind: str, half_length: float) -> LeafSegment:
    """Local leaf segment through x in the stable or unstable eigendirection."""
    if kind not in ("stable", "unstable"):
        raise ValueError("kind must be 'stable' or 'unstable'")
    if not (0 < half_length < 0.5):
        raise ValueError("half_length must lie in (0, 1/2) for a local leaf")
    return LeafSegment(base=wrap(x), kind=kind, half_length=half_length,
                       direction=a.eigen_direction(kind))


def leaf_coordinate(a: LinearAnosov, kind: str, from_point, to_point):
    """Leaf coordinate of to_point relative to from_point and transverse residual."""
    e = a.eigen_direction(kind)
    d = wrapped_diff(to_point, from_point)
    s = float(d @ e)
    resid = float(np.linalg.norm(d - s * e))
    return s, resid


def bracket(a: LinearAnosov, x, y) -> TorusPoint:
    """Unique local intersection W^s_loc(x) ∩ W^u_loc(y).

    Solves q = x + s e_s = y + u e_u in the lift with minimal |s|, |u|.
    Requires torus_dist(x, y) < 1/4 to pin the local branch.
    """
    if torus_dist(x, y) >= 0.25:
        raise AmbiguousBranch("points too far apart for a unique local bracket")
    d = wrapped_diff(y, x)
    mat = np.column_stack([a.e_s, -a.e_u])
    s, u = np.linalg.solve(mat, d)
    q = wrap(lift(x) + s * a.e_s)
    _, resid = leaf_coordinate(a, "unstable", y, q)
    if resid > 1e-12:
        raise AmbiguousBranch(f"bracket residual {resid:.3e}")
    return q


def _exact_orbit(matrix: np.ndarray, p: tuple[Fraction, Fraction]):
    """Exact rational orbit of p under the integer matrix mod 1, one full period."""
    m = [[int(matrix[0, 0]), int(matrix[0, 1])], [int(matrix[1, 0]), int(matrix[1, 1])]]
    orbit = [p]
    cur = p
    cap = p[0].denominator * p[1].denominator
    cap = max(cap, p[0].denominator) ** 2 + 2
    for _ in range(cap):
        cur = ((m[0][0] * cur[0] + m[0][1] * cur[1]) % 1,
               (m[1][0] * cur[0] + m[1][1] * cur[1]) % 1)
        if cur == p:
            return orbit
        orbit.append(cur)
    raise RuntimeError("rational point failed to return; invariant violated")


def exact_period(a: LinearAnosov, p: tuple[Fraction, Fraction]) -> int:
    """Minimal period of an exact rational point under the base matrix mod 1."""
    return len(_exact_orbit(a.matrix, p))


def _rational_candidates(target, max_denominator: int, radius: float):
    """Rational points (i/q, j/q), q <= Q, within radius of target, best first."""
    t = lift(target)
    found = []
    seen = set()
    for q in range(1, max_denominator + 1):
        i_lo = math.floor((t[0] - radius) * q)
        i_hi = math.ceil((t[0] + radius) * q)
        j_lo = math.floor((t[1] - radius) * q)
        j_hi = math.ceil((t[1] + radius) * q)
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                fu, fv = Fraction(i, q) % 1, Fraction(j, q) % 1
                if (fu.denominator != q and fv.denominator != q) or (fu, fv) in seen:
                    continue  # belongs to a smaller denominator already visited
                seen.add((fu, fv))
                dist = float(torus_dist((float(fu), float(fv)), t))
                if dist <= radius:
                    found.append((dist, q, fu, fv))
    found.sort(key=lambda rec: (rec[0], rec[1], rec[2], rec[3]))
    return found


def find_periodic_near(a: LinearAnosov, target, max_denominator: int, radius: float):
    """Nearest rational periodic point within radius and its exact minimal period."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    cands = _rational_candidates(target, max_denominator, radius)
    if not cands:
        raise NotFound(
            f"no rational point with denominator <= {max_denominator} within {radius}")
    _, _, fu, fv = cands[0]
    period = exact_period(a, (fu, fv))
    return wrap((float(fu), float(fv))), period


def _segment_point_dist(points, centers, direction, half_lengths):
    """Torus distances from points (P, 2) to segments (S, 2)/(S,): (S, P) array."""
    pts = np.asarray(points, float).reshape(-1, 2)
    ctr = np.asarray(centers, float).reshape(-1, 2)
    hl = np.asarray(half_lengths, float).reshape(-1, 1)
    d = wrapped_diff(pts[None, :, :], ctr[:, None, :])  # (S, P, 2)
    best = None
    # the segment may wind past the fundamental domain; check the 9 translates
    for du in (-1.0, 0.0, 1.0):
        for dv in (-1.0, 0.0, 1.0):
            off = d + np.array([du, dv])
            t = np.clip(off @ direction, -hl, hl)
            perp = off - t[..., None] * direction
            dist = np.hypot(perp[..., 0], perp[..., 1])
            best = dist if best is None else np.minimum(best, dist)
    return best


@dataclass(frozen=True)
class HeteroclinicQuad:
    """Base points of the 4-legged loops x ->(s) w_i ->(u) p_i ->(s) z_i ->(u) x.

    Carries the realized leaf coordinates of each leg, per-ball radii around
    w_1, w_2, the exact periodic orbits of p_1, p_2, and the separation data
    certified by validate_quad.
    """

    x: TorusPoint
    p1: TorusPoint
    p2: TorusPoint
    k1: int
    k2: int
    w1: TorusPoint
    w2: TorusPoint
    z1: TorusPoint
    z2: TorusPoint
    U1_radius: float
    U2_radius: float
    n_check: int
    s_w: tuple[float, float]    # stable coordinate of w_i from x
    u_w: tuple[float, float]    # unstable coordinate of w_i from p_i
    u_z: tuple[float, float]    # unstable coordinate of z_i from x
    s_z: tuple[float, float]    # stable coordinate of z_i from p_i
    p1_orbit: np.ndarray
    p2_orbit: np.ndarray
    x_period: int | None        # exact period of x when x is periodic, else None
    tail_certified: bool

    def loop_points(self, i: int):
        if i == 1:
            return self.p1, self.w1, self.z1
        if i == 2:
            return self.p2, self.w2, self.z2
        raise ValueError("loop index must be 1 or 2")

    def ball_radius(self, i: int) -> float:
        return self.U1_radius if i == 1 else self.U2_radius


def _leg_lengths(quad: HeteroclinicQuad):
    margin = 1.3
    eps0_s = margin * max(abs(quad.s_w[0]), abs(quad.s_w[1]))
    eps0_u = margin * max(abs(quad.u_z[0]), abs(quad.u_z[1]))
    eps_u = tuple(margin * abs(u) for u in quad.u_w)
    eps_s = tuple(margin * abs(s) for s in quad.s_z)
    return eps0_s, eps0_u, eps_u, eps_s


def _shrink(length: float, lam_u: float, ns: np.ndarray) -> np.ndarray:
    """length / lam_u**n; where lam_u**n passes the float range it is inf and
    the length 0, which is its value to within 1e-308."""
    with np.errstate(over="ignore"):
        return length / lam_u ** ns


def validate_quad(a: LinearAnosov, quad: HeteroclinicQuad):
    """Check all HeteroclinicQuad invariants; raise ConstructionFailed on violation.

    Leg residuals, stored leaf coordinates (loop maps build their legs from
    these alone, so each must equal its endpoints' coordinate exactly), ball
    disjointness/exclusions, the n <= n_check separation scan (shrinking
    stable/unstable segments through the x and p_i orbits), and the
    orbit-point tail margin where certifiable.
    """
    problems = []
    for i in (1, 2):
        p, w, z = quad.loop_points(i)
        k = i - 1
        for kind, frm, to, stored in (("stable", quad.x, w, quad.s_w[k]),
                                      ("unstable", p, w, quad.u_w[k]),
                                      ("unstable", quad.x, z, quad.u_z[k]),
                                      ("stable", p, z, quad.s_z[k])):
            s, resid = leaf_coordinate(a, kind, frm, to)
            if resid > LEAF_RESIDUAL_TOL:
                problems.append(f"leg {kind} {frm}->{to} residual {resid:.2e}")
            if s != stored:
                problems.append(f"leg {kind} {frm}->{to} stores {stored!r}, not {s!r}")
    if points_equal(quad.p1, quad.p2, tol=1e-9):
        problems.append("p1 and p2 coincide")
    r1, r2 = quad.U1_radius, quad.U2_radius
    if torus_dist(quad.w1, quad.w2) <= r1 + r2:
        problems.append("balls B(w1), B(w2) not disjoint")
    excluded = [quad.x, quad.p1, quad.p2, quad.z1, quad.z2]
    for i, (w, r) in enumerate(((quad.w1, r1), (quad.w2, r2)), start=1):
        for pt in excluded:
            if torus_dist(w, pt) <= r:
                problems.append(f"ball around w{i} contains excluded point {pt}")
    if problems:
        raise ConstructionFailed("; ".join(problems))

    eps0_s, eps0_u, eps_u, eps_s = _leg_lengths(quad)
    lam_s, lam_u = abs(a.lambda_s), abs(a.lambda_u)
    n_chk = quad.n_check
    balls = np.array([lift(quad.w1), lift(quad.w2)])
    radii = np.array([r1, r2])
    tail = lam_s ** n_chk * max(eps0_s, eps0_u, *eps_u, *eps_s)

    def check_segments(centers, direction, half_lengths, label):
        dists = _segment_point_dist(balls, centers, direction, half_lengths)  # (S, 2)
        bad = dists <= radii[None, :]
        for s_idx, i in zip(*np.nonzero(bad)):
            problems.append(
                f"{label}: segment {s_idx} meets ball {i + 1} "
                f"(dist {dists[s_idx, i]:.3e} <= {radii[i]:.3e})")

    # item 4: forward images of the stable segment through x, n = 1..n_check
    x_fwd = a.orbit(quad.x, n_chk, forward=True)
    check_segments(x_fwd[1:], a.e_s, eps0_s * lam_s ** np.arange(1, n_chk + 1), "item4")
    # item 7: backward images of the unstable segment through x, n = 0..n_check
    x_bwd = a.orbit(quad.x, n_chk, forward=False)
    check_segments(x_bwd, a.e_u, _shrink(eps0_u, lam_u, np.arange(0, n_chk + 1)), "item7")
    for j, (orbit, e_u_len, e_s_len) in enumerate(
            ((quad.p1_orbit, eps_u[0], eps_s[0]), (quad.p2_orbit, eps_u[1], eps_s[1])),
            start=1):
        period = len(orbit)
        # item 5: backward images of the unstable segment through the p_j orbit, n >= 1
        ns = np.arange(1, n_chk + 1)
        centers5 = orbit[(-ns) % period]
        check_segments(centers5, a.e_u, _shrink(e_u_len, lam_u, ns), f"item5(p{j})")
        # item 6: forward images of the stable segment through the p_j orbit, n >= 0
        ns0 = np.arange(0, n_chk + 1)
        centers6 = orbit[ns0 % period]
        check_segments(centers6, a.e_s, e_s_len * lam_s ** ns0, f"item6(p{j})")
        # tail: beyond n_check the segments collapse onto the finite orbit
        d = torus_dist(balls[None, :, :], orbit[:, None, :])
        if np.any(d <= radii[None, :] + tail):
            problems.append(f"tail margin: p{j} orbit approaches a ball")
    if quad.x_period is not None:
        x_orbit = a.orbit(quad.x, quad.x_period - 1, forward=True)
        d = torus_dist(balls[None, :, :], x_orbit[:, None, :])
        if np.any(d <= radii[None, :] + tail):
            problems.append("tail margin: x orbit approaches a ball")
    if problems:
        raise ConstructionFailed("; ".join(problems))


def _detect_exact_period(a: LinearAnosov, x, max_denominator: int):
    xf = lift(x)
    fu = Fraction(xf[0]).limit_denominator(max_denominator)
    fv = Fraction(xf[1]).limit_denominator(max_denominator)
    if abs(float(fu) - xf[0]) < 1e-13 and abs(float(fv) - xf[1]) < 1e-13:
        return exact_period(a, (fu, fv))
    return None


def build_quad(a: LinearAnosov, x, search_radius: float, max_denominator: int,
               n_check: int = 50) -> HeteroclinicQuad:
    """Construct a certified HeteroclinicQuad around x.

    Finds two distinct rational periodic points near x, closes the four
    alternating legs by exact linear solves in the lift, then shrinks the
    balls around w_1, w_2 until the separation scan passes.
    """
    if search_radius <= 0:
        raise ConstructionFailed("search_radius must be positive")
    x = wrap(x)
    reach = min(search_radius, 0.2)  # bracket needs dist < 1/4 with margin
    cands = [rec for rec in _rational_candidates(x, max_denominator, reach)
             if rec[0] > 1e-9]
    if len(cands) < 2:
        raise ConstructionFailed(
            f"need two periodic candidates within {reach}, found {len(cands)}")
    x_period = _detect_exact_period(a, x, max_denominator)
    failures = []
    def leg_scale(rec):
        d = wrapped_diff((float(rec[2]), float(rec[3])), x)
        return min(abs(float(d @ a.e_u)), abs(float(d @ a.e_s)))

    geometries = []
    for rec1, rec2 in itertools.combinations(cands[:14], 2):
        if min(leg_scale(rec1), leg_scale(rec2)) < 1e-6:
            continue  # p_i nearly on a leaf of x: a leg would collapse
        try:
            geometries.append(_quad_geometry(a, x, rec1, rec2))
        except (ConstructionFailed, AmbiguousBranch) as exc:
            failures.append(str(exc)[:160])
    geometries.sort(key=lambda g: -min(g["radii"]))
    best = None
    for geo in geometries:
        if best is not None and min(geo["radii"]) <= best[0]:
            break  # validation only shrinks radii; no later pair can win
        try:
            quad = _validated_quad(a, x, geo, n_check, x_period)
        except ConstructionFailed as exc:
            failures.append(str(exc)[:160])
            continue
        score = min(quad.U1_radius, quad.U2_radius)
        if best is None or score > best[0]:
            best = (score, quad)
    if best is not None:
        return best[1]
    raise ConstructionFailed(
        "no candidate pair satisfied the separation scan; tried "
        f"{len(failures)} pairs: {failures[:3]}")


def _quad_geometry(a, x, rec1, rec2) -> dict:
    """Heteroclinic points, leaf coordinates and initial ball radii for a pair."""
    out = {}
    for i, rec in ((1, rec1), (2, rec2)):
        _, q, fu, fv = rec
        p = wrap((float(fu), float(fv)))
        orbit_fr = _exact_orbit(a.matrix, (fu, fv))
        w = bracket(a, x, p)
        z = bracket(a, p, x)
        out[i] = dict(p=p, period=len(orbit_fr), w=w, z=z,
                      orbit=np.array([[float(ou), float(ov)] for ou, ov in orbit_fr]))
    s_w, u_w, u_z, s_z = [], [], [], []
    for i in (1, 2):
        s, _ = leaf_coordinate(a, "stable", x, out[i]["w"])
        s_w.append(s)
        u, _ = leaf_coordinate(a, "unstable", out[i]["p"], out[i]["w"])
        u_w.append(u)
        uz, _ = leaf_coordinate(a, "unstable", x, out[i]["z"])
        u_z.append(uz)
        sz, _ = leaf_coordinate(a, "stable", out[i]["p"], out[i]["z"])
        s_z.append(sz)

    special = [lift(x), lift(out[1]["p"]), lift(out[2]["p"]),
               lift(out[1]["z"]), lift(out[2]["z"])]
    radii = []
    for i in (1, 2):
        w = lift(out[i]["w"])
        other = lift(out[2 if i == 1 else 1]["w"])
        nearest = min(float(torus_dist(w, pt)) for pt in special)
        nearest = min(nearest, float(torus_dist(w, other)) / 2.0)
        radii.append(0.45 * nearest)
    return dict(points=out, s_w=tuple(s_w), u_w=tuple(u_w), u_z=tuple(u_z),
                s_z=tuple(s_z), radii=radii)


def _validated_quad(a, x, geo, n_check, x_period) -> HeteroclinicQuad:
    out = geo["points"]
    radii = list(geo["radii"])
    last_exc = None
    for _ in range(7):
        quad = HeteroclinicQuad(
            x=x, p1=out[1]["p"], p2=out[2]["p"], k1=out[1]["period"], k2=out[2]["period"],
            w1=out[1]["w"], w2=out[2]["w"], z1=out[1]["z"], z2=out[2]["z"],
            U1_radius=radii[0], U2_radius=radii[1], n_check=n_check,
            s_w=geo["s_w"], u_w=geo["u_w"], u_z=geo["u_z"], s_z=geo["s_z"],
            p1_orbit=out[1]["orbit"], p2_orbit=out[2]["orbit"],
            x_period=x_period, tail_certified=x_period is not None)
        try:
            validate_quad(a, quad)
            return quad
        except ConstructionFailed as exc:
            last_exc = exc
            radii = [r / 2.0 for r in radii]
            if min(radii) < 1e-4:
                break
    raise ConstructionFailed(f"separation scan unsatisfiable: {last_exc}")
