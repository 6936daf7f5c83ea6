"""Linear Anosov base dynamics on the 2-torus.

Eigenstructure of hyperbolic integer matrices, leaf coordinates along the
stable/unstable directions, the local product structure bracket, exact
rational periodic-point search, and the heteroclinic quadrilateral (two periodic points joined to a
base point by alternating stable/unstable legs, with certified separation of
the neighborhoods used later for perturbation supports).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguousBranch, ConstructionFailed, NotAnosov
from .torus import TorusPoint, lift, mod1, torus_dist, wrap, wrapped_diff

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

    def apply(self, points):
        """Base map on wrapped points; broadcasts over (..., 2)."""
        pts = np.asarray(points, dtype=float)
        return mod1(pts @ self.matrix.T)

    def orbit(self, points, n: int, forward: bool = True) -> np.ndarray:
        """(n+1, ..., 2) array: points, f(points), ..., f^{±n}(points) for a
        batch of shape (..., 2).

        Each step is apply's matmul (by the inverse matrix backward),
        x - floor(x) and seam fold, written into one preallocated array; a
        finite input stays finite under an integer matrix mod 1, so the finite
        check runs on the input and on the result only.
        """
        pts = np.asarray(points, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite input to orbit")
        mat = (self.matrix if forward else self.inverse).T
        out = np.empty((n + 1,) + pts.shape)
        out[0] = pts
        for k in range(n):
            nxt = out[k + 1]
            np.matmul(out[k], mat, out=nxt)
            np.subtract(nxt, np.floor(nxt), out=nxt)
            nxt[nxt >= 1.0] = 0.0
        if not np.all(np.isfinite(out)):
            raise ValueError("non-finite orbit")
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
    """Exact rational orbit of p under the integer matrix mod 1, one full period.

    Iterates the integer numerators of p over the common denominator q of its
    coordinates: (a/q, b/q) maps to ((m00 a + m01 b) mod q / q, ...), exact
    integer arithmetic equal to the Fraction form point by point.
    """
    (m00, m01), (m10, m11) = ([int(e) for e in row] for row in matrix)
    q = math.lcm(p[0].denominator, p[1].denominator)
    start = a, b = tuple(c.numerator * (q // c.denominator) for c in p)
    orbit = [p]
    cap = p[0].denominator * p[1].denominator
    cap = max(cap, p[0].denominator) ** 2 + 2
    for _ in range(cap):
        a, b = (m00 * a + m01 * b) % q, (m10 * a + m11 * b) % q
        if (a, b) == start:
            return orbit
        orbit.append((Fraction(a, q), Fraction(b, q)))
    raise RuntimeError("rational point failed to return; invariant violated")


def _rational_candidates(target, max_denominator: int, radius: float):
    """Rational points (i/q, j/q), q <= Q, within radius of target, best first."""
    t = lift(target)
    keys = {}   # residues (i mod q, j mod q, q), in visiting order
    for q in range(1, max_denominator + 1):
        i_lo = math.floor((t[0] - radius) * q)
        i_hi = math.ceil((t[0] + radius) * q)
        j_lo = math.floor((t[1] - radius) * q)
        j_hi = math.ceil((t[1] + radius) * q)
        for i in range(i_lo, i_hi + 1):
            a = i % q
            a_reduces = math.gcd(a, q) > 1
            for j in range(j_lo, j_hi + 1):
                b = j % q
                if a_reduces and math.gcd(b, q) > 1:
                    continue  # both reduce: a smaller denominator's point
                keys[a, b, q] = None   # a repeat is a wrap-around duplicate
    if not keys:
        return []
    res = np.array(list(keys), dtype=float)
    # a / q is correctly rounded, as float(Fraction(a, q)) is
    dists = torus_dist(res[:, :2] / res[:, 2:], t)
    found = [(float(dist), q, Fraction(a, q), Fraction(b, q))
             for (a, b, q), dist in zip(keys, dists) if dist <= radius]
    found.sort(key=lambda rec: (rec[0], rec[1], rec[2], rec[3]))
    return found


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
    p1_orbit: np.ndarray        # exact orbit of p_1; its length is p_1's period
    p2_orbit: np.ndarray
    x_period: int | None        # exact period of x when x is periodic, else None

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
    if torus_dist(quad.p1, quad.p2) < 1e-9:
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
        return len(_exact_orbit(a.matrix, (fu, fv)))
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
    halves = []
    for rec in cands[:14]:
        d = wrapped_diff((float(rec[2]), float(rec[3])), x)
        if min(abs(float(d @ a.e_u)), abs(float(d @ a.e_s))) < 1e-6:
            continue  # p nearly on a leaf of x: a leg would collapse
        try:
            halves.append(_half_loop(a, x, rec))
        except AmbiguousBranch as exc:
            failures.append(str(exc)[:160])
    geometries = _quad_geometries(x, halves)
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
        "no candidate pair satisfied the separation scan; "
        f"{len(failures)} failures: {failures[:3]}")


def _half_loop(a, x, rec) -> dict:
    """One candidate's half of a quad: the periodic point p, its exact orbit,
    the corners w = [x, p] and z = [p, x], and the leaf coordinates s_w
    (x to w), u_w (p to w), u_z (x to z) and s_z (p to z)."""
    _, _, fu, fv = rec
    p = wrap((float(fu), float(fv)))
    orbit = _exact_orbit(a.matrix, (fu, fv))
    w, z = bracket(a, x, p), bracket(a, p, x)
    return dict(p=p, w=w, z=z,
                orbit=np.array([[float(ou), float(ov)] for ou, ov in orbit]),
                s_w=leaf_coordinate(a, "stable", x, w)[0],
                u_w=leaf_coordinate(a, "unstable", p, w)[0],
                u_z=leaf_coordinate(a, "unstable", x, z)[0],
                s_z=leaf_coordinate(a, "stable", p, z)[0])


def _quad_geometries(x, halves) -> list[dict]:
    """Every pair of half-loops, in itertools.combinations order, with the
    initial radii of the balls around w_1, w_2: all pairs' distances in one
    torus_dist call."""
    i, j = np.array(list(itertools.combinations(range(len(halves)), 2)),
                    dtype=int).reshape(-1, 2).T
    w, p, z = (np.array([tuple(h[key]) for h in halves]).reshape(-1, 2) for key in "wpz")
    # per pair, row k: w_k to x, p_1, p_2, z_1, z_2, then to the other w
    five = np.stack([np.broadcast_to(lift(x), w[i].shape), p[i], p[j], z[i], z[j]], axis=1)
    targets = np.concatenate([np.broadcast_to(five[:, None], (len(i), 2, 5, 2)),
                              np.stack([w[j], w[i]], axis=1)[:, :, None]], axis=2)
    d = torus_dist(np.stack([w[i], w[j]], axis=1)[:, :, None], targets)
    radii = 0.45 * np.minimum(d[..., :5].min(axis=-1), d[..., 5] / 2.0)
    return [dict(points={1: halves[a], 2: halves[b]}, radii=r,
                 **{key: (halves[a][key], halves[b][key]) for key in ("s_w", "u_w", "u_z", "s_z")})
            for a, b, r in zip(i.tolist(), j.tolist(), radii.tolist())]


def _validated_quad(a, x, geo, n_check, x_period) -> HeteroclinicQuad:
    out = geo["points"]
    radii = list(geo["radii"])
    last_exc = None
    for _ in range(7):
        quad = HeteroclinicQuad(
            x=x, p1=out[1]["p"], p2=out[2]["p"],
            w1=out[1]["w"], w2=out[2]["w"], z1=out[1]["z"], z2=out[2]["z"],
            U1_radius=radii[0], U2_radius=radii[1], n_check=n_check,
            s_w=geo["s_w"], u_w=geo["u_w"], u_z=geo["u_z"], s_z=geo["s_z"],
            p1_orbit=out[1]["orbit"], p2_orbit=out[2]["orbit"],
            x_period=x_period)
        try:
            validate_quad(a, quad)
            return quad
        except ConstructionFailed as exc:
            last_exc = exc
            radii = [r / 2.0 for r in radii]
            if min(radii) < 1e-4:
                break
    raise ConstructionFailed(f"separation scan unsatisfiable: {last_exc}")
