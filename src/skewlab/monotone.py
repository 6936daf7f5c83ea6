"""Fixed-point machinery for monotone interval maps, in exact rational
arithmetic: closed fixed-point sets of translated maps and the verified
(s, t) translation-pair search of the pbb scenario.

Functions are piecewise-affine nondecreasing with finitely many upward jumps,
stored as nodes plus one-sided piece endpoint values.  Pointwise values use
the right-continuous convention; solution and image sets use closed-piece
semantics (both one-sided endpoint values count), which only enlarges sets and
keeps every emptiness certificate sound.  No floating point enters this module.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .errors import SearchExhausted

PBB_MAX_REFINEMENTS = 14    # step halvings of pbb_search before SearchExhausted


def _as_frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class MonotoneStepFunction:
    """Nondecreasing piecewise-affine map with explicit one-sided node values.

    xs are the nodes a = x_0 < ... < x_m = b; piece i is affine on
    [x_i, x_{i+1}] from starts[i] (value at x_i^+) to ends[i] (value at
    x_{i+1}^-).  Interior jumps are starts[i] - ends[i-1] >= 0.
    """

    xs: tuple[Fraction, ...]
    starts: tuple[Fraction, ...]
    ends: tuple[Fraction, ...]

    def __post_init__(self):
        xs = tuple(_as_frac(x) for x in self.xs)
        starts = tuple(_as_frac(y) for y in self.starts)
        ends = tuple(_as_frac(y) for y in self.ends)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        m = len(xs) - 1
        if m < 1 or len(starts) != m or len(ends) != m:
            raise ValueError("need m+1 nodes and m piece start/end values")
        if any(xs[i] >= xs[i + 1] for i in range(m)):
            raise ValueError("nodes must be strictly increasing")
        for i in range(m):
            if starts[i] > ends[i]:
                raise ValueError(f"piece {i} decreases")
        for i in range(1, m):
            if ends[i - 1] > starts[i]:
                raise ValueError(f"downward jump at node {xs[i]}")

    # -- basic queries ------------------------------------------------------

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.xs[0], self.xs[-1]

    @property
    def n_pieces(self) -> int:
        return len(self.starts)

    def _piece_of(self, x: Fraction) -> int:
        """Index of the piece whose closed interval contains x (ties: right)."""
        i = bisect.bisect_right(self.xs, x) - 1
        return min(max(i, 0), self.n_pieces - 1)

    def slope(self, i: int) -> Fraction:
        return (self.ends[i] - self.starts[i]) / (self.xs[i + 1] - self.xs[i])

    def _affine(self, i: int, x: Fraction) -> Fraction:
        return self.starts[i] + self.slope(i) * (x - self.xs[i])

    def left_value(self, x) -> Fraction:
        x = _as_frac(x)
        a, _ = self.domain
        if x == a:
            return self.starts[0]
        idx = bisect.bisect_left(self.xs, x)
        if idx < len(self.xs) and self.xs[idx] == x:
            return self.ends[idx - 1]
        return self._affine(self._piece_of(x), x)

    def right_value(self, x) -> Fraction:
        x = _as_frac(x)
        _, b = self.domain
        if x == b:
            return self.ends[-1]
        idx = bisect.bisect_left(self.xs, x)
        if idx < len(self.xs) and self.xs[idx] == x:
            return self.starts[idx]
        return self._affine(self._piece_of(x), x)


def _image_intervals(f, lo: Fraction, hi: Fraction):
    """Closed-piece image components of f over [lo, hi].

    Includes the right-continuous pointwise value at hi, which lies above the
    last piece's left limit when hi carries a jump.
    """
    cuts = [lo] + [x for x in f.xs if lo < x < hi] + [hi]
    out = []
    for c0, c1 in zip(cuts, cuts[1:]):
        v0, v1 = f.right_value(c0), f.left_value(c1)
        out.append((min(v0, v1), max(v0, v1)))
    v_hi = f.right_value(hi)
    out.append((v_hi, v_hi))
    return out


def _merge_intervals(parts):
    parts = sorted(parts)
    out = []
    for lo, hi in parts:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# closed solution sets

@dataclass(frozen=True)
class ClosedSet:
    """Finite union of disjoint closed intervals (points are degenerate)."""

    parts: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_parts(cls, parts) -> "ClosedSet":
        cleaned = [(lo, hi) for lo, hi in parts if lo <= hi]
        return cls(parts=tuple(_merge_intervals(cleaned)))

    def is_empty(self) -> bool:
        return not self.parts

    def intersect(self, other: "ClosedSet") -> "ClosedSet":
        out = []
        for lo1, hi1 in self.parts:
            for lo2, hi2 in other.parts:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo <= hi:
                    out.append((lo, hi))
        return ClosedSet.from_parts(out)

    def image_under(self, phi: MonotoneStepFunction) -> "ClosedSet":
        out = []
        for lo, hi in self.parts:
            out.extend(_image_intervals(phi, lo, hi) if lo < hi
                       else [(phi.left_value(lo), phi.left_value(lo)),
                             (phi.right_value(lo), phi.right_value(lo))])
        return ClosedSet.from_parts(out)


def fixed_point_set(l: MonotoneStepFunction, t) -> ClosedSet:
    """Exact solution set of l(x) + t = x with closed-piece semantics.

    Slope-1 pieces contribute whole intervals when the offset matches; jump
    gaps contribute nothing (the value skips the diagonal there).
    """
    t = _as_frac(t)
    parts = []
    for i in range(l.n_pieces):
        x0, x1 = l.xs[i], l.xs[i + 1]
        y0 = l.starts[i]
        sl = l.slope(i)
        if sl == 1:
            if y0 + t == x0:
                parts.append((x0, x1))
        else:
            x_star = (y0 - sl * x0 + t) / (1 - sl)
            if x0 <= x_star <= x1:
                parts.append((x_star, x_star))
    return ClosedSet.from_parts(parts)


# ---------------------------------------------------------------------------
# the (s, t) search with mandatory independent verification

def _pbb_oracle(l1: MonotoneStepFunction, l2: MonotoneStepFunction,
                phi: MonotoneStepFunction, s, t) -> bool:
    """Brute-force disjointness check, independent of the ClosedSet algebra.

    Enumerates every (l2 piece, phi piece, l1 piece) combination and looks for
    a common point of phi(Fix(l2 + t)) and Fix(l1 + s) directly.
    """
    s, t = _as_frac(s), _as_frac(t)

    def piece_solutions(l, shift):
        sols = []
        for i in range(l.n_pieces):
            x0, x1 = l.xs[i], l.xs[i + 1]
            y0, y1 = l.starts[i], l.ends[i]
            dx = x1 - x0
            dy = y1 - y0
            # solve y0 + (dy/dx)(x - x0) + shift = x on [x0, x1]
            if dy == dx:
                if y0 + shift == x0:
                    sols.append((x0, x1))
            else:
                num = (y0 + shift - x0) * dx
                den = dx - dy
                x_star = x0 + num / den
                if x0 <= x_star <= x1:
                    sols.append((x_star, x_star))
        return sols

    def phi_image(lo, hi):
        images = []
        for i in range(phi.n_pieces):
            p0, p1 = phi.xs[i], phi.xs[i + 1]
            lo_c, hi_c = max(lo, p0), min(hi, p1)
            if lo_c > hi_c:
                continue
            sl = phi.slope(i)
            v_lo = phi.starts[i] + sl * (lo_c - p0)
            v_hi = phi.starts[i] + sl * (hi_c - p0)
            images.append((v_lo, v_hi))
        return images

    fix1 = piece_solutions(l1, s)
    for lo2, hi2 in piece_solutions(l2, t):
        for img_lo, img_hi in phi_image(lo2, hi2):
            for lo1, hi1 in fix1:
                if max(img_lo, lo1) <= min(img_hi, hi1):
                    return False
    return True


def _critical_levels(l: MonotoneStepFunction):
    """Values of x - l(x) at one-sided node limits (where fixed sets mutate)."""
    crit = set()
    for i in range(l.n_pieces):
        crit.add(l.xs[i] - l.starts[i])
        crit.add(l.xs[i + 1] - l.ends[i])
    return sorted(crit)


def pbb_search(l1: MonotoneStepFunction, l2: MonotoneStepFunction,
               phi: MonotoneStepFunction, epsilon):
    """Find (s, t), |s|,|t| <= epsilon, with phi(Fix(l2+t)) ∩ Fix(l1+s) = ∅.

    Adaptive rational grid over [-eps, eps]^2, every candidate verified exactly
    and re-verified by the independent brute-force oracle before returning.
    The grid refines to below half the minimum gap between the exact critical
    levels of the two maps; exhausting refinement raises SearchExhausted.
    """
    eps = _as_frac(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    lo_d, hi_d = l1.domain
    pr_lo = min(phi.starts + phi.ends)
    pr_hi = max(phi.starts + phi.ends)
    if pr_lo < lo_d or pr_hi > hi_d:
        raise ValueError("phi must map into the domain of l1")

    crit = _critical_levels(l1) + _critical_levels(l2)
    gaps = [b - a for a, b in zip(sorted(crit), sorted(crit)[1:]) if b > a]
    floor = (min(gaps) / 2) if gaps else eps / 1024
    tried = set()
    n = 3
    for _ in range(PBB_MAX_REFINEMENTS):
        step = 2 * eps / (n - 1)
        values = [-eps + step * k for k in range(n)]
        candidates = sorted(((abs(s) + abs(t), s, t) for s in values for t in values))
        for _, s, t in candidates:
            if (s, t) in tried:
                continue
            tried.add((s, t))
            fix2 = fixed_point_set(l2, t)
            fix1 = fixed_point_set(l1, s)
            if fix2.image_under(phi).intersect(fix1).is_empty():
                if not _pbb_oracle(l1, l2, phi, s, t):
                    raise RuntimeError(
                        "internal inconsistency: oracle rejected a verified pair")
                return s, t
        if step < floor:
            break
        n = 2 * n - 1
    raise SearchExhausted(
        f"no admissible (s, t) within |s|,|t| <= {eps} after {PBB_MAX_REFINEMENTS} refinements")


# ---------------------------------------------------------------------------
# deterministic random instances (tests, acceptance battery, CLI)

def random_monotone_step(rng, a, b, max_jumps: int = 20,
                         denominator: int = 48) -> MonotoneStepFunction:
    """Random rational instance: mixed flat/affine/slope-1 pieces and jumps."""
    a, b = _as_frac(a), _as_frac(b)
    span = b - a
    n_nodes = int(rng.integers(1, max_jumps + 1))
    ticks = sorted(set(int(k) for k in rng.integers(1, denominator, size=n_nodes)))
    xs = [a] + [a + span * Fraction(k, denominator) for k in ticks] + [b]
    cur = a + span * Fraction(int(rng.integers(-8, 9)), 64)
    starts, ends = [], []
    for i in range(len(xs) - 1):
        if i > 0 and rng.random() < 0.4:
            cur += span * Fraction(int(rng.integers(0, 9)), 96)  # upward jump
        starts.append(cur)
        width = xs[i + 1] - xs[i]
        r = rng.random()
        if r < 0.25:
            rise = Fraction(0)                  # flat piece
        elif r < 0.45:
            rise = width                        # slope exactly one
        else:
            rise = width * Fraction(int(rng.integers(0, 25)), 8)
        cur = cur + rise
        ends.append(cur)
    return MonotoneStepFunction(tuple(xs), tuple(starts), tuple(ends))


def random_phi(rng, b, a, max_jumps: int = 20, denominator: int = 48) -> MonotoneStepFunction:
    """Random nondecreasing phi: [-b, b] -> [-a, a], exactly rescaled into range."""
    raw = random_monotone_step(rng, -_as_frac(b), _as_frac(b), max_jumps, denominator)
    lo = min(raw.starts)
    hi = max(raw.ends)
    a = _as_frac(a)
    if hi == lo:
        mid = Fraction(0)
        starts = tuple(mid for _ in raw.starts)
        ends = tuple(mid for _ in raw.ends)
    else:
        scale = 2 * a / (hi - lo)
        # keep strictly inside [-a, a] to dodge endpoint degeneracies
        scale = scale * Fraction(7, 8)
        shift = -a * Fraction(7, 8) - lo * scale
        starts = tuple(y * scale + shift for y in raw.starts)
        ends = tuple(y * scale + shift for y in raw.ends)
    return MonotoneStepFunction(raw.xs, starts, ends)
