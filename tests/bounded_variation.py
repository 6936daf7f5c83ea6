"""The bounded-variation toolkit over monotone step functions, which no
scenario runs: differences of monotone maps, exact total variation with its
subadditivity and covering bounds, jump detection, restrictions, level sets
and preimages.  c08 and tests/test_monotone.py run on it; the pbb search in
skewlab.monotone needs none of it.

Everything here is exact rational arithmetic, like the module it extends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from skewlab.monotone import (ClosedSet, MonotoneStepFunction, _as_frac,
                              _image_intervals, _merge_intervals, fixed_point_set)


def identity(a, b) -> MonotoneStepFunction:
    a, b = _as_frac(a), _as_frac(b)
    return MonotoneStepFunction((a, b), (a,), (b,))


def constant(c, a, b) -> MonotoneStepFunction:
    c = _as_frac(c)
    return MonotoneStepFunction((_as_frac(a), _as_frac(b)), (c,), (c,))


def value(f: MonotoneStepFunction, x) -> Fraction:
    """Right-continuous value (left-continuous at the right endpoint)."""
    a, b = f.domain
    if not (a <= _as_frac(x) <= b):
        raise ValueError("argument outside the domain")
    return f.right_value(x)


def restrict(f: MonotoneStepFunction, a1, b1) -> MonotoneStepFunction:
    a1, b1 = _as_frac(a1), _as_frac(b1)
    a, b = f.domain
    if not (a <= a1 < b1 <= b):
        raise ValueError("restriction interval outside the domain")
    xs = [a1] + [x for x in f.xs if a1 < x < b1] + [b1]
    starts = [f.right_value(x) for x in xs[:-1]]
    ends = [f.left_value(x) for x in xs[1:]]
    return MonotoneStepFunction(tuple(xs), tuple(starts), tuple(ends))


@dataclass(frozen=True)
class MonotoneDifference:
    """f = plus - minus on the common domain: the bounded-variation class
    all the counting arguments run in."""

    plus: MonotoneStepFunction
    minus: MonotoneStepFunction

    def __post_init__(self):
        if self.plus.domain != self.minus.domain:
            raise ValueError("difference requires a common domain")

    @property
    def xs(self) -> tuple[Fraction, ...]:
        """The merged nodes of both parts, so the library's image code reads a
        difference as it reads a MonotoneStepFunction."""
        return tuple(sorted(set(self.plus.xs) | set(self.minus.xs)))

    def right_value(self, x) -> Fraction:
        return self.plus.right_value(x) - self.minus.right_value(x)

    def left_value(self, x) -> Fraction:
        return self.plus.left_value(x) - self.minus.left_value(x)


@dataclass(frozen=True)
class VariationReport:
    interval: tuple[Fraction, Fraction]
    value: Fraction
    witness_partition: tuple[Fraction, ...]


def total_variation(f, a1=None, b1=None) -> VariationReport:
    """Exact total variation over [a1, b1] (default: the whole domain).

    For the piecewise representation this is the sum of absolute piece rises
    plus absolute jumps at nodes in (a1, b1]; for a monotone f it collapses to
    f(b1) - f(a1).
    """
    nodes = f.xs
    a, b = nodes[0], nodes[-1]
    a1 = a if a1 is None else _as_frac(a1)
    b1 = b if b1 is None else _as_frac(b1)
    if not (a <= a1 < b1 <= b):
        raise ValueError("variation interval outside the domain")
    cuts = [a1] + [x for x in nodes if a1 < x < b1] + [b1]
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        total += abs(f.left_value(hi) - f.right_value(lo))   # affine rise on (lo, hi)
    for z in cuts[1:]:
        if z == b:
            continue  # the domain's right endpoint carries no jump
        # the jump at an interior cut z <= b1 belongs to [a1, b1] via f(z) = f(z^+)
        total += abs(f.right_value(z) - f.left_value(z))
    return VariationReport(interval=(a1, b1), value=total,
                           witness_partition=tuple(cuts))


def variation_subadditivity_check(f, intervals) -> bool:
    """Sum of variations over disjoint subintervals never exceeds the total."""
    ivals = sorted((_as_frac(lo), _as_frac(hi)) for lo, hi in intervals)
    a, b = f.xs[0], f.xs[-1]
    for (lo, hi) in ivals:
        if not (a <= lo < hi <= b):
            raise ValueError("interval outside the domain")
    for (l1, h1), (l2, h2) in zip(ivals, ivals[1:]):
        if l2 < h1:
            raise ValueError("intervals overlap")
    pieces = sum((total_variation(f, lo, hi).value for lo, hi in ivals), Fraction(0))
    return pieces <= total_variation(f).value


def variation_cover_bound(f, intervals, c, d) -> bool:
    """Covering lower bound: images covering [c, d] force sum V >= d - c.

    Raises ValueError when the cover precondition cannot be verified.
    """
    c, d = _as_frac(c), _as_frac(d)
    if d < c:
        raise ValueError("degenerate target requires c <= d")
    images = []
    for lo, hi in intervals:
        images.extend(_image_intervals(f, _as_frac(lo), _as_frac(hi)))
    merged = _merge_intervals(images)
    covered = [(max(lo, c), min(hi, d)) for lo, hi in merged if hi >= c and lo <= d]
    pos = c
    for lo, hi in covered:
        if lo > pos:
            raise ValueError(f"images do not cover [{c}, {d}]: gap at {pos}")
        pos = max(pos, hi)
    if pos < d:
        raise ValueError(f"images do not cover [{c}, {d}]: gap at {pos}")
    total = sum((total_variation(f, _as_frac(lo), _as_frac(hi)).value
                 for lo, hi in intervals), Fraction(0))
    return total >= d - c


def find_jumps(f, epsilon) -> list[tuple[Fraction, Fraction]]:
    """Interior nodes carrying a jump of size at least epsilon (> 0)."""
    epsilon = _as_frac(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out = []
    for z in f.xs[1:-1]:
        size = f.right_value(z) - f.left_value(z)
        if abs(size) >= epsilon:
            out.append((z, abs(size)))
    return out


def level_set(l: MonotoneStepFunction, s) -> ClosedSet:
    """{x : l(x) - x = s}: the level sets whose translates the search separates."""
    return fixed_point_set(l, -_as_frac(s))


def contains(s: ClosedSet, x) -> bool:
    x = _as_frac(x)
    return any(lo <= x <= hi for lo, hi in s.parts)


def is_finite(s: ClosedSet) -> bool:
    return all(lo == hi for lo, hi in s.parts)


def points(s: ClosedSet) -> list[Fraction]:
    if not is_finite(s):
        raise ValueError("set has nondegenerate components")
    return [lo for lo, _ in s.parts]


def preimage_under(s: ClosedSet, phi: MonotoneStepFunction) -> ClosedSet:
    """Closed-piece preimage of s under a monotone step function."""
    out = []
    for i in range(phi.n_pieces):
        x0, x1 = phi.xs[i], phi.xs[i + 1]
        y0, y1 = phi.starts[i], phi.ends[i]
        sl = phi.slope(i)
        for lo, hi in s.parts:
            lo_c, hi_c = max(lo, y0), min(hi, y1)
            if lo_c > hi_c:
                continue
            if sl == 0:
                out.append((x0, x1))
            else:
                out.append((x0 + (lo_c - y0) / sl, x0 + (hi_c - y0) / sl))
    return ClosedSet.from_parts(out)
