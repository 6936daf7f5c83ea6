"""Exactness tests for the monotone fixed-point module and the test-side
bounded-variation toolkit.

Everything here runs in rational arithmetic; any float appearing in an
assertion is a bug.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from skewlab.monotone import (ClosedSet, MonotoneStepFunction, _image_intervals,
                              _merge_intervals, _pbb_oracle, fixed_point_set, pbb_search,
                              random_monotone_step, random_phi)

from bounded_variation import (MonotoneDifference, constant, contains, find_jumps, identity,
                               is_finite, level_set, points, preimage_under, restrict,
                               total_variation, value, variation_cover_bound,
                               variation_subadditivity_check)

MSF = MonotoneStepFunction


def step_with_jump(jump=F(1, 2), at=F(0)):
    """Flat 0 left of `at`, flat `jump` right of it, on [-1, 1]."""
    return MSF((F(-1), at, F(1)), (F(0), jump), (F(0), jump))


class TestRepresentation:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            MSF((F(0), F(1)), (F(1),), (F(0),))          # decreasing piece
        with pytest.raises(ValueError):
            MSF((F(0), F(1), F(2)), (F(0), F(0)), (F(1), F(2)))  # downward jump

    def test_one_sided_values(self):
        f = step_with_jump(F(1, 2))
        assert f.left_value(F(0)) == 0
        assert f.right_value(F(0)) == F(1, 2)
        assert value(f, F(0)) == F(1, 2)   # right-continuous convention
        assert value(f, F(1)) == F(1, 2)

    def test_restrict(self):
        f = restrict(identity(F(-1), F(1)), F(-1, 2), F(1, 4))
        assert f.domain == (F(-1, 2), F(1, 4))
        assert value(f, F(0)) == 0


class TestVariation:
    def test_identity(self):
        rep = total_variation(identity(F(-1), F(1)))
        assert rep.value == 2

    def test_single_jump(self):
        rep = total_variation(step_with_jump(F(1, 2)))
        assert rep.value == F(1, 2)

    def test_monotone_equals_endpoint_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            f = random_monotone_step(rng, F(-1), F(1), max_jumps=10)
            a1, b1 = F(-1, 2), F(3, 4)
            rep = total_variation(f, a1, b1)
            assert rep.value == value(f, b1) - value(f, a1)

    def test_difference_bounded_by_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g1 = random_monotone_step(rng, F(-1), F(1), max_jumps=8)
            g2 = random_monotone_step(rng, F(-1), F(1), max_jumps=8)
            diff = MonotoneDifference(g1, g2)
            v = total_variation(diff).value
            assert v <= total_variation(g1).value + total_variation(g2).value

    def test_subadditivity_whole_domain_equality(self):
        f = step_with_jump(F(1, 3))
        assert variation_subadditivity_check(f, [(F(-1), F(1))])
        assert total_variation(f, F(-1), F(1)).value == total_variation(f).value

    def test_subadditivity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            g1 = random_monotone_step(rng, F(-1), F(1), max_jumps=8)
            g2 = random_monotone_step(rng, F(-1), F(1), max_jumps=8)
            f = MonotoneDifference(g1, g2)
            cuts = sorted(set(F(int(k), 16) for k in rng.integers(-15, 16, size=4)))
            if len(cuts) < 4:
                continue
            intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3])]
            assert variation_subadditivity_check(f, intervals)

    def test_nested_interval_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_monotone_step(rng, F(-1), F(1), max_jumps=10)
            inner = total_variation(f, F(-1, 4), F(1, 4)).value
            outer = total_variation(f, F(-1, 2), F(1, 2)).value
            assert inner <= outer <= total_variation(f).value

    def test_overlapping_intervals_rejected(self):
        f = identity(F(-1), F(1))
        with pytest.raises(ValueError):
            variation_subadditivity_check(f, [(F(0), F(1, 2)), (F(1, 4), F(3, 4))])

    def test_cover_bound_single_interval(self):
        f = identity(F(-1), F(1))
        assert variation_cover_bound(f, [(F(-1), F(1))], F(-1, 2), F(1, 2))

    def test_cover_bound_two_tiles(self):
        # rising / flat / rising: the two rising intervals tile the image
        f = MSF((F(-1), F(-1, 4), F(1, 4), F(1)),
                (F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(1)))
        assert variation_cover_bound(f, [(F(-1), F(-1, 4)), (F(1, 4), F(1))],
                                     F(0), F(1))

    def test_cover_bound_on_random_differences(self):
        # take [c, d] = a maximal covered component of the joint image
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(30):
            g1 = random_monotone_step(rng, F(-1), F(1), max_jumps=6)
            g2 = random_monotone_step(rng, F(-1), F(1), max_jumps=6)
            f = MonotoneDifference(g1, g2)
            intervals = [(F(-3, 4), F(-1, 4)), (F(0), F(1, 2))]
            images = []
            for lo, hi in intervals:
                images.extend(_image_intervals(f, lo, hi))
            merged = _merge_intervals(images)
            lo, hi = max(merged, key=lambda p: p[1] - p[0])
            if hi == lo:
                continue
            assert variation_cover_bound(f, intervals, lo, hi)
            checked += 1
        assert checked >= 20

    def test_cover_bound_degenerate_target(self):
        f = identity(F(-1), F(1))
        assert variation_cover_bound(f, [(F(-1), F(1))], F(0), F(0))

    def test_cover_gap_detected(self):
        f = step_with_jump(F(1, 2))  # image {0} U {1/2}: gap inside (0, 1/2)
        with pytest.raises(ValueError):
            variation_cover_bound(f, [(F(-1), F(1))], F(0), F(1, 2))


class TestJumps:
    def test_continuous_function_has_none(self):
        assert find_jumps(identity(F(-1), F(1)), F(1, 100)) == []

    def test_planted_jump(self):
        f = step_with_jump(F(3, 10))
        assert find_jumps(f, F(1, 5)) == [(F(0), F(3, 10))]
        assert find_jumps(f, F(2, 5)) == []

    def test_short_window_forces_jump(self):
        # for windows shorter than delta, a rise >= eps forces a jump >= eps/2
        rng = np.random.default_rng(5)
        eps = F(1, 4)
        for _ in range(20):
            f = random_monotone_step(rng, F(-1), F(1), max_jumps=12)
            max_slope = max((f.slope(i) for i in range(f.n_pieces)), default=F(0))
            jump_nodes = [z for z, _ in find_jumps(f, F(1, 10**9))]
            gaps = [b - a for a, b in zip(jump_nodes, jump_nodes[1:])]
            delta_candidates = [g for g in gaps if g > 0]
            delta = min(delta_candidates, default=F(2))
            if max_slope > 0:
                delta = min(delta, (eps / 2) / max_slope)
            # exhaustive scan over node-bounded windows shorter than delta
            probes = sorted(set(list(f.xs) + [x + delta / 3 for x in f.xs[:-1]]))
            for x0 in probes:
                x1 = x0 + delta * F(9, 10)
                if x1 > F(1):
                    continue
                rise = value(f, x1) - value(f, x0)
                if rise >= eps:
                    found = [z for z, s in find_jumps(f, eps / 2) if x0 <= z <= x1]
                    assert found, (f, x0, x1)


class TestFixedPointSet:
    def test_identity_whole_domain(self):
        s = fixed_point_set(identity(F(-1), F(1)), F(0))
        assert s.parts == ((F(-1), F(1)),)

    def test_identity_shifted_empty(self):
        assert fixed_point_set(identity(F(-1), F(1)), F(1, 20)).is_empty()

    def test_constant_single_point(self):
        s = fixed_point_set(constant(F(0), F(-1), F(1)), F(3, 10))
        assert s.parts == ((F(3, 10), F(3, 10)),)

    def test_jump_skips_diagonal(self):
        # jump from -1/4 to 1/4 at x=0: the diagonal is skipped there
        f = MSF((F(-1), F(0), F(1)), (F(-1, 4), F(1, 4)), (F(-1, 4), F(1, 4)))
        s = fixed_point_set(f, F(0))
        assert all(not (lo < 0 < hi) for lo, hi in s.parts)
        assert contains(s, F(-1, 4)) and contains(s, F(1, 4))

    def test_level_set_is_shifted_fixed_set(self):
        f = step_with_jump(F(1, 2))
        assert level_set(f, F(1, 4)).parts == fixed_point_set(f, F(-1, 4)).parts


class TestClosedSet:
    def test_merge_and_intersect(self):
        a = ClosedSet.from_parts([(F(0), F(1)), (F(1), F(2))])
        assert a.parts == ((F(0), F(2)),)
        b = ClosedSet.from_parts([(F(3, 2), F(3))])
        assert a.intersect(b).parts == ((F(3, 2), F(2)),)

    def test_image_and_preimage(self):
        phi = identity(F(-1), F(1))
        s = ClosedSet.from_parts([(F(-1, 2), F(1, 2))])
        assert s.image_under(phi).parts == s.parts
        assert preimage_under(s, phi).parts == s.parts

    def test_preimage_of_plateau(self):
        phi = constant(F(0), F(-1), F(1))
        s = ClosedSet.from_parts([(F(0), F(0))])
        assert preimage_under(s, phi).parts == ((F(-1), F(1)),)

    def test_finite_points(self):
        s = ClosedSet.from_parts([(F(1), F(1)), (F(2), F(2))])
        assert is_finite(s) and points(s) == [F(1), F(2)]


class TestPbbSearch:
    def test_identity_triple(self):
        ident = identity(F(-1), F(1))
        s, t = pbb_search(ident, ident, ident, F(1, 10))
        assert abs(s) <= F(1, 10) and abs(t) <= F(1, 10)
        fix2 = fixed_point_set(ident, t)
        fix1 = fixed_point_set(ident, s)
        assert fix2.image_under(ident).intersect(fix1).is_empty()

    def test_constant_zero_maps(self):
        zero = constant(F(0), F(-1), F(1))
        ident = identity(F(-1), F(1))
        s, t = pbb_search(zero, zero, ident, F(1, 10))
        assert s != t  # Fix(l2+t) = {t}, Fix(l1+s) = {s}

    def test_random_battery_with_oracle(self):
        rng = np.random.default_rng(6)
        eps = F(1, 16)
        for _ in range(30):
            l1 = random_monotone_step(rng, F(-1), F(1), max_jumps=10)
            l2 = random_monotone_step(rng, F(-1), F(1), max_jumps=10)
            phi = random_phi(rng, F(1), F(1), max_jumps=10)
            s, t = pbb_search(l1, l2, phi, eps)
            assert abs(s) <= eps and abs(t) <= eps
            assert _pbb_oracle(l1, l2, phi, s, t)

    def test_oracle_rejects_bad_pair(self):
        ident = identity(F(-1), F(1))
        assert not _pbb_oracle(ident, ident, ident, F(0), F(0))

    def test_epsilon_validation(self):
        ident = identity(F(-1), F(1))
        with pytest.raises(ValueError):
            pbb_search(ident, ident, ident, F(0))

    def test_phi_range_validation(self):
        ident = identity(F(-1), F(1))
        phi_bad = constant(F(2), F(-1), F(1))
        with pytest.raises(ValueError):
            pbb_search(ident, ident, phi_bad, F(1, 10))


def test_variation_counting_bound():
    # k zigzag runs of g2 = l2 - id, each covering [-eps, eps], force
    # V(g2) >= 2 k eps; l2 stays monotone because falling runs are l2-flat.
    eps = F(1, 8)
    k = 4  # 2 eps k = 1 keeps the falling slope of l2 at exactly zero
    xs = tuple(F(i, k) for i in range(k + 1))
    vals = []
    for i in range(k + 1):
        vals.append(xs[i] + (eps if i % 2 else -eps))
    l2 = MSF(xs, tuple(vals[:-1]), tuple(vals[1:]))
    ident = identity(F(0), F(1))
    g2 = MonotoneDifference(l2, ident)
    assert total_variation(g2).value >= 2 * eps * k
    for i in range(k):
        assert variation_cover_bound(g2, [(xs[i], xs[i + 1])], -eps, eps)
