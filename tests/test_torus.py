import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.anosov import make_anosov
from skewlab.perturbation import BASE_INNER_FRAC, BASE_OUTER_FRAC, FIBER_INNER, FIBER_OUTER
from skewlab.torus import (BumpProfile, Region, TorusPoint, cell_grid, mod1, smoothstep,
                           torus_dist, wrap, wrapped_diff)

finite_coord = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


def test_wrap_examples():
    assert wrap((1.25, -0.5)) == TorusPoint(0.25, 0.5)
    assert wrap((0.0, 0.0)) == TorusPoint(0.0, 0.0)
    assert wrap((2.0, 3.0)) == TorusPoint(0.0, 0.0)


def test_wrap_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap((float("nan"), 0.0))
    with pytest.raises(ValueError):
        wrap((float("inf"), 0.0))


@given(st.tuples(finite_coord, finite_coord))
@settings(max_examples=60)
def test_wrap_idempotent_and_in_range(pair):
    p = wrap(pair)
    assert 0.0 <= p.u < 1.0 and 0.0 <= p.v < 1.0
    q = wrap((p.u, p.v))
    assert (q.u, q.v) == (p.u, p.v)  # bitwise idempotence


def test_wrap_seam_rounding():
    # values whose float mod rounds up to 1.0 must fold to 0.0
    p = wrap((-1e-18, 1.0 - 1e-17))
    assert 0.0 <= p.u < 1.0 and 0.0 <= p.v < 1.0


def test_lift_roundtrip():
    p = wrap((0.37, 0.93))
    assert wrap(np.asarray(p)) == p


def test_torus_dist_examples():
    assert torus_dist((0, 0), (0, 0)) == 0.0
    assert np.isclose(torus_dist((0.9, 0), (0.1, 0)), 0.2)
    assert np.isclose(torus_dist((0, 0), (0.5, 0.5)), math.sqrt(2) / 2)


@given(st.tuples(finite_coord, finite_coord), st.tuples(finite_coord, finite_coord),
       st.tuples(finite_coord, finite_coord))
@settings(max_examples=60)
def test_torus_dist_metric(a, b, c):
    dab = torus_dist(a, b)
    assert dab == pytest.approx(torus_dist(b, a), abs=1e-12)
    assert dab <= math.sqrt(2) / 2 + 1e-12
    assert dab <= torus_dist(a, c) + torus_dist(c, b) + 1e-9


def test_wrapped_diff_is_shortest():
    d = wrapped_diff((0.05, 0.0), (0.95, 0.0))
    assert np.allclose(d, [0.1, 0.0])
    assert np.all(wrapped_diff(np.random.rand(50, 2), np.random.rand(50, 2)) < 0.5)


# wrap edge cases: signed zeros, subnormals, the neighbours of 0 and 1, the
# seam-rounding tiny negatives, half-integers at and beyond 2^52, and huge
# magnitudes
TINY = 5e-324
EDGE = [0.0, TINY, 2.2250738585072014e-308, 1e-300, 1e-20, 2.0**-53, 0.25, 0.5,
        1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.5, 2.0, 7.75, 1e6 + 0.1, 2.0**51 + 0.5,
        2.0**52 - 0.5, 2.0**52 + 0.5, 2.0**53 + 2.0, 1e300, 1.7976931348623157e308]
EDGE_VALUES = np.array(EDGE + [-x for x in EDGE])
any_finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(x):
    """The int64 bit patterns of a float array, so that -0.0 != +0.0."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def mod1_by_remainder(x):
    """Oracle: the remainder form of mod1."""
    out = np.asarray(x, dtype=float) % 1.0
    return np.where(out >= 1.0, 0.0, out)


def wrapped_diff_by_remainder(a, b):
    """Oracle: the remainder form of wrapped_diff."""
    d = (np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + 0.5) % 1.0
    return np.where(d >= 1.0, 0.0, d) - 0.5


def orbit_by_remainder(base, pts, n, forward=True):
    """Oracle: LinearAnosov.orbit with np.remainder in place of x - floor(x)."""
    mat = (base.matrix if forward else base.inverse).T
    out = np.empty((n + 1,) + pts.shape)
    out[0] = pts
    for k in range(n):
        nxt = out[k + 1]
        np.matmul(out[k], mat, out=nxt)
        np.remainder(nxt, 1.0, out=nxt)
        nxt[nxt >= 1.0] = 0.0
    return out


class TestFloorWrap:
    """The floor form x - floor(x) of every wrap is bitwise the remainder form."""

    def test_mod1_edge_values_bitwise(self):
        got = mod1(EDGE_VALUES)
        assert np.array_equal(bits(got), bits(mod1_by_remainder(EDGE_VALUES)))
        assert np.all((0.0 <= got) & (got < 1.0))
        assert not np.any(np.signbit(got))   # +0.0 at integers and at -0.0
        # the seam: -1e-20 - floor(-1e-20) = 1 - 1e-20 rounds to 1.0, folded to 0.0
        assert bits(mod1(-1e-20))[()] == bits(0.0)[()]
        assert mod1(-TINY) == 0.0 and mod1(-(2.0**-53)) == 1.0 - 2.0**-53

    @given(st.lists(any_finite, min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_mod1_property_bitwise(self, xs):
        x = np.array(xs)
        assert np.array_equal(bits(mod1(x)), bits(mod1_by_remainder(x)))

    def test_mod1_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                mod1(np.array([0.25, bad]))

    def test_wrapped_diff_edge_values_bitwise(self):
        a = np.repeat(np.clip(EDGE_VALUES, -1e300, 1e300), len(EDGE_VALUES))
        b = np.tile(np.clip(EDGE_VALUES, -1e300, 1e300), len(EDGE_VALUES))
        assert np.array_equal(bits(wrapped_diff(a, b)), bits(wrapped_diff_by_remainder(a, b)))

    @given(st.lists(st.tuples(st.floats(min_value=-1e300, max_value=1e300),
                              st.floats(min_value=-1e300, max_value=1e300)),
                    min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_wrapped_diff_property_bitwise(self, pairs):
        a, b = np.array(pairs).T
        assert np.array_equal(bits(wrapped_diff(a, b)), bits(wrapped_diff_by_remainder(a, b)))

    @pytest.mark.parametrize("forward", [True, False])
    def test_orbit_bitwise(self, cat, forward):
        small = EDGE_VALUES[np.abs(EDGE_VALUES) <= 1e6]
        pts = np.stack(np.meshgrid(small, small, indexing="ij"), axis=-1).reshape(-1, 2)
        got = cat.orbit(pts, 12, forward=forward)
        assert np.array_equal(bits(got), bits(orbit_by_remainder(cat, pts, 12, forward)))

    @given(st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_orbit_property_bitwise(self, pairs):
        base = make_anosov([[5, 3], [3, 2]])
        pts = np.array(pairs)
        for forward in (True, False):
            assert np.array_equal(bits(base.orbit(pts, 8, forward=forward)),
                                  bits(orbit_by_remainder(base, pts, 8, forward)))


class TestBumpProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BumpProfile(0.0, 1.0)
        with pytest.raises(ValueError):
            BumpProfile(1.0, 0.5)

    def test_plateau_and_support(self):
        b = BumpProfile(1.0, 2.0)
        assert b.value(0.0) == 1.0
        assert b.value(1.0) == 1.0
        assert b.value(2.0) == 0.0
        assert b.value(5.0) == 0.0

    def test_midpoint_matches_quintic(self):
        # oracle: evaluate 1 - (10 t^3 - 15 t^4 + 6 t^5) at t = 1/2 directly
        t = 0.5
        expected = 1.0 - (10 * t**3 - 15 * t**4 + 6 * t**5)
        assert expected == 0.5
        b = BumpProfile(1.0, 2.0)
        assert b.value(1.5) == pytest.approx(expected, abs=1e-15)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            BumpProfile(1.0, 2.0).value(-0.1)

    def test_monotone_nonincreasing(self):
        b = BumpProfile(0.3, 0.45)
        rs = np.linspace(0.0, 0.6, 10_000)
        vals = b.value(rs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_c1_junctions_by_finite_difference(self):
        b = BumpProfile(1.0, 2.0)
        h = 1e-5
        for r0 in (1.0, 2.0):
            fd = (b.value(r0 + h) - b.value(r0 - h)) / (2 * h)
            assert abs(fd) < 1e-6

    def test_c2_junctions_by_second_difference(self):
        b = BumpProfile(1.0, 2.0)
        h = 3e-5
        for r0 in (1.0, 2.0):
            d2 = (b.value(r0 + h) - 2 * b.value(r0) + b.value(r0 - h)) / h**2
            assert abs(d2) < 1e-3

    def test_analytic_derivatives_match_fd(self):
        b = BumpProfile(0.5, 1.5)
        rs = np.linspace(0.55, 1.45, 57)
        val, dv, d2v = b.value_and_derivatives(rs, 2)
        h = 1e-6
        fd = (b.value(rs + h) - b.value(rs - h)) / (2 * h)
        assert np.max(np.abs(fd - dv)) < 1e-8
        h2 = 1e-5  # second differences cancel catastrophically at smaller steps
        fd2 = (b.value(rs + h2) - 2 * val + b.value(rs - h2)) / h2**2
        assert np.max(np.abs(fd2 - d2v)) < 1e-4

    # destroy's fiber and base bumps (on the default quad, whose ball radius is
    # 0.02957...), c04's field bumps and the config default
    @pytest.mark.parametrize("inner,outer", [
        (FIBER_INNER, FIBER_OUTER),
        (BASE_INNER_FRAC * 0.029572375056701277, BASE_OUTER_FRAC * 0.029572375056701277),
        (0.05, 0.14), (0.08, 0.2)])
    def test_max_abs_derivative_bounds_derivative(self, inner, outer):
        # the holonomy minimum horizon relies on this bound; the rounded
        # polynomial may pass the rounded exact maximum by a few ulps
        b = BumpProfile(inner, outer)
        rs = np.concatenate([np.linspace(0.0, 1.1 * outer, 200_001),
                             (inner + outer) / 2 + np.arange(-1000, 1001) * 1e-16])
        peak = np.max(np.abs(b.value_and_derivatives(rs, 1)[1]))
        bound = b.max_abs_derivative()
        assert peak <= bound * (1 + 4 * np.finfo(float).eps)
        assert peak >= bound * (1 - 4 * np.finfo(float).eps)

    def test_smoothstep_is_the_clipped_quintic_bitwise(self):
        # oracle: the quintic of np.clip's t, on the band, its ends and beyond
        inner, band = FIBER_INNER, FIBER_OUTER - FIBER_INNER
        rs = np.concatenate([[0.0, TINY, inner, FIBER_OUTER, 5.0],
                             np.nextafter(inner, [0.0, 1.0]),
                             np.nextafter(FIBER_OUTER, [0.0, 1.0]),
                             np.linspace(0.0, 0.6, 1001)])
        t = np.clip((rs - inner) / band, 0.0, 1.0)
        t2 = t * t
        want = (1.0 - t2 * t * (10.0 + t * (-15.0 + 6.0 * t)),
                t2 * (1.0 + t * (-2.0 + t)) * (-30.0 / band),
                t * (60.0 + t * (-180.0 + 120.0 * t)) / -band**2)
        for got, w in zip(smoothstep(rs, inner, band, 2), want):
            assert np.array_equal(bits(got), bits(w))

    def test_smoothstep_per_point_parameters_bitwise(self):
        # one call with per-point (inner, band) gives each point the bits of
        # its own profile
        profiles = [BumpProfile(FIBER_INNER, FIBER_OUTER), BumpProfile(0.3, 0.42),
                    BumpProfile(0.05, 0.14), BumpProfile(1.0, 2.0)]
        rng = np.random.default_rng(0)
        rs = [rng.uniform(0.0, 1.2 * p.outer_radius, 50) for p in profiles]
        which = np.repeat(np.arange(len(profiles)), 50)
        inner = np.array([p.inner_radius for p in profiles])[which]
        band = np.array([p.band for p in profiles])[which]
        for n_derivs in (0, 1, 2):
            got = smoothstep(np.concatenate(rs), inner, band, n_derivs)
            assert len(got) == n_derivs + 1
            for k, (p, r) in enumerate(zip(profiles, rs)):
                want = p.value_and_derivatives(r, n_derivs)
                for g, w in zip(got, want):
                    assert np.array_equal(g[which == k], w)


@pytest.mark.parametrize("n", [1, 5, 32])
def test_cell_grid(n):
    g = cell_grid(n)
    i, j = np.divmod(np.arange(n * n), n)
    assert g.shape == (n * n, 2)
    assert np.array_equal(g, np.stack([(i + 0.5) / n, (j + 0.5) / n], axis=-1))
    assert np.all((0.0 <= g) & (g < 1.0))


class TestRegion:
    def test_grid_and_contains(self):
        r = Region(center=(0.5, 0.5), half=(0.2, 0.1))
        g = r.grid(8)
        assert g.shape == (64, 2)
        assert np.all(r.contains(g, margin=1e-12))
        assert not r.contains(np.array([0.9, 0.9]))

    def test_wraps_across_seam(self):
        r = Region(center=(0.05, 0.05), half=(0.1, 0.1))
        assert r.contains(np.array([0.98, 0.98]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Region(center=(0.5, 0.5), half=(0.6, 0.1))
