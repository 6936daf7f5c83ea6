import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.perturbation import BASE_INNER_FRAC, BASE_OUTER_FRAC, FIBER_INNER, FIBER_OUTER
from skewlab.torus import (BumpProfile, Region, TorusPoint, cell_grid, smoothstep,
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
    assert wrap(p.as_array()) == p


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
