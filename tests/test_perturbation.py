import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from skewlab.accessibility import LoopMap, loop_map, standard_generators, trivial_set_scan
from skewlab import perturbation
from skewlab.errors import (BumpEscape, NoConvergence, OverlapError, PostconditionFailure,
                            RegularValueFailure)
from skewlab.fiber import ConstantFamily, IdentityMap, certify_partial_hyperbolicity
from skewlab.holonomy import make_holonomy
from skewlab.perturbation import (BumpTranslation, DestroyParams, PerturbedFamily,
                                  destroy_trivial_class, perturb_skew)
from skewlab.torus import BumpProfile, lift, torus_dist, wrap, wrapped_diff

from systems import DESTROYED, destroy_bump


def frozen_field(d0, d1, v0, v1, inner, band):
    """Oracle field: the bump field (X0, X1) and its derivative (DX00, DX01,
    DX10, DX11), in the arithmetic the kernel used when its iteration count
    was chosen, frozen here so that the oracle shares no code with the kernel
    it checks (np.clip is bitwise ``smoothstep``'s clip for r >= 0)."""
    r = np.hypot(d0, d1)
    t = np.clip((r - inner) / band, 0.0, 1.0)
    t2 = t * t
    psi = 1.0 - t2 * t * (10.0 + t * (-15.0 + 6.0 * t))
    dpsi = t2 * (1.0 + t * (-2.0 + t)) * (-30.0 / band)
    d2psi = t * (60.0 + t * (-180.0 + 120.0 * t)) / -band**2
    h0 = d1 * v0 - d0 * v1
    rsafe = np.where(r > 0, r, 1.0)
    dh = dpsi * h0
    w = dh / rsafe
    rh0 = d0 / rsafe
    rh1 = d1 / rsafe
    r3 = rsafe**3
    gw0 = d2psi * rh0 * h0 / rsafe + dpsi * (-v1) / rsafe - dh * d0 / r3
    gw1 = d2psi * rh1 * h0 / rsafe + dpsi * v0 / rsafe - dh * d1 / r3
    p0 = dpsi * rh0
    p1 = dpsi * rh1
    return (w * d1 + psi * v0, -w * d0 + psi * v1,
            gw0 * d1 + p0 * v0, gw1 * d1 + w + p1 * v0,
            -gw0 * d0 - w + p0 * v1, -gw1 * d0 + p1 * v1)


def frozen_unit_minus(h2, a00, a01, a10, a11):
    """Oracle 2x2 entries p, q, r, s of I - h2 DX, row by row, and its determinant."""
    p, q = 1.0 - h2 * a00, -(h2 * a01)
    r, s = -(h2 * a10), 1.0 - h2 * a11
    return p, q, r, s, p * s - q * r


def oracle_flow(y0, y1, times, v0, v1, inner, band, want_jac=False, iters=None):
    """Oracle: the band kernel with exactly ``iters`` (default NEWTON_ITERS)
    Newton iterations per step and a full field evaluation for the residual,
    no early stop and no residual check.  Returns (y0, y1, jac, the largest
    midpoint residual over all steps and points)."""
    iters = perturbation.NEWTON_ITERS if iters is None else iters
    h2 = (0.5 / perturbation.MIDPOINT_STEPS) * np.asarray(times, dtype=float)
    h = 2.0 * h2
    j00, j01, j10, j11 = 1.0, 0.0, 0.0, 1.0
    worst = 0.0
    for _ in range(perturbation.MIDPOINT_STEPS):
        m0, m1 = y0, y1
        for _ in range(iters):
            X0, X1, *dx = frozen_field(m0, m1, v0, v1, inner, band)
            p, q, r, s, det = frozen_unit_minus(h2, *dx)
            b0 = m0 - y0 - h2 * X0
            b1 = m1 - y1 - h2 * X1
            m0, m1 = m0 - (s * b0 - q * b1) / det, m1 - (p * b1 - r * b0) / det
        X0, X1, *dx = frozen_field(m0, m1, v0, v1, inner, band)
        worst = max(worst, float(np.max(np.maximum(np.abs(m0 - y0 - h2 * X0),
                                                   np.abs(m1 - y1 - h2 * X1)))))
        if want_jac:
            p, q, r, s, det = frozen_unit_minus(h2, *dx)
            j00, j01, j10, j11 = (2.0 * ((s * j00 - q * j10) / det) - j00,
                                  2.0 * ((s * j01 - q * j11) / det) - j01,
                                  2.0 * ((p * j10 - r * j00) / det) - j10,
                                  2.0 * ((p * j11 - r * j01) / det) - j11)
        y0, y1 = y0 + h * X0, y1 + h * X1
    return y0, y1, ((j00, j01, j10, j11) if want_jac else None), worst


def fixed_count_flow(y0, y1, times, v0, v1, inner, band, want_jac=False):
    """``oracle_flow`` at NEWTON_ITERS, with the kernel's signature and check."""
    y0, y1, jac, worst = oracle_flow(y0, y1, times, v0, v1, inner, band, want_jac)
    assert worst <= perturbation.NEWTON_TOL
    return y0, y1, jac


def bits(x):
    """int64 bit patterns of a float array, so that -0.0 != +0.0."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def band_batch(rng, n, centre=(0.5, 0.5), inner=0.34, outer=0.46):
    """n fiber points on the band of a bump centred at ``centre``."""
    th = rng.uniform(0, 2 * math.pi, n)
    rr = rng.uniform(inner - 0.02, outer, n)
    return (np.asarray(centre) + rr[:, None] * np.stack([np.cos(th), np.sin(th)], -1)) % 1.0


# v1 of the fine and strong destroyed systems, and the largest |v| a
# BumpTranslation on the destroy fiber profile admits
FINE_V1, STRONG_V1 = DESTROYED["fine"][0].v1, DESTROYED["strong"][0].v1
_VMAX = (perturbation.FIBER_OUTER - perturbation.FIBER_INNER) / 2.0
LARGEST_V = (0.6 * _VMAX * (1 - 1e-9), -0.8 * _VMAX * (1 - 1e-9))


def newton_margin_residual(v, iters):
    """Largest oracle midpoint residual after ``iters`` Newton iterations over
    band points of the destroy fiber profile, base activations in
    [0.05, 0.999], both signs of t."""
    rng = np.random.default_rng(24)
    inner, outer = perturbation.FIBER_INNER, perturbation.FIBER_OUTER
    d = band_batch(rng, 400, inner=inner - _VMAX, outer=outer) - 0.5
    t = rng.uniform(0.05, 0.999, len(d))
    return max(oracle_flow(d[:, 0], d[:, 1], sign * t, *v, inner, outer - inner,
                           iters=iters)[3]
               for sign in (1.0, -1.0))


# sha256 over the bytes of grid, fixed_mask and max_displacement of the two
# postcondition scans (scan, scan_double) of FINE's and STRONG's destructions,
# taken at commit feae0bf; the same under OPENBLAS_CORETYPE=Prescott
SCAN_SHA256 = {
    "fine": ("5949e9d223a078de0442e2f282d1a7d62c8ec477b9b20cc8f35e5d3228002f57",
             "64af0d5efb6c367b38b13d005e038aeabfbbb8fd1d1d2e3e8085fbf94099b272"),
    "strong": ("0d03d5c5af6afa91ce80757ab4941a00f9d847a16d968b93d51523519aa2c55f",
               "2ac48914165b32a0807bb17689e20989f64a650d59ecdc06c59b7c804dc0bd37"),
}

@pytest.fixture(scope="module")
def bump(quad):
    return destroy_bump(quad)


@pytest.fixture(scope="module")
def fam(bump):
    """The bump over the identity family: ``fam.inverse(x, y)`` is h_x(y),
    ``fam.apply(x, y)`` is h_x^{-1}(y) and ``fam.jacobian`` is D(h_x^{-1})."""
    return PerturbedFamily(ConstantFamily(IdentityMap()), (bump,))


@pytest.fixture(scope="module")
def destroyed(id_sp, quad):
    return destroy_trivial_class(id_sp, quad, 0.05)


class TestBumpTranslation:
    def test_geometry_validation(self, quad):
        with pytest.raises(BumpEscape):
            destroy_bump(quad, v=(0.07, 0.0))   # |v| >= (outer - inner)/2
        with pytest.raises(BumpEscape):
            destroy_bump(quad, v=(0.0, 0.0))
        with pytest.raises(BumpEscape):
            destroy_bump(quad, v=(math.nan, 0.01))   # |v| is nan: every bound compares false
        w = quad.w1
        with pytest.raises(BumpEscape):
            BumpTranslation(base_center=w, base_bump=BumpProfile(0.2, 0.6),
                            fiber_center=wrap((0.5, 0.5)),
                            fiber_bump=BumpProfile(0.34, 0.46), v=(0.01, 0.0))

    def test_identity_off_base_support_bitwise(self, fam):
        ys = np.random.default_rng(0).random((100, 2))
        for h in (fam.inverse, fam.apply):
            assert np.array_equal(h((0.7, 0.2), ys), ys)

    def test_identity_off_fiber_support_bitwise(self, fam, quad):
        rng = np.random.default_rng(1)
        th = rng.uniform(0, 2 * math.pi, 100)
        ys = (0.5 + 0.48 * np.stack([np.cos(th), np.sin(th)], axis=-1)) % 1.0
        for h in (fam.inverse, fam.apply):
            assert np.array_equal(h(quad.w1, ys), ys)

    def test_plateau_exact_translation(self, bump, fam, quad):
        # full base bump at w1, points deep in the plateau
        rng = np.random.default_rng(2)
        th = rng.uniform(0, 2 * math.pi, 200)
        rr = rng.uniform(0, bump.fiber_bump.inner_radius - bump.v_norm, 200)
        ys = (0.5 + rr[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)) % 1.0
        out = fam.inverse(quad.w1, ys)
        expected = (ys + np.asarray(bump.v)) % 1.0
        assert np.max(torus_dist(out, expected)) < 1e-8

    def test_center_maps_to_center_plus_v(self, bump, fam, quad):
        out = fam.inverse(quad.w1, np.array([0.5, 0.5]))
        assert torus_dist(out, np.array([0.5, 0.5]) + bump.v) < 1e-8

    def test_partial_base_value_scales_translation(self, bump, fam, quad):
        xs = lift(quad.w1) + np.array([0.6 * bump.base_bump.outer_radius, 0.0])
        t = float(bump.base_value(xs))
        assert 0.0 < t < 1.0
        out = fam.inverse(xs, np.array([0.5, 0.5]))
        expected = (np.array([0.5, 0.5]) + t * np.asarray(bump.v)) % 1.0
        assert torus_dist(out, expected) < 1e-8

    def test_jacobian_determinant_everywhere(self, fam, quad):
        # Dh at full activation (the base value is 1 at w1), from the kernel
        rng = np.random.default_rng(3)
        ys = rng.random((1000, 2))
        _, jac = fam._h_action(quad.w1, ys, inverse=False, want_jac=True)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-8

    def test_jacobian_matches_finite_differences(self, fam, quad):
        rng = np.random.default_rng(4)
        th = rng.uniform(0, 2 * math.pi, 50)
        ys = (0.5 + 0.40 * np.stack([np.cos(th), np.sin(th)], axis=-1)) % 1.0
        _, jac = fam._h_action(quad.w1, ys, inverse=False, want_jac=True)
        h = 1e-7
        for axis in (0, 1):
            e = np.zeros(2)
            e[axis] = h
            fd = ((fam.inverse(quad.w1, ys + e)
                   - fam.inverse(quad.w1, ys - e) + 0.5) % 1 - 0.5) / (2 * h)
            assert np.max(np.abs(fd - jac[:, :, axis])) < 1e-6

    @pytest.mark.parametrize("inverse", [False, True])
    def test_jacobian_matches_finite_differences_partial_activation(self, bump, fam, quad,
                                                                    inverse):
        # the kernel's Cayley-product Jacobian is the derivative of the
        # family's map, on band points with base activation 0 < t < 1, both
        # directions
        rng = np.random.default_rng(11)
        fmap = fam.apply if inverse else fam.inverse
        for frac in (0.55, 0.7, 0.8):
            xs = lift(quad.w1) + np.array([0.0, frac * bump.base_bump.outer_radius])
            t = bump.base_value(xs)
            assert 0.0 < t < 1.0
            th = rng.uniform(0, 2 * math.pi, 40)
            rr = rng.uniform(0.30, 0.45, 40)
            ys = (0.5 + rr[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)) % 1.0
            _, jac = fam._h_action(xs, ys, inverse, want_jac=True)
            h = 1e-6
            for axis in (0, 1):
                e = np.zeros(2)
                e[axis] = h
                fd = ((fmap(xs, ys + e) - fmap(xs, ys - e) + 0.5) % 1
                      - 0.5) / (2 * h)
                assert np.max(np.abs(fd - jac[:, :, axis])) < 1e-7

    def test_batch_independent_bitwise(self, bump, quad):
        # a band point's image and Jacobian do not depend on its batch peers
        fam = PerturbedFamily(ConstantFamily(IdentityMap()), (bump,))
        w1 = lift(quad.w1)
        peer_x, peer_y = w1, np.array([0.5, 0.9])
        for frac, y in ((0.6, (0.5, 0.1)), (0.75, (0.88, 0.52)), (0.65, (0.2, 0.3))):
            x = w1 + np.array([frac * bump.base_bump.outer_radius, 0.0])
            assert 0.0 < float(bump.base_value(x)) < 1.0
            alone_x, alone_y = x[None], np.array([y])
            pair_x, pair_y = np.stack([x, peer_x]), np.stack([y, peer_y])
            assert np.array_equal(fam.apply(alone_x, alone_y)[0],
                                  fam.apply(pair_x, pair_y)[0])
            assert np.array_equal(fam.inverse(alone_x, alone_y)[0],
                                  fam.inverse(pair_x, pair_y)[0])
            assert np.array_equal(fam.jacobian(alone_x, alone_y)[0],
                                  fam.jacobian(pair_x, pair_y)[0])

    def test_single_base_point_matches_repeated_bitwise(self, bump, quad):
        # one x against many y gives the same bits as x repeated to y's shape
        fam = PerturbedFamily(ConstantFamily(IdentityMap()), (bump,))
        w1 = lift(quad.w1)
        ys = np.random.default_rng(12).random((300, 2))
        for x in (w1, w1 + np.array([0.6 * bump.base_bump.outer_radius, 0.0]),
                  np.array([0.7, 0.2])):   # plateau, band, off-support
            xs = np.broadcast_to(x, ys.shape)
            for method in (fam.apply, fam.inverse, fam.jacobian):
                assert np.array_equal(method(x, ys), method(xs, ys))

    def test_newton_residual_check_is_live(self, fam, quad, monkeypatch):
        monkeypatch.setattr(perturbation, "NEWTON_ITERS", 0)
        with pytest.raises(NoConvergence):
            fam.inverse(quad.w1, np.array([[0.5, 0.1]]))

    def test_nan_midpoint_fails_the_residual_check(self, fam, quad, monkeypatch):
        # NaN > tol is False: a NaN midpoint must raise NoConvergence, not
        # slip through to the wrap
        def nan_field(d0, d1, v0, v1, nv1, inner, band, want_dx=True):
            nan = np.full(np.shape(d0), np.nan)
            return (nan,) * (6 if want_dx else 2)

        monkeypatch.setattr(perturbation, "_field", nan_field)
        for want_jac in (False, True):
            with pytest.raises(NoConvergence):
                fam._h_action(quad.w1, np.array([[0.5, 0.1]]), inverse=False,
                              want_jac=want_jac)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_exact_stop_matches_fixed_count_kernel_bitwise(self, quad, monkeypatch,
                                                           inverse):
        # band points of two bumps at partial activation: the stop at a
        # bitwise fixed point gives the same points and Jacobians as
        # NEWTON_ITERS full iterations; ``inverse`` flips the sign of t
        rng = np.random.default_rng(21)
        b1 = destroy_bump(quad, 1, v=(0.03, 0.012))
        b2 = destroy_bump(quad, 2, v=(-0.02, 0.035), fiber_center=(0.1, 0.85))
        ys = np.concatenate([band_batch(rng, 60), band_batch(rng, 60, (0.1, 0.85))])
        owner = np.repeat([0, 1], 60)
        params = tuple(p[owner] for p in PerturbedFamily(
            ConstantFamily(IdentityMap()), (b1, b2))._fiber_params)
        t = rng.uniform(0.05, 0.95, len(ys)) * (-1.0 if inverse else 1.0)
        got = perturbation._bump_fiber_action(params, t, ys, want_jac=True)
        got_map = perturbation._bump_fiber_action(params, t, ys)
        monkeypatch.setattr(perturbation, "_flow", fixed_count_flow)
        want = perturbation._bump_fiber_action(params, t, ys, want_jac=True)
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))
        assert np.array_equal(bits(got_map), bits(want[0]))
        assert not np.array_equal(want[0], ys)

    def test_exact_stop_fires(self, monkeypatch):
        # fewer full field evaluations than NEWTON_ITERS + 1 per step on one
        # band batch: the Newton loop stopped early in some step; the steps
        # that never stopped evaluate X alone, unless a Jacobian is wanted
        field = perturbation._field
        counts = []

        def counting_field(*args, want_dx=True):
            counts[-1][want_dx] += 1
            return field(*args, want_dx=want_dx)

        monkeypatch.setattr(perturbation, "_field", counting_field)
        d = band_batch(np.random.default_rng(22), 64) - 0.5
        t = np.full(len(d), 0.7)
        for want_jac in (False, True):
            counts.append({True: 0, False: 0})
            perturbation._flow(d[:, 0], d[:, 1], t, 0.03, 0.012, 0.34, 0.12,
                               want_jac=want_jac)
        plain, with_jac = counts
        assert plain[True] < (perturbation.NEWTON_ITERS + 1) * perturbation.MIDPOINT_STEPS
        assert plain[False] > 0
        assert with_jac == {True: plain[True] + plain[False], False: 0}

    def test_field_matches_frozen_field(self):
        # X bitwise; DX by value: the rewritten DX10 may give an exact zero
        # the other sign where psi is flat (plateau, outside), which the
        # kernel only adds to a nonzero or +0 partner, so no result changes
        rng = np.random.default_rng(23)
        d = band_batch(rng, 200, inner=0.0, outer=0.5) - 0.5
        d[:2] = 0.0                          # r = 0
        for v0, v1, inner, band in ((0.03, 0.012, 0.34, 0.12),
                                    (rng.uniform(-0.04, 0.04, 200), rng.uniform(-0.04, 0.04, 200),
                                     rng.uniform(0.3, 0.35, 200), rng.uniform(0.1, 0.12, 200))):
            got = perturbation._field(d[:, 0], d[:, 1], v0, v1, -v1, inner, band)
            want = frozen_field(d[:, 0], d[:, 1], v0, v1, inner, band)
            for g, w in zip(got[:2], want[:2]):
                assert np.array_equal(bits(g), bits(w))
            for g, w in zip(got[2:], want[2:]):
                assert np.array_equal(g, w)
            x_only = perturbation._field(d[:, 0], d[:, 1], v0, v1, -v1, inner, band,
                                         want_dx=False)
            for g, w in zip(x_only, want[:2]):
                assert np.array_equal(bits(g), bits(w))

    @pytest.mark.parametrize("v", [FINE_V1, STRONG_V1, LARGEST_V],
                             ids=["fine", "strong", "largest"])
    def test_newton_count_keeps_a_factor_100_margin(self, quad, v):
        # after NEWTON_ITERS iterations the midpoint residual is at least 100
        # times below NEWTON_TOL, on band points at partial activation, both
        # signs of t, up to the largest translation a BumpTranslation admits
        destroy_bump(quad, v=v)   # admitted on the destroy fiber profile
        assert newton_margin_residual(v, perturbation.NEWTON_ITERS) \
            <= perturbation.NEWTON_TOL / 100

    def test_newton_margin_test_has_teeth(self):
        # one iteration fewer misses the factor (and NEWTON_TOL itself)
        for v in (STRONG_V1, LARGEST_V):
            assert newton_margin_residual(v, 2) > perturbation.NEWTON_TOL

    def test_inverse_roundtrip(self, fam, quad):
        rng = np.random.default_rng(5)
        ys = rng.random((500, 2))
        fwd = fam.inverse(quad.w1, ys)
        assert np.max(torus_dist(fam.apply(quad.w1, fwd), ys)) < 1e-12

    def test_area_preservation_mixed_batch(self, bump, quad):
        # 10^4 random (x, y) pairs through the perturbed family variant
        fam = PerturbedFamily(ConstantFamily(IdentityMap()), (bump,))
        rng = np.random.default_rng(10)
        xs = rng.random((10_000, 2))
        # force a few hundred base points into the bump support
        xs[:400] = (lift(quad.w1) + rng.uniform(-1, 1, (400, 2))
                    * bump.base_bump.outer_radius) % 1.0
        ys = rng.random((10_000, 2))
        jac = fam.jacobian(xs, ys)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-10

    def test_two_bumps_in_one_batch_match_each_point_alone_bitwise(self, quad):
        # one kernel call carries per-point fiber centre, v and profile; each
        # point gets the bits of its own bump applied to it alone
        b1 = destroy_bump(quad, 1, v=(0.03, 0.012), fiber_center=(0.5, 0.5))
        b2 = replace(destroy_bump(quad, 2, v=(-0.021, 0.034), fiber_center=(0.1, 0.85)),
                     fiber_bump=BumpProfile(0.3, 0.42))
        fam = PerturbedFamily(ConstantFamily(IdentityMap()), (b1, b2))
        rng = np.random.default_rng(13)
        xs, ys, owner = [], [], []
        for bt in (b1, b2):
            c, outer = lift(bt.base_center), bt.base_bump.outer_radius
            for frac in (0.0, 0.6, 0.7, 0.8):   # plateau and band of the base bump
                th = rng.uniform(0, 2 * math.pi, 6)
                x = (c + frac * outer * np.stack([np.cos(th), np.sin(th)], axis=-1)) % 1.0
                # fiber points on the band, in the plateau and off the support
                rr = rng.uniform(0.2, 0.5, 6)
                phi = rng.uniform(0, 2 * math.pi, 6)
                y = (lift(bt.fiber_center)
                     + rr[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)) % 1.0
                xs.append(x)
                ys.append(y)
                owner += [bt] * 6
        xs.append(np.array([[0.7, 0.2], [0.3, 0.6]]))   # off both supports
        ys.append(np.array([[0.5, 0.45], [0.12, 0.8]]))
        owner += [b1, b2]
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        order = rng.permutation(len(xs))   # interleave the two bumps' points
        xs, ys, owner = xs[order], ys[order], [owner[k] for k in order]
        t = np.array([float(bt.base_value(x)) for bt, x in zip(owner, xs)])
        assert np.any(t == 1.0) and np.any((t > 0) & (t < 1.0)) and np.any(t == 0.0)
        fwd, back, jac = fam.apply(xs, ys), fam.inverse(xs, ys), fam.jacobian(xs, ys)
        # a one-bump family at one base point runs the kernel on scalar parameters
        alone = {bt: PerturbedFamily(ConstantFamily(IdentityMap()), (bt,)) for bt in (b1, b2)}
        for k, bt in enumerate(owner):
            one = alone[bt]
            assert np.array_equal(fwd[k], one.apply(xs[k], ys[k:k + 1])[0])
            assert np.array_equal(back[k], one.inverse(xs[k], ys[k:k + 1])[0])
            assert np.array_equal(jac[k], one.jacobian(xs[k], ys[k:k + 1])[0])
        moved = ~np.all(fwd == ys, axis=-1)
        assert np.any(moved) and not np.all(moved)

    def test_rejection_sampled_support_exactness(self, bump, quad):
        rng = np.random.default_rng(6)
        xs = rng.random((300, 2))
        ys = rng.random((300, 2))
        outside = bump.base_value(xs) == 0.0
        fam = PerturbedFamily(ConstantFamily(IdentityMap()), (bump,))
        out = fam.apply(xs, ys)
        assert np.array_equal(out[outside], ys[outside])


class TestPerturbSkew:
    def test_empty_list_unchanged(self, id_sp):
        assert perturb_skew(id_sp, []) is id_sp

    def test_overlap_rejected(self, id_sp, quad):
        b1 = destroy_bump(quad, 1)
        b2 = destroy_bump(quad, 1, v=(0.01, 0.0))
        with pytest.raises(OverlapError):
            perturb_skew(id_sp, [b1, b2])

    def test_overlap_rejected_on_direct_family(self, quad):
        # the family itself refuses overlapping supports: at most one bump
        # may be active over a base point
        b1 = destroy_bump(quad, 1)
        b2 = destroy_bump(quad, 1, v=(0.01, 0.0))
        with pytest.raises(OverlapError):
            PerturbedFamily(ConstantFamily(IdentityMap()), (b1, b2))
        PerturbedFamily(ConstantFamily(IdentityMap()), (b1, destroy_bump(quad, 2)))

    def test_overlap_with_earlier_bumps_rejected(self, id_sp, quad):
        # post-composing one bump at a time is checked like one call with both
        b1 = destroy_bump(quad, 1)
        b2 = destroy_bump(quad, 1, v=(0.01, 0.0))
        with pytest.raises(OverlapError):
            perturb_skew(perturb_skew(id_sp, [b1]), [b2])
        b3 = destroy_bump(quad, 2)
        chained = perturb_skew(perturb_skew(id_sp, [b1]), [b3])
        assert chained.family == perturb_skew(id_sp, [b1, b3]).family

    def test_conservativity_after_compositions(self, id_sp, quad):
        # |det - 1| <= 1e-8 per map; <= 1e-7 after the 1000-step cocycle
        # (fiber maps composed along a base orbit, the composition dynamics
        # actually performs)
        bump = destroy_bump(quad, v=(0.045, 0.018))
        sp = perturb_skew(id_sp, [bump])
        rng = np.random.default_rng(7)
        ys = rng.random((200, 2))
        x0 = np.array([0.377, 0.522])

        def cocycle_map(pts):
            out = pts
            x = x0.copy()
            for _ in range(1000):
                out = sp.family.apply(x, out)
                x = sp.base.apply(x)
            return out

        h = 2e-7
        ex, ey = np.array([h, 0.0]), np.array([0.0, h])
        du = ((cocycle_map((ys + ex) % 1) - cocycle_map((ys - ex) % 1) + 0.5) % 1 - 0.5) / (2 * h)
        dv = ((cocycle_map((ys + ey) % 1) - cocycle_map((ys - ey) % 1) + 0.5) % 1 - 0.5) / (2 * h)
        det = du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-7

    def test_remark_equal_relations(self, id_sp, quad):
        """The four holonomy identities: three legs unchanged, one composes the bump."""
        bump = destroy_bump(quad, 1)
        sp_g = perturb_skew(id_sp, [bump])
        grid = np.random.default_rng(8).random((400, 2))
        x = lift(quad.x)
        tol = 1e-9

        # unchanged: Pi^u(w1 -> p1) (backward orbits avoid the support)
        h_f = make_holonomy(id_sp, "unstable", lift(quad.p1), quad.u_w[0], 0.0)
        h_g = make_holonomy(sp_g, "unstable", lift(quad.p1), quad.u_w[0], 0.0)
        assert np.max(torus_dist(h_f(grid), h_g(grid))) < 10 * tol

        # unchanged: Pi^s(z1 -> p1)
        h_f = make_holonomy(id_sp, "stable", lift(quad.p1), quad.s_z[0], 0.0)
        h_g = make_holonomy(sp_g, "stable", lift(quad.p1), quad.s_z[0], 0.0)
        assert np.max(torus_dist(h_f(grid), h_g(grid))) < 10 * tol

        # unchanged: Pi^u(x -> z1)
        h_f = make_holonomy(id_sp, "unstable", x, 0.0, quad.u_z[0])
        h_g = make_holonomy(sp_g, "unstable", x, 0.0, quad.u_z[0])
        assert np.max(torus_dist(h_f(grid), h_g(grid))) < 10 * tol

        # composed: Pi_g^s(w1 -> x) = Pi_f^s(w1 -> x) o h^{-1}
        h_f = make_holonomy(id_sp, "stable", x, quad.s_w[0], 0.0)
        h_g = make_holonomy(sp_g, "stable", x, quad.s_w[0], 0.0)
        expected = h_f(sp_g.family.apply(quad.w1, grid))
        assert np.max(torus_dist(h_g(grid), expected)) < 10 * tol

    def test_still_dominated_for_small_v(self, id_sp, quad):
        bump = destroy_bump(quad, v=(0.008, 0.004))
        sp = perturb_skew(id_sp, [bump])
        est = certify_partial_hyperbolicity(sp, 16)
        assert est.dominated

    def test_perturbed_loop_differs_by_bump_translation(self, id_sp, quad, destroyed):
        # on the certified region the new loop map is the plateau translation -v
        sp_g = destroyed.skew_product
        L = loop_map(sp_g, quad, 1)
        pts = destroyed.region.grid(8)
        disp = wrapped_diff(L(pts), pts)
        v1 = np.asarray(destroyed.v1)
        assert np.max(np.hypot(disp[:, 0] + v1[0], disp[:, 1] + v1[1])) < 1e-7


class TestDestroy:
    def test_epsilon_validation(self, id_sp, quad):
        with pytest.raises(ValueError):
            destroy_trivial_class(id_sp, quad, 0.0)

    def test_scans_empty(self, destroyed):
        assert destroyed.scan.empty
        assert destroyed.scan_double.empty

    def test_displacement_at_least_half_v(self, destroyed, quad):
        sp_g = destroyed.skew_product
        gens = standard_generators(sp_g, [quad])
        scan = trivial_set_scan(sp_g, [quad], 24, 1e-6, region=destroyed.region,
                                generators=gens)
        v_norm = math.hypot(*destroyed.v1)
        assert scan.empty
        assert np.min(scan.max_displacement) >= v_norm / 2

    def test_control_scan_all_trivial(self, id_sp, quad, destroyed):
        control = trivial_set_scan(id_sp, [quad], 32, 1e-6, region=destroyed.region)
        assert control.all_trivial

    def test_support_avoids_x_and_p_fibers(self, id_sp, quad, destroyed):
        sp_g = destroyed.skew_product
        ys = np.random.default_rng(9).random((100, 2))
        for base_pt in (quad.x, quad.p1, quad.p2, *quad.p1_orbit, *quad.p2_orbit):
            b = np.asarray(base_pt, float).reshape(2)
            assert np.array_equal(sp_g.family.apply(b, ys), ys)

    def test_two_transverse_translations_fill_2d_patch(self, destroyed, quad):
        # orbit of a plateau seed has positive convex-hull area at budget K
        from skewlab.accessibility import explore_classes, standard_generators

        sp_g = destroyed.skew_product
        gens = standard_generators(sp_g, [quad])
        sample, = explore_classes(sp_g, [quad], destroyed.region.center, K=2000,
                                  word_length=14, generators=gens)
        pts = sample.points
        assert len(pts) > 100

        def hull_area(points):
            pts_sorted = points[np.lexsort((points[:, 1], points[:, 0]))]

            def half(iterable):
                out = []
                for p in iterable:
                    while len(out) >= 2:
                        a, b = out[-1] - out[-2], p - out[-2]
                        if a[0] * b[1] - a[1] * b[0] > 0:
                            break
                        out.pop()
                    out.append(p)
                return out

            lower = half(pts_sorted)
            upper = half(pts_sorted[::-1])
            hull = np.array(lower[:-1] + upper[:-1])
            x, y = hull[:, 0], hull[:, 1]
            return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

        assert hull_area(pts) > 0.005

    def test_translations_not_parallel(self, destroyed):
        v1, v2 = np.asarray(destroyed.v1), np.asarray(destroyed.v2)
        cross = abs(v1[0] * v2[1] - v1[1] * v2[0])
        assert cross > 0.25 * np.linalg.norm(v1) * np.linalg.norm(v2)

    def test_deterministic_given_seed(self, id_sp, quad):
        r1 = destroy_trivial_class(id_sp, quad, 0.04,
                                   DestroyParams(rng_seed=3, scan_grid_n=16))
        r2 = destroy_trivial_class(id_sp, quad, 0.04,
                                   DestroyParams(rng_seed=3, scan_grid_n=16))
        assert r1.v1 == r2.v1 and r1.v2 == r2.v2

    def test_plateau_searches_make_two_map_calls(self, id_sp, quad, monkeypatch):
        # every seed of a plateau search sees a translation: its Newton step
        # (one map call) finds the derivative singular, so the search stops
        # after the grid's call and that one
        calls = []
        search = perturbation.find_fixed_points

        def counted(map_fn, *args, **kwargs):
            calls.append(0)

            def map_counted(pts):
                calls[-1] += 1
                return map_fn(pts)

            return search(map_counted, *args, **kwargs)

        monkeypatch.setattr(perturbation, "find_fixed_points", counted)
        destroy_trivial_class(id_sp, quad, 0.03)
        assert calls == [2] * 5

    def test_generators_are_the_standard_generators(self, id_sp, quad, destroyed):
        # destroy's unperturbed generators, leg by leg, as standard_generators
        # builds them at destroy's holonomy tol
        want = standard_generators(id_sp, [quad], tol=DestroyParams().holonomy_tol)
        assert len(destroyed.generators) == len(want) == 2
        for got, ref in zip(destroyed.generators, want):
            assert len(got.maps) == len(ref.maps) == 4
            for g, r in zip(got.maps, ref.maps):
                assert np.array_equal(g.from_pts, r.from_pts)
                assert np.array_equal(g.to_pts, r.to_pts)
                assert (g.truncation_n, g.certified_tol, g.increments) == \
                    (r.truncation_n, r.certified_tol, r.increments)

    @pytest.mark.parametrize("name", sorted(SCAN_SHA256))
    def test_postcondition_scans_bitwise(self, request, name):
        res = request.getfixturevalue(f"destroyed_{name}")
        digests = []
        for scan in (res.scan, res.scan_double):
            h = hashlib.sha256()
            for arr in (scan.grid, scan.fixed_mask, scan.max_displacement):
                h.update(np.ascontiguousarray(arr).tobytes())
            digests.append(h.hexdigest())
        assert tuple(digests) == SCAN_SHA256[name]

    def test_postcondition_fails_on_the_unperturbed_system(self, id_sp, quad, destroyed_fine,
                                                            monkeypatch):
        # over A x id every grid point is fixed by every generator; the
        # failing first scan stops the postcondition before the double one
        sizes = []
        scan = perturbation.trivial_set_scan

        def recorded(sp, quads, n, *args, **kwargs):
            sizes.append(n)
            return scan(sp, quads, n, *args, **kwargs)

        monkeypatch.setattr(perturbation, "trivial_set_scan", recorded)
        region = destroyed_fine.region
        with pytest.raises(PostconditionFailure) as err:
            perturbation._postcondition(id_sp, [quad], region, DestroyParams())
        assert np.array_equal(err.value.data, region.grid(32))
        assert sizes == [32]

    def test_draw_fails_after_max_draws(self, id_sp, quad):
        # over A x id the loop is the identity, so at |v| = 0 the shifted loop
        # is identity-like at every draw and no draw is regular
        maps = loop_map(id_sp, quad, 1).maps
        loop = LoopMap(maps[-1:] + maps[:-1])
        rng = np.random.default_rng(0)
        with pytest.raises(RegularValueFailure):
            perturbation._draw_translation(rng, loop, perturbation.FIBER_ANCHOR, 0.0, 1e-8,
                                           0.0, 0.0, 2.0 * math.pi)
        fresh = np.random.default_rng(0)
        for _ in range(perturbation.MAX_DRAWS):
            fresh.uniform()
        assert rng.bit_generator.state == fresh.bit_generator.state
