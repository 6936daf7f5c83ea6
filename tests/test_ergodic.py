import math
import tracemalloc

import numpy as np
import pytest

from skewlab import ergodic
from skewlab.ergodic import _scan_event_driven, _scan_generic, ergodic_scan, observable
from skewlab.fiber import (ConstantFamily, IdentityMap, RotationFamily, SkewProduct,
                           VectorField)
from skewlab.perturbation import BumpTranslation, PerturbedFamily, perturb_skew
from skewlab.torus import BumpProfile, lift, mod1, wrap

from systems import destroy_bump


@pytest.fixture(scope="module")
def irrational_sp(cat):
    tau = (math.sqrt(2) - 1.0, (math.sqrt(3) - 1.0) / 2.0)
    return SkewProduct(base=cat, family=RotationFamily(VectorField(tau)))


@pytest.fixture(scope="module")
def destroyed_sp(id_sp, quad):
    """Shaped like the strong destroyed system: bumps at the quad's w_1, w_2
    whose fiber supports are centred at (1/2, 1/2) and (0, 0)."""
    return perturb_skew(id_sp, [destroy_bump(quad, 1, (-0.0334, -0.0389), (0.5, 0.5)),
                                destroy_bump(quad, 2, (0.0321, -0.0400), (0.0, 0.0))])


@pytest.fixture(scope="module")
def three_bump_sp(destroyed_sp):
    """The destroyed system plus a third bump on a disjoint base support."""
    third = BumpTranslation(base_center=wrap((0.5, 0.5)), base_bump=BumpProfile(0.05, 0.1),
                            fiber_center=wrap((0.25, 0.75)),
                            fiber_bump=BumpProfile(0.34, 0.46), v=(0.02, 0.03))
    return perturb_skew(destroyed_sp, [third])


@pytest.fixture(scope="module")
def seam_bump():
    """A base bump whose support straddles both seams of the base torus."""
    return BumpTranslation(base_center=wrap((0.995, 0.005)), base_bump=BumpProfile(0.03, 0.06),
                           fiber_center=wrap((0.25, 0.75)),
                           fiber_bump=BumpProfile(0.3, 0.42), v=(0.02, -0.03))


@pytest.fixture(scope="module")
def seam_sp(destroyed_sp, seam_bump):
    return perturb_skew(destroyed_sp, [seam_bump])


class TestBirkhoff:
    # Birkhoff averages (1/n) sum_{k<n} obs(F^k(x, y)) along exact float
    # orbits, one per initial condition: the generic scan's final averages
    XS = np.array([[0.1, 0.2], [0.15, 0.25], [0.7, 0.05]])
    YS = np.array([[0.3, 0.4], [0.35, 0.45], [0.9, 0.6]])

    def test_constant_observable(self, id_sp):
        n = 50
        sigma, avgs = _scan_generic(id_sp, lambda xs, ys: np.ones(len(xs)),
                                    self.XS, self.YS, n, [n])
        assert np.all(avgs == 1.0) and sigma == [0.0]

    def test_frozen_fiber_observable(self, id_sp):
        expected = np.cos(2 * math.pi * self.YS[:, 0])
        for n in (1, 10, 200):
            _, avgs = _scan_generic(id_sp, observable("fiber_cos"), self.XS, self.YS,
                                    n, [n])
            np.testing.assert_allclose(avgs, expected, rtol=0, atol=1e-12)

    def test_invariance_up_to_boundary_terms(self, irrational_sp):
        # avg(obs o F) - avg(obs) == (obs(F^n) - obs(init)) / n exactly
        sp = irrational_sp
        fn = observable("fiber_cos")
        n = 64

        def obs_after_f(xs, ys):
            return fn(*sp.step(xs, ys))

        _, a1 = _scan_generic(sp, obs_after_f, self.XS, self.YS, n, [n])
        _, a0 = _scan_generic(sp, fn, self.XS, self.YS, n, [n])
        x_end, y_end = self.XS, self.YS
        for _ in range(n):
            x_end, y_end = sp.step(x_end, y_end)
        boundary = (fn(x_end, y_end) - fn(self.XS, self.YS)) / n
        np.testing.assert_allclose(a1 - a0, boundary, rtol=0, atol=1e-14)

    def test_n_validation(self, id_sp):
        for n in (0, -3):
            with pytest.raises(ValueError):
                ergodic_scan(id_sp, "fiber_cos", n, 5, seed=0)

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            observable("nope")


class TestErgodicScan:
    def test_product_shows_no_decay(self, id_sp):
        rep = ergodic_scan(id_sp, "fiber_cos", 2000, 20, seed=1)
        assert rep.verdict == "NON-ERGODIC-LIKE"
        assert rep.sigma[-1] == pytest.approx(rep.sigma[0], rel=1e-9)

    def test_irrational_rotation_decays(self, irrational_sp):
        rep = ergodic_scan(irrational_sp, "fiber_cos", 8000, 20, seed=1)
        assert rep.verdict == "ERGODIC-LIKE"
        assert rep.sigma[-1] < rep.sigma[0] / 1.5

    def test_seed_determinism_bitwise(self, irrational_sp):
        r1 = ergodic_scan(irrational_sp, "fiber_cos", 500, 10, seed=7)
        r2 = ergodic_scan(irrational_sp, "fiber_cos", 500, 10, seed=7)
        assert r1.sigma == r2.sigma
        assert r1.per_ic_averages == r2.per_ic_averages

    def test_checkpoints(self, id_sp):
        rep = ergodic_scan(id_sp, "base_cos", 1000, 5, seed=0)
        assert rep.checkpoints == (250, 500, 1000)
        assert len(rep.sigma) == 3

    def test_mic_validation(self, id_sp):
        with pytest.raises(ValueError):
            ergodic_scan(id_sp, "fiber_cos", 100, 1, seed=0)

    def test_event_path_matches_generic(self, destroyed_sp, three_bump_sp, seam_sp,
                                        monkeypatch):
        # the bump map of a point does not depend on its batch, so the event
        # path (one batch per bump visit rank in a block) and the generic loop
        # (one batch per time step) agree bitwise, whatever the blocks: short
        # ones carry fiber states and sums across most events, and blocks of
        # 250 and 100 steps end on checkpoints
        fn = observable("fiber_cos")
        for sp, n, m, blocks in ((destroyed_sp, 400, 8, [None, (1, 1), (7, 3), (250, 100)]),
                                 (destroyed_sp, 2000, 20, [None, (250, 100)]),
                                 (three_bump_sp, 2000, 20, [None, (250, 100)]),
                                 (seam_sp, 2000, 20, [None, (250, 100)])):
            rng = np.random.default_rng(1)
            xs, ys = rng.random((m, 2)), rng.random((m, 2))
            checkpoints = [n // 4, n // 2, n]
            sigma_gen, avg_gen = _scan_generic(sp, fn, xs, ys, n, checkpoints)
            # every bump fires and some fibers moved: the orbits are not frozen
            orbit = [xs]
            for _ in range(n - 1):
                orbit.append(sp.base.apply(orbit[-1]))
            assert all(np.any(b.base_value(np.array(orbit)) > 0) for b in sp.family.bumps)
            assert np.max(np.abs(avg_gen - fn(xs, ys))) > 1e-3
            for block in blocks:
                with monkeypatch.context() as mp:
                    if block is not None:
                        mp.setattr(ergodic, "SCAN_BLOCK_POINTS", block[0] * m)
                        mp.setattr(ergodic, "SUM_BLOCK_POINTS", block[1] * m)
                    sigma_ev, avg_ev = _scan_event_driven(sp, fn, xs, ys, n, checkpoints)
                np.testing.assert_array_equal(sigma_ev, sigma_gen)
                np.testing.assert_array_equal(avg_ev, avg_gen)

    def test_event_scan_makes_one_kernel_call_per_event_rank(self, destroyed_sp,
                                                            monkeypatch):
        # n = 400 and m = 8 make one block, whose j-th events of all initial
        # conditions go through the bump kernel together: as many calls as
        # the most events any initial condition has
        xs = np.random.default_rng(1).random((8, 2))   # ergodic_scan's draw
        fired = ~destroyed_sp.family.quiet(destroyed_sp.base.orbit(xs, 400)[:400])
        events = fired.sum(axis=0)
        calls = []
        h_action = PerturbedFamily._h_action
        monkeypatch.setattr(PerturbedFamily, "_h_action",
                            lambda self, *a, **kw: calls.append(1) or h_action(self, *a, **kw))
        ergodic_scan(destroyed_sp, "fiber_cos", 400, 8, seed=1)
        assert 1 < events.max() < events.sum()
        assert len(calls) == events.max()

    def test_firing_prefilter_matches_base_value_at_the_support_edge(self, destroyed_sp,
                                                                     seam_bump):
        # points at per-axis offsets of exactly outer, just inside it and just
        # outside it, on both sides of each axis (across the seam for the
        # seam bump), plus uniform points
        for bt in destroyed_sp.family.bumps + (seam_bump,):
            outer = bt.base_bump.outer_radius
            offs = [outer, np.nextafter(outer, 0.0), outer + 1e-10, outer - 1e-3, 0.5 * outer]
            pts = [lift(bt.base_center) + sign * o * np.eye(2)[axis]
                   for o in offs for sign in (1.0, -1.0) for axis in (0, 1)]
            pts = np.concatenate([mod1(np.array(pts)),
                                  np.random.default_rng(2).random((3000, 2))])
            orbit = pts.reshape(-1, 4, 2)   # (steps, ICs, 2)
            want = bt.base_value(orbit) > 0
            fam = PerturbedFamily(ConstantFamily(IdentityMap()), (bt,))
            assert np.array_equal(~fam.quiet(orbit), want)
            assert want.any() and not want.all()
        fam = destroyed_sp.family
        orbit = np.random.default_rng(3).random((3000, 5, 2))
        want = (fam.bumps[0].base_value(orbit) > 0) | (fam.bumps[1].base_value(orbit) > 0)
        assert np.array_equal(~fam.quiet(orbit), want)

    def test_scan_memory_does_not_grow_with_n(self, id_sp):
        # one (n, m, 2) orbit of this scan takes 102 MB; a family that never
        # fires keeps the event path at blocks of SUM_BLOCK_POINTS (1 MB of
        # orbit), and one that fires at SCAN_BLOCK_POINTS (32 MB)
        tracemalloc.start()
        try:
            rep = ergodic_scan(id_sp, "fiber_cos", 100_000, 64, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.per_ic_averages) == 64
        assert peak < 16 * 2**20

    def test_small_frozen_scan_takes_event_path(self, destroyed_sp, monkeypatch):
        def generic(*args):
            raise AssertionError("identity-fiber bump system took the generic path")

        monkeypatch.setattr(ergodic, "_scan_generic", generic)
        rep = ergodic_scan(destroyed_sp, "fiber_cos", 400, 8, seed=1)
        assert len(rep.per_ic_averages) == 8

    def test_quiet_hook_decides_the_path(self, cat, destroyed_sp, monkeypatch):
        def fail(*args):
            raise AssertionError("scan took the path its family's quiet hook rules out")

        with monkeypatch.context() as mp:   # a family that cannot say: generic loop
            asked, generic = [], ergodic._scan_generic
            mp.setattr(PerturbedFamily, "quiet", lambda self, x: asked.append(x.shape))
            mp.setattr(ergodic, "_scan_generic", lambda *a: asked.append("generic") or generic(*a))
            ergodic_scan(destroyed_sp, "fiber_cos", 400, 8, seed=1)
            # asked once, for the first block of the orbit
            assert asked == [(400, 8, 2), "generic"]
        # a mask takes the event path, even on a family that keeps the default;
        # the zero translation is the identity, so the mask is true
        zero = SkewProduct(base=cat, family=RotationFamily(VectorField((0.0, 0.0))))
        want = ergodic_scan(zero, "fiber_cos", 400, 8, seed=1)
        monkeypatch.setattr(RotationFamily, "quiet",
                            lambda self, x: np.ones(np.shape(x)[:-1], dtype=bool))
        monkeypatch.setattr(ergodic, "_scan_generic", fail)
        assert ergodic_scan(zero, "fiber_cos", 400, 8, seed=1) == want
