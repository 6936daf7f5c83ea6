from dataclasses import replace

import numpy as np
import pytest

from skewlab.errors import BrokenPath, NoConvergence
from skewlab.fiber import (ConstantFamily, FieldBump, IdentityMap, LewowiczFamily,
                           RotationFamily, ScalarField, SkewProduct, VectorField)
from skewlab.accessibility import LoopMap, standard_generators
from skewlab.holonomy import N_MAX_COMPOSITIONS, _increments, leaf_holonomy, make_holonomy
from skewlab.perturbation import BumpTranslation, PerturbedFamily, _bump_fiber_action
from skewlab.torus import BumpProfile, lift, mod1, torus_dist, wrap

from oracles import loud_steps, measured_decay_ratio, shadow_check
from systems import DESTROYED


@pytest.fixture(scope="module")
def rot_sp(cat):
    bump = FieldBump(center=wrap((0.31, 0.64)), profile=BumpProfile(0.07, 0.22),
                     amplitude=(0.21, -0.13))
    return SkewProduct(base=cat, family=RotationFamily(VectorField((0.0, 0.0), (bump,))))


def stable_pair(cat, x=(0.13, 0.41), offset=0.12):
    xa = np.asarray(x, float)
    return xa, (xa + offset * cat.e_s) % 1.0


def unstable_pair(cat, x=(0.13, 0.41), offset=0.12):
    xa = np.asarray(x, float)
    return xa, (xa + offset * cat.e_u) % 1.0


PAIRS = {"stable": stable_pair, "unstable": unstable_pair}

GRID = np.stack(np.meshgrid((np.arange(32) + 0.5) / 32, (np.arange(32) + 0.5) / 32,
                            indexing="ij"), axis=-1).reshape(-1, 2)


class TestConstantFamily:
    def test_identity_with_zero_truncation(self, id_sp, cat):
        x, y = stable_pair(cat)
        h = leaf_holonomy(id_sp, "stable", x, y)
        assert h.truncation_n == 0
        assert np.array_equal(h(GRID), GRID)

    def test_unstable_identity(self, id_sp, cat):
        x, y = unstable_pair(cat)
        h = leaf_holonomy(id_sp, "unstable", x, y)
        assert np.array_equal(h(GRID), GRID)

    def test_self_holonomy_is_identity(self, rot_sp, cat):
        x, _ = stable_pair(cat)
        h = leaf_holonomy(rot_sp, "stable", x, x)
        assert np.max(torus_dist(h(GRID), GRID)) == 0.0


class TestLeafMembership:
    def test_off_leaf_rejected(self, rot_sp):
        with pytest.raises(BrokenPath):
            leaf_holonomy(rot_sp, "stable", (0.1, 0.1), (0.2, 0.15))

    def test_unstable_offset_on_stable_leaf_rejected(self, rot_sp, cat):
        x, y = stable_pair(cat)
        with pytest.raises(BrokenPath):
            leaf_holonomy(rot_sp, "unstable", x, y)


class TestRotationFamily:
    def test_stable_series_oracle(self, rot_sp, cat):
        # closed form: H(v) = v + sum_{n>=0} (tau(A^n x) - tau(A^n y))
        x, y = stable_pair(cat)
        h = leaf_holonomy(rot_sp, "stable", x, y, tol=1e-10)
        n = 70
        xs = cat.orbit(x, n)
        lam = cat.lambda_s ** np.arange(n + 1)
        ys = (xs + np.multiply.outer(0.12 * lam, cat.e_s)) % 1.0
        series = np.sum(rot_sp.family.field(xs) - rot_sp.family.field(ys), axis=0)
        for v in (np.array([0.2, 0.9]), np.array([0.66, 0.05])):
            err = torus_dist(h(v), (v + series) % 1.0)
            assert err < 1e-10

    def test_unstable_series_oracle(self, rot_sp, cat):
        # H(v) = v + sum_{n>=1} (tau(A^{-n} y) - tau(A^{-n} x)); the sign is the
        # one forced by backward shadowing of the pair (x, v), (y, H(v))
        x, y = unstable_pair(cat)
        h = leaf_holonomy(rot_sp, "unstable", x, y, tol=1e-10)
        n = 70
        xs = cat.orbit(x, n, forward=False)
        lam = (1.0 / cat.lambda_u) ** np.arange(n + 1)
        ys = (xs + np.multiply.outer(0.12 * lam, cat.e_u)) % 1.0
        series = np.sum(rot_sp.family.field(ys[1:]) - rot_sp.family.field(xs[1:]), axis=0)
        v = np.array([0.37, 0.81])
        assert torus_dist(h(v), (v + series) % 1.0) < 1e-10

    def test_truncation_bound_at_tol(self, rot_sp, cat):
        x, y = stable_pair(cat)
        h = leaf_holonomy(rot_sp, "stable", x, y, tol=1e-10)
        assert h.truncation_n <= 40

    @pytest.mark.parametrize("kind", ["stable", "unstable"])
    def test_cauchy_certificate(self, rot_sp, cat, kind):
        x, y = PAIRS[kind](cat)
        h = leaf_holonomy(rot_sp, kind, x, y, tol=1e-10)
        assert h.certified_tol < 1e-10
        h_n = h.evaluate_at(GRID, h.truncation_n)
        h_n1 = h.evaluate_at(GRID, h.truncation_n + 1)
        assert np.max(torus_dist(h_n, h_n1)) < 1e-10

    def test_geometric_increment_decay(self, broad_rot_sp, cat):
        x, y = stable_pair(cat)
        h = leaf_holonomy(broad_rot_sp, "stable", x, y, tol=1e-10)
        lam = abs(cat.lambda_s)
        bound = lam * (1.0 + broad_rot_sp.family.base_lipschitz()) + 0.1
        assert sum(1 for d in h.increments if d > 1e-12) >= 8
        ratio = measured_decay_ratio(h)
        assert 0.0 < ratio <= bound


def all_steps_scan(h, n):
    """The Cauchy increments for 1..n through every step, one fiber map at a
    time, on the certification grid: the push kept from one n to the next,
    the pull redone."""
    push, pull = h.push_pull()
    ups, prev, scan = GRID, GRID, []
    for m in range(1, n + 1):
        ups = cur = push(h.from_pts[m - 1], ups)
        for k in reversed(range(m)):
            cur = pull(h.to_pts[k], cur)
        scan.append(float(np.max(torus_dist(cur, prev))))
        prev = cur
    return scan


def composed(h, ys, n):
    """H_n by explicit push/pull over the stored orbits, one fiber map at a time."""
    fam = h.sp.family
    push, pull = ((fam.apply, fam.inverse) if h.kind == "stable"
                  else (fam.inverse, fam.apply))
    v = mod1(ys)
    for k in range(n):
        v = push(h.from_pts[k], v)
    for k in reversed(range(n)):
        v = pull(h.to_pts[k], v)
    return v


@pytest.mark.parametrize("kind", ["stable", "unstable"])
@pytest.mark.parametrize("sp_name", ["rot_sp", "broad_rot_sp"])
class TestTranslationClosedForm:
    """A translation family's holonomy is evaluated and certified as one translation."""

    @pytest.fixture
    def h(self, request, cat, sp_name, kind):
        x, y = PAIRS[kind](cat)
        return leaf_holonomy(request.getfixturevalue(sp_name), kind, x, y, tol=1e-10)

    def test_matches_explicit_composition(self, h):
        for n in {0, 1, h.truncation_n, h.truncation_n + 1, N_MAX_COMPOSITIONS}:
            err = torus_dist(h.evaluate_at(GRID, n), composed(h, GRID, n))
            assert np.max(err) < 1e-12, n

    def test_zero_truncation_is_mod1(self, h):
        ys = 3.0 * GRID - 1.0
        assert np.array_equal(h.evaluate_at(ys, 0), mod1(ys))

    def test_increments_match_grid_scan(self, h):
        # the Cauchy scan over the fiber grid, written out from the fiber maps
        prev, scan = GRID, []
        for n in range(1, len(h.increments) + 1):
            cur = composed(h, GRID, n)
            scan.append(float(np.max(torus_dist(cur, prev))))
            prev = cur
        trunc = max((n for n, d in enumerate(scan, start=1) if d >= h.tol / 2), default=0)
        assert h.truncation_n == trunc
        assert np.max(np.abs(np.array(h.increments) - scan)) <= 1e-15

    def test_point_alone_equals_point_in_batch(self, h):
        for n in (h.truncation_n, N_MAX_COMPOSITIONS):
            batch = h.evaluate_at(GRID, n)
            for i in (0, 517, len(GRID) - 1):
                assert np.array_equal(h.evaluate_at(GRID[i], n), batch[i])


class TestTranslationHook:
    def test_rotation_family_returns_its_field(self, rot_sp):
        assert np.array_equal(rot_sp.family.translation(GRID), rot_sp.family.field(GRID))

    def test_other_families_return_none(self, rot_sp):
        bump = BumpTranslation(base_center=wrap((0.5, 0.5)), base_bump=BumpProfile(0.05, 0.1),
                               fiber_center=wrap((0.5, 0.5)), fiber_bump=BumpProfile(0.05, 0.1),
                               v=(0.01, 0.0))
        for fam in (ConstantFamily(IdentityMap()), LewowiczFamily(ScalarField(1.0)),
                    PerturbedFamily(rot_sp.family, (bump,))):
            assert fam.translation(GRID) is None


class TestArguments:
    @pytest.mark.parametrize("kind", ["Stable", ""])
    def test_unknown_kind_rejected(self, rot_sp, cat, kind):
        x, y = stable_pair(cat)
        with pytest.raises(ValueError, match="kind"):
            make_holonomy(rot_sp, kind, x, 0.0, 0.12)
        with pytest.raises(ValueError, match="kind"):
            leaf_holonomy(rot_sp, kind, x, y)

    @pytest.mark.parametrize("sp_name", ["rot_sp", "id_sp"])
    def test_truncation_out_of_range_rejected(self, request, cat, sp_name):
        x, y = stable_pair(cat)
        h = leaf_holonomy(request.getfixturevalue(sp_name), "stable", x, y)
        assert h.evaluate_at(GRID, len(h.from_pts)).shape == GRID.shape
        for n in (-1, len(h.from_pts) + 1):
            with pytest.raises(ValueError, match="truncation"):
                h.evaluate_at(GRID, n)


class TestOracles:
    def test_equivariance(self, rot_sp, cat):
        # H^s_{f(x)->f(y)} o g_x = g_y o H^s_{x->y}: the defining property
        x, y = stable_pair(cat)
        h = leaf_holonomy(rot_sp, "stable", x, y, tol=1e-10)
        h_push = leaf_holonomy(rot_sp, "stable", cat.apply(x), cat.apply(y), tol=1e-10)
        lhs = h_push(rot_sp.family.apply(x, GRID))
        rhs = rot_sp.family.apply(y, h(GRID))
        assert np.max(torus_dist(lhs, rhs)) < 1e-9

    def test_composition_along_leaf(self, rot_sp, cat):
        x = np.array([0.13, 0.41])
        h_xy = make_holonomy(rot_sp, "stable", x, 0.0, 0.07)
        h_yz = make_holonomy(rot_sp, "stable", x, 0.07, 0.16)
        h_xz = make_holonomy(rot_sp, "stable", x, 0.0, 0.16)
        assert np.max(torus_dist(h_yz(h_xy(GRID)), h_xz(GRID))) < 1e-9

    def test_inverse(self, rot_sp, cat):
        x, y = stable_pair(cat)
        h = leaf_holonomy(rot_sp, "stable", x, y, tol=1e-10)
        assert np.max(torus_dist(h.inverse_map()(h(GRID)), GRID)) < 1e-9

    @pytest.mark.parametrize("kind", ["stable", "unstable"])
    def test_inverse_map_is_reverse_holonomy(self, rot_sp, cat, kind):
        # the swapped stored orbits are the orbits of the reversed pair
        x, y = PAIRS[kind](cat)
        h = leaf_holonomy(rot_sp, kind, x, y, tol=1e-10)
        rev = make_holonomy(rot_sp, kind, h.anchor, h.s_to, h.s_from)
        for n in (h.truncation_n, h.truncation_n + 1):
            assert np.array_equal(h.inverse_map().evaluate_at(GRID, n),
                                  rev.evaluate_at(GRID, n))

    def test_no_convergence_without_domination(self, cat):
        # c(x) ~ 2 over the plain cat map is not dominated; a non-constant
        # field makes the distortion blow-up visible (a constant family would
        # telescope to the identity regardless of domination)
        from skewlab.fiber import LewowiczFamily, ScalarField, certify_partial_hyperbolicity

        field = ScalarField(2.0, (FieldBump(center=wrap((0.5, 0.5)),
                                            profile=BumpProfile(0.05, 0.45),
                                            amplitude=(-0.6,)),))
        sp = SkewProduct(base=cat, family=LewowiczFamily(field))
        assert not certify_partial_hyperbolicity(sp, 16).dominated
        x, y = stable_pair(cat, offset=0.05)
        with pytest.raises(NoConvergence):
            leaf_holonomy(sp, "stable", x, y, tol=1e-10)


class TestPathHolonomy:
    """Holonomy along a path of legs: a LoopMap composes leaf holonomies."""

    def test_empty_path_identity(self):
        ph = LoopMap(maps=())
        assert np.array_equal(ph(GRID), GRID)

    def test_two_leg_loop_constant_family(self, id_sp, cat):
        x = wrap((0.2, 0.3))
        z = wrap(np.asarray(list(x)) + 0.1 * cat.e_u)
        ph = LoopMap(maps=(leaf_holonomy(id_sp, "unstable", x, z),
                           leaf_holonomy(id_sp, "unstable", z, x)))
        assert np.max(torus_dist(ph(GRID), GRID)) == 0.0

    def test_bad_leaf_membership_rejected(self, rot_sp):
        with pytest.raises(BrokenPath):
            leaf_holonomy(rot_sp, "stable", wrap((0.1, 0.1)), wrap((0.3, 0.2)))

    def test_path_inverse(self, rot_sp, cat):
        x = wrap((0.2, 0.3))
        z = wrap(np.asarray(list(x)) + 0.1 * cat.e_u)
        w = wrap(np.asarray(list(z)) + 0.08 * cat.e_s)
        ph = LoopMap(maps=(leaf_holonomy(rot_sp, "unstable", x, z),
                           leaf_holonomy(rot_sp, "stable", z, w)))
        assert np.max(torus_dist(ph.inverse(ph(GRID)), GRID)) < 1e-9


class TestShadowing:
    def test_stable_pair_contracts(self, rot_sp, cat):
        x, y = stable_pair(cat)
        rep = shadow_check(rot_sp, ("stable", x, y), np.array([0.3, 0.8]), n_max=50)
        d = rep.distances
        assert d[0] > d[10] > d[20]
        assert rep.ratio_estimate <= abs(cat.lambda_s) + 0.1

    def test_same_point_all_zero(self, rot_sp, cat):
        x, _ = stable_pair(cat)
        rep = shadow_check(rot_sp, ("stable", x, x), np.array([0.3, 0.8]), n_max=20)
        assert np.max(rep.distances) < 1e-12

    def test_constant_family_rate_exact(self, id_sp, cat):
        x, y = stable_pair(cat)
        rep = shadow_check(id_sp, ("stable", x, y), np.array([0.1, 0.2]), n_max=40)
        assert rep.ratio_estimate == pytest.approx(abs(cat.lambda_s), rel=1e-6)

    def test_unstable_leg_backward(self, rot_sp, cat):
        x, y = unstable_pair(cat)
        rep = shadow_check(rot_sp, ("unstable", x, y), np.array([0.3, 0.8]), n_max=40)
        assert rep.distances[0] > rep.distances[15]
        assert rep.ratio_estimate <= 1.0 / abs(cat.lambda_u) + 0.1

    def test_long_table_builds_long_enough_holonomy(self, rot_sp, cat):
        x, y = stable_pair(cat)
        rep = shadow_check(rot_sp, ("stable", x, y), np.array([0.3, 0.8]), n_max=230)
        assert len(rep.distances) == 231
        assert rep.ratio_estimate <= abs(cat.lambda_s) + 0.1


SEAM_BUMP = BumpTranslation(base_center=wrap((0.995, 0.005)), base_bump=BumpProfile(0.03, 0.06),
                            fiber_center=wrap((0.25, 0.75)), fiber_bump=BumpProfile(0.3, 0.42),
                            v=(0.02, -0.03))


def edge_points(bumps, rng):
    """Base points at per-axis and diagonal offsets of exactly a support's outer
    radius, one ulp inside it, further inside and just outside, plus uniform
    points."""
    pts = [rng.random((40, 2))]
    for b in bumps:
        outer = b.base_bump.outer_radius
        offs = (outer, np.nextafter(outer, 0.0), outer * (1 - 1e-12), outer - 1e-3,
                outer + 1e-10, 0.5 * outer)
        dirs = np.concatenate([np.eye(2), -np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2)])
        pts.append(mod1(lift(b.base_center) + np.multiply.outer(offs, dirs).reshape(-1, 2)))
    return np.concatenate(pts)


class TestQuietSteps:
    """Where the quiet hook is True, g_x is the identity bitwise; holonomies skip
    the steps where both base points are quiet and keep every bit."""

    FIBER = np.concatenate([GRID[::8], np.random.default_rng(5).random((200, 2)),
                            [[0.0, 0.0], [np.nextafter(1.0, 0.0), 0.5], [0.5, 0.0]]])

    def test_quiet_base_points_map_fibers_bitwise(self, id_sp, destroyed_systems):
        strong = destroyed_systems["strong"].family
        families = {"identity": id_sp.family, "fine": destroyed_systems["fine"].family,
                    "strong": strong,
                    "seam": PerturbedFamily(id_sp.family, strong.bumps + (SEAM_BUMP,))}
        rng = np.random.default_rng(4)
        for name, fam in families.items():
            xs = edge_points(getattr(fam, "bumps", ()) + (SEAM_BUMP,), rng)
            quiet = fam.quiet(xs)
            assert quiet.shape == xs.shape[:-1] and quiet.dtype == bool
            if name == "identity":
                assert quiet.all()
            else:
                assert quiet.any() and not quiet.all(), name
                active = np.any([b.base_value(xs) > 0 for b in fam.bumps], axis=0)
                assert np.array_equal(quiet, ~active), name
            for x in xs[quiet]:
                assert np.array_equal(fam.apply(x, self.FIBER), self.FIBER), (name, x)
                assert np.array_equal(fam.inverse(x, self.FIBER), self.FIBER), (name, x)
            if name == "identity":
                continue
            # at every edge point, quiet or not, the maps are the kernel's at
            # the activation of the base values evaluated without a prefilter
            values = np.array([b.base_value(xs) for b in fam.bumps])
            n = len(self.FIBER)
            t = np.repeat(values.max(axis=0), n)
            params = tuple(np.repeat(p[values.argmax(axis=0)], n, axis=0)
                           for p in fam._fiber_params)
            ys = np.tile(self.FIBER, (len(xs), 1))
            for sign, fn in ((-1.0, fam.apply), (1.0, fam.inverse)):
                want = _bump_fiber_action(params, sign * t, ys).reshape(len(xs), n, 2)
                for x, w in zip(xs, want):
                    assert np.array_equal(fn(x, self.FIBER), w), (name, x)

    def test_families_that_cannot_say(self, rot_sp, destroyed_systems):
        bumps = destroyed_systems["fine"].family.bumps
        for fam in (rot_sp.family, LewowiczFamily(ScalarField(0.5)),
                    PerturbedFamily(LewowiczFamily(ScalarField(0.5)), bumps)):
            assert fam.quiet(GRID) is None

    def test_every_step_composed_over_a_lewowicz_inner(self, quad, destroyed_systems, monkeypatch):
        # a Lewowicz fiber map is hyperbolic, so its pushes and pulls amplify
        # rounding and no Lewowicz holonomy certifies: take a certified leg of
        # the fine system and swap the family under it
        fine = destroyed_systems["fine"]
        lew = PerturbedFamily(LewowiczFamily(ScalarField(0.5)), fine.family.bumps)
        leg = standard_generators(fine, [quad])[0].maps[-1]
        assert lew.quiet(leg.from_pts) is None
        h = replace(leg, sp=SkewProduct(base=fine.base, family=lew))
        assert loud_steps(leg).any() and not loud_steps(leg).all()
        calls = []
        for name in ("apply", "inverse"):
            orig = getattr(PerturbedFamily, name)
            monkeypatch.setattr(PerturbedFamily, name,
                                lambda self, x, y, _f=orig, _n=name: calls.append(_n) or _f(self, x, y))
        n = 8
        got = h.evaluate_at(GRID, n)
        assert calls == ["apply"] * n + ["inverse"] * n
        assert np.array_equal(got, composed(h, GRID, n))
        # every truncation up to two past the certified one, bitwise, and
        # the same for the default truncation of __call__
        for n in range(h.truncation_n + 3):
            assert np.array_equal(h.evaluate_at(GRID, n), composed(h, GRID, n)), n
        assert np.array_equal(h(GRID), composed(h, GRID, h.truncation_n))

    def test_certificate_reads_the_family_it_runs_on(self, quad, destroyed_systems):
        # the fine system's last leg moved onto a family whose hook cannot
        # say: the Cauchy scan takes every step, as evaluation does, and
        # keeps nothing of the fine family's quiet steps
        fine = destroyed_systems["fine"]
        leg = standard_generators(fine, [quad])[0].maps[-1]
        lew = PerturbedFamily(LewowiczFamily(ScalarField(0.5)), fine.family.bumps)
        h = replace(leg, sp=SkewProduct(base=fine.base, family=lew))
        assert not loud_steps(leg, 8)[1:].any()
        assert list(_increments(h, 8)) == all_steps_scan(h, 8)

    @pytest.mark.parametrize("name", sorted(DESTROYED))
    def test_legs_match_all_step_composition(self, quad, destroyed_systems, name):
        legs = [h for loop in standard_generators(destroyed_systems[name], [quad])
                for h in loop.maps]
        assert len(legs) == 8
        for h in legs:
            self.check_leg(h)
        # step 1 of each stable leg w_i -> x fires a bump; nothing else does
        assert sum(bool(loud_steps(h).any()) for h in legs) == 2

    @pytest.mark.parametrize("kind", ["stable", "unstable"])
    def test_interleaved_loud_steps(self, id_sp, cat, kind):
        # a base support that the leg's orbits visit three times within its
        # scan, so the order of the loud pushes and pulls matters
        bump = BumpTranslation(base_center=wrap((0.5, 0.5)), base_bump=BumpProfile(0.05, 0.15),
                               fiber_center=wrap((0.5, 0.5)), fiber_bump=BumpProfile(0.2, 0.4),
                               v=(0.02, 0.01))
        sp = SkewProduct(base=cat, family=PerturbedFamily(id_sp.family, (bump,)))
        x, y = PAIRS[kind](cat, x=(0.45, 0.52))
        h = leaf_holonomy(sp, kind, x, y, tol=1e-10)
        assert np.count_nonzero(loud_steps(h, len(h.increments))) == 3
        self.check_leg(h)

    def check_leg(self, h):
        """Evaluation and the Cauchy increments against the all-steps
        composition, bitwise, and an increment of exactly 0.0 wherever both
        base points are quiet by the family's per-point marks."""
        n_scan = len(h.increments)
        loud = loud_steps(h, n_scan)
        assert np.array_equal(loud_steps(h.inverse_map(), n_scan), loud)
        assert np.all(np.array(h.increments)[~loud] == 0.0)
        assert tuple(all_steps_scan(h, n_scan)) == h.increments
        for n in [*range(h.truncation_n + 3), n_scan, len(h.from_pts)]:
            assert np.array_equal(h.evaluate_at(self.FIBER, n),
                                  composed(h, self.FIBER, n)), (h.kind, n)
