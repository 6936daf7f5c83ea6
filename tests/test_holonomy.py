import numpy as np
import pytest

from skewlab.anosov import make_anosov
from skewlab.errors import BrokenPath, NoConvergence
from skewlab.fiber import (ConstantFamily, FieldBump, IdentityMap,
                           RotationFamily, SkewProduct, VectorField)
from skewlab.holonomy import PathHolonomy, leaf_holonomy, make_holonomy
from skewlab.torus import BumpProfile, torus_dist, wrap

CAT = [[2, 1], [1, 1]]


@pytest.fixture(scope="module")
def cat():
    return make_anosov(CAT)


@pytest.fixture(scope="module")
def rot_sp(cat):
    bump = FieldBump(center=wrap((0.31, 0.64)), profile=BumpProfile(0.07, 0.22),
                     amplitude=(0.21, -0.13))
    return SkewProduct(base=cat, family=RotationFamily(VectorField((0.0, 0.0), (bump,))))


@pytest.fixture(scope="module")
def broad_rot_sp(cat):
    # support covering most of the torus: every orbit step contributes, so the
    # Cauchy increments form a genuine geometric sequence
    bump = FieldBump(center=wrap((0.5, 0.5)), profile=BumpProfile(0.05, 0.49),
                     amplitude=(0.17, 0.09))
    return SkewProduct(base=cat, family=RotationFamily(VectorField((0.0, 0.0), (bump,))))


@pytest.fixture(scope="module")
def id_sp(cat):
    return SkewProduct(base=cat, family=ConstantFamily(IdentityMap()))


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
        ratio = h.measured_decay_ratio()
        assert 0.0 < ratio <= bound


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
    def test_empty_path_identity(self):
        ph = PathHolonomy(maps=())
        assert np.array_equal(ph(GRID), GRID)

    def test_two_leg_loop_constant_family(self, id_sp, cat):
        x = wrap((0.2, 0.3))
        z = wrap(np.asarray(list(x)) + 0.1 * cat.e_u)
        ph = PathHolonomy(maps=(leaf_holonomy(id_sp, "unstable", x, z),
                                leaf_holonomy(id_sp, "unstable", z, x)))
        assert np.max(torus_dist(ph(GRID), GRID)) == 0.0

    def test_bad_leaf_membership_rejected(self, rot_sp):
        with pytest.raises(BrokenPath):
            leaf_holonomy(rot_sp, "stable", wrap((0.1, 0.1)), wrap((0.3, 0.2)))

    def test_path_inverse(self, rot_sp, cat):
        x = wrap((0.2, 0.3))
        z = wrap(np.asarray(list(x)) + 0.1 * cat.e_u)
        w = wrap(np.asarray(list(z)) + 0.08 * cat.e_s)
        ph = PathHolonomy(maps=(leaf_holonomy(rot_sp, "unstable", x, z),
                                leaf_holonomy(rot_sp, "stable", z, w)))
        assert np.max(torus_dist(ph.inverse(ph(GRID)), GRID)) < 1e-9


class TestShadowing:
    def test_stable_pair_contracts(self, rot_sp, cat):
        from skewlab.ergodic import shadow_check

        x, y = stable_pair(cat)
        rep = shadow_check(rot_sp, ("stable", x, y), np.array([0.3, 0.8]), n_max=50)
        d = rep.distances
        assert d[0] > d[10] > d[20]
        assert rep.ratio_estimate <= abs(cat.lambda_s) + 0.1

    def test_same_point_all_zero(self, rot_sp, cat):
        from skewlab.ergodic import shadow_check

        x, _ = stable_pair(cat)
        rep = shadow_check(rot_sp, ("stable", x, x), np.array([0.3, 0.8]), n_max=20)
        assert np.max(rep.distances) < 1e-12

    def test_constant_family_rate_exact(self, id_sp, cat):
        from skewlab.ergodic import shadow_check

        x, y = stable_pair(cat)
        rep = shadow_check(id_sp, ("stable", x, y), np.array([0.1, 0.2]), n_max=40)
        assert rep.ratio_estimate == pytest.approx(abs(cat.lambda_s), rel=1e-6)

    def test_unstable_leg_backward(self, rot_sp, cat):
        from skewlab.ergodic import shadow_check

        x, y = unstable_pair(cat)
        rep = shadow_check(rot_sp, ("unstable", x, y), np.array([0.3, 0.8]), n_max=40)
        assert rep.distances[0] > rep.distances[15]
        assert rep.ratio_estimate <= 1.0 / abs(cat.lambda_u) + 0.1

    def test_long_table_builds_long_enough_holonomy(self, rot_sp, cat):
        from skewlab.ergodic import shadow_check

        x, y = stable_pair(cat)
        rep = shadow_check(rot_sp, ("stable", x, y), np.array([0.3, 0.8]), n_max=230)
        assert len(rep.distances) == 231
        assert rep.ratio_estimate <= abs(cat.lambda_s) + 0.1
