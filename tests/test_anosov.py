import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from skewlab.anosov import (bracket, build_quad, exact_period,
                            find_periodic_near, leaf, leaf_coordinate, make_anosov,
                            validate_quad)
from skewlab.config import MAX_BUDGETS
from skewlab.errors import AmbiguousBranch, ConstructionFailed, NotAnosov, NotFound
from skewlab.torus import torus_dist, wrap

CAT = [[2, 1], [1, 1]]


@pytest.fixture(scope="module")
def cat():
    return make_anosov(CAT)


@pytest.fixture(scope="module")
def cat_quad(cat):
    return build_quad(cat, (0, 0), 0.2, 10, 50)


class TestMakeAnosov:
    def test_cat_eigenvalues(self, cat):
        # oracle: roots of t^2 - 3t + 1
        lam_u = (3 + math.sqrt(5)) / 2
        lam_s = (3 - math.sqrt(5)) / 2
        assert cat.lambda_u == pytest.approx(lam_u, abs=1e-14)
        assert cat.lambda_s == pytest.approx(lam_s, abs=1e-14)
        assert cat.lambda_u * cat.lambda_s == pytest.approx(cat.det, abs=1e-12)

    def test_eigen_residuals(self, cat):
        m = cat.matrix.astype(float)
        assert np.linalg.norm(m @ cat.e_u - cat.lambda_u * cat.e_u) < 1e-12
        assert np.linalg.norm(m @ cat.e_s - cat.lambda_s * cat.e_s) < 1e-12

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotAnosov):
            make_anosov([[1, 1], [1, 0]])  # trace 1
        with pytest.raises(NotAnosov):
            make_anosov([[2, 0], [0, 2]])  # |det| = 4
        with pytest.raises(NotAnosov):
            make_anosov([[1.5, 1], [1, 1]])

    def test_inverse_matrix(self, cat):
        assert np.all(cat.matrix @ cat.inverse == np.eye(2, dtype=int))

    def test_powers_square_eigenvalues(self):
        a3 = make_anosov(np.linalg.matrix_power(np.array(CAT), 3))
        cat = make_anosov(CAT)
        assert a3.lambda_u == pytest.approx(cat.lambda_u**3, rel=1e-12)


class TestLeaf:
    def test_direction_through_fixed_point(self, cat):
        seg = leaf(cat, (0, 0), "stable", 0.3)
        assert np.allclose(seg.direction, cat.e_s)
        ok, t, resid = seg.contains(seg.point_at(0.21))
        assert ok and t == pytest.approx(0.21, abs=1e-12) and resid < 1e-12

    def test_image_is_contracted_leaf(self, cat):
        seg = leaf(cat, (0.3, 0.7), "stable", 0.2)
        ts = np.linspace(-0.2, 0.2, 9)
        img = cat.apply(seg.point_at(ts))
        img_seg = leaf(cat, cat.apply(np.array([0.3, 0.7])), "stable",
                       0.2 * abs(cat.lambda_s) + 1e-12)
        for p in img:
            ok, _, resid = img_seg.contains(p)
            assert ok and resid < 1e-10

    def test_stable_pairs_contract_at_lambda_s(self, cat):
        x = np.array([0.3, 0.7])
        y = (x + 0.01 * cat.e_s) % 1.0
        d0 = torus_dist(x, y)
        for k in range(1, 12):
            x, y = cat.apply(x), cat.apply(y)
            assert torus_dist(x, y) == pytest.approx(d0 * cat.lambda_s**k, rel=1e-6)

    def test_half_length_bound(self, cat):
        with pytest.raises(ValueError):
            leaf(cat, (0, 0), "stable", 0.6)


class TestBracket:
    def test_fixed_point(self, cat):
        assert torus_dist(bracket(cat, (0.2, 0.3), (0.2, 0.3)), (0.2, 0.3)) < 1e-12

    def test_matches_linear_solve_oracle(self, cat):
        # independent oracle: solve s e_s - u e_u = y - x directly
        x, y = np.array([0.0, 0.0]), np.array([0.1, 0.0])
        s, u = np.linalg.solve(np.column_stack([cat.e_s, -cat.e_u]), y - x)
        expected = (x + s * cat.e_s) % 1.0
        q = bracket(cat, x, y)
        assert torus_dist(q, expected) < 1e-12

    def test_on_both_leaves(self, cat):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.random(2)
            y = (x + rng.uniform(-0.15, 0.15, 2)) % 1.0
            q = bracket(cat, x, y)
            _, resid_s = leaf_coordinate(cat, "stable", x, q)
            _, resid_u = leaf_coordinate(cat, "unstable", y, q)
            assert resid_s < 1e-12 and resid_u < 1e-12

    def test_asymmetry(self, cat):
        rng = np.random.default_rng(4)
        asym = 0
        for _ in range(20):
            x = rng.random(2)
            y = (x + rng.uniform(-0.1, 0.1, 2)) % 1.0
            if torus_dist(bracket(cat, x, y), bracket(cat, y, x)) > 1e-6:
                asym += 1
        assert asym > 15  # roles of the leaves swap

    def test_far_points_rejected(self, cat):
        with pytest.raises(AmbiguousBranch):
            bracket(cat, (0.0, 0.0), (0.5, 0.4))


class TestPeriodicSearch:
    def test_origin_is_fixed(self, cat):
        p, period = find_periodic_near(cat, (0, 0), 5, 0.01)
        assert p == wrap((0, 0)) and period == 1

    def test_half_half_has_period_three(self, cat):
        p, period = find_periodic_near(cat, (0.5, 0.5), 2, 0.1)
        assert (p.u, p.v) == (0.5, 0.5) and period == 3

    def test_thirds_period(self, cat):
        p, period = find_periodic_near(cat, (0.33, 0.33), 3, 0.02)
        assert (p.u, p.v) == (pytest.approx(1 / 3), pytest.approx(1 / 3))
        # oracle: exact rational iteration
        assert period == exact_period(cat, (Fraction(1, 3), Fraction(1, 3)))

    def test_exact_periodicity_in_rational_arithmetic(self, cat):
        for target in [(0.5, 0.5), (0.2, 0.4), (0.125, 0.625)]:
            p, period = find_periodic_near(cat, target, 8, 0.08)
            fu = Fraction(p.u).limit_denominator(8)
            fv = Fraction(p.v).limit_denominator(8)
            pt = (fu, fv)
            m = cat.matrix
            for _ in range(period):
                pt = ((m[0, 0] * pt[0] + m[0, 1] * pt[1]) % 1,
                      (m[1, 0] * pt[0] + m[1, 1] * pt[1]) % 1)
            assert pt == (fu, fv)

    def test_not_found(self, cat):
        with pytest.raises(NotFound):
            find_periodic_near(cat, (0.123456, 0.654321), 3, 0.001)


class TestBuildQuad:
    def test_invariants(self, cat, cat_quad):
        validate_quad(cat, cat_quad)  # must not raise

    def test_leg_residuals(self, cat, cat_quad):
        q = cat_quad
        for kind, frm, to in [("stable", q.x, q.w1), ("unstable", q.p1, q.w1),
                              ("unstable", q.x, q.z1), ("stable", q.p1, q.z1),
                              ("stable", q.x, q.w2), ("unstable", q.p2, q.w2),
                              ("unstable", q.x, q.z2), ("stable", q.p2, q.z2)]:
            _, resid = leaf_coordinate(cat, kind, frm, to)
            assert resid < 1e-10

    def test_legs_alternate_kinds(self, cat_quad):
        # the closing path x ->(s) w_i ->(u) p_i ->(s) z_i ->(u) x
        q = cat_quad
        assert q.s_w[0] != 0 and q.u_w[0] != 0 and q.s_z[0] != 0 and q.u_z[0] != 0

    def test_distinct_periodic_points(self, cat_quad):
        assert torus_dist(cat_quad.p1, cat_quad.p2) > 1e-6
        assert cat_quad.k1 >= 1 and cat_quad.k2 >= 1

    def test_exactly_periodic_orbits(self, cat, cat_quad):
        for orbit, period in ((cat_quad.p1_orbit, cat_quad.k1),
                              (cat_quad.p2_orbit, cat_quad.k2)):
            assert len(orbit) == period
            back = cat.apply(orbit[-1])
            assert torus_dist(back, orbit[0]) < 1e-12

    def test_degenerate_radius_fails(self, cat):
        with pytest.raises(ConstructionFailed):
            build_quad(cat, (0, 0), 0.0, 10, 50)

    def test_separation_violation_detected(self, cat, cat_quad):
        import dataclasses

        bloated = dataclasses.replace(cat_quad, U1_radius=0.2, U2_radius=0.2)
        with pytest.raises(ConstructionFailed):
            validate_quad(cat, bloated)

    def test_stored_leaf_coordinate_mismatch_detected(self, cat, cat_quad):
        # loop maps build their legs from the stored coordinates alone
        import dataclasses

        shifted = dataclasses.replace(cat_quad, s_w=(cat_quad.s_w[0] + 1e-6, cat_quad.s_w[1]))
        with pytest.raises(ConstructionFailed, match="stores"):
            validate_quad(cat, shifted)

    def test_separation_scan_at_n_check_cap(self, cat):
        # lam_u ** n passes the float range at n = 738 for the cat map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quad = build_quad(cat, (0, 0), 0.2, 10, MAX_BUDGETS["quad.n_check"])
            validate_quad(cat, quad)

    def test_tail_certified_at_fixed_point(self, cat_quad):
        assert cat_quad.x_period == 1
        assert cat_quad.tail_certified
