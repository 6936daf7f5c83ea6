import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from skewlab.anosov import (_exact_orbit, _rational_candidates, bracket, build_quad,
                            leaf_coordinate, make_anosov, validate_quad)
from skewlab.config import MAX_BUDGETS, HolonomyConfig
from skewlab.errors import AmbiguousBranch, ConstructionFailed, NotAnosov
from skewlab.torus import lift, mod1, torus_dist

from systems import workloads


class TestMakeAnosov:
    def test_cat_eigenvalues(self, cat):
        # oracle: roots of t^2 - 3t + 1
        lam_u = (3 + math.sqrt(5)) / 2
        lam_s = (3 - math.sqrt(5)) / 2
        assert cat.lambda_u == pytest.approx(lam_u, abs=1e-14)
        assert cat.lambda_s == pytest.approx(lam_s, abs=1e-14)
        assert cat.lambda_u * cat.lambda_s == pytest.approx(np.linalg.det(cat.matrix), abs=1e-12)

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

    @pytest.mark.parametrize("matrix", [workloads.CAT, [[3, 2], [1, 1]], [[-3, 1], [-1, 0]],
                                        [[3, 1], [1, 0]]])
    def test_orbit_is_applys_orbit_bitwise(self, matrix):
        a = make_anosov(matrix)
        rng = np.random.default_rng(0)
        def apply_inverse(p):
            return mod1(np.asarray(p, float) @ a.inverse.T)

        for start in (rng.random((6, 5, 2)), rng.random(2), (0.0, np.nextafter(1.0, 0.0))):
            for forward, step in ((True, a.apply), (False, apply_inverse)):
                orbit = a.orbit(start, 40, forward=forward)
                cur = np.asarray(start, float)
                assert orbit.shape == (41,) + cur.shape
                for k in range(41):
                    assert np.array_equal(orbit[k], cur), (forward, k)
                    cur = step(cur)

    def test_orbit_rejects_non_finite_input(self, cat):
        for bad in ((np.nan, 0.1), [[0.1, 0.2], [np.inf, 0.3]]):
            with pytest.raises(ValueError, match="non-finite"):
                cat.orbit(bad, 3)

    def test_powers_square_eigenvalues(self, cat):
        a3 = make_anosov(np.linalg.matrix_power(cat.matrix, 3))
        assert a3.lambda_u == pytest.approx(cat.lambda_u**3, rel=1e-12)


class TestLeaf:
    def test_direction_through_fixed_point(self, cat):
        assert np.allclose(cat.eigen_direction("stable"), cat.e_s)
        p = (0.21 * cat.e_s) % 1.0
        s, resid = leaf_coordinate(cat, "stable", (0, 0), p)
        assert s == pytest.approx(0.21, abs=1e-12) and resid < 1e-12

    def test_image_is_contracted_leaf(self, cat):
        # the image of the stable leaf through x is the stable leaf through
        # f(x), with leaf coordinates scaled by lambda_s
        x = np.array([0.3, 0.7])
        ts = np.linspace(-0.2, 0.2, 9)
        img = cat.apply((x + np.multiply.outer(ts, cat.e_s)) % 1.0)
        for t, p in zip(ts, img):
            s, resid = leaf_coordinate(cat, "stable", cat.apply(x), p)
            assert s == pytest.approx(t * cat.lambda_s, abs=1e-12) and resid < 1e-10

    def test_stable_pairs_contract_at_lambda_s(self, cat):
        x = np.array([0.3, 0.7])
        y = (x + 0.01 * cat.e_s) % 1.0
        d0 = torus_dist(x, y)
        for k in range(1, 12):
            x, y = cat.apply(x), cat.apply(y)
            assert torus_dist(x, y) == pytest.approx(d0 * cat.lambda_s**k, rel=1e-6)

    def test_half_length_bound(self):
        # a holonomy leg's leaf offset must stay on the local leaf, |s| < 1/2
        HolonomyConfig(leaf_offset=-0.49)
        for offset in (0.5, -0.6):
            with pytest.raises(ValueError):
                HolonomyConfig(leaf_offset=offset)


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


def nearest_periodic(cat, target, max_denominator, radius):
    """The best rational candidate near target and its exact orbit, as
    build_quad finds a periodic point: _rational_candidates, then _exact_orbit."""
    _, _, fu, fv = _rational_candidates(target, max_denominator, radius)[0]
    return (fu, fv), _exact_orbit(cat.matrix, (fu, fv))


def rational_step(m, pt):
    """Oracle: one step of the integer matrix on an exact rational point mod 1."""
    return ((m[0, 0] * pt[0] + m[0, 1] * pt[1]) % 1,
            (m[1, 0] * pt[0] + m[1, 1] * pt[1]) % 1)


class TestPeriodicSearch:
    def test_origin_is_fixed(self, cat):
        p, orbit = nearest_periodic(cat, (0, 0), 5, 0.01)
        assert p == (0, 0) and orbit == [p]

    def test_half_half_has_period_three(self, cat):
        p, orbit = nearest_periodic(cat, (0.5, 0.5), 2, 0.1)
        assert p == (Fraction(1, 2), Fraction(1, 2)) and len(orbit) == 3

    def test_thirds_period(self, cat):
        p, orbit = nearest_periodic(cat, (0.33, 0.33), 3, 0.02)
        assert p == (Fraction(1, 3), Fraction(1, 3))
        # oracle: exact rational iteration to the first return
        pt, period = rational_step(cat.matrix, p), 1
        while pt != p:
            pt, period = rational_step(cat.matrix, pt), period + 1
        assert len(orbit) == period

    def test_exact_periodicity_in_rational_arithmetic(self, cat):
        for target in [(0.5, 0.5), (0.2, 0.4), (0.125, 0.625)]:
            p, orbit = nearest_periodic(cat, target, 8, 0.08)
            pt = p
            for k in range(len(orbit)):
                assert pt == orbit[k]
                pt = rational_step(cat.matrix, pt)
            assert pt == p

    def test_not_found(self, cat):
        # no rational point of denominator <= 3 this close: build_quad finds
        # no periodic candidate and refuses
        x = (0.123456, 0.654321)
        assert _rational_candidates(x, 3, 0.001) == []
        with pytest.raises(ConstructionFailed, match="two periodic candidates"):
            build_quad(cat, x, 0.001, 3)


def reference_rational_candidates(target, max_denominator, radius):
    """Oracle: the candidate search on Fractions, one scalar distance each."""
    t = lift(target)
    found = []
    seen = set()
    for q in range(1, max_denominator + 1):
        i_lo = math.floor((t[0] - radius) * q)
        i_hi = math.ceil((t[0] + radius) * q)
        j_lo = math.floor((t[1] - radius) * q)
        j_hi = math.ceil((t[1] + radius) * q)
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                fu, fv = Fraction(i, q) % 1, Fraction(j, q) % 1
                if (fu.denominator != q and fv.denominator != q) or (fu, fv) in seen:
                    continue
                seen.add((fu, fv))
                dist = float(torus_dist((float(fu), float(fv)), t))
                if dist <= radius:
                    found.append((dist, q, fu, fv))
    found.sort(key=lambda rec: (rec[0], rec[1], rec[2], rec[3]))
    return found


class TestRationalCandidates:
    @pytest.mark.parametrize("target", [(0.0, 0.0), (0.3, 0.4), (0.1234, 0.71),
                                        (0.5, 0.5), (0.999, 0.001), (0.25, 0.75)])
    def test_matches_reference_exactly(self, target):
        # same records in the same order: distances bitwise, Fractions equal;
        # Q <= 3 and radius 0.45 make the lattice wrap around (duplicates)
        for q_max in (1, 2, 3, 5, 10, 17):
            for radius in (0.01, 0.05, 0.2, 0.45):
                got = _rational_candidates(target, q_max, radius)
                want = reference_rational_candidates(target, q_max, radius)
                assert [(d.hex(), q, fu, fv) for d, q, fu, fv in got] \
                    == [(d.hex(), q, fu, fv) for d, q, fu, fv in want]
                assert all(type(d) is float and type(fu) is Fraction for d, _, fu, _ in got)


class TestBuildQuad:
    def test_invariants(self, cat, quad):
        validate_quad(cat, quad)  # must not raise

    def test_default_quad_pinned(self, quad):
        # the quad of the default config and of every acceptance test, bit for bit
        q = quad
        assert (tuple(q.x), tuple(q.p1), tuple(q.p2)) == ((0.0, 0.0), (0.0, 0.125),
                                                          (0.0, 0.875))
        assert tuple(q.w1) == (0.9440983005625052, 0.09045084971874737)
        assert tuple(q.w2) == (0.05590169943749475, 0.9095491502812526)
        assert tuple(q.z1) == (0.05590169943749475, 0.03454915028125263)
        assert tuple(q.z2) == (0.9440983005625052, 0.9654508497187474)
        assert (len(q.p1_orbit), len(q.p2_orbit), q.x_period) == (6, 6, 1)
        assert (q.U1_radius, q.U2_radius) == (0.029572375056701277, 0.029572375056701277)
        assert q.s_w == (-0.10633135104400503, 0.10633135104400512)
        assert q.u_w == (-0.06571638901489173, 0.06571638901489173)
        assert q.u_z == (0.06571638901489173, -0.06571638901489166)
        assert q.s_z == (0.10633135104400503, -0.10633135104400503)
        eighths = ([[0, 1], [1, 1], [3, 2], [0, 5], [5, 5], [7, 2]],
                   [[0, 7], [7, 7], [5, 6], [0, 3], [3, 3], [1, 6]])
        np.testing.assert_array_equal(q.p1_orbit, np.array(eighths[0]) / 8)
        np.testing.assert_array_equal(q.p2_orbit, np.array(eighths[1]) / 8)

    def test_leg_residuals(self, cat, quad):
        q = quad
        for kind, frm, to in [("stable", q.x, q.w1), ("unstable", q.p1, q.w1),
                              ("unstable", q.x, q.z1), ("stable", q.p1, q.z1),
                              ("stable", q.x, q.w2), ("unstable", q.p2, q.w2),
                              ("unstable", q.x, q.z2), ("stable", q.p2, q.z2)]:
            _, resid = leaf_coordinate(cat, kind, frm, to)
            assert resid < 1e-10

    def test_legs_alternate_kinds(self, quad):
        # the closing path x ->(s) w_i ->(u) p_i ->(s) z_i ->(u) x
        q = quad
        assert q.s_w[0] != 0 and q.u_w[0] != 0 and q.s_z[0] != 0 and q.u_z[0] != 0

    def test_distinct_periodic_points(self, quad):
        assert torus_dist(quad.p1, quad.p2) > 1e-6
        assert len(quad.p1_orbit) >= 1 and len(quad.p2_orbit) >= 1

    def test_exactly_periodic_orbits(self, cat, quad):
        for orbit in (quad.p1_orbit, quad.p2_orbit):
            back = cat.apply(orbit[-1])
            assert torus_dist(back, orbit[0]) < 1e-12

    def test_degenerate_radius_fails(self, cat):
        with pytest.raises(ConstructionFailed):
            build_quad(cat, (0, 0), 0.0, 10, 50)

    def test_separation_violation_detected(self, cat, quad):
        import dataclasses

        bloated = dataclasses.replace(quad, U1_radius=0.2, U2_radius=0.2)
        with pytest.raises(ConstructionFailed):
            validate_quad(cat, bloated)

    def test_stored_leaf_coordinate_mismatch_detected(self, cat, quad):
        # loop maps build their legs from the stored coordinates alone
        import dataclasses

        shifted = dataclasses.replace(quad, s_w=(quad.s_w[0] + 1e-6, quad.s_w[1]))
        with pytest.raises(ConstructionFailed, match="stores"):
            validate_quad(cat, shifted)

    def test_separation_scan_at_n_check_cap(self, cat):
        # lam_u ** n passes the float range at n = 738 for the cat map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quad = build_quad(cat, (0, 0), 0.2, 10, MAX_BUDGETS["quad.n_check"])
            validate_quad(cat, quad)

    def test_tail_certified_at_fixed_point(self, quad):
        assert quad.x_period == 1
