import ast
import math
from pathlib import Path

import numpy as np
import pytest

from skewlab import fiber
from skewlab.anosov import make_anosov
from skewlab.fiber import (ConstantFamily, FieldBump, IdentityMap, LewowiczFamily,
                           RotationFamily, ScalarField, SkewProduct, VectorField,
                           certify_partial_hyperbolicity, lewowicz_fixed_point_type,
                           run_steps)
from skewlab.perturbation import PerturbedFamily
from skewlab.torus import BumpProfile, mod1, torus_dist, wrap

from oracles import cocycle


def lewowicz_constant(c):
    """The Lewowicz map f_c as a field family whose field has no bumps."""
    return LewowiczFamily(ScalarField(float(c)))


def translation(v):
    """The translation by v as a field family whose field has no bumps."""
    return RotationFamily(VectorField(v))


X0 = np.zeros(2)


def lewowicz(c, y):
    """Single-point Lewowicz map through the constant family."""
    return wrap(lewowicz_constant(c).apply(X0, np.asarray(y, float)))


def lewowicz_inverse(c, y):
    return wrap(lewowicz_constant(c).inverse(X0, np.asarray(y, float)))


def lewowicz_field_family(c_max=2.0, center=(0.25, 0.75), inner=0.1, outer=0.25):
    bump = FieldBump(center=wrap(center), profile=BumpProfile(inner, outer),
                     amplitude=(c_max,))
    return LewowiczFamily(ScalarField(0.0, (bump,)))


def rotation_family(vec=(0.25, 0.1), center=(0.3, 0.7)):
    bump = FieldBump(center=wrap(center), profile=BumpProfile(0.08, 0.2), amplitude=vec)
    return RotationFamily(VectorField((0.0, 0.0), (bump,)))


ALL_FAMILIES = [
    ConstantFamily(IdentityMap()),
    translation((0.3, 0.0)),
    lewowicz_constant(2.0),
    rotation_family(),
    lewowicz_field_family(),
]
# ids name the fiber map: the constant ones first, then the two with bumps
FAMILY_IDS = ["constant/IdentityMap", "constant/TranslationMap", "constant/LewowiczMap",
              "rotation/", "lewowicz/"]


class TestLewowicz:
    def test_origin_fixed_for_all_c(self):
        for c in (0.0, 0.7, 2.0, 4.9):
            assert torus_dist(lewowicz(c, (0, 0)), (0, 0)) < 1e-15

    def test_c0_is_cat_action(self):
        assert lewowicz(0.0, (0.25, 0.5)) == wrap((0.0, 0.75))

    def test_c2_explicit_value(self):
        # oracle: direct formula with sin(pi/2) = 1
        expected = ((0.5 - 1 / math.pi) % 1.0, (0.25 - 1 / math.pi) % 1.0)
        got = lewowicz(2.0, (0.25, 0.0))
        assert torus_dist(got, expected) < 1e-15

    def test_inverse_fixed_point(self):
        assert torus_dist(lewowicz_inverse(1.3, (0, 0)), (0, 0)) < 1e-15

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        for c in (0.0, 1.0, 2.0):
            ys = rng.random((1000, 2))
            fam = lewowicz_constant(c)
            out = fam.apply(X0, fam.inverse(X0, ys))
            assert np.max(torus_dist(out, ys)) < 1e-12

    def test_c0_inverse_is_matrix_inverse(self, cat):
        ys = np.random.default_rng(1).random((50, 2))
        fam = lewowicz_constant(0.0)
        assert np.max(torus_dist(fam.inverse(X0, ys), cat.orbit(ys, 1, forward=False)[1])) < 1e-12

    def test_unit_determinant(self):
        rng = np.random.default_rng(2)
        ys = rng.random((500, 2))
        for c in (0.0, 1.5, 3.7):
            jac = lewowicz_constant(c).jacobian(X0, ys)
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            assert np.max(np.abs(det - 1)) < 1e-14

    @pytest.mark.parametrize("c,expected", [
        ("1/2", "hyperbolic"), ("1", "parabolic"), ("3/2", "elliptic"),
        ("3", "elliptic"), ("49/10", "elliptic"), ("5", "parabolic"),
        ("51/10", "hyperbolic"),
    ])
    def test_fixed_point_type_exact(self, c, expected):
        assert lewowicz_fixed_point_type(c) == expected


class TestFamilies:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAMILY_IDS)
    def test_area_preservation(self, fam):
        rng = np.random.default_rng(7)
        xs = rng.random((10_000, 2))
        ys = rng.random((10_000, 2))
        jac = fam.jacobian(xs, ys)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-10

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAMILY_IDS)
    def test_inverse_composition(self, fam):
        rng = np.random.default_rng(8)
        xs = rng.random((2000, 2))
        ys = rng.random((2000, 2))
        assert np.max(torus_dist(fam.inverse(xs, fam.apply(xs, ys)), ys)) < 1e-12

    def test_rotation_translates(self):
        fam = RotationFamily(VectorField((0.3, 0.0), ()))
        ys = np.array([[0.1, 0.2], [0.9, 0.9]])
        assert np.allclose(fam.apply(np.zeros(2), ys), (ys + [0.3, 0.0]) % 1.0)

    def test_constant_identity(self):
        fam = ConstantFamily(IdentityMap())
        ys = np.random.default_rng(9).random((20, 2))
        assert np.array_equal(fam.apply(np.zeros(2), ys), ys)

    def test_lewowicz_field_far_from_bump_is_cat(self, cat):
        fam = lewowicz_field_family(center=(0.25, 0.75), inner=0.1, outer=0.2)
        far_x = np.array([0.8, 0.2])
        ys = np.random.default_rng(10).random((100, 2))
        assert np.max(torus_dist(fam.apply(far_x, ys), cat.apply(ys))) < 1e-14

    def test_jacobian_matches_finite_differences(self):
        fam = lewowicz_field_family()
        x = np.array([0.25, 0.7])
        ys = np.random.default_rng(11).random((200, 2))
        jac = fam.jacobian(x, ys)
        h = 1e-7
        for axis in (0, 1):
            e = np.zeros(2)
            e[axis] = h
            fd = ((fam.apply(x, (ys + e)) - fam.apply(x, (ys - e)) + 0.5) % 1.0 - 0.5) / (2 * h)
            assert np.max(np.abs(fd - jac[:, :, axis])) < 1e-5


class TestCocycle:
    def test_zero_steps(self, cat):
        sp = SkewProduct(base=cat, family=rotation_family())
        y = np.array([0.3, 0.4])
        assert np.array_equal(cocycle(sp, (0.1, 0.2), 0, y), y % 1.0)

    def test_constant_family_is_power(self, cat):
        sp = SkewProduct(base=cat, family=lewowicz_constant(1.0))
        y = np.array([0.3, 0.4])
        expected = y.copy()
        for _ in range(5):
            expected = sp.family.apply(X0, expected)
        assert torus_dist(cocycle(sp, (0.1, 0.2), 5, y), expected) < 1e-14

    def test_rotation_telescopes(self, cat):
        # oracle: y + sum tau(A^k x) computed independently
        fam = rotation_family()
        sp = SkewProduct(base=cat, family=fam)
        x = np.array([0.12, 0.34])
        y = np.array([0.5, 0.6])
        n = 40
        orbit = cat.orbit(x, n - 1)
        expected = (y + np.sum(fam.field(orbit), axis=0)) % 1.0
        assert torus_dist(cocycle(sp, x, n, y), expected) < 1e-12

    def test_cocycle_identity(self, cat):
        sp = SkewProduct(base=cat, family=lewowicz_field_family())
        x = np.array([0.21, 0.43])
        y = np.array([0.55, 0.66])
        m, n = 7, 9
        lhs = cocycle(sp, x, m + n, y)
        fm_x = x.copy()
        for _ in range(m):
            fm_x = cat.apply(fm_x)
        rhs = cocycle(sp, fm_x, n, cocycle(sp, x, m, y))
        assert torus_dist(lhs, rhs) < 1e-10

    def test_negative_steps_invert(self, cat):
        sp = SkewProduct(base=cat, family=lewowicz_field_family())
        x = np.array([0.21, 0.43])
        y = np.array([0.15, 0.86])
        fwd = cocycle(sp, x, 6, y)
        x6 = x.copy()
        for _ in range(6):
            x6 = cat.apply(x6)
        assert torus_dist(cocycle(sp, x6, -6, fwd), y) < 1e-12

    def test_fiber_map_dispatch(self, cat):
        sp = SkewProduct(base=cat, family=translation((0.3, 0.0)))
        x, y0 = np.array([0.0, 0.0]), np.array([0.1, 0.1])
        y = sp.family.apply(x, y0)
        assert torus_dist(y, (0.4, 0.1)) < 1e-15
        assert torus_dist(sp.family.inverse(x, y), (0.1, 0.1)) < 1e-15
        assert np.allclose(sp.family.jacobian(x, y0), np.eye(2))


class TestCertification:
    def test_identity_fiber(self, id_sp):
        est = certify_partial_hyperbolicity(id_sp, 16)
        assert est.L_plus == est.L_minus == 1.0
        assert est.dominated and est.bunched

    def test_lewowicz_c2_everywhere_not_dominated(self, cat):
        sp = SkewProduct(base=cat, family=lewowicz_constant(2.0))
        est = certify_partial_hyperbolicity(sp, 16)
        assert est.L_plus > est.lambda_u
        assert not est.dominated

    def test_l_plus_matches_svd_oracle(self, cat):
        # independent oracle: dense SVD over the same grid
        sp = SkewProduct(base=cat, family=lewowicz_constant(2.0))
        est = certify_partial_hyperbolicity(sp, 16)
        ticks = (np.arange(16) + 0.5) / 16
        uu, vv = np.meshgrid(ticks, ticks, indexing="ij")
        ys = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        jac = sp.family.jacobian(np.zeros((len(ys), 2)), ys)
        svals = np.linalg.svd(jac, compute_uv=False)
        assert est.L_plus == pytest.approx(float(np.max(svals)), rel=1e-12)
        assert est.L_minus == pytest.approx(float(np.min(svals)), rel=1e-12)

    def test_cubed_base_dominates_lewowicz(self, cat):
        a3 = make_anosov(np.linalg.matrix_power(cat.matrix, 3))
        sp = SkewProduct(base=a3, family=lewowicz_constant(2.0))
        est = certify_partial_hyperbolicity(sp, 16)
        assert est.lambda_u == pytest.approx(cat.lambda_u**3, rel=1e-12)
        assert est.L_plus < est.lambda_u
        assert est.dominated

    def test_monotone_in_base_strength(self, cat):
        fam = lewowicz_field_family(c_max=1.2)
        est1 = certify_partial_hyperbolicity(SkewProduct(base=cat, family=fam), 16)
        a2 = make_anosov(np.linalg.matrix_power(cat.matrix, 2))
        est2 = certify_partial_hyperbolicity(SkewProduct(base=a2, family=fam), 16)
        if est1.dominated:
            assert est2.dominated

    @pytest.mark.parametrize("c", [1e2, 1e4, 1e6])
    def test_l_minus_is_reciprocal_of_l_plus_for_large_c(self, cat, c):
        # det Dg = 1, so sigma_min = 1/sigma_max at every grid point, also
        # where sigma_max is large enough for sqrt((t - disc)/2) to cancel
        est = certify_partial_hyperbolicity(SkewProduct(base=cat, family=lewowicz_constant(c)),
                                            16)
        assert est.L_minus == pytest.approx(1.0 / est.L_plus, rel=1e-9)
        assert not est.dominated and not est.bunched

    def test_grid_floor(self, id_sp):
        with pytest.raises(ValueError):
            certify_partial_hyperbolicity(id_sp, 8)


class TestRunSteps:
    LENGTHS = (3, 5, 0, 1, 5)   # steps per row; row 2 has none

    def program(self, quad):
        """rows, base points, directions and a (rows, points, 2) state batch;
        most base points near w_1 or w_2, so bump steps and quiet steps mix
        at every depth."""
        rng = np.random.default_rng(12)
        n = sum(self.LENGTHS)
        ws = np.array([tuple(quad.loop_points(i)[1]) for i in (1, 2)])
        near = ws[rng.integers(2, size=n)] + rng.normal(scale=0.3 * quad.ball_radius(1),
                                                        size=(n, 2))
        xs = mod1(np.where(rng.random((n, 1)) < 0.7, near, rng.random((n, 2))))
        rows = np.repeat(np.arange(len(self.LENGTHS)), self.LENGTHS)
        inverse = rng.random(n) < 0.5
        ys = np.concatenate([rng.random((len(self.LENGTHS), 60, 2)),
                             np.broadcast_to([[[0.5, 0.5], [0.5, 0.1], [0.0, 0.0]]],
                                             (len(self.LENGTHS), 3, 2))], axis=1)
        return rows, xs, inverse, ys

    @pytest.mark.parametrize("inner", ["identity", "lewowicz"])
    def test_matches_one_step_at_a_time(self, destroyed_systems, quad, inner, monkeypatch):
        # over the identity act is one kernel call; over f_0.5, which has no
        # quiet mask, it is the default's apply/inverse split
        family = destroyed_systems["fine"].family
        quiet = family.quiet
        if inner == "lewowicz":
            family = PerturbedFamily(LewowiczFamily(ScalarField(0.5)), family.bumps)
        rows, xs, inverse, ys = self.program(quad)
        assert quiet(xs).any() and not quiet(xs).all()
        calls = []
        act = PerturbedFamily.act
        monkeypatch.setattr(PerturbedFamily, "act",
                            lambda self, *args: calls.append(1) or act(self, *args))
        states = ys.copy()
        record = np.empty((len(rows),) + ys.shape[1:])
        run_steps(family, rows, xs, inverse, states, record)
        assert len(calls) == max(self.LENGTHS)
        for r, y in enumerate(ys):
            for j in np.flatnonzero(rows == r):
                y = family.inverse(xs[j], y) if inverse[j] else family.apply(xs[j], y)
                assert record[j].tobytes() == y.tobytes()
            assert states[r].tobytes() == y.tobytes()
        assert not np.array_equal(states, ys)
        # a program with no steps makes no call and leaves the states alone
        before = states.copy()
        run_steps(family, rows[:0], xs[:0], inverse[:0], states, record[:0])
        assert len(calls) == max(self.LENGTHS)
        assert states.tobytes() == before.tobytes()

    @pytest.mark.parametrize("inner", ["identity", "lewowicz"])
    def test_selected_points_match_the_whole_rows(self, destroyed_systems, quad, inner,
                                                  monkeypatch):
        # a selection moves only its points, each bitwise as its whole row
        # moves it, in the same one act call per depth
        family = destroyed_systems["fine"].family
        if inner == "lewowicz":
            family = PerturbedFamily(LewowiczFamily(ScalarField(0.5)), family.bumps)
        rows, xs, inverse, ys = self.program(quad)
        select = np.random.default_rng(3).random(ys.shape[:2]) < 0.4
        select[1] = False   # a row with steps and no selected point
        select[4] = True
        whole = ys.copy()
        run_steps(family, rows, xs, inverse, whole)
        calls = []
        act = PerturbedFamily.act
        monkeypatch.setattr(PerturbedFamily, "act",
                            lambda self, *args: calls.append(1) or act(self, *args))
        states = ys.copy()
        run_steps(family, rows, xs, inverse, states, select=select)
        assert len(calls) == max(self.LENGTHS)
        assert states[select].tobytes() == whole[select].tobytes()
        assert states[~select].tobytes() == ys[~select].tobytes()
        assert not np.array_equal(states[select], ys[select])


def test_only_the_executor_composes_fiber_steps():
    # composing fiber steps means calling FiberFamily.act; run_steps does,
    # and PerturbedFamily.act falls back to the default.  A new composition
    # loop extends run_steps instead of calling act itself
    callers = set()

    def walk(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,), module)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "act"):
                callers.add(".".join((module,) + scope))
            walk(child, scope, module)

    for path in sorted(Path(fiber.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), (), path.stem)
    assert callers == {"fiber.run_steps", "perturbation.PerturbedFamily.act"}
