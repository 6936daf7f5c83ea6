"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import skewlab as sl
from skewlab.accessibility import (classify_class, explore_classes,
                                   standard_generators, trivial_set_scan)
from skewlab.ergodic import ergodic_scan, shadow_check
from skewlab.fiber import FieldBump
from skewlab.monotone import _pbb_oracle, random_monotone_step, random_phi

CAT = [[2, 1], [1, 1]]


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def cat():
    return sl.make_anosov(CAT)


@pytest.fixture(scope="module")
def id_sp(cat):
    return sl.SkewProduct(base=cat, family=sl.ConstantFamily(sl.IdentityMap()))


@pytest.fixture(scope="module")
def quad(cat):
    return sl.build_quad(cat, (0, 0), 0.2, 10, 50)


@pytest.fixture(scope="module")
def rot_sp(cat):
    """Rotation family with a broad bump field: every orbit step contributes."""
    bump = FieldBump(center=sl.wrap((0.5, 0.5)), profile=sl.BumpProfile(0.05, 0.49),
                     amplitude=(0.17, 0.09))
    return sl.SkewProduct(base=cat,
                          family=sl.RotationFamily(sl.VectorField((0.0, 0.0), (bump,))))


@pytest.fixture(scope="module")
def horiz_sp(cat, quad):
    """Horizontal-translation family: bumps on p-orbit points, amplitudes (a, 0)."""
    b1 = FieldBump(center=sl.wrap(tuple(quad.p1_orbit[2])),
                   profile=sl.BumpProfile(0.05, 0.14), amplitude=(0.3, 0.0))
    b2 = FieldBump(center=sl.wrap(tuple(quad.p2_orbit[2])),
                   profile=sl.BumpProfile(0.05, 0.14), amplitude=(-0.23, 0.0))
    return sl.SkewProduct(base=cat,
                          family=sl.RotationFamily(sl.VectorField((0.0, 0.0), (b1, b2))))


@pytest.fixture(scope="module")
def destroyed_strong(id_sp, quad):
    """Destruction with |v| ~ 0.05 and antipodal fiber supports: the two bump
    supports cover the whole fiber torus, so no initial condition is frozen."""
    params = sl.DestroyParams(v_frac=0.9, fiber_anchor2=(0.0, 0.0))
    return sl.destroy_trivial_class(id_sp, quad, 0.12, params)


@pytest.fixture(scope="module")
def destroyed_fine(id_sp, quad):
    """Destruction with |v| = 0.015: the classification battery system."""
    return sl.destroy_trivial_class(id_sp, quad, 0.03)


def test_c01_lewowicz_ellipticity_window():
    t0 = time.perf_counter()
    cases = {"1/2": False, "1": False, "3/2": True, "3": True,
             "49/10": True, "5": False, "51/10": False}
    results = {}
    for c_str, want_elliptic in cases.items():
        c = F(c_str)
        kind = sl.lewowicz_fixed_point_type(c)
        # exact arithmetic cross-check: trace 3 - c, det 1, |trace| < 2
        assert (abs(3 - c) < 2) == (kind == "elliptic")
        results[c_str] = kind == "elliptic"
    ok = results == cases
    dt = time.perf_counter() - t0
    report(1, ok and dt < 1.0,
           f"elliptic exactly on 1 < c < 5 ({results}), {dt:.3f}s < 1s")


def test_c02_holonomy_equivariance_and_series(rot_sp, cat):
    t0 = time.perf_counter()
    x = np.array([0.13, 0.41])
    s_off = 0.12
    y = (x + s_off * cat.e_s) % 1.0
    h = sl.leaf_holonomy(rot_sp, "stable", x, y, tol=1e-10)
    ticks = (np.arange(32) + 0.5) / 32
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    h_push = sl.leaf_holonomy(rot_sp, "stable", cat.apply(x), cat.apply(y), tol=1e-10)
    lhs = h_push(rot_sp.family.apply(x, grid))
    rhs = rot_sp.family.apply(y, h(grid))
    equi = float(np.max(sl.torus_dist(lhs, rhs)))

    n = 80
    xs = cat.orbit(x, n)
    lam = cat.lambda_s ** np.arange(n + 1)
    ys = (xs + np.multiply.outer(s_off * lam, cat.e_s)) % 1.0
    series = np.sum(rot_sp.family.field(xs) - rot_sp.family.field(ys), axis=0)
    probes = np.random.default_rng(0).random((64, 2))
    ser = float(np.max(sl.torus_dist(h(probes), (probes + series) % 1.0)))
    dt = time.perf_counter() - t0
    report(2, equi < 1e-8 and ser < 1e-10 and dt < 10.0,
           f"equivariance {equi:.2e} < 1e-8, series vs limit {ser:.2e} < 1e-10, "
           f"{dt:.1f}s < 10s")


def test_c03_holonomy_convergence(rot_sp, cat):
    t0 = time.perf_counter()
    x = np.array([0.13, 0.41])
    y = (x + 0.12 * cat.e_s) % 1.0
    h = sl.leaf_holonomy(rot_sp, "stable", x, y, tol=1e-10)
    lam = abs(cat.lambda_s)
    bound = lam * (1.0 + rot_sp.family.base_lipschitz()) + 0.1
    ratio = h.measured_decay_ratio()
    dt = time.perf_counter() - t0
    report(3, 0 < ratio <= bound and h.truncation_n <= 40 and dt < 10.0,
           f"decay ratio {ratio:.3f} <= {bound:.3f}, truncation "
           f"{h.truncation_n} <= 40 at tol 1e-10, {dt:.1f}s < 10s")


def test_c04_trichotomy_battery(id_sp, horiz_sp, destroyed_fine, quad):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    n_seeds = 100

    def battery(sp, seeds, K, word_length, gens=None):
        gens = gens or standard_generators(sp, [quad])
        samples = explore_classes(sp, [quad], seeds, K=K, word_length=word_length,
                                  generators=gens)
        return Counter(classify_class(s).verdict for s in samples)

    trivial_tally = battery(id_sp, rng.random((n_seeds, 2)), 500, 8)
    curve_tally = battery(horiz_sp, rng.random((n_seeds, 2)), 2000, 24)
    region = destroyed_fine.region
    core = sl.Region(center=region.center,
                     half=(0.6 * region.half[0], 0.6 * region.half[1]))
    open_tally = battery(destroyed_fine.skew_product, core.sample(rng, n_seeds),
                         2500, 32)

    cross = (trivial_tally["Curve"] + trivial_tally["Open"]
             + curve_tally["Trivial"] + curve_tally["Open"]
             + open_tally["Trivial"] + open_tally["Curve"])
    indet = (trivial_tally["Indeterminate"] + curve_tally["Indeterminate"]
             + open_tally["Indeterminate"])
    ok = (trivial_tally["Trivial"] == n_seeds
          and curve_tally["Curve"] >= 0.95 * n_seeds
          and open_tally["Open"] >= 0.95 * n_seeds
          and cross == 0
          and indet <= 0.05 * 3 * n_seeds)
    dt = time.perf_counter() - t0
    report(4, ok and dt < 300.0,
           f"trivial {trivial_tally['Trivial']}/100, curve {curve_tally['Curve']}/100, "
           f"open {open_tally['Open']}/100, cross-category {cross}, "
           f"indeterminate {indet}, {dt:.0f}s < 300s")


def test_c05_destroy_pipeline(id_sp, quad, destroyed_strong):
    t0 = time.perf_counter()
    res = destroyed_strong
    double_empty = res.scan_double.empty and res.scan_double.grid_n == 64
    control = trivial_set_scan(id_sp, [quad], 32, 1e-6, region=res.region)
    dt = time.perf_counter() - t0
    report(5, res.scan.empty and double_empty and control.all_trivial and dt < 300.0,
           f"perturbed scan empty (32^2 and 64^2 over V_x), unperturbed control "
           f"100% trivial ({int(np.sum(control.fixed_mask))}/{len(control.grid)}), "
           f"{dt:.0f}s < 300s")


def test_c06_conservativity(destroyed_strong, quad):
    t0 = time.perf_counter()
    sp = destroyed_strong.skew_product
    rng = np.random.default_rng(11)
    worst = 0.0
    h = 2e-7
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    for bump in sp.family.bumps:
        base = np.asarray(bump.base_center, float)
        xs = (base + rng.uniform(-1, 1, (1000, 2)) * bump.base_bump.outer_radius) % 1.0
        ys = rng.random((1000, 2))
        jac = sp.family.jacobian(xs, ys)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        worst = max(worst, float(np.max(np.abs(det - 1.0))))

    ys = rng.random((300, 2))
    x0 = np.array([0.377, 0.522])

    def cocycle_map(pts):
        out = pts
        x = x0.copy()
        for _ in range(1000):
            out = sp.family.apply(x, out)
            x = sp.base.apply(x)
        return out

    du = ((cocycle_map((ys + ex) % 1) - cocycle_map((ys - ex) % 1) + 0.5) % 1 - 0.5) / (2 * h)
    dv = ((cocycle_map((ys + ey) % 1) - cocycle_map((ys - ey) % 1) + 0.5) % 1 - 0.5) / (2 * h)
    det_n = du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]
    composed = float(np.max(np.abs(det_n - 1.0)))
    dt = time.perf_counter() - t0
    report(6, worst <= 1e-8 and composed <= 1e-7 and dt < 30.0,
           f"per-map |det-1| {worst:.2e} <= 1e-8 at 1000 points/bump, after 1000 "
           f"compositions {composed:.2e} <= 1e-7, {dt:.0f}s < 30s")


def test_c07_pbb_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    eps = F(1, 16)
    exhausted = 0
    verified = 0
    for _ in range(100):
        l1 = random_monotone_step(rng, F(-1), F(1), max_jumps=20)
        l2 = random_monotone_step(rng, F(-1), F(1), max_jumps=20)
        phi = random_phi(rng, F(1), F(1), max_jumps=20)
        try:
            s, t = sl.pbb_search(l1, l2, phi, eps)
        except sl.SearchExhausted:
            exhausted += 1
            continue
        assert abs(s) <= eps and abs(t) <= eps
        if _pbb_oracle(l1, l2, phi, s, t):
            verified += 1
    dt = time.perf_counter() - t0
    report(7, exhausted == 0 and verified == 100 and dt < 60.0,
           f"100/100 instances solved, {verified} oracle-verified, "
           f"{exhausted} SearchExhausted, {dt:.0f}s < 60s")


def test_c08_bounded_variation_battery():
    rng = np.random.default_rng(88)
    from skewlab.monotone import (MonotoneDifference, _image_intervals,
                                  _merge_intervals, total_variation,
                                  variation_cover_bound,
                                  variation_subadditivity_check)

    violations = 0
    cover_checked = 0
    for _ in range(200):
        g1 = random_monotone_step(rng, F(-1), F(1), max_jumps=12)
        g2 = random_monotone_step(rng, F(-1), F(1), max_jumps=12)
        f = MonotoneDifference(g1, g2)
        cuts = sorted(set(F(int(k), 16) for k in rng.integers(-15, 16, size=4)))
        if len(cuts) == 4:
            if not variation_subadditivity_check(f, [(cuts[0], cuts[1]),
                                                     (cuts[2], cuts[3])]):
                violations += 1
        if not variation_subadditivity_check(f, [(F(-1, 2), F(1, 2))]):
            violations += 1
        intervals = [(F(-3, 4), F(-1, 4)), (F(0), F(1, 2))]
        images = []
        for lo, hi in intervals:
            images.extend(_image_intervals(f, lo, hi))
        lo, hi = max(_merge_intervals(images), key=lambda p: p[1] - p[0])
        if hi > lo:
            cover_checked += 1
            if not variation_cover_bound(f, intervals, lo, hi):
                violations += 1
        assert total_variation(f).value <= (total_variation(g1).value
                                            + total_variation(g2).value)
    report(8, violations == 0 and cover_checked >= 150,
           f"200 instances: zero subadditivity/cover violations "
           f"({cover_checked} cover cases), exact rational arithmetic")


def test_c09_ergodic_probes(cat, id_sp, destroyed_strong):
    t0 = time.perf_counter()
    n, m = 100_000, 50
    frozen = ergodic_scan(id_sp, "fiber_cos", n, m, seed=5)
    ratio_frozen = frozen.sigma[-1] / frozen.sigma[0]

    tau = (math.sqrt(2) - 1.0, (math.sqrt(3) - 1.0) / 2.0)
    rot = sl.SkewProduct(base=cat, family=sl.RotationFamily(sl.VectorField(tau)))
    irr = ergodic_scan(rot, "fiber_cos", n, m, seed=5)
    ratio_irr = irr.sigma[-1] / irr.sigma[0]

    dest = ergodic_scan(destroyed_strong.skew_product, "fiber_cos", n, m, seed=5)
    ratio_dest = dest.sigma[-1] / dest.sigma[0]

    # determinism spot check
    again = ergodic_scan(rot, "fiber_cos", 1000, 10, seed=5)
    again2 = ergodic_scan(rot, "fiber_cos", 1000, 10, seed=5)
    deterministic = again.sigma == again2.sigma

    ok = (ratio_frozen >= 0.9 and frozen.verdict == "NON-ERGODIC-LIKE"
          and ratio_irr <= 1 / 1.5 and irr.verdict == "ERGODIC-LIKE"
          and ratio_dest <= 1 / 1.5 and dest.verdict == "ERGODIC-LIKE"
          and deterministic)
    dt = time.perf_counter() - t0
    report(9, ok and dt < 600.0,
           f"A x id ratio {ratio_frozen:.3f} >= 0.9; irrational rotation "
           f"{ratio_irr:.3f} <= 0.667; destroyed {ratio_dest:.3f} <= 0.667; "
           f"seed-deterministic={deterministic}; {dt:.0f}s < 600s")


def test_c10_shadowing_recovers_contraction(cat, id_sp):
    t0 = time.perf_counter()
    x = np.array([0.13, 0.41])
    y = (x + 0.12 * cat.e_s) % 1.0
    rep = shadow_check(id_sp, ("stable", x, y), np.array([0.3, 0.8]), n_max=40)
    lam = abs(cat.lambda_s)
    rel_err = abs(rep.ratio_estimate - lam) / lam
    dt = time.perf_counter() - t0
    report(10, rel_err < 0.10 and dt < 5.0,
           f"estimated rate {rep.ratio_estimate:.6f} vs lambda_s {lam:.6f} "
           f"(rel err {rel_err:.2e} < 10%), {dt:.1f}s < 5s")
