"""The four benchmark workloads: seeded set-up, one timed operation, its check.

Each workload drives skewlab only through its library API and calls every
library function through its module attribute (``acc.explore_classes``, not
an imported name), so that the wrappers installed by ``tracing.py`` see the
calls.  An operation runs the workload once on the inputs set-up made from
the seed; it returns how many sub-operations it attempted, how many failed
their correctness gate, and a digest of every verdict-bearing output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import skewlab as sl
from skewlab import accessibility as acc
from skewlab import cli, config, ergodic

CAT = ((2, 1), (1, 1))
# base point, search radius, max denominator and n_check of the quad used by
# the acceptance tests and by the default config
QUAD_ARGS = ((0.0, 0.0), 0.2, 10, 50)

# The two destroyed systems are rebuilt from the public constructors with the
# translations that destroy_trivial_class(id_sp, quad, epsilon, params)
# returned at commit 6d60e4b (draws_used (1, 1) both times).  Re-running the
# destruction costs about 15 s; the rebuild gives bitwise the same
# family.apply on sample points.  Base bumps are BumpProfile(0.45 r_i,
# 0.9 r_i) at w_i with r_i = quad.ball_radius(i), fiber bumps
# BumpProfile(0.34, 0.46): the DestroyParams defaults.
FIBER_BUMP = (0.34, 0.46)
BASE_BUMP_FRACS = (0.45, 0.9)


@dataclass(frozen=True)
class DestroyedSpec:
    v1: tuple[float, float]
    v2: tuple[float, float]
    fiber_centers: tuple[tuple[float, float], tuple[float, float]]
    region_half: float              # half-width of the certified region V_x


# destroy_trivial_class(id_sp, quad, 0.03): the c04 classification system
FINE = DestroyedSpec(
    v1=(-0.009780243953765491, -0.011373074703211682),
    v2=(0.009389670321860106, -0.011697610493035726),
    fiber_centers=((0.5, 0.5), (0.5, 0.5)),
    region_half=0.20662190476356812)

# destroy_trivial_class(id_sp, quad, 0.12, DestroyParams(v_frac=0.9,
# fiber_anchor2=(0.0, 0.0))): the c05/c06/c09 system, whose two fiber
# supports cover the whole fiber torus
STRONG = DestroyedSpec(
    v1=(-0.03344843432187798, -0.03889591548498395),
    v2=(0.03211267250076156, -0.040005827886182184),
    fiber_centers=((0.5, 0.5), (0.0, 0.0)),
    region_half=0.18354382740074493)


def destroyed_system(id_sp, quad, spec: DestroyedSpec):
    fiber = sl.BumpProfile(*FIBER_BUMP)
    bumps = []
    for i, (v, centre) in enumerate(zip((spec.v1, spec.v2), spec.fiber_centers), start=1):
        r = quad.ball_radius(i)
        _, w, _ = quad.loop_points(i)
        bumps.append(sl.BumpTranslation(
            base_center=w,
            base_bump=sl.BumpProfile(BASE_BUMP_FRACS[0] * r, BASE_BUMP_FRACS[1] * r),
            fiber_center=sl.wrap(centre), fiber_bump=fiber, v=v))
    return sl.perturb_skew(id_sp, bumps)


def horizontal_system(cat, quad):
    """c04's curve system: rotation bumps (a, 0) on the p-orbits."""
    b1 = sl.fiber.FieldBump(center=sl.wrap(tuple(quad.p1_orbit[2])),
                            profile=sl.BumpProfile(0.05, 0.14), amplitude=(0.3, 0.0))
    b2 = sl.fiber.FieldBump(center=sl.wrap(tuple(quad.p2_orbit[2])),
                            profile=sl.BumpProfile(0.05, 0.14), amplitude=(-0.23, 0.0))
    return sl.SkewProduct(base=cat, family=sl.RotationFamily(
        sl.VectorField((0.0, 0.0), (b1, b2))))


def base_objects():
    cat = sl.make_anosov(CAT)
    id_sp = sl.SkewProduct(base=cat, family=sl.ConstantFamily(sl.IdentityMap()))
    quad = sl.build_quad(cat, *QUAD_ARGS)
    return cat, id_sp, quad


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str
    notes: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# destroy: the CLI scenario at its default config

@dataclass
class DestroyInputs:
    config: object
    out_dir: Path


def setup_destroy(seed: int, out_dir: Path) -> DestroyInputs:
    """Only the config: run_scenario builds the base map, the quad and the skew
    product itself, inside the timed operation."""
    # the seed drives the translation draws; every other field is the default
    cfg = config.ExperimentConfig(scenario="destroy", seed=seed, out_dir=str(out_dir),
                                  destroy=config.DestroyConfig(rng_seed=seed))
    return DestroyInputs(cfg, out_dir)


def run_destroy(inp: DestroyInputs) -> Outcome:
    summary = cli.run_scenario(inp.config)
    res = summary["result"]
    ok = res["scan_empty"] and res["scan_double_empty"] and res["control_all_trivial"]
    scan_csv = (inp.out_dir / "destroy_scan.csv").read_bytes()
    digest = _digest(json.dumps(res, sort_keys=True).encode(), scan_csv)
    return Outcome(1, 0 if ok else 1, digest,
                   {"draws_used": res["draws_used"], "v1": res["v1"], "v2": res["v2"]})


# ---------------------------------------------------------------------------
# the two classification batteries

@dataclass
class BatteryInputs:
    sp: object
    quad: object
    seeds: np.ndarray
    K: int
    word_length: int
    expect: str


# open-battery: c04's third battery, seeds in the core of V_x
OPEN_SEEDS, OPEN_K, OPEN_WORDS = 4, 4000, 32
# curve-battery: c04's second battery, seeds anywhere on the fiber
CURVE_SEEDS, CURVE_K, CURVE_WORDS = 50, 2000, 24


def setup_open_battery(seed: int, out_dir: Path) -> BatteryInputs:
    _, id_sp, quad = base_objects()
    sp = destroyed_system(id_sp, quad, FINE)
    core = sl.Region(center=(0.5, 0.5), half=(0.6 * FINE.region_half,) * 2)
    seeds = core.sample(np.random.default_rng(seed), OPEN_SEEDS)
    return BatteryInputs(sp, quad, seeds, OPEN_K, OPEN_WORDS, "Open")


def setup_curve_battery(seed: int, out_dir: Path) -> BatteryInputs:
    cat, _, quad = base_objects()
    seeds = np.random.default_rng(seed).random((CURVE_SEEDS, 2))
    return BatteryInputs(horizontal_system(cat, quad), quad, seeds, CURVE_K,
                         CURVE_WORDS, "Curve")


def run_battery(inp: BatteryInputs) -> Outcome:
    """Explore and classify every seed's class; a seed fails unless it gets
    the expected category (a wrong category or Indeterminate both fail)."""
    gens = acc.standard_generators(inp.sp, [inp.quad])
    samples = acc.explore_classes(inp.sp, [inp.quad], inp.seeds, K=inp.K,
                                  word_length=inp.word_length, generators=gens)
    rows = []
    for s in samples:
        c = acc.classify_class(s)
        rows.append((c.verdict, c.diameter, c.dim_estimate, c.box_counts, c.n_points))
    tally = {v: 0 for v in ("Trivial", "Curve", "Open", "Indeterminate")}
    for r in rows:
        tally[r[0]] += 1
    failed = len(rows) - tally[inp.expect]
    dims = [r[2] for r in rows]
    return Outcome(len(rows), failed, _digest(rows),
                   {"verdicts": tally, "dim_min": min(dims), "dim_max": max(dims)})


# ---------------------------------------------------------------------------
# ergodic-destroyed: c09's probe on the strong destroyed system

@dataclass
class ErgodicInputs:
    sp: object
    seed: int


ERGODIC_N, ERGODIC_M = 20_000, 150


def setup_ergodic(seed: int, out_dir: Path) -> ErgodicInputs:
    _, id_sp, quad = base_objects()
    return ErgodicInputs(destroyed_system(id_sp, quad, STRONG), seed)


def run_ergodic(inp: ErgodicInputs) -> Outcome:
    rep = ergodic.ergodic_scan(inp.sp, "fiber_cos", ERGODIC_N, ERGODIC_M, inp.seed)
    ok = rep.verdict == "ERGODIC-LIKE"
    digest = _digest(rep.verdict, rep.sigma, rep.per_ic_averages)
    return Outcome(1, 0 if ok else 1, digest,
                   {"decay_ratio": rep.decay_ratio,
                    "decay_bound": 1.0 / ergodic.ERGODIC_DECAY_FACTOR})


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    sizes: str


WORKLOADS = {w.name: w for w in (
    Workload("destroy", setup_destroy, run_destroy, "default config"),
    Workload("open-battery", setup_open_battery, run_battery,
             f"seeds={OPEN_SEEDS} K={OPEN_K} word_length={OPEN_WORDS}"),
    Workload("curve-battery", setup_curve_battery, run_battery,
             f"seeds={CURVE_SEEDS} K={CURVE_K} word_length={CURVE_WORDS}"),
    Workload("ergodic-destroyed", setup_ergodic, run_ergodic,
             f"n={ERGODIC_N} m={ERGODIC_M}"),
)}
