"""Experiment configuration: strict JSON schema, lossless round-trips,
and construction of the configured dynamical objects.

Unknown keys are rejected everywhere, all tolerances must be positive, and
budgets are capped at documented maxima so a config cannot silently request
an unbounded run.  Defaults are echoed into every output summary.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .anosov import LinearAnosov, make_anosov
from .ergodic import OBSERVABLES
from .errors import ConfigError, NotAnosov
from .fiber import (ConstantFamily, FieldBump, IdentityMap, LewowiczFamily,
                    RotationFamily, ScalarField, SkewProduct, VectorField)
from .torus import BumpProfile, Region, wrap

SCENARIOS = ("certify", "holonomy", "classify", "destroy", "ergodic", "pbb", "sweep")

MAX_BUDGETS = {
    "ergodic.n": 10_000_000,
    "classify.n_seeds": 10_000,
    "classify.K": 100_000,
    "classify.word_length": 200,
    "pbb.instances": 10_000,
    # one pbb instance (three random step maps and the search) takes 0.07 s
    # at max_jumps 1000 and denominator 10^6 on a 2-vCPU x86 host, against
    # 0.002 s at the defaults 20 and 48
    "pbb.max_jumps": 1000,
    "pbb.denominator": 1_000_000,
    # the sweep certifies on grid_n^2 x grid_n^2 base-fiber pairs (grid 48
    # already peaks near 600 MB); the destroy scan builds grid_n^2 points
    "sweep.grid_n": 32,
    "destroy.scan_grid_n": 512,
    "ergodic.m_ics": 10_000,
    # build_quad's candidate search grows like max_denominator^3 (1.7 s at
    # 100); its separation scan takes 0.2 s at n_check 1000
    "quad.max_denominator": 100,
    "quad.n_check": 1000,
}


def _check_keys(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _freeze(value):
    """Canonicalize sequences to nested tuples so round-trips compare equal."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _freeze_fields(obj):
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if isinstance(val, (list, tuple)):
            object.__setattr__(obj, f.name, _freeze(val))


def _check_seed(value, name: str):
    if not (isinstance(value, int) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer")


def _check_pair(value, name: str):
    if not (len(value) == 2 and all(math.isfinite(v) for v in value)):
        raise ValueError(f"{name} must be two finite numbers")


def _check_numbers(value, where: str):
    """Reject, anywhere inside value, a boolean (JSON's true and false are
    not numbers here), NaN and infinities (which JSON admits), and an
    integer too large for a float (JSON integers have no size limit)."""
    if isinstance(value, bool):
        raise ConfigError(f"boolean in {where}, where a number is expected")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite number in {where}")
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"integer in {where} overflows a float") from None
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_numbers(item, where)


def _unique_keys(pairs) -> dict:
    """json.loads' object hook: a key given twice in one object is an error,
    not a silent override by the later value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated key {key!r} in a config object")
        out[key] = value
    return out


def _from_dict(cls, d: dict, where: str):
    """Build cls from d: a field whose default is a dataclass is a sub-config,
    one whose default is an int takes only ints, one whose default is a float
    takes only numbers, and no other value holds a boolean, a non-finite
    number or an integer that a float cannot hold (_check_numbers)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    fields = dataclasses.fields(cls)
    _check_keys(d, [f.name for f in fields], where)
    kwargs = {}
    for f in fields:
        if f.name not in d:
            continue
        val = d[f.name]
        if dataclasses.is_dataclass(f.default):
            val = _from_dict(type(f.default), val, f"{where}.{f.name}")
        elif type(f.default) is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{where}.{f.name} must be an integer")
        elif type(f.default) is float and (not isinstance(val, (int, float))
                                           or isinstance(val, bool)):
            raise ConfigError(f"{where}.{f.name} must be a number")
        else:
            _check_numbers(val, f"{where}.{f.name}")
        kwargs[f.name] = val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, ZeroDivisionError, ConfigError, NotAnosov) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass(frozen=True)
class BaseConfig:
    matrix: tuple = ((2, 1), (1, 1))
    power: int = 1

    def __post_init__(self):
        _freeze_fields(self)
        if not (1 <= int(self.power) <= 8):
            raise ValueError("base power must be in 1..8")
        build_base(self)


@dataclass(frozen=True)
class BumpSpec:
    """One parameter-field bump: amplitude * psi(dist(x, center))."""

    center: tuple = (0.5, 0.5)
    inner: float = 0.08
    outer: float = 0.2
    amplitude: tuple = (1.0,)   # 1-tuple for scalar fields, 2-tuple for vector

    def __post_init__(self):
        _freeze_fields(self)


@dataclass(frozen=True)
class FamilyConfig:
    kind: str = "identity"      # identity|rotation_field|lewowicz_field
    base_value: tuple = (0.0,)
    bumps: tuple = ()

    def __post_init__(self):
        _freeze_fields(self)
        build_family(self)


@dataclass(frozen=True)
class QuadConfig:
    x: tuple = (0.0, 0.0)
    search_radius: float = 0.2
    max_denominator: int = 10
    n_check: int = 50

    def __post_init__(self):
        _freeze_fields(self)
        _check_pair(self.x, "quad.x")
        if not (self.search_radius > 0):
            raise ValueError("search_radius must be positive")
        if not (1 <= self.max_denominator <= MAX_BUDGETS["quad.max_denominator"]):
            raise ValueError("max_denominator out of budget")
        if not (0 <= self.n_check <= MAX_BUDGETS["quad.n_check"]):
            raise ValueError("n_check out of budget")


@dataclass(frozen=True)
class ToleranceConfig:
    holonomy_tol: float = 1e-10
    fixed_point_tol: float = 1e-8
    scan_tol: float = 1e-6

    def __post_init__(self):
        for name in ("holonomy_tol", "fixed_point_tol", "scan_tol"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ClassifyConfig:
    n_seeds: int = 100
    K: int = 2000
    word_length: int = 24
    seed_region_center: tuple = (0.5, 0.5)
    seed_region_half: tuple = (0.45, 0.45)

    def __post_init__(self):
        _freeze_fields(self)
        if not (1 <= self.n_seeds <= MAX_BUDGETS["classify.n_seeds"]):
            raise ValueError("n_seeds out of budget")
        if not (1 <= self.K <= MAX_BUDGETS["classify.K"]):
            raise ValueError("K out of budget")
        if not (1 <= self.word_length <= MAX_BUDGETS["classify.word_length"]):
            raise ValueError("word_length out of budget")
        _check_pair(self.seed_region_center, "seed_region_center")
        _check_pair(self.seed_region_half, "seed_region_half")
        Region(center=self.seed_region_center, half=self.seed_region_half)


@dataclass(frozen=True)
class DestroyConfig:
    epsilon: float = 0.05
    scan_grid_n: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (0 < self.scan_grid_n <= MAX_BUDGETS["destroy.scan_grid_n"]):
            raise ValueError("scan_grid_n out of budget")
        _check_seed(self.rng_seed, "rng_seed")


@dataclass(frozen=True)
class ErgodicConfig:
    observable: str = "fiber_cos"
    n: int = 100_000
    m_ics: int = 50

    def __post_init__(self):
        if self.observable not in OBSERVABLES:
            raise ValueError(f"observable must be one of {OBSERVABLES}")
        if not (1 <= self.n <= MAX_BUDGETS["ergodic.n"]):
            raise ValueError("ergodic n out of budget")
        if not (2 <= self.m_ics <= MAX_BUDGETS["ergodic.m_ics"]):
            raise ValueError("m_ics out of budget")


@dataclass(frozen=True)
class PbbConfig:
    instances: int = 100
    epsilon: str = "1/16"
    max_jumps: int = 20
    denominator: int = 48

    def __post_init__(self):
        if not (1 <= self.instances <= MAX_BUDGETS["pbb.instances"]):
            raise ValueError("instances out of budget")
        if not (1 <= self.max_jumps <= MAX_BUDGETS["pbb.max_jumps"]):
            raise ValueError(f"max_jumps must lie in 1..{MAX_BUDGETS['pbb.max_jumps']}")
        if not (2 <= self.denominator <= MAX_BUDGETS["pbb.denominator"]):
            raise ValueError(
                f"denominator must lie in 2..{MAX_BUDGETS['pbb.denominator']}")
        if not Fraction(self.epsilon) > 0:  # must parse exactly
            raise ValueError("pbb epsilon must be positive")


@dataclass(frozen=True)
class SweepConfig:
    c_values: tuple = ("1/2", "1", "3/2", "3", "49/10", "5", "51/10")
    grid_n: int = 16

    def __post_init__(self):
        _freeze_fields(self)
        if not (16 <= self.grid_n <= MAX_BUDGETS["sweep.grid_n"]):
            raise ValueError(f"grid_n must lie in 16..{MAX_BUDGETS['sweep.grid_n']}")
        for c in self.c_values:
            try:  # must parse exactly, to a value a float can hold
                float(Fraction(str(c)))
            except OverflowError:
                raise ValueError(f"sweep c value {c!r} overflows a float") from None


@dataclass(frozen=True)
class HolonomyConfig:
    leaf_offset: float = 0.15
    kind: str = "stable"

    def __post_init__(self):
        if self.kind not in ("stable", "unstable"):
            raise ValueError("holonomy kind must be 'stable' or 'unstable'")
        # a leaf offset of 1/2 or more is not on the local leaf: the leg would
        # leave the chart in which leaf_coordinate measures it
        if not abs(self.leaf_offset) < 0.5:
            raise ValueError("holonomy leaf_offset must satisfy |leaf_offset| < 1/2")


# ---------------------------------------------------------------------------
# constructing dynamical objects from a config

def _to_float(x, where):
    """float(x) for a number; ConfigError for a string, which float() parses."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ConfigError(f"{where} must hold numbers, not {x!r}")
    return float(x)


def _tuplify(seq, n, where):
    vals = tuple(_to_float(x, where) for x in seq)
    if len(vals) != n:
        raise ConfigError(f"{where} must have {n} entries")
    return vals


def build_field_bumps(specs, vector: bool):
    out = []
    for i, s in enumerate(specs):
        spec = _from_dict(BumpSpec, s, f"bump[{i}]") if isinstance(s, dict) else s
        amp = tuple(_to_float(a, f"bump[{i}] amplitude") for a in spec.amplitude)
        if vector and len(amp) != 2:
            raise ConfigError(f"bump[{i}] amplitude must be a 2-vector")
        if not vector and len(amp) != 1:
            raise ConfigError(f"bump[{i}] amplitude must be a 1-tuple scalar")
        out.append(FieldBump(center=wrap(_tuplify(spec.center, 2, "bump center")),
                             profile=BumpProfile(float(spec.inner), float(spec.outer)),
                             amplitude=amp))
    return tuple(out)


def _base_value(cfg: FamilyConfig, n: int):
    """The field offset as n numbers; the default [0.0] is zero for either kind."""
    if cfg.base_value == FamilyConfig.base_value:
        return (0.0,) * n
    return _tuplify(cfg.base_value, n, f"family.base_value of {cfg.kind}")


def build_family(cfg: FamilyConfig):
    if cfg.kind == "identity":
        return ConstantFamily(IdentityMap())
    if cfg.kind == "rotation_field":
        return RotationFamily(VectorField(_base_value(cfg, 2),
                                          build_field_bumps(cfg.bumps, vector=True)))
    if cfg.kind == "lewowicz_field":
        return LewowiczFamily(ScalarField(_base_value(cfg, 1)[0],
                                          build_field_bumps(cfg.bumps, vector=False)))
    raise ConfigError(f"unsupported family kind {cfg.kind!r}")


def build_base(cfg: BaseConfig) -> LinearAnosov:
    """The base map: the configured matrix raised to the configured power.

    Entries must be ints: a bool or a float, even an integral one, is
    rejected.  The power is taken in exact integers, and an entry beyond the
    int64 range is a ValueError, not a silent wrap."""
    if not all(type(e) is int for row in cfg.matrix for e in row):
        raise ValueError("base matrix entries must be integers")
    matrix = np.linalg.matrix_power(np.array(cfg.matrix, dtype=object), int(cfg.power))
    try:
        matrix = matrix.astype(np.int64)
    except OverflowError:
        raise ValueError("base matrix power has an entry beyond the int64 range") from None
    return make_anosov(matrix)


def build_skew_product(config: ExperimentConfig) -> SkewProduct:
    return SkewProduct(base=build_base(config.base), family=build_family(config.family))


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "certify"
    seed: int = 0
    out_dir: str = "results"
    # the sub-configs are frozen, so one default instance serves every config
    # and its validation (the c_values parse above all) runs once
    base: BaseConfig = BaseConfig()
    family: FamilyConfig = FamilyConfig()
    quad: QuadConfig = QuadConfig()
    tolerances: ToleranceConfig = ToleranceConfig()
    classify: ClassifyConfig = ClassifyConfig()
    destroy: DestroyConfig = DestroyConfig()
    ergodic: ErgodicConfig = ErgodicConfig()
    pbb: PbbConfig = PbbConfig()
    sweep: SweepConfig = SweepConfig()
    holonomy: HolonomyConfig = HolonomyConfig()

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        _check_seed(self.seed, "seed")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def convert(obj):
            if dataclasses.is_dataclass(obj):
                return {f.name: convert(getattr(obj, f.name))
                        for f in dataclasses.fields(obj)}
            if isinstance(obj, (list, tuple)):
                return [convert(x) for x in obj]
            return obj

        return convert(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _from_dict(cls, d, "config")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(data)
