"""Experiment orchestration CLI.

Subcommands run one scenario each and write a CSV table per scan plus a JSON
summary carrying every parameter (defaults echoed), verdicts, tolerances and
wall time.  Identical config + seed produce byte-identical outputs except for
the single volatile "wall_time_seconds" key.

Exit codes: 0 success, 1 usage, config or output error, 2 scientific postcondition
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .accessibility import classify_class, explore_classes, standard_generators, trivial_set_scan
from .anosov import build_quad
from .config import SCENARIOS, ExperimentConfig, build_base, build_skew_product
from .errors import ConfigError, PostconditionFailure, SearchExhausted, SkewLabError
from .ergodic import ergodic_scan
from .fiber import (LewowiczFamily, ScalarField, SkewProduct, certify_partial_hyperbolicity,
                    lewowicz_fixed_point_type)
from .holonomy import leaf_holonomy
from .monotone import pbb_search, random_monotone_step, random_phi, _pbb_oracle
from .perturbation import DestroyParams, destroy_trivial_class
from .torus import Region, wrap


CSV_ROWS = 1024   # rows of a CSV table formatted at a time


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _cells(column) -> list[str]:
    """One column's cells as _fmt writes each value, formatted in one pass
    where the column is a bool or float array."""
    if isinstance(column, np.ndarray) and column.dtype == bool:
        return np.where(column, "true", "false").tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    return [_fmt(x) for x in column]


def _write_csv(path: Path, header, columns):
    """A CSV table of one sequence of values per header entry, formatted
    CSV_ROWS rows at a time so that its cells never all exist at once."""
    columns = list(columns)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(columns[0]) if columns else 0, CSV_ROWS):
            writer.writerows(zip(*(_cells(c[lo:lo + CSV_ROWS]) for c in columns)))


def _write_summary(path: Path, summary: dict):
    with path.open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _scenario_certify(config, out):
    sp = build_skew_product(config)
    est = certify_partial_hyperbolicity(sp, grid_n=16)
    _write_csv(out / "certify.csv",
               ["lambda_s", "lambda_u", "L_plus", "L_minus", "dominated", "bunched", "grid_n"],
               zip([est.lambda_s, est.lambda_u, est.L_plus, est.L_minus,
                    est.dominated, est.bunched, est.grid_n]))
    return {"estimates": est.as_dict()}


def _scenario_holonomy(config, out):
    sp = build_skew_product(config)
    x = wrap(config.quad.x)
    kind = config.holonomy.kind
    e = sp.base.eigen_direction(kind)
    y = wrap(np.asarray(list(x), float) + config.holonomy.leaf_offset * e)
    h = leaf_holonomy(sp, kind, x, y, tol=config.tolerances.holonomy_tol)
    _write_csv(out / "holonomy.csv", ["n", "cauchy_increment"],
               [range(1, len(h.increments) + 1), h.increments])
    return {"kind": kind, "truncation_n": h.truncation_n,
            "certified_tol": h.certified_tol, "tol": h.tol,
            "n_increments": len(h.increments)}


def _scenario_classify(config, out):
    sp = build_skew_product(config)
    quad = build_quad(sp.base, config.quad.x, config.quad.search_radius,
                      config.quad.max_denominator, config.quad.n_check)
    gens = standard_generators(sp, [quad], tol=config.tolerances.holonomy_tol)
    rng = np.random.default_rng(config.seed)
    region = Region(center=tuple(config.classify.seed_region_center),
                    half=tuple(config.classify.seed_region_half))
    seeds = region.sample(rng, config.classify.n_seeds)
    results = explore_classes(sp, [quad], seeds, K=config.classify.K,
                              word_length=config.classify.word_length, generators=gens)
    rows = []
    tallies: dict[str, int] = {}
    for sample in results:
        cls = classify_class(sample)
        tallies[cls.verdict] = tallies.get(cls.verdict, 0) + 1
        rows.append([sample.seed[0], sample.seed[1], cls.verdict, cls.diameter,
                     cls.dim_estimate, cls.n_points])
    _write_csv(out / "classify.csv",
               ["seed_u", "seed_v", "verdict", "diameter", "dim_estimate", "n_points"],
               zip(*rows))
    return {"verdict_counts": tallies, "n_seeds": len(rows),
            "quad": {"p1": list(quad.p1), "p2": list(quad.p2),
                     "periods": [quad.k1, quad.k2],
                     "tail_certified": quad.tail_certified}}


def _scenario_destroy(config, out):
    sp = build_skew_product(config)
    quad = build_quad(sp.base, config.quad.x, config.quad.search_radius,
                      config.quad.max_denominator, config.quad.n_check)
    params = DestroyParams(holonomy_tol=config.tolerances.holonomy_tol,
                           fixed_point_tol=config.tolerances.fixed_point_tol,
                           scan_tol=config.tolerances.scan_tol,
                           scan_grid_n=config.destroy.scan_grid_n,
                           rng_seed=config.destroy.rng_seed)
    result = destroy_trivial_class(sp, quad, config.destroy.epsilon, params)
    scan = result.scan_double
    _write_csv(out / "destroy_scan.csv",
               ["fiber_u", "fiber_v", "max_displacement", "fixed_by_all"],
               [scan.grid[:, 0], scan.grid[:, 1], scan.max_displacement, scan.fixed_mask])
    gens = standard_generators(sp, [quad], tol=params.holonomy_tol)
    control = trivial_set_scan(sp, [quad], config.destroy.scan_grid_n,
                               config.tolerances.scan_tol, region=result.region,
                               generators=gens)
    return {"v1": list(result.v1), "v2": list(result.v2), "delta": result.delta,
            "draws_used": list(result.draws_used),
            "region_center": list(result.region.center),
            "region_half": list(result.region.half),
            "scan_empty": result.scan.empty,
            "scan_double_empty": result.scan_double.empty,
            "control_all_trivial": control.all_trivial,
            "scan_tol": config.tolerances.scan_tol}


def _scenario_ergodic(config, out):
    sp = build_skew_product(config)
    report = ergodic_scan(sp, config.ergodic.observable, config.ergodic.n,
                          config.ergodic.m_ics, config.seed)
    _write_csv(out / "ergodic.csv", ["checkpoint_n", "sigma"],
               [report.checkpoints, report.sigma])
    return {"observable": report.observable, "verdict": report.verdict,
            "checkpoints": list(report.checkpoints), "sigma": list(report.sigma),
            "decay_ratio": report.decay_ratio, "n": report.n_iterations,
            "m_ics": report.n_initial_conditions}


def _scenario_pbb(config, out):
    rng = np.random.default_rng(config.seed)
    eps = Fraction(config.pbb.epsilon)
    rows = []
    failures = 0
    for k in range(config.pbb.instances):
        a = Fraction(1, 1)
        b = Fraction(1, 1)
        l1 = random_monotone_step(rng, -a, a, config.pbb.max_jumps,
                                  config.pbb.denominator)
        l2 = random_monotone_step(rng, -b, b, config.pbb.max_jumps,
                                  config.pbb.denominator)
        phi = random_phi(rng, b, a, config.pbb.max_jumps, config.pbb.denominator)
        try:
            s, t = pbb_search(l1, l2, phi, eps)
        except SearchExhausted:
            failures += 1
            rows.append([k, "", "", False])
            continue
        verified = _pbb_oracle(l1, l2, phi, s, t)
        rows.append([k, str(s), str(t), verified])
    _write_csv(out / "pbb.csv", ["instance", "s", "t", "oracle_verified"], zip(*rows))
    if failures:
        raise PostconditionFailure(f"{failures} SearchExhausted events in pbb scenario")
    return {"instances": config.pbb.instances, "epsilon": str(eps),
            "search_exhausted": failures,
            "all_verified": all(r[3] for r in rows)}


def _scenario_sweep(config, out):
    rows = []
    base = build_base(config.base)
    for c_str in config.sweep.c_values:
        c = Fraction(str(c_str))
        kind = lewowicz_fixed_point_type(c)
        sp = SkewProduct(base=base, family=LewowiczFamily(ScalarField(float(c))))
        est = certify_partial_hyperbolicity(sp, grid_n=config.sweep.grid_n)
        rows.append([str(c), str(3 - c), kind, est.dominated, est.bunched,
                     est.L_plus, est.L_minus])
    _write_csv(out / "sweep.csv",
               ["c", "trace", "fixed_point_type", "dominated", "bunched",
                "L_plus", "L_minus"], zip(*rows))
    elliptic = [r[0] for r in rows if r[2] == "elliptic"]
    return {"c_values": [str(c) for c in config.sweep.c_values],
            "elliptic_window": elliptic}


_RUNNERS = {
    "certify": _scenario_certify,
    "holonomy": _scenario_holonomy,
    "classify": _scenario_classify,
    "destroy": _scenario_destroy,
    "ergodic": _scenario_ergodic,
    "pbb": _scenario_pbb,
    "sweep": _scenario_sweep,
}


def run_scenario(config: ExperimentConfig) -> dict:
    """Execute the configured scenario and write its result bundle to disk."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    body = _RUNNERS[config.scenario](config, out)
    summary = {
        "scenario": config.scenario,
        "package_version": __version__,
        "config": config.to_dict(),
        "result": body,
        "wall_time_seconds": time.perf_counter() - started,
    }
    _write_summary(out / f"{config.scenario}_summary.json", summary)
    return summary


class _UsageError(Exception):
    """A command line that argparse rejects; main() reports it with exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code reserved here for a failed
    # scientific postcondition; raise instead so that main() can return 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_shared_options(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument("--config", type=str, default=default,
                        help="JSON config path (defaults are used when omitted)")
    parser.add_argument("--seed", type=int, default=default, help="override config seed")
    parser.add_argument("--out", type=str, default=default, help="output directory")


def _parser() -> argparse.ArgumentParser:
    """Shared options are accepted before and after the scenario name.

    The subparser copies default to SUPPRESS: argparse copies a subparser's
    namespace over the top-level one, so a default there would erase a value
    given before the scenario name.  A value given after the name wins.
    """
    parser = _ArgumentParser(
        prog="skewlab",
        description="Desk-scale accessibility experiments for conservative "
                    "skew products over linear Anosov torus maps.")
    _add_shared_options(parser, None)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        _add_shared_options(sub.add_parser(name, help=f"run the {name} scenario"),
                            argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        if args.config is not None:
            config = ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        else:
            config = ExperimentConfig()
        overrides = {"scenario": args.scenario}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        summary = run_scenario(config)
    except (PostconditionFailure, SkewLabError) as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"scenario": config.scenario,
                      "out_dir": config.out_dir,
                      "result": summary["result"]},
                     indent=2, sort_keys=True, default=_json_default))
    return 0


if __name__ == "__main__":
    sys.exit(main())
