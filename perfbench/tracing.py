"""Per-layer tracing from outside the library.

``Tracer.install`` replaces module entry points of skewlab with timing
wrappers, in the defining module and in every skewlab module that imported
the same object by name.  Each wrapped call records a span (boundary, start,
end, parent span, operation index) in compact arrays kept in memory and
written out once at exit, and adds to the boundary's call count, work
counters and self time (span time minus the time covered by child spans).
A boundary that no longer exists is reported as missing and its metrics
read 0.  ``Tracer.span_cost`` times the wrapper itself on a no-op, so the
tracing overhead of a run is that cost times the number of spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


def _points(ys) -> int:
    return math.prod(np.shape(ys)[:-1])


def _xy_points(args) -> int:
    x, y = args[1], args[2]
    return math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))


# Counters get (tracer, args, kwargs, result) and return increments.
def _count_ys(_, args, kwargs, result):
    return {"points": _points(args[1] if len(args) > 1 else kwargs["ys"])}


def _count_xy(_, args, kwargs, result):
    return {"points": _xy_points(args)}


def _count_bump(_, args, kwargs, result):
    return {"points": _points(args[2] if len(args) > 2 else kwargs["ys"])}


def _count_loop(tracer, args, kwargs, result):
    n = _points(args[1] if len(args) > 1 else kwargs["ys"])
    if tracer.active["accessibility.explore"]:
        explore = tracer.acc["accessibility.explore"]
        explore["images"] = explore.get("images", 0) + n
    return {"points": n}


def _count_destroy(_, args, kwargs, result):
    return {"draws": sum(result.draws_used)}


def _count_fixed_points(tracer, args, kwargs, result):
    bound = tracer.signature("accessibility.fixed_points").bind(*args, **kwargs)
    bound.apply_defaults()
    return {"found": len(result.points), "seeds": bound.arguments["seed_grid_n"] ** 2}


def _count_scan(_, args, kwargs, result):
    return {"grid_points": len(result.grid)}


def _count_explore(_, args, kwargs, result):
    # points collected beyond the seeds themselves
    return {"points": sum(len(s.points) - 1 for s in result)}


def _count_classify(_, args, kwargs, result):
    return {"indeterminate": int(result.verdict == "Indeterminate")}


def _count_diameter(_, args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _count_certify(_, args, kwargs, result):
    trunc, _, increments = result
    return {"compositions": len(increments), "truncation": trunc}


def _count_ergodic(_, args, kwargs, result):
    return {"orbit_steps": result.n_iterations * result.n_initial_conditions}


def _count_scenario(_, args, kwargs, result):
    out = Path(args[0].out_dir)
    return {"bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


# boundary name -> (module, attributes wrapped, counter).  The first
# attribute's signature is used by counters that bind arguments.
BOUNDARIES = {
    "perturbation.bump": ("skewlab.perturbation", ("_bump_fiber_action",), _count_bump),
    "perturbation.family": ("skewlab.perturbation",
                            ("PerturbedFamily.apply", "PerturbedFamily.inverse",
                             "PerturbedFamily.jacobian"), _count_xy),
    "perturbation.destroy": ("skewlab.perturbation", ("destroy_trivial_class",),
                             _count_destroy),
    "accessibility.fixed_points": ("skewlab.accessibility", ("find_fixed_points",),
                                   _count_fixed_points),
    "accessibility.trivial_scan": ("skewlab.accessibility", ("trivial_set_scan",),
                                   _count_scan),
    "accessibility.loop": ("skewlab.accessibility", ("LoopMap.__call__", "LoopMap.inverse"),
                           _count_loop),
    "accessibility.explore": ("skewlab.accessibility", ("explore_classes",), _count_explore),
    "accessibility.diameter": ("skewlab.accessibility", ("sample_diameter",), _count_diameter),
    "accessibility.box_counts": ("skewlab.accessibility", ("box_counts",), None),
    "accessibility.classify": ("skewlab.accessibility", ("classify_class",),
                               _count_classify),
    "holonomy.certify": ("skewlab.holonomy", ("_certify",), _count_certify),
    "holonomy.eval": ("skewlab.holonomy", ("HolonomyMap.evaluate_at",), _count_ys),
    "fiber.family": ("skewlab.fiber",
                     ("ConstantFamily.apply", "ConstantFamily.inverse",
                      "RotationFamily.apply", "RotationFamily.inverse",
                      "LewowiczFamily.apply", "LewowiczFamily.inverse"), _count_xy),
    "ergodic.scan": ("skewlab.ergodic", ("ergodic_scan",), _count_ergodic),
    "cli.scenario": ("skewlab.cli", ("run_scenario",), _count_scenario),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


class Tracer:
    """Spans and per-boundary totals of one benchmark process."""

    def __init__(self):
        self.names = list(BOUNDARIES)
        self.acc = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        self.active = {name: 0 for name in self.names}
        self.missing: list[str] = []
        self.op = 0
        self._sigs: dict[str, inspect.Signature] = {}
        # span columns; a span's parent is an index into the same columns
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span index, time covered by children]

    def signature(self, name: str) -> inspect.Signature:
        return self._sigs[name]

    def install(self):
        for name, (modname, attrs, counter) in BOUNDARIES.items():
            module = sys.modules.get(modname)
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                orig = getattr(target, leaf, None)
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._sigs.setdefault(name, inspect.signature(orig))
                wrapper = self._wrap(name, orig, counter)
                setattr(target, leaf, wrapper)
                if not owner:
                    self._rebind(orig, wrapper)

    @staticmethod
    def _rebind(orig, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname == "skewlab" or modname.startswith("skewlab."):
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)

    def _wrap(self, name, orig, counter):
        idx = self.names.index(name)
        acc = self.acc[name]
        active = self.active
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append([span, 0.0])
            active[name] += 1
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                _, covered = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                acc["calls"] += 1
                acc["self_s"] += dur - covered
                self.span_start[span] = start
                self.span_end[span] = end
            if counter is not None:
                for key, val in counter(self, args, kwargs, result).items():
                    acc[key] = acc.get(key, 0) + val
            return result

        return wrapper

    def spans(self) -> int:
        return len(self.span_start)

    @staticmethod
    def span_cost(calls: int = 20_000, repeats: int = 7) -> float:
        """Seconds one wrapped call adds: a no-op with a point counter, wrapped
        by a throw-away tracer, against the bare no-op (median of repeats)."""
        def noop(x, ys):
            return ys

        wrapped = Tracer()._wrap("holonomy.eval", noop, _count_ys)
        ys = np.zeros((1, 2))
        costs = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                noop(None, ys)
            t1 = perf_counter()
            for _ in range(calls):
                wrapped(None, ys)
            costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
        return statistics.median(costs)

    def self_total(self) -> float:
        return sum(a["self_s"] for a in self.acc.values())

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per operation (totals divided by ``ops``)."""
        def tot(name, key):
            return self.acc[name].get(key, 0)

        out = {f"{name}.{key}": tot(name, key) / ops
               for name in self.names for key in ("calls", "points", "self_s")}
        for name, key in (("perturbation.destroy", "draws"),
                          ("accessibility.fixed_points", "found"),
                          ("accessibility.trivial_scan", "grid_points"),
                          ("accessibility.diameter", "pairs"),
                          ("accessibility.classify", "indeterminate"),
                          ("holonomy.certify", "compositions"),
                          ("ergodic.scan", "orbit_steps"),
                          ("cli.scenario", "bytes_written")):
            out[f"{name}.{key}"] = tot(name, key) / ops
        bump = "perturbation.bump"
        out[f"{bump}.points_per_call"] = _ratio(tot(bump, "points"), tot(bump, "calls"))
        out[f"{bump}.us_per_point"] = 1e6 * _ratio(tot(bump, "self_s"), tot(bump, "points"))
        out["perturbation.destroy.draw_ratio"] = _ratio(
            2 * tot("perturbation.destroy", "calls"), tot("perturbation.destroy", "draws"))
        out["accessibility.fixed_points.useful_ratio"] = _ratio(
            tot("accessibility.fixed_points", "found"), tot("accessibility.fixed_points", "seeds"))
        out["accessibility.explore.useful_ratio"] = _ratio(
            tot("accessibility.explore", "points"), tot("accessibility.explore", "images"))
        out["holonomy.certify.useful_ratio"] = _ratio(
            tot("holonomy.certify", "truncation"), tot("holonomy.certify", "compositions"))
        return out

    def write_spans(self, path: Path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.uint16),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 op=np.frombuffer(self.span_op, np.uint16),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))
