"""skewlab benchmark: four workloads timed end to end and, traced, per module.

Run from the repository root:

    python3 perfbench/run.py --workload open-battery --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each run is a closed loop in one process and one thread.  It sets the
workload up from the seed several times (``setup_s`` is the median), then
runs the workload's operation back to back until ``--seconds`` have passed,
at least once.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the wrappers of ``tracing.py``
before the operations and reports the per-layer metrics per operation.
Every operation's outputs are checked and digested.  A digest that differs
between two operations of one run, or from an earlier run in the same
checkout of the same workload and seed on the same code (the skewlab
sources, ``workloads.py`` and the numpy version; kept in
``perfbench/out/digests.json``), counts as a failed operation.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
HOLDOUT_SEED = 1017     # kept for checking claims; never used while tuning
# set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPEATS times), so that a cheap set-up is timed
# over enough repeats to be steady
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 5, 0.5, 5000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("destroy", "open-battery", "curve-battery", "ergodic-destroyed")


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def _code_id() -> str:
    """Hash of the code whose outputs are digested: the skewlab sources, the
    workload definitions and the numpy version."""
    import numpy as np

    h = hashlib.sha256(np.__version__.encode())
    files = sorted((SRC / "skewlab").rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_digest(key: str, digest: str) -> bool:
    """Record the digest of (workload, seed, code); False if it changed."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if known.setdefault(key, digest) != digest:
        return False
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def _run_ops(workload, inputs, seconds: float, tally: dict, tracer=None) -> list[float]:
    """Operations back to back until ``seconds`` pass; wall time of each."""
    from skewlab.errors import SkewLabError

    walls = []
    started = perf_counter()
    while not walls or perf_counter() - started < seconds:
        if tracer is not None:
            tracer.op = len(walls)
        t0 = perf_counter()
        try:
            outcome = workload.run(inputs)
        except SkewLabError as exc:
            walls.append(perf_counter() - t0)
            tally["attempted"] += 1
            tally["failed"] += 1
            tally["errors"].append(repr(exc))
            continue
        walls.append(perf_counter() - t0)
        tally["attempted"] += outcome.attempted
        tally["failed"] += outcome.failed
        tally["digests"].append(outcome.digest)
        tally["notes"] = outcome.notes
    return walls


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup_times = []
        started = perf_counter()
        while len(setup_times) < SETUP_REPEATS or (
                perf_counter() - started < SETUP_MIN_S
                and len(setup_times) < SETUP_MAX_REPEATS):
            t0 = perf_counter()
            inputs = workload.setup(seed, scratch)
            setup_times.append(perf_counter() - t0)
        tally = {"attempted": 0, "failed": 0, "digests": [], "errors": [], "notes": {}}
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        walls = _run_ops(workload, inputs, seconds, tally, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(set(tally["digests"])) > 1:
        tally["failed"] += 1
        tally["errors"].append("operations at one seed gave different digests")
    code = _code_id()
    if tally["digests"] and not _check_digest(f"{name}:{seed}:{code}", tally["digests"][0]):
        tally["failed"] += 1
        tally["errors"].append("digest differs from an earlier run at this seed")

    if trace:
        layer = tracer.metrics(len(walls))
        layer["unattributed_s"] = (sum(walls) - tracer.self_total()) / len(walls)
        layer["trace_overhead_s"] = tracer.span_cost() * tracer.spans() / len(walls)
        listed = spec["per_layer"]
        values = {m["name"]: layer[m["name"]] for m in listed}
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.npz")
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "sizes": workload.sizes, "machine": _machine(), "code": code,
               "walls_s": walls, "setup_repeats": len(setup_times),
               "notes": tally["notes"], "errors": tally["errors"],
               "digest": tally["digests"][0] if tally["digests"] else None,
               "missing_boundaries": tracer.missing if tracer else []}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**details, "metrics": metrics}, indent=1))
    m = details["machine"]
    print(f"workload {name}, seed {seed}, trace {int(trace)}, sizes {workload.sizes}, "
          f"{len(walls)} operation(s), code {code}, digest {details['digest']}")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']}, numpy {m['numpy']}")
    for note, val in tally["notes"].items():
        print(f"  {note}: {val}")
    for err in tally["errors"]:
        print(f"  failed: {err}")
    for key, val in metrics.items():
        print(f"  {key:45s} {val['value']:.6g} {val['unit']}")
    return {"correct": tally["failed"] == 0, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in a process of its own, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; hold-out seed for "
                             f"checking claims: {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "skewlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run from a skewlab checkout: {SRC / 'skewlab'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # BLAS and OpenMP read these when numpy loads; children inherit them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        result = run_all(args.seed, seconds, args.trace)
    else:
        sys.path[:0] = [str(SRC), str(HERE)]
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
