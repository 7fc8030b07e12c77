"""Solver benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload demo --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src/`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it are a readable summary.  The full result and,
for traced runs, the spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# BLAS/OpenMP pools are pinned to one thread before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# read by cli.config_options; a stray value would change iteration counts
SOLVER_VARS = ("SOLVER_TOL", "SOLVER_MAX_ITER")


def prepare_environment() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in SOLVER_VARS:
        os.environ.pop(var, None)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_solver():
    """Import constraints2d from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    import constraints2d

    found = os.path.dirname(os.path.dirname(os.path.abspath(constraints2d.__file__)))
    if found != src:
        raise ImportError(f"constraints2d imported from {found}, expected {src}")


END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinning = prepare_environment()
    try:
        import_solver()
    except ImportError as exc:
        print(f"cannot import the solver: {exc}", file=sys.stderr)
        return 2

    import json

    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    res["environment"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_pinning": pinning,
    }

    if args.trace:
        layers = dict(res["layers"])
        layers["process.wall_setup_s"] = res["wall_setup_s"]
        layers["process.wall_solve_s"] = res["wall_solve_s"]
        layers["process.calibration_s"] = res["calibration_s"]
        layers["process.cpu_s"] = res["cpu_s"]
        layers["process.setup_rss_growth_mb"] = res["setup_rss_growth_mb"]
        layers["process.op_rss_growth_mb"] = res["op_rss_growth_mb"]
        layers["trace.overhead_frac"] = res["traced_solve_s"] / res["wall_solve_s"] - 1.0
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    print(f"# {tag}: environment {json.dumps(res['environment'], sort_keys=True)}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"# failed_frac = {failed_frac:.6g} ({res['failed']} of {res['attempted']})")
    for err in res["errors"]:
        print(f"# failure: {err}")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
