"""Workloads, operations and output checks of the solver benchmark.

Every workload is a closed loop in one process: the next step starts when
the previous one returns.  A run alternates fresh set-ups (grid, seed and
the first operation on them) with warm timed operations.

* ``demo``     warm ``picard.solve_constraints`` of ``configs/demo.cfg``
               on a set-up grid (6 Picard iterations).
* ``strong``   the same grid and bump shape at 3x amplitude (12 iterations).
* ``cold_cli`` one in-process ``cli.cmd_solve`` of the demo data per
               operation, on a freshly built grid, writing into a scratch
               directory.

A workload seed other than 0 moves every bump centre by up to JITTER_XY in
x and y and scales every width by up to 1 +- JITTER_W; seed 0 is the config
exactly.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

import tracing
from constraints2d import cli, picard
from constraints2d.errors import SolverError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CFG = os.path.join(ROOT, "configs", "demo.cfg")

JITTER_XY = 0.02
JITTER_W = 0.01
STRONG_AMPLITUDE = 3.0

# An output passes when both residual norms stay below RESIDUAL_BOUND (they
# are about 1e-13 on demo and 6e-12 on strong) and, for seed-0 inputs, alpha,
# p and q match REFERENCE to REFERENCE_RTOL.  Every run solves the seed-0
# inputs once, whatever its seed, so every run checks the reference.  That tolerance sits well above the
# effect of the 1e-10 fixed-point tolerance and well below the ~1e-4
# discretisation error, so a change of scheme shows while rounding does not.
RESIDUAL_BOUND = 1e-9
REFERENCE_RTOL = 1e-7
REFERENCE = {
    "demo": {"alpha": 3.5461188112810636e-03, "p": 2.124213991079389e-03,
             "q": 1.274528394647634e-03},
    "strong": {"alpha": 1.6949242757266e-02, "p": 1.9876755157520472e-02,
               "q": 1.192605309451228e-02},
}
REFERENCE["cold_cli"] = REFERENCE["demo"]

WORKLOADS = ("demo", "strong", "cold_cli")


def workload_config(name: str, seed: int) -> cli.RunConfig:
    """The workload's run config, jittered by ``seed`` (0 = unchanged).

    ``strong`` shares the demo config; its seed is sampled at
    STRONG_AMPLITUDE (``Workload.setup``)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    with open(DEMO_CFG) as fh:
        cfg = cli.parse_config(fh.read())
    if seed:
        rng = np.random.default_rng(seed)
        cfg = replace(cfg, udot_bumps=_jittered(cfg.udot_bumps, rng),
                      u_bumps=_jittered(cfg.u_bumps, rng),
                      tau_bumps=_jittered(cfg.tau_bumps, rng))
    return cfg


def _jittered(bumps, rng):
    out = []
    for b in bumps:
        dx, dy, dw = rng.uniform(-1.0, 1.0, size=3)
        out.append(replace(b, x0=b.x0 + JITTER_XY * dx, y0=b.y0 + JITTER_XY * dy,
                           w=b.w * (1.0 + JITTER_W * dw)))
    return tuple(out)


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    cpu_seconds: float
    error: str | None      # None when the output passed its check
    values: dict | None    # alpha, p, q, iterations, residual norms


class Workload:
    """One workload's inputs, its operation and the check of its output."""

    def __init__(self, name: str, seed: int, scratch: str):
        self.name = name
        self.cfg = workload_config(name, seed)
        self.amplitude = STRONG_AMPLITUDE if name == "strong" else 1.0
        self.scratch = scratch
        self.reference = REFERENCE[name] if seed == 0 else None
        self.seed_data = None
        self.opts = None
        self._first = None

    def setup(self) -> tuple[float, Outcome]:
        """Fresh grid, seed and the first operation on them; returns the
        set-up wall time and the first operation's outcome."""
        t0 = time.perf_counter()
        if self.name != "cold_cli":
            grid = cli.config_grid(self.cfg)
            self.seed_data = cli.config_seed(self.cfg, grid, amplitude=self.amplitude)
            self.opts = cli.config_options(self.cfg)
        first = self.run_once()
        return time.perf_counter() - t0, first

    def run_once(self) -> Outcome:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            values = self._operate()
        except SolverError as exc:
            return Outcome(time.perf_counter() - t0, time.process_time() - c0,
                           f"{type(exc).__name__}: {exc}", None)
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Outcome(elapsed, cpu, self._check(values), values)

    def _operate(self) -> dict:
        if self.name == "cold_cli":
            out = os.path.join(self.scratch, "out")
            code = cli.cmd_solve(replace(self.cfg, output_dir=out))
            with open(os.path.join(out, "solution.json")) as fh:
                sol = json.load(fh)
            if code != 0:
                raise SolverError(f"cmd_solve exit {code}: {sol.get('message')}")
            for name in ("lambda_tilde", "H_tilde_11", "H_tilde_12", "tau_breve"):
                if os.path.getsize(os.path.join(out, f"{name}.csv")) == 0:
                    raise SolverError(f"{name}.csv is empty")
            return {k: sol[k] for k in ("alpha", "p", "q", "iterations",
                                        "momentum_residual_norm",
                                        "hamiltonian_residual_norm")}
        bundle = picard.solve_constraints(self.seed_data, self.opts)
        return {"alpha": bundle.alpha, "p": bundle.p, "q": bundle.q,
                "iterations": bundle.iterations,
                "momentum_residual_norm": bundle.residuals.momentum_residual_norm,
                "hamiltonian_residual_norm": bundle.residuals.hamiltonian_residual_norm}

    def _check(self, values: dict) -> str | None:
        for key in ("momentum_residual_norm", "hamiltonian_residual_norm"):
            if not values[key] < RESIDUAL_BOUND:
                return f"{key} = {values[key]:.3g} not below {RESIDUAL_BOUND:g}"
        if self._first is None:
            self._first = values
        elif values != self._first:
            return f"output {values} differs from the first operation's {self._first}"
        for key, ref in (self.reference or {}).items():
            if not abs(values[key] - ref) <= REFERENCE_RTOL * abs(ref):
                return f"{key} = {values[key]!r}, reference {ref!r}"
        return None


# ----------------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Check the seed-0 reference, then loop rounds for ``seconds``.

    The reference check is one untimed set-up of the workload's seed-0
    inputs, whatever ``seed`` is; its output must match REFERENCE.  Each
    round is a fresh set-up followed by one timed operation (plus, with
    ``trace``, one traced operation) on the new grid, so set-up and solve
    times sample the whole run.  A calibration follows every timed step; see
    CALIBRATION_REF_S.  The traced operations give the per-layer figures and
    their spans are written to ``out_dir``.
    """
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        _, checked = Workload(name, 0, scratch).setup()
        peak_rss = _peak_rss_mb()
        wl = Workload(name, seed, scratch)
        firsts, plain, traced = [], [], []
        setup_times, setup_growth, op_growth, cals = [], [], [], []
        tracer = tracing.Tracer() if trace else None
        t_end = time.perf_counter() + seconds
        while True:
            rss = _current_rss_mb()
            t, first = wl.setup()
            setup_growth.append(_current_rss_mb() - rss)
            cals.append(calibration_s())
            setup_times.append(t)
            firsts.append(first)
            rss = _current_rss_mb()
            plain.append(wl.run_once())
            op_growth.append(_current_rss_mb() - rss)
            cals.append(calibration_s())
            if tracer is not None:
                tracer.op = len(traced)
                with tracer:
                    traced.append(wl.run_once())
            if time.perf_counter() >= t_end:
                break
        outcomes = [checked] + firsts + plain + traced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(o.error is not None for o in outcomes)
    wall_setup_s = statistics.median(setup_times)
    wall_solve_s = statistics.median(o.seconds for o in plain)
    host_scale = CALIBRATION_REF_S / statistics.median(cals)
    result = {
        "workload": name, "seed": seed,
        "attempted": len(outcomes), "failed": failed,
        "errors": sorted({o.error for o in outcomes if o.error}),
        "setup_s": wall_setup_s * host_scale,
        "solve_s": wall_solve_s * host_scale,
        "peak_rss_mb": peak_rss,
        "wall_setup_s": wall_setup_s,
        "wall_solve_s": wall_solve_s,
        "calibration_s": statistics.median(cals),
        "cpu_s": statistics.median(o.cpu_seconds for o in plain),
        "setup_rss_growth_mb": statistics.median(setup_growth),
        "op_rss_growth_mb": statistics.median(op_growth),
        "setup_times": setup_times, "op_times": [o.seconds for o in plain],
        "calibration_times": cals,
        "values": next((o.values for o in outcomes if o.values), None),
    }
    if tracer is not None:
        result["traced_solve_s"] = statistics.median(o.seconds for o in traced)
        result["layers"] = layer_metrics(tracer, len(traced))
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
    return result


# On a shared VM the wall time of one and the same operation drifts by up to
# 2x within minutes, with the load of other tenants.  A fixed numpy kernel of
# the solver's kind (FFT products on a demo-sized field) is timed after every
# timed step, and setup_s and solve_s are scaled by CALIBRATION_REF_S over the
# run's median kernel time: they are seconds at the host speed at which the
# kernel takes CALIBRATION_REF_S.  That cancels most of the drift between
# runs.  The kernel runs no solver code, so a change to the solver moves the
# scaled times in full.
CALIBRATION_REF_S = 0.05
CALIBRATION_REPS = 175
# angular coefficients (modes 0..16) of two fields on 512 radial points: the
# shape of a demo field; the kernel is one dealiased product on M = 64 angles
_CAL_COEFFS = np.random.default_rng(0).standard_normal((2, 17, 512))


def calibration_s() -> float:
    """Wall seconds of the fixed calibration kernel."""
    a, b = _CAL_COEFFS
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        spec = np.zeros((512, 33), dtype=complex)
        spec[:, :17] = a.T - 1j * b.T
        f = np.fft.irfft(spec, n=64, axis=1)
        np.fft.rfft(f * f, axis=1)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _current_rss_mb() -> float:
    """Resident memory now (Linux ``/proc/self/statm``), unlike the peak."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


# counters and spans that become per-layer metrics: (metric, source, kind)
# kind "calls" = spans per operation, "s" = median self seconds per operation,
# "count" = counter per operation
LAYER_METRICS = [
    ("fields.multiply.calls", "fields.multiply", "calls"),
    ("fields.multiply.s", "fields.multiply", "s"),
    ("fields.cartesian_gradient.calls", "fields.cartesian_gradient", "calls"),
    ("fields.cartesian_gradient.s", "fields.cartesian_gradient", "s"),
    ("fields.fft.calls", "fields.fft", "count"),
    ("fields.weighted_sobolev_norm.calls", "fields.weighted_sobolev_norm", "calls"),
    ("fields.weighted_sobolev_norm.s", "fields.weighted_sobolev_norm", "s"),
    ("fields.sample_analytic.s", "fields.sample_analytic", "s"),
    ("fields.make_seed.s", "fields.make_seed", "s"),
    ("operators.factorizations", "operators.factorizations", "count"),
    ("operators.factorize.s", "operators.factorize", "s"),
    ("operators.banded_solves", "operators.banded_solve", "calls"),
    ("operators.banded_solve.s", "operators.banded_solve", "s"),
    ("elliptic.poisson_solve.calls", "elliptic.poisson_solve", "calls"),
    ("elliptic.poisson_solve.s", "elliptic.poisson_solve", "s"),
    ("momentum.solve_rho_eta.s", "momentum.solve_rho_eta", "s"),
    ("momentum.momentum_rhs_f.calls", "momentum.momentum_rhs_f", "calls"),
    ("momentum.momentum_rhs_f.s", "momentum.momentum_rhs_f", "s"),
    ("momentum.div_constraint_solve.calls", "momentum.div_constraint_solve", "calls"),
    ("momentum.div_constraint_solve.s", "momentum.div_constraint_solve", "s"),
    ("momentum.correction_h2.calls", "momentum.correction_h2", "calls"),
    ("momentum.correction_h3.calls", "momentum.correction_h3", "calls"),
    ("momentum.momentum_residual.s", "momentum.momentum_residual", "s"),
    ("lichnerowicz.hamiltonian_rhs.s", "lichnerowicz.hamiltonian_rhs", "s"),
    ("lichnerowicz.solve_lambda.s", "lichnerowicz.solve_lambda", "s"),
    ("picard.iterations", "picard.picard_step", "calls"),
    ("picard.picard_step.s", "picard.picard_step", "s"),
    ("picard.combined_norm.calls", "picard.combined_norm", "calls"),
    ("picard.combined_norm.s", "picard.combined_norm", "s"),
    ("picard.residuals.s", "picard.residuals", "s"),
    ("picard.unattributed_s", "picard.solve_constraints", "s"),
    ("cli.write_field_csv.calls", "cli.write_field_csv", "calls"),
    ("cli.write_field_csv.s", "cli.write_field_csv", "s"),
    ("cli.output.s", "cli.cmd_solve", "s"),
]


def layer_metrics(tracer, n_ops: int) -> dict:
    """Per-operation counts (exact when every operation does the same work)
    and median per-operation self seconds, keyed by metric name."""
    by_op = tracer.self_times()
    out = {}
    for metric, source, kind in LAYER_METRICS:
        if kind == "s":
            out[metric] = statistics.median(
                by_op[op][source][1] if source in by_op[op] else 0.0
                for op in range(n_ops))
        else:
            total = sum((by_op[op][source][0] if source in by_op[op] else 0)
                        if kind == "calls" else tracer.counts[op][source]
                        for op in range(n_ops))
            out[metric] = total // n_ops if total % n_ops == 0 else total / n_ops
    return out
