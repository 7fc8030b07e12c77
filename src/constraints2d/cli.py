"""Batch interface: config parsing, solve/sweep/verify commands, persistence.

Config documents are plain text with [grid], [seed], [solver] and [output]
sections; seed fields are lists of Gaussian bumps, one per line (each such
line adds a bump, while any other key may be set only once), e.g.

    [seed]
    b = 0.05
    udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0
    u    = gauss amp=0.1 x0=0.5 y0=0.0 w=1.0

Exit codes: 0 success; 1 a config that cannot be read, a `config error:` (a
ParseError, or the ValidationError of any rejected setting, seed data too large
among them) or an output directory that cannot be written; 2 failed solve (any
SolverError of the solve, an overflow or non-convergence among them; its record
in solution.json names the error and lists the warnings); 3 verification failure
(verify.json still lists every check and the warnings).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .elliptic import greens_convolution_oracle, poisson_solve
from .errors import ParseError, SolverError, ValidationError
from .fields import (
    GaussianBump,
    Grid,
    ScalarField,
    _allocation,
    _is_real,
    build_grid,
    format_bump,
    integrate,
    make_seed,
    multiply,
    parse_bump_line,
    sample_analytic,
    validate_grid,
    write_field_csv,
)
from .geometry import asymptotic_charges, cone_angle
from .momentum import (
    SELECTION_COND_LIMIT,
    SingularTensorParams,
    divergence_identity_residual,
    selection_condition,
    selection_matrix,
    singular_tensors,
)
from .picard import IterState, SolverOptions, picard_step, solve_constraints

__all__ = ["RunConfig", "parse_config", "serialize_config",
           "cmd_solve", "cmd_sweep", "cmd_verify", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, validated on construction (ValidationError): a config
    file, dataclasses.replace and code all build a RunConfig through here."""

    K: int
    N_r: int
    R_max: float
    delta: float = -0.5
    udot_bumps: tuple[GaussianBump, ...] = ()
    u_bumps: tuple[GaussianBump, ...] = ()
    tau_bumps: tuple[GaussianBump, ...] = ()
    b: float = 0.0
    solver: SolverOptions = SolverOptions()
    output_dir: str = "out"

    def __post_init__(self):
        validate_grid(self.K, self.N_r, self.R_max, self.delta)
        if not (_is_real(self.b) and math.isfinite(self.b)):
            raise ValidationError(f"b must be a finite real number, got {self.b!r}")
        for name in ("udot_bumps", "u_bumps", "tau_bumps"):
            bumps = getattr(self, name)
            if not (isinstance(bumps, tuple) and all(isinstance(b, GaussianBump) for b in bumps)):
                raise ValidationError(f"{name} must be a tuple of GaussianBump, got {bumps!r}")
        if not isinstance(self.solver, SolverOptions):
            raise ValidationError(f"solver must be a SolverOptions, got {self.solver!r}")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ValidationError(f"output dir must be a non-empty string, got {self.output_dir!r}")


# [section] -> key -> (field, parser): the RunConfig field the key sets, or in
# [solver] the SolverOptions field, parsed as the type of its default; a bump
# key appends one bump to its tuple, and any other key may appear once
_KEYS = {
    "grid": {"K": ("K", int), "N_r": ("N_r", int),
             "R_max": ("R_max", float), "delta": ("delta", float)},
    "seed": {"b": ("b", float), "udot": ("udot_bumps", parse_bump_line),
             "u": ("u_bumps", parse_bump_line), "tau_tilde": ("tau_bumps", parse_bump_line)},
    "solver": {f.name: (f.name, type(f.default)) for f in fields(SolverOptions)},
    "output": {"dir": ("output_dir", str)},
}
_FORMAT = {float: lambda v: f"{v:.17g}", parse_bump_line: format_bump}


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document into a RunConfig, which validates it."""
    section = None
    settings = {name: {} for name in _KEYS}  # section -> field -> value

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ParseError(f"unknown section [{section}]", ln)
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", ln)
        key, val = (part.strip() for part in line.split("=", 1))
        if section is None:
            raise ParseError("key outside any section", ln)
        if key not in _KEYS[section]:
            raise ParseError(f"unknown {section} key {key!r}", ln)
        if not val:
            raise ParseError(f"{section} {key} must not be empty", ln)
        name, parse = _KEYS[section][key]
        try:
            value = parse(val)
        except (ValueError, ValidationError) as exc:
            raise ParseError(str(exc), ln)
        kv = settings[section]
        if parse is parse_bump_line:
            kv[name] = kv.get(name, ()) + (value,)
        elif name in kv:
            raise ParseError(f"repeated {section} key {key!r}", ln)
        else:
            kv[name] = value

    missing = set(_KEYS["grid"]) - set(settings["grid"])
    if missing:
        raise ParseError(f"missing [grid] keys: {sorted(missing)}")
    return RunConfig(**settings["grid"], **settings["seed"], **settings["output"],
                     solver=SolverOptions(**settings["solver"]))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, (name, parse) in keys.items():
            value = getattr(cfg.solver if section == "solver" else cfg, name)
            for v in value if parse is parse_bump_line else (value,):
                lines.append(f"{key} = {_FORMAT.get(parse, str)(v)}")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------------
# seed construction and env overrides
# ----------------------------------------------------------------------------

def config_grid(cfg: RunConfig) -> Grid:
    return build_grid(cfg.K, cfg.N_r, cfg.R_max, cfg.delta)


def config_seed(cfg: RunConfig, grid: Grid, amplitude: float = 1.0):
    """Seed at the given amplitude: udot, u scale linearly; tau_tilde and b
    quadratically (they sit at the epsilon level of the smallness bookkeeping)."""
    def scaled(blist, s):
        return [replace(bb, amp=s * bb.amp) for bb in blist]

    udot = sample_analytic(scaled(cfg.udot_bumps, amplitude), grid)
    u = sample_analytic(scaled(cfg.u_bumps, amplitude), grid)
    tau = sample_analytic(scaled(cfg.tau_bumps, amplitude**2), grid)
    return make_seed(udot, u, tau, b=cfg.b * amplitude**2)


def config_options(cfg: RunConfig) -> SolverOptions:
    """The config's solver settings with the SOLVER_TOL and SOLVER_MAX_ITER
    environment overrides; raises ValidationError for a bad value."""
    opts = cfg.solver
    for var, key in (("SOLVER_TOL", "tol_fixed_point"), ("SOLVER_MAX_ITER", "max_iter")):
        raw = os.environ.get(var)
        if raw:
            kind = _KEYS["solver"][key][1]
            try:
                value = kind(raw)
            except ValueError:
                raise ValidationError(f"{var} = {raw!r} is not a valid {kind.__name__}")
            opts = replace(opts, **{key: value})
    return opts


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def _record(outcome, seed) -> dict:
    """solution.json's dict for the solve of the seed: its SolutionBundle, or
    the SolverError that ended it; either lists the warnings."""
    if isinstance(outcome, SolverError):
        return {"error": type(outcome).__name__, "message": str(outcome),
                "epsilon": seed.epsilon, "warnings": list(seed.warnings)}
    return {**{name: getattr(outcome, name) for name in (
                "alpha", "rho", "eta", "p", "q", "iterations", "contraction_ratios")},
            **asdict(outcome.residuals),  # the four residual norms, under their names
            "b": seed.b, "epsilon": seed.epsilon,
            "cone_angle": cone_angle(outcome.alpha) if outcome.alpha < 1.0 else None,
            "warnings": list(outcome.warnings)}


# the field files of a successful solve, in the output directory as <name>.csv
_FIELD_CSVS = ("lambda_tilde", "H_tilde_11", "H_tilde_12", "tau_breve")


def cmd_solve(cfg: RunConfig) -> int:
    opts = config_options(cfg)
    grid = config_grid(cfg)
    seed = config_seed(cfg, grid)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "solution.json")
    csvs = [os.path.join(cfg.output_dir, f"{name}.csv") for name in _FIELD_CSVS]

    def remove(paths):  # a directory in a file's place stays, and fails its write
        for path in paths:
            with contextlib.suppress(FileNotFoundError, IsADirectoryError):
                os.remove(path)

    remove([out, *csvs])  # no earlier run's file may pass for this run's, failed or not
    try:
        bundle = solve_constraints(seed, opts)
        with _allocation("the output fields are"):
            params = SingularTensorParams(b=seed.b, p=bundle.p, q=bundle.q)
            tau_breve = singular_tensors(params, grid)[2] + seed.tau_tilde
            for f, path in zip((bundle.lambda_tilde, bundle.H_tilde.h11, bundle.H_tilde.h12,
                                tau_breve), csvs):
                write_field_csv(f, path)
        record = _record(bundle, seed)
    except SolverError as exc:
        record = _record(exc, seed)
        remove(csvs)  # this run's fields, written before the failure
        print(f"solve failed: {exc}", file=sys.stderr)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return 2 if "error" in record else 0


# the solution.json keys that sweep.csv reads, and their values at amplitude
# 0, which needs no solve, and for a failed solve
_SWEEP_KEYS = ("alpha", "p", "q", "momentum_residual_norm", "hamiltonian_residual_norm",
               "iterations")
_ZERO_RECORD = {**dict.fromkeys(_SWEEP_KEYS, 0.0), "iterations": 1}
_FAILED_RECORD = {**dict.fromkeys(_SWEEP_KEYS, np.nan), "iterations": -1}


def cmd_sweep(cfg: RunConfig, amplitudes) -> int:
    amplitudes = list(amplitudes)
    # tau_tilde and b scale with a^2, which must be finite too
    if not (amplitudes and all(_is_real(a) and a >= 0 and math.isfinite(float(a) * float(a))
                               for a in amplitudes)
            and all(a1 < a2 for a1, a2 in zip(amplitudes, amplitudes[1:]))):
        print("config error: sweep needs a nonempty strictly ascending list of finite "
              "nonnegative amplitudes with finite squares", file=sys.stderr)
        return 1
    opts = config_options(cfg)
    grid = config_grid(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)

    # the unit-amplitude seed shape: its resolution warnings and leading-order constants
    seed1 = config_seed(cfg, grid, amplitude=1.0)
    for name in seed1.warnings:
        print(f"warning: {name}", file=sys.stderr)
    rows = []  # (amplitude, its solution.json record, or the zero or failed one)
    status = 0
    for a in amplitudes:
        if a == 0.0:
            rows.append((a, _ZERO_RECORD))
            continue
        seed = config_seed(cfg, grid, amplitude=a)
        try:
            rows.append((a, _record(solve_constraints(seed, opts), seed)))
        except SolverError as exc:
            print(f"amplitude {a}: {exc}", file=sys.stderr)
            rows.append((a, _FAILED_RECORD))
            status = 2

    # the quadratic coefficients, Richardson-extrapolated from the first two
    # solved amplitudes, beside the leading-order constants
    m1, m2 = seed1.momentum_density
    summary = {"alpha_coeff_expected": seed1.epsilon / (4.0 * np.pi),
               "p_coeff_expected": integrate(m1) / np.pi,
               "q_coeff_expected": integrate(m2) / np.pi,
               "warnings": list(seed1.warnings)}
    solved = [(a, rec) for a, rec in rows if a > 0 and np.isfinite(rec["alpha"])]
    if len(solved) >= 2:
        (a1, rec1), (a2, rec2) = solved[:2]
        x1, x2 = a1**2, a2**2
        for name in ("alpha", "p", "q"):
            y1, y2 = rec1[name] / x1, rec2[name] / x2
            c0 = y1 + (y1 - y2) * x1 / (x2 - x1)
            summary[f"{name}_coeff_extrapolated"] = c0
            summary[f"{name}_richardson_remainder"] = abs(c0 - y1)

    with open(os.path.join(cfg.output_dir, "sweep.csv"), "w") as fh:
        fh.write("a,alpha,p,q,momentum_residual,hamiltonian_residual,"
                 "iterations,alpha_over_a2,p_over_a2,q_over_a2\n")
        for a, rec in rows:
            sc = 1.0 / a**2 if a > 0 else np.nan
            al, p, q, rm, rh, it = (rec[key] for key in _SWEEP_KEYS)
            fh.write(f"{a:.17g},{al:.17g},{p:.17g},{q:.17g},{rm:.17g},"
                     f"{rh:.17g},{it},{al*sc:.17g},{p*sc:.17g},{q*sc:.17g}\n")
    with open(os.path.join(cfg.output_dir, "sweep_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return status


def cmd_verify(cfg: RunConfig) -> int:
    """Run the identity/oracle battery on the configured grid: one table of
    (name, tolerance, check), where check() returns the value, or None where
    the check does not apply to this grid, and one loop that records each
    applicable check under its name, as its value or as the SolverError it raised
    (numpy's MemoryError as InvalidResolution)."""
    grid = config_grid(cfg)
    seed = config_seed(cfg, grid)  # a seed the grid cannot resolve is a config error
    for name in seed.warnings:
        print(f"warning: {name}", file=sys.stderr)
    os.makedirs(cfg.output_dir, exist_ok=True)
    gauss = ScalarField.from_mode(grid, 0, "cos", np.exp(-grid.r**2))  # mass pi: (1/2) ln r far out

    @functools.cache  # the order check reuses the configured grid's error
    def zero_mass_error(g):
        # the manufactured zero-mass problem  Delta u = (4r^2 - 4) e^{-r^2},  u = e^{-r^2}
        rhs = ScalarField.from_mode(g, 0, "cos", (4 * g.r**2 - 4) * np.exp(-g.r**2))
        return np.max(np.abs(poisson_solve(rhs).v.a[0] - np.exp(-g.r**2)))

    def convergence_order():
        # the error's order under halving N_r, where the half grid is legal
        if grid.N_r // 2 < 16:
            return None
        half = replace(grid, N_r=grid.N_r // 2)
        return abs(np.log2(zero_mass_error(half) / zero_mass_error(grid)) - 2.0)

    def log_coefficient():
        # the coefficient inherits the discrete flux matching; the constant
        # degrades when the cutoff band is marginally resolved
        return abs(poisson_solve(gauss).c_log - 0.5)

    def greens_far():
        if grid.R_max < 45.0:
            return None
        return abs(greens_convolution_oracle(gauss, [(40.0, 0.0)])[0] - 0.5 * np.log(40.0))

    def divergence_identity():
        # the identity is checked on the nodes with r > 0.5, and r ends at R_max
        if grid.R_max <= 0.5:
            return None
        return divergence_identity_residual(SingularTensorParams(1.0, 1.0, 0.5), grid)

    def cancellation():
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(10):
            b, p, q = rng.normal(size=3)
            Hb, Hrho, tau_s = singular_tensors(SingularTensorParams(b, p, q), grid)
            h11, h12 = Hb.h11 + Hrho.h11, Hb.h12 + Hrho.h12
            diff = (multiply(h11, h11) + multiply(h12, h12)
                    - 0.25 * multiply(tau_s, tau_s))
            m = max(np.max(np.abs(diff.a)), np.max(np.abs(diff.b)))
            worst = max(worst, m / (b * b + p * p + q * q))
        return worst

    def charges():
        params = SingularTensorParams(b=0.3, p=0.1 * np.cos(0.7), q=0.1 * np.sin(0.7))
        _, _, tau_s = singular_tensors(params, grid)
        tau = tau_s + sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
        bh, ph, qh = asymptotic_charges(tau, grid)
        return max(abs(bh - 0.3), abs(ph - params.p), abs(qh - params.q))

    def selection():
        # the matrix the second Picard step solves, at the first iterate
        state, _, _ = picard_step(IterState.zero(grid), seed)
        return selection_condition(selection_matrix(state.lambda_tilde))

    table = (
        ("poisson_zero_mass_error", 2.0 * grid.h**2, lambda: zero_mass_error(grid)),
        ("poisson_convergence_order_deviation", 0.3, convergence_order),
        ("poisson_log_coefficient_error", 4.0 * grid.h**2, log_coefficient),
        ("greens_farfield_error", 1e-3, greens_far),
        ("cancellation_identity", 1e-12, cancellation),
        ("divergence_identity_error", 1e-10, divergence_identity),
        ("charge_roundtrip_error", 1e-6, charges),
        ("rho_eta_selection_condition", SELECTION_COND_LIMIT, selection),
    )
    checks = []
    for name, tol, check in table:
        entry = {"name": name, "tolerance": float(tol)}
        try:
            with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
                  _allocation(f"the arrays of check {name} are")):
                value = check()
        except SolverError as exc:  # a solver failure fails its check
            print(f"check {name} raised: {exc}", file=sys.stderr)
            entry.update(value=None, passed=False, raised=type(exc).__name__)
        else:
            if value is None:
                continue
            # a non-finite value is written as null: verify.json stays strict JSON
            value = float(value)
            entry.update(value=value if np.isfinite(value) else None, passed=bool(value <= tol))
        checks.append(entry)

    with open(os.path.join(cfg.output_dir, "verify.json"), "w") as fh:
        json.dump({"checks": checks, "warnings": list(seed.warnings)}, fh, indent=2,
                  sort_keys=True)
    for c in checks:
        tag = "pass" if c["passed"] else "FAIL"
        value = (f"raised {c['raised']}" if "raised" in c
                 else "non-finite" if c["value"] is None else f"{c['value']:.3e}")
        print(f"[{tag}] {c['name']}: {value} (tol {c['tolerance']:.3e})")
    return 0 if all(c["passed"] for c in checks) else 3


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="constraints2d",
        description="Asymptotically flat initial data for the S1-symmetric "
                    "vacuum constraints on the plane")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve the constraint system")
    p_solve.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="amplitude sweep with quadratic fits")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--amplitudes", required=True,
                         help="comma-separated amplitudes, strictly ascending")
    p_verify = sub.add_parser("verify", help="run the identity/oracle battery")
    p_verify.add_argument("config")

    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            try:
                amplitudes = [float(a) for a in args.amplitudes.split(",") if a]
            except ValueError as exc:
                print(f"bad amplitude list: {exc}", file=sys.stderr)
                return 1
            return cmd_sweep(cfg, amplitudes)
        return cmd_verify(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
