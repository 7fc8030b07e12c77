"""Batch interface: config parsing, solve/sweep/verify commands, persistence.

Config documents are plain text with [grid], [seed], [solver] and [output]
sections; seed fields are lists of Gaussian bumps, one per line, e.g.

    [seed]
    b = 0.05
    udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0
    u    = gauss amp=0.1 x0=0.5 y0=0.0 w=1.0

Exit codes: 0 success, 1 configuration error, 2 non-convergence (diagnostics
still written), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import greens_convolution_oracle, poisson_solve
from .errors import (
    DeltaOutOfRange,
    DivergenceDetected,
    EpsilonTooLarge,
    InvalidResolution,
    NoConvergence,
    ParseError,
    SolverError,
    UnresolvedSpec,
    ValidationError,
)
from .fields import (
    GaussianBump,
    Grid,
    ScalarField,
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
from .momentum import SingularTensorParams, singular_tensors
from .picard import SolverOptions, solve_constraints

__all__ = ["RunConfig", "parse_config", "serialize_config",
           "cmd_solve", "cmd_sweep", "cmd_verify", "main"]


@dataclass(frozen=True)
class RunConfig:
    K: int
    N_r: int
    R_max: float
    delta: float = -0.5
    udot_bumps: tuple[GaussianBump, ...] = ()
    u_bumps: tuple[GaussianBump, ...] = ()
    tau_bumps: tuple[GaussianBump, ...] = ()
    b: float = 0.0
    tol_fixed_point: float = 1e-10
    max_iter: int = 100
    epsilon_threshold: float = 0.5
    output_dir: str = "out"


_GRID_KEYS = {"K": int, "N_r": int, "R_max": float, "delta": float}
_SOLVER_KEYS = {"tol_fixed_point": float, "max_iter": int, "epsilon_threshold": float}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    section = None
    grid_kv: dict = {}
    solver_kv: dict = {}
    seed_kv: dict = {"b": 0.0}
    bumps = {"udot": [], "u": [], "tau_tilde": []}
    out_dir = "out"
    seen_sections = set()

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("grid", "seed", "solver", "output"):
                raise ParseError(f"unknown section [{section}]", ln)
            seen_sections.add(section)
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", ln)
        key, val = (part.strip() for part in line.split("=", 1))
        try:
            if section == "grid":
                if key not in _GRID_KEYS:
                    raise ParseError(f"unknown grid key {key!r}", ln)
                grid_kv[key] = _GRID_KEYS[key](val)
            elif section == "seed":
                if key == "b":
                    seed_kv["b"] = float(val)
                elif key in bumps:
                    bumps[key].append(parse_bump_line(val))
                else:
                    raise ParseError(f"unknown seed key {key!r}", ln)
            elif section == "solver":
                if key not in _SOLVER_KEYS:
                    raise ParseError(f"unknown solver key {key!r}", ln)
                solver_kv[key] = _SOLVER_KEYS[key](val)
            elif section == "output":
                if key != "dir":
                    raise ParseError(f"unknown output key {key!r}", ln)
                out_dir = val
            else:
                raise ParseError("key outside any section", ln)
        except ValueError as exc:
            raise ParseError(str(exc), ln)

    if "grid" not in seen_sections:
        raise ParseError("missing [grid] section")
    missing = set(_GRID_KEYS) - set(grid_kv)
    if missing:
        raise ParseError(f"grid section missing keys: {sorted(missing)}")

    cfg = RunConfig(
        K=grid_kv["K"], N_r=grid_kv["N_r"], R_max=grid_kv["R_max"],
        delta=grid_kv["delta"],
        udot_bumps=tuple(bumps["udot"]), u_bumps=tuple(bumps["u"]),
        tau_bumps=tuple(bumps["tau_tilde"]), b=seed_kv["b"],
        output_dir=out_dir, **solver_kv)
    try:
        validate_grid(cfg.K, cfg.N_r, cfg.R_max, cfg.delta)
    except (DeltaOutOfRange, InvalidResolution) as exc:
        raise ValidationError(str(exc)) from exc
    SolverOptions(**solver_kv)  # the one check of the solver settings
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = ["[grid]",
             f"K = {cfg.K}", f"N_r = {cfg.N_r}",
             f"R_max = {cfg.R_max:.17g}", f"delta = {cfg.delta:.17g}",
             "", "[seed]", f"b = {cfg.b:.17g}"]
    for name, blist in (("udot", cfg.udot_bumps), ("u", cfg.u_bumps),
                        ("tau_tilde", cfg.tau_bumps)):
        for bump in blist:
            lines.append(f"{name} = {format_bump(bump)}")
    lines += ["", "[solver]",
              f"tol_fixed_point = {cfg.tol_fixed_point:.17g}",
              f"max_iter = {cfg.max_iter}",
              f"epsilon_threshold = {cfg.epsilon_threshold:.17g}",
              "", "[output]", f"dir = {cfg.output_dir}", ""]
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
    settings = {"tol_fixed_point": cfg.tol_fixed_point, "max_iter": cfg.max_iter,
                "epsilon_threshold": cfg.epsilon_threshold}
    for var, key, kind in (("SOLVER_TOL", "tol_fixed_point", float),
                           ("SOLVER_MAX_ITER", "max_iter", int)):
        raw = os.environ.get(var)
        if raw:
            try:
                settings[key] = kind(raw)
            except ValueError:
                raise ValidationError(f"{var} = {raw!r} is not a valid {kind.__name__}")
    return SolverOptions(**settings)


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def _scalar_block(bundle, seed) -> dict:
    return {
        "alpha": bundle.alpha,
        "rho": bundle.rho,
        "eta": bundle.eta,
        "p": bundle.p,
        "q": bundle.q,
        "b": seed.b,
        "epsilon": seed.epsilon,
        "cone_angle": cone_angle(bundle.alpha) if bundle.alpha < 1.0 else None,
        "iterations": bundle.iterations,
        "contraction_ratios": bundle.contraction_ratios,
        "momentum_residual_norm": bundle.residuals.momentum_residual_norm,
        "hamiltonian_residual_norm": bundle.residuals.hamiltonian_residual_norm,
        "pointwise_max_momentum": bundle.residuals.pointwise_max_momentum,
        "pointwise_max_hamiltonian": bundle.residuals.pointwise_max_hamiltonian,
    }


def cmd_solve(cfg: RunConfig) -> int:
    opts = config_options(cfg)
    grid = config_grid(cfg)
    seed = config_seed(cfg, grid)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "solution.json")
    try:
        bundle = solve_constraints(seed, opts)
    except (NoConvergence, DivergenceDetected, EpsilonTooLarge) as exc:
        with open(out, "w") as fh:
            json.dump({"error": type(exc).__name__, "message": str(exc),
                       "epsilon": seed.epsilon}, fh, indent=2, sort_keys=True)
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2

    with open(out, "w") as fh:
        json.dump(_scalar_block(bundle, seed), fh, indent=2, sort_keys=True)
    write_field_csv(bundle.lambda_tilde, os.path.join(cfg.output_dir, "lambda_tilde.csv"))
    write_field_csv(bundle.H_tilde.h11, os.path.join(cfg.output_dir, "H_tilde_11.csv"))
    write_field_csv(bundle.H_tilde.h12, os.path.join(cfg.output_dir, "H_tilde_12.csv"))
    params = SingularTensorParams(b=seed.b, p=bundle.p, q=bundle.q)
    _, _, tau_s = singular_tensors(params, grid)
    write_field_csv(tau_s + seed.tau_tilde, os.path.join(cfg.output_dir, "tau_breve.csv"))
    return 0


def cmd_sweep(cfg: RunConfig, amplitudes) -> int:
    amplitudes = list(amplitudes)
    if not amplitudes or any(a < 0 for a in amplitudes) or \
            sorted(amplitudes) != amplitudes:
        print("sweep needs a nonempty sorted list of nonnegative amplitudes",
              file=sys.stderr)
        return 1
    opts = config_options(cfg)
    grid = config_grid(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)

    rows = []
    status = 0
    for a in amplitudes:
        seed = config_seed(cfg, grid, amplitude=a)
        if a == 0.0:
            rows.append((a, 0.0, 0.0, 0.0, 0.0, 0.0, 1))
            continue
        try:
            bundle = solve_constraints(seed, opts)
        except (NoConvergence, DivergenceDetected, EpsilonTooLarge) as exc:
            print(f"amplitude {a}: {exc}", file=sys.stderr)
            rows.append((a, np.nan, np.nan, np.nan, np.nan, np.nan, -1))
            status = 2
            continue
        rows.append((a, bundle.alpha, bundle.p, bundle.q,
                     bundle.residuals.momentum_residual_norm,
                     bundle.residuals.hamiltonian_residual_norm,
                     bundle.iterations))

    # leading-order constants of the unit-amplitude seed shape
    seed1 = config_seed(cfg, grid, amplitude=1.0)
    m1, m2 = seed1.momentum_density
    summary = _sweep_summary(rows, seed1.epsilon, integrate(m1), integrate(m2))

    with open(os.path.join(cfg.output_dir, "sweep.csv"), "w") as fh:
        fh.write("a,alpha,p,q,momentum_residual,hamiltonian_residual,"
                 "iterations,alpha_over_a2,p_over_a2,q_over_a2\n")
        for (a, al, p, q, rm, rh, it) in rows:
            sc = 1.0 / a**2 if a > 0 else np.nan
            fh.write(f"{a:.17g},{al:.17g},{p:.17g},{q:.17g},{rm:.17g},"
                     f"{rh:.17g},{it},{al*sc:.17g},{p*sc:.17g},{q*sc:.17g}\n")
        for key, val in summary.items():
            fh.write(f"# {key} = {val:.17g}\n")
    with open(os.path.join(cfg.output_dir, "sweep_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return status


def _sweep_summary(rows, e_unit, i1, i2) -> dict:
    """Richardson-extrapolated quadratic coefficients and reference constants."""
    ok = [(a, al, p, q) for (a, al, p, q, *_rest) in rows
          if a > 0 and np.isfinite(al)]
    out = {
        "alpha_coeff_expected": e_unit / (4.0 * np.pi),
        "p_coeff_expected": i1 / np.pi,
        "q_coeff_expected": i2 / np.pi,
        # the combinations that appear when the 1/(2 pi) is absorbed into the
        # Green function instead; convention artifacts, for comparison only
        "alpha_coeff_alt_normalization": 0.5 * e_unit,
        "p_coeff_alt_normalization": 4.0 / (1.0 + 2.0 * np.pi) * i1,
        "q_coeff_alt_normalization": 4.0 / (1.0 + 2.0 * np.pi) * i2,
    }
    if len(ok) >= 2:
        (a1, al1, p1, q1), (a2, al2, p2, q2) = ok[0], ok[1]
        x1, x2 = a1**2, a2**2
        for name, y1, y2 in (("alpha", al1 / x1, al2 / x2),
                             ("p", p1 / x1, p2 / x2),
                             ("q", q1 / x1, q2 / x2)):
            c0 = y1 + (y1 - y2) * x1 / (x2 - x1)
            out[f"{name}_coeff_extrapolated"] = c0
            out[f"{name}_richardson_remainder"] = abs(c0 - y1)
    return out


def cmd_verify(cfg: RunConfig) -> int:
    """Run the identity/oracle battery on the configured grid."""
    checks = []

    def record(name, value, tol):
        checks.append({"name": name, "value": float(value),
                       "tolerance": float(tol), "passed": bool(value <= tol)})

    def attempt(name, fn):
        """Run one check; a solver failure counts as a failed check."""
        try:
            fn()
        except SolverError as exc:
            print(f"check {name} raised: {exc}", file=sys.stderr)
            checks.append({"name": name, "value": float("inf"),
                           "tolerance": 0.0, "passed": False})

    grid = config_grid(cfg)
    r = grid.r

    def poisson_zero_mass():
        rhs = ScalarField.from_mode(grid, 0, "cos", (4 * r**2 - 4) * np.exp(-r**2))
        sol = poisson_solve(rhs)
        record("poisson_zero_mass_error",
               np.max(np.abs(sol.v.a[0] - np.exp(-r**2))), 2.0 * grid.h**2)
        # convergence order under halving (needs a legal half grid)
        if cfg.N_r // 2 >= 16:
            half = build_grid(cfg.K, cfg.N_r // 2, cfg.R_max, cfg.delta)
            rhs_h = ScalarField.from_mode(
                half, 0, "cos", (4 * half.r**2 - 4) * np.exp(-half.r**2))
            eh = np.max(np.abs(poisson_solve(rhs_h).v.a[0] - np.exp(-half.r**2)))
            e1 = np.max(np.abs(sol.v.a[0] - np.exp(-r**2)))
            record("poisson_convergence_order_deviation",
                   abs(np.log2(eh / e1) - 2.0), 0.3)

    def poisson_log_coeff():
        solg = poisson_solve(ScalarField.from_mode(grid, 0, "cos", np.exp(-r**2)))
        # the coefficient inherits the discrete flux matching; the constant
        # degrades when the cutoff band is marginally resolved
        record("poisson_log_coefficient_error", abs(solg.c_log - 0.5), 4.0 * grid.h**2)

    def greens_far():
        if cfg.R_max < 45.0:
            return
        fg = ScalarField.from_mode(grid, 0, "cos", np.exp(-r**2))
        u40 = greens_convolution_oracle(fg, [(40.0, 0.0)])[0]
        record("greens_farfield_error", abs(u40 - 0.5 * np.log(40.0)), 1e-3)

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
        record("cancellation_identity", worst, 1e-12)

    def divergence_identities():
        from .momentum import divergence_identity_residual
        record("divergence_identity_error",
               divergence_identity_residual(SingularTensorParams(1.0, 1.0, 0.5), grid),
               1e-10)

    def charges():
        params = SingularTensorParams(b=0.3, p=0.1 * np.cos(0.7), q=0.1 * np.sin(0.7))
        _, _, tau_s = singular_tensors(params, grid)
        tau = tau_s + sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
        bh, ph, qh = asymptotic_charges(tau, grid)
        err = max(abs(bh - 0.3), abs(ph - params.p), abs(qh - params.q))
        record("charge_roundtrip_error", err, 1e-6)

    def selection():
        if not (cfg.udot_bumps or cfg.u_bumps):
            return
        from .fields import TracelessSymTensorField
        from .momentum import solve_rho_eta
        seed = config_seed(cfg, grid)
        z = ScalarField.zeros(grid)
        Z = TracelessSymTensorField.zeros(grid)
        solve_rho_eta(seed, 0.0, z, Z)
        record("rho_eta_selection_singular", 0.0, 0.5)

    attempt("poisson_zero_mass_error", poisson_zero_mass)
    attempt("poisson_log_coefficient_error", poisson_log_coeff)
    attempt("greens_farfield_error", greens_far)
    attempt("cancellation_identity", cancellation)
    attempt("divergence_identity_error", divergence_identities)
    attempt("charge_roundtrip_error", charges)
    attempt("rho_eta_selection_singular", selection)
    if cfg.delta < -0.9 or cfg.delta > -0.1:
        print(f"warning: delta = {cfg.delta} near the end of (-1,0); "
              "the inversion constant degrades there", file=sys.stderr)

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "verify.json"), "w") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
    n_fail = sum(not c["passed"] for c in checks)
    for c in checks:
        tag = "pass" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.3e})")
    return 0 if n_fail == 0 else 3


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
                         help="comma-separated amplitudes, ascending")
    p_verify = sub.add_parser("verify", help="run the identity/oracle battery")
    p_verify.add_argument("config")

    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            try:
                amplitudes = [float(a) for a in args.amplitudes.split(",") if a]
            except ValueError as exc:
                print(f"bad amplitude list: {exc}", file=sys.stderr)
                return 1
            return cmd_sweep(cfg, amplitudes)
        if args.command == "verify":
            return cmd_verify(cfg)
    except (DeltaOutOfRange, InvalidResolution, UnresolvedSpec, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
