"""Outer fixed-point iteration coupling the momentum and Hamiltonian solves.

One step maps (alpha, lambdatilde, Htilde) to (alpha', lambdatilde', Htilde'):

  1. fix (rho, eta) from the momentum source, which is affine in
     (rho cos eta, rho sin eta), and assemble that source once,
  2. solve the momentum constraint with it (Htilde'),
  3. assemble the cancelled Hamiltonian source at the input state and solve
     for (alpha', lambdatilde').

For small seed data the map contracts geometrically; the iteration starts
from the zero state and stops when the combined norm
|alpha| + ||lambdatilde||_{H^2_delta} + ||Htilde||_{H^1_{delta+1}} moves less
than the relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .elliptic import laplacian
from .errors import (
    DivergenceDetected,
    EpsilonTooLarge,
    GridMismatch,
    NoConvergence,
    ValidationError,
)
from .fields import (
    ScalarField,
    SeedData,
    TracelessSymTensorField,
    multiply,
    radial_l2_weighted,
    tensor_sobolev_norm,
    weighted_sobolev_norm,
)
from .lichnerowicz import hamiltonian_rhs, solve_lambda
from .momentum import (
    SingularTensorParams,
    assemble_momentum,
    momentum_residual,
    singular_tensors,
    solve_rho_eta,
)

__all__ = ["IterState", "SolverOptions", "ResidualReport", "SolutionBundle",
           "picard_step", "solve_constraints", "residuals", "combined_norm"]


@dataclass(frozen=True, eq=False)
class IterState:
    alpha: float
    lambda_tilde: ScalarField
    H_tilde: TracelessSymTensorField

    @staticmethod
    def zero(grid) -> "IterState":
        return IterState(0.0, ScalarField.zeros(grid), TracelessSymTensorField.zeros(grid))


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point settings, validated on construction (ValidationError)."""

    tol_fixed_point: float = 1e-10
    max_iter: int = 100
    epsilon_threshold: float = 0.5

    def __post_init__(self):
        if not self.tol_fixed_point > 0:
            raise ValidationError(f"tol_fixed_point must be positive, got {self.tol_fixed_point}")
        if not self.max_iter >= 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.epsilon_threshold > 0:
            raise ValidationError(
                f"epsilon_threshold must be positive, got {self.epsilon_threshold}")


@dataclass(frozen=True)
class ResidualReport:
    momentum_residual_norm: float
    hamiltonian_residual_norm: float
    pointwise_max_momentum: float
    pointwise_max_hamiltonian: float


@dataclass(frozen=True, eq=False)
class SolutionBundle:
    alpha: float
    rho: float
    eta: float
    p: float
    q: float
    lambda_tilde: ScalarField
    H_tilde: TracelessSymTensorField
    iterations: int
    contraction_ratios: list[float] = field(default_factory=list)
    residuals: ResidualReport | None = None


def combined_norm(state: IterState) -> float:
    """|alpha| + ||lambdatilde||_{H^2_delta} + ||Htilde||_{H^1_{delta+1}}."""
    g = state.lambda_tilde.grid
    return (abs(state.alpha)
            + weighted_sobolev_norm(state.lambda_tilde, 2, g.delta)
            + tensor_sobolev_norm(state.H_tilde, 1, g.delta + 1.0))


def _state_diff_norm(s1: IterState, s2: IterState) -> float:
    return combined_norm(IterState(s1.alpha - s2.alpha,
                                   s1.lambda_tilde - s2.lambda_tilde,
                                   s1.H_tilde - s2.H_tilde))


def picard_step(state: IterState, seed: SeedData):
    """One application of the solution map; returns (next_state, p, q)."""
    p, q, source = solve_rho_eta(seed, state.alpha, state.lambda_tilde, state.H_tilde)
    params = SingularTensorParams(b=seed.b, p=p, q=q)
    mom = assemble_momentum(source, params)
    alpha_next, lt_next = solve_lambda(hamiltonian_rhs(seed, state.H_tilde, params))
    return IterState(alpha_next, lt_next, mom.H_tilde), p, q


def solve_constraints(seed: SeedData, opts: SolverOptions | None = None) -> SolutionBundle:
    """Iterate the map from the zero state until the combined norm settles."""
    opts = opts or SolverOptions()
    if seed.epsilon > opts.epsilon_threshold:
        raise EpsilonTooLarge(
            f"epsilon = {seed.epsilon:.3g} exceeds threshold {opts.epsilon_threshold}")

    state = IterState.zero(seed.grid)
    p = q = 0.0
    ratios: list[float] = []
    d_prev = None
    first_norm = None
    iterations = 0
    converged = False
    for iterations in range(1, opts.max_iter + 1):
        try:
            nxt, p, q = picard_step(state, seed)
        except (ValueError, FloatingPointError) as exc:
            raise DivergenceDetected(f"iterate left the admissible set: {exc}")
        d = _state_diff_norm(nxt, state)
        n = combined_norm(nxt)
        if not np.isfinite(n) or not np.isfinite(d):
            raise DivergenceDetected("non-finite iterate norm")
        if first_norm is None:
            first_norm = n
        elif first_norm > 0 and n > 10.0 * first_norm:
            raise DivergenceDetected(
                f"combined norm {n:.3g} exceeds 10x the first iterate {first_norm:.3g}")
        if d_prev is not None and d_prev > 1e-300:
            ratios.append(d / d_prev)
        d_prev = d
        state = nxt
        if d <= opts.tol_fixed_point * max(1.0, n):
            converged = True
            break
    if not converged:
        tail = ratios[-1] if ratios else float("inf")
        raise NoConvergence(
            f"no fixed point after {opts.max_iter} iterations (last ratio {tail:.3g})")

    bundle = SolutionBundle(
        alpha=state.alpha,
        rho=float(np.hypot(p, q)),
        eta=float(np.arctan2(q, p) % (2.0 * np.pi)) if (p, q) != (0.0, 0.0) else 0.0,
        p=p, q=q,
        lambda_tilde=state.lambda_tilde,
        H_tilde=state.H_tilde,
        iterations=iterations,
        contraction_ratios=ratios,
    )
    rep = residuals(bundle, seed)
    return SolutionBundle(**{**bundle.__dict__, "residuals": rep})


def _interior_h0_norm(f: ScalarField, gamma: float) -> float:
    return radial_l2_weighted(ops.zero_boundary_rows(f), gamma)


def _interior_max(f: ScalarField) -> float:
    return float(np.max(np.abs(ops.zero_boundary_rows(f).to_samples())))


def residuals(bundle: SolutionBundle, seed: SeedData) -> ResidualReport:
    """Evaluate both constraint equations at the bundle, pointwise.

    The momentum divergence and the Laplacian are the same discrete operators
    the solvers inverted, with the closed-form singular profiles treated
    analytically; norms are the weighted H^0_{delta+2} quadrature over the
    interior collocation rows (the two boundary rows carry the boundary
    conditions, not the PDE).
    """
    g = seed.grid
    if bundle.lambda_tilde.grid is not g:
        raise GridMismatch("bundle fields not on the seed grid")
    delta = g.delta
    params = SingularTensorParams(b=seed.b, p=bundle.p, q=bundle.q)

    r1, r2 = momentum_residual(seed, bundle.alpha, bundle.lambda_tilde,
                               bundle.H_tilde, params)
    mom_norm = (_interior_h0_norm(r1, delta + 2.0)
                + _interior_h0_norm(r2, delta + 2.0))
    mom_max = max(_interior_max(r1), _interior_max(r2))

    # Hamiltonian residual, assembled the direct way (the singular squares
    # cancel numerically; the solver used the analytic cancellation)
    Hb, Hrho, tau_s = singular_tensors(params, g)
    h11 = Hb.h11 + Hrho.h11 + bundle.H_tilde.h11
    h12 = Hb.h12 + Hrho.h12 + bundle.H_tilde.h12
    tau = tau_s + seed.tau_tilde
    lap = laplacian(bundle.lambda_tilde) - bundle.alpha * _lap_chiln_field(g)
    rh = (lap
          + 0.5 * seed.energy_density
          + multiply(h11, h11) + multiply(h12, h12)
          - 0.25 * multiply(tau, tau))
    ham_norm = _interior_h0_norm(rh, delta + 2.0)
    ham_max = _interior_max(rh)

    return ResidualReport(momentum_residual_norm=float(mom_norm),
                          hamiltonian_residual_norm=float(ham_norm),
                          pointwise_max_momentum=float(mom_max),
                          pointwise_max_hamiltonian=float(ham_max))


def _lap_chiln_field(g) -> ScalarField:
    return ScalarField.from_mode(g, 0, "cos", g.lap_chiln)
