"""Outer fixed-point iteration coupling the momentum and Hamiltonian solves.

One step maps (alpha, lambdatilde, Htilde) to (alpha', lambdatilde', Htilde'):

  1. fix (rho, eta) from the momentum source, which is affine in
     (rho cos eta, rho sin eta), and assemble that source once,
  2. start the momentum constraint's block solve (Htilde'),
  3. meanwhile assemble the cancelled Hamiltonian source at the input state
     from the same samples of tautilde and Htilde, and solve for
     (alpha', lambdatilde'); the two branches are independent, so the block
     solve runs on the solve thread meanwhile (div_constraint_solve).

For small seed data the map contracts geometrically; the iteration starts
from the zero state and stops when the combined norm
|alpha| + ||lambdatilde||_{H^2_delta} + ||Htilde||_{H^1_{delta+1}} moves less
than the relative tolerance, or at the rounding floor of that norm
(solve_constraints).

Each iterate is differentiated once, and IterState keeps its norm terms:
raw half-spectra of lambdatilde with its first and second Cartesian
derivatives, h11 and h12 with their first derivatives.  Their weighted L^2
norms give the iterate's combined norm, and the same norms of their
differences from the previous iterate's terms give the step norm: the
discrete derivatives are linear, so that is the norm of the difference up to
rounding.  Their (d1, d2) of lambdatilde is also the next step's source
gradient.  The zero start state's terms are set to zero, not taken, and
the first step norm is the first iterate's combined norm; later iterates'
combined norms are taken only when a stopping test needs one
(solve_constraints).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import operators as ops
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
    _allocation,
    _is_integer,
    _is_real,
    multiply,  # noqa: F401  unused; the benchmark's tracing test wraps picard.multiply
    weighted_l2,
)
from .lichnerowicz import hamiltonian_residual, hamiltonian_rhs, solve_lambda
from .momentum import (SingularTensorParams, div_constraint_solve, full_state_samples,
                       momentum_residual, solve_rho_eta, state_samples)

__all__ = ["IterState", "SolverOptions", "ResidualReport", "SolutionBundle",
           "picard_step", "solve_constraints", "residuals", "combined_norm"]


@dataclass(frozen=True, eq=False)
class IterState:
    """One iterate (alpha, lambdatilde, Htilde) and, once taken, its norm terms."""

    alpha: float
    lambda_tilde: ScalarField
    H_tilde: TracelessSymTensorField

    @staticmethod
    def zero(grid) -> "IterState":
        state = IterState(0.0, ScalarField.zeros(grid), TracelessSymTensorField.zeros(grid))
        z = state.lambda_tilde.c  # read-only zeros: every derivative of the zero state
        object.__setattr__(state, "norm_terms", [z] * len(_TERM_WEIGHTS))
        return state

    @cached_property
    def norm_terms(self) -> list[np.ndarray]:
        """Half-spectra of lambdatilde, d1, d2, d11, d12, d22 of it, then of
        h11 and h12 each with d1 and d2; taken on first use and kept: five
        gradient_coefficients calls."""
        w = self.lambda_tilde.grid.workspace
        d1, d2 = ops.gradient_coefficients(w, self.lambda_tilde.c)
        terms = [self.lambda_tilde.c, d1, d2, *ops.gradient_coefficients(w, d1),
                 ops.gradient_coefficients(w, d2)[1]]
        for h in (self.H_tilde.h11, self.H_tilde.h12):
            terms += [h.c, *ops.gradient_coefficients(w, h.c)]
        return terms


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point settings, validated on construction (ValidationError)."""

    tol_fixed_point: float = 1e-10
    max_iter: int = 100
    epsilon_threshold: float = 0.5

    def __post_init__(self):
        if not (_is_real(self.tol_fixed_point) and 0 < self.tol_fixed_point < np.inf):
            raise ValidationError(
                f"tol_fixed_point must be finite and positive, got {self.tol_fixed_point!r}")
        if not _is_integer(self.max_iter):
            raise ValidationError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not self.max_iter >= 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (_is_real(self.epsilon_threshold) and self.epsilon_threshold > 0):
            raise ValidationError(
                f"epsilon_threshold must be positive, got {self.epsilon_threshold!r}")


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
    converged_at_rounding_floor: bool = False


# weight row (OperatorWorkspace.norm_weights) of each of IterState.norm_terms
_TERM_WEIGHTS = (0, 1, 1, 2, 2, 2, 1, 2, 2, 1, 2, 2)


def _terms_norm(w: ops.OperatorWorkspace, alpha: float, terms) -> float:
    return abs(alpha) + sum(weighted_l2(c, w.norm_weights[j])
                            for c, j in zip(terms, _TERM_WEIGHTS))


def _step_norm(w: ops.OperatorWorkspace, new: IterState, old: IterState) -> float:
    """Combined norm of the difference of two states, from their norm_terms.

    The discrete derivatives are linear, so the difference of the terms is
    the terms of the difference up to rounding; no derivative is taken."""
    return _terms_norm(w, new.alpha - old.alpha,
                       (x - y for x, y in zip(new.norm_terms, old.norm_terms)))


def combined_norm(state: IterState) -> float:
    """|alpha| + ||lambdatilde||_{H^2_delta} + ||Htilde||_{H^1_{delta+1}}."""
    return _terms_norm(state.lambda_tilde.grid.workspace, state.alpha, state.norm_terms)


@_allocation("the arrays of a Picard step are")
def picard_step(state: IterState, seed: SeedData):
    """One application of the solution map; returns (next_state, p, q).  A
    field that is not finite (data too large) raises DivergenceDetected, and
    arrays too large to allocate InvalidResolution."""
    samples = state_samples(seed, state.H_tilde)
    hamiltonian = []  # (alpha', lambdatilde')
    try:
        p, q, source = solve_rho_eta(seed, state.alpha, state.norm_terms[1:3], samples)
        params = SingularTensorParams(b=seed.b, p=p, q=q)

        def hamiltonian_branch():
            nonlocal samples
            rhs = hamiltonian_rhs(seed, samples, params)
            samples = None  # freed before the Poisson solve: they set the step's peak memory
            hamiltonian.extend(solve_lambda(rhs))

        H_next = div_constraint_solve(*source, meanwhile=hamiltonian_branch)[2]
    except ValueError as exc:  # raised by ScalarField
        raise DivergenceDetected(f"iterate left the admissible set: {exc}")
    alpha_next, lt_next = hamiltonian
    return IterState(alpha_next, lt_next, H_next), p, q


def _stopping_tests(n: float, d: float, growing: bool, first_norm: float,
                    tol: float) -> tuple[bool, bool, bool]:
    """(diverged, at the rounding floor, converged) for the step norm d and
    the iterate's combined norm n; each test is monotone in n."""
    scale = max(1.0, n)
    return (first_norm > 0 and n > 10.0 * first_norm,
            growing and d < tol ** 0.5 * scale,
            d <= tol * scale)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
@_allocation("the arrays of the solve are")
def solve_constraints(seed: SeedData, opts: SolverOptions | None = None) -> SolutionBundle:
    """Iterate the map from the zero state until the combined norm settles.

    The step norm d is compared with the iterate's combined norm n.  The
    iteration stops when d <= tol_fixed_point * max(1, n), or at the rounding
    floor: when a step grows (ratio > 1) while d is already below
    sqrt(tol_fixed_point) * max(1, n).  A contracting map's steps do not grow
    that close to its fixed point, so there the steps only stir the rounding
    noise of the weighted far field; the previous iterate, with its p and q,
    is returned, and the bundle says converged_at_rounding_floor.
    iterations counts the steps taken, the growing one included.  The
    iteration diverges when n exceeds 10 times the first iterate's norm.

    n is taken only when the tests need it.  The combined norm is a sum of
    seminorms of the norm terms, so n_k lies within D_k = d_2 + ... + d_k of
    the first iterate's n_1; with a relative slack of 1e-12 for the rounding
    of the sums, the tests are decided on that interval's ends, and only a
    test whose ends disagree needs combined_norm.  Overflow, with numpy's
    warnings off, ends in DivergenceDetected or NearSingularSelection, and
    arrays too large to allocate in InvalidResolution.
    """
    opts = opts or SolverOptions()
    if seed.epsilon > opts.epsilon_threshold:
        raise EpsilonTooLarge(
            f"epsilon = {seed.epsilon:.3g} exceeds threshold {opts.epsilon_threshold}")

    state = IterState.zero(seed.grid)
    p = q = 0.0
    ratios: list[float] = []
    d_prev = None
    first_norm = reach = 0.0  # n_1 and D_k
    iterations = 0
    converged = floor = False
    for iterations in range(1, opts.max_iter + 1):
        nxt, p_next, q_next = picard_step(state, seed)
        if iterations == 1:
            # from the zero start state the step is the iterate: bitwise its norm
            d = first_norm = combined_norm(nxt)
            bounds = (d, d)
        else:
            d = _step_norm(seed.grid.workspace, nxt, state)
            reach += d
            slack = 1e-12 * (first_norm + reach)
            bounds = (first_norm - reach - slack, first_norm + reach + slack)
        if not np.isfinite(d):
            raise DivergenceDetected("non-finite iterate norm")
        growing = d_prev is not None and d > d_prev
        tests, hi = (_stopping_tests(n, d, growing, first_norm, opts.tol_fixed_point)
                     for n in bounds)
        if tests != hi:
            n = combined_norm(nxt)
            if not np.isfinite(n):
                raise DivergenceDetected("non-finite iterate norm")
            tests = _stopping_tests(n, d, growing, first_norm, opts.tol_fixed_point)
        diverged, at_floor, done = tests
        if diverged:
            raise DivergenceDetected(f"combined norm {combined_norm(nxt):.3g} exceeds 10x "
                                     f"the first iterate {first_norm:.3g}")
        if d_prev is not None and d_prev > 1e-300:
            ratios.append(d / d_prev)
        if at_floor:
            floor = converged = True  # keep state, p and q
            break
        d_prev = d
        state, p, q = nxt, p_next, q_next
        if done:
            converged = True
            break
    if not converged:
        tail = ratios[-1] if ratios else float("inf")
        raise NoConvergence(
            f"no fixed point after {opts.max_iter} iterations (last ratio {tail:.3g})")

    params = SingularTensorParams(b=seed.b, p=p, q=q)
    bundle = SolutionBundle(
        alpha=state.alpha, rho=params.rho, eta=params.eta, p=p, q=q,
        lambda_tilde=state.lambda_tilde,
        H_tilde=state.H_tilde,
        iterations=iterations,
        contraction_ratios=ratios,
        converged_at_rounding_floor=floor,
    )
    state = nxt = None  # their norm terms are dropped: the residuals set the peak memory
    return replace(bundle, residuals=residuals(bundle, seed))


@_allocation("the arrays of the residual report are")
def residuals(bundle: SolutionBundle, seed: SeedData) -> ResidualReport:
    """Norms of both constraint residuals at the bundle.

    The residual fields are momentum.momentum_residual and
    lichnerowicz.hamiltonian_residual: the same discrete operators the
    solvers inverted, with the closed-form singular profiles treated
    analytically.  Both read one set of full-state samples.  Norms are the
    weighted H^0_{delta+2} quadrature over the interior collocation rows (the
    two boundary rows carry the boundary conditions, not the PDE).  The
    Hamiltonian norm is of the order of the last Picard step, so it follows
    tol_fixed_point; the rounding of the singular squares cancelling on the
    samples lies far below it.
    """
    g = seed.grid
    if bundle.lambda_tilde.grid is not g:
        raise GridMismatch("bundle fields not on the seed grid")
    params = SingularTensorParams(b=seed.b, p=bundle.p, q=bundle.q)
    full = full_state_samples(seed, bundle.H_tilde, params)
    mom_norm, mom_max = _interior_norm_and_max(momentum_residual(
        seed, bundle.alpha, bundle.lambda_tilde, bundle.H_tilde, params, full))
    ham_norm, ham_max = _interior_norm_and_max(
        (hamiltonian_residual(seed, bundle.alpha, bundle.lambda_tilde, full),))
    return ResidualReport(momentum_residual_norm=float(mom_norm),
                          hamiltonian_residual_norm=float(ham_norm),
                          pointwise_max_momentum=float(mom_max),
                          pointwise_max_hamiltonian=float(ham_max))


def _interior_norm_and_max(fields) -> tuple[float, float]:
    """Sum of the H^0_{delta+2} norms and max of the samples of the fields,
    each with its boundary rows zeroed once for both."""
    inner = [ops.zero_boundary_rows(f) for f in fields]
    weight = inner[0].grid.workspace.norm_weights[2]  # (1+r^2)^{delta+2}
    return (sum(weighted_l2(f.c, weight) for f in inner),
            max(float(np.max(np.abs(f.to_samples()))) for f in inner))
