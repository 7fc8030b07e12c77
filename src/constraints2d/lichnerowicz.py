"""Hamiltonian (Lichnerowicz) side: source assembly, the log-extracted solve
and the residual of the full equation.

The equation for the conformal exponent is

    Delta lambda' = -(1/2) udot^2 - (1/2)|grad u|^2 - (1/2)|H|^2 + tau^2/4.

Written naively, |H|^2 and tau^2 both carry chi^2/r^2 tails that sit outside
the invertible class.  The singular parts are tuned so that

    (1/2)|H_b + H_rho_eta|^2 = (1/4) ((b + rho cos(theta-eta)) chi / r)^2

exactly, and the right-hand side is assembled post-cancellation: only the
cross terms with the decaying tensors and the tilde squares remain, all of
which decay fast enough for the planar Poisson inversion.

The source reads the Picard step's one set of state samples.  The residual,
in contrast, is assembled directly from the full state
(momentum.full_state_samples), so the singular squares cancel on the
samples; it mirrors momentum.momentum_residual.
"""

from __future__ import annotations

from .elliptic import PoissonSolution, poisson_solve
from .fields import ScalarField, SeedData, angular_modes
from .momentum import SingularTensorParams, singular_factors

__all__ = ["hamiltonian_rhs", "hamiltonian_residual", "solve_lambda"]


def hamiltonian_rhs(seed: SeedData, samples, params: SingularTensorParams) -> ScalarField:
    """Assemble the decaying source with the singular squares cancelled.

    rhs = -(1/2) udot^2 - (1/2)|grad u|^2
          - <H_sing, Htilde> - (1/2)|Htilde|^2
          + (1/2) tau_sing tautilde + (1/4) tautilde^2,

    the pure chi^2/r^2 squares having cancelled identically.  The products
    are one pass on samples = momentum.state_samples(seed, Htilde) and one
    transform back; the energy density and tautilde^2/4 are the seed's.
    """
    g = seed.grid
    cr, u11, u12, ut = singular_factors(params, g)
    T, A, B = samples
    S = (cr * (0.5 * ut * T - 2.0 * (u11 * A + u12 * B))
         - (A * A + B * B) + seed.quarter_tau_squared)
    return ScalarField(g, angular_modes(g, S) - 0.5 * seed.energy_density.c)


def hamiltonian_residual(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                         full) -> ScalarField:
    """Delta lambda + (1/2) udot^2 + (1/2)|grad u|^2 + (1/2)|H|^2 - tau^2/4
    at the given state (lambda' = lambda), for lambda = -alpha chi ln r
    + lambdatilde and the full H and tau given as
    full = momentum.full_state_samples(seed, Htilde, params).

    Delta lambda is the discrete Laplacian of lambdatilde plus the closed
    form of the log part; |H|^2/2 - tau^2/4 = h11^2 + h12^2 - tau^2/4 is one
    pass on the full-state samples.  At a converged state the result
    vanishes to the fixed-point tolerance on the interior rows.
    """
    g = seed.grid
    A, B, T = full
    half_tau = 0.5 * T
    S = A * A + B * B - half_tau * half_tau
    lap = PoissonSolution(-alpha, lambda_tilde).reconstruct_laplacian()
    return ScalarField(g, lap.c + 0.5 * seed.energy_density.c + angular_modes(g, S))


def solve_lambda(rhs: ScalarField) -> tuple[float, ScalarField]:
    """(alpha', lambdatilde') from the log-extracted Poisson solve.

    lambda' = -alpha' chi ln r + lambdatilde' with
    alpha' = -c_log = (1/2pi) int ((1/2)udot^2 + (1/2)|grad u|^2
    + (1/2)|H|^2 - tau^2/4).
    """
    sol = poisson_solve(rhs)
    return -sol.c_log, sol.v
