"""Hamiltonian (Lichnerowicz) side: source assembly and the log-extracted solve.

The equation for the conformal exponent is

    Delta lambda' = -(1/2) udot^2 - (1/2)|grad u|^2 - (1/2)|H|^2 + tau^2/4.

Written naively, |H|^2 and tau^2 both carry chi^2/r^2 tails that sit outside
the invertible class.  The singular parts are tuned so that

    (1/2)|H_b + H_rho_eta|^2 = (1/4) ((b + rho cos(theta-eta)) chi / r)^2

exactly, and the right-hand side is assembled post-cancellation: only the
cross terms with the decaying tensors and the tilde squares remain, all of
which decay fast enough for the planar Poisson inversion.
"""

from __future__ import annotations

from .elliptic import poisson_solve
from .errors import GridMismatch
from .fields import (
    ScalarField,
    SeedData,
    TracelessSymTensorField,
    multiply,
)
from .momentum import SingularTensorParams, singular_tensors

__all__ = ["hamiltonian_rhs", "solve_lambda"]


def hamiltonian_rhs(seed: SeedData, H_tilde: TracelessSymTensorField,
                    params: SingularTensorParams) -> ScalarField:
    """Assemble the decaying source with the singular squares cancelled.

    rhs = -(1/2) udot^2 - (1/2)|grad u|^2
          - <H_sing, Htilde> - (1/2)|Htilde|^2
          + (1/2) tau_sing tautilde + (1/4) tautilde^2,

    the pure chi^2/r^2 squares having cancelled identically.
    """
    g = seed.grid
    if H_tilde.grid is not g:
        raise GridMismatch("state fields not on the seed grid")
    Hb, Hrho, tau_s = singular_tensors(params, g)
    hs11, hs12 = Hb.h11 + Hrho.h11, Hb.h12 + Hrho.h12

    return (-0.5 * seed.energy_density
            - 2.0 * (multiply(hs11, H_tilde.h11) + multiply(hs12, H_tilde.h12))
            - (multiply(H_tilde.h11, H_tilde.h11) + multiply(H_tilde.h12, H_tilde.h12))
            + 0.5 * multiply(tau_s, seed.tau_tilde)
            + 0.25 * multiply(seed.tau_tilde, seed.tau_tilde))


def solve_lambda(rhs: ScalarField) -> tuple[float, ScalarField]:
    """(alpha', lambdatilde') from the log-extracted Poisson solve.

    lambda' = -alpha' chi ln r + lambdatilde' with
    alpha' = -c_log = (1/2pi) int ((1/2)udot^2 + (1/2)|grad u|^2
    + (1/2)|H|^2 - tau^2/4).
    """
    sol = poisson_solve(rhs)
    return -sol.c_log, sol.v
