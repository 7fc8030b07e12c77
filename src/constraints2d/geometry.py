"""Geometric observables of a converged solution.

The solver works in rescaled variables (udot, H, tau stand for e^{-lambda}
udot_phys, e^{-lambda} H_phys, e^{lambda} tau_phys).  This module undoes the
rescaling, reports the conical asymptotics and reads off the conserved
far-field charges of the mean curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCone
from .fields import Grid, ScalarField, SeedData
from .momentum import SingularTensorParams, full_state_samples
from .picard import SolutionBundle

__all__ = ["PhysicalData", "cone_angle", "reconstruct_physical", "asymptotic_charges"]


@dataclass(frozen=True, eq=False)
class PhysicalData:
    """Physical metric and extrinsic curvature on the flat background chart.

    metric g = e^{2 lambda} delta; K = e^{lambda}(H + (1/2) tau delta) in the
    rescaled variables, whose g-trace is the physical mean curvature
    e^{-lambda} tau.
    """

    conformal_exponent: ScalarField      # lambda = -alpha chi ln r + lambdatilde
    metric_factor: ScalarField           # e^{2 lambda}
    K11: ScalarField
    K12: ScalarField
    K22: ScalarField
    tau_full: ScalarField                # physical mean curvature


def cone_angle(alpha: float) -> float:
    """Asymptotic cone angle 2 pi (1 - alpha); requires alpha < 1."""
    if alpha >= 1.0:
        raise DegenerateCone(f"alpha = {alpha} >= 1: no asymptotic cone")
    return 2.0 * np.pi * (1.0 - alpha)


def reconstruct_physical(bundle: SolutionBundle, seed: SeedData) -> PhysicalData:
    """Assemble lambda, e^{2 lambda} and the full extrinsic curvature.

    Nonpolynomial functions of lambda are evaluated pointwise on the
    dealiased sample grid and transformed back, so the algebraic identities
    (the g-trace of K equals the physical tau, the traceless part of
    e^{-lambda}K recovers H) hold to rounding on the samples.
    """
    g = seed.grid
    lam = bundle.lambda_tilde + ScalarField.from_mode(
        g, 0, "cos", -bundle.alpha * g.chiln)
    lam_s = lam.to_samples()
    elam = np.exp(lam_s)

    h11, h12, tau = full_state_samples(
        seed, bundle.H_tilde, SingularTensorParams(b=seed.b, p=bundle.p, q=bundle.q))

    K11 = elam * (h11 + 0.5 * tau)
    K12 = elam * h12
    K22 = elam * (-h11 + 0.5 * tau)

    return PhysicalData(
        conformal_exponent=lam,
        metric_factor=ScalarField.from_samples(g, elam**2),
        K11=ScalarField.from_samples(g, K11),
        K12=ScalarField.from_samples(g, K12),
        K22=ScalarField.from_samples(g, K22),
        tau_full=ScalarField.from_samples(g, tau / elam),
    )


def asymptotic_charges(tau_rescaled: ScalarField, grid: Grid):
    """(b, rho cos eta, rho sin eta) read from the outermost circle.

    b    = (1/2pi) int tau r dtheta,
    p    = (1/pi)  int tau cos(theta) r dtheta,
    q    = (1/pi)  int tau sin(theta) r dtheta,
    all evaluated at r = R_max, which reduces to the mode-0 and mode-1
    Fourier coefficients there.
    """
    R = grid.R_max
    b_hat = tau_rescaled.a[0, -1] * R
    p_hat = tau_rescaled.a[1, -1] * R
    q_hat = tau_rescaled.b[1, -1] * R
    return float(b_hat), float(p_hat), float(q_hat)
