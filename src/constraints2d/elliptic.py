"""Planar Poisson inversion with explicit logarithm extraction.

For decaying f the solution of Delta u = f on R^2 grows logarithmically:
with the normalized fundamental solution (1/2pi) ln|x| (so that
Delta (1/2pi) ln r = delta_0) the solution splits as

    u = c_log * chi(r) ln r + v,    c_log = (1/2pi) int f,

with v decaying.  Each angular mode is a radial two-point boundary-value
problem, all solved in one call of the grid's one block factorization of
the Laplacian family: modes k >= 1 get a regularity condition v ~ r^k at the
inner edge and the decaying Robin condition v' + (k/r) v = 0 at R_max; mode
0 gets the regularity condition v'(r_1) = (r_1/2) f(r_1), the decaying branch
anchored by v(R_max) = 0, and the residual far flux r v'(R_max) zeroed by a
rank-1 correction along the cached solve of Delta z = Delta(chi ln r):

    v = v0 - beta z,   beta = flux(v0)/flux(z),   c_log <- c_log + beta.

Without that correction the discrete truncation field carries a small net
mass whose logarithmic response pollutes the whole core of the domain; the
correction moves it where it belongs, into the log coefficient, and realizes
the flux matching for v' at R_max exactly.  The subtracted log source
Delta(c chi ln r) is sampled from closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NonDecayingRHS
from .fields import ScalarField, evaluate_field, integrate, radial_spline

__all__ = ["PoissonSolution", "poisson_solve", "laplacian", "greens_convolution_oracle"]


@dataclass(frozen=True, eq=False)
class PoissonSolution:
    """u = c_log * chi(r) ln r + v with v decaying."""

    c_log: float
    v: ScalarField

    def reconstruct_laplacian(self) -> ScalarField:
        """Discrete Delta u, singular part from closed forms."""
        g = self.v.grid
        return laplacian(self.v) + ScalarField.from_mode(g, 0, "cos", self.c_log * g.lap_chiln)


def laplacian(f: ScalarField) -> ScalarField:
    """Mode-diagonal discrete Laplacian (the matrices poisson_solve inverts)."""
    w = f.grid.workspace
    k2 = np.arange(f.grid.K + 1) ** 2
    return ScalarField(f.grid, w.lap_base @ f.c - k2 * (w.P2[:, None] * f.c))


def _check_tail(f: ScalarField) -> None:
    """Mode-0 tail must decay at least like r^{-2-delta'} for int f to converge."""
    g = f.grid
    p = np.abs(f.c[:, 0].real)
    scale = float(np.max(p))
    if scale == 0.0:
        return
    # the floor tolerates discretization-defect plateaus (e.g. the far-flux
    # remainder of upstream potential solves, quadratically small in the
    # data) while catching genuine r^{-1}-type content, which enters at the
    # data scale itself
    floor = 1e-6 * scale
    i_half = int(np.searchsorted(g.r, 0.5 * g.R_max))
    t_half, t_end = p[min(i_half, g.N_r - 1)], p[-1]
    if t_end > floor and (t_half <= floor or t_end / t_half > 0.35):
        raise NonDecayingRHS(
            f"mode-0 tail ratio {t_end/max(t_half, floor):.3g} over [R/2, R] "
            "exceeds the r^-2 decay requirement")


def poisson_solve(f: ScalarField) -> PoissonSolution:
    """Solve Delta u = f, returning the log coefficient and the decaying part.

    All modes are solved in one call of the Laplacian family's block
    factorization (cached per grid); the PDE rows hold at the interior
    collocation nodes, the first and last rows carry the boundary conditions.
    """
    g = f.grid
    _check_tail(f)
    w = g.workspace

    c_quad = integrate(f) / (2.0 * np.pi)

    F = f.c.copy()
    F[:, 0] = f.c[:, 0].real - c_quad * g.lap_chiln
    v = w.solve_modes(w.lap_solver(g.K), F, 0)
    z, ffz = w.z_profile()
    beta = w.farflux(v[:, 0].real) / ffz   # residual far flux moves to the log
    v[:, 0] -= beta * z
    return PoissonSolution(c_log=float(c_quad + beta), v=ScalarField(g, v))


def greens_convolution_oracle(f: ScalarField, points) -> list[float]:
    """u(x) = (1/2pi) int ln|x-y| f(y) dy by direct 2-D quadrature.

    Independent of the mode-by-mode solver; intended for tests (cost is one
    full grid sweep per point).  The field is resampled on a refined polar
    grid (cubic splines radially, exact trigonometric resampling in angle)
    and the integrable log singularity is subtracted analytically against a
    Gaussian of width w, whose potential at its own center is
    (w^2/2)(ln w - gamma/2).
    """
    g = f.grid
    # refined quadrature grid
    n_fine = 4 * g.N_r
    m_fine = max(8 * g.M, 256)
    h_fine = g.s[-1] / n_fine
    s_fine = h_fine * np.arange(1, n_fine + 1)
    r_fine = np.expm1(s_fine)
    th = 2.0 * np.pi * np.arange(m_fine) / m_fine
    vals = np.fft.irfft(radial_spline(g, f.c, s_fine), n=m_fine, norm="forward")
    wq = np.full(n_fine, h_fine)
    wq[-1] = 0.5 * h_fine
    area = (wq * r_fine * (1.0 + r_fine))[:, None] * (2.0 * np.pi / m_fine)
    yx = r_fine[:, None] * np.cos(th)[None, :]
    yy = r_fine[:, None] * np.sin(th)[None, :]

    euler_gamma = 0.5772156649015329
    w_sub = 0.5  # subtraction width; small enough to stay inside the grid
    p_center = 0.5 * w_sub**2 * (np.log(w_sub) - 0.5 * euler_gamma)

    pts = np.asarray(list(points), dtype=float).reshape(-1, 2)
    fx = np.zeros(len(pts))
    inside = np.hypot(pts[:, 0], pts[:, 1]) < g.R_max - 4.0 * w_sub
    if np.any(inside):
        fx[inside] = evaluate_field(f, pts[inside])
    out = []
    for (px, py), fval in zip(pts, fx):
        d2 = (px - yx) ** 2 + (py - yy) ** 2
        kern = 0.5 * np.log(np.maximum(d2, 1e-300))
        integrand = vals - fval * np.exp(-d2 / w_sub**2)
        val = np.sum(area * integrand * kern) / (2.0 * np.pi)
        out.append(float(val + fval * p_center))
    return out

