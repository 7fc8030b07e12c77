"""Momentum constraint: divergence equation for the traceless tensor.

The equation  d_i H'_ij + H_ij d_i lambda = -udot d_j u + (1/2) d_j tau
- (1/2) tau d_j lambda  is solved by the three-part split H' = H1 + H2 + H3:
H2 and H3 carry the closed-form singular tensors (their reduced right-hand
sides are compactly supported and integral-free), H1 carries the generic
decaying source.

Each part solves  d_i K_ij = f_j  through the complex potential
W = Y1 + i Y2:  with zeta = K11 + i K12 = (d1 + i d2) W the divergence pair
becomes (d1 - i d2) zeta, so per angular mode the problem factorizes into
M_m = (Dr + (m+1)/r)(Dr - m/r) acting on W_m.  Because the same discrete Dr
backs the gradient, the divergence of the assembled tensor reproduces f to
factorization accuracy.  The m = 0 potential mode carries the plane's
logarithmic growth: its coefficient pair is the far-field (m, phi) of the
solution, extracted exactly as 1/(2 pi) times the source integrals.

All cutoff-built profiles (H_b, H_rho_eta, tau singular part, their
divergences and gradients) are sampled from closed forms; only solved fields
are differentiated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .elliptic import _check_tail
from .errors import GridMismatch, NearSingularSelection, NonDecayingRHS
from .fields import (
    Grid,
    ScalarField,
    SeedData,
    TracelessSymTensorField,
    cartesian_gradient,
    integrate,
    multiply,
)

__all__ = [
    "SingularTensorParams",
    "MomentumOutput",
    "singular_tensors",
    "band_tensor",
    "singular_divergence_pair",
    "divergence_identity_residual",
    "tau_singular_gradient",
    "momentum_rhs_f",
    "div_constraint_solve",
    "correction_h2",
    "correction_h3",
    "assemble_momentum",
    "momentum_residual",
    "solve_rho_eta",
]


@dataclass(frozen=True)
class SingularTensorParams:
    """(b, p, q) with p = rho cos(eta), q = rho sin(eta)."""

    b: float
    p: float
    q: float

    @property
    def rho(self) -> float:
        return float(np.hypot(self.p, self.q))

    @property
    def eta(self) -> float:
        return float(np.arctan2(self.q, self.p) % (2.0 * np.pi)) if self.rho else 0.0


@dataclass(frozen=True, eq=False)
class MomentumOutput:
    """Far-field coefficients and the decaying tensor remainder."""

    m: float
    phi: float
    H_tilde: TracelessSymTensorField


def _complex_pair(grid: Grid, modes: dict) -> tuple[ScalarField, ScalarField]:
    """(f1, f2) with f1 + i f2 = sum over m of w_m(r) e^{i m theta}, for the
    complex profiles w_m given as {m: w_m}."""
    f1 = f2 = ScalarField.zeros(grid)
    for m, w in modes.items():
        f1 = f1 + ScalarField.from_mode(grid, m, "cos", w)
        f2 = f2 + ScalarField.from_mode(grid, m, "cos", -1j * w)
    return f1, f2


# ----------------------------------------------------------------------------
# closed-form singular objects
# ----------------------------------------------------------------------------

def singular_tensors(params: SingularTensorParams, grid: Grid):
    """(H_b + H_rho_eta split out, tau singular part), sampled exactly.

    H_b has entries -(b chi/2r)(cos 2T, sin 2T); H_rho_eta carries the
    theta+eta and 3theta-eta blocks with profile -(rho chi/4r); the singular
    mean curvature is (b + rho cos(T-eta)) chi / r.  With z = p + i q =
    rho e^{i eta}, zeta = H11 + i H12 is -(b chi/2r) e^{2iT} for H_b and
    -(chi/4r)(z e^{iT} + conj(z) e^{3iT}) for H_rho_eta.
    """
    b, z = params.b, complex(params.p, params.q)
    cr = grid.chi / grid.r
    Hb = TracelessSymTensorField(*_complex_pair(grid, {2: -0.5 * b * cr}))
    Hrho = TracelessSymTensorField(*_complex_pair(
        grid, {1: -0.25 * z * cr, 3: -0.25 * np.conj(z) * cr}))
    tau_sing = (ScalarField.from_mode(grid, 0, "cos", b * cr)
                + ScalarField.from_mode(grid, 1, "cos", params.p * cr)
                + ScalarField.from_mode(grid, 1, "sin", params.q * cr))
    return Hb, Hrho, tau_sing


def band_tensor(params: SingularTensorParams, grid: Grid) -> TracelessSymTensorField:
    """Compactly supported remainder of the extracted far-field tensor.

    The log potential contributes (chi ln r)' = chi'ln r + chi/r to the
    1-theta block; the chi/r part is the closed-form far field and this
    chi'ln r band piece stays with the decaying remainder (it belongs to the
    tilde tensor but must be differentiated analytically).  Coefficient
    c = -(p + i q)/4 matches the fixed-point identification rho = -4m,
    eta = phi.
    """
    prof = grid.dchi * np.log(grid.r)
    return TracelessSymTensorField(*_complex_pair(
        grid, {1: -0.25 * complex(params.p, params.q) * prof}))


def _div_Hb(b: float, grid: Grid):
    """Exact divergence of H_b: mode 1, coefficient -b(chi/2r^2 + chi'/2r)."""
    return _complex_pair(grid, {1: -b * (0.5 * grid.chi / grid.r**2
                                         + 0.5 * grid.dchi / grid.r)})


def _div_log_block(params: SingularTensorParams, grid: Grid):
    """Divergence of the full 1-theta log part c (chi ln r)', c = -(p+iq)/4."""
    return _complex_pair(grid, {0: -0.25 * complex(params.p, params.q) * grid.lap_chiln})


def _div_S3(params: SingularTensorParams, grid: Grid):
    """Divergence of the 3-theta block: mode 2, -(p-iq)(chi'/4r + chi/2r^2)."""
    prof = grid.dchi / (4.0 * grid.r) + 0.5 * grid.chi / grid.r**2
    return _complex_pair(grid, {2: -complex(params.p, -params.q) * prof})


def singular_divergence_pair(params: SingularTensorParams, grid: Grid):
    """Exact divergence (f1, f2) of H_b + the extracted 1-theta log part +
    the 3-theta block, all from closed forms."""
    f1, f2 = _div_Hb(params.b, grid)
    g1, g2 = _div_log_block(params, grid)
    h1, h2 = _div_S3(params, grid)
    return f1 + g1 + h1, f2 + g2 + h2


def divergence_identity_residual(params: SingularTensorParams, grid: Grid) -> float:
    """Max defect (over nodes with r > 0.5) of the closed-form reductions.

    The split of the singular divergence problems rests on

      div H_b + (b chi'/r)(cos T, sin T)          = (1/2) grad(b chi/r),
      div S3  + (rho chi'/2r) pair at 2T-eta
              + (rho chi'/4r)(cos eta, sin eta)   = (1/2) grad(rho cos(T-eta) chi/r),

    with all radial derivatives exact, so the returned number is pure algebra
    plus rounding.
    """
    hb1, hb2 = _div_Hb(params.b, grid)
    s31, s32 = _div_S3(params, grid)
    t1, t2 = tau_singular_gradient(params, grid)
    prof = grid.dchi / grid.r
    z = complex(params.p, params.q)
    f1, f2 = _complex_pair(grid, {1: params.b * prof, 2: 0.5 * np.conj(z) * prof,
                                  0: 0.25 * z * prof})
    res1 = hb1 + s31 + f1 - 0.5 * t1
    res2 = hb2 + s32 + f2 - 0.5 * t2
    mask = grid.r > 0.5
    worst = 0.0
    for f in (res1, res2):
        worst = max(worst, float(np.max(np.abs(f.a[:, mask]))),
                    float(np.max(np.abs(f.b[:, mask]))))
    return worst


def tau_singular_gradient(params: SingularTensorParams, grid: Grid):
    """Exact Cartesian gradient of (b + rho cos(theta-eta)) chi / r."""
    z = complex(params.p, params.q)
    r, chi, dchi = grid.r, grid.chi, grid.dchi
    gp = dchi / r - chi / r**2          # (chi/r)'
    gplus = dchi / r                    # (chi/r)' + chi/r^2
    gminus = dchi / r - 2.0 * chi / r**2
    return _complex_pair(grid, {1: params.b * gp, 0: 0.5 * z * gplus,
                                2: 0.5 * np.conj(z) * gminus})


def lambda_singular_gradient(grid: Grid, alpha: float):
    """Gradient of -alpha chi(r) ln r, profiles exact."""
    return _complex_pair(grid, {1: -alpha * grid.dchiln})


# ----------------------------------------------------------------------------
# right-hand sides and solves
# ----------------------------------------------------------------------------

def momentum_rhs_f(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                   H_tilde: TracelessSymTensorField, params: SingularTensorParams):
    """Source pair of the generic (H1) divergence problem.

    f_j = -udot d_j u + (1/2) d_j tautilde - (1/2) tautilde d_j lambda
          - Htilde_ij d_i lambda + (rho chi'/4r) e_j
          - d_i lambdatilde (H_b + H_rho_eta)_ij
          - (1/2) (singular tau) d_j lambdatilde,
    with lambda = -alpha chi ln r + lambdatilde and e = (cos eta, sin eta).
    """
    g = seed.grid
    if lambda_tilde.grid is not g or H_tilde.grid is not g:
        raise GridMismatch("state fields not on the seed grid")
    d1u, d2u = cartesian_gradient(seed.u)
    d1tt, d2tt = cartesian_gradient(seed.tau_tilde)
    d1lt, d2lt = cartesian_gradient(lambda_tilde)
    s1, s2 = lambda_singular_gradient(g, alpha)
    lam1, lam2 = d1lt + s1, d2lt + s2

    Hb, Hrho, tau_s = singular_tensors(params, g)
    hs11, hs12 = Hb.h11 + Hrho.h11, Hb.h12 + Hrho.h12
    quarter = grid_quarter_profile(g)
    f1 = (-multiply(seed.udot, d1u) + 0.5 * d1tt
          - 0.5 * multiply(seed.tau_tilde, lam1)
          - multiply(H_tilde.h11, lam1) - multiply(H_tilde.h12, lam2)
          + ScalarField.from_mode(g, 0, "cos", params.p * quarter)
          - multiply(d1lt, hs11) - multiply(d2lt, hs12)
          - 0.5 * multiply(tau_s, d1lt))
    f2 = (-multiply(seed.udot, d2u) + 0.5 * d2tt
          - 0.5 * multiply(seed.tau_tilde, lam2)
          - multiply(H_tilde.h12, lam1) + multiply(H_tilde.h11, lam2)
          + ScalarField.from_mode(g, 0, "cos", params.q * quarter)
          - multiply(d1lt, hs12) + multiply(d2lt, hs11)
          - 0.5 * multiply(tau_s, d2lt))
    return f1, f2


def grid_quarter_profile(grid: Grid) -> np.ndarray:
    """chi'/(4r), the compactly supported source of the eta-direction term."""
    return grid.dchi / (4.0 * grid.r)


def log_coefficient(f1: ScalarField, f2: ScalarField) -> complex:
    """Complex log coefficient c = m e^{i phi} of the potential solve.

    Pure quadrature, c = (1/2pi)(int f1 + i int f2): the exact coefficient of
    chi ln r in the potential pair, free of far-field fitting noise.
    """
    return (integrate(f1) + 1j * integrate(f2)) / (2.0 * np.pi)


def div_constraint_solve(f1: ScalarField, f2: ScalarField):
    """Solve d_i K_ij = f_j in the decaying class.

    Returns (m, phi, K_tilde): the far field of K is (m chi/r) at angle
    theta + phi; K_tilde is K minus that closed form (it keeps the compactly
    supported chi'ln r band remainder of the potential's log part).
    """
    if f1.grid is not f2.grid:
        raise GridMismatch("source components on different grids")
    g = f1.grid
    _check_tail(f1)
    _check_tail(f2)
    w = ops.workspace(g)
    K = g.K

    c = log_coefficient(f1, f2)
    Z = ops.full_spectrum(f1, f2)   # column K + m holds mode m
    W = np.zeros_like(Z)
    F0 = Z[:, K] - c * g.lap_chiln
    y = F0.copy()
    y[0] = 0.5 * g.r[0] * F0[0]   # regularity row
    y[-1] = 0.0                   # decay anchor
    solver0 = w.mom_solver(0)
    W[:, K] = solver0.solve(y.real) + 1j * solver0.solve(y.imag)
    scale = np.max(np.abs(Z)) or 1.0
    for m in range(-K, K):
        if m == 0:
            continue
        rhs = Z[:, K + m]
        if np.max(np.abs(rhs)) < 1e-300 * scale:
            continue
        solver = w.mom_solver(m)
        y = np.array(rhs)
        y[0] = y[-1] = 0.0  # homogeneous regularity/decay rows
        W[:, K + m] = solver.solve(y.real) + 1j * solver.solve(y.imag)

    zeta = ops.raise_mode(w, W)
    zeta[:, K + 1] += c * (g.dchi * np.log(g.r))  # band part of the log potential
    K_tilde = TracelessSymTensorField(*ops.real_pair(g, zeta))
    m_out = float(abs(c))
    phi = float(np.arctan2(c.imag, c.real)) if m_out > 0.0 else 0.0
    return m_out, phi, K_tilde


def correction_h2(b: float, grid: Grid) -> TracelessSymTensorField:
    """Decaying correction that upgrades H_b to a solution of its block.

    The reduced source is the closed form (b chi'/r)(cos theta, sin theta),
    integral-free, so the correction carries no far-field part.
    """
    f1, f2 = _complex_pair(grid, {1: b * grid.dchi / grid.r})
    m, _, K = div_constraint_solve(f1, f2)
    _check_integral_free("H_b", m, abs(b))
    return K


def correction_h3(params: SingularTensorParams, grid: Grid) -> TracelessSymTensorField:
    """Decaying correction for the 3-theta block.

    Reduced source (rho chi'/2r)(cos(2 theta - eta), sin(2 theta - eta)),
    again integral-free.
    """
    prof = grid.dchi / (2.0 * grid.r)
    f1, f2 = _complex_pair(grid, {2: complex(params.p, -params.q) * prof})
    m, _, K = div_constraint_solve(f1, f2)
    _check_integral_free("3-theta", m, params.rho)
    return K


def _check_integral_free(block: str, m: float, size: float) -> None:
    """A correction's closed-form source has no plane integral, so its
    potential has no log part: a far-field coefficient above rounding means
    the correction would not decay."""
    if not m < 1e-13 * max(1.0, size):
        raise NonDecayingRHS(
            f"{block} correction source has far-field coefficient {m:.3g}, "
            "expected an integral-free source")


def assemble_momentum(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                      H_tilde_in: TracelessSymTensorField,
                      params: SingularTensorParams) -> MomentumOutput:
    """Full momentum solve at the given state and singular parameters."""
    f1, f2 = momentum_rhs_f(seed, alpha, lambda_tilde, H_tilde_in, params)
    m, phi, K1 = div_constraint_solve(f1, f2)
    K2 = correction_h2(params.b, seed.grid)
    K3 = correction_h3(params, seed.grid)
    return MomentumOutput(m=m, phi=phi, H_tilde=K1 + K2 + K3)


# ----------------------------------------------------------------------------
# residual of the full momentum equation
# ----------------------------------------------------------------------------

def momentum_residual(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                      H_tilde: TracelessSymTensorField,
                      params: SingularTensorParams):
    """Both components of d_i H_ij + H_ij d_i lambda + udot d_j u
    - (1/2) d_j tau + (1/2) tau d_j lambda at the given state (H' = H).

    Closed-form singular parts are differentiated analytically, the stored
    tilde tensor minus its band part discretely; at a converged state the
    result vanishes to factorization accuracy on the interior rows.
    """
    g = seed.grid
    band = band_tensor(params, g)
    div1, div2 = ops.divergence(H_tilde - band)
    s1, s2 = singular_divergence_pair(params, g)

    Hb, Hrho, tau_s = singular_tensors(params, g)
    h11 = Hb.h11 + Hrho.h11 + H_tilde.h11
    h12 = Hb.h12 + Hrho.h12 + H_tilde.h12

    d1lt, d2lt = cartesian_gradient(lambda_tilde)
    ls1, ls2 = lambda_singular_gradient(g, alpha)
    lam1, lam2 = d1lt + ls1, d2lt + ls2

    d1u, d2u = cartesian_gradient(seed.u)
    dt1, dt2 = cartesian_gradient(seed.tau_tilde)
    ts1, ts2 = tau_singular_gradient(params, g)
    tau_tot = tau_s + seed.tau_tilde

    r1 = (div1 + s1
          + multiply(h11, lam1) + multiply(h12, lam2)
          + multiply(seed.udot, d1u)
          - 0.5 * (dt1 + ts1)
          + 0.5 * multiply(tau_tot, lam1))
    r2 = (div2 + s2
          + multiply(h12, lam1) - multiply(h11, lam2)
          + multiply(seed.udot, d2u)
          - 0.5 * (dt2 + ts2)
          + 0.5 * multiply(tau_tot, lam2))
    return r1, r2


def solve_rho_eta(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                  H_tilde: TracelessSymTensorField, b: float):
    """Fix (p, q) = (rho cos eta, rho sin eta) by the exact affine probe.

    The momentum far-field pair (m cos phi, m sin phi) is affine in (p, q);
    three probe evaluations of the log-coefficient functional determine it
    exactly, and the fixed point (p, q) = -4 (m cos phi, m sin phi) is the
    solution of the resulting 2x2 linear system.
    """
    def probe(p: float, q: float) -> np.ndarray:
        pr = SingularTensorParams(b=b, p=p, q=q)
        f1, f2 = momentum_rhs_f(seed, alpha, lambda_tilde, H_tilde, pr)
        c = log_coefficient(f1, f2)
        return np.array([c.real, c.imag])

    c00 = probe(0.0, 0.0)
    A = np.column_stack([probe(1.0, 0.0) - c00, probe(0.0, 1.0) - c00])
    M = np.eye(2) + 4.0 * A
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e8:
        raise NearSingularSelection(
            f"(rho, eta) selection matrix has condition number {cond:.3g}")
    p, q = np.linalg.solve(M, -4.0 * c00)
    return float(p), float(q)
