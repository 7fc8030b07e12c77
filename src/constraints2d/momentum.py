"""Momentum constraint: divergence equation for the traceless tensor.

The equation  d_i H'_ij + H_ij d_i lambda = -udot d_j u + (1/2) d_j tau
- (1/2) tau d_j lambda  rests on the three-part split H' = H1 + H2 + H3:
H2 and H3 carry the closed-form singular tensors, H1 the generic decaying
source.  The reduced sources of H2 and H3 are compactly supported and
integral-free, and the divergence solve is linear, so solve_rho_eta writes
their closed-form modes into the generic source it assembles, and one
div_constraint_solve of that source gives H1 + H2 + H3.

The solve of  d_i K_ij = f_j  runs through the complex potential
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

from . import _kernels
from . import operators as ops
from .elliptic import _check_tail
from .errors import GridMismatch, InvalidResolution, NearSingularSelection
from .fields import (
    Grid,
    ScalarField,
    SeedData,
    TracelessSymTensorField,
    angular_modes,
    log_coefficient,
)

__all__ = [
    "SingularTensorParams",
    "singular_tensors",
    "singular_factors",
    "band_tensor",
    "singular_divergence_pair",
    "divergence_identity_residual",
    "tau_singular_gradient",
    "momentum_rhs_f",
    "div_constraint_solve",
    "correction_h2",
    "correction_h3",
    "state_samples",
    "full_state_samples",
    "momentum_residual",
    "selection_matrix",
    "selection_condition",
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


def _complex_pair(grid: Grid, modes: dict) -> tuple[ScalarField, ScalarField]:
    """(f1, f2) with f1 + i f2 = sum over m of w_m(r) e^{i m theta}, for the
    complex profiles w_m given as {m: w_m}, written into one full spectrum."""
    Z = np.zeros((grid.N_r, 2 * grid.K + 1), dtype=complex)
    for m, w in modes.items():
        Z[:, grid.K + m] = w
    return ops.real_pair(grid, Z)


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
    cr = grid.chi_r
    Hb = TracelessSymTensorField(*_complex_pair(grid, {2: -0.5 * b * cr}))
    Hrho = TracelessSymTensorField(*_complex_pair(
        grid, {1: -0.25 * z * cr, 3: -0.25 * np.conj(z) * cr}))
    tau_sing = _complex_pair(grid, {0: b * cr, 1: np.conj(z) * cr})[0]
    return Hb, Hrho, tau_sing


def singular_factors(params: SingularTensorParams, grid: Grid):
    """The closed forms of singular_tensors on the (N_r, M) sample grid.

    Returns (cr, u11, u12, ut): H_b + H_rho_eta = cr (u11, u12) and the
    singular mean curvature is cr ut, with cr = chi/r as an (N_r, 1) column
    and u11, u12, ut as (M,) rows.  They enter the sample-space passes by
    broadcasting; no (N_r, M) array of them is kept.  The rows combine the
    grid's singular_rows, those of b, p and q = 1, with no trigonometry.
    """
    R = grid.singular_rows
    u11, u12, ut = params.b * R[0] + params.p * R[1] + params.q * R[2]
    return grid.chi_r[:, None], u11, u12, ut


def band_tensor(params: SingularTensorParams, grid: Grid) -> TracelessSymTensorField:
    """Compactly supported remainder of the extracted far-field tensor.

    The log potential contributes (chi ln r)' = chi'ln r + chi/r to the
    1-theta block; the chi/r part is the closed-form far field and this
    chi'ln r band piece stays with the decaying remainder (it belongs to the
    tilde tensor but must be differentiated analytically).  Coefficient
    c = -(p + i q)/4 matches the fixed-point identification rho = -4m,
    eta = phi.
    """
    return TracelessSymTensorField(*_complex_pair(
        grid, {1: -0.25 * complex(params.p, params.q) * grid.dchi_lnr}))


def _div_Hb(b: float, grid: Grid):
    """Exact divergence of H_b: mode 1, coefficient -b(chi/2r^2 + chi'/2r)."""
    return {1: -b * (0.5 * grid.chi / grid.r**2 + 0.5 * grid.dchi / grid.r)}


def _div_log_block(params: SingularTensorParams, grid: Grid):
    """Divergence of the full 1-theta log part c (chi ln r)', c = -(p+iq)/4."""
    return {0: -0.25 * complex(params.p, params.q) * grid.lap_chiln}


def _div_S3(params: SingularTensorParams, grid: Grid):
    """Divergence of the 3-theta block: mode 2, -(p-iq)(chi'/4r + chi/2r^2)."""
    prof = grid.quarter_dchi_r + 0.5 * grid.chi / grid.r**2
    return {2: -complex(params.p, -params.q) * prof}


def singular_divergence_pair(params: SingularTensorParams, grid: Grid):
    """Exact divergence (f1, f2) of H_b + the extracted 1-theta log part +
    the 3-theta block, all from closed forms; the three sit at modes 1, 0
    and 2 of one spectrum."""
    return _complex_pair(grid, {**_div_Hb(params.b, grid), **_div_log_block(params, grid),
                                **_div_S3(params, grid)})


def divergence_identity_residual(params: SingularTensorParams, grid: Grid) -> float:
    """Max defect (over nodes with r > 0.5) of the closed-form reductions.

    The split of the singular divergence problems rests on

      div H_b + (b chi'/r)(cos T, sin T)          = (1/2) grad(b chi/r),
      div S3  + (rho chi'/2r) pair at 2T-eta
              + (rho chi'/4r)(cos eta, sin eta)   = (1/2) grad(rho cos(T-eta) chi/r),

    with all radial derivatives exact, so the returned number is pure algebra
    plus rounding.  A grid with no node beyond r = 0.5 (R_max <= 0.5) is
    InvalidResolution.
    """
    if grid.R_max <= 0.5:
        raise InvalidResolution(f"the divergence identity needs nodes with r > 0.5, "
                                f"got R_max = {grid.R_max!r}")
    hb1, hb2 = _complex_pair(grid, _div_Hb(params.b, grid))
    s31, s32 = _complex_pair(grid, _div_S3(params, grid))
    t1, t2 = tau_singular_gradient(params, grid)
    modes = _correction_modes(grid, params.b, params.p, params.q)
    modes[0] = 0.25 * complex(params.p, params.q) * (grid.dchi / grid.r)
    f1, f2 = _complex_pair(grid, modes)
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


# ----------------------------------------------------------------------------
# right-hand sides and solves
#
# Each source is one pass on the (N_r, M) angular samples, which a Picard
# step takes once per field for both sources: the whole pointwise expression
# on the samples, one forward transform per output.  A sum of dealiased
# products equals the dealiased sum, so this is the product-by-product
# assembly up to rounding.  The pointwise passes are _kernels twins: compiled
# loops, bitwise the numpy passes, where the library loads.
# ----------------------------------------------------------------------------

def _gradient_samples(grid: Grid, grad):
    """Samples (L1, L2) of the half-spectra grad = (d1 f, d2 f)."""
    return tuple(ScalarField(grid, d).to_samples() for d in grad)


def state_samples(seed: SeedData, H_tilde: TracelessSymTensorField):
    """(N_r, M) samples (T, A, B) of tautilde, Htilde_11, Htilde_12: T is the
    seed's read-only tau_samples, A and B are fresh."""
    if H_tilde.grid is not seed.grid:
        raise GridMismatch("state fields not on the seed grid")
    return (seed.tau_samples, H_tilde.h11.to_samples(), H_tilde.h12.to_samples())


def _lambda_gradient(grid: Grid, alpha: float):
    """(prof, c, s): grad lambda for lambda = -alpha chi ln r + lambdatilde
    is grad lambdatilde + prof (c, s), with the column prof = -alpha (chi ln
    r)' and the rows (c, s) = (cos theta, sin theta), the ut rows of p and q."""
    return -alpha * grid.dchiln[:, None], grid.singular_rows[1, 2], grid.singular_rows[2, 2]


@_kernels.twin("h_dlambda", "icrrppppp", new=2)
def _h_dlambda(negate, prof, c, s, L1, L2, T, A, B):
    """Samples of H_ij d_i lambda + (1/2) tau d_j lambda, negated if negate,
    for H = (A, B), tau = T and grad lambda = (L1, L2) + prof (c, s) (the
    _lambda_gradient of the samples (L1, L2) of grad lambdatilde).  It runs
    next to other live samples, so besides its two outputs it allocates only
    the samples of grad lambda."""
    lam1, lam2 = L1 + prof * c, L2 + prof * s
    P1, P2 = 0.5 * T, 0.5 * T
    P1 += A
    P1 *= lam1
    P2 -= A
    P2 *= lam2
    lam1 *= B
    lam2 *= B
    P1 += lam2
    P2 += lam1
    if negate:
        np.negative(P1, out=P1)
        np.negative(P2, out=P2)
    return P1, P2


def _state_source(seed: SeedData, alpha: float, grad, samples):
    """Samples (P1, P2) of the momentum source's terms that involve the state
    but not (b, p, q), and the samples (L1, L2) of grad lambdatilde, from its
    half-spectra grad and the state_samples."""
    g = seed.grid
    L1, L2 = _gradient_samples(g, grad)
    return _h_dlambda(True, *_lambda_gradient(g, alpha), L1, L2, *samples), (L1, L2)


@_kernels.twin("singular_source", "cccrrrppww")
def _singular_source(cr, p4, q4, r1, u12, r2, L1, L2, P1, P2):
    """Add (p4 - cr (L1 r1 + L2 u12), q4 - cr (L1 u12 - L2 r2)) to the
    samples (P1, P2), in place.  One work array holds each term."""
    S = L1 * r1
    S += L2 * u12
    S *= cr
    P1 += np.subtract(p4, S, out=S)
    np.multiply(L1, u12, out=S)
    S -= L2 * r2
    S *= cr
    P2 += np.subtract(q4, S, out=S)


def _add_singular_source(grid: Grid, L1, L2, params: SingularTensorParams, P1, P2):
    """Add to the samples (P1, P2), in place, the samples of the source terms
    linear in (b, p, q), from the samples (L1, L2) of grad lambdatilde:
    (p, q) chi'/4r - d_i lambdatilde (H_b + H_rho_eta)_ij
    - (1/2) tau_sing d_j lambdatilde."""
    cr, u11, u12, ut = singular_factors(params, grid)
    quarter = grid.quarter_dchi_r[:, None]
    _singular_source(cr, params.p * quarter, params.q * quarter,
                     u11 + 0.5 * ut, u12, u11 - 0.5 * ut, L1, L2, P1, P2)


def momentum_rhs_f(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                   H_tilde: TracelessSymTensorField, params: SingularTensorParams):
    """Source pair of the generic (H1) divergence problem.

    f_j = -udot d_j u + (1/2) d_j tautilde - (1/2) tautilde d_j lambda
          - Htilde_ij d_i lambda + (rho chi'/4r) e_j
          - d_i lambdatilde (H_b + H_rho_eta)_ij
          - (1/2) (singular tau) d_j lambdatilde,
    with lambda = -alpha chi ln r + lambdatilde and e = (cos eta, sin eta).
    The last three terms are linear in (b, p, q).
    """
    g = seed.grid
    (P1, P2), L = _state_source(seed, alpha,
                                ops.gradient_coefficients(g.workspace, lambda_tilde.c),
                                state_samples(seed, H_tilde))
    _add_singular_source(g, *L, params, P1, P2)
    f1, f2 = seed.momentum_source
    return f1 + ScalarField.from_samples(g, P1), f2 + ScalarField.from_samples(g, P2)


def div_constraint_solve(f1: ScalarField, f2: ScalarField, meanwhile=None):
    """Solve d_i K_ij = f_j in the decaying class.

    Returns (m, phi, K_tilde): the far field of K is (m chi/r) at angle
    theta + phi; K_tilde is K minus that closed form (it keeps the compactly
    supported chi'ln r band remainder of the potential's log part).
    meanwhile, if given, is called with no arguments on the calling thread
    while the potential's block solve runs, on a second core when the
    process may use one (operators.solve_beside).
    """
    if f1.grid is not f2.grid:
        raise GridMismatch("source components on different grids")
    g = f1.grid
    _check_tail(f1)
    _check_tail(f2)
    w = g.workspace
    K = g.K

    c = log_coefficient(f1, f2)
    W = ops.full_spectrum(f1, f2)   # the source, column K + m holding mode m,
    W[:, K] -= c * g.lap_chiln      # overwritten by the potential W
    W[:, :-1] = w.solve_modes(w.mom_solver(K), W[:, :-1], K, meanwhile)
    W[:, -1] = 0.0                  # mode K would only feed mode K + 1

    zeta = ops.raise_and_lower(w, W)[0]
    zeta[:, K + 1] += c * g.dchi_lnr  # band part of the log potential
    K_tilde = TracelessSymTensorField(*ops.real_pair(g, zeta))
    m_out = float(abs(c))
    phi = float(np.arctan2(c.imag, c.real)) if m_out > 0.0 else 0.0
    return m_out, phi, K_tilde


def _correction_modes(grid: Grid, b: float, p: float, q: float) -> dict:
    """Profiles {m: w_m} of the corrections' reduced sources f1 + i f2 =
    sum w_m e^{i m theta}: (b chi'/r) at m = 1 for the H_b block and
    ((p - i q) chi'/2r) at m = 2 for the 3-theta block.

    Both are closed forms with no mode-0 part, hence integral-free: they add
    nothing to a solve's log coefficient, so their corrections decay.
    """
    prof = grid.dchi / grid.r
    return {1: b * prof, 2: 0.5 * complex(p, -q) * prof}


def correction_h2(b: float, grid: Grid) -> TracelessSymTensorField:
    """Decaying correction that upgrades H_b to a solution of its block."""
    return div_constraint_solve(*_complex_pair(grid, _correction_modes(grid, b, 0.0, 0.0)))[2]


def correction_h3(params: SingularTensorParams, grid: Grid) -> TracelessSymTensorField:
    """Decaying correction for the 3-theta block."""
    return div_constraint_solve(*_complex_pair(
        grid, _correction_modes(grid, 0.0, params.p, params.q)))[2]


# ----------------------------------------------------------------------------
# residual of the full momentum equation
# ----------------------------------------------------------------------------

@_kernels.twin("full_state", "crrrpww", new=1)
def _full_state(cr, u11, u12, ut, T, A, B):
    """A += cr u11 and B += cr u12 in place; returns T + cr ut."""
    A += cr * u11
    B += cr * u12
    return T + cr * ut


def full_state_samples(seed: SeedData, H_tilde: TracelessSymTensorField,
                       params: SingularTensorParams):
    """Read-only (N_r, M) samples of the full h11, h12 and tau: the
    state_samples plus the closed-form singular parts H_b + H_rho_eta and
    tau_sing."""
    T, h11, h12 = state_samples(seed, H_tilde)
    tau = _full_state(*singular_factors(params, seed.grid), T, h11, h12)
    for x in (h11, h12, tau):
        x.setflags(write=False)
    return h11, h12, tau


def momentum_residual(seed: SeedData, alpha: float, lambda_tilde: ScalarField,
                      H_tilde: TracelessSymTensorField, params: SingularTensorParams,
                      full):
    """Both components of d_i H_ij + H_ij d_i lambda + udot d_j u
    - (1/2) d_j tau + (1/2) tau d_j lambda at the given state (H' = H), for
    lambda = -alpha chi ln r + lambdatilde and the full H and tau given as
    full = full_state_samples(seed, Htilde, params).

    The terms in d lambda are one pass on the samples; closed-form singular
    parts are differentiated analytically, the stored tilde tensor minus its
    band part discretely.  At a converged state the result vanishes to
    factorization accuracy on the interior rows.
    """
    g = seed.grid
    h11, h12, tau = full
    L = _gradient_samples(g, ops.gradient_coefficients(g.workspace, lambda_tilde.c))
    P1, P2 = (angular_modes(g, P) for P in _h_dlambda(False, *_lambda_gradient(g, alpha), *L,
                                                       tau, h11, h12))
    del L
    div1, div2 = ops.divergence(H_tilde - band_tensor(params, g))
    s1, s2 = singular_divergence_pair(params, g)
    ts1, ts2 = tau_singular_gradient(params, g)
    f1, f2 = seed.momentum_source
    r1 = div1.c + s1.c + P1 - f1.c - 0.5 * ts1.c
    r2 = div2.c + s2.c + P2 - f2.c - 0.5 * ts2.c
    return ScalarField(g, r1), ScalarField(g, r2)


SELECTION_COND_LIMIT = 1e8  # beyond it the (rho, eta) selection is refused


def _couplings(grid: Grid, L1, L2):
    """(M, c_b): the (rho, eta) selection matrix I + 4 (Re, Im) of the log
    coefficients c_p, c_q of the unit couplings f_p, f_q, and c_b of the b
    coupling, from the samples (L1, L2) of grad lambdatilde.  Those are the
    quadrature of the angular means of the terms _add_singular_source adds,
    the mean of L u(theta) being L @ u / M: with the rows u that multiply L1
    in f1 and f2 at b, p, q = 1 as the columns of U1, those of L2 of U2,
    and w the quadrature row times -chi/(M r), their parts in L are
    w (L1 U1 + L2 U2), taken as (w L1) U1 + (w L2) U2.  U1, U2, w and the
    plane integral of chi'/4r are fixed per grid (Grid.coupling_terms)."""
    U1, U2, wc, wq = grid.coupling_terms
    y = (wc @ L1) @ U1 + (wc @ L2) @ U2
    y[[1, 5]] += wq  # p's chi'/4r in f1, q's in f2
    c_b, c_p, c_q = (y[:3] + 1j * y[3:]) / (2.0 * np.pi)
    M = np.array([[1.0 + 4.0 * c_p.real, 4.0 * c_q.real],
                  [4.0 * c_p.imag, 1.0 + 4.0 * c_q.imag]])
    return M, c_b


def selection_condition(M: np.ndarray) -> float:
    """2-norm condition number of the 2x2 matrix M = [[a, b], [c, d]], inf
    if singular: sigma_max^2 / |det M|, as sigma_max sigma_min = |det M|,
    with sigma_max = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2.  It is
    (S + sqrt(S^2 - 4 det^2)) / (2 |det|), S = ||M||_F^2, without the
    cancellation under the root."""
    (a, b), (c, d) = M
    det = abs(a * d - b * c)
    smax = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    return float(smax * smax / det) if det else np.inf


def selection_matrix(lambda_tilde: ScalarField) -> np.ndarray:
    """The 2x2 matrix whose solve fixes (p, q) in solve_rho_eta.

    It depends on the state only through grad lambdatilde; at lambdatilde = 0
    it is (1 + 4 c) I with c the log coefficient of chi'/4r.
    """
    g = lambda_tilde.grid
    return _couplings(g, *_gradient_samples(
        g, ops.gradient_coefficients(g.workspace, lambda_tilde.c)))[0]


def solve_rho_eta(seed: SeedData, alpha: float, grad, samples):
    """Fix (p, q) = (rho cos eta, rho sin eta) and assemble the source there,
    for the state with lambda = -alpha chi ln r + lambdatilde, grad the
    half-spectra (d1, d2) of lambdatilde and samples the
    state_samples(seed, Htilde).

    The momentum source is affine in (p, q): f = f0 + p f_p + q f_q, with f0
    the full source at (b, 0, 0) and f_p, f_q its unit couplings.  So is its
    log coefficient c = m e^{i phi}, and the fixed point
    (p, q) = -4 (m cos phi, m sin phi) is the solution of a 2x2 linear
    system, solved by Cramer's rule.  The singular terms' coefficients (of
    f_p, f_q and the b part of f0) come from _couplings; the singular terms
    at the selected (b, p, q) are then added to the samples of the other
    state terms once, and the sum is transformed once and added to the
    seed's momentum_source.  The corrections' profiles w (_correction_modes,
    modes m > 0 of f1 + i f2) go into the half-spectra as w/2 into f1's and
    -i w/2 into f2's.
    Returns (p, q, (f1, f2)): the whole source of the step's one
    div_constraint_solve, which gives H1 + H2 + H3.
    """
    g = seed.grid
    (P1, P2), L = _state_source(seed, alpha, grad, samples)
    M, c_b = _couplings(g, *L)
    cond = selection_condition(M)
    if not np.isfinite(cond) or cond > SELECTION_COND_LIMIT:
        raise NearSingularSelection(
            f"(rho, eta) selection matrix has condition number {cond:.3g}")
    f1, f2 = seed.momentum_source
    wm = g.plane_row / (2.0 * np.pi * g.M)  # log coefficient of the angular mean
    c0 = seed.source_log_coefficient + seed.b * c_b + complex((wm @ P1).sum(), (wm @ P2).sum())
    (m11, m12), (m21, m22) = M
    det = m11 * m22 - m12 * m21
    p = float(-4.0 * (c0.real * m22 - m12 * c0.imag) / det)
    q = float(-4.0 * (m11 * c0.imag - m21 * c0.real) / det)
    _add_singular_source(g, *L, SingularTensorParams(b=seed.b, p=p, q=q), P1, P2)
    c1, c2 = f1.c + angular_modes(g, P1), f2.c + angular_modes(g, P2)
    for m, w in _correction_modes(g, seed.b, p, q).items():
        c1[:, m] += 0.5 * w
        c2[:, m] -= 0.5j * w
    return p, q, (ScalarField(g, c1), ScalarField(g, c2))
