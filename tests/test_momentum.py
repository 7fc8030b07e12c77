from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d import cli
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    SeedData,
    TracelessSymTensorField,
    build_grid,
    cartesian_gradient,
    integrate,
    make_seed,
    multiply,
    sample_analytic,
)
from constraints2d.errors import InvalidResolution, NearSingularSelection
from constraints2d.momentum import (
    SELECTION_COND_LIMIT,
    SingularTensorParams,
    _complex_pair,
    _correction_modes,
    correction_h2,
    correction_h3,
    div_constraint_solve,
    divergence_identity_residual,
    full_state_samples,
    log_coefficient,
    _add_singular_source,
    _state_source,
    momentum_residual,
    momentum_rhs_f,
    selection_condition,
    selection_matrix,
    singular_tensors,
    solve_rho_eta,
    state_samples,
)
from constraints2d.operators import (divergence, full_spectrum, gradient_coefficients,
                                     zero_boundary_rows)
from constraints2d.picard import solve_constraints

from conftest import random_low_mode_field, rng


def zero_state(g):
    return ScalarField.zeros(g), TracelessSymTensorField.zeros(g)


def empty_seed(g):
    z = ScalarField.zeros(g)
    return make_seed(z, z, z, b=0.0)


def rho_eta(seed, alpha, lt, H):
    """solve_rho_eta at the state (alpha, lt, H)."""
    return solve_rho_eta(seed, alpha, gradient_coefficients(lt.grid.workspace, lt.c),
                         state_samples(seed, H))


def correction_source(grid, params):
    """The corrections' closed-form source pair at (b, p, q)."""
    return _complex_pair(grid, _correction_modes(grid, params.b, params.p, params.q))


def full_source(seed, alpha, lt, H, params):
    """The generic source plus the corrections' source: the whole source of
    the step's one potential solve, built term by term."""
    f1, f2 = momentum_rhs_f(seed, alpha, lt, H, params)
    s1, s2 = correction_source(seed.grid, params)
    return f1 + s1, f2 + s2


# ----------------------------------------------------------------------------
# singular tensors
# ----------------------------------------------------------------------------

def test_Hb_value(grid):
    Hb, _, _ = singular_tensors(SingularTensorParams(1.0, 0.0, 0.0), grid)
    i = np.searchsorted(grid.r, 4.0)
    r = grid.r[i]
    # H_b11(r, 0) = -(chi/2r) cos 0 = -1/(2r) for r >= 2
    val = sum(Hb.h11.a[k][i] for k in range(grid.K + 1))
    assert val == pytest.approx(-1.0 / (2.0 * r), abs=1e-14)
    assert np.max(np.abs(Hb.h12.a)) == 0.0  # h12 of H_b is pure sin 2T


def test_zero_params(grid):
    Hb, Hrho, tau_s = singular_tensors(SingularTensorParams(0.0, 0.0, 0.0), grid)
    for f in (Hb.h11, Hb.h12, Hrho.h11, Hrho.h12, tau_s):
        assert np.max(np.abs(f.a)) == 0.0 and np.max(np.abs(f.b)) == 0.0


@settings(max_examples=15, deadline=None)
@given(b=st.floats(-2, 2), p=st.floats(-2, 2), q=st.floats(-2, 2))
def test_cancellation_identity(b, p, q):
    g = build_grid(8, 64, 30.0, -0.5)
    Hb, Hrho, tau_s = singular_tensors(SingularTensorParams(b, p, q), g)
    h11, h12 = Hb.h11 + Hrho.h11, Hb.h12 + Hrho.h12
    # (1/2)|H|^2 - (1/4) tau^2 with |H|^2 = 2(h11^2 + h12^2)
    diff = multiply(h11, h11) + multiply(h12, h12) - 0.25 * multiply(tau_s, tau_s)
    scale = b * b + p * p + q * q
    assert max(np.max(np.abs(diff.a)), np.max(np.abs(diff.b))) <= 1e-12 * max(scale, 1e-30)


def test_divergence_identities_exact(grid):
    for params in (SingularTensorParams(1, 0, 0), SingularTensorParams(0, 1, 0),
                   SingularTensorParams(0.7, -1.2, 0.5)):
        assert divergence_identity_residual(params, grid) < 1e-12


def test_divergence_identity_without_nodes_beyond_one_half_is_invalid_resolution():
    # the identity is checked on the nodes with r > 0.5; R_max = 0.5 has none
    grid = build_grid(8, 64, 0.5, -0.5)
    with pytest.raises(InvalidResolution, match="R_max = 0.5"):
        divergence_identity_residual(SingularTensorParams(1.0, 1.0, 0.5), grid)


# ----------------------------------------------------------------------------
# right-hand side
# ----------------------------------------------------------------------------

def test_rhs_all_zero(grid):
    z, Z = zero_state(grid)
    f1, f2 = momentum_rhs_f(empty_seed(grid), 0.0, z, Z, SingularTensorParams(0, 0, 0))
    assert np.max(np.abs(f1.a)) == 0.0 and np.max(np.abs(f2.a)) == 0.0


def test_rhs_tau_tilde_only(grid):
    z, Z = zero_state(grid)
    tau = sample_analytic([GaussianBump(amp=0.5, x0=0.4, w=1.5)], grid)
    zf = ScalarField.zeros(grid)
    seed = make_seed(zf, zf, tau, b=0.0)
    f1, f2 = momentum_rhs_f(seed, 0.0, z, Z, SingularTensorParams(0, 0, 0))
    d1, d2 = cartesian_gradient(tau)
    assert np.max(np.abs((f1 - 0.5 * d1).a)) < 1e-15
    assert np.max(np.abs((f2 - 0.5 * d2).b)) < 1e-15
    # plane integrals of gradients vanish (to quadrature accuracy)
    assert abs(integrate(f1)) < 1e-4
    assert abs(integrate(f2)) < 1e-4


def test_rhs_eta_term_integral(grid):
    # only (p,q) = (1,0): int f1 = pi/2, int f2 = 0
    z, Z = zero_state(grid)
    f1, f2 = momentum_rhs_f(empty_seed(grid), 0.0, z, Z, SingularTensorParams(0.0, 1.0, 0.0))
    assert integrate(f1) == pytest.approx(np.pi / 2, abs=3e-4)
    assert integrate(f2) == 0.0


# ----------------------------------------------------------------------------
# divergence solve
# ----------------------------------------------------------------------------

def test_div_solve_zero(grid):
    z = ScalarField.zeros(grid)
    m, phi, K = div_constraint_solve(z, z)
    assert m == 0.0 and phi == 0.0
    assert np.max(np.abs(K.h11.a)) == 0.0


def test_div_solve_manufactured(grid):
    # Y = (e^{-r^2}, 0): f_j = Delta Y_j; K11 = -2x e^{-r^2}, K12 = -2y e^{-r^2}
    prof = (4 * grid.r**2 - 4) * np.exp(-grid.r**2)
    f1 = ScalarField.from_mode(grid, 0, "cos", prof)
    m, phi, K = div_constraint_solve(f1, ScalarField.zeros(grid))
    assert m < 1e-7
    exact = -2.0 * grid.r * np.exp(-grid.r**2)
    # forward oracle: the analytic divergence-source tensor (disc. error ~9e-5
    # on this grid, gradients of the potential carry a ~10x constant)
    assert np.max(np.abs(K.h11.a[1] - exact)) < 2.5e-3
    assert np.max(np.abs(K.h12.b[1] - exact)) < 2.5e-3


def test_div_solve_gaussian_far_field(grid):
    # f1 = e^{-r^2}: m = 1/2 (corrected normalization), phi = 0, leading
    # far field K11 ~ (1/2) cos(theta)/r
    f1 = sample_analytic([GaussianBump(amp=1.0)], grid)
    m, phi, K = div_constraint_solve(f1, ScalarField.zeros(grid))
    assert m == pytest.approx(0.5, abs=1e-8)
    assert phi == 0.0
    # K_tilde's 1/r part was removed: check the full K's far field instead
    i = np.searchsorted(grid.r, 30.0)
    full_amp = K.h11.a[1][i] + m * np.cos(phi) * grid.chi[i] / grid.r[i]
    assert full_amp * grid.r[i] == pytest.approx(0.5, abs=2e-2)


def test_div_solve_discrete_divergence(grid):
    # the assembled tensor satisfies the divergence equation discretely
    r = rng()
    prof = np.exp(-grid.r**2) * grid.r
    f1 = ScalarField.from_mode(grid, 1, "cos", prof)
    f2 = ScalarField.from_mode(grid, 2, "sin", 0.7 * prof)
    m, phi, K = div_constraint_solve(f1, f2)
    assert m < 1e-12  # no mode-0 complex content in this source
    d1, d2 = divergence(K)
    e1 = zero_boundary_rows(d1 - f1)
    e2 = zero_boundary_rows(d2 - f2)
    assert max(np.max(np.abs(e1.a)), np.max(np.abs(e1.b))) < 1e-11
    assert max(np.max(np.abs(e2.a)), np.max(np.abs(e2.b))) < 1e-11


# ----------------------------------------------------------------------------
# corrections
# ----------------------------------------------------------------------------

def test_h2_zero(grid):
    K = correction_h2(0.0, grid)
    assert np.max(np.abs(K.h11.a)) == 0.0


def test_h2_properties(grid):
    b = 1.0
    K = correction_h2(b, grid)
    # reduced source is integral-free: no far-field part; discrete divergence
    # reproduces it to solver tolerance
    prof = b * grid.dchi / grid.r
    f1 = ScalarField.from_mode(grid, 1, "cos", prof)
    f2 = ScalarField.from_mode(grid, 1, "sin", prof)
    assert abs(log_coefficient(f1, f2)) == 0.0
    d1, d2 = divergence(K)
    e1 = zero_boundary_rows(d1 - f1)
    e2 = zero_boundary_rows(d2 - f2)
    assert max(np.max(np.abs(e1.a)), np.max(np.abs(e2.b))) < 1e-11


def test_h3_zero_params(grid):
    K = correction_h3(SingularTensorParams(0.0, 0.0, 0.0), grid)
    assert np.max(np.abs(K.h11.a)) == 0.0 and np.max(np.abs(K.h12.a)) == 0.0


def test_h3_zero_mass(grid):
    params = SingularTensorParams(0.0, 1.0, 0.0)
    K = correction_h3(params, grid)
    prof = grid.dchi / (2.0 * grid.r)
    f1 = ScalarField.from_mode(grid, 2, "cos", prof)
    f2 = ScalarField.from_mode(grid, 2, "sin", prof)
    assert abs(log_coefficient(f1, f2)) == 0.0
    d1, _ = divergence(K)
    e1 = zero_boundary_rows(d1 - f1)
    assert np.max(np.abs(e1.a)) < 1e-11


# ----------------------------------------------------------------------------
# assembled solve
# ----------------------------------------------------------------------------

def test_assemble_zero(grid):
    z, Z = zero_state(grid)
    m, phi, H = div_constraint_solve(*full_source(empty_seed(grid), 0.0, z, Z,
                                                  SingularTensorParams(0, 0, 0)))
    assert m == 0.0 and phi == 0.0
    assert np.max(np.abs(H.h11.a)) == 0.0


def test_assemble_wave_data_only(grid):
    # m cos(phi) = -(1/2pi) int udot d1 u at zero state and params
    udot = sample_analytic([GaussianBump(amp=0.4)], grid)
    u = sample_analytic([GaussianBump(amp=0.4, x0=0.7, y0=0.1)], grid)
    seed = make_seed(udot, u, ScalarField.zeros(grid), b=0.0)
    z, Z = zero_state(grid)
    m, phi, _ = div_constraint_solve(*full_source(seed, 0.0, z, Z, SingularTensorParams(0, 0, 0)))
    d1u, d2u = cartesian_gradient(u)
    mx = -integrate(multiply(udot, d1u)) / (2 * np.pi)
    my = -integrate(multiply(udot, d2u)) / (2 * np.pi)
    assert m * np.cos(phi) == pytest.approx(mx, abs=1e-12)
    assert m * np.sin(phi) == pytest.approx(my, abs=1e-12)


def test_affine_probe_exactness(grid, small_seed=None):
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    lt = 0.02 * sample_analytic([GaussianBump(amp=1.0, w=1.5)], grid)
    seed = make_seed(udot, u, ScalarField.zeros(grid), b=0.1)
    Z = TracelessSymTensorField.zeros(grid)

    def cfun(p, q):
        f1, f2 = momentum_rhs_f(seed, 0.01, lt, Z, SingularTensorParams(0.1, p, q))
        c = log_coefficient(f1, f2)
        return np.array([c.real, c.imag])

    c00, c10, c01, c11 = cfun(0, 0), cfun(1, 0), cfun(0, 1), cfun(1, 1)
    assert np.max(np.abs(c11 - (c10 + c01 - c00))) < 1e-10


def test_fixed_point_identity(grid):
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    seed = make_seed(udot, u, ScalarField.zeros(grid), b=0.05)
    z, Z = zero_state(grid)
    p, q, source = rho_eta(seed, 0.0, z, Z)
    m, phi, _ = div_constraint_solve(*source)
    assert -4.0 * m * np.cos(phi) == pytest.approx(p, abs=1e-10)
    assert -4.0 * m * np.sin(phi) == pytest.approx(q, abs=1e-10)


def test_solve_rho_eta_zero(grid):
    z, Z = zero_state(grid)
    p, q, _ = rho_eta(empty_seed(grid), 0.0, z, Z)
    assert p == 0.0 and q == 0.0


def test_solve_rho_eta_leading_order(fine_grid):
    g = fine_grid
    udot = sample_analytic([GaussianBump(amp=0.3)], g)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.6, y0=0.2)], g)
    seed = make_seed(udot, u, ScalarField.zeros(g), b=0.0)
    z = ScalarField.zeros(g)
    Z = TracelessSymTensorField.zeros(g)
    p, q, _ = rho_eta(seed, 0.0, z, Z)
    d1u, d2u = cartesian_gradient(u)
    assert p == pytest.approx(integrate(multiply(udot, d1u)) / np.pi, rel=2e-3)
    assert q == pytest.approx(integrate(multiply(udot, d2u)) / np.pi, rel=2e-3)


def test_output_far_field_removed(grid):
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    seed = make_seed(udot, u, ScalarField.zeros(grid), b=0.05)
    z, Z = zero_state(grid)
    p, q, source = rho_eta(seed, 0.0, z, Z)
    m, _, H = div_constraint_solve(*source)
    i_half = np.searchsorted(grid.r, 0.5 * grid.R_max)
    for k in (1, 3):
        amp_R = np.hypot(H.h11.a[k, -1], H.h11.b[k, -1]) * grid.R_max
        amp_h = np.hypot(H.h11.a[k, i_half], H.h11.b[k, i_half]) * grid.r[i_half]
        assert amp_R <= 0.05 * max(m, 1e-6) + amp_h


def _max_abs_diff(f, g):
    return float(np.max(np.abs(f.c - g.c)))


def test_solve_rho_eta_source_is_the_source_at_the_selection(grid):
    # the returned f0 + p f_p + q f_q is the full source at (b, p, q) plus
    # the corrections' source there, also for a state whose lambdatilde and
    # Htilde couple to the singular terms
    r = rng()
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    lt = random_low_mode_field(grid, r, scale=0.02)
    H = TracelessSymTensorField(random_low_mode_field(grid, r, scale=0.01),
                                random_low_mode_field(grid, r, scale=0.01))
    p, q, (f1, f2) = rho_eta(seed, 0.01, lt, H)
    assert p != 0.0 and q != 0.0
    g1, g2 = full_source(seed, 0.01, lt, H, SingularTensorParams(seed.b, p, q))
    scale = max(np.max(np.abs(g1.c)), np.max(np.abs(g2.c)))
    assert max(_max_abs_diff(f1, g1), _max_abs_diff(f2, g2)) <= 1e-12 * scale


def test_selection_from_angular_means_matches_the_sample_built_one(grid):
    # the sample-built construction: the unit couplings f_p, f_q and the
    # source f0 at (b, 0, 0) as (N_r, M) sample pairs, log coefficients from
    # their sampled angular means
    r = rng()
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    lt = random_low_mode_field(grid, r, scale=0.02)
    H = TracelessSymTensorField(random_low_mode_field(grid, r, scale=0.01),
                                random_low_mode_field(grid, r, scale=0.01))

    def sample_log_coefficient(S1, S2):
        return log_coefficient(*(ScalarField.from_mode(grid, 0, "cos", S.mean(axis=1))
                                 for S in (S1, S2)))

    def singular_source(L, params):
        S = np.zeros_like(L[0]), np.zeros_like(L[0])
        _add_singular_source(grid, *L, params, *S)
        return S

    (P1, P2), L = _state_source(seed, 0.01, gradient_coefficients(lt.grid.workspace, lt.c),
                                state_samples(seed, H))
    cp, cq = (sample_log_coefficient(*singular_source(L, SingularTensorParams(0.0, *pq)))
              for pq in ((1.0, 0.0), (0.0, 1.0)))
    M = np.eye(2) + 4.0 * np.array([[cp.real, cq.real], [cp.imag, cq.imag]])
    S1, S2 = singular_source(L, SingularTensorParams(seed.b, 0.0, 0.0))
    c0 = log_coefficient(*seed.momentum_source) + sample_log_coefficient(P1 + S1, P2 + S2)
    pq = np.linalg.solve(M, -4.0 * np.array([c0.real, c0.imag]))

    assert np.max(np.abs(selection_matrix(lt) - M)) <= 1e-13 * np.max(np.abs(M))
    p, q, _ = rho_eta(seed, 0.01, lt, H)
    assert np.max(np.abs(np.array([p, q]) - pq)) <= 1e-13 * np.max(np.abs(pq))


def test_selection_condition_matches_the_svd_condition_number():
    # the closed form against LAPACK's SVD: on random matrices, and on
    # near-singular upper-triangular ones, whose bidiagonal reduction is
    # exact, so that the SVD's smallest singular value is accurate too
    r = np.random.default_rng(11)
    for M in r.normal(size=(200, 2, 2)):
        assert selection_condition(M) == pytest.approx(np.linalg.cond(M), rel=1e-12)
    for target in 10.0 ** np.arange(2, 11):
        a, b = r.normal(size=2)
        M = np.array([[a, b], [0.0, (a * a + b * b) / (target * a)]])
        cond = selection_condition(M)
        assert 0.5 * target < cond < 2.0 * target
        assert cond == pytest.approx(np.linalg.cond(M), rel=1e-12)
    for M in ([[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]):
        assert selection_condition(np.array(M)) == np.inf


def test_solve_rho_eta_refuses_a_near_singular_selection(grid):
    # a mode-2 lambdatilde s l moves the selection matrix, about 2 I at
    # lambdatilde = 0, along diag(-d, d): where its first entry vanishes the
    # matrix the step would solve is past the limit and is refused
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    seed = make_seed(udot, udot, ScalarField.zeros(grid), b=0.1)
    H = TracelessSymTensorField.zeros(grid)
    lt = ScalarField.from_mode(grid, 2, "cos", grid.r**2 * np.exp(-0.1 * grid.r**2))
    M0 = selection_matrix(ScalarField.zeros(grid))
    D = selection_matrix(lt) - M0
    assert abs(D[0, 1]) + abs(D[1, 0]) < 1e-12 * abs(D[0, 0])
    s = -M0[0, 0] / D[0, 0]
    assert selection_condition(selection_matrix(s * lt)) > SELECTION_COND_LIMIT
    with pytest.raises(NearSingularSelection, match="condition number"):
        rho_eta(seed, 0.0, s * lt, H)
    # halfway there, the same data are accepted
    assert selection_condition(selection_matrix(0.5 * s * lt)) < 10.0
    p, q, _ = rho_eta(seed, 0.0, 0.5 * s * lt, H)
    assert np.isfinite(p) and np.isfinite(q)


def test_seed_densities_match_fresh_products(grid):
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, x0=0.2, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    d1u, d2u = cartesian_gradient(u)
    dt1, dt2 = cartesian_gradient(tau)
    energy = multiply(udot, udot) + multiply(d1u, d1u) + multiply(d2u, d2u)
    fresh = [(seed.energy_density, energy),
             (seed.momentum_density[0], multiply(udot, d1u)),
             (seed.momentum_density[1], multiply(udot, d2u)),
             (seed.momentum_source[0], 0.5 * dt1 - multiply(udot, d1u)),
             (seed.momentum_source[1], 0.5 * dt2 - multiply(udot, d2u))]
    for stored, f in fresh:
        assert _max_abs_diff(stored, f) <= 1e-14 * np.max(np.abs(f.c))
    assert seed.epsilon == pytest.approx(integrate(energy), rel=1e-14)
    # the derived values are not constructor arguments
    with pytest.raises(TypeError):
        SeedData(udot, u, tau, 0.1, energy_density=energy)


# ----------------------------------------------------------------------------
# the sample-space source passes against the written formulas
# ----------------------------------------------------------------------------

def _coupled_state(grid):
    r = rng()
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    lt = random_low_mode_field(grid, r, scale=0.02)
    H = TracelessSymTensorField(random_low_mode_field(grid, r, scale=0.01),
                                random_low_mode_field(grid, r, scale=0.01))
    return seed, 0.01, lt, H


def _assert_close(fused, oracle, rtol=1e-12):
    scale = max(np.max(np.abs(f.c)) for f in oracle)
    for f, g in zip(fused, oracle):
        assert _max_abs_diff(f, g) <= rtol * scale


def _lambda_gradient_oracle(grid, alpha, lt):
    d1, d2 = cartesian_gradient(lt)
    prof = -alpha * grid.dchiln
    return (d1 + ScalarField.from_mode(grid, 1, "cos", prof),
            d2 + ScalarField.from_mode(grid, 1, "sin", prof))


def test_fused_sources_match_term_by_term_products(grid):
    from constraints2d.lichnerowicz import hamiltonian_rhs

    seed, alpha, lt, H = _coupled_state(grid)
    p, q, source = rho_eta(seed, alpha, lt, H)
    params = SingularTensorParams(seed.b, p, q)
    udot, tau = seed.udot, seed.tau_tilde
    d1u, d2u = cartesian_gradient(seed.u)
    dt1, dt2 = cartesian_gradient(tau)
    d1lt, d2lt = cartesian_gradient(lt)
    lam1, lam2 = _lambda_gradient_oracle(grid, alpha, lt)
    Hb, Hrho, tau_s = singular_tensors(params, grid)
    hs11, hs12 = Hb.h11 + Hrho.h11, Hb.h12 + Hrho.h12
    quarter = grid.dchi / (4.0 * grid.r)

    f1 = (-multiply(udot, d1u) + 0.5 * dt1 - 0.5 * multiply(tau, lam1)
          - multiply(H.h11, lam1) - multiply(H.h12, lam2)
          + ScalarField.from_mode(grid, 0, "cos", p * quarter)
          - multiply(d1lt, hs11) - multiply(d2lt, hs12) - 0.5 * multiply(tau_s, d1lt))
    f2 = (-multiply(udot, d2u) + 0.5 * dt2 - 0.5 * multiply(tau, lam2)
          - multiply(H.h12, lam1) + multiply(H.h11, lam2)
          + ScalarField.from_mode(grid, 0, "cos", q * quarter)
          - multiply(d1lt, hs12) + multiply(d2lt, hs11) - 0.5 * multiply(tau_s, d2lt))
    _assert_close(momentum_rhs_f(seed, alpha, lt, H, params), (f1, f2))
    s1, s2 = correction_source(grid, params)
    _assert_close(source, (f1 + s1, f2 + s2))

    ham = (-0.5 * (multiply(udot, udot) + multiply(d1u, d1u) + multiply(d2u, d2u))
           - 2.0 * (multiply(hs11, H.h11) + multiply(hs12, H.h12))
           - (multiply(H.h11, H.h11) + multiply(H.h12, H.h12))
           + 0.5 * multiply(tau_s, tau) + 0.25 * multiply(tau, tau))
    _assert_close([hamiltonian_rhs(seed, state_samples(seed, H), params)], [ham])


def test_fused_momentum_residual_matches_term_by_term_products(grid):
    from constraints2d.momentum import (
        band_tensor,
        singular_divergence_pair,
        tau_singular_gradient,
    )

    seed, alpha, lt, H = _coupled_state(grid)
    params = SingularTensorParams(seed.b, 0.02, -0.01)
    udot, tau = seed.udot, seed.tau_tilde
    d1u, d2u = cartesian_gradient(seed.u)
    dt1, dt2 = cartesian_gradient(tau)
    lam1, lam2 = _lambda_gradient_oracle(grid, alpha, lt)
    Hb, Hrho, tau_s = singular_tensors(params, grid)
    h11, h12 = Hb.h11 + Hrho.h11 + H.h11, Hb.h12 + Hrho.h12 + H.h12
    tau_tot = tau_s + tau
    div1, div2 = divergence(H - band_tensor(params, grid))
    s1, s2 = singular_divergence_pair(params, grid)
    ts1, ts2 = tau_singular_gradient(params, grid)
    r1 = (div1 + s1 + multiply(h11, lam1) + multiply(h12, lam2) + multiply(udot, d1u)
          - 0.5 * (dt1 + ts1) + 0.5 * multiply(tau_tot, lam1))
    r2 = (div2 + s2 + multiply(h12, lam1) - multiply(h11, lam2) + multiply(udot, d2u)
          - 0.5 * (dt2 + ts2) + 0.5 * multiply(tau_tot, lam2))
    _assert_close(momentum_residual(seed, alpha, lt, H, params,
                                    full_state_samples(seed, H, params)), (r1, r2))


def test_hamiltonian_residual_matches_term_by_term_products(grid):
    from constraints2d.elliptic import laplacian
    from constraints2d.lichnerowicz import hamiltonian_residual

    seed, alpha, lt, H = _coupled_state(grid)
    params = SingularTensorParams(seed.b, 0.02, -0.01)
    udot = seed.udot
    d1u, d2u = cartesian_gradient(seed.u)
    Hb, Hrho, tau_s = singular_tensors(params, grid)
    h11, h12 = Hb.h11 + Hrho.h11 + H.h11, Hb.h12 + Hrho.h12 + H.h12
    tau_tot = tau_s + seed.tau_tilde
    lap = laplacian(lt) - alpha * ScalarField.from_mode(grid, 0, "cos", grid.lap_chiln)
    energy = multiply(udot, udot) + multiply(d1u, d1u) + multiply(d2u, d2u)
    res = (lap + 0.5 * energy + multiply(h11, h11) + multiply(h12, h12)
           - 0.25 * multiply(tau_tot, tau_tot))
    _assert_close([hamiltonian_residual(seed, alpha, lt, full_state_samples(seed, H, params))],
                  [res])


def test_full_state_samples_are_read_only_and_both_residuals_leave_them_unchanged(grid):
    from constraints2d.lichnerowicz import hamiltonian_residual

    seed, alpha, lt, H = _coupled_state(grid)
    params = SingularTensorParams(seed.b, 0.02, -0.01)
    full = full_state_samples(seed, H, params)
    before = [x.copy() for x in full]
    momentum_residual(seed, alpha, lt, H, params, full)
    hamiltonian_residual(seed, alpha, lt, full)
    for x, x0 in zip(full, before):
        assert np.array_equal(x, x0)
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            x *= 2.0


def test_seed_tau_samples_are_read_only_and_shared_by_every_step(grid):
    # the seed samples tau_tilde once; state_samples hands out those samples,
    # and full_state_samples adds the singular part into a new array
    seed, alpha, lt, H = _coupled_state(grid)
    T = seed.tau_samples
    assert np.array_equal(T, seed.tau_tilde.to_samples())
    assert not T.flags.writeable
    before = T.copy()
    assert state_samples(seed, H)[0] is T
    params = SingularTensorParams(seed.b, 0.02, -0.01)
    tau = full_state_samples(seed, H, params)[2]
    assert tau is not T and not np.array_equal(tau, T)
    solve_rho_eta(seed, alpha, gradient_coefficients(lt.grid.workspace, lt.c),
                  state_samples(seed, H))
    assert np.array_equal(T, before)
    with pytest.raises(ValueError, match="read-only"):
        T += 1.0
    assert seed.source_log_coefficient == log_coefficient(*seed.momentum_source)


@pytest.mark.parametrize("b, p, q", [(0.7, 0.0, 0.0), (0.0, -1.3, 0.4), (0.2, 0.5, 2.0)])
def test_corrections_are_unit_combinations_of_direct_solves(grid, b, p, q):
    # each correction equals a direct solve of its closed-form source at
    # (b, p, q), and the one solve of the generic source plus the
    # corrections' source equals the generic solve plus both corrections:
    # the corrections' sources have no mode-0 part, so the far field
    # (m, phi) is the generic solve's exactly
    prof = grid.dchi / grid.r
    direct_h2 = div_constraint_solve(ScalarField.from_mode(grid, 1, "cos", b * prof),
                                     ScalarField.from_mode(grid, 1, "sin", b * prof))[2]
    z = complex(p, -q) * 0.5 * prof
    direct_h3 = div_constraint_solve(ScalarField.from_mode(grid, 2, "cos", z),
                                     ScalarField.from_mode(grid, 2, "cos", -1j * z))[2]
    K2 = correction_h2(b, grid)
    K3 = correction_h3(SingularTensorParams(0.0, p, q), grid)
    for K, direct in ((K2, direct_h2), (K3, direct_h3)):
        _assert_close((K.h11, K.h12), (direct.h11, direct.h12))
    gen = rng()
    zero = ScalarField.zeros(grid)
    source = tuple(random_low_mode_field(grid, gen) for _ in range(2))
    s1, s2 = correction_source(grid, SingularTensorParams(b, p, q))
    for f1, f2 in ((zero, zero), source):
        m_all, phi_all, H_all = div_constraint_solve(f1 + s1, f2 + s2)
        m, phi, K1 = div_constraint_solve(f1, f2)
        assert (m_all, phi_all) == (m, phi)
        H = K1 + K2 + K3
        _assert_close((H_all.h11, H_all.h12), (H.h11, H.h12))


def test_momentum_residual_lies_in_the_top_positive_mode():
    # div_constraint_solve solves the potential's modes -K..K-1 only: its
    # mode K would feed zeta's mode K+1, which Htilde cannot hold.  So the
    # source's mode +K of f1 + i f2 is left unmatched, and on the demo seed
    # at K = 8 (where the seed still has content there) the whole momentum
    # residual sits in that mode (1.8e-8, against the 1.4e-7 residual norm);
    # every other mode is at factorization accuracy
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"
    cfg = replace(cli.parse_config(demo.read_text()), K=8)
    g = cli.config_grid(cfg)
    seed = cli.config_seed(cfg, g)
    bundle = solve_constraints(seed)
    params = SingularTensorParams(b=seed.b, p=bundle.p, q=bundle.q)
    full = full_state_samples(seed, bundle.H_tilde, params)
    r1, r2 = (zero_boundary_rows(f) for f in momentum_residual(
        seed, bundle.alpha, bundle.lambda_tilde, bundle.H_tilde, params, full))
    per_mode = np.max(np.abs(full_spectrum(r1, r2)), axis=0)  # modes -K..K
    assert np.max(per_mode[:-1]) <= 1e-13
    assert per_mode[-1] > 1e-9
