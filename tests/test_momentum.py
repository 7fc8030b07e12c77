import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d import momentum
from constraints2d.errors import NonDecayingRHS
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
from constraints2d.momentum import (
    SingularTensorParams,
    assemble_momentum,
    correction_h2,
    correction_h3,
    div_constraint_solve,
    divergence_identity_residual,
    log_coefficient,
    momentum_rhs_f,
    singular_tensors,
    solve_rho_eta,
)
from constraints2d.operators import divergence, zero_boundary_rows

from conftest import random_low_mode_field, rng


def zero_state(g):
    return ScalarField.zeros(g), TracelessSymTensorField.zeros(g)


def empty_seed(g):
    z = ScalarField.zeros(g)
    return make_seed(z, z, z, b=0.0)


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


@pytest.mark.parametrize("correction", [
    lambda g: correction_h2(1.0, g),
    lambda g: correction_h3(SingularTensorParams(0.0, 1.0, 0.5), g),
], ids=["h2", "h3"])
def test_correction_with_far_field_part_raises(grid, monkeypatch, correction):
    # the corrections' sources are integral-free; a nonzero log coefficient
    # must raise a typed error (not an assert, which -O would remove)
    monkeypatch.setattr(momentum, "log_coefficient", lambda f1, f2: 1e-6 + 0j)
    with pytest.raises(NonDecayingRHS):
        correction(grid)


# ----------------------------------------------------------------------------
# assembled solve
# ----------------------------------------------------------------------------

def test_assemble_zero(grid):
    z, Z = zero_state(grid)
    params = SingularTensorParams(0, 0, 0)
    source = momentum_rhs_f(empty_seed(grid), 0.0, z, Z, params)
    out = assemble_momentum(source, params)
    assert out.m == 0.0 and out.phi == 0.0
    assert np.max(np.abs(out.H_tilde.h11.a)) == 0.0


def test_assemble_wave_data_only(grid):
    # m cos(phi) = -(1/2pi) int udot d1 u at zero state and params
    udot = sample_analytic([GaussianBump(amp=0.4)], grid)
    u = sample_analytic([GaussianBump(amp=0.4, x0=0.7, y0=0.1)], grid)
    seed = make_seed(udot, u, ScalarField.zeros(grid), b=0.0)
    z, Z = zero_state(grid)
    params = SingularTensorParams(0, 0, 0)
    out = assemble_momentum(momentum_rhs_f(seed, 0.0, z, Z, params), params)
    d1u, d2u = cartesian_gradient(u)
    mx = -integrate(multiply(udot, d1u)) / (2 * np.pi)
    my = -integrate(multiply(udot, d2u)) / (2 * np.pi)
    assert out.m * np.cos(out.phi) == pytest.approx(mx, abs=1e-12)
    assert out.m * np.sin(out.phi) == pytest.approx(my, abs=1e-12)


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
    p, q, source = solve_rho_eta(seed, 0.0, z, Z)
    out = assemble_momentum(source, SingularTensorParams(seed.b, p, q))
    assert -4.0 * out.m * np.cos(out.phi) == pytest.approx(p, abs=1e-10)
    assert -4.0 * out.m * np.sin(out.phi) == pytest.approx(q, abs=1e-10)


def test_solve_rho_eta_zero(grid):
    z, Z = zero_state(grid)
    p, q, _ = solve_rho_eta(empty_seed(grid), 0.0, z, Z)
    assert p == 0.0 and q == 0.0


def test_solve_rho_eta_leading_order(fine_grid):
    g = fine_grid
    udot = sample_analytic([GaussianBump(amp=0.3)], g)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.6, y0=0.2)], g)
    seed = make_seed(udot, u, ScalarField.zeros(g), b=0.0)
    z = ScalarField.zeros(g)
    Z = TracelessSymTensorField.zeros(g)
    p, q, _ = solve_rho_eta(seed, 0.0, z, Z)
    d1u, d2u = cartesian_gradient(u)
    assert p == pytest.approx(integrate(multiply(udot, d1u)) / np.pi, rel=2e-3)
    assert q == pytest.approx(integrate(multiply(udot, d2u)) / np.pi, rel=2e-3)


def test_output_far_field_removed(grid):
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    seed = make_seed(udot, u, ScalarField.zeros(grid), b=0.05)
    z, Z = zero_state(grid)
    p, q, source = solve_rho_eta(seed, 0.0, z, Z)
    out = assemble_momentum(source, SingularTensorParams(seed.b, p, q))
    i_half = np.searchsorted(grid.r, 0.5 * grid.R_max)
    for k in (1, 3):
        amp_R = np.hypot(out.H_tilde.h11.a[k, -1], out.H_tilde.h11.b[k, -1]) * grid.R_max
        amp_h = np.hypot(out.H_tilde.h11.a[k, i_half],
                         out.H_tilde.h11.b[k, i_half]) * grid.r[i_half]
        assert amp_R <= 0.05 * max(out.m, 1e-6) + amp_h


def _max_abs_diff(f, g):
    return float(np.max(np.abs(f.c - g.c)))


def test_solve_rho_eta_source_is_the_source_at_the_selection(grid):
    # the returned f0 + p f_p + q f_q is the full source at (b, p, q), also
    # for a state whose lambdatilde and Htilde couple to the singular terms
    r = rng()
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    lt = random_low_mode_field(grid, r, scale=0.02)
    H = TracelessSymTensorField(random_low_mode_field(grid, r, scale=0.01),
                                random_low_mode_field(grid, r, scale=0.01))
    p, q, (f1, f2) = solve_rho_eta(seed, 0.01, lt, H)
    assert p != 0.0 and q != 0.0
    g1, g2 = momentum_rhs_f(seed, 0.01, lt, H, SingularTensorParams(seed.b, p, q))
    scale = max(np.max(np.abs(g1.c)), np.max(np.abs(g2.c)))
    assert max(_max_abs_diff(f1, g1), _max_abs_diff(f2, g2)) <= 1e-12 * scale


def test_seed_densities_match_fresh_products(grid):
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, x0=0.2, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    d1u, d2u = cartesian_gradient(u)
    energy = multiply(udot, udot) + multiply(d1u, d1u) + multiply(d2u, d2u)
    fresh = [(seed.energy_density, energy),
             (seed.momentum_density[0], multiply(udot, d1u)),
             (seed.momentum_density[1], multiply(udot, d2u))]
    fresh += list(zip(seed.grad_tau_tilde, cartesian_gradient(tau)))
    for stored, f in fresh:
        assert _max_abs_diff(stored, f) <= 1e-14 * np.max(np.abs(f.c))
    assert seed.epsilon == pytest.approx(integrate(energy), rel=1e-14)
    # the derived values are not constructor arguments
    with pytest.raises(TypeError):
        SeedData(udot, u, tau, 0.1, energy_density=energy)
