import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d.errors import (
    DeltaOutOfRange,
    GridMismatch,
    InvalidResolution,
    UnresolvedSpec,
    UnsupportedOrder,
)
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    build_grid,
    cartesian_gradient,
    chi_profiles,
    evaluate_field,
    integrate,
    multiply,
    radial_l2_weighted,
    read_field_csv,
    sample_analytic,
    weighted_sobolev_norm,
    write_field_csv,
)

from conftest import random_low_mode_field, rng


# ----------------------------------------------------------------------------
# grid construction
# ----------------------------------------------------------------------------

def test_build_grid_nodes():
    g = build_grid(16, 256, 100.0, -0.5)
    assert np.all(np.diff(g.r) > 0)
    assert g.r[0] > 0
    assert g.r[-1] == 100.0
    assert len(g.r) == 256


def test_build_grid_delta_out_of_range():
    with pytest.raises(DeltaOutOfRange):
        build_grid(16, 256, 100.0, 0.5)
    with pytest.raises(DeltaOutOfRange):
        build_grid(16, 256, 100.0, -1.0)


def test_build_grid_resolution():
    with pytest.raises(InvalidResolution):
        build_grid(2, 256, 100.0, -0.5)
    with pytest.raises(InvalidResolution):
        build_grid(16, 8, 100.0, -0.5)


# ----------------------------------------------------------------------------
# analytic sampling
# ----------------------------------------------------------------------------

def test_sample_zero_amplitude(grid):
    f = sample_analytic([GaussianBump(amp=0.0)], grid)
    assert np.all(f.a == 0) and np.all(f.b == 0)


def test_sample_centered_gaussian_radial(grid):
    f = sample_analytic([GaussianBump(amp=1.0, w=1.0)], grid)
    assert np.max(np.abs(f.a[1:])) < 1e-14
    assert np.max(np.abs(f.b)) < 1e-14
    # value 1 at r -> 0
    assert f.a[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_sample_offcenter_integral(grid):
    f = sample_analytic([GaussianBump(amp=1.0, x0=1.5, y0=-0.5, w=1.0)], grid)
    assert integrate(f) == pytest.approx(np.pi, abs=1e-7)


def test_sample_unresolved_bump(grid):
    with pytest.raises(UnresolvedSpec):
        sample_analytic([GaussianBump(amp=1.0, x0=30.0, w=0.5)], grid)


# ----------------------------------------------------------------------------
# gradient
# ----------------------------------------------------------------------------

def test_gradient_gaussian_value(grid):
    f = sample_analytic([GaussianBump(amp=1.0)], grid)
    d1, _ = cartesian_gradient(f)
    val = evaluate_field(d1, [(1.0, 0.0)])[0]
    assert val == pytest.approx(-2.0 * np.exp(-1.0), abs=2e-3)


def test_gradient_x_gaussian_on_axis(grid):
    # f = x e^{-r^2}: d2 f = -2xy e^{-r^2}, zero on the x-axis
    f = ScalarField.from_mode(grid, 1, "cos", grid.r * np.exp(-grid.r**2))
    _, d2 = cartesian_gradient(f)
    vals = evaluate_field(d2, [(0.7, 0.0), (1.5, 0.0), (3.0, 0.0)])
    assert np.max(np.abs(vals)) < 1e-12


def test_mixed_partials_commute(grid):
    # the discrete commutator is O(h^2) with a 1/r-amplified constant, so the
    # check sits away from the coordinate singularity and the defect must
    # shrink at second order under refinement
    def defect(g):
        f = sample_analytic([GaussianBump(amp=1.0, x0=0.5, y0=0.3)], g)
        d1, d2 = cartesian_gradient(f)
        diff = cartesian_gradient(d1)[1] - cartesian_gradient(d2)[0]
        m = np.maximum(np.max(np.abs(diff.a), axis=0), np.max(np.abs(diff.b), axis=0))
        return np.max(m[np.searchsorted(g.r, 0.2):])

    d256 = defect(grid)
    assert d256 < 3e-3
    d512 = defect(build_grid(8, 512, 60.0, -0.5))
    assert d512 < 0.4 * d256


def test_gradient_second_order():
    errs = []
    for n in (128, 256, 512):
        g = build_grid(8, n, 60.0, -0.5)
        f = ScalarField.from_mode(g, 0, "cos", np.exp(-g.r**2))
        d1, _ = cartesian_gradient(f)
        exact = -2.0 * g.r * np.exp(-g.r**2)
        errs.append(np.max(np.abs(d1.a[1, 2:-2] - exact[2:-2])))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


# ----------------------------------------------------------------------------
# multiply
# ----------------------------------------------------------------------------

def test_multiply_product_to_sum(grid):
    prof = np.exp(-grid.r**2)
    f = ScalarField.from_mode(grid, 1, "cos", prof)
    p = multiply(f, f)
    # e^{-2r^2}(1 + cos 2 theta)/2
    assert np.max(np.abs(p.a[0] - 0.5 * prof**2)) < 1e-14
    assert np.max(np.abs(p.a[2] - 0.5 * prof**2)) < 1e-14
    other = p.a[1], p.a[3:], p.b
    assert max(np.max(np.abs(x)) for x in other) < 1e-14


def test_multiply_zero(grid):
    f = random_low_mode_field(grid, rng())
    z = ScalarField.zeros(grid)
    p = multiply(f, z)
    assert np.max(np.abs(p.a)) == 0.0


def test_multiply_matches_fine_grid_oracle(grid):
    r = rng()
    f = random_low_mode_field(grid, r)
    g2 = random_low_mode_field(grid, r)
    p = multiply(f, g2)
    # pointwise check on a 4x finer angular grid
    theta = 2.0 * np.pi * np.arange(4 * grid.M) / (4 * grid.M)

    def on_theta(fld):
        out = np.zeros((grid.N_r, theta.size))
        for k in range(grid.K + 1):
            out += fld.a[k][:, None] * np.cos(k * theta)[None, :]
            if k >= 1:
                out += fld.b[k][:, None] * np.sin(k * theta)[None, :]
        return out

    lhs = on_theta(p)
    rhs = on_theta(f) * on_theta(g2)
    # the product has modes up to 6 <= K = 8: representation is exact
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiply_grid_mismatch(grid, fine_grid):
    f = ScalarField.zeros(grid)
    g2 = ScalarField.zeros(fine_grid)
    with pytest.raises(GridMismatch):
        multiply(f, g2)


# ----------------------------------------------------------------------------
# integrate
# ----------------------------------------------------------------------------

def test_integrate_gaussian(grid):
    f = sample_analytic([GaussianBump(amp=1.0)], grid)
    assert integrate(f) == pytest.approx(np.pi, abs=1e-7)


def test_integrate_pure_mode1_is_zero(grid):
    f = ScalarField.from_mode(grid, 1, "cos", grid.dchi / grid.r)
    assert integrate(f) == 0.0


def test_integrate_odd_node_count_fallback():
    # odd N_r falls back to trapezoid weights; still second-order accurate
    g = build_grid(8, 255, 60.0, -0.5)
    f = sample_analytic([GaussianBump(amp=1.0)], g)
    assert integrate(f) == pytest.approx(np.pi, abs=5e-4)


def test_integrate_cutoff_band(grid):
    # int (chi'/4r) dx = (pi/2) int chi' dr = pi/2
    f = ScalarField.from_mode(grid, 0, "cos", grid.dchi / (4.0 * grid.r))
    assert integrate(f) == pytest.approx(np.pi / 2, abs=3e-4)


# ----------------------------------------------------------------------------
# weighted norms
# ----------------------------------------------------------------------------

def test_norm_zero(grid):
    assert weighted_sobolev_norm(ScalarField.zeros(grid), 2, -0.5) == 0.0


def test_norm_unsupported_order(grid):
    with pytest.raises(UnsupportedOrder):
        weighted_sobolev_norm(ScalarField.zeros(grid), 3, -0.5)


def test_norm_gaussian_oracle(fine_grid):
    # || (1+|x|^2)^{delta/2} e^{-r^2} ||_{L^2} for delta = -1/2, from
    # adaptive radial quadrature of exp(-2r^2)(1+r^2)^{-1/2} 2 pi r
    f = sample_analytic([GaussianBump(amp=1.0)], fine_grid)
    val = weighted_sobolev_norm(f, 0, -0.5)
    assert val == pytest.approx(1.150552247914081, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(d1=st.floats(-0.9, -0.1), d2=st.floats(-0.9, -0.1))
def test_norm_monotone_in_delta(d1, d2):
    g = build_grid(8, 64, 30.0, -0.5)
    f = ScalarField.from_mode(g, 1, "cos", g.r * np.exp(-g.r**2))
    lo, hi = min(d1, d2), max(d1, d2)
    assert weighted_sobolev_norm(f, 0, lo) <= weighted_sobolev_norm(f, 0, hi) + 1e-12


def test_parseval_identity(grid):
    r = rng()
    for _ in range(5):
        f = random_low_mode_field(grid, r, kmax=6)
        lhs = integrate(multiply(f, f))
        w = grid.quad_w * grid.r * (1.0 + grid.r)
        coeff = f.a[0] ** 2 + 0.5 * np.sum(f.a[1:] ** 2 + f.b[1:] ** 2, axis=0)
        rhs = 2.0 * np.pi * np.sum(w * coeff)
        assert lhs >= 0.0
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
        # the weighted L^2 norm takes its angular mean by the same identity
        assert radial_l2_weighted(f, 0.0) ** 2 == pytest.approx(lhs, rel=1e-12)


# ----------------------------------------------------------------------------
# embedding / product estimates on a fixed family
# ----------------------------------------------------------------------------

def _test_family(grid):
    fam = [sample_analytic([GaussianBump(amp=1.0)], grid),
           sample_analytic([GaussianBump(amp=0.7, x0=0.8, y0=-0.4, w=1.3)], grid),
           ScalarField.from_mode(grid, 2, "cos", grid.r**2 * np.exp(-grid.r**2)),
           ScalarField.from_mode(grid, 1, "sin", grid.r / (1.0 + grid.r**2) ** 2),
           ScalarField.from_mode(grid, 0, "cos", 1.0 / (1.0 + grid.r**2))]
    return fam


def test_embedding_constant(grid):
    # sup |f| (1+|x|^2)^{(delta+1)/2} <= C ||f||_{H^2_delta}, one shared C
    delta = grid.delta
    weight = (1.0 + grid.r**2) ** (0.5 * (delta + 1.0))
    for f in _test_family(grid):
        sup = np.max(np.abs(f.to_samples()) * weight[:, None])
        nrm = weighted_sobolev_norm(f, 2, delta)
        assert sup <= 0.6 * nrm  # measured family max 0.36, generous margin


def test_product_estimate(grid):
    # ||fg||_{H0_delta} <= C ||f||_{H1_d1} ||g||_{H1_d2} for delta < d1+d2+1
    d1, d2, delta = -0.5, -0.5, -0.5
    assert delta < d1 + d2 + 1.0
    fam = _test_family(grid)
    for f in fam:
        for g2 in fam:
            lhs = weighted_sobolev_norm(multiply(f, g2), 0, delta)
            rhs = (weighted_sobolev_norm(f, 1, d1)
                   * weighted_sobolev_norm(g2, 1, d2))
            assert lhs <= 0.5 * rhs  # measured family max 0.23


# ----------------------------------------------------------------------------
# cutoff
# ----------------------------------------------------------------------------

def test_chi_support(grid):
    chi, dchi, chiln = chi_profiles(grid)
    r = grid.r
    assert np.all(chi[r <= 1.0] == 0.0)
    assert np.all(chi[r >= 2.0] == 1.0)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    assert np.all(dchi[(r <= 1.0) | (r >= 2.0)] == 0.0)
    assert np.allclose(chiln, chi * np.log(r))


def test_chi_derivative_consistency():
    # exact chi' and chi'' against centered differences of the closed form
    from constraints2d.fields import _chi_with_derivatives

    x = np.linspace(0.9, 2.1, 2001)
    h = x[1] - x[0]
    chi, dchi, d2chi = _chi_with_derivatives(x)
    fd1 = (chi[2:] - chi[:-2]) / (2 * h)
    fd2 = (dchi[2:] - dchi[:-2]) / (2 * h)
    assert np.max(np.abs(fd1 - dchi[1:-1])) < 5e-5
    assert np.max(np.abs(fd2 - d2chi[1:-1])) < 5e-4


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def test_csv_round_trip(grid, tmp_path):
    f = random_low_mode_field(grid, rng(), kmax=grid.K)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    f2 = read_field_csv(path, grid)
    assert np.array_equal(f.a, f2.a)
    assert np.array_equal(f.b, f2.b)
