import csv
import re
from dataclasses import fields as dataclass_fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from constraints2d import fields
from constraints2d.errors import (
    DeltaOutOfRange,
    GridMismatch,
    InvalidResolution,
    UnresolvedSpec,
    UnsupportedOrder,
    ValidationError,
)
from constraints2d.fields import (
    GaussianBump,
    Grid,
    ScalarField,
    angular_modes,
    build_grid,
    cartesian_gradient,
    evaluate_field,
    format_bump,
    integrate,
    l2_weight,
    make_seed,
    multiply,
    parse_bump_line,
    radial_l2_weighted,
    radial_spline,
    read_field_csv,
    sample_analytic,
    weighted_sobolev_norm,
    write_field_csv,
)

from constraints2d.operators import gradient_coefficients, raise_and_lower

from conftest import percent_csv_bytes, random_low_mode_field, rng


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
    # bools and non-real values are typed errors, not a bare TypeError
    for delta in (True, False, "x", "-0.5", None, -0.5j):
        with pytest.raises(DeltaOutOfRange):
            build_grid(16, 256, 100.0, delta)


def test_build_grid_resolution():
    with pytest.raises(InvalidResolution):
        build_grid(2, 256, 100.0, -0.5)
    with pytest.raises(InvalidResolution):
        build_grid(16, 8, 100.0, -0.5)
    # True would build a grid with R_max = 1.0; a string or None would raise
    # a bare TypeError
    # 1e78 and 1.7e308 are finite, but their fourth power overflowed in the
    # cutoff as the grid was built
    for R_max in (True, "100", None, 100.0j, 1e78, 1.7e308):
        with pytest.raises(InvalidResolution, match="R_max must be positive and finite"):
            build_grid(16, 64, R_max, -0.5)
    assert build_grid(16, 64, np.float64(100.0), np.float32(-0.5)).R_max == 100.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_largest_r_max_with_a_finite_fourth_power_builds():
    largest = np.nextafter(2.0**256, 0.0)
    assert np.isfinite(largest**4)
    assert build_grid(16, 64, largest, -0.5).R_max == largest
    with pytest.raises(InvalidResolution, match="R_max must be positive and finite"):
        build_grid(16, 64, np.nextafter(largest, np.inf), -0.5)


@pytest.mark.parametrize("K, N_r", [(16.5, 512), (16, 512.5), (16.0, 512), (True, 512),
                                    (16, True)])
def test_build_grid_rejects_non_integer_resolution(K, N_r):
    # a float K would give the fractional sample count M = 4K, a float N_r a
    # raw TypeError in the node construction; bools are not resolutions
    with pytest.raises(InvalidResolution, match="must be an integer"):
        build_grid(K, N_r, 100.0, -0.5)


def test_build_grid_takes_numpy_integers():
    g = build_grid(np.int64(16), np.int64(64), 100.0, -0.5)
    assert type(g.K) is int and type(g.N_r) is int and g.M == 64


def _built(g):
    """(name, value) of everything a Grid builds, the coupling terms one by one."""
    for f in dataclass_fields(Grid):
        if not f.init:
            value = getattr(g, f.name)
            if f.name == "coupling_terms":
                yield from ((f"coupling_terms[{i}]", v) for i, v in enumerate(value))
            else:
                yield f.name, value


def _assert_same_grid(g, ref):
    for (name, value), (_, expected) in zip(_built(g), _built(ref), strict=True):
        assert type(value) is type(expected) and np.array_equal(value, expected), name
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name


def test_grid_built_in_code_equals_build_grids():
    # Grid(...) used to leave every derived array None: r**2 raised a bare
    # TypeError, and a product with dft_forward a numpy ValueError
    g = Grid(16, 512, 100.0, -0.5)
    assert [f.name for f in dataclass_fields(Grid) if f.init] == ["K", "N_r", "R_max", "delta"]
    _assert_same_grid(g, build_grid(16, 512, 100.0, -0.5))
    assert integrate(ScalarField.from_mode(g, 0, "cos", np.exp(-g.r**2))) == pytest.approx(np.pi)
    with pytest.raises(TypeError):
        Grid(16, 512, 100.0, -0.5, r=g.r)


def test_replace_rebuilds_and_revalidates_a_grid():
    # replace used to keep the old grid's arrays and skip validate_grid
    g = build_grid(16, 512, 100.0, -0.5)
    finer = replace(g, N_r=1024)
    assert finer.N_r == 1024 and len(finer.r) == 1024 and finer.r[-1] == 100.0
    _assert_same_grid(finer, build_grid(16, 1024, 100.0, -0.5))
    with pytest.raises(InvalidResolution, match="K >= 4"):
        replace(g, K=2)
    with pytest.raises(DeltaOutOfRange):
        replace(g, delta=0.5)


def test_grid_plane_row_is_the_plane_quadrature_row(grid):
    # integrate and the log coefficients read the row built with the grid
    assert np.array_equal(grid.plane_row, l2_weight(grid, 0.0))
    assert not grid.plane_row.flags.writeable


@pytest.mark.parametrize("k, kind, error, message", [
    (-1, "cos", InvalidResolution, "mode -1 outside 0..8"),
    (9, "sin", InvalidResolution, "mode 9 outside 0..8"),
    (0, "sin", ValueError, "sin mode 0 does not exist"),
    (1, "tan", ValueError, "kind must be 'cos' or 'sin', got 'tan'"),
])
def test_from_mode_rejects_a_mode_outside_the_grid_and_an_unknown_kind(grid, k, kind, error,
                                                                         message):
    with pytest.raises(error, match=re.escape(message)):
        ScalarField.from_mode(grid, k, kind, grid.r)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("bad", [np.nan, -1j * np.inf])
def test_field_rejects_non_finite_coefficients(grid, order, bad):
    # the check reads the float view of a C-contiguous complex array, and
    # the array itself otherwise
    c = np.zeros((grid.N_r, grid.K + 1), dtype=complex, order=order)
    ScalarField(grid, c.copy(order=order))
    c[3, 2] = bad
    with pytest.raises(ValueError, match="non-finite field coefficients"):
        ScalarField(grid, c)


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


@pytest.mark.parametrize("K, N_r, R_max", [(8, 256, 60.0), (8, 4096, 1e6), (4, 16, 30.0)])
def test_radial_spline_is_scipys_not_a_knot_cubic(K, N_r, R_max):
    # on noise, the hardest data for a spline, and on a smooth field; at
    # random points, at the nodes and below the first node, where evaluate_field
    # and the Green's oracle read the first piece extended
    from scipy.interpolate import CubicSpline

    g = build_grid(K, N_r, R_max, -0.5)
    gen = np.random.default_rng(N_r)
    noise = gen.normal(size=(N_r, K + 1)) + 1j * gen.normal(size=(N_r, K + 1))
    smooth = np.exp(-g.r**2)[:, None] * (np.arange(1, K + 2) * (1.0 + 0.5j))
    s = np.concatenate([gen.uniform(0.0, g.s[-1], 300), g.s, gen.uniform(0.0, g.s[0], 20)])
    for c in (noise, smooth):
        ref = CubicSpline(g.s, c, axis=0)(s)
        got = radial_spline(g, c, s)
        assert got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def _complex_mode_shifts(w, C):
    """Both mode shifts as complex column operations: Dr C and (m/r) C, then
    their difference moved up one column and their sum down one."""
    m = np.arange(w.K + 1 - C.shape[1], w.K + 1)
    DC, MC = w.Dr @ C, C * (w.P[:, None] * m)
    up, dn = np.zeros_like(DC), np.zeros_like(DC)
    up[:, 1:] = DC[:, :-1] - MC[:, :-1]
    dn[:, :-1] = DC[:, 1:] + MC[:, 1:]
    return up, dn


@pytest.mark.parametrize("ncols", ["K+1", "2K", "2K+1"])
def test_mode_shifts_match_complex_column_operations(grid, ncols):
    # half spectra (K+1 columns), the momentum potential (2K+1) and a
    # strided 2K-column slice of it
    w = grid.workspace
    r = rng()
    shape = (grid.N_r, 2 * grid.K + 1)
    Z = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    C = {"K+1": Z[:, grid.K:].copy(), "2K": Z[:, 1:], "2K+1": Z}[ncols]
    up, dn = _complex_mode_shifts(w, C)
    tol = 1e-15 * max(np.max(np.abs(up)), np.max(np.abs(dn)))
    for got, ref in zip(raise_and_lower(w, C), (up, dn)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= tol
    if ncols == "K+1":
        # d1 = (up + dn)/2 and d2 = (up - dn)/2i, with up_0 = conj(dn_0)
        up[:, 0] = np.conj(dn[:, 0])
        d1, d2 = gradient_coefficients(w, C)
        assert np.max(np.abs(d1 - 0.5 * (up + dn))) <= tol
        assert np.max(np.abs(d2 + 0.5j * (up - dn))) <= tol


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


def test_from_samples_owns_only_its_modes(grid):
    # the field holds its own K+1 columns, not a view that keeps a larger
    # array alive
    f = ScalarField.from_samples(grid, random_low_mode_field(grid, rng()).to_samples())
    assert f.c.base is None


@pytest.mark.parametrize("K, N_r", [(4, 16), (16, 512)])
def test_angular_transforms_match_numpy_fft(K, N_r):
    # random spectra and samples; Im c_0 is nonzero and must be ignored, as
    # irfft ignores it
    g = build_grid(K, N_r, 60.0, -0.5)
    r = rng()
    c = r.standard_normal((N_r, K + 1)) + 1j * r.standard_normal((N_r, K + 1))
    assert np.all(c[:, 0].imag != 0.0)
    ref = np.fft.irfft(c, n=g.M, axis=-1, norm="forward")
    assert np.max(np.abs(ScalarField(g, c).to_samples() - ref)) <= 1e-14 * np.max(np.abs(ref))
    samples = r.standard_normal((N_r, g.M))
    ref = np.fft.rfft(samples, axis=-1, norm="forward")[:, :K + 1]
    assert np.max(np.abs(angular_modes(g, samples) - ref)) <= 1e-14 * np.max(np.abs(ref))


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
    chi, dchi, chiln = grid.chi, grid.dchi, grid.chiln
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

def _csv_writer_oracle(f, path):
    """The per-value csv.writer formatting that write_field_csv must match."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        for k in range(f.grid.K + 1):
            wr.writerow([k, "cos"] + [f"{v:.17g}" for v in f.a[k]])
        for k in range(1, f.grid.K + 1):
            wr.writerow([k, "sin"] + [f"{v:.17g}" for v in f.b[k]])


def test_csv_round_trip(grid, tmp_path):
    f = random_low_mode_field(grid, rng(), kmax=grid.K)
    c = f.c.copy()
    c[:3, 1] = [-0.0, 0.0, complex(-0.0, -0.0)]
    c[3:9, 2] = [1e-300, -3.7e-301, 5e-324, 1e300, -2.5e17, 123456789.0]
    c[9, 0] = -0.0
    f = ScalarField(grid, c)
    path, oracle = tmp_path / "field.csv", tmp_path / "oracle.csv"
    write_field_csv(f, path)
    _csv_writer_oracle(f, oracle)
    assert path.read_bytes() == oracle.read_bytes()
    f2 = read_field_csv(path, grid)
    assert np.array_equal(f.a, f2.a)
    assert np.array_equal(f.b, f2.b)


@pytest.mark.parametrize("mode, kind", [(-1, "cos"), (0, "sin"), ("K+1", "cos")])
def test_csv_reader_rejects_rows_outside_the_half_spectrum(grid, tmp_path, mode, kind):
    # a negative mode would index from the end, a sin row at mode 0 would
    # make the mean complex, and mode K+1 does not exist
    k = grid.K + 1 if mode == "K+1" else mode
    path = tmp_path / "field.csv"
    path.write_text(f"{k},{kind}," + ",".join(["1.0"] * grid.N_r) + "\r\n")
    with pytest.raises(ValueError, match=f"no {kind} row at mode {k}"):
        read_field_csv(path, grid)


def _edited_csv(f, path, edit):
    """Write f to path, then duplicate its `1,cos` row after it, drop its
    `2,sin` row, or make the first value of its third line `abc` or drop the
    line's last value."""
    write_field_csv(f, path)
    lines = path.read_text().splitlines(keepends=True)
    if edit == "duplicate":
        lines.insert(2, lines[1])
    elif edit == "drop":
        lines.remove(next(ln for ln in lines if ln.startswith("2,sin,")))
    else:
        cells = lines[2].rstrip("\r\n").split(",")
        cells = cells[:2] + ["abc"] + cells[3:] if edit == "non_numeric" else cells[:-1]
        lines[2] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("edit, message", [
    ("duplicate", "line 3: repeated cos row at mode 1 (first on line 2)"),
    ("drop", "missing its sin row at mode 2"),
    ("non_numeric", "line 3: malformed field CSV row (could not convert string to float: 'abc')"),
    ("short", "line 3: field CSV does not match the grid"),
])
def test_csv_reader_rejects_repeated_and_missing_rows(grid, tmp_path, edit, message):
    # a repeated row used to be added twice, and a missing one read as zero
    path = tmp_path / "field.csv"
    _edited_csv(random_low_mode_field(grid, rng()), path, edit)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_field_csv(path, grid)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_reader_rejects_non_finite_values(grid, tmp_path, value):
    # such a cell used to pass, and the field construction then failed on
    # its non-finite coefficients without naming the line
    path = tmp_path / "field.csv"
    write_field_csv(random_low_mode_field(grid, rng()), path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[5] = value
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="line 3: non-finite value"):
        read_field_csv(path, grid)


_CSV_GRID = build_grid(4, 16, 10.0, -0.5)
_CSV_VALUES = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(re_c=hnp.arrays(float, (_CSV_GRID.N_r, _CSV_GRID.K + 1), elements=_CSV_VALUES),
       im_c=hnp.arrays(float, (_CSV_GRID.N_r, _CSV_GRID.K), elements=_CSV_VALUES))
def test_csv_round_trip_is_bitwise(tmp_path_factory, re_c, im_c):
    # signed zeros and subnormals included; Im c_0 of a real field is +0
    c = np.zeros((_CSV_GRID.N_r, _CSV_GRID.K + 1), dtype=complex)
    c.real, c.imag[:, 1:] = re_c, im_c
    f = ScalarField(_CSV_GRID, c)
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    write_field_csv(f, path)
    assert read_field_csv(path, _CSV_GRID).c.tobytes() == f.c.tobytes()


def _adversarial_values():
    """Doubles at every edge of the %.17g kernel: powers of ten and their
    1- and 2-ulp neighbours, and their multiples 2..9 (some print as one
    digit, "5e-300"), across the exponent range (the fixed/scientific
    switch at 1e-5/1e-4, two/three exponent digits at 1e-99/1e-100), the
    smallest normal, subnormals, signed zeros, values >= 1, dyadic values
    exactly halfway between two 17-digit decimals and their neighbours, and
    random bit patterns."""
    v = [float(f"1e{e}") for e in range(-323, 309)]
    v += [2.2250738585072014e-308, 2.2250738585072009e-308, 5e-324, 1e-310, 4.9406564584124654e-322,
          0.0, 1.0, 1.5, 9.999999999999999e-5, 123456789.0, 2.0 ** 53 + 2, 1e17, 1.7976931348623157e308]
    # x 10^(16-X) = n + 1/2 exactly: x = m / 2^(17-X) with m odd, 10^X <= x < 10^(X+1)
    for X in (-6, -5, -4, -1, 0, 3):
        lo = int(np.ceil(10.0 ** X * 2 ** (17 - X)))
        v += [m / 2.0 ** (17 - X) for m in range(lo | 1, lo + 400, 2)]
    v = np.array(v)
    bits = rng().integers(0, 2 ** 63, 4000, dtype=np.int64).view(np.float64)
    down, up = np.nextafter(v, 0), np.nextafter(v[v < v.max()], np.inf)
    digits = [float(f"{d}e{e}") for e in range(-323, 308) for d in range(2, 10)]
    v = np.concatenate([v, down, np.nextafter(down, 0), up, np.nextafter(up, np.inf), digits, bits])
    v = v[np.isfinite(v)]
    return np.concatenate([v, -v])


def test_csv_is_the_percent_writers_bytes_on_adversarial_values(tmp_path):
    v = _adversarial_values()
    g = build_grid(4, 8192, 10.0, -0.5)
    # rows a_0 = Re c_0, then a_k = 2 Re c_k and b_k = -2 Im c_k for k > 0;
    # a_0 takes the largest doubles, which must not be doubled on the way out
    rows = np.zeros((2 * g.K + 1) * g.N_r)
    rows[:v.size] = v
    rows = rows.reshape(2 * g.K + 1, g.N_r)
    c = np.zeros((g.N_r, g.K + 1), dtype=complex)
    c.real = 0.5 * rows[:g.K + 1].T
    c.real[:, 0] = rows[0]
    c.imag[:, 1:] = -0.5 * rows[g.K + 1:].T
    f = ScalarField(g, c)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    assert path.read_bytes() == percent_csv_bytes(f)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=hnp.arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 6)), elements=_FLOATS))
def test_csv_lines_format_every_finite_double_as_percent(values):
    labels = [f"{i},cos" for i in range(len(values))]
    assert fields._csv_lines(values, labels) == b"".join(
        label.encode() + b"".join(b",%.17g" % x for x in row) + b"\r\n"
        for label, row in zip(labels, values.tolist()))


@pytest.mark.parametrize("kw", [
    {"amp": np.nan}, {"amp": np.inf}, {"amp": 1.0, "x0": np.inf}, {"amp": 1.0, "y0": np.nan},
    {"amp": 1.0, "w": np.inf}, {"amp": 1.0, "w": np.nan}, {"amp": 1.0, "w": 0.0},
    {"amp": 1.0, "w": -1.0},
])
def test_bump_rejects_non_finite_values_and_non_positive_width(kw):
    with pytest.raises(ValidationError, match="bump needs finite amp, x0, y0 and a finite w > 0"):
        GaussianBump(**kw)
    with pytest.raises(ValidationError):
        replace(GaussianBump(amp=1.0), **kw)


@pytest.mark.parametrize("kw", [
    {"amp": True}, {"amp": "1"}, {"amp": 1.0, "x0": False}, {"amp": 1.0, "w": 1j},
])
def test_bump_rejects_bools_and_non_reals(kw):
    # amp=True used to pass as amplitude 1, and "1" or 1j to end in a TypeError
    with pytest.raises(ValidationError, match="bump needs finite amp, x0, y0 and a finite w > 0"):
        GaussianBump(**kw)


@pytest.mark.parametrize("b, amp", [(True, 0.1), ("x", 0.1), (0.0, 1e200)])
def test_seed_rejects_a_non_real_b_and_non_finite_densities(grid, b, amp):
    # b=True used to become 1.0 and "x" a ValueError; the squares of an
    # amplitude of 1e200 overflow, which ended in a RuntimeWarning and a
    # ValueError of ScalarField
    udot = sample_analytic([GaussianBump(amp=amp)], grid)
    with pytest.raises(ValidationError, match="b must be a finite real|seed densities"):
        make_seed(udot, udot, ScalarField.zeros(grid), b=b)


def test_seed_data_too_large_are_validation_errors(grid):
    # each check of the seed names what overflowed; they used to end in a
    # RuntimeWarning or a ValueError of ScalarField
    with pytest.raises(ValidationError, match="the summed bump samples are not finite"):
        sample_analytic([GaussianBump(amp=1e308)] * 2, grid)
    zero = ScalarField.zeros(grid)
    cases = [
        ((zero, sample_analytic([GaussianBump(amp=1e308)], grid), zero), "grad u is"),
        ((sample_analytic([GaussianBump(amp=1e154, w=10.0)], grid), zero, zero), "epsilon is"),
        ((zero, zero, sample_analytic([GaussianBump(amp=1e200)], grid)), "tau_tilde\\^2 / 4"),
    ]
    for (udot, u, tau), what in cases:
        with pytest.raises(ValidationError, match=f"{what}.* not finite: the seed data are too"):
            make_seed(udot, u, tau, b=0.0)


def test_bump_line_round_trip():
    bump = GaussianBump(amp=-0.25, x0=0.5, y0=-1.0 / 3.0, w=1.75)
    assert parse_bump_line(format_bump(bump)) == bump
    assert parse_bump_line("gauss amp=0.1") == GaussianBump(amp=0.1)
    with pytest.raises(ValueError, match="unknown bump parameter 'r0'"):
        parse_bump_line("gauss amp=0.1 r0=1.0")
    with pytest.raises(ValueError, match="bump needs amp=<value>"):
        parse_bump_line("gauss x0=1.0")
