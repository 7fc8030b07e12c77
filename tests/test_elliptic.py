import gc
import weakref

import numpy as np
import pytest

from constraints2d import operators
from constraints2d.elliptic import greens_convolution_oracle, poisson_solve
from constraints2d.errors import NonDecayingRHS
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    build_grid,
    evaluate_field,
    sample_analytic,
)
from constraints2d.picard import _interior_h0_norm

from conftest import random_low_mode_field, rng


def zero_mass_rhs(g):
    return ScalarField.from_mode(g, 0, "cos", (4 * g.r**2 - 4) * np.exp(-g.r**2))


# ----------------------------------------------------------------------------
# analytic solutions
# ----------------------------------------------------------------------------

def test_zero_mass_gaussian(grid):
    sol = poisson_solve(zero_mass_rhs(grid))
    # Delta e^{-r^2} = (4r^2-4) e^{-r^2}; int f = 0
    assert np.max(np.abs(sol.v.a[0] - np.exp(-grid.r**2))) < 2e-4
    # c_log is the quadrature mass plus the discrete flux defect, O(h^2)
    assert abs(sol.c_log) < 2.0 * grid.h**2


def test_gaussian_log_coefficient(grid):
    sol = poisson_solve(sample_analytic([GaussianBump(amp=1.0)], grid))
    assert sol.c_log == pytest.approx(0.5, abs=2.0 * grid.h**2)
    # decaying part matches (1/4) E1(r^2) where chi = 1
    from scipy.special import exp1

    mask = grid.r >= 2.5
    assert np.max(np.abs(sol.v.a[0][mask] - 0.25 * exp1(grid.r[mask] ** 2))) < 2e-4


def test_mode2_manufactured(grid):
    prof = (4 * grid.r**4 - 12 * grid.r**2) * np.exp(-grid.r**2)
    sol = poisson_solve(ScalarField.from_mode(grid, 2, "cos", prof))
    assert sol.c_log == 0.0  # pure mode 2 has no plane integral
    assert np.max(np.abs(sol.v.a[2] - grid.r**2 * np.exp(-grid.r**2))) < 2e-4


def test_convergence_order():
    errs = []
    for n in (256, 512, 1024):
        g = build_grid(8, n, 60.0, -0.5)
        sol = poisson_solve(zero_mass_rhs(g))
        errs.append(np.max(np.abs(sol.v.a[0] - np.exp(-g.r**2))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


# ----------------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------------

def test_linearity(grid):
    r = rng()
    f = random_low_mode_field(grid, r)
    g2 = random_low_mode_field(grid, r)
    s1, s2 = poisson_solve(f), poisson_solve(g2)
    s12 = poisson_solve(2.0 * f + 3.0 * g2)
    assert abs(s12.c_log - 2 * s1.c_log - 3 * s2.c_log) < 1e-10
    da = s12.v.a - 2 * s1.v.a - 3 * s2.v.a
    db = s12.v.b - 2 * s1.v.b - 3 * s2.v.b
    assert max(np.max(np.abs(da)), np.max(np.abs(db))) < 1e-10


def test_discrete_residual(grid):
    f = random_low_mode_field(grid, rng())
    sol = poisson_solve(f)
    res = sol.reconstruct_laplacian() - f
    nrm = _interior_h0_norm(res, grid.delta + 2.0)
    assert nrm <= 1e-8 * max(1.0, _interior_h0_norm(f, grid.delta + 2.0))


def test_tail_decays(grid):
    sol = poisson_solve(sample_analytic([GaussianBump(amp=1.0)], grid))
    i_half = np.searchsorted(grid.r, 0.5 * grid.R_max)
    assert abs(sol.v.a[0, -1]) <= abs(sol.v.a[0, i_half]) + 1e-12


def test_workspace_lives_exactly_as_long_as_its_grid():
    g = build_grid(8, 64, 30.0, -0.5)
    poisson_solve(zero_mass_rhs(g))  # builds the workspace and its factorizations
    grid_ref = weakref.ref(g)
    ws_ref = weakref.ref(operators.workspace(g))
    del g
    gc.collect()
    assert grid_ref() is None
    assert ws_ref() is None


def test_non_decaying_rhs_rejected(grid):
    f = ScalarField.from_mode(grid, 0, "cos", 1.0 / (1.0 + grid.r))
    with pytest.raises(NonDecayingRHS):
        poisson_solve(f)


# ----------------------------------------------------------------------------
# Green's-function oracle
# ----------------------------------------------------------------------------

def test_oracle_zero(grid):
    z = ScalarField.zeros(grid)
    assert greens_convolution_oracle(z, [(3.0, 1.0), (10.0, 0.0)]) == [0.0, 0.0]


def test_oracle_far_field(grid):
    f = sample_analytic([GaussianBump(amp=1.0)], grid)
    u40 = greens_convolution_oracle(f, [(40.0, 0.0)])[0]
    assert u40 == pytest.approx(0.5 * np.log(40.0), abs=1e-3)


def test_oracle_known_interior_value(grid):
    # Delta e^{-r^2} source: potential at (1,0) is e^{-1}
    u = greens_convolution_oracle(zero_mass_rhs(grid), [(1.0, 0.0)])[0]
    assert u == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_oracle_agrees_with_solver(grid):
    f = zero_mass_rhs(grid)
    sol = poisson_solve(f)
    r = rng()
    pts = [(float(rr * np.cos(t)), float(rr * np.sin(t)))
           for rr, t in zip(r.uniform(1.0, 8.0, 10), r.uniform(0, 2 * np.pi, 10))]
    u_solver = evaluate_field(sol.v, pts) + sol.c_log * np.interp(
        np.log1p(np.hypot(*np.array(pts).T)), grid.s, grid.chiln)
    u_oracle = np.array(greens_convolution_oracle(f, pts))
    # discretization error of the solve at this grid is ~9e-5
    assert np.max(np.abs(u_solver - u_oracle)) < 9e-4
