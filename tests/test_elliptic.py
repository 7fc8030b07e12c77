import gc
import weakref

import numpy as np
import pytest

from constraints2d import operators
from constraints2d.elliptic import greens_convolution_oracle, poisson_solve
from constraints2d.errors import NonDecayingRHS, SingularSystem
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    build_grid,
    evaluate_field,
    integrate,
    radial_l2_weighted,
    sample_analytic,
)
from constraints2d.momentum import div_constraint_solve, log_coefficient
from constraints2d.operators import zero_boundary_rows

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
    nrm = radial_l2_weighted(zero_boundary_rows(res), grid.delta + 2.0)
    assert nrm <= 1e-8 * max(1.0, radial_l2_weighted(zero_boundary_rows(f), grid.delta + 2.0))


def test_tail_decays(grid):
    sol = poisson_solve(sample_analytic([GaussianBump(amp=1.0)], grid))
    i_half = np.searchsorted(grid.r, 0.5 * grid.R_max)
    assert abs(sol.v.a[0, -1]) <= abs(sol.v.a[0, i_half]) + 1e-12


def test_workspace_lives_exactly_as_long_as_its_grid():
    # with the cyclic collector off only reference counting frees them, which
    # it can only if the workspace holds no reference back to its grid
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = build_grid(8, 64, 30.0, -0.5)
        poisson_solve(zero_mass_rhs(g))  # builds the workspace and its factorizations
        grid_ref = weakref.ref(g)
        ws_ref = weakref.ref(g.workspace)
        del g
        assert grid_ref() is None
        assert ws_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_one_factorization_per_family_and_one_solve_call_per_solve(monkeypatch):
    # counted the way the benchmark's tracer counts: every factorization goes
    # through operators.splu, every solve through the object it returns
    counts = {"splu": 0, "solve": 0}
    splu = operators.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counts["solve"] += 1
            return self.lu.solve(rhs)

    def counted_splu(*args, **kwargs):
        counts["splu"] += 1
        return Counted(splu(*args, **kwargs))
    monkeypatch.setattr(operators, "splu", counted_splu)

    g = build_grid(8, 64, 30.0, -0.5)
    f = random_low_mode_field(g, rng(), kmax=g.K)
    h = random_low_mode_field(g, rng(), kmax=g.K, scale=0.5)
    poisson_solve(f)
    div_constraint_solve(f, h)
    assert counts["splu"] == 2
    for solve in (lambda: poisson_solve(h), lambda: div_constraint_solve(h, f)):
        before = counts["solve"]
        solve()
        assert counts["solve"] == before + 1
    assert counts["splu"] == 2


def _poisson_profiles(f):
    """(solved profiles, their modes, mode 0's source) of a Poisson solve."""
    g = f.grid
    sol = poisson_solve(f)
    c = integrate(f) / (2.0 * np.pi)
    return sol.v.c, np.arange(g.K + 1), f.c[:, 0] - c * g.lap_chiln


def _momentum_profiles(f, h, monkeypatch):
    """(solved potential profiles W_m, m = -K..K-1, their modes, mode 0's
    source) of a momentum potential solve, caught where W enters
    raise_and_lower."""
    g = f.grid
    caught = []
    raise_and_lower = operators.raise_and_lower

    def spy(w, W):
        caught.append(W.copy())
        return raise_and_lower(w, W)
    monkeypatch.setattr(operators, "raise_and_lower", spy)
    div_constraint_solve(f, h)
    (W,) = caught
    Z = operators.full_spectrum(f, h)
    return W[:, :-1], np.arange(-g.K, g.K), Z[:, g.K] - log_coefficient(f, h) * g.lap_chiln


@pytest.mark.parametrize("solver", ["poisson_solve", "div_constraint_solve"])
def test_every_mode_satisfies_its_own_boundary_rows(grid, monkeypatch, solver):
    # each mode's end rows, restated from the third-order one-sided d/dr:
    # regularity v' - (|k|/r) v = 0 at r_1 ((r_1/2) f(r_1) for k = 0), and
    # v(R_max) = 0 for k = 0, v' + (|k|/r) v = 0 at R_max otherwise
    r = rng()
    f = random_low_mode_field(grid, r, kmax=grid.K)
    h = random_low_mode_field(grid, r, kmax=grid.K)
    if solver == "poisson_solve":
        V, modes, f0 = _poisson_profiles(f)
    else:
        V, modes, f0 = _momentum_profiles(f, h, monkeypatch)
    r1, R = grid.r[0], grid.R_max
    d_in = np.array([-11.0, 18.0, -9.0, 2.0]) / (6.0 * grid.h * (1.0 + r1))
    d_out = np.array([-2.0, 9.0, -18.0, 11.0]) / (6.0 * grid.h * (1.0 + grid.r[-1]))

    def check(terms, target=0.0):
        scale = np.sum(np.abs(terms)) + abs(target)
        assert scale > 0.0
        assert abs(np.sum(terms) - target) <= 1e-12 * scale

    for j, k in enumerate(np.abs(modes)):
        v = V[:, j]
        inner = np.append(d_in * v[:4], -k / r1 * v[0])
        if k == 0:
            check(inner, 0.5 * r1 * f0[0])
            assert abs(v[-1]) <= 1e-12 * np.max(np.abs(v))
        else:
            check(inner)
            check(np.append(d_out * v[-4:], k / R * v[-1]))


def test_non_decaying_rhs_rejected(grid):
    f = ScalarField.from_mode(grid, 0, "cos", 1.0 / (1.0 + grid.r))
    with pytest.raises(NonDecayingRHS):
        poisson_solve(f)


def test_too_coarse_a_grid_fails_the_log_profile_flux_check():
    # on 32 nodes out to R_max = 30 the cutoff band is too coarse for the
    # anchored mode-0 solve of Delta(chi ln r): its far flux is about 2, not 1
    g = build_grid(8, 32, 30.0, -0.5)
    with pytest.raises(SingularSystem, match="log-profile flux 2.0[0-9]* far from 1"):
        poisson_solve(ScalarField.from_mode(g, 0, "cos", np.exp(-g.r**2)))


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
