import numpy as np
import pytest

from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    TracelessSymTensorField,
    integrate,
    make_seed,
    multiply,
    sample_analytic,
)
from constraints2d.elliptic import _check_tail
from constraints2d.lichnerowicz import hamiltonian_rhs, solve_lambda
from constraints2d.momentum import SingularTensorParams, state_samples

from conftest import rng


def empty_seed(g):
    z = ScalarField.zeros(g)
    return make_seed(z, z, z, b=0.0)


def rhs_at(seed, H, params):
    return hamiltonian_rhs(seed, state_samples(seed, H), params)


def test_rhs_everything_zero(grid):
    Z = TracelessSymTensorField.zeros(grid)
    rhs = rhs_at(empty_seed(grid), Z, SingularTensorParams(0, 0, 0))
    assert np.max(np.abs(rhs.a)) == 0.0


def test_rhs_singular_only_cancels(grid):
    # any (b, p, q) with all tildes and data zero: the right side vanishes
    Z = TracelessSymTensorField.zeros(grid)
    r = rng()
    for _ in range(5):
        b, p, q = r.normal(size=3)
        rhs = rhs_at(empty_seed(grid), Z, SingularTensorParams(b, p, q))
        m = max(np.max(np.abs(rhs.a)), np.max(np.abs(rhs.b)))
        assert m <= 1e-13 * max(1.0, b * b + p * p + q * q)


def test_rhs_udot_only(grid):
    Z = TracelessSymTensorField.zeros(grid)
    udot = sample_analytic([GaussianBump(amp=0.5, x0=0.3)], grid)
    zf = ScalarField.zeros(grid)
    seed = make_seed(udot, zf, zf, b=0.0)
    rhs = rhs_at(seed, Z, SingularTensorParams(0, 0, 0))
    expected = -0.5 * multiply(udot, udot)
    diff = rhs - expected
    assert max(np.max(np.abs(diff.a)), np.max(np.abs(diff.b))) < 1e-15


def test_rhs_tail_check(grid):
    # the Poisson solve's tail test accepts the assembled source
    Z = TracelessSymTensorField.zeros(grid)
    udot = sample_analytic([GaussianBump(amp=0.5)], grid)
    zf = ScalarField.zeros(grid)
    seed = make_seed(udot, zf, zf, b=0.0)
    _check_tail(rhs_at(seed, Z, SingularTensorParams(0, 0, 0)))


def test_solve_lambda_zero(grid):
    alpha, lt = solve_lambda(ScalarField.zeros(grid))
    assert alpha == 0.0
    assert np.max(np.abs(lt.a)) == 0.0


def test_solve_lambda_gaussian(grid):
    rhs = -1.0 * sample_analytic([GaussianBump(amp=1.0)], grid)
    alpha, _ = solve_lambda(rhs)
    # alpha' = -c_log = (1/2pi) * pi = 1/2
    assert alpha == pytest.approx(0.5, abs=2.0 * grid.h**2)


def test_solve_lambda_sign_and_leading_order(grid):
    # small Gaussian udot only, zero state: alpha' = (1/4 pi) int udot^2
    # exactly at the first step (every other source term vanishes)
    Z = TracelessSymTensorField.zeros(grid)
    udot = sample_analytic([GaussianBump(amp=0.2)], grid)
    zf = ScalarField.zeros(grid)
    seed = make_seed(udot, zf, zf, b=0.0)
    rhs = rhs_at(seed, Z, SingularTensorParams(0, 0, 0))
    alpha, lt = solve_lambda(rhs)
    expected = integrate(multiply(udot, udot)) / (4.0 * np.pi)
    assert alpha > 0.0
    # alpha' differs from the pure quadrature value by the O(h^2) discrete
    # flux matching of the log extraction
    assert alpha == pytest.approx(expected, rel=1e-3)


def test_lambda_tilde_tail_consistent(grid):
    # tail of the decaying part consistent with H^2_delta membership:
    # |mode 0 at R| <= |at R/2| (1/2)^{delta+1} (1 + 0.3)
    Z = TracelessSymTensorField.zeros(grid)
    udot = sample_analytic([GaussianBump(amp=0.2)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, w=2.0)], grid)
    zf = ScalarField.zeros(grid)
    seed = make_seed(udot, zf, tau, b=0.05)
    rhs = rhs_at(seed, Z, SingularTensorParams(seed.b, 0.02, 0.0))
    _, lt = solve_lambda(rhs)
    i_half = np.searchsorted(grid.r, 0.5 * grid.R_max)
    lhs = abs(lt.a[0, -1])
    rhs_bound = abs(lt.a[0, i_half]) * 0.5 ** (grid.delta + 1.0) * 1.3
    assert lhs <= rhs_bound + 1e-14
