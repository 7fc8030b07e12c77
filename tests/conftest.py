import numpy as np
import pytest

from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    build_grid,
    make_seed,
    sample_analytic,
)


@pytest.fixture(scope="session")
def grid():
    """Workhorse grid for operator-level tests."""
    return build_grid(8, 256, 60.0, -0.5)


@pytest.fixture(scope="session")
def fine_grid():
    return build_grid(8, 512, 60.0, -0.5)


@pytest.fixture(scope="session")
def solver_grid():
    """Grid for end-to-end fixed-point runs (K large enough for rich data)."""
    return build_grid(12, 256, 100.0, -0.5)


@pytest.fixture(scope="session")
def small_seed(solver_grid):
    """Off-center wave data small enough for firm contraction."""
    g = solver_grid
    udot = sample_analytic([GaussianBump(amp=0.15)], g)
    u = sample_analytic([GaussianBump(amp=0.15, x0=0.6, y0=0.2)], g)
    tau = sample_analytic([GaussianBump(amp=0.03, w=2.0)], g)
    return make_seed(udot, u, tau, b=0.04)


@pytest.fixture(scope="session")
def small_bundle(small_seed):
    from constraints2d.picard import solve_constraints

    return solve_constraints(small_seed)


def rng():
    return np.random.default_rng(20240810)


def random_low_mode_field(grid, rng, kmax=3, scale=1.0) -> ScalarField:
    """Smooth random field: a few low modes with regular radial profiles."""
    f = ScalarField.zeros(grid)
    r = grid.r
    for k in range(0, kmax + 1):
        amp = scale * rng.normal()
        f = f + ScalarField.from_mode(grid, k, "cos", amp * r**min(k, 6) * np.exp(-0.5 * r**2))
        if k >= 1:
            amp = scale * rng.normal()
            f = f + ScalarField.from_mode(grid, k, "sin", amp * r**min(k, 6) * np.exp(-0.5 * r**2))
    return f


def percent_csv_bytes(f: ScalarField) -> bytes:
    """The bytes of a field CSV as the per-row `%` writer formats them, one
    `%.17g` per value: the reference for fields.write_field_csv."""
    coeffs = {"cos": f.a.tolist(), "sin": f.b.tolist()}
    line = "%d,%s" + ",%.17g" * f.grid.N_r + "\r\n"
    rows = [(k, "cos") for k in range(f.grid.K + 1)] + [(k, "sin") for k in range(1, f.grid.K + 1)]
    return "".join(line % (k, kind, *coeffs[kind][k]) for k, kind in rows).encode()
