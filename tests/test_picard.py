import numpy as np
import pytest

from constraints2d.elliptic import laplacian
from constraints2d.errors import EpsilonTooLarge, NoConvergence
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    TracelessSymTensorField,
    make_seed,
    sample_analytic,
)
from constraints2d.picard import (
    IterState,
    SolverOptions,
    _interior_h0_norm,
    _state_diff_norm,
    combined_norm,
    picard_step,
    residuals,
    solve_constraints,
)


def test_one_source_assembly_per_step(small_seed, monkeypatch):
    # one momentum source per Picard step, and no gradient of the seed's u
    # or tau_tilde inside the solve (the seed holds its densities)
    from constraints2d import elliptic, fields, lichnerowicz, momentum, operators, picard

    calls = {"momentum_rhs_f": 0, "picard_step": 0}
    seed_gradients = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(momentum, "momentum_rhs_f")
    counted(picard, "picard_step")
    gradient = fields.cartesian_gradient

    def watched_gradient(f):
        if f is small_seed.u or f is small_seed.tau_tilde:
            seed_gradients.append(f)
        return gradient(f)
    for module in (elliptic, fields, lichnerowicz, momentum, operators, picard):
        if getattr(module, "cartesian_gradient", None) is gradient:
            monkeypatch.setattr(module, "cartesian_gradient", watched_gradient)

    bundle = picard.solve_constraints(small_seed)
    assert calls["momentum_rhs_f"] == calls["picard_step"] == bundle.iterations
    assert seed_gradients == []


def test_zero_seed(solver_grid):
    z = ScalarField.zeros(solver_grid)
    seed = make_seed(z, z, z, b=0.0)
    bundle = solve_constraints(seed)
    assert bundle.iterations == 1
    assert bundle.alpha == 0.0 and bundle.rho == 0.0
    assert bundle.residuals.momentum_residual_norm == 0.0
    assert bundle.residuals.hamiltonian_residual_norm == 0.0


def test_small_seed_converges(small_seed, small_bundle):
    b = small_bundle
    assert b.iterations <= 20
    assert all(r < 0.5 for r in b.contraction_ratios)
    assert b.residuals.momentum_residual_norm <= 1e-8 * max(1.0, small_seed.epsilon)
    assert b.residuals.hamiltonian_residual_norm <= 1e-8 * max(1.0, small_seed.epsilon)


def test_first_step_alpha(solver_grid):
    # from the zero state, alpha' = (1/4pi) int (udot^2 + |grad u|^2) exactly
    # up to the flux-matching defect (no other source survives)
    g = solver_grid
    udot = sample_analytic([GaussianBump(amp=0.1)], g)
    u = sample_analytic([GaussianBump(amp=0.1, x0=0.5)], g)
    z = ScalarField.zeros(g)
    seed = make_seed(udot, u, z, b=0.0)
    state, p, q = picard_step(IterState.zero(g), seed)
    assert state.alpha > 0.0
    assert state.alpha == pytest.approx(seed.epsilon / (4.0 * np.pi), rel=2e-3)


def test_uniqueness_from_perturbed_start(solver_grid, small_seed, small_bundle):
    g = solver_grid
    pert = IterState(0.01,
                     0.01 * sample_analytic([GaussianBump(amp=1.0, w=1.5)], g),
                     TracelessSymTensorField.zeros(g))
    state = pert
    for _ in range(small_bundle.iterations + 25):
        state, p, q = picard_step(state, small_seed)
    assert abs(state.alpha - small_bundle.alpha) < 1e-8
    assert abs(p - small_bundle.p) < 1e-8
    assert abs(q - small_bundle.q) < 1e-8


def test_contraction_of_nearby_states(solver_grid, small_seed):
    g = solver_grid
    s0 = IterState.zero(g)
    delta = IterState(0.005,
                      0.005 * sample_analytic([GaussianBump(amp=1.0)], g),
                      TracelessSymTensorField.zeros(g))
    s1 = IterState(s0.alpha + delta.alpha,
                   s0.lambda_tilde + delta.lambda_tilde,
                   s0.H_tilde + delta.H_tilde)
    f0, _, _ = picard_step(s0, small_seed)
    f1, _, _ = picard_step(s1, small_seed)
    num = _state_diff_norm(f1, f0)
    den = _state_diff_norm(s1, s0)
    assert num <= 0.5 * den


def test_quadratic_smallness(solver_grid):
    g = solver_grid
    vals = {}
    for a in (0.1, 0.05):
        udot = sample_analytic([GaussianBump(amp=a)], g)
        u = sample_analytic([GaussianBump(amp=a, x0=0.5, y0=0.2)], g)
        seed = make_seed(udot, u, ScalarField.zeros(g), b=0.0)
        bundle = solve_constraints(seed)
        st = IterState(bundle.alpha, bundle.lambda_tilde, bundle.H_tilde)
        vals[a] = combined_norm(st)
    ratio = vals[0.1] / vals[0.05]
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_remainder_order(solver_grid):
    # |alpha(a) - c0 a^2| / a^4 stays bounded as a halves
    g = solver_grid
    rem = {}
    for a in (0.2, 0.1):
        udot = sample_analytic([GaussianBump(amp=a)], g)
        u = sample_analytic([GaussianBump(amp=a, x0=0.5, y0=0.2)], g)
        seed = make_seed(udot, u, ScalarField.zeros(g), b=0.0)
        c0 = seed.epsilon / (4.0 * np.pi * a**2)
        bundle = solve_constraints(seed)
        rem[a] = abs(bundle.alpha - c0 * a**2) / a**4
    assert rem[0.1] <= 2.0 * rem[0.2] + 1e-6


def test_epsilon_guard(solver_grid):
    g = solver_grid
    udot = sample_analytic([GaussianBump(amp=3.0)], g)
    z = ScalarField.zeros(g)
    seed = make_seed(udot, z, z, b=0.0)
    assert seed.epsilon > 0.5
    with pytest.raises(EpsilonTooLarge):
        solve_constraints(seed)


def test_no_convergence_max_iter(solver_grid, small_seed):
    with pytest.raises(NoConvergence):
        solve_constraints(small_seed, SolverOptions(max_iter=2, tol_fixed_point=1e-14))


def test_bundle_scalars_converge_under_refinement():
    # the fixed-point scalars approach grid-independent values as N_r doubles
    from constraints2d.fields import build_grid

    vals = {}
    for n in (128, 256, 512):
        g = build_grid(12, n, 100.0, -0.5)
        udot = sample_analytic([GaussianBump(amp=0.1)], g)
        u = sample_analytic([GaussianBump(amp=0.1, x0=0.5, y0=0.2)], g)
        seed = make_seed(udot, u, ScalarField.zeros(g), b=0.0)
        bundle = solve_constraints(seed)
        vals[n] = (bundle.alpha, bundle.p, bundle.q)
    d_coarse = max(abs(a - b) for a, b in zip(vals[128], vals[256]))
    d_fine = max(abs(a - b) for a, b in zip(vals[256], vals[512]))
    assert d_fine < 0.5 * d_coarse
    assert d_fine < 1e-5


def test_residuals_zero_bundle(solver_grid):
    z = ScalarField.zeros(solver_grid)
    seed = make_seed(z, z, z, b=0.0)
    bundle = solve_constraints(seed)
    rep = residuals(bundle, seed)
    assert rep.pointwise_max_momentum == 0.0
    assert rep.pointwise_max_hamiltonian == 0.0


def test_residual_linear_response(solver_grid, small_seed, small_bundle):
    # perturbing lambdatilde by delta changes the Hamiltonian residual field
    # by exactly the discrete Laplacian of delta
    from dataclasses import replace

    g = solver_grid
    delta = 1e-3 * sample_analytic([GaussianBump(amp=1.0)], g)
    pert = replace(small_bundle, lambda_tilde=small_bundle.lambda_tilde + delta,
                   residuals=None)
    rep0 = residuals(small_bundle, small_seed)
    rep1 = residuals(pert, small_seed)
    expected = _interior_h0_norm(laplacian(delta), g.delta + 2.0)
    # rep0's hamiltonian residual is ~1e-13, so the perturbed norm must equal
    # the norm of Delta(delta) almost exactly
    assert rep1.hamiltonian_residual_norm == pytest.approx(expected, rel=1e-6)
    assert rep0.hamiltonian_residual_norm < 1e-10
