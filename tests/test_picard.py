from pathlib import Path

import numpy as np
import pytest

from constraints2d import cli
from constraints2d.elliptic import laplacian
from constraints2d.errors import (
    DivergenceDetected,
    EpsilonTooLarge,
    NoConvergence,
    ValidationError,
)
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    TracelessSymTensorField,
    build_grid,
    make_seed,
    radial_l2_weighted,
    sample_analytic,
    weighted_sobolev_norm,
)
from constraints2d.operators import zero_boundary_rows
from constraints2d.picard import (
    IterState,
    SolverOptions,
    _step_norm,
    combined_norm,
    picard_step,
    residuals,
    solve_constraints,
)

from conftest import random_low_mode_field, rng, run_python

DEMO_CFG = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"


@pytest.fixture(scope="module")
def demo_seed():
    cfg = cli.parse_config(DEMO_CFG.read_text())
    return cli.config_seed(cfg, cli.config_grid(cfg))


def sobolev_norm(state: IterState) -> float:
    """The combined norm from the field-level Sobolev norms (the oracle)."""
    g = state.lambda_tilde.grid
    return (abs(state.alpha) + weighted_sobolev_norm(state.lambda_tilde, 2, g.delta)
            + weighted_sobolev_norm(state.H_tilde.h11, 1, g.delta + 1.0)
            + weighted_sobolev_norm(state.H_tilde.h12, 1, g.delta + 1.0))


def test_one_source_assembly_per_step(small_seed, monkeypatch):
    # one momentum source per Picard step, and no gradient of the seed's u
    # or tau_tilde inside the solve (the seed holds its densities)
    from constraints2d import elliptic, fields, lichnerowicz, momentum, operators, picard

    calls = {"_state_source": 0, "picard_step": 0}
    seed_gradients = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(momentum, "_state_source")
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
    assert calls["_state_source"] == calls["picard_step"] == bundle.iterations
    assert seed_gradients == []


def _counted(original, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    return wrapper


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace the function original under each name a solver module holds
    it by."""
    import sys

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("constraints2d"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def _count_transforms(monkeypatch, counts):
    """Count every angular transform in counts["transforms"]: the inverse
    ScalarField.to_samples and the forward angular_modes, under each name a
    solver module holds it by."""
    from constraints2d import fields

    monkeypatch.setattr(ScalarField, "to_samples",
                        _counted(ScalarField.to_samples, counts, "transforms"))
    _patch_everywhere(monkeypatch, fields.angular_modes,
                      _counted(fields.angular_modes, counts, "transforms"))


def test_picard_step_transform_budget(small_seed, small_bundle, monkeypatch):
    # on a warm grid one step samples h11, h12 and grad lambdatilde once for
    # both sources (4; tautilde's samples are the seed's) and transforms each
    # output once: the two momentum source components and the Hamiltonian
    # source; the corrections' closed-form sources are written as modes and
    # need none
    from constraints2d import momentum

    counts = {"transforms": 0, "corrections": 0}
    _count_transforms(monkeypatch, counts)
    for name in ("correction_h2", "correction_h3"):
        monkeypatch.setattr(momentum, name, _counted(getattr(momentum, name), counts, "corrections"))
    state = IterState(small_bundle.alpha, small_bundle.lambda_tilde, small_bundle.H_tilde)
    picard_step(state, small_seed)
    assert 0 < counts["transforms"] <= 7
    assert counts["corrections"] == 0


def _coupled_state(grid):
    """A seed with b, tau_tilde and wave data, and a random non-converged
    state that couples to every singular term."""
    r = rng()
    udot = sample_analytic([GaussianBump(amp=0.3)], grid)
    u = sample_analytic([GaussianBump(amp=0.3, x0=0.5, y0=-0.3)], grid)
    tau = sample_analytic([GaussianBump(amp=0.05, w=1.5)], grid)
    seed = make_seed(udot, u, tau, b=0.1)
    state = IterState(0.01, random_low_mode_field(grid, r, scale=0.02),
                      TracelessSymTensorField(random_low_mode_field(grid, r, scale=0.01),
                                              random_low_mode_field(grid, r, scale=0.01)))
    return seed, state


def _rel_diff(f, g):
    return float(np.max(np.abs(f.c - g.c)) / np.max(np.abs(g.c)))


def test_picard_step_matches_the_separate_assembly(grid):
    # the separate composition: each source transforms the state afresh, and
    # the corrections' sources are fields added to the generic momentum
    # source (momentum_rhs_f) before the solve
    from constraints2d.lichnerowicz import solve_lambda
    from constraints2d.momentum import (
        SingularTensorParams,
        _complex_pair,
        _correction_modes,
        div_constraint_solve,
        momentum_rhs_f,
        singular_factors,
        solve_rho_eta,
        state_samples,
    )
    from constraints2d.operators import gradient_coefficients

    seed, state = _coupled_state(grid)
    p, q, _ = solve_rho_eta(seed, state.alpha,
                            gradient_coefficients(grid.workspace, state.lambda_tilde.c),
                            state_samples(seed, state.H_tilde))
    assert p != 0.0 and q != 0.0
    params = SingularTensorParams(seed.b, p, q)
    cr, u11, u12, ut = singular_factors(params, grid)
    T, A, B = (f.to_samples() for f in (seed.tau_tilde, state.H_tilde.h11, state.H_tilde.h12))
    S = cr * (0.5 * ut * T - 2.0 * (u11 * A + u12 * B)) - (A * A + B * B) + 0.25 * T * T
    alpha, lt = solve_lambda(ScalarField.from_samples(grid, S) - 0.5 * seed.energy_density)
    f1, f2 = momentum_rhs_f(seed, state.alpha, state.lambda_tilde, state.H_tilde, params)
    s1, s2 = _complex_pair(grid, _correction_modes(grid, seed.b, p, q))
    H = div_constraint_solve(f1 + s1, f2 + s2)[2]

    nxt, p1, q1 = picard_step(state, seed)
    assert (p1, q1) == (p, q)
    assert nxt.alpha == pytest.approx(alpha, rel=1e-13)
    for f, g in ((nxt.lambda_tilde, lt), (nxt.H_tilde.h11, H.h11), (nxt.H_tilde.h12, H.h12)):
        assert _rel_diff(f, g) <= 1e-13


def test_residual_report_matches_separately_built_residuals(small_seed, small_bundle):
    # the report shares one read-only full-state sample set between the two
    # residuals; built separately, each from its own samples, they give the
    # same norms
    from dataclasses import replace

    from constraints2d.lichnerowicz import hamiltonian_residual
    from constraints2d.momentum import SingularTensorParams, full_state_samples, momentum_residual

    g = small_seed.grid
    pert = replace(small_bundle, residuals=None,
                   lambda_tilde=small_bundle.lambda_tilde
                   + 1e-3 * sample_analytic([GaussianBump(amp=1.0)], g))
    for b in (small_bundle, pert):
        params = SingularTensorParams(small_seed.b, b.p, b.q)
        mom = momentum_residual(small_seed, b.alpha, b.lambda_tilde, b.H_tilde, params,
                                full_state_samples(small_seed, b.H_tilde, params))
        ham = hamiltonian_residual(small_seed, b.alpha, b.lambda_tilde,
                                   full_state_samples(small_seed, b.H_tilde, params))
        rep = residuals(b, small_seed)
        gamma = g.delta + 2.0
        assert rep.momentum_residual_norm == sum(
            radial_l2_weighted(zero_boundary_rows(f), gamma) for f in mom)
        assert rep.hamiltonian_residual_norm == radial_l2_weighted(zero_boundary_rows(ham), gamma)
        assert rep.pointwise_max_momentum == max(
            float(np.max(np.abs(zero_boundary_rows(f).to_samples()))) for f in mom)
        assert rep.pointwise_max_hamiltonian == float(
            np.max(np.abs(zero_boundary_rows(ham).to_samples())))


def test_one_potential_solve_per_step_on_fresh_and_warm_grids(monkeypatch):
    # the corrections' sources join the generic source, so a step makes one
    # momentum potential solve, and a fresh grid solves nothing extra; the
    # solve is counted under every name a solver module holds it by
    from constraints2d import momentum

    solves = []
    solve = momentum.div_constraint_solve

    def counted(f1, f2, meanwhile=None):
        solves.append(f1.grid)
        return solve(f1, f2, meanwhile)
    _patch_everywhere(monkeypatch, solve, counted)
    g = build_grid(8, 64, 30.0, -0.5)
    seed = make_seed(sample_analytic([GaussianBump(amp=0.1)], g),
                     sample_analytic([GaussianBump(amp=0.1, x0=0.5)], g),
                     ScalarField.zeros(g), b=0.02)
    state, _, _ = picard_step(IterState.zero(g), seed)
    assert solves == [g]
    picard_step(state, seed)
    assert solves == [g, g]


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
    w = g.workspace
    num = _step_norm(w, f1, f0)
    den = _step_norm(w, s1, s0)
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


def test_stop_at_the_rounding_floor(tmp_path):
    # on configs/far.cfg (demo seed, K = 8, R_max = 1e6, N_r = 4096) the
    # relative step falls to about 1.8e-10 at step 9 and grows at step 10,
    # above tol_fixed_point = 1e-10 but far below its square root: the solve
    # stops there, returns step 9's iterate and says so; plain Picard would
    # stop at step 11 by chance, its alpha within rounding of step 9's
    import json
    from dataclasses import replace

    cfg = cli.parse_config((DEMO_CFG.parent / "far.cfg").read_text())
    assert cli.cmd_solve(replace(cfg, output_dir=str(tmp_path))) == 0
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["warnings"] == ["converged_at_rounding_floor"]
    assert sol["iterations"] <= 10
    assert sol["contraction_ratios"][-1] > 1.0

    # plain Picard, step by step: the solve returned the step before the last
    seed = cli.config_seed(cfg, cli.config_grid(cfg))
    tol = cfg.solver.tol_fixed_point
    state, steps = IterState.zero(seed.grid), []
    for _ in range(30):
        nxt, p, q = picard_step(state, seed)
        steps.append((nxt.alpha, p, q))
        done = _step_norm(seed.grid.workspace, nxt, state) <= tol * max(1.0, combined_norm(nxt))
        state = nxt
        if done:
            break
    assert done
    assert (sol["alpha"], sol["p"], sol["q"]) == steps[sol["iterations"] - 2]
    assert sol["alpha"] == pytest.approx(state.alpha, rel=1e-13, abs=0.0)


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
    expected = radial_l2_weighted(zero_boundary_rows(laplacian(delta)), g.delta + 2.0)
    # rep0's hamiltonian residual is ~1e-13, so the perturbed norm must equal
    # the norm of Delta(delta) almost exactly
    assert rep1.hamiltonian_residual_norm == pytest.approx(expected, rel=1e-6)
    assert rep0.hamiltonian_residual_norm < 1e-10


def test_hamiltonian_residual_follows_the_fixed_point_tolerance(small_seed, small_bundle):
    # the reported Hamiltonian norm measures the last Picard step: it drops
    # with tol_fixed_point, and the direct assembly (singular squares
    # cancelling on the samples) differs from the analytically cancelled one
    # by far less than the norm itself
    from constraints2d.elliptic import PoissonSolution
    from constraints2d.lichnerowicz import hamiltonian_residual, hamiltonian_rhs
    from constraints2d.momentum import SingularTensorParams, full_state_samples, state_samples

    tight = solve_constraints(small_seed, SolverOptions(tol_fixed_point=1e-12))
    norm = tight.residuals.hamiltonian_residual_norm
    assert norm < 0.5 * small_bundle.residuals.hamiltonian_residual_norm
    params = SingularTensorParams(small_seed.b, tight.p, tight.q)
    direct = hamiltonian_residual(small_seed, tight.alpha, tight.lambda_tilde,
                                  full_state_samples(small_seed, tight.H_tilde, params))
    cancelled = (PoissonSolution(-tight.alpha, tight.lambda_tilde).reconstruct_laplacian()
                 - hamiltonian_rhs(small_seed, state_samples(small_seed, tight.H_tilde), params))
    assert radial_l2_weighted(zero_boundary_rows(direct - cancelled),
                              small_seed.grid.delta + 2.0) < 1e-2 * norm


def test_combined_norm_is_the_sobolev_norm(solver_grid):
    g = solver_grid
    r = rng()
    for kmax in (2, 5, 8):
        state = IterState(r.normal(), random_low_mode_field(g, r, kmax=kmax),
                          TracelessSymTensorField(random_low_mode_field(g, r, kmax=kmax),
                                                  random_low_mode_field(g, r, kmax=kmax)))
        assert combined_norm(state) == pytest.approx(sobolev_norm(state), rel=1e-13)


def test_step_norm_is_the_sobolev_norm_of_the_difference(demo_seed):
    # the step norm differences the iterates' derivative terms instead of
    # differentiating the difference; the rounding of the terms is relative
    # to the iterate, so near convergence the bound is that floor
    g = demo_seed.grid
    w = g.workspace
    state = IterState.zero(g)
    for _ in range(6):
        nxt, _, _ = picard_step(state, demo_seed)
        diff = IterState(nxt.alpha - state.alpha, nxt.lambda_tilde - state.lambda_tilde,
                         nxt.H_tilde - state.H_tilde)
        step, oracle = _step_norm(w, nxt, state), sobolev_norm(diff)
        assert abs(step - oracle) <= 1e-9 * oracle + 1e-16 * combined_norm(nxt)
        state = nxt


def test_the_first_step_norm_is_the_combined_norm(demo_seed, monkeypatch):
    # from the zero start state the step is the iterate, so the solve takes
    # its combined norm as the step norm instead of differencing zeros: one
    # _step_norm call fewer, and bitwise the values of the differencing solve
    from constraints2d import picard

    g = demo_seed.grid
    first, _, _ = picard_step(IterState.zero(g), demo_seed)
    assert _step_norm(g.workspace, first, IterState.zero(g)) == combined_norm(first)
    counts = {"step_norms": 0}
    monkeypatch.setattr(picard, "_step_norm", _counted(_step_norm, counts, "step_norms"))
    bundle = solve_constraints(demo_seed)
    assert counts["step_norms"] == bundle.iterations - 1
    # float.hex of the values when every step norm was differenced
    assert [bundle.alpha.hex(), bundle.p.hex(), bundle.q.hex()] == [
        "0x1.d0cc00a4f5337p-9", "0x1.166ccb3e270abp-9", "0x1.4e1c2717620cbp-10"]
    assert [x.hex() for x in bundle.contraction_ratios] == [
        "0x1.e9cca4e39c249p-7", "0x1.c61c444800178p-8", "0x1.168e1f598ef12p-7",
        "0x1.3f557fed748b8p-7", "0x1.1f5f1419cfcc4p-7"]


def _reference_solve(seed, tol=1e-10, max_iter=100):
    """The stopping rule with the combined norm taken at every step: alpha,
    p, q, iterations, contraction ratios and the rounding-floor flag."""
    w = seed.grid.workspace
    state, p, q = IterState.zero(seed.grid), 0.0, 0.0
    ratios, d_prev, first = [], None, None
    for it in range(1, max_iter + 1):
        nxt, p_next, q_next = picard_step(state, seed)
        n = combined_norm(nxt)
        d = n if it == 1 else _step_norm(w, nxt, state)
        assert np.isfinite(n) and np.isfinite(d)
        if first is None:
            first = n
        assert not (first > 0 and n > 10.0 * first)
        if d_prev is not None and d_prev > 1e-300:
            ratios.append(d / d_prev)
        if d_prev is not None and d > d_prev and d < tol ** 0.5 * max(1.0, n):
            return state.alpha, p, q, it, ratios, True
        d_prev = d
        state, p, q = nxt, p_next, q_next
        if d <= tol * max(1.0, n):
            return state.alpha, p, q, it, ratios, False
    raise AssertionError("reference loop did not stop")


@pytest.mark.parametrize("case", ["demo", "strong", "small", "far"])
def test_stopping_decisions_match_a_norm_at_every_step(case, demo_seed, small_seed):
    # the solve decides its tests from a bound on the combined norm and
    # takes the norm only when the bound cannot decide; every decision, and
    # so every returned value, is that of the loop that takes it each step
    # (far: the rounding-floor stop)
    if case == "demo":
        seed = demo_seed
    elif case == "strong":
        cfg = cli.parse_config(DEMO_CFG.read_text())
        seed = cli.config_seed(cfg, demo_seed.grid, amplitude=3)
    elif case == "small":
        seed = small_seed
    else:
        cfg = cli.parse_config((DEMO_CFG.parent / "far.cfg").read_text())
        seed = cli.config_seed(cfg, cli.config_grid(cfg))
    b = solve_constraints(seed)
    got = (b.alpha, b.p, b.q, b.iterations, b.contraction_ratios,
           b.converged_at_rounding_floor)
    assert got == _reference_solve(seed)
    assert b.converged_at_rounding_floor == (case == "far")


def test_warm_demo_solve_takes_the_combined_norm_once(demo_seed, monkeypatch):
    # the first iterate's norm is the first step norm; every later test is
    # decided by the bound n_1 -+ (d_2 + ... + d_k)
    from constraints2d import picard

    solve_constraints(demo_seed)  # warm the grid
    counts = {"norms": 0}
    monkeypatch.setattr(picard, "combined_norm", _counted(combined_norm, counts, "norms"))
    bundle = solve_constraints(demo_seed)
    assert bundle.iterations == 6
    assert counts["norms"] == 1


@pytest.mark.parametrize("inflate, message", [
    (lambda s: IterState(20.0 * s.alpha, 20.0 * s.lambda_tilde, 20.0 * s.H_tilde),
     r"combined norm \S+ exceeds 10x the first iterate"),
    (lambda s: IterState(float("inf"), s.lambda_tilde, s.H_tilde), "non-finite iterate norm"),
], ids=["tenfold", "non_finite"])
def test_divergence_guards_see_an_inflated_iterate(demo_seed, monkeypatch, inflate, message):
    # the third iterate is inflated: the bound must still reach both guards
    from constraints2d import picard

    step, steps = picard.picard_step, []

    def inflating(state, seed):
        nxt, p, q = step(state, seed)
        steps.append(nxt)
        return (inflate(nxt) if len(steps) == 3 else nxt), p, q
    monkeypatch.setattr(picard, "picard_step", inflating)
    with pytest.raises(DivergenceDetected, match=message):
        solve_constraints(demo_seed)
    assert len(steps) == 3


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["inline", "solve_thread"])
def test_a_step_that_yields_a_non_finite_field_diverges(demo_seed, monkeypatch, cpus):
    # the Hamiltonian source overflows: the step raises DivergenceDetected,
    # which verify's selection check records, and the solve ends in it too
    import os

    from constraints2d import picard

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    g = demo_seed.grid

    def overflowing(seed, samples, params):
        c = np.zeros((g.N_r, g.K + 1), dtype=complex)
        c[g.N_r // 2, 0] = np.inf
        return ScalarField(g, c)
    monkeypatch.setattr(picard, "hamiltonian_rhs", overflowing)
    with pytest.raises(DivergenceDetected, match="non-finite field coefficients"):
        picard_step(IterState.zero(g), demo_seed)
    with pytest.raises(DivergenceDetected, match="iterate left the admissible set"):
        solve_constraints(demo_seed)


def test_warm_demo_solve_differentiates_each_iterate_once(demo_seed, monkeypatch):
    # per iterate: one derivative pass for its norm terms (5
    # gradient_coefficients calls), whose grad lambdatilde is also the next
    # step's source gradient; the zero start state takes none; then grad
    # lambdatilde once for the residual
    from constraints2d import operators

    solve_constraints(demo_seed)  # warm the grid
    counts = {"gradients": 0}
    monkeypatch.setattr(operators, "gradient_coefficients",
                        _counted(operators.gradient_coefficients, counts, "gradients"))
    bundle = solve_constraints(demo_seed)
    assert bundle.iterations == 6
    assert 0 < counts["gradients"] <= 6 * 5 + 1


def test_warm_demo_solve_transform_and_field_budget(demo_seed, monkeypatch):
    # 7 transforms per step (test_picard_step_transform_budget) and 10 for
    # the residual report; few ScalarField constructions, each of which
    # checks its coefficients for finiteness: solve_rho_eta builds the
    # momentum source with the corrections in it (no second copy per step),
    # and each residual field has its boundary rows zeroed once
    solve_constraints(demo_seed)  # warm the grid
    counts = {"transforms": 0, "fields": 0}
    _count_transforms(monkeypatch, counts)
    monkeypatch.setattr(ScalarField, "__post_init__",
                        _counted(ScalarField.__post_init__, counts, "fields"))
    bundle = solve_constraints(demo_seed)
    assert bundle.iterations == 6
    assert 0 < counts["transforms"] <= 52
    assert counts["fields"] <= 72


def test_warm_demo_solve_calls_each_layer_through_its_module_name(demo_seed, monkeypatch):
    # the benchmark times the layers by wrapping these names in every module
    # that holds them; each must still be called that way, once per
    # iteration (once per solve for the momentum residual)
    from constraints2d import elliptic, lichnerowicz, momentum, picard

    solve_constraints(demo_seed)  # warm the grid
    calls = {}
    for module, name in ((picard, "solve_rho_eta"), (picard, "hamiltonian_rhs"),
                         (momentum, "div_constraint_solve"), (elliptic, "poisson_solve"),
                         (picard, "momentum_residual")):
        original = getattr(module, name)
        calls[name] = 0
        _patch_everywhere(monkeypatch, original, _counted(original, calls, name))
    bundle = solve_constraints(demo_seed)
    n = bundle.iterations
    assert calls == {"solve_rho_eta": n, "hamiltonian_rhs": n, "div_constraint_solve": n,
                     "poisson_solve": n, "momentum_residual": 1}


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3"])
def test_solver_options_reject_non_integer_max_iter(max_iter):
    # a float would fail later as a raw TypeError in the loop, and True would
    # silently run one iteration
    with pytest.raises(ValidationError, match="max_iter must be an integer"):
        SolverOptions(max_iter=max_iter)
    assert SolverOptions(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("value", [True, "1e-10", 1j])
@pytest.mark.parametrize("name", ["tol_fixed_point", "epsilon_threshold"])
def test_solver_options_reject_bool_and_non_real_values(name, value):
    # True would silently read as 1.0, and a string would fail as a raw
    # TypeError in the comparison
    with pytest.raises(ValidationError, match=name):
        SolverOptions(**{name: value})
    assert getattr(SolverOptions(**{name: np.float64(0.25)}), name) == 0.25


_SOLVE_ON_GRID_B = """
import gc, hashlib, sys
import numpy as np
from constraints2d.fields import GaussianBump, build_grid, make_seed, sample_analytic
from constraints2d.picard import IterState, picard_step, solve_constraints

def seed_on(grid):
    udot = sample_analytic([GaussianBump(amp=0.15)], grid)
    u = sample_analytic([GaussianBump(amp=0.15, x0=0.6, y0=0.2)], grid)
    tau = sample_analytic([GaussianBump(amp=0.03, w=2.0)], grid)
    return make_seed(udot, u, tau, b=0.04)

def grid_a():
    return build_grid(8, 64, 30.0, -0.5)

def grid_b():
    return build_grid(16, 128, 60.0, -0.5)

if sys.argv[1] == "after_a":
    # one Picard step on each of A, B, A, ..., each grid dropped before the
    # next is built, so that grids take the ids of dropped ones
    for make in (grid_a, grid_b) * 10 + (grid_a,):
        grid = make()
        picard_step(IterState.zero(grid), seed_on(grid))
        del grid
        gc.collect()
b = solve_constraints(seed_on(grid_b()))
h = hashlib.sha256()
for f in (b.lambda_tilde, b.H_tilde.h11, b.H_tilde.h12):
    h.update(np.ascontiguousarray(f.c).tobytes())
print(h.hexdigest(), b.alpha.hex(), b.p.hex(), b.q.hex(), b.iterations)
"""


def test_solve_on_a_grid_does_not_depend_on_a_dropped_grid():
    # per-grid data (DFT matrices, singular rows, factorizations) live on the
    # grid or the workspace it owns: a solve on grid B after grids A and
    # B were built, used and dropped in turn, which frees their ids for reuse,
    # is bitwise the solve in a process that never built A
    runs = [run_python("-c", _SOLVE_ON_GRID_B, arg) for arg in ("after_a", "fresh")]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout


# float.hex of alpha, p, q and the contraction ratios
_PINNED = {
    "demo": (["0x1.d0cc00a4f5337p-9", "0x1.166ccb3e270abp-9", "0x1.4e1c2717620cbp-10"],
             ["0x1.e9cca4e39c249p-7", "0x1.c61c444800178p-8", "0x1.168e1f598ef12p-7",
              "0x1.3f557fed748b8p-7", "0x1.1f5f1419cfcc4p-7"]),
    "strong": (["0x1.15b246d567414p-6", "0x1.45a92756899dep-6", "0x1.86cafc0171f04p-7"],
               ["0x1.1af7b979d5983p-3", "0x1.e91f7b0a4ad06p-5", "0x1.7e1de68cdf82ap-4",
                "0x1.1b8c508cd1655p-4", "0x1.6278bbfaacb02p-4", "0x1.2f3ebb9e6d138p-3",
                "0x1.c499146473264p-4", "0x1.43b8a76204c23p-3", "0x1.cda53b2122e4dp-4",
                "0x1.3ea9b9d33b74ap-3", "0x1.eb0be08db3418p-4"]),
}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["inline", "solve_thread"])
@pytest.mark.parametrize("case", ["demo", "strong"])
def test_solve_thread_and_inline_solve_give_the_pinned_answers(case, cpus, demo_seed,
                                                               monkeypatch):
    # with two usable CPUs each step's momentum block solve goes to the
    # solve thread while the Hamiltonian branch runs; on one it runs inline
    # and no thread is started; the answers are bitwise the same
    import os

    from constraints2d import operators

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    handed = []
    solve_thread = operators._solve_thread
    monkeypatch.setattr(operators, "_solve_thread",
                        lambda: handed.append(1) or solve_thread())
    seed = demo_seed
    if case == "strong":
        seed = cli.config_seed(cli.parse_config(DEMO_CFG.read_text()), demo_seed.grid,
                               amplitude=3)
    b = solve_constraints(seed)
    assert len(handed) == (b.iterations if len(cpus) > 1 else 0)
    assert ([b.alpha.hex(), b.p.hex(), b.q.hex()],
            [x.hex() for x in b.contraction_ratios]) == _PINNED[case]


_ON_ONE_CPU = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from constraints2d import cli, operators
from constraints2d.picard import solve_constraints

started = []
solve_thread = operators._solve_thread
operators._solve_thread = lambda: started.append(1) or solve_thread()
cfg = cli.parse_config(open(sys.argv[1]).read())
b = solve_constraints(cli.config_seed(cfg, cli.config_grid(cfg)))
print(json.dumps([len(started), [b.alpha.hex(), b.p.hex(), b.q.hex()],
                  [x.hex() for x in b.contraction_ratios]]))
"""


def test_a_process_on_one_cpu_solves_inline_to_the_pinned_answer():
    # the process's own affinity, not a patched count: no solve thread is
    # started, and the demo answer is the pinned one
    import json
    import os

    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity on this platform")
    run = run_python("-c", _ON_ONE_CPU, str(DEMO_CFG))
    assert run.returncode == 0, run.stderr
    started, *answer = json.loads(run.stdout)
    assert started == 0
    assert tuple(answer) == _PINNED["demo"]


@pytest.mark.parametrize("fails", ["solve", "meanwhile"])
def test_solve_beside_raises_either_branch_error_after_the_solve(fails, monkeypatch):
    # an exception raised on the solve thread reaches the caller with its
    # own type; one raised by meanwhile does too, once the solve is done
    import os
    import threading
    import time

    from constraints2d.operators import solve_beside

    class BranchFailed(Exception):
        pass

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    done = []

    def solve(rhs):
        time.sleep(0.05)
        done.append(threading.get_ident())
        if fails == "solve":
            raise BranchFailed("solve")
        return rhs

    def meanwhile():
        if fails == "meanwhile":
            raise BranchFailed("meanwhile")

    with pytest.raises(BranchFailed, match=fails):
        solve_beside(solve, None, meanwhile)
    assert len(done) == 1 and done[0] != threading.get_ident()


def test_concurrent_callers_share_one_solve_thread(monkeypatch):
    # more callers than cores, with a short switch interval: the first uses
    # race to start the solve thread, which is started once, and each call
    # gets its own solve's result
    import os
    import sys
    import threading

    from constraints2d import operators

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(operators, "_tasks", None)

    def solve_threads():
        return {t.ident for t in threading.enumerate() if t.name == "constraints2d-solve"}

    before = solve_threads()
    results = {}

    def caller(i):
        results[i] = [operators.solve_beside(lambda x: 2 * x, (i, j), lambda: None)
                      for j in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == {i: [2 * (i, j) for j in range(200)] for i in range(6)}
    assert len(solve_threads() - before) == 1


_FORK_AFTER_SOLVE = """
import os, signal, sys, time
os.sched_getaffinity = lambda pid: {0, 1}  # the solve thread, on any host
from constraints2d.fields import GaussianBump, build_grid, make_seed, sample_analytic
from constraints2d.picard import solve_constraints

grid = build_grid(8, 64, 30.0, -0.5)
seed = make_seed(sample_analytic([GaussianBump(amp=0.1)], grid),
                 sample_analytic([GaussianBump(amp=0.1, x0=0.5)], grid),
                 sample_analytic([GaussianBump(amp=0.01, w=2.0)], grid), b=0.02)
alpha = solve_constraints(seed).alpha
pid = os.fork()
if pid == 0:
    os._exit(0 if solve_constraints(seed).alpha == alpha else 1)
deadline = time.monotonic() + 30.0
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(f"the forked child's solve exited with status {status}" if status else 0)
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the forked child's solve did not finish in 30 s")
    time.sleep(0.01)
"""


def test_a_child_forked_after_a_solve_solves():
    # the child has no copy of its parent's solve thread: it starts its own
    # and solves to the parent's answer, where a stale thread handle would
    # wait forever
    import os

    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    run = run_python("-c", _FORK_AFTER_SOLVE)
    assert run.returncode == 0, run.stderr


def test_factorizations_are_made_on_the_calling_thread(monkeypatch):
    # scipy leaks a SuperLU factorization freed on a thread other than the
    # one that made it, so the solve thread only solves: a fresh grid's two
    # factorizations are made on the thread that steps
    import os
    import threading

    from constraints2d import operators

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made_on = []
    splu = operators.splu

    def recorded(*args, **kwargs):
        made_on.append(threading.get_ident())
        return splu(*args, **kwargs)
    monkeypatch.setattr(operators, "splu", recorded)
    g = build_grid(8, 64, 30.0, -0.5)
    seed = make_seed(sample_analytic([GaussianBump(amp=0.1)], g),
                     sample_analytic([GaussianBump(amp=0.1, x0=0.5)], g),
                     ScalarField.zeros(g), b=0.02)
    state, _, _ = picard_step(IterState.zero(g), seed)
    picard_step(state, seed)
    assert made_on == [threading.get_ident()] * 2
