import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d.errors import DegenerateCone
from constraints2d.fields import (
    GaussianBump,
    ScalarField,
    build_grid,
    make_seed,
    sample_analytic,
)
from constraints2d.geometry import asymptotic_charges, cone_angle, reconstruct_physical
from constraints2d.momentum import SingularTensorParams, singular_tensors
from constraints2d.picard import solve_constraints


def test_cone_angle_values():
    assert cone_angle(0.0) == pytest.approx(2 * np.pi)
    assert cone_angle(0.25) == pytest.approx(1.5 * np.pi)
    with pytest.raises(DegenerateCone):
        cone_angle(1.0)


def test_deficit_positive_small_data(small_bundle):
    assert 0.0 < small_bundle.alpha < 1.0
    assert 0.0 < cone_angle(small_bundle.alpha) < 2 * np.pi


def test_reconstruct_zero(solver_grid):
    z = ScalarField.zeros(solver_grid)
    seed = make_seed(z, z, z, b=0.0)
    bundle = solve_constraints(seed)
    phys = reconstruct_physical(bundle, seed)
    assert np.max(np.abs(phys.metric_factor.to_samples() - 1.0)) < 1e-14
    assert np.max(np.abs(phys.K11.to_samples())) == 0.0


def test_reconstruct_identities(small_seed, small_bundle):
    g = small_seed.grid
    phys = reconstruct_physical(small_bundle, small_seed)
    lam = phys.conformal_exponent.to_samples()
    K11 = phys.K11.to_samples()
    K12 = phys.K12.to_samples()
    K22 = phys.K22.to_samples()
    tau_full = phys.tau_full.to_samples()
    elam = np.exp(lam)
    # g-trace of K equals the physical mean curvature
    trace = (K11 + K22) / elam**2
    assert np.max(np.abs(trace - tau_full)) < 1e-10
    # traceless part of e^{-lambda} K recovers the solver's tensor
    params = SingularTensorParams(b=small_seed.b, p=small_bundle.p, q=small_bundle.q)
    Hb, Hrho, tau_s = singular_tensors(params, g)
    h11 = (Hb.h11 + Hrho.h11 + small_bundle.H_tilde.h11).to_samples()
    h12 = (Hb.h12 + Hrho.h12 + small_bundle.H_tilde.h12).to_samples()
    assert np.max(np.abs(0.5 * (K11 - K22) / elam - h11)) < 1e-10
    assert np.max(np.abs(K12 / elam - h12)) < 1e-10
    # metric factor is e^{2 lambda} and positive
    mf = phys.metric_factor.to_samples()
    assert np.all(mf > 0)
    assert np.max(np.abs(mf - elam**2)) < 1e-10


def test_reconstruct_matches_field_sums(small_seed, small_bundle):
    # the full H and tau from the closed-form samples equal the sums of the
    # singular_tensors fields and the tilde fields, transformed afterwards
    g = small_seed.grid
    Hb, Hrho, tau_s = singular_tensors(
        SingularTensorParams(b=small_seed.b, p=small_bundle.p, q=small_bundle.q), g)
    elam = np.exp(small_bundle.lambda_tilde.to_samples()
                  - small_bundle.alpha * g.chiln[:, None])
    h11 = (Hb.h11 + Hrho.h11 + small_bundle.H_tilde.h11).to_samples()
    h12 = (Hb.h12 + Hrho.h12 + small_bundle.H_tilde.h12).to_samples()
    tau = (tau_s + small_seed.tau_tilde).to_samples()
    phys = reconstruct_physical(small_bundle, small_seed)
    for field, samples in ((phys.K11, elam * (h11 + 0.5 * tau)), (phys.K12, elam * h12),
                           (phys.K22, elam * (-h11 + 0.5 * tau)), (phys.tau_full, tau / elam)):
        oracle = ScalarField.from_samples(g, samples)
        assert np.max(np.abs(field.c - oracle.c)) <= 1e-12 * np.max(np.abs(oracle.c))


def test_charges_pure_b(grid):
    _, _, tau_s = singular_tensors(SingularTensorParams(0.3, 0.0, 0.0), grid)
    b_hat, p_hat, q_hat = asymptotic_charges(tau_s, grid)
    assert b_hat == pytest.approx(0.3, abs=1e-10)
    assert abs(p_hat) < 1e-14 and abs(q_hat) < 1e-14


def test_charges_gaussian_only(grid):
    tau = sample_analytic([GaussianBump(amp=1.0, w=2.0)], grid)
    b_hat, p_hat, q_hat = asymptotic_charges(tau, grid)
    assert max(abs(b_hat), abs(p_hat), abs(q_hat)) < 1e-12


def test_charges_rotated_dipole(grid):
    rho, eta = 0.1, 0.7
    params = SingularTensorParams(0.0, rho * np.cos(eta), rho * np.sin(eta))
    _, _, tau_s = singular_tensors(params, grid)
    _, p_hat, q_hat = asymptotic_charges(tau_s, grid)
    assert p_hat == pytest.approx(rho * np.cos(eta), abs=1e-10)
    assert q_hat == pytest.approx(rho * np.sin(eta), abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(b=st.floats(-1, 1), rho=st.floats(0, 1), eta=st.floats(0, 2 * np.pi))
def test_charge_round_trip(b, rho, eta):
    g = build_grid(8, 64, 30.0, -0.5)
    params = SingularTensorParams(b, rho * np.cos(eta), rho * np.sin(eta))
    _, _, tau_s = singular_tensors(params, g)
    tau = tau_s + sample_analytic([GaussianBump(amp=0.4, w=1.5)], g)
    b_hat, p_hat, q_hat = asymptotic_charges(tau, g)
    assert b_hat == pytest.approx(b, abs=1e-6)
    assert p_hat == pytest.approx(params.p, abs=1e-6)
    assert q_hat == pytest.approx(params.q, abs=1e-6)
