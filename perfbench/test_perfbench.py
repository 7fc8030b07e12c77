"""Checks of the benchmark itself: tracing changes nothing, the output check
fails what it should, and workload seeds are reproducible."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402
from constraints2d import operators, picard  # noqa: E402


def _patchable_names():
    """Every attribute the tracer could replace, by identity."""
    names = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "constraints2d"
                                or mod_name.startswith("constraints2d.")):
            names.update({(mod_name, k): v for k, v in vars(mod).items()})
    names.update({("OperatorWorkspace", k): v
                  for k, v in vars(operators.OperatorWorkspace).items()})
    names.update({("numpy.fft", k): getattr(np.fft, k) for k in tracing.COUNTED_FFT})
    return names


def test_traced_solve_is_bitwise_identical_and_names_are_restored(tmp_path):
    wl = workloads.Workload("demo", 0, str(tmp_path))
    _, first = wl.setup()
    assert first.error is None
    before = _patchable_names()
    plain = picard.solve_constraints(wl.seed_data, wl.opts)

    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer:
        during = _patchable_names()
        # names imported into other modules are wrapped too
        for key in [("constraints2d.picard", "solve_rho_eta"),
                    ("constraints2d.picard", "multiply"),
                    ("constraints2d.lichnerowicz", "poisson_solve"),
                    ("constraints2d.cli", "write_field_csv"),
                    ("constraints2d.operators", "splu")]:
            assert during[key] is not before[key], key
        traced = picard.solve_constraints(wl.seed_data, wl.opts)

    after = _patchable_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    for attr in ("alpha", "p", "q"):
        assert getattr(traced, attr).hex() == getattr(plain, attr).hex(), attr
    assert traced.lambda_tilde.a.tobytes() == plain.lambda_tilde.a.tobytes()
    layers = workloads.layer_metrics(tracer, 1)
    assert layers["picard.iterations"] == plain.iterations
    assert layers["operators.banded_solves"] > 0


def test_perturbed_reference_fails_every_checked_operation(tmp_path, monkeypatch):
    ref = dict(workloads.REFERENCE["demo"])
    ref["alpha"] *= 1.0 + 1e-5
    monkeypatch.setitem(workloads.REFERENCE, "demo", ref)

    # seed 0: every operation solves the reference inputs
    res = workloads.run("demo", 0, seconds=0.0, trace=False, out_dir=str(tmp_path))
    assert res["attempted"] >= 3
    assert res["failed"] / res["attempted"] == 1.0
    assert all(e.startswith("alpha = ") for e in res["errors"])

    # other seeds: only the reference check of the run
    res = workloads.run("demo", 5, seconds=0.0, trace=False, out_dir=str(tmp_path))
    assert res["failed"] == 1
    assert res["errors"][0].startswith("alpha = ")


def test_seed_zero_is_the_config_and_other_seeds_jitter_within_bounds():
    base = workloads.workload_config("demo", 0)
    again = workloads.workload_config("demo", 7)
    assert again == workloads.workload_config("demo", 7)
    assert again != base
    pairs = list(zip(base.udot_bumps + base.u_bumps + base.tau_bumps,
                     again.udot_bumps + again.u_bumps + again.tau_bumps))
    for b0, b1 in pairs:
        assert b1.amp == b0.amp
        assert abs(b1.x0 - b0.x0) <= workloads.JITTER_XY
        assert abs(b1.y0 - b0.y0) <= workloads.JITTER_XY
        assert abs(b1.w / b0.w - 1.0) <= workloads.JITTER_W
    with open(workloads.DEMO_CFG) as fh:
        assert workloads.workload_config("demo", 0) == workloads.cli.parse_config(fh.read())
