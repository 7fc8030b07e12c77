import json
import os
import subprocess
import sys

import numpy as np
import pytest

from constraints2d.cli import (
    cmd_solve,
    cmd_sweep,
    cmd_verify,
    main,
    parse_config,
    serialize_config,
)
from constraints2d.errors import ParseError, ValidationError

MINIMAL = """
[grid]
K = 8
N_r = 128
R_max = 60.0
delta = -0.5

[seed]
udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0
"""

FULL = """
[grid]
K = 12
N_r = 192
R_max = 60.0
delta = -0.5

[seed]
b = 0.03
udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0
u = gauss amp=0.1 x0=0.5 y0=0.2 w=1.0
tau_tilde = gauss amp=0.01 x0=0.0 y0=0.0 w=2.0

[solver]
tol_fixed_point = 1e-10
max_iter = 60
epsilon_threshold = 0.5

[output]
dir = {out}
"""

# pure wave data: the quadratic coefficients of the sweep are then free of
# the b/tau cross couplings
WAVE = """
[grid]
K = 12
N_r = 192
R_max = 60.0
delta = -0.5

[seed]
udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0
u = gauss amp=0.1 x0=0.5 y0=0.2 w=1.0

[output]
dir = {out}
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.delta == -0.5
    assert cfg.tol_fixed_point == 1e-10
    assert cfg.max_iter == 100
    assert cfg.b == 0.0
    assert len(cfg.udot_bumps) == 1 and cfg.u_bumps == ()


def test_parse_bad_delta():
    with pytest.raises(ValidationError, match=r"delta must lie in \(-1,0\)"):
        parse_config(MINIMAL.replace("delta = -0.5", "delta = 0.5"))


def test_parse_missing_grid():
    with pytest.raises(ParseError):
        parse_config("[seed]\nudot = gauss amp=1.0\n")


def test_parse_error_line_number():
    bad = MINIMAL + "\nnot a key value line\n"
    with pytest.raises(ParseError) as exc:
        parse_config(bad)
    assert exc.value.line is not None


def test_round_trip():
    cfg = parse_config(FULL.format(out="somewhere"))
    assert parse_config(serialize_config(cfg)) == cfg


def test_solve_zero_amplitude(tmp_path):
    text = MINIMAL.replace("amp=0.1", "amp=0.0") + f"\n[output]\ndir = {tmp_path}\n"
    cfg = parse_config(text)
    assert cmd_solve(cfg) == 0
    data = json.loads((tmp_path / "solution.json").read_text())
    assert data["alpha"] == 0.0


def test_solve_small_seed_and_determinism(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_solve(cfg) == 0
    blob1 = (tmp_path / "solution.json").read_bytes()
    data = json.loads(blob1)
    assert data["momentum_residual_norm"] <= 1e-8
    assert data["hamiltonian_residual_norm"] <= 1e-8
    assert 0.0 < data["alpha"] < 1.0
    # identical configs produce bit-identical scalar blocks
    assert cmd_solve(cfg) == 0
    assert (tmp_path / "solution.json").read_bytes() == blob1
    # field dumps round trip exactly
    from constraints2d.cli import config_grid
    from constraints2d.fields import read_field_csv

    g = config_grid(cfg)
    lt = read_field_csv(tmp_path / "lambda_tilde.csv", g)
    assert np.all(np.isfinite(lt.a))


def test_solve_large_amplitude_exit2(tmp_path):
    text = FULL.format(out=tmp_path).replace("amp=0.1", "amp=10.0")
    cfg = parse_config(text)
    assert cmd_solve(cfg) == 2
    data = json.loads((tmp_path / "solution.json").read_text())
    assert "error" in data


def test_env_override_max_iter(tmp_path, monkeypatch):
    cfg = parse_config(FULL.format(out=tmp_path))
    monkeypatch.setenv("SOLVER_MAX_ITER", "1")
    monkeypatch.setenv("SOLVER_TOL", "1e-14")
    assert cmd_solve(cfg) == 2   # one iteration cannot reach 1e-14


def test_sweep(tmp_path):
    cfg = parse_config(WAVE.format(out=tmp_path))
    assert cmd_sweep(cfg, [0.5, 1.0, 2.0]) == 0
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line and not line.startswith(("a,", "#"))]
    assert len(rows) == 3
    coeffs = [float(line.split(",")[7]) for line in rows]  # alpha / a^2
    assert max(coeffs) <= 1.25 * min(coeffs)
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["alpha_coeff_extrapolated"] == pytest.approx(
        summary["alpha_coeff_expected"], rel=0.05)
    assert "alpha_coeff_alt_normalization" in summary


def test_sweep_empty_list(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_sweep(cfg, []) == 1


def test_sweep_zero_amplitude_row(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_sweep(cfg, [0.0]) == 0
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line and not line.startswith(("a,", "#"))]
    assert rows[0].startswith("0,0,0,0")


def test_verify_passes(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_verify(cfg) == 0
    checks = json.loads((tmp_path / "verify.json").read_text())
    assert all(c["passed"] for c in checks)


def test_verify_delta_near_endpoint_warns(tmp_path, capsys):
    text = FULL.format(out=tmp_path).replace("delta = -0.5", "delta = -0.95")
    cfg = parse_config(text)
    assert cmd_verify(cfg) == 0
    assert "delta = -0.95" in capsys.readouterr().err


def test_verify_under_resolved_fails(tmp_path):
    text = FULL.format(out=tmp_path).replace("N_r = 192", "N_r = 32")
    cfg = parse_config(text)
    assert cmd_verify(cfg) == 3


# a bump narrower than four radial spacings is a property of the config
UNRESOLVED = """
[grid]
K = 16
N_r = 64
R_max = 100.0
delta = -0.5

[seed]
udot = gauss amp=0.1 w=0.05

[output]
dir = {out}
"""


@pytest.mark.parametrize("text", ["[grid]\nK = 8\n", UNRESOLVED],
                         ids=["missing_grid_keys", "unresolved_bump"])
def test_main_bad_config_exit1(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text.format(out=tmp_path / "out"))
    assert main(["solve", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("var, value", [
    ("SOLVER_TOL", "abc"), ("SOLVER_MAX_ITER", "x"),
    ("SOLVER_MAX_ITER", "0"), ("SOLVER_TOL", "-1"),
])
def test_main_bad_env_override_exit1(tmp_path, monkeypatch, capsys, var, value):
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    monkeypatch.setenv(var, value)
    assert main(["solve", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_module_entry_point_runs_without_runpy_warning():
    import constraints2d

    src = os.path.dirname(os.path.dirname(os.path.abspath(constraints2d.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "constraints2d.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_main_solve(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    assert main(["solve", str(path)]) == 0
    assert (tmp_path / "out" / "solution.json").exists()
