import codecs
import json
import locale
import os
import tempfile

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d.cli import (
    RunConfig,
    cmd_solve,
    cmd_sweep,
    cmd_verify,
    main,
    parse_config,
    serialize_config,
)
from constraints2d.errors import ParseError, ValidationError
from constraints2d.fields import GaussianBump
from constraints2d.picard import SolverOptions

from conftest import percent_csv_bytes, run_python

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

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
    assert cfg.solver.tol_fixed_point == 1e-10
    assert cfg.solver.max_iter == 100
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_BUMPS = st.lists(st.builds(GaussianBump, amp=_FINITE, x0=_FINITE, y0=_FINITE, w=_POSITIVE),
                  max_size=3).map(tuple)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cfg=st.builds(
    RunConfig, K=st.integers(4, 64), N_r=st.integers(16, 4096),
    R_max=st.floats(0.0, 2.0**256, exclude_min=True, exclude_max=True),  # R_max**4 finite
    delta=st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
    udot_bumps=_BUMPS, u_bumps=_BUMPS, tau_bumps=_BUMPS, b=_FINITE,
    solver=st.builds(SolverOptions, tol_fixed_point=_POSITIVE,
                     max_iter=st.integers(1, 10**6), epsilon_threshold=_POSITIVE),
    output_dir=st.text("abcXYZ019_-./", min_size=1)))
def test_serialized_configs_parse_back(cfg):
    # every value is written with 17 significant digits, and each bump key
    # line appends one bump
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("name", ["demo.cfg", "sweep.cfg", "far.cfg"])
def test_shipped_configs_round_trip(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        cfg = parse_config(fh.read())
    assert parse_config(serialize_config(cfg)) == cfg


def test_solver_settings_are_solver_options():
    # no [solver] section: the SolverOptions defaults; a RunConfig cannot
    # be given solver settings that SolverOptions rejects
    cfg = parse_config(MINIMAL)
    assert cfg.solver == SolverOptions()
    assert parse_config(FULL.format(out="x")).solver == SolverOptions(max_iter=60)
    with pytest.raises(ValidationError, match="max_iter must be at least 1"):
        replace(cfg.solver, max_iter=0)


@pytest.mark.parametrize("old, new, message", [
    ("[seed]", "[seeds]", "line 8: unknown section [seeds]"),
    ("max_iter = 60", "max_iters = 60", "line 16: unknown solver key 'max_iters'"),
    ("max_iter = 60", "max_iter = 6.5", "line 16: invalid literal for int()"),
    ("b = 0.03", "c = 0.03", "line 9: unknown seed key 'c'"),
    ("w=2.0", "w=2.0 r=1", "line 12: unknown bump parameter 'r'"),
    ("dir = {out}", "dir =", "line 20: output dir must not be empty"),
    ("N_r = 192", "N_r = 192\nK = 16", "line 5: repeated grid key 'K'"),
    ("\n[grid]", "K = 12\n[grid]", "line 1: key outside any section"),
    ("udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0", "udot = box amp=0.1",
     "line 10: unknown bump kind in 'box amp=0.1'"),
    ("w=2.0", "w=2.0 r", "line 12: malformed bump parameter 'r'"),
    # GaussianBump validates itself; the parser names the line
    *((old, new, "line 12: bump needs finite amp, x0, y0 and a finite w > 0")
      for old, new in (("amp=0.01", "amp=nan"), ("x0=0.0 y0=0.0 w=2.0", "x0=inf y0=0.0 w=2.0"),
                       ("y0=0.0 w=2.0", "y0=-inf w=2.0"), ("w=2.0", "w=inf"),
                       ("w=2.0", "w=0"), ("w=2.0", "w=-1.5"))),
])
def test_parse_error_messages(old, new, message):
    with pytest.raises(ParseError) as exc:
        parse_config(FULL.replace(old, new).format(out="x"))
    assert str(exc.value).startswith(message)


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


def test_solution_warnings(tmp_path, monkeypatch):
    # none on the demo data; delta near an end of (-1, 0) and alpha <= 0 (a
    # cone angle of 2 pi or more) are recorded in solution.json
    from dataclasses import replace

    from constraints2d import cli

    def warnings_of(cfg):
        assert cmd_solve(cfg) == 0
        return json.loads((tmp_path / "solution.json").read_text())["warnings"]

    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "demo.cfg")) as fh:
        demo = replace(parse_config(fh.read()), output_dir=str(tmp_path))
    assert warnings_of(demo) == []
    cfg = parse_config(FULL.format(out=tmp_path))  # 19 nodes on the cutoff ramp
    assert warnings_of(replace(cfg, delta=-0.95)) == ["delta_near_edge", "under_resolved_core"]
    assert warnings_of(replace(cfg, delta=-0.05)) == ["delta_near_edge", "under_resolved_core"]
    solve = cli.solve_constraints
    monkeypatch.setattr(cli, "solve_constraints",
                        lambda seed, opts: replace(solve(seed, opts), alpha=0.0))
    assert warnings_of(cfg) == ["alpha_nonpositive", "under_resolved_core"]
    assert warnings_of(replace(cfg, delta=-0.95)) == [
        "alpha_nonpositive", "delta_near_edge", "under_resolved_core"]


# (R_max, N_r) of the demo seed, and the warnings its solve writes: the first
# four exit 0 with alpha +392 %, +9.6 %, +2.8 % and +2.4 % off its limit
# 3.5441926520e-3; the last two are demo.cfg's and far.cfg's grids
@pytest.mark.parametrize("R_max, N_r, expected", [
    (1e6, 256, ["under_resolved_core"]),  # 8 nodes on the cutoff ramp r in [1, 2]
    (1e6, 512, ["under_resolved_core"]),  # 15
    (1e4, 256, ["under_resolved_core"]),  # 11
    (2.0, 512, ["r_max_near_cutoff"]),    # the demo seed reaches r = 12
    (100.0, 512, []),                     # 45
    (1e6, 4096, ["converged_at_rounding_floor"])])  # 120
def test_grids_that_cannot_hold_the_cutoff_or_the_seed_warn(tmp_path, R_max, N_r, expected):
    with open(os.path.join(CONFIGS, "demo.cfg")) as fh:
        cfg = replace(parse_config(fh.read()), R_max=R_max, N_r=N_r, output_dir=str(tmp_path))
    assert cmd_solve(cfg) == 0
    assert json.loads((tmp_path / "solution.json").read_text())["warnings"] == expected


def test_under_resolved_seed_data_are_listed(tmp_path):
    # the mode irregularity that sample_analytic warns of on stderr: a bump
    # centred off the origin and too narrow for the inner nodes
    text = FULL.format(out=tmp_path).replace("K = 12", "K = 4").replace("N_r = 192", "N_r = 512")
    cfg = parse_config(text.replace("u = gauss amp=0.1 x0=0.5 y0=0.2 w=1.0",
                                    "u = gauss amp=0.1 x0=0.5 y0=0.2 w=0.2"))
    with pytest.warns(UserWarning, match="under-resolved"):
        assert cmd_solve(cfg) == 0
    assert "seed_under_resolved" in json.loads((tmp_path / "solution.json").read_text())["warnings"]


# a config of each rule of SeedData.warnings, and the names it gives
@pytest.mark.parametrize("case, expected", [
    ("demo", ()),
    ("full_delta_near_edge", ("delta_near_edge", "under_resolved_core")),  # 19 ramp nodes
    ("demo_R_max_2", ("r_max_near_cutoff",)),
    ("narrow_bump", ("seed_under_resolved",))])
@pytest.mark.filterwarnings("ignore:mode-.*under-resolved:UserWarning")
def test_solve_verify_and_sweep_name_the_seeds_warnings(tmp_path, capsys, case, expected):
    from constraints2d.cli import config_grid, config_seed

    with open(os.path.join(CONFIGS, "demo.cfg")) as fh:
        demo = replace(parse_config(fh.read()), output_dir=str(tmp_path))
    full = FULL.format(out=tmp_path)
    cfg = {"demo": demo,
           "full_delta_near_edge": replace(parse_config(full), delta=-0.95),
           "demo_R_max_2": replace(demo, R_max=2.0, N_r=512),
           "narrow_bump": parse_config(
               full.replace("K = 12", "K = 4").replace("N_r = 192", "N_r = 512")
               .replace("u = gauss amp=0.1 x0=0.5 y0=0.2 w=1.0",
                        "u = gauss amp=0.1 x0=0.5 y0=0.2 w=0.2"))}[case]
    seed = config_seed(cfg, config_grid(cfg))
    assert seed.warnings == expected

    def stderr_names():
        return tuple(line.removeprefix("warning: ") for line in capsys.readouterr().err.splitlines()
                     if line.startswith("warning: "))

    capsys.readouterr()
    assert cmd_solve(cfg) == 0
    listed = json.loads((tmp_path / "solution.json").read_text())["warnings"]
    solve_names = [n for n in listed if n in ("alpha_nonpositive", "converged_at_rounding_floor")]
    assert listed == solve_names + list(expected)
    assert stderr_names() == ()  # solve writes them to solution.json only
    assert cmd_verify(cfg) in (0, 3)
    assert stderr_names() == expected
    assert cmd_sweep(cfg, [0.0]) == 0
    assert stderr_names() == expected
    # every output file lists the library solve's warnings
    from constraints2d.picard import solve_constraints

    def written(name):
        return json.loads((tmp_path / name).read_text())["warnings"]
    assert (listed == written("verify.json") == written("sweep_summary.json")
            == list(solve_constraints(seed, cfg.solver).warnings))


def test_a_failed_solve_lists_the_seeds_warnings(tmp_path):
    # the demo seed reaches r = 12, so R_max = 5 cuts its tail: the solve
    # fails, and its error record names the grid that caused it, as verify does
    with open(os.path.join(CONFIGS, "demo.cfg")) as fh:
        cfg = replace(parse_config(fh.read()), R_max=5.0, output_dir=str(tmp_path))
    assert cmd_solve(cfg) == 2
    record = _strict_json((tmp_path / "solution.json").read_text())
    assert record["error"] == "NonDecayingRHS"
    assert record["warnings"] == ["r_max_near_cutoff"]
    cmd_verify(cfg)
    assert _strict_json((tmp_path / "verify.json").read_text())["warnings"] == record["warnings"]


def test_a_solve_takes_the_irregularity_rule_once_per_seed_field(tmp_path, monkeypatch):
    # every call of fields._mode_irregularity, under whichever name it is made
    import sys

    from constraints2d import cli, fields

    code, checked, seeds = fields._mode_irregularity.__code__, [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            checked.append(frame.f_locals["f"])

    config_seed = cli.config_seed
    monkeypatch.setattr(cli, "config_seed",
                        lambda *args, **kw: seeds.append(config_seed(*args, **kw)) or seeds[-1])
    with open(os.path.join(CONFIGS, "demo.cfg")) as fh:
        cfg = replace(parse_config(fh.read()), output_dir=str(tmp_path))
    sys.setprofile(profile)
    try:
        assert cmd_solve(cfg) == 0
    finally:
        sys.setprofile(None)
    (seed,) = seeds
    assert [id(f) for f in checked] == [id(f) for f in (seed.udot, seed.u, seed.tau_tilde)]


def test_an_allocation_failure_is_invalid_resolution_with_a_documented_exit(
        tmp_path, monkeypatch, capsys):
    # numpy's MemoryError, raised in place of a real allocation
    from constraints2d import fields, operators
    from constraints2d.errors import InvalidResolution
    from constraints2d.fields import build_grid

    def unable(*args):
        raise MemoryError("Unable to allocate")

    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + f"\n[output]\ndir = {tmp_path / 'out'}\n")
    # the workspace, built with the seed: a config error
    with monkeypatch.context() as m:
        m.setattr(operators, "OperatorWorkspace", unable)
        with pytest.raises(InvalidResolution, match="operators of grid K = 8, N_r = 64 are too "
                                                    "large to allocate"):
            build_grid(8, 64, 30.0, -0.5).workspace
        assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: the operators of grid K = 8, N_r = 128 are too large to allocate")
    # the seed's densities and sources: a config error too
    with monkeypatch.context() as m:
        m.setattr(fields, "integrate", unable)
        assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == ("config error: the seed's densities and sources are too "
                                       "large to allocate: Unable to allocate\n")
    # a factorization of the solve: a failed solve, with its error record
    monkeypatch.setattr(operators, "splu", unable)
    assert main(["solve", str(path)]) == 2
    record = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert record["error"] == "InvalidResolution"
    assert "factorization of 16 blocks of 128 rows is too large to allocate" in record["message"]


@pytest.mark.parametrize("where, what", [
    ("state_samples", "the arrays of a Picard step"),
    ("combined_norm", "the arrays of the solve"),
    ("momentum_residual", "the arrays of the residual report")],
    ids=["step", "norms", "report"])
def test_a_solve_array_out_of_memory_is_invalid_resolution(tmp_path, monkeypatch, where, what):
    # numpy's MemoryError, raised in place of a real allocation, in a Picard
    # step, the norms or the residual report: a failed solve, a NaN sweep
    # row, and a failed verify check
    from constraints2d import picard

    def unable(*args):
        raise MemoryError("Unable to allocate")

    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + f"\n[output]\ndir = {tmp_path / 'out'}\n")
    monkeypatch.setattr(picard, where, unable)
    assert main(["solve", str(path)]) == 2
    record = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert record["error"] == "InvalidResolution"
    assert record["message"] == f"{what} are too large to allocate: Unable to allocate"
    assert main(["sweep", str(path), "--amplitudes", "0,0.1"]) == 2
    rows = [line.split(",") for line in (tmp_path / "out" / "sweep.csv").read_text().splitlines()
            if line and not line.startswith(("a,", "#"))]
    assert rows[1][1:4] == ["nan", "nan", "nan"] and rows[1][6] == "-1"
    if where == "state_samples":  # verify's selection check takes one Picard step
        assert main(["verify", str(path)]) == 3
        checks = {c["name"]: c for c in
              json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]}
        assert checks["rho_eta_selection_condition"]["raised"] == "InvalidResolution"


@pytest.mark.parametrize("where", ["singular_tensors", "write_field_csv"])
def test_output_fields_out_of_memory_fail_the_solve_with_no_field_csvs(tmp_path, monkeypatch,
                                                                        where):
    # numpy's MemoryError while tau_breve is built or after the first CSV is
    # written: a failed solve with its error record, and none of the field
    # CSVs of this run or an earlier one
    from constraints2d import cli

    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + f"\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["solve", str(path)]) == 0
    written, original = [], getattr(cli, where)

    def unable(*args):
        if where == "write_field_csv" and not written:
            written.append(args[1])
            return original(*args)
        raise MemoryError("Unable to allocate")
    monkeypatch.setattr(cli, where, unable)
    assert main(["solve", str(path)]) == 2
    record = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert record["error"] == "InvalidResolution"
    assert record["message"] == ("the output fields are too large to allocate: "
                                 "Unable to allocate")
    assert sorted(os.listdir(tmp_path / "out")) == ["solution.json"]


def test_a_field_that_cannot_be_written_leaves_no_earlier_runs_files(tmp_path, capsys):
    # the second run, at another amplitude, finds a directory in place of
    # H_tilde_12.csv: it exits 1 with the fields written before that one,
    # and neither the first run's solution.json nor its tau_breve.csv stays
    out = tmp_path / "out"
    with open(os.path.join(CONFIGS, "demo.cfg")) as fh:
        cfg = replace(parse_config(fh.read()), output_dir=str(out))
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    assert main(["solve", str(path)]) == 0
    first = (out / "lambda_tilde.csv").read_bytes()
    (out / "H_tilde_12.csv").unlink()
    (out / "H_tilde_12.csv").mkdir()
    path.write_text(serialize_config(
        replace(cfg, udot_bumps=tuple(replace(b, amp=0.12) for b in cfg.udot_bumps))))
    capsys.readouterr()
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("cannot write output:")
    assert sorted(os.listdir(out)) == ["H_tilde_11.csv", "H_tilde_12.csv", "lambda_tilde.csv"]
    assert (out / "lambda_tilde.csv").read_bytes() != first


@pytest.mark.parametrize("R_max, expected", [
    (60.0, []), (1e4, ["under_resolved_core"])],  # 25 and 11 ramp nodes
    ids=["wave_N_r_256", "wave_N_r_256_R_max_1e4"])
def test_sweep_summary_lists_the_seeds_warnings(tmp_path, R_max, expected):
    # the unit-amplitude seed's warnings are in sweep_summary.json, which
    # sweep.csv does not repeat; WAVE runs at N_r = 256, since its own 192
    # nodes put 19 on the ramp, itself under_resolved_core
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(
        replace(parse_config(WAVE.format(out=tmp_path)), R_max=R_max, N_r=256)))
    assert main(["sweep", str(path), "--amplitudes", "0,0.1"]) == 0
    assert _strict_json((tmp_path / "sweep_summary.json").read_text())["warnings"] == expected
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3 and not [line for line in lines if line.startswith("#")]


def test_a_check_out_of_memory_fails_as_raised(tmp_path, monkeypatch, capsys):
    # numpy's MemoryError in a check's Poisson solves: each such check fails
    # as raised, the others pass, and verify.json is written
    from constraints2d import cli

    def unable(*args):
        raise MemoryError("Unable to allocate")
    monkeypatch.setattr(cli, "poisson_solve", unable)
    assert cmd_verify(parse_config(FULL.format(out=tmp_path))) == 3
    checks = {c["name"]: c for c in json.loads((tmp_path / "verify.json").read_text())["checks"]}
    raised = {name for name, c in checks.items() if "raised" in c}
    assert raised == {"poisson_zero_mass_error", "poisson_convergence_order_deviation",
                      "poisson_log_coefficient_error"}
    assert all(checks[name]["raised"] == "InvalidResolution" for name in raised)
    assert all(c["passed"] for name, c in checks.items() if name not in raised)
    assert ("check poisson_log_coefficient_error raised: the arrays of check "
            "poisson_log_coefficient_error are too large to allocate") in capsys.readouterr().err


def test_sweep_builds_no_seed_at_zero_amplitude(tmp_path, monkeypatch):
    # the zero row needs no seed; the unit-amplitude seed, built first, gives
    # the warnings, the constants and any config error of the seed
    from constraints2d import cli

    amplitudes = []
    config_seed = cli.config_seed
    monkeypatch.setattr(cli, "config_seed", lambda cfg, grid, amplitude=1.0: (
        amplitudes.append(amplitude) or config_seed(cfg, grid, amplitude)))
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    assert main(["sweep", str(path), "--amplitudes", "0,0.1"]) == 0
    assert amplitudes == [1.0, 0.1]


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
    summary = _strict_json((tmp_path / "sweep_summary.json").read_text())
    assert summary["alpha_coeff_extrapolated"] == pytest.approx(
        summary["alpha_coeff_expected"], rel=0.05)
    assert not [key for key in summary if key.endswith("_alt_normalization")]


def test_sweep_empty_list(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_sweep(cfg, []) == 1


@pytest.mark.parametrize("amplitudes", [[True], ["0.1"], [1e200]])
def test_sweep_rejects_non_real_amplitudes(tmp_path, capsys, amplitudes):
    # [True] used to run amplitude 1, "0.1" to end in a TypeError and 1e200,
    # whose square scales tau_tilde and b, in an OverflowError
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_sweep(cfg, amplitudes) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"output_dir": ""}, {"output_dir": None}, {"b": "x"}, {"b": True},
    {"udot_bumps": ["gauss amp=0.1"]}, {"solver": None}, {"K": 2}, {"delta": 0.5},
], ids=repr)
def test_run_config_validates_itself(tmp_path, change):
    # a RunConfig built by replace or in code obeys the config file's rules;
    # these used to end in a FileNotFoundError, TypeError or AttributeError
    # of the solve, run with b = 1, or raise a grid error outside the
    # ValidationError family
    cfg = parse_config(FULL.format(out=tmp_path))
    with pytest.raises(ValidationError):
        cmd_solve(replace(cfg, **change))


def test_sweep_zero_amplitude_row(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_sweep(cfg, [0.0]) == 0
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line and not line.startswith(("a,", "#"))]
    assert rows[0].startswith("0,0,0,0")


def test_verify_passes(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_verify(cfg) == 0
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert all(c["passed"] for c in checks)
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names)) == 8


def test_verify_delta_near_endpoint_warns(tmp_path, capsys):
    text = FULL.format(out=tmp_path).replace("delta = -0.5", "delta = -0.95")
    cfg = parse_config(text)
    assert cmd_verify(cfg) == 0
    assert "warning: delta_near_edge" in capsys.readouterr().err.splitlines()


def test_verify_on_a_grid_within_r_one_half_leaves_out_the_divergence_identity(tmp_path):
    # that identity is checked on the nodes with r > 0.5, none of which a
    # grid with R_max = 0.5 has: the check does not apply, as the far-field
    # Green's check does not below R_max = 45, and the other checks run
    text = (open(os.path.join(CONFIGS, "demo.cfg")).read().replace("R_max = 100.0", "R_max = 0.5")
            .replace("dir = out/demo", f"dir = {tmp_path}"))
    assert cmd_verify(parse_config(text)) == 3
    names = [c["name"] for c in json.loads((tmp_path / "verify.json").read_text())["checks"]]
    assert "divergence_identity_error" not in names and len(names) == 6


def test_verify_below_n_r_32_leaves_out_the_convergence_order(tmp_path):
    # the order compares the grid with its half, which needs N_r // 2 >= 16
    text = COARSE.format(out=tmp_path).replace("N_r = 64", "N_r = 24")
    cmd_verify(parse_config(text))
    names = [c["name"] for c in json.loads((tmp_path / "verify.json").read_text())["checks"]]
    assert "poisson_zero_mass_error" in names
    assert "poisson_convergence_order_deviation" not in names


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


BAD_CONFIGS = {
    "missing_grid_keys": "[grid]\nK = 8\n",
    "unresolved_bump": UNRESOLVED,
    "R_max_nan": FULL.replace("R_max = 60.0", "R_max = nan"),
    "R_max_inf": FULL.replace("R_max = 60.0", "R_max = inf"),
    # finite, but (r - 1)**4 of the cutoff overflowed as the grid was built
    "R_max_fourth_power_huge": FULL.replace("R_max = 60.0", "R_max = 1e78"),
    "bump_amp_nan": FULL.replace("udot = gauss amp=0.1", "udot = gauss amp=nan"),
    # finite, but its square overflows in the seed densities
    "bump_amp_huge": FULL.replace("udot = gauss amp=0.1", "udot = gauss amp=1e200"),
    # each bump finite, their sum not, also at sweep's tenth of the
    # amplitude: it overflowed in sample_analytic
    "bump_sum_huge": FULL.replace("udot = gauss amp=0.1",
                                  "\n".join(["udot = gauss amp=1e308"] * 20)),
    # tau_tilde enters no seed density, but its square overflows
    "tau_amp_huge": FULL.replace("tau_tilde = gauss amp=0.01", "tau_tilde = gauss amp=1e200"),
    "b_nan": FULL.replace("b = 0.03", "b = nan"),
    "b_inf": FULL.replace("b = 0.03", "b = inf"),
    "tol_inf": FULL.replace("tol_fixed_point = 1e-10", "tol_fixed_point = inf"),
    "empty_output_dir": FULL.replace("dir = {out}", "dir ="),
}


# every command rejects a bad config the same way, before any work; the
# solve cases carry the bare config name
@pytest.mark.parametrize("command, text", [
    pytest.param(command, text, id=name if command == ["solve"] else f"{command[0]}-{name}")
    for command in (["solve"], ["verify"], ["sweep", "--amplitudes", "0.1"])
    for name, text in BAD_CONFIGS.items()
])
def test_main_bad_config_exit1(tmp_path, capsys, command, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text.format(out=tmp_path / "out"))
    assert main([command[0], str(path), *command[1:]]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tau_too_large_for_the_solve_fails_it_without_a_traceback(tmp_path, capsys):
    # tau_tilde^2 is finite, so the seed is accepted, but the first iterate's
    # norm overflows: solve and sweep fail (2) and verify's selection check
    # fails (3), where a RuntimeWarning used to end each in a traceback
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out").replace(
        "tau_tilde = gauss amp=0.01", "tau_tilde = gauss amp=1e100"))
    assert main(["solve", str(path)]) == 2
    assert "non-finite iterate norm" in capsys.readouterr().err
    assert main(["verify", str(path)]) == 3
    checks = {c["name"]: c for c in
              _strict_json((tmp_path / "out" / "verify.json").read_text())["checks"]}
    assert [name for name, c in checks.items() if not c["passed"]] == [
        "rho_eta_selection_condition"]
    capsys.readouterr()
    assert main(["sweep", str(path), "--amplitudes", "1"]) == 2
    err = capsys.readouterr().err
    assert "amplitude 1.0: non-finite iterate norm" in err and "Traceback" not in err


_COMMANDS = [pytest.param(command, id=command[0])
             for command in (["solve"], ["verify"], ["sweep", "--amplitudes", "0.1"])]


@pytest.mark.skipif(codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
                    reason="a config is read in the locale's encoding, here not UTF-8")
@pytest.mark.parametrize("command", _COMMANDS)
def test_a_config_that_is_not_utf8_cannot_be_read(tmp_path, capsys, command):
    # its UnicodeDecodeError, a ValueError, used to end in a traceback
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe[grid]\n")
    assert main([command[0], str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: 'utf-8' codec can't decode") and err.count("\n") == 1


def _limit_address_space():
    """preexec_fn: 4 GiB of address space, so a grid's arrays of hundreds of
    GiB are refused on any host."""
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_grid_too_large_to_allocate_is_a_config_error(tmp_path, command):
    # the (K + 1, 4K) phases of K = 100000 take 298 GiB: numpy's MemoryError
    # as the grid was built used to end in a traceback; run in a process of
    # its own, under an address-space limit
    pytest.importorskip("resource")
    path = tmp_path / "big.cfg"
    path.write_text(FULL.format(out=tmp_path / "out").replace("K = 12", "K = 100000"))
    run = run_python("-m", "constraints2d.cli", command[0], str(path), *command[1:],
                     env={"PYTHONWARNINGS": "error::RuntimeWarning", "OPENBLAS_NUM_THREADS": "1"},
                     preexec_fn=_limit_address_space)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith(
        "config error: grid K = 100000, N_r = 192 is too large to allocate:"), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("command", _COMMANDS)
def test_seed_samples_too_large_to_allocate_are_a_config_error(tmp_path, command):
    # the grid of K = 2000, N_r = 100000 fits in 4 GiB, its (N_r, 4K)
    # samples of 6 GiB each do not: numpy's MemoryError in sample_analytic
    pytest.importorskip("resource")
    path = tmp_path / "big.cfg"
    path.write_text(FULL.format(out=tmp_path / "out").replace("K = 12", "K = 2000")
                    .replace("N_r = 192", "N_r = 100000").replace("R_max = 60.0", "R_max = 30.0"))
    run = run_python("-m", "constraints2d.cli", command[0], str(path), *command[1:],
                     env={"PYTHONWARNINGS": "error::RuntimeWarning", "OPENBLAS_NUM_THREADS": "1"},
                     preexec_fn=_limit_address_space)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("config error: the samples of grid K = 2000, N_r = 100000 "
                                 "are too large to allocate:"), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("amplitudes, message", [
    *(pytest.param(a, "finite nonnegative amplitudes", id=a)
      for a in ("nan", "inf", "0.1,nan", "0.1,0.1", "1e200")),
    pytest.param("0.1,abc", "bad amplitude list:", id="0.1,abc")])
def test_sweep_non_finite_amplitudes_exit1(tmp_path, capsys, amplitudes, message):
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    assert main(["sweep", str(path), "--amplitudes", amplitudes]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("var, value", [
    ("SOLVER_TOL", "abc"), ("SOLVER_MAX_ITER", "x"),
    ("SOLVER_MAX_ITER", "0"), ("SOLVER_TOL", "-1"), ("SOLVER_TOL", "inf"),
])
def test_main_bad_env_override_exit1(tmp_path, monkeypatch, capsys, var, value):
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    monkeypatch.setenv(var, value)
    assert main(["solve", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
@pytest.mark.parametrize("where", ["existing_file", "under_a_file"])
def test_unwritable_output_dir_exit1(tmp_path, capsys, command, where):
    # an output directory that cannot be created used to end in a raw
    # FileExistsError or NotADirectoryError traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "existing_file" else blocker / "out"
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=out))
    argv = [command, str(path)] + (["--amplitudes", "0,0.1"] if command == "sweep" else [])
    assert main(argv) == 1
    assert "cannot write output:" in capsys.readouterr().err


def test_verify_fails_on_an_unwritable_output_dir_before_any_check(tmp_path, monkeypatch, capsys):
    # the directory is created before the battery, so an unwritable one
    # fails at once instead of after every check has run
    from constraints2d import cli

    def never(*args, **kwargs):
        pytest.fail("a check ran before the output directory was created")
    monkeypatch.setattr(cli, "poisson_solve", never)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=blocker / "out"))
    assert main(["verify", str(path)]) == 1
    assert "cannot write output:" in capsys.readouterr().err


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("config", ["demo", "far"])
def test_solve_writes_the_percent_writers_bytes_in_one_process(tmp_path, monkeypatch, config):
    # each field CSV is the per-row `%.17g` writer's bytes for the field
    # cmd_solve passed to write_field_csv, and no process is forked for it
    from constraints2d import cli

    def no_fork():
        pytest.fail("cmd_solve forked")

    def recording_write(f, path):
        written.append((f, path))
        write(f, path)
    written, write = [], cli.write_field_csv
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "write_field_csv", recording_write)
    with open(os.path.join(CONFIGS, f"{config}.cfg")) as fh:
        cfg = parse_config(fh.read())
    assert cmd_solve(replace(cfg, output_dir=str(tmp_path))) == 0
    assert [os.path.basename(path) for _, path in written] == [
        "lambda_tilde.csv", "H_tilde_11.csv", "H_tilde_12.csv", "tau_breve.csv"]
    for f, path in written:
        with open(path, "rb") as fh:
            assert fh.read() == percent_csv_bytes(f), path
    _strict_json((tmp_path / "solution.json").read_text())  # no NaN or Infinity


@pytest.mark.parametrize("name", ["tau_breve", "lambda_tilde"])  # last, first written
def test_solve_reports_a_field_csv_it_cannot_write_and_leaves_no_child(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / f"{name}.csv").mkdir(parents=True)
    with open(os.path.join(CONFIGS, "demo.cfg")) as fh:
        text = fh.read().replace("dir = out/demo", f"dir = {out}")
    path = tmp_path / "demo.cfg"
    path.write_text(text)
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert "cannot write output:" in err and f"{name}.csv" in err
    _assert_no_child_left()


def test_module_entry_point_runs_without_runpy_warning():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "constraints2d.cli", "--help",
                      timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_main_solve(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    assert main(["solve", str(path)]) == 0
    assert (tmp_path / "out" / "solution.json").exists()


@pytest.mark.parametrize("error", ["NearSingularSelection", "NonDecayingRHS", "SingularSystem"])
def test_solver_error_in_solve_and_sweep_exits_2(tmp_path, monkeypatch, capsys, error):
    # any SolverError of the solve is a failed solve (exit 2 with the error
    # record, a NaN sweep row), not a traceback; a failed solve removes the
    # field CSVs an earlier run left in its output directory
    from constraints2d import errors, picard

    path = tmp_path / "run.cfg"
    path.write_text(FULL.format(out=tmp_path / "out"))
    csvs = [tmp_path / "out" / f"{name}.csv"
            for name in ("lambda_tilde", "H_tilde_11", "H_tilde_12", "tau_breve")]
    assert main(["solve", str(path)]) == 0
    assert all(csv.exists() for csv in csvs)

    def failing(*args, **kwargs):
        raise getattr(errors, error)("injected")
    monkeypatch.setattr(picard, "solve_rho_eta", failing)
    assert main(["solve", str(path)]) == 2
    data = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert data["error"] == error and data["message"] == "injected"
    assert not any(csv.exists() for csv in csvs)
    assert "solve failed: injected" in capsys.readouterr().err

    assert main(["sweep", str(path), "--amplitudes", "0,1"]) == 2
    rows = [line.split(",") for line in (tmp_path / "out" / "sweep.csv").read_text().splitlines()
            if line and not line.startswith(("a,", "#"))]
    assert rows[0][:4] == ["0", "0", "0", "0"]
    assert rows[1][1:4] == ["nan", "nan", "nan"] and rows[1][6] == "-1"


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 parsers do."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_verify_json_is_strict_when_a_check_raises(tmp_path, monkeypatch, capsys):
    from constraints2d import cli, errors

    def failing(*args, **kwargs):
        raise errors.SingularSystem("injected")
    monkeypatch.setattr(cli, "asymptotic_charges", failing)
    assert cmd_verify(parse_config(FULL.format(out=tmp_path))) == 3
    checks = {c["name"]: c for c in _strict_json((tmp_path / "verify.json").read_text())["checks"]}
    raised = checks["charge_roundtrip_error"]
    assert raised["value"] is None and not raised["passed"]
    assert all(c["passed"] for name, c in checks.items() if name != "charge_roundtrip_error")
    assert "[FAIL] charge_roundtrip_error: raised SingularSystem" in capsys.readouterr().out


# the half grid of this grid, N_r = 32, fails the log-profile flux check
COARSE = """
[grid]
K = 8
N_r = 64
R_max = 30.0
delta = -0.5

[seed]
udot = gauss amp=0.1

[output]
dir = {out}
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_charges_a_raise_to_the_check_that_raised(tmp_path, capsys):
    # the half grid's SingularSystem used to be filed as a second
    # poisson_zero_mass_error with tolerance 0, and no order entry was written
    path = tmp_path / "run.cfg"
    path.write_text(COARSE.format(out=tmp_path / "out"))
    assert main(["verify", str(path)]) == 3
    checks = _strict_json((tmp_path / "out" / "verify.json").read_text())["checks"]
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names))
    by_name = {c["name"]: c for c in checks}
    assert by_name["poisson_zero_mass_error"]["passed"]
    order = by_name["poisson_convergence_order_deviation"]
    assert order == {"name": "poisson_convergence_order_deviation", "value": None,
                     "tolerance": 0.3, "passed": False, "raised": "SingularSystem"}
    out, err = capsys.readouterr()
    assert ("[FAIL] poisson_convergence_order_deviation: raised SingularSystem (tol 3.000e-01)"
            in out)
    assert "check poisson_convergence_order_deviation raised: log-profile flux" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_on_too_coarse_a_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(COARSE.format(out=tmp_path / "out").replace("N_r = 64", "N_r = 32"))
    assert main(["solve", str(path)]) == 2
    assert "solve failed: log-profile flux" in capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "solution.json").read_text())["error"] == "SingularSystem"


@pytest.mark.parametrize("config", ["demo", "far"])
def test_verify_passes_on_the_shipped_configs(tmp_path, config):
    # far's solve stops at the rounding floor; every check still passes,
    # each is written once, and verify.json is strict JSON
    with open(os.path.join(CONFIGS, f"{config}.cfg")) as fh:
        cfg = parse_config(fh.read())
    assert cmd_verify(replace(cfg, output_dir=str(tmp_path))) == 0
    checks = _strict_json((tmp_path / "verify.json").read_text())["checks"]
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names)) == 8
    assert all(c["passed"] for c in checks)


def test_verify_records_selection_condition(tmp_path):
    cfg = parse_config(FULL.format(out=tmp_path))
    assert cmd_verify(cfg) == 0
    checks = {c["name"]: c for c in json.loads((tmp_path / "verify.json").read_text())["checks"]}
    sel = checks["rho_eta_selection_condition"]
    assert sel["tolerance"] == 1e8
    assert 1.0 <= sel["value"] < 1.1   # near (1 + 4c) I for these small data


# edge-of-range inputs: every value either end of what the grid, seed and
# solver accept, the bumps unresolvable, far out or strong
_EDGE_BUMPS = st.builds(
    "gauss amp={} x0={} y0={} w={}".format,
    st.sampled_from([0.0, 10.0, 1e200, 1e308]), st.sampled_from([0.0, 95.0, 500.0]),
    st.sampled_from([0.0, 95.0, 500.0]), st.sampled_from([0.01, 30.0]))


@st.composite
def _edge_config_text(draw):
    lines = ["[grid]",
             f"K = {draw(st.integers(1, 8))}",
             f"N_r = {draw(st.sampled_from([8, 16, 17, 64]))}",
             f"R_max = {draw(st.sampled_from([0.5, 1.0, 2.0, 5.0, 30.0, 1e6, 1e78, 1.7e308]))}",
             f"delta = {draw(st.sampled_from([-1e-12, -0.05, -0.95]))}",
             "[seed]",
             f"b = {draw(st.sampled_from([0.0, 50.0]))}"]
    for key in ("udot", "u", "tau_tilde"):
        lines += [f"{key} = {bump}" for bump in draw(st.lists(_EDGE_BUMPS, max_size=2))]
    return "\n".join(lines + ["[solver]", "max_iter = 3", "[output]", "dir = {out}", ""])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_edge_config_text())
def test_main_on_edge_configs_returns_a_documented_exit_code(text):
    # 0 success, 1 config error, 2 failed solve, 3 failed check; never a
    # traceback
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text.format(out=os.path.join(out, "out")))
        for command in ("solve", "verify"):
            code = main([command, path])
            assert code in (0, 1, 2, 3)
            if command == "solve" and code == 0:
                _assert_core_warning_iff_below_the_ramp_minimum(path)


def _assert_core_warning_iff_below_the_ramp_minimum(path):
    """A solve that exited 0 lists under_resolved_core exactly when its grid
    holds fewer nodes on the cutoff ramp r in [1, 2] than the minimum."""
    from constraints2d.cli import config_grid
    from constraints2d.fields import MIN_RAMP_NODES

    with open(path) as fh:
        cfg = parse_config(fh.read())
    with open(os.path.join(cfg.output_dir, "solution.json")) as fh:
        listed = "under_resolved_core" in json.load(fh)["warnings"]
    r = config_grid(cfg).r
    assert listed == (np.count_nonzero((r >= 1.0) & (r <= 2.0)) < MIN_RAMP_NODES)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(K=st.sampled_from([4, 8]), N_r=st.integers(96, 640),
       R_max=st.sampled_from([3.0, 30.0, 1e4, 1e6]))
def test_a_solve_names_a_core_its_grid_cannot_resolve(K, N_r, R_max):
    # the edge configs above stop at config errors or at max_iter = 3; these
    # small data solve, on either side of the ramp minimum
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.cfg")
        with open(path, "w") as fh:
            fh.write(MINIMAL.replace("K = 8", f"K = {K}").replace("N_r = 128", f"N_r = {N_r}")
                     .replace("R_max = 60.0", f"R_max = {R_max}")
                     + f"\n[output]\ndir = {os.path.join(out, 'out')}\n")
        assert main(["solve", path]) == 0
        _assert_core_warning_iff_below_the_ramp_minimum(path)
