"""The compiled sample-space loops: bitwise their numpy passes, and the
numpy path wherever the library cannot be built, trusted or loaded."""

import ctypes
import json
import os
import platform
import shutil
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d import _kernels
from constraints2d.fields import build_grid, write_field_csv

from conftest import percent_csv_bytes, random_low_mode_field, rng, run_python
from test_picard import _PINNED, _PINNED_RESIDUALS, DEMO_CFG


@pytest.fixture(scope="module")
def loops():
    """Every compiled loop, loaded from the cache without the probe."""
    return _kernels._library()


def test_the_loops_load_and_pass_the_probe():
    assert _kernels.compiled()
    assert sorted(_kernels._passes) == ["h_dlambda", "hamiltonian_source", "singular_source"]
    assert sorted(_kernels._loops) == ["csv_lines", *sorted(_kernels._passes)]


def test_field_csvs_are_formatted_by_the_compiled_loop(tmp_path, monkeypatch):
    calls = []
    loop = _kernels._library()["csv_lines"]
    monkeypatch.setattr(_kernels, "_loops", {"csv_lines": lambda *a: calls.append(1) or loop(*a)})
    f = random_low_mode_field(build_grid(4, 1500, 10.0, -0.5), rng())
    write_field_csv(f, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == percent_csv_bytes(f)
    assert len(calls) == 5  # 2 rows of 1500 values a call, 9 rows


def test_threads_that_start_together_load_the_library_once(monkeypatch):
    calls = []
    library = _kernels._library
    monkeypatch.setattr(_kernels, "_library", lambda: calls.append(1) or library())
    monkeypatch.setattr(_kernels, "_loops", None)
    results = []
    threads = [threading.Thread(target=lambda: results.append(_kernels.compiled()))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 8 and calls == [1]


def _samples(rng, shape):
    """Normal values over nine decades, with about one in ten each a signed
    zero, a subnormal, and a value near 1e200, whose products overflow."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
    kind = rng.integers(0, 10, shape)
    x[kind == 0] = 0.0
    x[kind == 1] = -0.0
    x[kind == 2] = rng.standard_normal(np.count_nonzero(kind == 2)) * 1e-310
    x[kind == 3] = rng.choice([-1e200, 1e200], np.count_nonzero(kind == 3))
    return x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_kernels._passes)), K=st.integers(4, 32),
       N_r=st.integers(16, 80), seed=st.integers(0, 2**32 - 1))
def test_each_loop_gives_the_bytes_of_its_numpy_pass(loops, name, K, N_r, seed):
    # overflow included: inf and nan at the same places, every other
    # element bitwise equal
    layout, new, numpy_pass = _kernels._passes[name]
    shapes = {"c": (N_r, 1), "r": (4 * K,), "p": (N_r, 4 * K), "w": (N_r, 4 * K)}
    rng = np.random.default_rng(seed)
    args = [_samples(rng, shapes[kind]) for kind in layout]
    copies = [a.copy() if kind == "w" else a for a, kind in zip(args, layout)]
    with np.errstate(all="ignore"):
        out = _kernels._call(loops[name], layout, new, args)
        ref = numpy_pass(*copies)
    ref = (ref,) if new == 1 else ref or ()
    written = [(a, c) for a, c, kind in zip(args, copies, layout) if kind == "w"]
    assert len(out) == len(ref) == new
    for x, y in [*zip(out, ref), *written]:
        nan = np.isnan(y)
        assert np.array_equal(np.isnan(x), nan)
        assert x[~nan].tobytes() == y[~nan].tobytes()


# each numpy pass with one product multiplied out or its sums in another
# order: each loop's probe must refuse its own on its own
def _h_dlambda_reassociated(prof, c, s, L1, L2, T, A, B):
    lam1, lam2 = L1 + prof * c, L2 + prof * s
    return -(0.5 * T * lam1 + (A * lam1 + lam2 * B)), -((0.5 * T - A) * lam2 + lam1 * B)


def _singular_source_reassociated(cr, p4, q4, r1, u12, r2, L1, L2, P1, P2):
    P1 += p4 - (L1 * r1 * cr + L2 * u12 * cr)
    P2 += q4 - (L1 * u12 * cr - L2 * r2 * cr)


def _hamiltonian_source_reassociated(cr, hut, u11, u12, T, A, B, Q):
    return cr * (hut * T - 2.0 * (u11 * A + u12 * B)) - A * A - B * B + Q


_REASSOCIATED = {"h_dlambda": _h_dlambda_reassociated,
                 "singular_source": _singular_source_reassociated,
                 "hamiltonian_source": _hamiltonian_source_reassociated}


def test_the_probe_refuses_a_loop_that_differs_from_its_numpy_pass(loops):
    # every loop against its reassociated pass; the h_dlambda loop also
    # against its pass flushing subnormal results to zero and (where numpy's
    # long double is wider) rounding only once at the end, as an x87 loop
    # would
    h_dlambda = _kernels._passes["h_dlambda"][2]

    def flushed(*args):
        P = h_dlambda(*args)
        for x in P:
            x[np.abs(x) < np.finfo(float).tiny] = 0.0
        return P

    def extended(*args):
        return tuple(x.astype(float) for x in h_dlambda(*(a.astype(np.longdouble) for a in args)))

    assert all(_kernels._probe(loops[name], *spec) for name, spec in _kernels._passes.items())
    assert sorted(_REASSOCIATED) == sorted(_kernels._passes)
    for name, (layout, new, _) in _kernels._passes.items():
        assert not _kernels._probe(loops[name], layout, new, _REASSOCIATED[name]), name
    wider = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
    for wrong in (flushed, *[extended] * wider):
        assert not _kernels._probe(loops["h_dlambda"], "crrppppp", 2, wrong), wrong.__name__


def _build(tmp_path, flags, source=None):
    """The loops of _kernels.c (or of the C text source) built by cc with
    flags into tmp_path."""
    path = tmp_path / "kernels.c"
    path.write_text(source if source is not None else open(_kernels._SOURCE).read())
    run = subprocess.run(["cc", *flags, "-o", str(tmp_path / "kernels.so"), str(path)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return _kernels._bind(ctypes.CDLL(str(tmp_path / "kernels.so")))


def _fma_flags():
    """The build flags with contraction to fused multiply-adds, or None where
    this CPU has no such instruction."""
    flags = [f for f in _kernels._CFLAGS if f != "-ffp-contract=off"] + ["-ffp-contract=fast"]
    if platform.machine() in ("x86_64", "AMD64"):
        try:
            with open("/proc/cpuinfo") as fh:
                if " fma " not in fh.read().replace("\n", " "):
                    return None
        except OSError:
            return None
        flags.append("-mfma")
    return flags


@pytest.mark.skipif(shutil.which("cc") is None or _fma_flags() is None,
                    reason="no cc on PATH or no fused multiply-add")
def test_each_probe_refuses_a_fused_multiply_add_build(tmp_path):
    fused = _build(tmp_path, _fma_flags())
    for name, spec in _kernels._passes.items():
        assert not _kernels._probe(fused[name], *spec), name


# csv_lines with the fallback at a tie removed, so that a tie rounds down,
# or rounded up as well
_NO_TIE = ("    if (!(tie > 1e-9))\n        return 1;\n", "")
_CSV_MUTANTS = {"rounds ties down": [_NO_TIE],
                "rounds ties up": [_NO_TIE, ("(frac > 0.5)", "(frac >= 0.5)")]}


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
@pytest.mark.parametrize("mutant", sorted(_CSV_MUTANTS))
def test_the_probe_refuses_a_csv_loop_that_rounds_a_tie_itself(tmp_path, mutant):
    source = open(_kernels._SOURCE).read()
    for old, new in _CSV_MUTANTS[mutant]:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    assert _kernels._csv_probe(_kernels._library()["csv_lines"])
    assert not _kernels._csv_probe(_build(tmp_path, _kernels._CFLAGS, source)["csv_lines"])


def test_a_twin_runs_numpy_on_arrays_the_loops_do_not_take():
    # a strided plane, a read-only plane to update, and float32 samples all
    # fall back to the numpy pass, which raises or computes as numpy does
    from constraints2d.lichnerowicz import _hamiltonian_source
    from constraints2d.momentum import _singular_source

    rng = np.random.default_rng(1)
    col, row = rng.standard_normal((16, 1)), rng.standard_normal(16)
    A, B, T, Q = (rng.standard_normal((16, 32)) for _ in range(4))
    strided = [x[:, ::2] for x in (T, A, B, Q)]
    assert _hamiltonian_source(col, row, row, row, *strided).tobytes() == \
        _hamiltonian_source.__wrapped__(col, row, row, row, *(x.copy() for x in strided)).tobytes()
    small = _hamiltonian_source(*(x.astype(np.float32) for x in (col, row, row, row, *strided)))
    assert small.dtype == np.float32
    P1, P2 = A.copy(), B.copy()
    P1.setflags(write=False)
    col, row = np.ones((16, 1)), np.ones(32)
    with pytest.raises(ValueError, match="read-only"):
        _singular_source(col, col, col, row, row, row, A, B, P1, P2)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_the_source_builds_without_a_warning_under_strict_flags(tmp_path):
    # the loader discards cc's output and falls back to numpy on a failed
    # build, so a warning in _kernels.c shows only here
    run = subprocess.run(["cc", *_kernels._CFLAGS, "-Wall", "-Wextra", "-Wpedantic", "-Werror",
                          "-o", str(tmp_path / "kernels.so"), _kernels._SOURCE],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


_SOLVE = """
import json, sys
from dataclasses import astuple
from constraints2d import _kernels, cli
from constraints2d.picard import solve_constraints

cfg = cli.parse_config(open(sys.argv[1]).read())
b = solve_constraints(cli.config_seed(cfg, cli.config_grid(cfg)))
print(json.dumps({"compiled": _kernels.compiled(),
                  "answer": [[b.alpha.hex(), b.p.hex(), b.q.hex()],
                             [x.hex() for x in b.contraction_ratios]],
                  "residuals": [x.hex() for x in astuple(b.residuals)],
                  "modules": [m for m in ("hashlib", "subprocess") if m in sys.modules]}))
"""


def _solve(cache, **env):
    run = run_python("-c", _SOLVE, str(DEMO_CFG), env={"XDG_CACHE_HOME": str(cache), **env})
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    return json.loads(run.stdout)


def test_without_a_compiler_numpy_gives_the_pinned_answers(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    run = _solve(tmp_path / "cache", PATH=str(empty))
    assert not run["compiled"]
    assert tuple(run["answer"]) == _PINNED["demo"]
    assert run["residuals"] == _PINNED_RESIDUALS["demo"]
    assert os.listdir(tmp_path / "cache" / "constraints2d") == []


def test_a_warm_cache_loads_without_hashlib_or_subprocess(tmp_path):
    cold, warm = (_solve(tmp_path) for _ in range(2))
    assert cold["compiled"] and warm["compiled"]
    assert tuple(warm["answer"]) == _PINNED["demo"]
    assert warm["modules"] == []
    assert len(os.listdir(tmp_path / "constraints2d")) == 1


def test_two_processes_compiling_into_one_empty_cache_both_load(tmp_path):
    code = "from constraints2d import _kernels; print(_kernels.compiled())"
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(_kernels.__file__)),
                                          os.environ.get("PYTHONPATH", "")])}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert (p.returncode, out, err) == (0, "True\n", "")
    names = os.listdir(tmp_path / "constraints2d")
    assert len(names) == 1 and names[0].endswith(".so")


def test_the_cache_directory_is_made_private(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "new"))
    path = _kernels._cache_dir()
    assert path == str(tmp_path / "new" / "constraints2d")
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o700
    # XDG_CACHE_HOME unset or relative: ~/.cache
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert _kernels._cache_dir() == str(tmp_path / "home" / ".cache" / "constraints2d")


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_a_group_or_world_writable_cache_is_refused(tmp_path, monkeypatch, mode):
    path = tmp_path / "constraints2d"
    path.mkdir()
    path.chmod(mode)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(PermissionError):
        _kernels._cache_dir()


def test_a_cache_owned_by_another_user_is_refused(tmp_path, monkeypatch):
    (tmp_path / "constraints2d").mkdir(mode=0o700)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(os, "getuid", lambda: os.stat(tmp_path).st_uid + 1)
    with pytest.raises(PermissionError):
        _kernels._cache_dir()


def test_a_refused_cache_takes_the_numpy_path(tmp_path):
    (tmp_path / "constraints2d").mkdir()
    (tmp_path / "constraints2d").chmod(0o777)
    run = _solve(tmp_path)
    assert not run["compiled"]
    assert tuple(run["answer"]) == _PINNED["demo"]
    assert os.listdir(tmp_path / "constraints2d") == []
