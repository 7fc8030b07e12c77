"""The workspace's band builders against a construction from scipy.sparse
products: the stencils as sp.diags matrices, Dr and the k = 0 Laplacian as
sparse products and sums, and the momentum family's products read back
diagonal by diagonal.  The two must agree array for array, column order
included, because a CSR product sums each row in its stored order.  The
workspace's own matrices (operators._CSR) enter scipy as matrices built from
their (data, indices, indptr): their products must give scipy's bits, and the
ascending arrays that _csr builds of a matrix's bands and of its transpose's
bands must be scipy's sorted and column forms of it."""

import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from constraints2d import operators
from constraints2d.fields import build_grid

_OFFSETS = operators._OFFSETS

GRIDS = [(16, 512, 100.0), (8, 4096, 1e6), (4, 16, 30.0), (5, 17, 2.0)]


def _sparse_stencil(n, interior, edge, mirror):
    """sp.diags matrix of the 3-point interior stencil with the one-sided
    edge stencil on row 0 and mirror times it on row n-1."""
    offsets = range(1 - len(edge), len(edge))
    bands = []
    for k in offsets:
        band = np.full(n - abs(k), interior[k + 1] if abs(k) <= 1 else 0.0)
        if k >= 0:
            band[0] = edge[k]
        if k <= 0:
            band[-1] = mirror * edge[-k]
        bands.append(band)
    return sp.diags(bands, offsets, format="csr")


def _row_bands(A):
    """B[j, i] = A[i, i + _OFFSETS[j]], read back with A.diagonal."""
    n = A.shape[0]
    B = np.zeros((len(_OFFSETS), n))
    for j, o in enumerate(_OFFSETS):
        B[j, max(0, -o):n - max(0, o)] = A.diagonal(o)
    return B


def _sparse_operators(grid):
    """(Dr, lap_base, bands of Dr Dr, Dr P and P Dr) built as sparse products."""
    n, h, r = grid.N_r, grid.h, grid.r
    e1 = 1.0 / (1.0 + r)
    c, c2 = 1.0 / (2.0 * h), 1.0 / h**2
    Ds = _sparse_stencil(n, (-c, 0.0, c), (-3.0 * c, 4.0 * c, -c), -1.0)
    Dss = _sparse_stencil(n, (c2, -2.0 * c2, c2), (2.0 * c2, -5.0 * c2, 4.0 * c2, -c2), 1.0)
    Dr = (sp.diags(e1) @ Ds).tocsr()
    P = sp.diags(1.0 / r)
    lap = (sp.diags(e1**2) @ (Dss - Ds) + P @ Dr).tocsr()
    return Dr, lap, [_row_bands(A) for A in (Dr @ Dr, Dr @ P, P @ Dr)]


def _scipy(A, kind=sp.csr_matrix):
    """The scipy matrix of the workspace matrix A's three arrays (kind is
    sp.csc_matrix for the column arrays that splu is handed)."""
    return kind((A.data, A.indices, A.indptr), shape=A.shape)


def _assert_same_csr(A, ref):
    # bitwise, dtypes included
    for name in ("data", "indices", "indptr"):
        got, want = getattr(A, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("K, N_r, R_max", GRIDS)
def test_band_builders_equal_the_sparse_construction(monkeypatch, K, N_r, R_max):
    grid = build_grid(K, N_r, R_max, -0.5)
    Dr, lap, (D2, DP, PD) = _sparse_operators(grid)

    factorized = []  # (bands as given, the same array after the boundary rows)
    factorize = operators.OperatorWorkspace._factorize

    def recording_factorize(self, B, modes):
        factorized.append((B.copy(), B))
        return factorize(self, B, modes)

    factored = []
    splu = operators.splu

    def recording_splu(A):
        factored.append(A)
        return splu(A)

    monkeypatch.setattr(operators.OperatorWorkspace, "_factorize", recording_factorize)
    monkeypatch.setattr(operators, "splu", recording_splu)
    ws = operators.OperatorWorkspace(grid)
    ws.lap_solver(K)
    ws.mom_solver(K)

    _assert_same_csr(ws.Dr, Dr)  # each row's columns descending, as the product stores them
    assert np.all(np.diff(ws.Dr.indices[ws.Dr.indptr[1]:ws.Dr.indptr[2]]) < 0)
    _assert_same_csr(ws.lap_base, lap)

    P2 = (1.0 / grid.r)**2
    k = np.arange(K + 1)
    lap_bands = np.repeat(_row_bands(lap)[:, None], K + 1, axis=1)
    lap_bands[operators._MAIN] -= (k * k)[:, None] * P2
    m = np.arange(-K, K)[:, None]
    mom_bands = D2[:, None] - m * DP[:, None] + (m + 1) * PD[:, None]
    mom_bands[operators._MAIN] -= m * (m + 1) * P2
    assert len(factorized) == len(factored) == 2
    for (given, final), ref, A in zip(factorized, (lap_bands, mom_bands), factored):
        assert np.array_equal(given, ref)
        A = _scipy(A, sp.csc_matrix)
        own = sp.diags([A.diagonal(o) for o in _OFFSETS], _OFFSETS, format="csc")
        flat = final.reshape(len(_OFFSETS), -1)
        nt = flat.shape[1]
        from_bands = sp.diags([flat[j, max(0, -o):nt - max(0, o)]
                               for j, o in enumerate(_OFFSETS)], _OFFSETS, format="csc")
        A = A.sorted_indices()
        for ref_A in (own, from_bands):
            ref_A.sort_indices()
            _assert_same_csr(A, ref_A)


def test_band_product_matches_the_dense_and_csr_products():
    rng = np.random.default_rng(7)
    n = 23
    near = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 3
    A, B = (np.where(near, rng.normal(size=(n, n)), 0.0) for _ in range(2))
    got = operators._band_product(_row_bands(A), _row_bands(B))
    ref = _row_bands(A @ B)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # summed in the order of the CSR product of A stored with descending columns
    A_csr = operators._csr(_row_bands(A), descending=True)
    assert np.all(np.diff(A_csr.indices[A_csr.indptr[5]:A_csr.indptr[6]]) < 0)
    assert np.array_equal(got, _row_bands(_scipy(A_csr) @ sp.csr_matrix(B)))
    # and not in the ascending order of the sorted form
    A_sorted = operators._csr(_row_bands(A), descending=False)
    _assert_same_csr(A_sorted, _scipy(A_csr).sorted_indices())
    assert not np.array_equal(got, _row_bands(_scipy(A_sorted) @ sp.csr_matrix(B)))


@pytest.mark.parametrize("K, N_r, R_max", GRIDS)
def test_csr_kernels_give_scipys_bits(K, N_r, R_max):
    # products with real and complex columns, and the ascending forms of the
    # bands and of their transpose's bands: scipy's sorted and column forms
    ws = build_grid(K, N_r, R_max, -0.5).workspace
    rng = np.random.default_rng(N_r)
    for A, bands in ((ws.Dr, ws._Dr), (ws.lap_base, ws._lap0)):
        ref = _scipy(A)
        for x in (rng.normal(size=(N_r, 2 * K + 2)),
                  rng.normal(size=(N_r, K + 1)) + 1j * rng.normal(size=(N_r, K + 1)),
                  np.asfortranarray(rng.normal(size=(N_r, 3)))):
            got, want = A @ x, ref @ x
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        _assert_same_csr(operators._csr(bands, descending=False), ref.sorted_indices())
        _assert_same_csr(operators._csr(operators._transposed(bands), descending=False),
                         ref.tocsc())


@pytest.mark.parametrize("name", [
    "Dr.data", "Dr.indices", "Dr.indptr", "lap_base.data", "lap_base.indices", "lap_base.indptr",
    "_Dr", "_lap0", "P", "P2", "m_over_r", "norm_weights", "_bc_inner", "_bc_outer",
    "z_profile"])
def test_workspace_arrays_are_read_only(name):
    # as the grid's: a write into, say, norm_weights would change every later
    # norm, and one into the cached z profile every later alpha
    arr = build_grid(4, 64, 30.0, -0.5).workspace  # N_r = 16 is too coarse for z_profile
    for attr in name.split("."):
        arr = getattr(arr, attr)
    if callable(arr):  # z_profile() -> (z, its far flux)
        arr = arr()[0]
    with pytest.raises(ValueError, match="read-only"):
        arr[..., 0] = 0


# a solve, the chosen kernel path and the scipy modules loaded, in a new process
_RUN = """
import hashlib, importlib.abc, importlib.machinery, json, sys

class Refused(importlib.machinery.ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError("refused")

loader = importlib.machinery.ExtensionFileLoader
if sys.argv[1] == "refused":  # every load by file in operators fails
    importlib.machinery.ExtensionFileLoader = Refused
from constraints2d import operators
importlib.machinery.ExtensionFileLoader = loader

import numpy as np
from constraints2d.cli import config_grid, config_options, config_seed, main, parse_config
from constraints2d.picard import solve_constraints

if sys.argv[1] == "cli":
    answer = main(sys.argv[2:])
else:
    cfg = parse_config(open(sys.argv[2]).read())
    b = solve_constraints(config_seed(cfg, config_grid(cfg)), config_options(cfg))
    h = hashlib.sha256()
    for f in (b.lambda_tilde, b.H_tilde.h11, b.H_tilde.h12):
        h.update(np.ascontiguousarray(f.c).tobytes())
    answer = [h.hexdigest(), b.alpha.hex(), b.p.hex(), b.q.hex(), b.iterations]
print(json.dumps({"by_file": operators._gstrf is not None, "answer": answer, "modules": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.testing"))}))
"""


def _run(*args):
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(operators.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", _RUN, *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


_SMALL = """
[grid]
K = 8
N_r = 128
R_max = 60.0
delta = -0.5

[seed]
udot = gauss amp=0.1 x0=0.0 y0=0.0 w=1.0
u = gauss amp=0.1 x0=0.5 y0=0.3 w=1.0

[output]
dir = {out}
"""


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_run_loads_scipys_two_kernels_and_no_scipy_package(tmp_path, command):
    # scipy.sparse, scipy.sparse.linalg, scipy._lib._array_api, numpy.testing
    # and, in verify's spline, scipy.interpolate are among those left out
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_SMALL.format(out=tmp_path / "out"))
    run = _run("cli", command, str(cfg))
    assert run["answer"] == 0
    if not run["by_file"]:
        pytest.skip("this scipy's kernels cannot be loaded by file; its packages serve")
    assert set(run["modules"]) <= {"scipy.sparse._sparsetools",
                                   "scipy.sparse.linalg._dsolve._superlu"}
    if command == "verify":  # the checks that use the spline ran
        checks = {c["name"]: c for c in json.loads((tmp_path / "out" / "verify.json").read_text())}
        assert checks["greens_farfield_error"]["passed"]


def test_the_public_packages_give_the_same_solve():
    # where scipy's kernels cannot be loaded by file, its public packages
    # serve, with the same matrices and factorizations: bitwise the same answer
    demo = os.path.join(os.path.dirname(__file__), "..", "configs", "demo.cfg")
    refused, default = _run("refused", demo), _run("default", demo)
    assert not refused["by_file"] and "scipy.sparse.linalg" in refused["modules"]
    assert refused["answer"] == default["answer"]
