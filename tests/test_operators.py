"""The workspace's band builders against a construction from scipy.sparse
products: the stencils as sp.diags matrices, Dr and the k = 0 Laplacian as
sparse products and sums, and the momentum family's products read back
diagonal by diagonal.  The two must agree array for array, column order
included, because a CSR product sums each row in its stored order."""

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


def _assert_same_csr(A, ref):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name


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

    def recording_splu(A, **kwargs):
        factored.append(A)
        return splu(A, **kwargs)

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
        assert A.format == "csc"
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
    A_csr = operators._csr(_row_bands(A))
    assert np.all(np.diff(A_csr.indices[A_csr.indptr[5]:A_csr.indptr[6]]) < 0)
    assert np.array_equal(got, _row_bands(A_csr @ sp.csr_matrix(B)))
    assert not np.array_equal(got, _row_bands(A_csr.sorted_indices() @ sp.csr_matrix(B)))


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
