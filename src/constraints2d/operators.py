"""Discrete radial/angular operator core shared by every solver module.

One first-derivative matrix Dr (centered in s = ln(1+r), second-order
one-sided end rows, mapped to d/dr) backs all gradients and divergences, so
operator identities used by the solvers hold at the matrix level:

  * the Cartesian gradient is assembled from the mode-raising operator
    A+ = d1 + i d2 and the mode-lowering operator A- = d1 - i d2, whose
    per-mode radial factors are D+_m = Dr - m/r and D-_m = Dr + m/r.  One
    kernel, raise_and_lower, gives both shifts from one real product Dr v
    and one (m/r) v on the float (re, im) view v of the mode array, so
    sparse Dr never meets complex data; the gradient uses both halves, the
    momentum potential's tensor its A+ half and the divergence its A- half;
  * the momentum potential solve inverts M_m = D-_{m+1} D+_m, which is the
    exact per-mode factorization of divergence(symmetrized gradient); the
    divergence of the assembled tensor therefore reproduces the right-hand
    side to factorization accuracy, independent of truncation error.

Scalar Poisson problems use the tight mapped stencil
L_k = d2/dr2 + (1/r) d/dr - k^2/r^2 (second derivative from the 3-point
formula in s), which has the smaller truncation constant; it is mode-diagonal
and elliptic.laplacian applies the identical matrices.

Boundary rows: the first and last collocation rows of every mode are
replaced with regularity/decay conditions, so residual norms are taken over
the interior rows where the PDE rows were imposed.

Bands and factorizations: every radial operator is built once, by numpy
arithmetic, as row bands, and _csr alone compresses them, as _CSR: Dr with
each row's columns descending, lap_base ascending, and the column arrays
SuperLU factors as the ascending rows of the transpose (_transposed).  Of
scipy the run path uses two compiled modules, loaded by file so that no scipy
Python package is imported: _sparsetools, for csr_matvecs and
csr_eliminate_zeros, and SuperLU's gstrf (splu).  Where that fails, the
public scipy.sparse packages serve instead, with bitwise the same results.
Each operator family (L_k for k = 0..K, M_m for m = -K..K-1) is one
block-diagonal system, built directly from the band arrays of its modes with
the boundary rows written in, and factored once per grid in the workspace
the grid owns (Grid.workspace).  A solve handles every mode of the family in
one call, with the real and imaginary parts as two right-hand-side columns.

Solve thread: SuperLU's solve releases the GIL, so a caller with other work
to do meanwhile (the Picard step's Hamiltonian branch, beside the momentum
solve) hands the solve to one thread that runs block solves, started on
first use.  Factorizations are made, and freed, on the calling thread only.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import queue
import threading

import numpy as np

from .errors import SingularSystem
from .fields import Grid, ScalarField, TracelessSymTensorField, _allocation, l2_weight

_OFFSETS = np.arange(-3, 4)  # the row bands B[j, i] = A[i, i + _OFFSETS[j]] of every operator
_MAIN = 3                     # index of the main diagonal in _OFFSETS


def _stencil(n: int, interior, edge, mirror: float) -> np.ndarray:
    """Row bands of the matrix with the 3-point ``interior`` stencil on rows
    1..n-2, the one-sided ``edge`` stencil on row 0 (columns 0, 1, ...) and
    ``mirror`` times it on row n-1 (columns n-1, n-2, ...)."""
    B = np.zeros((len(_OFFSETS), n))
    B[_MAIN - 1:_MAIN + 2, 1:-1] = np.array(interior)[:, None]
    B[_MAIN:_MAIN + len(edge), 0] = edge
    B[_MAIN + 1 - len(edge):_MAIN + 1, -1] = mirror * np.array(edge[::-1])
    return B


def _band_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row bands of A @ B at _OFFSETS, each entry summed over A's columns in
    descending order, as the CSR product sums it for A = _csr(A, descending=True)."""
    n = A.shape[1]
    Bp = np.pad(B, ((0, 0), (_MAIN, _MAIN)))  # Bp[:, _MAIN + k] holds row k of B
    C = np.zeros_like(A)
    for a in _OFFSETS[::-1]:  # A[i, i + a] B[i + a, i + o] adds to band o
        lo, hi = max(0, a), len(_OFFSETS) + min(0, a)
        C[lo:hi] += A[_MAIN + a] * Bp[lo - a:hi - a, _MAIN + a:_MAIN + a + n]
    return C


def _extension(name: str):
    """The compiled module scipy.<name>, loaded from its file in the directory
    that find_spec reports: it locates scipy without importing it."""
    scipy = importlib.util.find_spec("scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], *name.split(".")[:-1]),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.{name}")
    if spec is None:
        raise ImportError(f"no compiled scipy.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Loaded by file, the two kernels come without the roughly 400 modules that
# scipy.sparse.linalg imports.  They are private API, so the path is chosen
# once, here: where a file fails to load, or gstrf rejects splu's call (below),
# the public packages serve instead, with the same arrays and factorization.
try:
    _sparsetools = _extension("sparse._sparsetools")
    _gstrf = _extension("sparse.linalg._dsolve._superlu").gstrf
except (ImportError, OSError, AttributeError):  # AttributeError: no scipy, or no gstrf
    from scipy.sparse import _sparsetools
    _gstrf = None


class _CSR:
    """The compressed sparse row matrix whose row i holds data[indptr[i]:
    indptr[i+1]] in the columns indices[indptr[i]:indptr[i+1]] (also the
    compressed sparse column arrays of its transpose); its product calls the
    _sparsetools kernel that scipy's csr_matrix calls, as it does."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with the real or complex 2-d array x."""
        (M, N), k = self.shape, x.shape[1]
        out = np.zeros((M, k), dtype=np.result_type(self.data, x))
        _sparsetools.csr_matvecs(M, N, k, self.indptr, self.indices, self.data,
                                 x.ravel(), out.ravel())
        return out


def _csr(B: np.ndarray, descending: bool) -> _CSR:
    """The CSR matrix of the row bands B (0 off the matrix): its nonzeros, with
    each row's columns in descending order, the order a CSR product sums in,
    or in ascending order, scipy's sorted form."""
    w, n = B.shape
    order = slice(None, None, -1 if descending else 1)
    cols = np.add.outer(np.arange(n, dtype=np.int32), _OFFSETS[order].astype(np.int32))
    data, indices = B[order].T.flatten(), cols.clip(0, n - 1, out=cols).ravel()
    indptr = np.arange(0, n * w + 1, w, dtype=np.int32)
    # the zeros, the off-matrix ones (at a clipped column) among them
    _sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)
    return _CSR(data[:indptr[-1]], indices[:indptr[-1]], indptr, (n, n))


def _transposed(B: np.ndarray) -> np.ndarray:
    """Row bands of the transpose of the matrix with row bands B:
    T[j, i] = B[-1 - j, i + _OFFSETS[j]], 0 off the matrix.  The ascending
    CSR arrays of T are the compressed sparse column arrays of B's matrix."""
    n, T = B.shape[1], np.zeros_like(B)
    for j, o in enumerate(_OFFSETS):
        T[j, max(0, -o):n - max(0, o)] = B[-1 - j, max(0, o):n + min(0, o)]
    return T


def splu(A: _CSR):
    """SuperLU's factorization, in the natural column order and with panel
    size 1 (banded blocks gain nothing from panel updates, whose dense work
    arrays would set the process's peak memory), of the square matrix whose
    compressed sparse column arrays A holds: _csr(_transposed(B), False) of its
    row bands B.  gstrf gets the options that scipy.sparse.linalg.splu passes."""
    if _gstrf is None:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu as public_splu
        return public_splu(csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                           permc_spec="NATURAL", panel_size=1)
    options = dict(ColPerm="NATURAL", PanelSize=1, SymmetricMode=True)
    return _gstrf(A.shape[0], len(A.data), A.data, A.indices, A.indptr,
                  csc_construct_func=None, ilu=False, options=options)


if _gstrf is not None:
    try:  # the installed gstrf's signature, on the 2 x 2 identity
        splu(_CSR(np.ones(2), np.arange(2, dtype=np.int32), np.arange(3, dtype=np.int32), (2, 2)))
    except TypeError:
        _gstrf = None


# ----------------------------------------------------------------------------
# the solve thread
# ----------------------------------------------------------------------------

def _serve(tasks: queue.SimpleQueue) -> None:
    """The solve thread: run each task (solve, rhs, reply), putting
    (solve(rhs), None) or (None, the exception) on reply.  It drops the task
    before replying, and the caller holds the factorization until the reply,
    so the caller's thread frees it: scipy leaks a SuperLU factorization freed
    on a thread other than the one that made it."""
    while True:
        solve, rhs, reply = tasks.get()
        try:
            out = (solve(rhs), None)
        except BaseException as exc:  # raised again by the caller; never end the thread
            out = (None, exc)
        del solve, rhs
        reply.put(out)
        del out, reply


_tasks: queue.SimpleQueue | None = None  # the solve thread's inbox, once started
_tasks_lock = threading.Lock()


def _solve_thread() -> queue.SimpleQueue:
    """The inbox of the process's one solve thread, started on first use."""
    global _tasks
    with _tasks_lock:
        if _tasks is None:
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), name="constraints2d-solve",
                             daemon=True).start()
            _tasks = tasks
        return _tasks


def _forget_solve_thread() -> None:
    """In a forked child, which has no copy of the parent's solve thread: the
    child starts its own on first use."""
    global _tasks, _tasks_lock
    _tasks, _tasks_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_solve_thread)


def solve_beside(solve, rhs, meanwhile):
    """solve(rhs) while the calling thread runs meanwhile(), if not None:
    solve runs on the solve thread when there is a meanwhile, and inline
    otherwise.  The solve is always waited for; an exception of meanwhile,
    else of solve, reaches the caller."""
    if meanwhile is None:
        return solve(rhs)
    reply = queue.SimpleQueue()
    _solve_thread().put((solve, rhs, reply))
    try:
        meanwhile()
    finally:
        x, exc = reply.get()
    if exc is not None:
        raise exc
    return x


class OperatorWorkspace:
    """Per-grid matrices and the cached block factorization of each family;
    Grid.workspace builds it, and it holds no reference back to the grid."""

    def __init__(self, grid: Grid):
        n, h, r = grid.N_r, grid.h, grid.r
        self.K = grid.K
        self.r1, self.R_max = r[0], grid.R_max
        self.lap_chiln = grid.lap_chiln
        e1 = 1.0 / (1.0 + r)  # ds/dr

        # centered d/ds and 3-point d2/ds2, with second-order one-sided end rows
        c, c2 = 1.0 / (2.0 * h), 1.0 / h**2
        Ds = _stencil(n, (-c, 0.0, c), (-3.0 * c, 4.0 * c, -c), -1.0)
        Dss = _stencil(n, (c2, -2.0 * c2, c2), (2.0 * c2, -5.0 * c2, 4.0 * c2, -c2), 1.0)
        self.P = 1.0 / r
        self.P2 = self.P**2
        self._Dr = e1 * Ds
        # k = 0 Laplacian, with d2/dr2 = e^{-2s} (d2/ds2 - d/ds)
        self._lap0 = e1**2 * (Dss - Ds) + self.P * self._Dr
        # column order as summed when the answers were pinned: Dr descending, lap_base sorted
        self.Dr = _csr(self._Dr, descending=True)
        self.lap_base = _csr(self._lap0, descending=False)

        # third-order one-sided d/dr on the four end nodes, used only in
        # boundary-condition rows (they do not change the interior scheme's
        # order, only keep the boundary truncation below the interior one)
        c6 = 1.0 / (6.0 * h)
        self._bc_inner = np.array([-11.0, 18.0, -9.0, 2.0]) * c6 * e1[0]
        self._bc_outer = np.array([-2.0, 9.0, -18.0, 11.0]) * c6 * e1[-1]

        # row j is the quadrature of the (1+r^2)^{delta+j}-weighted L^2 norm,
        # j = 0, 1, 2: the weights of the Picard iteration's combined norm
        self.norm_weights = np.array([l2_weight(grid, grid.delta + j) for j in range(3)])

        self._lap = self._mom = None
        self._z: tuple[np.ndarray, float] | None = None
        # m/r for the mode m of each column of the (re, im) view of a full
        # spectrum, -K..K each twice; every mode array ends at mode K, so its
        # columns are the last ones
        self.m_over_r = self.P[:, None] * np.repeat(np.arange(-self.K, self.K + 1.0), 2)
        # read-only, as the grid's arrays: a caller's write would change every later solve
        for value in vars(self).values():
            for arr in ((value.data, value.indices, value.indptr) if isinstance(value, _CSR)
                        else (value,)):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)

    def _factorize(self, B: np.ndarray, modes: np.ndarray):
        """splu of the block-diagonal system whose block b has the row bands
        B[:, b] (overwritten) with its end rows replaced by the boundary rows
        of mode k = modes[b].

        k = 0: v'(r_1) prescribed and the decay anchor v(R_max) = 0.
        k != 0: regularity v' = (|k|/r) v at r_1 and decay v' + (|k|/r) v = 0
        at R_max.
        """
        k = np.abs(modes)
        B[:, :, 0] = 0.0
        B[_MAIN:_MAIN + 4, :, 0] = self._bc_inner[:, None]
        B[_MAIN, :, 0] -= k / self.r1
        B[:, :, -1] = 0.0
        B[_MAIN - 3:_MAIN + 1, :, -1] = self._bc_outer[:, None]
        B[_MAIN, :, -1] += k / self.R_max
        B[:, k == 0, -1] = 0.0
        B[_MAIN, k == 0, -1] = 1.0
        with _allocation(f"the factorization of {len(k)} blocks of {B.shape[2]} rows is"):
            A = _csr(_transposed(B.reshape(len(_OFFSETS), -1)), descending=False)
            try:
                return splu(A)
            except RuntimeError as exc:  # pragma: no cover
                raise SingularSystem(f"block factorization failed: {exc}")

    def lap_solver(self, K: int):
        """Factorized L_k = lap_base - k^2/r^2 for the modes k = 0..K, with
        their boundary rows, as one block system (K, the highest mode, is
        always the grid's)."""
        if self._lap is None:
            k = np.arange(self.K + 1)
            B = np.repeat(self._lap0[:, None], len(k), axis=1)
            B[_MAIN] -= (k * k)[:, None] * self.P2
            self._lap = self._factorize(B, k)
        return self._lap

    def mom_solver(self, K: int):
        """Factorized M_m = (Dr + (m+1)/r)(Dr - m/r) for the modes
        m = -K..K-1, with their boundary rows, as one block system (K is
        always the grid's)."""
        if self._mom is None:
            m = np.arange(-self.K, self.K)
            P = np.where(_OFFSETS[:, None] == 0, self.P, 0.0)  # the bands of diag(1/r)
            D2, DP, PD = (_band_product(A, B)[:, None] for A, B in
                          ((self._Dr, self._Dr), (self._Dr, P), (P, self._Dr)))
            B = D2 - m[:, None] * DP + (m + 1)[:, None] * PD
            B[_MAIN] -= (m * (m + 1))[:, None] * self.P2
            self._mom = self._factorize(B, m)
        return self._mom

    def solve_modes(self, solver, F: np.ndarray, j0: int, meanwhile=None) -> np.ndarray:
        """Solution of solver's block family for the complex sources F, one
        column per mode with mode 0 in column j0, in one call: the real and
        imaginary parts are the two columns of the right-hand side.
        meanwhile, if given, is called with no arguments while the block
        solve runs (solve_beside).

        The boundary rows are homogeneous except mode 0's regularity value
        v'(r_1) = (r_1/2) f(r_1).
        """
        Y = np.array([F.real.T, F.imag.T])  # block b of the (re, im) columns is Y[:, b]
        reg = 0.5 * self.r1 * Y[:, j0, 0]
        Y[:, :, 0] = Y[:, :, -1] = 0.0
        Y[:, j0, 0] = reg
        rhs = Y.reshape(2, -1).T  # Fortran-ordered, as SuperLU takes and returns it
        X = solve_beside(solver.solve, rhs, meanwhile)
        out = np.empty(F.shape, dtype=complex)
        out.real, out.imag = (X[:, j].reshape(Y.shape[1:]).T for j in (0, 1))
        return out

    # -- mode-0 flux matching -----------------------------------------------
    def farflux(self, vec: np.ndarray):
        """Discrete r v'(R_max) (the one-sided boundary derivative row)."""
        return self.R_max * (self._bc_outer @ vec[-4:])

    def z_profile(self):
        """Cached anchored mode-0 solve of  L0 z = Delta(chi ln r);  flux(z) ~ 1."""
        if self._z is None:
            F = np.zeros((len(self.lap_chiln), self.K + 1))
            F[:, 0] = self.lap_chiln
            z = self.solve_modes(self.lap_solver(self.K), F, 0)[:, 0].real.copy()
            z.setflags(write=False)  # as the other arrays: a write would move every alpha
            ffz = float(self.farflux(z))
            if not 0.5 < ffz < 2.0:
                raise SingularSystem(f"log-profile flux {ffz} far from 1")
            self._z = (z, ffz)
        return self._z


# ----------------------------------------------------------------------------
# angular modes: column j of a mode array holds the e^{i m theta} coefficient
# with m = K + 1 - ncols + j, so the K+1 columns of a half-spectrum are modes
# 0..K and the 2K+1 columns of a full spectrum are modes -K..K
# ----------------------------------------------------------------------------

def full_spectrum(f1: ScalarField, f2: ScalarField) -> np.ndarray:
    """Modes -K..K of F = f1 + i f2 (no conjugate symmetry in general),
    from c_{-m} = conj(c_m) for the real f1 and f2."""
    neg = np.conj(f1.c - 1j * f2.c)
    return np.concatenate([neg[:, :0:-1], f1.c + 1j * f2.c], axis=1)


def real_pair(grid: Grid, Z: np.ndarray) -> tuple[ScalarField, ScalarField]:
    """(f1, f2) with f1 + i f2 = F for the full spectrum Z of F."""
    pos, neg = Z[:, grid.K:], np.conj(Z[:, grid.K::-1])
    return ScalarField(grid, 0.5 * (pos + neg)), ScalarField(grid, -0.5j * (pos - neg))


def raise_and_lower(w: OperatorWorkspace, C: np.ndarray):
    """(A+ C, A- C) for the mode array C: (A+ C)_m = (Dr - (m-1)/r) C_{m-1}
    and (A- C)_m = (Dr + (m+1)/r) C_{m+1}.  Content shifted past either end
    is dropped, and the edge mode each shift would feed from outside the
    array (the lowest of A+ C, mode K of A- C) is zero.

    On the (re, im) float view v of C: one Dr v and one (m/r) v, whose
    difference and sum are shifted by one mode up and down.  The shifts run
    on the flattened rows, so each row's edge mode first takes its
    neighbour row's value, then is zeroed."""
    v = np.ascontiguousarray(C, dtype=complex).view(np.float64)
    dv = (w.Dr @ v).reshape(-1)
    mv = (w.m_over_r[:, -v.shape[1]:] * v).reshape(-1)
    up, dn = np.empty(C.shape, dtype=complex), np.empty(C.shape, dtype=complex)
    np.subtract(dv[:-2], mv[:-2], out=up.view(np.float64).reshape(-1)[2:])
    np.add(dv[2:], mv[2:], out=dn.view(np.float64).reshape(-1)[:-2])
    up[:, 0] = dn[:, -1] = 0.0
    return up, dn


def gradient_coefficients(w: OperatorWorkspace, c: np.ndarray):
    """Half-spectra (d1 f, d2 f) of the real field f with half-spectrum c,
    from one raise_and_lower: up = (d1 + i d2) f and dn = (d1 - i d2) f on
    modes 0..K, where the one mode of up fed from a negative mode, up_0 from
    c_{-1} = conj(c_1), equals conj(dn_0)."""
    up, dn = raise_and_lower(w, c)
    up[:, 0] = np.conj(dn[:, 0])
    d2 = up - dn
    d2 *= -0.5j
    up += dn
    up *= 0.5
    return up, d2


def divergence(H: TracelessSymTensorField) -> tuple[ScalarField, ScalarField]:
    """(d_i H_i1, d_i H_i2) via A- on zeta = H11 + i H12."""
    return real_pair(H.grid, raise_and_lower(H.grid.workspace, full_spectrum(H.h11, H.h12))[1])


def zero_boundary_rows(f: ScalarField) -> ScalarField:
    """Zero the first/last collocation nodes (where BC rows replace the PDE)."""
    c = f.c.copy()
    c[0] = c[-1] = 0.0
    return ScalarField(f.grid, c)
