"""Discrete radial/angular operator core shared by every solver module.

One first-derivative matrix Dr (centered in s = ln(1+r), second-order
one-sided end rows, mapped to d/dr) backs all gradients and divergences, so
operator identities used by the solvers hold at the matrix level:

  * the Cartesian gradient is assembled from the mode-raising operator
    A+ = d1 + i d2 and the mode-lowering operator A- = d1 - i d2, whose
    per-mode radial factors are D+_m = Dr - m/r and D-_m = Dr + m/r;
  * the momentum potential solve inverts M_m = D-_{m+1} D+_m, which is the
    exact per-mode factorization of divergence(symmetrized gradient); the
    divergence of the assembled tensor therefore reproduces the right-hand
    side to factorization accuracy, independent of truncation error.

Scalar Poisson problems use the tight mapped stencil
L_k = d2/dr2 + (1/r) d/dr - k^2/r^2 (second derivative from the 3-point
formula in s), which has the smaller truncation constant; it is mode-diagonal
and its own residual evaluator applies the identical matrices.

Boundary rows: the solvers replace the first and last collocation rows with
regularity/decay conditions, so residual norms are taken over the interior
rows where the PDE rows were imposed.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SingularSystem
from .fields import Grid, ScalarField, TracelessSymTensorField

# The key is the only reference to a grid here: a workspace must not hold its
# grid, or the grid (and with it the workspace) would never be collected.
_workspaces: "weakref.WeakKeyDictionary[Grid, OperatorWorkspace]" = weakref.WeakKeyDictionary()


def workspace(grid: Grid) -> "OperatorWorkspace":
    ws = _workspaces.get(grid)
    if ws is None:
        ws = OperatorWorkspace(grid)
        _workspaces[grid] = ws
    return ws


def _stencil_matrix(n: int, interior, edge, mirror: float) -> sp.csr_matrix:
    """Banded matrix: the 3-point ``interior`` stencil on rows 1..n-2, the
    one-sided ``edge`` stencil on row 0 (columns 0, 1, ...) and ``mirror``
    times it on row n-1 (columns n-1, n-2, ...)."""
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


def _first_derivative_s(n: int, h: float) -> sp.csr_matrix:
    """Centered d/ds with second-order one-sided end rows."""
    c = 1.0 / (2.0 * h)
    return _stencil_matrix(n, (-c, 0.0, c), (-3.0 * c, 4.0 * c, -c), -1.0)


def _second_derivative_s(n: int, h: float) -> sp.csr_matrix:
    """3-point d2/ds2 with second-order one-sided end rows."""
    c = 1.0 / h**2
    return _stencil_matrix(n, (c, -2.0 * c, c), (2.0 * c, -5.0 * c, 4.0 * c, -c), 1.0)


class OperatorWorkspace:
    """Per-grid matrices and cached factorizations."""

    def __init__(self, grid: Grid):
        n, h, r = grid.N_r, grid.h, grid.r
        self.K = grid.K
        self.r1, self.R_max = r[0], grid.R_max
        self.lap_chiln = grid.lap_chiln
        e1 = 1.0 / (1.0 + r)  # ds/dr

        Ds = _first_derivative_s(n, h)
        Dss = _second_derivative_s(n, h)
        E1 = sp.diags(e1)
        self.Dr = (E1 @ Ds).tocsr()
        # d2/dr2 = e^{-2s} (d2/ds2 - d/ds)
        self.Lr2 = (sp.diags(e1**2) @ (Dss - Ds)).tocsr()
        self.P = 1.0 / r
        self.P2 = self.P**2
        Pd = sp.diags(self.P)
        self.lap_base = (self.Lr2 + Pd @ self.Dr).tocsr()  # k = 0 Laplacian

        # wide (composed) pieces for the momentum factorization
        self.D2w = (self.Dr @ self.Dr).tocsr()
        self.PDw = (Pd @ self.Dr).tocsr()
        self.DPw = (self.Dr @ Pd).tocsr()

        # third-order one-sided d/dr rows used only in boundary-condition rows
        # (they do not change the interior scheme's order, only keep the
        # boundary truncation below the interior one)
        c6 = 1.0 / (6.0 * h)
        row = np.zeros(n)
        row[:4] = np.array([-11.0, 18.0, -9.0, 2.0]) * c6 * e1[0]
        self._bc_row_inner = row
        row = np.zeros(n)
        row[-4:] = np.array([-2.0, 9.0, -18.0, 11.0]) * c6 * e1[-1]
        self._bc_row_outer = row

        self._lap_solvers: dict[int, object] = {}
        self._mom_solvers: dict[int, object] = {}
        self._z: tuple[np.ndarray, float] | None = None

    def _factorize(self, A: sp.csr_matrix, k: int):
        """splu of A with its end rows replaced by the boundary rows of mode k.

        k = 0: v'(r_1) prescribed and the decay anchor v(R_max) = 0.
        k != 0: regularity v' = (|k|/r) v at r_1 and decay v' + (|k|/r) v = 0
        at R_max.
        """
        A = A.tolil()
        n = A.shape[0]
        row = self._bc_row_inner.copy()
        row[0] -= abs(k) / self.r1
        A[0] = row
        if k == 0:
            A[n - 1] = np.zeros(n)
            A[n - 1, n - 1] = 1.0
        else:
            row = self._bc_row_outer.copy()
            row[n - 1] += abs(k) / self.R_max
            A[n - 1] = row
        try:
            return splu(A.tocsc())
        except RuntimeError as exc:  # pragma: no cover
            raise SingularSystem(f"mode {k} factorization failed: {exc}")

    # -- scalar Laplacian --------------------------------------------------
    def lap_matrix(self, k: int) -> sp.csr_matrix:
        if k == 0:
            return self.lap_base
        return (self.lap_base - sp.diags(k * k * self.P2)).tocsr()

    def lap_solver(self, k: int):
        """Factorized L_k with regularity row at r_1 and decay row at R_max."""
        s = self._lap_solvers.get(k)
        if s is None:
            s = self._lap_solvers[k] = self._factorize(self.lap_matrix(k), k)
        return s

    # -- mode-0 flux-matched solve ------------------------------------------
    def farflux(self, vec: np.ndarray):
        """Discrete r v'(R_max) (the one-sided boundary derivative row)."""
        return self.R_max * (self._bc_row_outer @ vec)

    def _z_profile(self):
        """Cached anchored solve of  L0 z = Delta(chi ln r);  flux(z) ~ 1."""
        if self._z is None:
            solver = self.lap_solver(0)
            rhs = np.array(self.lap_chiln)
            rhs[0] = 0.0   # regularity row: the source vanishes at the inner edge
            rhs[-1] = 0.0  # anchor row
            z = solver.solve(rhs)
            ffz = float(self.farflux(z))
            if not 0.5 < ffz < 2.0:  # pragma: no cover
                raise SingularSystem(f"log-profile flux {ffz} far from 1")
            self._z = (z, ffz)
        return self._z

    def solve_mode0_flux_matched(self, rhs0: np.ndarray):
        """Anchored mode-0 solve with the residual far flux moved to the log.

        Returns (v, beta): v has r v'(R_max) = 0 in the discrete sense and the
        caller adds beta to its log coefficient, so the full solution still
        satisfies the discrete equation row by row.
        """
        solver = self.lap_solver(0)
        y = np.array(rhs0)
        y[0] = 0.5 * self.r1 * rhs0[0]   # regularity: v'(r1) = (r1/2) f(r1)
        y[-1] = 0.0
        v0 = solver.solve(y)
        z, ffz = self._z_profile()
        beta = self.farflux(v0) / ffz
        return v0 - beta * z, beta

    # -- momentum factorization --------------------------------------------
    def mom_matrix(self, m: int) -> sp.csr_matrix:
        """M_m = (Dr + (m+1)/r)(Dr - m/r), assembled from shared products."""
        return (self.D2w - m * self.DPw + (m + 1) * self.PDw
                - sp.diags(m * (m + 1) * self.P2)).tocsr()

    def mom_solver(self, m: int):
        s = self._mom_solvers.get(m)
        if s is None:
            s = self._mom_solvers[m] = self._factorize(self.mom_matrix(m), m)
        return s


# ----------------------------------------------------------------------------
# angular modes: column j of a mode array holds the e^{i m theta} coefficient
# with m = K + 1 - ncols + j, so the K+1 columns of a half-spectrum are modes
# 0..K and the 2K+1 columns of a full spectrum are modes -K..K
# ----------------------------------------------------------------------------

def _mode_numbers(w: "OperatorWorkspace", C: np.ndarray) -> np.ndarray:
    return np.arange(w.K + 1 - C.shape[1], w.K + 1)


def full_spectrum(f1: ScalarField, f2: ScalarField) -> np.ndarray:
    """Modes -K..K of F = f1 + i f2 (no conjugate symmetry in general),
    from c_{-m} = conj(c_m) for the real f1 and f2."""
    neg = np.conj(f1.c - 1j * f2.c)
    return np.concatenate([neg[:, :0:-1], f1.c + 1j * f2.c], axis=1)


def real_pair(grid: Grid, Z: np.ndarray) -> tuple[ScalarField, ScalarField]:
    """(f1, f2) with f1 + i f2 = F for the full spectrum Z of F."""
    pos, neg = Z[:, grid.K:], np.conj(Z[:, grid.K::-1])
    return ScalarField(grid, 0.5 * (pos + neg)), ScalarField(grid, -0.5j * (pos - neg))


def _radial_parts(w: OperatorWorkspace, C: np.ndarray):
    """(Dr C, (m/r) C) column by column: the two pieces of both mode shifts."""
    return w.Dr @ C, C * (w.P[:, None] * _mode_numbers(w, C))


def _raise(DC: np.ndarray, MC: np.ndarray) -> np.ndarray:
    out = np.zeros_like(DC)
    out[:, 1:] = DC[:, :-1] - MC[:, :-1]
    return out


def _lower(DC: np.ndarray, MC: np.ndarray) -> np.ndarray:
    out = np.zeros_like(DC)
    out[:, :-1] = DC[:, 1:] + MC[:, 1:]
    return out


def raise_mode(w: OperatorWorkspace, C: np.ndarray) -> np.ndarray:
    """(A+ C)_m = (Dr - (m-1)/r) C_{m-1}; content above mode K is dropped and
    the lowest mode, fed from outside the array, is left zero."""
    return _raise(*_radial_parts(w, C))


def lower_mode(w: OperatorWorkspace, C: np.ndarray) -> np.ndarray:
    """(A- C)_m = (Dr + (m+1)/r) C_{m+1}; content below the lowest mode is
    dropped and mode K, fed from above K, is left zero."""
    return _lower(*_radial_parts(w, C))


def raise_and_lower(w: OperatorWorkspace, C: np.ndarray):
    """(raise_mode(w, C), lower_mode(w, C)) from one radial derivative of C."""
    parts = _radial_parts(w, C)
    return _raise(*parts), _lower(*parts)


def divergence(H: TracelessSymTensorField) -> tuple[ScalarField, ScalarField]:
    """(d_i H_i1, d_i H_i2) via A- on zeta = H11 + i H12."""
    w = workspace(H.grid)
    return real_pair(H.grid, lower_mode(w, full_spectrum(H.h11, H.h12)))


def apply_laplacian(f: ScalarField) -> ScalarField:
    """Mode-diagonal discrete Laplacian (same matrices the scalar solves invert)."""
    w = workspace(f.grid)
    k2 = np.arange(f.grid.K + 1) ** 2
    return ScalarField(f.grid, w.lap_base @ f.c - k2 * (w.P2[:, None] * f.c))


def zero_boundary_rows(f: ScalarField) -> ScalarField:
    """Zero the first/last collocation nodes (where BC rows replace the PDE)."""
    c = f.c.copy()
    c[0] = c[-1] = 0.0
    return ScalarField(f.grid, c)
