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

Factorizations: each operator family (L_k for k = 0..K, M_m for
m = -K..K-1) is one block-diagonal system, built directly from the band
arrays of its modes with the boundary rows written in, and factored once
per grid in the workspace the grid owns (Grid.workspace).  A solve handles
every mode of the family in one call, with the real and imaginary parts as
two right-hand-side columns.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SingularSystem
from .fields import Grid, ScalarField, TracelessSymTensorField, l2_weight

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


_OFFSETS = np.arange(-3, 4)  # the bands of every operator and boundary row
_MAIN = 3                     # index of the main diagonal in _OFFSETS


def _bands(A: sp.spmatrix) -> np.ndarray:
    """Row-indexed bands of A: B[j, i] = A[i, i + _OFFSETS[j]], 0 off the matrix."""
    n = A.shape[0]
    B = np.zeros((len(_OFFSETS), n))
    for j, o in enumerate(_OFFSETS):
        B[j, max(0, -o):n - max(0, o)] = A.diagonal(o)
    return B


class OperatorWorkspace:
    """Per-grid matrices and the cached block factorization of each family;
    Grid.workspace builds it, and it holds no reference back to the grid."""

    def __init__(self, grid: Grid):
        n, h, r = grid.N_r, grid.h, grid.r
        self.K = grid.K
        self.r1, self.R_max = r[0], grid.R_max
        self.lap_chiln = grid.lap_chiln
        e1 = 1.0 / (1.0 + r)  # ds/dr

        Ds = _first_derivative_s(n, h)
        Dss = _second_derivative_s(n, h)
        self.Dr = (sp.diags(e1) @ Ds).tocsr()
        # d2/dr2 = e^{-2s} (d2/ds2 - d/ds)
        Lr2 = sp.diags(e1**2) @ (Dss - Ds)
        self.P = 1.0 / r
        self.P2 = self.P**2
        self.lap_base = (Lr2 + sp.diags(self.P) @ self.Dr).tocsr()  # k = 0 Laplacian

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
        B = B.reshape(len(_OFFSETS), -1)
        nt = B.shape[1]
        A = sp.diags([B[j, max(0, -o):nt - max(0, o)] for j, o in enumerate(_OFFSETS)],
                     _OFFSETS, format="csc")
        try:
            # panel_size=1: banded blocks gain nothing from panel updates, and
            # the dense (N, panel_size) work arrays of the default would set
            # the process's peak memory
            return splu(A, permc_spec="NATURAL", panel_size=1)
        except RuntimeError as exc:  # pragma: no cover
            raise SingularSystem(f"block factorization failed: {exc}")

    def lap_solver(self, K: int):
        """Factorized L_k = lap_base - k^2/r^2 for the modes k = 0..K, with
        their boundary rows, as one block system (K, the highest mode, is
        always the grid's)."""
        if self._lap is None:
            k = np.arange(self.K + 1)
            B = np.repeat(_bands(self.lap_base)[:, None], len(k), axis=1)
            B[_MAIN] -= (k * k)[:, None] * self.P2
            self._lap = self._factorize(B, k)
        return self._lap

    def mom_solver(self, K: int):
        """Factorized M_m = (Dr + (m+1)/r)(Dr - m/r) for the modes
        m = -K..K-1, with their boundary rows, as one block system (K is
        always the grid's)."""
        if self._mom is None:
            m = np.arange(-self.K, self.K)
            Pd = sp.diags(self.P)
            D2, DP, PD = (_bands(A)[:, None] for A in
                          (self.Dr @ self.Dr, self.Dr @ Pd, Pd @ self.Dr))
            B = D2 - m[:, None] * DP + (m + 1)[:, None] * PD
            B[_MAIN] -= (m * (m + 1))[:, None] * self.P2
            self._mom = self._factorize(B, m)
        return self._mom

    def solve_modes(self, solver, F: np.ndarray, j0: int) -> np.ndarray:
        """Solution of solver's block family for the complex sources F, one
        column per mode with mode 0 in column j0, in one call: the real and
        imaginary parts are the two columns of the right-hand side.

        The boundary rows are homogeneous except mode 0's regularity value
        v'(r_1) = (r_1/2) f(r_1).
        """
        Y = np.array([F.real.T, F.imag.T])  # block b of the (re, im) columns is Y[:, b]
        reg = 0.5 * self.r1 * Y[:, j0, 0]
        Y[:, :, 0] = Y[:, :, -1] = 0.0
        Y[:, j0, 0] = reg
        X = solver.solve(Y.reshape(2, -1).T)  # Fortran-ordered, as SuperLU takes and returns it
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
            ffz = float(self.farflux(z))
            if not 0.5 < ffz < 2.0:  # pragma: no cover
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
