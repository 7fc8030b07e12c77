"""Field representation on R^2 and the basic calculus used by the constraint solver.

A scalar function f(r, theta) is a truncated Fourier series in the polar
angle over a mapped radial grid,

    f(r, theta) = sum_{k=-K..K} c_k(r) e^{i k theta},   c_{-k} = conj(c_k),

stored as its half-spectrum c_0..c_K (c_0 real).  In cos/sin terms
c_0 = a_0 and c_k = (a_k - i b_k)/2.  The radial nodes are uniform in
s = ln(1 + r).  The mapping resolves both the unit-scale cutoff region and
the far field with one uniform stencil; centered differences in s are second
order.

Sampling on the M = 4K angles and the transform back are each one real
matrix product: the (N_r, 2(K+1)) float view of the half-spectrum, whose
columns are the (Re c_k, Im c_k) pairs, times the grid's (2(K+1), M)
inverse DFT matrix, and the samples times its (M, 2(K+1)) forward matrix,
which computes only modes 0..K.  At these sizes a product is cheaper than
an FFT.  Each grid also owns its operators.OperatorWorkspace (the radial
matrices and block factorizations), as the cached property Grid.workspace.

The module also owns the smooth cutoff chi (chi = 0 for r <= 1, chi = 1 for
r >= 2) together with its exact first and second derivatives.  Every profile
built from chi (chi ln r, its gradient, its Laplacian) is sampled from closed
forms, never differentiated numerically: the transition is steep enough that
finite differences across it would dominate every error budget.
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DeltaOutOfRange,
    GridMismatch,
    InvalidResolution,
    UnresolvedSpec,
    UnsupportedOrder,
    ValidationError,
)

__all__ = [
    "Grid",
    "ScalarField",
    "TracelessSymTensorField",
    "GaussianBump",
    "SeedData",
    "build_grid",
    "validate_grid",
    "sample_analytic",
    "make_seed",
    "cartesian_gradient",
    "multiply",
    "integrate",
    "log_coefficient",
    "weighted_sobolev_norm",
    "evaluate_field",
    "write_field_csv",
    "read_field_csv",
    "parse_bump_line",
    "format_bump",
]


# ----------------------------------------------------------------------------
# smooth cutoff
# ----------------------------------------------------------------------------

def _bump_g(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, g' = g/x^2 and g'' = g (1/x^4 - 2/x^3) for g(x) = exp(-1/x) at
    x > 0, extended by 0; C-infinity at 0."""
    x = np.asarray(x, dtype=float)
    g, g1, g2 = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    pos = x > 1e-4  # below this exp(-1/x) underflows anyway
    xp = x[pos]
    e = np.exp(-1.0 / xp)
    g[pos] = e
    g1[pos] = e / xp**2
    g2[pos] = e * (1.0 / xp**4 - 2.0 / xp**3)
    return g, g1, g2


def _transition_psi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi, psi', psi'' for psi(x) = g(x) / (g(x) + g(1-x)).

    psi ramps from 0 at x <= 0 to 1 at x >= 1.  On (0, 1) the denominator is
    bounded below by exp(-2), so the quotient rule is numerically safe.
    """
    x = np.asarray(x, dtype=float)
    G, G1, G2 = _bump_g(x)
    H, H1g, H2g = _bump_g(1.0 - x)  # H'(x) = -g'(1-x), H''(x) = g''(1-x)
    S = G + H
    inside = (x > 0.0) & (x < 1.0)
    psi = np.where(x >= 1.0, 1.0, 0.0)
    dpsi = np.zeros_like(x)
    d2psi = np.zeros_like(x)
    Si = S[inside]
    T = G1[inside] * H[inside] + G[inside] * H1g[inside]
    Tp = G2[inside] * H[inside] - G[inside] * H2g[inside]
    Sp = G1[inside] - H1g[inside]
    psi[inside] = G[inside] / Si
    dpsi[inside] = T / Si**2
    d2psi[inside] = Tp / Si**2 - 2.0 * T * Sp / Si**3
    return psi, dpsi, d2psi


def _chi_with_derivatives(r: np.ndarray):
    """(chi, chi', chi'') at the given radii; chi = psi(r - 1)."""
    return _transition_psi(np.asarray(r, dtype=float) - 1.0)


# ----------------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Fourier-in-theta x mapped-radial collocation grid.

    Radial nodes are uniform in s = ln(1+r): s_i = i*h, i = 1..N_r with
    h = ln(1+R_max)/N_r, so r_1 > 0 and r_{N_r} = R_max.  Angular content is
    truncated at mode K; nonlinear terms are dealiased on M = 4K sample
    points, reached through the DFT matrices built with the grid.  Only
    (K, N_r, R_max, delta) are passed in: construction validates them
    (validate_grid) and builds every other field read-only, so Grid(...),
    build_grid and dataclasses.replace are one path.
    """

    K: int
    N_r: int
    R_max: float
    delta: float
    h: float = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    # closed-form cutoff profiles on the nodes
    chi: np.ndarray = field(init=False, repr=False)
    dchi: np.ndarray = field(init=False, repr=False)
    chiln: np.ndarray = field(init=False, repr=False)      # chi ln r
    dchiln: np.ndarray = field(init=False, repr=False)     # (chi ln r)'
    lap_chiln: np.ndarray = field(init=False, repr=False)  # Laplacian of chi ln r
    quad_w: np.ndarray = field(init=False, repr=False)     # weights in s on nodes 1..N
    plane_row: np.ndarray = field(init=False, repr=False)  # l2_weight(grid, 0)
    chi_r: np.ndarray = field(init=False, repr=False)      # chi / r
    quarter_dchi_r: np.ndarray = field(init=False, repr=False)  # chi' / 4r
    dchi_lnr: np.ndarray = field(init=False, repr=False)   # chi' ln r
    # real DFT matrices on the (re, im) float view of a half-spectrum
    dft_inverse: np.ndarray = field(init=False, repr=False)  # (2(K+1), M)
    dft_forward: np.ndarray = field(init=False, repr=False)  # (M, 2(K+1))
    # [j, i]: row i of (u11, u12, ut) of momentum.singular_factors at (b, p, q) = e_j
    singular_rows: np.ndarray = field(init=False, repr=False)  # (3, 3, M)
    # momentum._couplings' (U1, U2, wc, w @ chi'/4r), the parts fixed by the grid
    coupling_terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        validate_grid(self.K, self.N_r, self.R_max, self.delta)
        with _allocation(f"grid K = {self.K}, N_r = {self.N_r} is"):
            derived = self._derived()
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _derived(self) -> dict:
        """The four fields passed in, as int and float, and every array built
        from them, read-only."""
        K, N_r, R_max = int(self.K), int(self.N_r), float(self.R_max)
        h = np.log1p(R_max) / N_r
        s = h * np.arange(1, N_r + 1)
        r = np.expm1(s)
        r[-1] = R_max  # exact endpoint

        chi, dchi, d2chi = _chi_with_derivatives(r)
        lnr = np.log(r)

        # composite Simpson in s over [0, s_N] (node s_0 = 0 carries r = 0, where
        # every radial integrand r*(1+r)*f vanishes); falls back to trapezoid for
        # odd N_r
        w = np.empty(N_r)
        if N_r % 2 == 0:
            w[0::2] = 4.0 / 3.0   # nodes 1,3,5,... (odd Simpson index)
            w[1::2] = 2.0 / 3.0
            w[-1] = 1.0 / 3.0
        else:
            w[:] = 1.0
            w[-1] = 0.5
        w *= h
        # the plane integral's row l2_weight(grid, 0), whose (1+r^2)^0 factor is 1
        plane = 2.0 * np.pi * w * r * (1.0 + r)

        # rows 2k, 2k+1 of E: cos(k theta_j) and -sin(k theta_j), the weights of
        # Re c_k and Im c_k in e^{i k theta_j}; the row of Im c_0 is zero
        M = 4 * K
        k = np.arange(K + 1)
        phase = (2.0 * np.pi / M) * (np.outer(k, np.arange(M)) % M)
        E = np.stack([np.cos(phase), -np.sin(phase)], axis=1).reshape(2 * K + 2, M)
        th = 2.0 * np.pi * np.arange(M) / M
        c1, s1, c2, s2, c3, s3 = (f(m * th) for m in (1, 2, 3) for f in (np.cos, np.sin))
        rows = np.array([[-0.5 * c2, -0.5 * s2, np.ones(M)],
                         [-0.25 * (c1 + c3), -0.25 * (s1 + s3), c1],
                         [-0.25 * (s3 - s1), -0.25 * (c1 - c3), s1]])

        quarter = dchi / (4.0 * r)
        u11, u12, ut = rows.transpose(1, 0, 2)  # rows of b, p, q each
        couplings = (np.concatenate([u11 + 0.5 * ut, u12]).T,
                     np.concatenate([u12, 0.5 * ut - u11]).T,
                     plane * chi / (-M * r), float(plane @ quarter))

        derived = dict(
            K=K, N_r=N_r, R_max=R_max, delta=float(self.delta), h=h, s=s, r=r, chi=chi, dchi=dchi,
            chiln=chi * lnr, dchiln=dchi * lnr + chi / r,
            lap_chiln=d2chi * lnr + 2.0 * dchi / r + dchi * lnr / r,
            quad_w=w, plane_row=plane, chi_r=chi / r, quarter_dchi_r=quarter, dchi_lnr=dchi * lnr,
            dft_inverse=np.repeat(np.where(k == 0, 1.0, 2.0), 2)[:, None] * E,
            dft_forward=E.T / M, singular_rows=rows, coupling_terms=couplings)
        for value in (*derived.values(), *couplings):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return derived

    @property
    def M(self) -> int:
        """Dealiased angular sample count."""
        return 4 * self.K

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.M) / self.M

    def _make_operators(self):
        """Grid.workspace: built on first use and freed with the grid."""
        from .operators import OperatorWorkspace

        with _allocation(f"the operators of grid K = {self.K}, N_r = {self.N_r} are"):
            return OperatorWorkspace(self)

    workspace = cached_property(_make_operators)


# the one real-number rule and the one integer rule of every setting; a bool is neither
def _is_real(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Real)


def _is_integer(n) -> bool:
    return not isinstance(n, bool) and isinstance(n, numbers.Integral)


@contextlib.contextmanager
def _allocation(what: str):
    """numpy's MemoryError ("Unable to allocate ...") in the block as
    InvalidResolution: `what` too large to allocate."""
    try:
        yield
    except MemoryError as exc:
        raise InvalidResolution(f"{what} too large to allocate: {exc}") from None


def validate_grid(K: int, N_r: int, R_max: float, delta: float) -> None:
    """Raise DeltaOutOfRange if delta is not a real number (bools included)
    in (-1, 0) and InvalidResolution if K or N_r is not an integer (bools
    included), K < 4 (mode 3theta unrepresentable), N_r < 16 or R_max is not
    a positive real number (bools included) with a finite fourth power, which
    the cutoff and the weights take: R_max < 2**256, about 1.158e77."""
    if not (_is_real(delta) and -1.0 < delta < 0.0):
        raise DeltaOutOfRange(f"delta must lie in (-1,0), got {delta!r}")
    for name, n in (("K", K), ("N_r", N_r)):
        if not _is_integer(n):
            raise InvalidResolution(f"{name} must be an integer, got {n!r}")
    if K < 4:
        raise InvalidResolution(f"K >= 4 required (3theta content), got {K}")
    if N_r < 16:
        raise InvalidResolution(f"N_r >= 16 required, got {N_r}")
    if not (_is_real(R_max) and 0 < R_max < 2.0**256):
        raise InvalidResolution(f"R_max must be positive and finite, below 2**256 so that "
                                f"R_max**4 is finite, got {R_max!r}")


def build_grid(K: int, N_r: int, R_max: float, delta: float) -> Grid:
    """The collocation grid; Grid validates (see validate_grid) and builds it."""
    return Grid(K, N_r, R_max, delta)


# ----------------------------------------------------------------------------
# scalar fields
# ----------------------------------------------------------------------------

def _check_same_grid(*fields):
    g0 = fields[0].grid
    for f in fields[1:]:
        if f.grid is not g0:
            raise GridMismatch("operands live on different grids")
    return g0


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Truncated Fourier series in theta over the radial nodes.

    c[:, k] holds the e^{i k theta} coefficient profile c_k(r), k = 0..K, of
    a real field (c_{-k} = conj(c_k) is implied).  Fields are immutable; all
    operations return new instances.
    """

    grid: Grid
    c: np.ndarray  # (N_r, K+1) complex

    def __post_init__(self):
        if self.c.shape != (self.grid.N_r, self.grid.K + 1):
            raise ValueError("coefficient array shape mismatch")
        c = self.c
        if c.dtype == np.complex128 and c.flags.c_contiguous:
            c = c.view(np.float64)  # finite iff both parts are: half the work
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite field coefficients")
        self.c.setflags(write=False)

    # -- cos/sin coefficients, computed on access -------------------------
    @property
    def a(self) -> np.ndarray:
        """(K+1, N_r) cos(k theta) coefficient profiles."""
        a = self.c.real.T.copy()
        a[1:] *= 2.0
        a.setflags(write=False)
        return a

    @property
    def b(self) -> np.ndarray:
        """(K+1, N_r) sin(k theta) coefficient profiles; row 0 is zero."""
        b = -2.0 * self.c.imag.T
        b[0] = 0.0
        b.setflags(write=False)
        return b

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zeros(grid: Grid) -> "ScalarField":
        return ScalarField(grid, np.zeros((grid.N_r, grid.K + 1), dtype=complex))

    @staticmethod
    def from_mode(grid: Grid, k: int, kind: str, profile: np.ndarray) -> "ScalarField":
        """Single-mode field: profile(r) * cos(k theta) or * sin(k theta).

        A complex profile w gives the real part of w(r) e^{i k theta} for
        "cos" and the imaginary part for "sin".
        """
        if not 0 <= k <= grid.K:
            raise InvalidResolution(f"mode {k} outside 0..{grid.K}")
        if kind == "sin":
            if k == 0:
                raise ValueError("sin mode 0 does not exist")
            profile = -1j * profile
        elif kind != "cos":
            raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
        c = np.zeros((grid.N_r, grid.K + 1), dtype=complex)
        c[:, k] = np.real(profile) if k == 0 else 0.5 * profile
        return ScalarField(grid, c)

    # -- linear algebra ---------------------------------------------------
    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.c + other.c)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.c - other.c)

    def __mul__(self, s: float) -> "ScalarField":
        return ScalarField(self.grid, s * self.c)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.c)

    # -- sampling ---------------------------------------------------------
    def to_samples(self) -> np.ndarray:
        """Values on the (N_r, M) collocation grid, theta_j = 2 pi j / M: the
        (re, im) view of the half-spectrum times the grid's inverse DFT
        matrix.  Exact for modes <= K < M/2; Im c_0 is ignored."""
        v = np.ascontiguousarray(self.c, dtype=complex).view(np.float64)
        return v @ self.grid.dft_inverse

    @staticmethod
    def from_samples(grid: Grid, samples: np.ndarray) -> "ScalarField":
        """Forward angular transform, truncated to K modes (dealiasing step)."""
        return ScalarField(grid, angular_modes(grid, samples))


def angular_modes(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Modes 0..K of the forward angular transform of (N_r, M) samples: the
    samples times the grid's forward DFT matrix, written into the (re, im)
    view of a new complex array, which owns its memory."""
    c = np.empty(samples.shape[:-1] + (grid.K + 1,), dtype=complex)
    np.matmul(samples, grid.dft_forward, out=c.view(np.float64))
    return c


@dataclass(frozen=True, eq=False)
class TracelessSymTensorField:
    """Symmetric traceless 2-tensor: H22 = -H11 and H21 = H12 by construction."""

    h11: ScalarField
    h12: ScalarField

    def __post_init__(self):
        _check_same_grid(self.h11, self.h12)

    @property
    def grid(self) -> Grid:
        return self.h11.grid

    @staticmethod
    def zeros(grid: Grid) -> "TracelessSymTensorField":
        return TracelessSymTensorField(ScalarField.zeros(grid), ScalarField.zeros(grid))

    def __add__(self, other):
        return TracelessSymTensorField(self.h11 + other.h11, self.h12 + other.h12)

    def __sub__(self, other):
        return TracelessSymTensorField(self.h11 - other.h11, self.h12 - other.h12)

    def __mul__(self, c: float):
        return TracelessSymTensorField(c * self.h11, c * self.h12)

    __rmul__ = __mul__

    def __neg__(self):
        return TracelessSymTensorField(-self.h11, -self.h12)


# ----------------------------------------------------------------------------
# analytic data ingestion
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """amp * exp(-|x - (x0,y0)|^2 / w^2); amp, x0 and y0 finite real numbers
    (not bools), w a finite and positive one (ValidationError)."""

    amp: float
    x0: float = 0.0
    y0: float = 0.0
    w: float = 1.0

    def __post_init__(self):
        values = (self.amp, self.x0, self.y0, self.w)
        if not (all(_is_real(v) and math.isfinite(v) for v in values) and self.w > 0):
            raise ValidationError(
                f"bump needs finite amp, x0, y0 and a finite w > 0, got {self!r}")


def parse_bump_line(text: str) -> GaussianBump:
    """Parse 'gauss amp=<v> x0=<v> y0=<v> w=<v>' (missing keys default)."""
    parts = text.split()
    if not parts or parts[0] != "gauss":
        raise ValueError(f"unknown bump kind in {text!r}")
    params = fields(GaussianBump)
    kw = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"malformed bump parameter {p!r}")
        key, val = p.split("=", 1)
        if key not in {f.name for f in params}:
            raise ValueError(f"unknown bump parameter {key!r}")
        kw[key] = float(val)
    for f in params:
        if f.default is MISSING and f.name not in kw:
            raise ValueError(f"bump needs {f.name}=<value>")
    return GaussianBump(**kw)


def format_bump(b: GaussianBump) -> str:
    return " ".join(["gauss", *(f"{f.name}={getattr(b, f.name):.17g}"
                                for f in fields(GaussianBump))])


def _seed_samples(what: str, form):
    """form(), an expression of the seed data, with numpy's overflow, invalid
    and divide warnings off; a ValidationError "<what> not finite" if it is not."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = form()
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} not finite: the seed data are too large")
    return x


def sample_analytic(bumps: Sequence[GaussianBump], grid: Grid) -> ScalarField:
    """Sample a sum of Gaussian bumps through the dealiased angular transform.

    Raises UnresolvedSpec when a bump is narrower than 4 radial spacings near
    its center (the transform would alias), and InvalidResolution when the
    grid's samples are too large to allocate.
    """
    for bump in bumps:
        rc = float(np.hypot(bump.x0, bump.y0))
        local_dr = grid.h * (1.0 + rc)
        if bump.w < 4.0 * local_dr:
            raise UnresolvedSpec(
                f"bump width {bump.w} < 4 radial spacings ({4*local_dr:.3g}) near r={rc:.3g}")
    with _allocation(f"the samples of grid K = {grid.K}, N_r = {grid.N_r} are"):
        x, y = (grid.r[:, None] * trig(grid.theta) for trig in (np.cos, np.sin))
        return ScalarField.from_samples(grid, _seed_samples(
            "the summed bump samples are", lambda: sum(
                (b.amp * np.exp(-((x - b.x0) ** 2 + (y - b.y0) ** 2) / b.w**2)
                 for b in bumps if b.amp), np.zeros((grid.N_r, grid.M)))))


def _mode_irregularity(f: ScalarField, tol: float = 1e-8) -> str | None:
    """Mode-k coefficients must vanish like r^k at the inner edge: the message
    naming the first mode that does not (under-resolved data), or None."""
    g = f.grid
    a, b = f.a, f.b
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    for k in range(1, g.K + 1):
        edge = max(abs(a[k, 0]), abs(b[k, 0]))
        # regular behavior bounds the first-node coefficient well below the peak
        if edge > tol * scale and edge / 10.0 > scale * g.r[0] ** min(k, 30):
            return (f"mode-{k} coefficient at the inner node is {edge:.2e} "
                    f"(field scale {scale:.2e}): data may be under-resolved")
    return None


# Fewer nodes than this on the cutoff ramp r in [1, 2] (about ln(3/2)/h) put
# the demo seed's alpha 1e-3 to 4x off (README); R_max should clear twice the
# larger of the ramp's end r = 2 and the seed's radius
MIN_RAMP_NODES = 21
R_MAX_MARGIN = 2.0


def _resolution_warnings(seed: "SeedData") -> tuple[str, ...]:
    """SeedData.warnings: the names, in a fixed order, of the rules of the grid
    and the seed that hit (README); none refuses a grid, and each irregular
    field is also a UserWarning.  The seed's radius is the largest node radius
    where a field has a mode coefficient above double rounding of its largest
    (about |centre| + 6 widths of a bump)."""
    g, data = seed.grid, (seed.udot, seed.u, seed.tau_tilde)
    irregular = [m for m in map(_mode_irregularity, data) if m]
    for message in irregular:
        warnings.warn(message, stacklevel=3)  # at the reader of SeedData.warnings
    sizes = (np.abs(f.c).max(axis=1) for f in data)
    radius = max(float(g.r[s > np.finfo(float).eps * s.max()].max(initial=0.0)) for s in sizes)
    return tuple(name for name, hit in (
        # where the theory's inversion constant degrades; the computed answer does not
        ("delta_near_edge", g.delta < -0.9 or g.delta > -0.1),
        ("under_resolved_core", np.count_nonzero((g.r >= 1.0) & (g.r <= 2.0)) < MIN_RAMP_NODES),
        ("r_max_near_cutoff", g.R_max < R_MAX_MARGIN * max(2.0, radius)),
        ("seed_under_resolved", bool(irregular))) if hit)


# ----------------------------------------------------------------------------
# calculus
# ----------------------------------------------------------------------------

def cartesian_gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """(d/dx1 f, d/dx2 f) via the mode-coupled polar formulas.

    d1 = cos(theta) d_r - sin(theta)/r d_theta,
    d2 = sin(theta) d_r + cos(theta)/r d_theta;
    modes couple k -> k +- 1, the radial derivative is the centered mapped
    stencil.  Output is truncated at mode K (operators.gradient_coefficients).
    """
    from . import operators as ops

    d1, d2 = ops.gradient_coefficients(f.grid.workspace, f.c)
    return ScalarField(f.grid, d1), ScalarField(f.grid, d2)


def multiply(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product, dealiased on the M = 4K angular sample grid."""
    _check_same_grid(f, g)
    return ScalarField.from_samples(f.grid, f.to_samples() * g.to_samples())


def integrate(f: ScalarField) -> float:
    """Plane integral of f; only mode 0 contributes.

    int f dx = 2 pi int a_0(r) r dr, computed in s = ln(1+r) with composite
    Simpson weights (the s = 0 endpoint carries integrand 0): the grid's
    quadrature row plane_row = l2_weight(grid, 0).
    """
    return float(f.grid.plane_row @ f.c[:, 0].real)


def log_coefficient(f1: ScalarField, f2: ScalarField) -> complex:
    """Complex log coefficient c = m e^{i phi} of the potential solve of the
    source (f1, f2).

    Pure quadrature, c = (1/2pi)(int f1 + i int f2): the exact coefficient of
    chi ln r in the potential pair, free of far-field fitting noise.
    """
    w = f1.grid.plane_row
    return complex(w @ f1.c[:, 0].real, w @ f2.c[:, 0].real) / (2.0 * np.pi)


def radial_l2_weighted(f: ScalarField, gamma: float) -> float:
    """|| (1+|x|^2)^{gamma/2} f ||_{L^2}; the weight is radial."""
    return weighted_l2(f.c, l2_weight(f.grid, gamma))


def l2_weight(g: Grid, gamma: float) -> np.ndarray:
    """Quadrature row of the (1+|x|^2)^gamma-weighted plane integral of a
    radial function: 2 pi w_i (1+r_i^2)^gamma r_i dr/ds."""
    return 2.0 * np.pi * g.quad_w * (1.0 + g.r**2) ** gamma * g.r * (1.0 + g.r)


def weighted_l2(c: np.ndarray, weight: np.ndarray) -> float:
    """sqrt(weight @ <f^2>) for the real field f with half-spectrum c, where
    <f^2> is the angular mean of f^2 on each radial node: with
    weight = l2_weight(grid, gamma) this is || (1+|x|^2)^{gamma/2} f ||_{L^2}."""
    # angular mean of f^2 by Parseval, c_0^2 + 2 sum_{k>=1} |c_k|^2 with c_0
    # real: exact, since f^2 has modes <= 2K < M and the sampled mean would
    # see them all
    v = np.ascontiguousarray(c).view(np.float64)  # (re, im) pairs
    mean_sq = 2.0 * np.einsum("ij,ij->i", v, v) - c[:, 0].real ** 2
    return float(np.sqrt(max(weight @ mean_sq, 0.0)))


def weighted_sobolev_norm(f: ScalarField, m: int, delta: float) -> float:
    """Sum over |beta| <= m of || (1+|x|^2)^{(delta+|beta|)/2} D^beta f ||_{L^2}.

    Supports m in {0, 1, 2}; raises UnsupportedOrder otherwise.
    """
    if m not in (0, 1, 2):
        raise UnsupportedOrder(f"m must be 0, 1 or 2, got {m}")
    total = radial_l2_weighted(f, delta)
    if m >= 1:
        d1, d2 = cartesian_gradient(f)
        total += radial_l2_weighted(d1, delta + 1.0)
        total += radial_l2_weighted(d2, delta + 1.0)
    if m == 2:
        d11, d12 = cartesian_gradient(d1)
        _, d22 = cartesian_gradient(d2)
        for gfield in (d11, d12, d22):
            total += radial_l2_weighted(gfield, delta + 2.0)
    return total


def radial_spline(g: Grid, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """scipy's CubicSpline(g.s, c, axis=0)(s) for the real or complex c: the
    not-a-knot cubic through each column, its end pieces extended.  On the
    uniform s grid its second derivatives M solve M[i-1] + 4 M[i] + M[i+1] =
    6 (c[i-1] - 2 c[i] + c[i+1]) / h^2 on rows 1..n-2, where not-a-knot
    (M[0] = 2 M[1] - M[2], and its mirror) leaves 6 M[i] on rows 1 and n-2."""
    h, n = g.h, len(c)
    d = (c[:-2] - 2.0 * c[1:-1] + c[2:]) * (6.0 / h**2)
    M = np.empty_like(d, shape=c.shape)
    M[1], M[-2], M[2:-2] = d[0] / 6.0, d[-1] / 6.0, d[1:-1]
    x = M[2:-2]  # rows 2..n-3: one tridiagonal sweep over all columns, in place
    x[0] -= M[1]
    x[-1] -= M[-2]
    piv = np.full(n - 4, 0.25)
    x[0] *= 0.25
    for i in range(1, n - 4):
        piv[i] = 1.0 / (4.0 - piv[i - 1])
        x[i] = (x[i] - x[i - 1]) * piv[i]
    for i in range(n - 6, -1, -1):
        x[i] -= piv[i] * x[i + 1]
    M[0], M[-1] = 2.0 * M[1] - M[2], 2.0 * M[-2] - M[-3]
    i = np.clip(np.searchsorted(g.s, s, side="right") - 1, 0, n - 2)
    a = ((g.s[i + 1] - s) / h)[:, None]  # the weight of node i; 1 - a that of node i + 1
    b = 1.0 - a
    return a * c[i] + b * c[i + 1] + (h * h / 6.0) * ((a**3 - a) * M[i] + (b**3 - b) * M[i + 1])


def evaluate_field(f: ScalarField, points: Iterable[tuple[float, float]]) -> np.ndarray:
    """Evaluate at arbitrary Cartesian points (cubic radial interpolation)."""
    g = f.grid
    pts = np.asarray(list(points), dtype=float).reshape(-1, 2)
    rr = np.hypot(pts[:, 0], pts[:, 1])
    tt = np.arctan2(pts[:, 1], pts[:, 0])
    if np.any(rr > g.R_max):
        raise ValueError("evaluation point outside the radial grid")
    # points inside the first node evaluate at the node (fields are regular
    # there and mode-k coefficients vanish like r^k)
    sp = np.maximum(np.log1p(rr), g.s[0])
    ck = radial_spline(g, f.c, sp)
    k = np.arange(g.K + 1)
    weight = np.where(k == 0, 1.0, 2.0)  # c_k and c_{-k} = conj(c_k)
    return np.real(np.sum(weight * ck * np.exp(1j * k * tt[:, None]), axis=1))


# ----------------------------------------------------------------------------
# seed data
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SeedData:
    """Given data (udot, u, tau_tilde, b) and, computed once on construction
    (never passed in), energy_density = udot^2 + |grad u|^2, momentum_density
    = (udot d_1 u, udot d_2 u), the seed-only momentum source
    momentum_source = -udot grad u + (1/2) grad tau_tilde with its
    log_coefficient source_log_coefficient, the read-only (N_r, M) samples
    tau_samples of tau_tilde and quarter_tau_squared of tau_tilde^2 / 4, and
    epsilon = int energy_density.  A b that is not a finite real number, or
    data too large (_seed_samples), is a ValidationError; b is kept as a float."""

    udot: ScalarField
    u: ScalarField
    tau_tilde: ScalarField
    b: float
    energy_density: ScalarField = field(init=False, repr=False)
    momentum_density: tuple[ScalarField, ScalarField] = field(init=False, repr=False)
    momentum_source: tuple[ScalarField, ScalarField] = field(init=False, repr=False)
    source_log_coefficient: complex = field(init=False, repr=False)
    tau_samples: np.ndarray = field(init=False, repr=False)
    quarter_tau_squared: np.ndarray = field(init=False, repr=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        if not (_is_real(self.b) and math.isfinite(self.b)):
            raise ValidationError(f"b must be a finite real number, got {self.b!r}")
        g = _check_same_grid(self.udot, self.u, self.tau_tilde)
        from . import operators as ops
        du = _seed_samples("grad u is", lambda: ops.gradient_coefficients(g.workspace, self.u.c))
        V, G1, G2 = (f.to_samples() for f in (self.udot, *(ScalarField(g, d) for d in du)))
        e = _seed_samples("the seed densities udot^2 + |grad u|^2 and udot grad u are",
                          lambda: V * V + G1 * G1 + G2 * G2)  # so |udot d_i u| <= e is finite
        energy = ScalarField.from_samples(g, e)
        eps = _seed_samples("their integral epsilon is", lambda: integrate(energy))
        density = (ScalarField.from_samples(g, V * G1), ScalarField.from_samples(g, V * G2))
        T = self.tau_tilde.to_samples()
        tau_squared = _seed_samples("the samples of tau_tilde^2 / 4 are", lambda: 0.25 * T * T)
        source = tuple(0.5 * dt - m for dt, m in zip(cartesian_gradient(self.tau_tilde), density))
        for samples in (T, tau_squared):
            samples.setflags(write=False)
        derived = dict(
            energy_density=energy,
            momentum_density=density,
            momentum_source=source,
            source_log_coefficient=log_coefficient(*source),
            tau_samples=T,
            quarter_tau_squared=tau_squared,
            epsilon=float(eps),
            b=float(self.b))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> Grid:
        return self.udot.grid

    # taken on first use and kept; the Picard loop never reads it
    warnings = cached_property(_resolution_warnings)


def make_seed(udot: ScalarField, u: ScalarField, tau_tilde: ScalarField,
              b: float) -> SeedData:
    return SeedData(udot=udot, u=u, tau_tilde=tau_tilde, b=b)


# ----------------------------------------------------------------------------
# serialization: CSV rows `k, kind, r_1 .. r_N` with 17 significant digits
# ----------------------------------------------------------------------------

def _csv_rows(K: int) -> list[tuple[int, str]]:
    """(k, kind) of each row of a field CSV, in file order."""
    return [(k, "cos") for k in range(K + 1)] + [(k, "sin") for k in range(1, K + 1)]


def write_field_csv(f: ScalarField, path) -> None:
    """Rows `k,kind,v_1,...,v_N` with every value as `%.17g` and
    csv.writer's CRLF line ends, formatted by _csv_lines about 4096 values
    at a time."""
    values = np.concatenate([f.a, f.b[1:]])
    labels = [f"{k},{kind}" for k, kind in _csv_rows(f.grid.K)]
    step = max(1, 4096 // f.grid.N_r)
    with open(path, "wb") as fh:
        for i in range(0, len(labels), step):
            fh.write(_csv_lines(values[i:i + step], labels[i:i + step]))


# %.17g without per-value Python work.  A value's text is cut from a 32-byte
# record of NUL-padded pieces: an 8-byte head (",", sign, "0." and leading
# zeros or the first digit and "."), digits 2..17 as four 4-digit groups
# (trailing zeros as NUL) and an 8-byte exponent ("e-05"); one boolean gather
# drops the NULs.  The 17-digit significand s = round(|x| 10^(16-X)) of a
# value 10^X <= |x| < 1 comes from a double-double product with 10^(16-X):
# |x| = m 2^e (m = frexp's mantissa) times (hi + lo) 2^t, with the table
# entries scaled by 2^(e+t) exactly and Dekker's exact product for m * hi,
# gives p + rem to within 1e-14 absolute.  Rounding to nearest is decided
# on rem.  Python's % formats, and the kernel splices in at its marker byte
# \1, every value >= 1 in magnitude and every value whose rem lies within
# 1e-9 of a tie or whose p lies within 64 of either end of [1e16, 1e17)
# (where an estimate of X from log10 one off also lands).  Zeros and every
# other value below 1, subnormals included, take the vectorized path.

def _pow10_table(k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, t) with 10^k = (hi + lo) 2^t, hi in [1, 2) holding the top 53
    bits and lo the correctly rounded rest, for k = k_lo..k_hi; exact
    integer arithmetic."""
    his, los, ts = [], [], []
    for k in range(k_lo, k_hi + 1):
        p = 10 ** k
        t = p.bit_length() - 1
        top = p >> (t - 52)
        his.append(top / 2.0 ** 52)
        los.append((p - (top << (t - 52))) / (1 << (t - 52)) / 2.0 ** 52)
        ts.append(t)
    return np.array(his), np.array(los), np.array(ts)


_P10_K0 = 17  # 16 - X for X = -1 .. -324, the decades of the doubles below 1
_P10_HI, _P10_LO, _P10_EXP = _pow10_table(_P10_K0, 340)


def _digit_words() -> np.ndarray:
    """[g + 10000 * strip]: the four ASCII digits of g = 0..9999 as one
    word, with its trailing zeros as NUL when strip."""
    g = np.arange(10000)
    d = (48 + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)).astype(np.uint8)
    kept = np.logical_or.accumulate(d[:, ::-1] != 48, axis=1)[:, ::-1]
    return np.concatenate([d, np.where(kept, d, 0).astype(np.uint8)]).view(np.uint32).ravel()


_DIGITS4 = _digit_words()
# heads by [code, negative, first digit]
_HEADS = ["0", "\1"] + ["0." + "0" * z + "%d" for z in range(4)] + ["%d.", "%d"]
_ZERO, _FALLBACK, _FIXED, _SCI_DOT, _SCI = 0, 1, 2, 6, 7  # _FIXED + z: z zeros after "0."
_HEAD = np.frombuffer(b"".join(
    ("," + "-" * (neg and code != _FALLBACK) + (h % d if "%" in h else h)).rjust(8, "\0").encode()
    for code, h in enumerate(_HEADS) for neg in (0, 1) for d in range(10)), np.uint64)
# [-X]: the exponent of a value below 1e-4, and [0] for none
_EXPONENT = np.frombuffer(b"\0" * 8 + b"".join(("e-%02d" % x).ljust(8, "\0").encode()
                                               for x in range(1, 341)), np.uint64)
_CRLF = np.frombuffer(b"\r\n".ljust(32, b"\0"), np.uint64)


def _csv_lines(values: np.ndarray, labels: list[str]) -> bytes:
    """`label,v_1,...,v_N\\r\\n` for each label and row of the (rows, N)
    float64 array values, every value exactly as `%.17g` formats it."""
    ax = np.abs(values)
    zero = ax == 0.0
    below_one = (ax < 1.0) & ~zero
    a = np.where(below_one, ax, 0.5)
    X = np.floor(np.log10(a)).astype(np.int64)  # 10^X <= a < 10^(X+1), or one off
    k = 16 - X - _P10_K0  # X >= -324 below 1
    m, e = np.frexp(a)
    scale = ((e + _P10_EXP[k] + 1023) << 52).view(np.float64)  # 2^(e + t), exact
    th = _P10_HI[k] * scale
    p = m * th
    c = 134217729.0 * m  # Dekker's split of m and th into 26-bit halves
    mh = c - (c - m)
    ml = m - mh
    c = 134217729.0 * th
    thh = c - (c - th)
    thl = th - thh
    # a 10^(16-X) = p + rem, rem = the rounding error of m * th plus m * lo 2^(e+t)
    rem = (((mh * thh - p) + mh * thl + ml * thh) + ml * thl) + m * (_P10_LO[k] * scale)
    whole = np.floor(rem)
    frac = rem - whole
    fast = below_one & (p > 1e16 + 64) & (p < 1e17 - 64) & (np.abs(frac - 0.5) > 1e-9)
    s = np.where(fast, p.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64), 0)
    # s = d1 g1 g2 g3 g4: its first digit and four groups of four
    hi = (s // 10 ** 8).astype(np.uint32)
    g34 = (s - hi.astype(np.int64) * 10 ** 8).astype(np.uint32)
    d1g1 = hi // 10 ** 4
    g2 = hi - d1g1 * 10 ** 4
    d1 = d1g1 // 10 ** 4
    g1 = d1g1 - d1 * 10 ** 4
    g3 = g34 // 10 ** 4
    g4 = g34 - g3 * 10 ** 4
    z4 = g4 == 0  # every digit after group 3, 2, 1 is zero
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)
    sci = fast & (X < -4)
    code = np.where(fast, np.where(sci, np.where(z2 & (g1 == 0), _SCI, _SCI_DOT), _FIXED - 1 - X),
                    np.where(zero, _ZERO, _FALLBACK))

    rows, n = values.shape
    buf = np.empty((rows, n + 2, 4), np.uint64)  # label, n value records, line end
    buf[:, 0] = np.array(labels, dtype="S32").view(np.uint64).reshape(rows, 4)
    buf[:, -1] = _CRLF
    rec = buf[:, 1:-1]
    words = buf.view(np.uint32)[:, 1:-1]
    rec[..., 0] = _HEAD[(code * 2 + np.signbit(values)) * 10 + d1]
    words[..., 2] = _DIGITS4[g1 + 10000 * z2]
    words[..., 3] = _DIGITS4[g2 + 10000 * z3]
    words[..., 4] = _DIGITS4[g3 + 10000 * z4]
    words[..., 5] = _DIGITS4[g4 + 10000]
    rec[..., 3] = _EXPONENT[np.where(sci, -X, 0)]
    text = buf.view(np.uint8).ravel()
    text = text[text != 0].tobytes()
    fallback = code == _FALLBACK
    if fallback.any():
        parts = text.split(b"\1")
        formatted = [b"%.17g" % v for v in values[fallback].tolist()] + [b""]
        text = b"".join(piece for pair in zip(parts, formatted) for piece in pair)
    return text


def read_field_csv(path, grid: Grid) -> ScalarField:
    """The field of a write_field_csv file, whose rows may come in any order.

    Raises ValueError naming the line for a row that is malformed, holds a
    nan or inf, does not match the grid, lies outside the half-spectrum or
    repeats an earlier row, and naming the mode for a row that is missing;
    writing and reading back gives the field bitwise."""
    c = np.zeros((grid.N_r, grid.K + 1), dtype=complex)
    v = c.view(np.float64)  # columns 2k, 2k+1: Re c_k, Im c_k
    expected = _csv_rows(grid.K)
    lines = {}  # (k, kind) -> line number
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            ln = reader.line_num
            try:
                k, kind = int(row[0]), row[1]
                vals = np.array([float(x) for x in row[2:]])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"line {ln}: malformed field CSV row ({exc})")
            if vals.shape != (grid.N_r,):
                raise ValueError(f"line {ln}: field CSV does not match the grid")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"line {ln}: non-finite value in field CSV row")
            if (k, kind) not in expected:
                raise ValueError(f"line {ln}: field CSV has no {kind} row at mode {k} "
                                 f"for K = {grid.K}")
            if (k, kind) in lines:
                raise ValueError(f"line {ln}: repeated {kind} row at mode {k} "
                                 f"(first on line {lines[k, kind]})")
            lines[k, kind] = ln
            if kind == "sin":
                v[:, 2 * k + 1] = -0.5 * vals
            else:
                v[:, 2 * k] = vals if k == 0 else 0.5 * vals
    for k, kind in expected:
        if (k, kind) not in lines:
            raise ValueError(f"field CSV is missing its {kind} row at mode {k}")
    return ScalarField(grid, c)
