"""Field representation on R^2 and the basic calculus used by the constraint solver.

A scalar function f(r, theta) is a truncated Fourier series in the polar
angle over a mapped radial grid,

    f(r, theta) = sum_{k=-K..K} c_k(r) e^{i k theta},   c_{-k} = conj(c_k),

stored as its rfft half-spectrum c_0..c_K (c_0 real).  In cos/sin terms
c_0 = a_0 and c_k = (a_k - i b_k)/2.  The radial nodes are uniform in
s = ln(1 + r).  The mapping resolves both the unit-scale cutoff region and
the far field with one uniform stencil; centered differences in s are second
order.

The module also owns the smooth cutoff chi (chi = 0 for r <= 1, chi = 1 for
r >= 2) together with its exact first and second derivatives.  Every profile
built from chi (chi ln r, its gradient, its Laplacian) is sampled from closed
forms, never differentiated numerically: the transition is steep enough that
finite differences across it would dominate every error budget.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DeltaOutOfRange,
    GridMismatch,
    InvalidResolution,
    UnresolvedSpec,
    UnsupportedOrder,
)

__all__ = [
    "Grid",
    "ScalarField",
    "TracelessSymTensorField",
    "GaussianBump",
    "SeedData",
    "build_grid",
    "validate_grid",
    "chi_profiles",
    "sample_analytic",
    "make_seed",
    "cartesian_gradient",
    "multiply",
    "integrate",
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

def _bump_g(x: np.ndarray) -> np.ndarray:
    """g(x) = exp(-1/x) for x > 0, extended by 0; C-infinity at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-4  # below this exp(-1/x) underflows anyway
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _bump_g1(x: np.ndarray) -> np.ndarray:
    """g'(x) = g(x)/x^2."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-4
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def _bump_g2(x: np.ndarray) -> np.ndarray:
    """g''(x) = g(x)(1/x^4 - 2/x^3)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-4
    xp = x[pos]
    out[pos] = np.exp(-1.0 / xp) * (1.0 / xp**4 - 2.0 / xp**3)
    return out


def _transition_psi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi, psi', psi'' for psi(x) = g(x) / (g(x) + g(1-x)).

    psi ramps from 0 at x <= 0 to 1 at x >= 1.  On (0, 1) the denominator is
    bounded below by exp(-2), so the quotient rule is numerically safe.
    """
    x = np.asarray(x, dtype=float)
    G, H = _bump_g(x), _bump_g(1.0 - x)
    G1, H1g = _bump_g1(x), _bump_g1(1.0 - x)  # H'(x) = -g'(1-x)
    G2, H2g = _bump_g2(x), _bump_g2(1.0 - x)  # H''(x) = g''(1-x)
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
    points.
    """

    K: int
    N_r: int
    R_max: float
    delta: float
    h: float = field(repr=False, default=0.0)
    s: np.ndarray = field(repr=False, default=None)
    r: np.ndarray = field(repr=False, default=None)
    # closed-form cutoff profiles on the nodes
    chi: np.ndarray = field(repr=False, default=None)
    dchi: np.ndarray = field(repr=False, default=None)
    d2chi: np.ndarray = field(repr=False, default=None)
    chiln: np.ndarray = field(repr=False, default=None)      # chi ln r
    dchiln: np.ndarray = field(repr=False, default=None)     # (chi ln r)'
    lap_chiln: np.ndarray = field(repr=False, default=None)  # Laplacian of chi ln r
    quad_w: np.ndarray = field(repr=False, default=None)     # weights in s on nodes 1..N

    @property
    def M(self) -> int:
        """Dealiased angular sample count."""
        return 4 * self.K

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.M) / self.M


def validate_grid(K: int, N_r: int, R_max: float, delta: float) -> None:
    """Raise DeltaOutOfRange if delta is not in (-1, 0) and InvalidResolution
    if K < 4 (mode 3theta unrepresentable), N_r < 16 or R_max <= 0."""
    if not (-1.0 < delta < 0.0):
        raise DeltaOutOfRange(f"delta must lie in (-1,0), got {delta}")
    if K < 4:
        raise InvalidResolution(f"K >= 4 required (3theta content), got {K}")
    if N_r < 16:
        raise InvalidResolution(f"N_r >= 16 required, got {N_r}")
    if R_max <= 0:
        raise InvalidResolution(f"R_max must be positive, got {R_max}")


def build_grid(K: int, N_r: int, R_max: float, delta: float) -> Grid:
    """Validate parameters (see validate_grid) and construct the collocation grid."""
    validate_grid(K, N_r, R_max, delta)
    h = np.log1p(R_max) / N_r
    s = h * np.arange(1, N_r + 1)
    r = np.expm1(s)
    r[-1] = R_max  # exact endpoint

    chi, dchi, d2chi = _chi_with_derivatives(r)
    lnr = np.log(r)
    chiln = chi * lnr
    dchiln = dchi * lnr + chi / r
    # Laplacian of chi ln r: chi'' ln r + 2 chi'/r + chi' ln r / r
    lap_chiln = d2chi * lnr + 2.0 * dchi / r + dchi * lnr / r

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

    g = Grid(K=K, N_r=N_r, R_max=float(R_max), delta=float(delta),
             h=h, s=s, r=r, chi=chi, dchi=dchi, d2chi=d2chi,
             chiln=chiln, dchiln=dchiln, lap_chiln=lap_chiln, quad_w=w)
    for arr in (g.s, g.r, g.chi, g.dchi, g.d2chi, g.chiln, g.dchiln,
                g.lap_chiln, g.quad_w):
        arr.setflags(write=False)
    return g


def chi_profiles(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi, chi', chi*ln r) sampled on the radial nodes."""
    return grid.chi, grid.dchi, grid.chiln


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
        if not np.all(np.isfinite(self.c)):
            raise ValueError("non-finite field coefficients")
        self.c.setflags(write=False)

    # -- cos/sin coefficients, computed on access -------------------------
    @property
    def a(self) -> np.ndarray:
        """(K+1, N_r) cos(k theta) coefficient profiles."""
        a = 2.0 * self.c.real.T
        a[0] = self.c[:, 0].real
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
        """Values on the (N_r, M) collocation grid, theta_j = 2 pi j / M.

        Exact for modes <= K < M/2; irfft zero-pads the spectrum to M."""
        return np.fft.irfft(self.c, n=self.grid.M, axis=-1, norm="forward")

    @staticmethod
    def from_samples(grid: Grid, samples: np.ndarray) -> "ScalarField":
        """Forward angular transform, truncated to K modes (dealiasing step)."""
        spec = np.fft.rfft(samples, axis=-1, norm="forward")
        return ScalarField(grid, spec[:, :grid.K + 1])

    def l_inf(self) -> float:
        return float(np.max(np.abs(self.to_samples()))) if self.grid.N_r else 0.0


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
    """amp * exp(-|x - (x0,y0)|^2 / w^2)."""

    amp: float
    x0: float = 0.0
    y0: float = 0.0
    w: float = 1.0


def parse_bump_line(text: str) -> GaussianBump:
    """Parse 'gauss amp=<v> x0=<v> y0=<v> w=<v>' (missing keys default)."""
    parts = text.split()
    if not parts or parts[0] != "gauss":
        raise ValueError(f"unknown bump kind in {text!r}")
    kw = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"malformed bump parameter {p!r}")
        key, val = p.split("=", 1)
        if key not in ("amp", "x0", "y0", "w"):
            raise ValueError(f"unknown bump parameter {key!r}")
        kw[key] = float(val)
    if "amp" not in kw:
        raise ValueError("bump needs amp=<value>")
    return GaussianBump(**kw)


def format_bump(b: GaussianBump) -> str:
    return f"gauss amp={b.amp:.17g} x0={b.x0:.17g} y0={b.y0:.17g} w={b.w:.17g}"


def sample_analytic(bumps: Sequence[GaussianBump], grid: Grid) -> ScalarField:
    """Sample a sum of Gaussian bumps through the dealiased angular transform.

    Raises UnresolvedSpec when a bump is narrower than 4 radial spacings near
    its center (the transform would alias).
    """
    r = grid.r
    th = grid.theta
    vals = np.zeros((grid.N_r, grid.M))
    for bump in bumps:
        rc = float(np.hypot(bump.x0, bump.y0))
        local_dr = grid.h * (1.0 + rc)
        if bump.w < 4.0 * local_dr:
            raise UnresolvedSpec(
                f"bump width {bump.w} < 4 radial spacings ({4*local_dr:.3g}) near r={rc:.3g}")
        if bump.amp == 0.0:
            continue
        x = r[:, None] * np.cos(th)[None, :]
        y = r[:, None] * np.sin(th)[None, :]
        vals += bump.amp * np.exp(-((x - bump.x0) ** 2 + (y - bump.y0) ** 2) / bump.w**2)
    f = ScalarField.from_samples(grid, vals)
    _warn_mode_irregularity(f)
    return f


def _warn_mode_irregularity(f: ScalarField, tol: float = 1e-8):
    """Mode-k coefficients must vanish like r^k at the inner edge.

    Violations signal under-resolved data; they are diagnostic only.
    """
    g = f.grid
    a, b = f.a, f.b
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    for k in range(1, g.K + 1):
        edge = max(abs(a[k, 0]), abs(b[k, 0]))
        # regular behavior bounds the first-node coefficient well below the peak
        if edge > tol * scale and edge > 10.0 * scale * g.r[0] ** min(k, 30):
            warnings.warn(
                f"mode-{k} coefficient at the inner node is {edge:.2e} "
                f"(field scale {scale:.2e}): data may be under-resolved",
                stacklevel=3)
            return


# ----------------------------------------------------------------------------
# calculus
# ----------------------------------------------------------------------------

def cartesian_gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """(d/dx1 f, d/dx2 f) via the mode-coupled polar formulas.

    d1 = cos(theta) d_r - sin(theta)/r d_theta,
    d2 = sin(theta) d_r + cos(theta)/r d_theta;
    modes couple k -> k +- 1, the radial derivative is the centered mapped
    stencil.  Output is truncated at mode K.  On the half-spectrum,
    up = (d1 + i d2) f and dn = (d1 - i d2) f; the one mode that comes from
    a negative one, up_0 from c_{-1} = conj(c_1), equals conj(dn_0).
    """
    from . import operators as ops

    w = ops.workspace(f.grid)
    up = ops.raise_mode(w, f.c)
    dn = ops.lower_mode(w, f.c)
    up[:, 0] = np.conj(dn[:, 0])
    return ScalarField(f.grid, 0.5 * (up + dn)), ScalarField(f.grid, -0.5j * (up - dn))


def multiply(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product, dealiased on the M = 4K angular sample grid."""
    _check_same_grid(f, g)
    return ScalarField.from_samples(f.grid, f.to_samples() * g.to_samples())


def integrate(f: ScalarField) -> float:
    """Plane integral of f; only mode 0 contributes.

    int f dx = 2 pi int a_0(r) r dr, computed in s = ln(1+r) with composite
    Simpson weights (the s = 0 endpoint carries integrand 0).
    """
    g = f.grid
    return float(2.0 * np.pi * np.sum(g.quad_w * f.c[:, 0].real * g.r * (1.0 + g.r)))


def radial_l2_weighted(f: ScalarField, gamma: float) -> float:
    """|| (1+|x|^2)^{gamma/2} f ||_{L^2}; the weight is radial."""
    g = f.grid
    # angular mean of f^2 by Parseval, |c_0|^2 + 2 sum |c_k|^2: exact, since
    # f^2 has modes <= 2K < M and the sampled mean would see them all
    mean_sq = f.c[:, 0].real ** 2 + 2.0 * np.sum(np.abs(f.c[:, 1:]) ** 2, axis=1)
    val = 2.0 * np.pi * np.sum(
        g.quad_w * mean_sq * (1.0 + g.r**2) ** gamma * g.r * (1.0 + g.r))
    return float(np.sqrt(max(val, 0.0)))


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


def tensor_sobolev_norm(H: TracelessSymTensorField, m: int, delta: float) -> float:
    """Componentwise weighted Sobolev norm of a traceless symmetric tensor."""
    return (weighted_sobolev_norm(H.h11, m, delta)
            + weighted_sobolev_norm(H.h12, m, delta))


def evaluate_field(f: ScalarField, points: Iterable[tuple[float, float]]) -> np.ndarray:
    """Evaluate at arbitrary Cartesian points (cubic radial interpolation)."""
    from scipy.interpolate import CubicSpline

    g = f.grid
    pts = np.asarray(list(points), dtype=float).reshape(-1, 2)
    rr = np.hypot(pts[:, 0], pts[:, 1])
    tt = np.arctan2(pts[:, 1], pts[:, 0])
    if np.any(rr > g.R_max):
        raise ValueError("evaluation point outside the radial grid")
    # points inside the first node evaluate at the node (fields are regular
    # there and mode-k coefficients vanish like r^k)
    sp = np.maximum(np.log1p(rr), g.s[0])
    ck = CubicSpline(g.s, f.c, axis=0)(sp)
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
    = (udot d_1 u, udot d_2 u), grad_tau_tilde and the smallness measure
    epsilon = int energy_density."""

    udot: ScalarField
    u: ScalarField
    tau_tilde: ScalarField
    b: float
    energy_density: ScalarField = field(init=False, repr=False)
    momentum_density: tuple[ScalarField, ScalarField] = field(init=False, repr=False)
    grad_tau_tilde: tuple[ScalarField, ScalarField] = field(init=False, repr=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        _check_same_grid(self.udot, self.u, self.tau_tilde)
        d1u, d2u = cartesian_gradient(self.u)
        energy = (multiply(self.udot, self.udot)
                  + multiply(d1u, d1u) + multiply(d2u, d2u))
        eps = integrate(energy)
        if not np.isfinite(eps) or eps < 0:
            raise ValueError(f"invalid smallness measure epsilon = {eps}")
        derived = dict(
            energy_density=energy,
            momentum_density=(multiply(self.udot, d1u), multiply(self.udot, d2u)),
            grad_tau_tilde=cartesian_gradient(self.tau_tilde),
            epsilon=float(eps))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> Grid:
        return self.udot.grid


def make_seed(udot: ScalarField, u: ScalarField, tau_tilde: ScalarField,
              b: float) -> SeedData:
    return SeedData(udot=udot, u=u, tau_tilde=tau_tilde, b=float(b))


# ----------------------------------------------------------------------------
# serialization: CSV rows `k, kind, r_1 .. r_N` with 17 significant digits
# ----------------------------------------------------------------------------

def write_field_csv(f: ScalarField, path) -> None:
    a, b = f.a, f.b
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        for k in range(f.grid.K + 1):
            wr.writerow([k, "cos"] + [f"{v:.17g}" for v in a[k]])
        for k in range(1, f.grid.K + 1):
            wr.writerow([k, "sin"] + [f"{v:.17g}" for v in b[k]])


def read_field_csv(path, grid: Grid) -> ScalarField:
    c = np.zeros((grid.N_r, grid.K + 1), dtype=complex)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            k, kind = int(row[0]), row[1]
            vals = np.array([float(v) for v in row[2:]])
            if vals.shape != (grid.N_r,):
                raise ValueError("field CSV does not match the grid")
            if kind == "cos":
                c[:, k] += vals if k == 0 else 0.5 * vals
            elif kind == "sin":
                c[:, k] -= 0.5j * vals
            else:
                raise ValueError(f"unknown row kind {kind!r}")
    return ScalarField(grid, c)
