"""Exact symmetries of the whole solve: oracles at the rounding scale for the
m <-> -m and conjugation conventions of every layer.

Rotating all the data by theta rotates (p, q) by theta; the mirror y -> -y
takes (p, q) to (p, -q); x -> -x takes it to (-p, q); the point reflection
to (-p, -q).  The wave data udot and u enter the constraints through their
squares, so flipping their sign changes nothing.  In each case alpha and rho
are unchanged, eta moves with (p, q), and Picard takes as many steps.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from constraints2d.fields import GaussianBump, build_grid, make_seed, sample_analytic
from constraints2d.picard import solve_constraints

_GRID = build_grid(8, 128, 100.0, -0.5)
# (udot, u, tau_tilde) bumps and b: the demo data, and data with no bump at
# the origin and a negative amplitude
_DATA = {
    "demo": ((GaussianBump(amp=0.1), GaussianBump(amp=0.1, x0=0.5, y0=0.3),
              GaussianBump(amp=0.01, w=2.0)), 0.02),
    "tilted": ((GaussianBump(amp=0.12, x0=-0.4, y0=0.7, w=1.3),
                GaussianBump(amp=-0.08, x0=0.9, y0=-0.2, w=0.8),
                GaussianBump(amp=0.02, x0=0.3, y0=0.1, w=1.5)), 0.04),
}
# bump centre and (p, q) maps of each mirror
_MIRRORS = {
    "none": lambda x, y: (x, y),
    "x": lambda x, y: (-x, y),
    "y": lambda x, y: (x, -y),
    "point": lambda x, y: (-x, -y),
}
_SOLVED = {}


def _solve(bumps, b):
    return solve_constraints(make_seed(*(sample_analytic([bump], _GRID) for bump in bumps), b=b))


def _moved(bump, mirror, theta):
    x, y = _MIRRORS[mirror](bump.x0, bump.y0)
    c, s = math.cos(theta), math.sin(theta)
    return replace(bump, x0=c * x - s * y, y0=s * x + c * y)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(data=st.sampled_from(sorted(_DATA)), mirror=st.sampled_from(sorted(_MIRRORS)),
       theta=st.one_of(st.sampled_from([0.0, math.pi / 2, 3 * 2 * math.pi / 64]),
                       st.floats(-math.pi, math.pi)),
       flip=st.booleans())
def test_rotations_mirrors_and_the_wave_sign_are_symmetries_of_the_solve(data, mirror, theta,
                                                                          flip):
    bumps, b = _DATA[data]
    if data not in _SOLVED:
        _SOLVED[data] = _solve(bumps, b)
    ref = _SOLVED[data]
    moved = [_moved(bump, mirror, theta) for bump in bumps]
    if flip:
        moved[:2] = [replace(bump, amp=-bump.amp) for bump in moved[:2]]
    sol = _solve(moved, b)

    assert sol.iterations == ref.iterations
    assert abs(sol.alpha - ref.alpha) <= 1e-13 * abs(ref.alpha)
    assert abs(sol.rho - ref.rho) <= 1e-13 * ref.rho
    p, q = _MIRRORS[mirror](ref.p, ref.q)
    c, s = math.cos(theta), math.sin(theta)
    assert math.hypot(sol.p - (c * p - s * q), sol.q - (s * p + c * q)) <= 1e-13 * ref.rho
    eta = math.atan2(q, p) + theta
    assert abs(math.remainder(sol.eta - eta, 2 * math.pi)) <= 1e-13
