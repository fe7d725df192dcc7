"""Frictionless dam break against Ritter's exact solution.

With zero viscosity (`newtonian_slip` with eta = 0, so tau_b = 0 and T = 0)
and alpha = 0 at the start, the moments stay exactly zero and the system is
the shallow-water system with gravity g = eps cos(theta). A block of depth
H0 on [X_LO, X_HI] then spreads as two Ritter fans (Ritter 1892), whose heads
run into the block at c0 = sqrt(g H0) until they meet at its middle. On the
incline the fans hold in the frame that moves with sin(theta) t^2 / 2.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from swmoment.sim import preset, run

H0, X_LO, X_HI = 0.08, 0.3, 0.5
# relative L1 error of h against the exact cell averages at CFL 0.5, as
# measured; a run may exceed its value by ERROR_MARGIN
CASES = {
    "flat": dict(theta=0.0, x_b=1.0, t=2.0,
                 errors={100: 0.0996, 200: 0.0687, 400: 0.0516, 800: 0.0377}),
    "incline_45deg": dict(theta=math.pi / 4, x_b=2.0, t=1.0,
                          errors={100: 0.717, 200: 0.425, 400: 0.288}),
}
ERROR_MARGIN = 0.05
# observed orders are 0.41-0.54 on the flat and 0.56-0.75 on the incline
MIN_ORDER = 0.35
RUNS = [(case, J) for case, spec in CASES.items() for J in spec["errors"]]


@lru_cache(maxsize=None)
def _solve(case: str, J: int):
    spec = CASES[case]
    cfg = preset(1, N=2, J=J, x_b=spec["x_b"], theta=spec["theta"], cfl=0.5,
                 friction_params={"lambda": 1e-5, "eta": 0.0},
                 ic={"kind": "block", "h": H0, "x_lo": X_LO, "x_hi": X_HI},
                 snapshot_times=(spec["t"],))
    return cfg, run(cfg)


def ritter_cell_averages(x: np.ndarray, dx: float, g: float, t: float,
                         shift: float) -> np.ndarray:
    """Exact mean depth at time t over the cells of centres x and width dx,
    for the block moved downslope by shift. Each mean is the difference of
    the exact mass between the block's middle and the cell's two edges."""
    c0 = math.sqrt(g * H0)
    x_hi = X_HI + shift
    mid = 0.5 * (X_LO + X_HI) + shift
    assert x_hi - c0 * t >= mid, "the two fans have met"

    def mass_right_of_mid(e):
        # the right fan h = (2 c0 - s/t)^2 / (9 g) on -c0 t < s = e - x_hi < 2 c0 t
        s = np.clip(e - x_hi, -c0 * t, 2.0 * c0 * t)
        fan = (t / (27.0 * g)) * ((3.0 * c0) ** 3 - (2.0 * c0 - s / t) ** 3)
        return H0 * (np.clip(e, mid, x_hi - c0 * t) - mid) + fan

    edges = np.append(x - 0.5 * dx, x[-1] + 0.5 * dx)
    # the left fan mirrors the right one about the middle
    mass = np.where(edges >= mid, mass_right_of_mid(np.maximum(edges, mid)),
                    -mass_right_of_mid(2.0 * mid - np.minimum(edges, mid)))
    return np.diff(mass) / dx


def _error(case: str, J: int) -> float:
    cfg, res = _solve(case, J)
    snap = res.snapshots[-1]
    t = snap.time
    exact = ritter_cell_averages(snap.x, snap.x[1] - snap.x[0], cfg.eps * math.cos(cfg.theta),
                                 t, 0.5 * math.sin(cfg.theta) * t * t)
    return float(np.sum(np.abs(snap.h - exact)) / np.sum(exact))


def test_ritter_cell_averages_hold_the_block_mass():
    x = np.linspace(0.0005, 0.9995, 1000)
    for t in (0.5, 1.0, 3.0):
        h = ritter_cell_averages(x, 0.001, 0.01, t, 0.0)
        assert np.sum(h) * 0.001 == pytest.approx(H0 * (X_HI - X_LO), rel=1e-12)
        assert np.all(h >= 0.0) and np.max(h) == pytest.approx(H0, rel=1e-12)


@pytest.mark.parametrize("case, J", RUNS)
def test_moments_stay_zero_and_mass_is_conserved(case, J):
    cfg, res = _solve(case, J)
    snap = res.snapshots[-1]
    assert np.max(np.abs(snap.alpha)) == 0.0
    dx = snap.x[1] - snap.x[0]
    inside = (snap.x >= X_LO) & (snap.x <= X_HI)
    mass0 = H0 * np.sum(inside) * dx
    assert snap.h[0] == 0.0 and snap.h[-1] == 0.0  # nothing left the domain
    # clamping negative depths at the fronts adds mass; on the flat it does not happen
    clamped = float(np.sum(res.diagnostics["clamped_mass"])) * dx
    if cfg.theta == 0.0:
        assert clamped == 0.0
    assert np.sum(snap.h) * dx == pytest.approx(mass0 + clamped, rel=1e-13)


@pytest.mark.parametrize("case, J", RUNS)
def test_depth_error_against_ritter(case, J):
    measured = CASES[case]["errors"][J]
    assert _error(case, J) <= measured * (1.0 + ERROR_MARGIN)


@pytest.mark.parametrize("case", CASES)
def test_depth_error_falls_with_J(case):
    Js = sorted(CASES[case]["errors"])
    errors = [_error(case, J) for J in Js]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= MIN_ORDER, f"observed orders {orders}"
