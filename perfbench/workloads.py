"""Benchmark workloads: scenario presets with a seeded initial condition.

The seed perturbs only the generated block release (height by up to +-3 %,
position by up to 2 cells); the solver receives the resulting SimConfig.
"""

from dataclasses import dataclass, field

import numpy as np

from swmoment.sim import SimConfig, preset

DEFAULT_SEED = 0

_BLOCK = {"h": 0.08, "x_lo": 0.3, "x_hi": 0.5}
_TINY_J = 40
_TINY_TIMES = (0.02, 0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    example: int
    J: int
    snapshot_times: tuple
    why: str
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slip_semi", 1, 1000, (0.1, 0.15, 0.2),
            "Newton source solve with a finite-difference Jacobian, eigvals CFL and "
            "the profile writer; the only implicit workload",
            {"profile_resolution": 32},
        ),
        Workload(
            "muI_N2_explicit", 4, 200, (0.1, 0.15),
            "per-cell mu(I) N=2 bulk loop dominates; control for the CFL and Newton "
            "optimisations",
            {"N": 2},
        ),
        Workload(
            "muI_N6_runoff", 4, 400, (0.1, 0.15),
            "transport and CFL at matrix size 8, vectorized bulk quadrature, curved "
            "bed, and the slowest exact-rational basis build",
            {"N": 6, "bathymetry": "runoff"},
        ),
    )
}


def block_ic(seed: int, J: int, x_a: float = 0.0, x_b: float = 1.0) -> dict:
    """Block release jittered by the seed: height +-3 %, both edges shifted
    together by up to 2 cells. The width, and with it the wet-cell count that
    sets the cost of a step, stays fixed."""
    rng = np.random.default_rng(seed)
    shift = int(rng.integers(-2, 3)) * (x_b - x_a) / J
    return {
        "kind": "block",
        "h": _BLOCK["h"] * (1.0 + rng.uniform(-0.03, 0.03)),
        "x_lo": _BLOCK["x_lo"] + shift,
        "x_hi": _BLOCK["x_hi"] + shift,
    }


def make_config(name: str, seed: int, tiny: bool = False) -> SimConfig:
    """The workload's SimConfig for one seed; tiny shrinks it to a smoke test."""
    w = WORKLOADS[name]
    J = _TINY_J if tiny else w.J
    times = _TINY_TIMES if tiny else w.snapshot_times
    return preset(w.example, J=J, snapshot_times=times, ic=block_ic(seed, J),
                  **w.overrides)
