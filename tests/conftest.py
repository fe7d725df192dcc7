import math

import numpy as np
import pytest

from swmoment.basis import build_basis
from swmoment.sim import SimConfig, build_model


@pytest.fixture(scope="session")
def basis1():
    return build_basis(1)


@pytest.fixture(scope="session")
def basis2():
    return build_basis(2)


@pytest.fixture(scope="session")
def basis3():
    return build_basis(3)


@pytest.fixture(scope="session")
def basis6():
    return build_basis(6)


def random_wet_primitive(rng, N, M, h_range=(1e-3, 0.1), vel_scale=1.0):
    """Random wet primitive rows (h, u_m, alpha_1..alpha_N)."""
    P = np.empty((M, N + 2))
    P[:, 0] = 10.0 ** rng.uniform(np.log10(h_range[0]), np.log10(h_range[1]), M)
    P[:, 1] = vel_scale * rng.uniform(-1.0, 1.0, M)
    P[:, 2:] = vel_scale * rng.uniform(-1.0, 1.0, (M, N)) * 0.5 ** np.arange(N)
    return P


# SI scales of the config-built models below (the Example-4 granular ones)
SCALES = dict(H=0.1, L=10.0, g=9.81, theta=math.pi / 4, rho=1550.0, rho_s=2500.0)
GRAN_PARAMS = {"mu_s": 0.48, "mu_2": 0.73, "i0": 0.279, "d_s": 7e-4}
DELTA, PHI = math.radians(15.0), math.radians(20.0)
# the parameters of each mu(I) name besides GRAN_PARAMS
GRAN_BOTTOM = {"mu_i_slip": {"lambda": 1e-4, "eta": 0.001}, "mu_i_manning": {"manning_n": 0.0165},
               "mu_i_coulomb": {"delta": DELTA}, "mu_i": {}}
# every friction name
CONFIG_CASES = {
    "newtonian_slip": ("newtonian_slip", {"lambda": 1e-5, "eta": 0.01}),
    "newtonian_manning": ("newtonian_manning", {"manning_n": 0.0165, "eta": 0.01}),
    "savage_hutter": ("savage_hutter", {"delta": DELTA, "phi_int": PHI}),
    "coulomb": ("coulomb", {"delta": DELTA, "mu": 0.4}),
    **{name: (name, dict(GRAN_PARAMS, **keys)) for name, keys in GRAN_BOTTOM.items()},
}
# the bottom law of each mu(I) name; its cases keep the test ids they had when
# a pair was spelt friction = mu_i plus model.bottom
MU_I_BOTTOM = {"mu_i_slip": "slip", "mu_i_manning": "manning", "mu_i_coulomb": "coulomb",
               "mu_i": "mu_i"}


def case_ids(sep: str):
    """pytest ids for cases keyed by friction name: a mu(I) name reads as
    mu_i, sep and its bottom law (mu_i-slip), any other name as itself."""
    return lambda name: f"mu_i{sep}{MU_I_BOTTOM[name]}" if name in MU_I_BOTTOM else name


def config_model(kind, params, **overrides):
    """The friction model that build_model makes of a config name and its SI parameters."""
    return build_model(SimConfig(**SCALES, friction=kind, friction_params=params, **overrides))
