"""Shallow-flow moment models on inclined planes with pluggable friction.

A finite-volume solver for depth-averaged flows whose vertical velocity
structure is resolved by a polynomial moment expansion, with Newtonian,
Coulomb-type, and inertial-number-dependent granular friction closures.
"""

from .basis import MomentBasis, build_basis, eval_phi, gauss_rule, reconstruct_velocity
from .friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    MuIBottom,
    Newtonian,
    SlipBottom,
    savage_hutter_violations,
)
from .hswme import (
    source_batch,
    system_matrix_batch,
    wavespeeds_batch,
)
from .scheme import (
    Grid,
    cfl_dt,
    fluctuations,
    make_grid,
    step_explicit,
    step_semi_implicit,
    viscosity_matrix,
)
from .sim import (
    RunResult,
    SimConfig,
    Snapshot,
    emit_profile,
    front_position,
    preset,
    run,
    write_snapshot,
)
from .state import (
    is_dry,
    to_conservative,
    to_primitive,
)
from .topography import FlatBed, RunoffBed, TabulatedBed, cell_slope

__version__ = "0.1.0"
