"""Simulation front end: configuration, scenario presets, time loop, output."""

import configparser
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import state
from .basis import (
    MAX_GAUSS_POINTS,
    MAX_ORDER,
    MomentBasis,
    bottom_velocity,
    build_basis,
    reconstruct_velocity,
)
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
from .scheme import cfl_dt, make_grid, step_explicit, step_semi_implicit
# to_primitive is unused here, but perfbench/tracer.py wraps sim.to_primitive by name
from .state import to_conservative, to_primitive  # noqa: F401
from .topography import FlatBed, RunoffBed, TabulatedBed

# a grid has no ghost cells to fill, so nothing calls this name, but
# perfbench/tracer.py wraps sim.apply_transmissive_bc by name
apply_transmissive_bc = None

__all__ = [
    "SimConfig",
    "Snapshot",
    "RunResult",
    "preset",
    "build_model",
    "build_bed",
    "build_grid",
    "run",
    "write_snapshot",
    "emit_profile",
    "front_position",
    "config_from_mapping",
    "config_to_mapping",
    "read_config_file",
]

_BLOCK_IC = {"kind": "block", "h": 0.08, "x_lo": 0.3, "x_hi": 0.5}
# the keys each kind of initial condition needs
_IC_REQUIRED = {"block": ("h", "x_lo", "x_hi"), "uniform": ("h",)}
# a run that needs more steps than this aborts instead of running on
MAX_STEPS = 2_000_000


def _check_ic(ic: dict, N: int) -> None:
    """Reject an initial condition that build_grid cannot build, naming its key."""
    unknown = [f"ic.{key}" for key in ic if key not in _IC_KEYS]
    if unknown:
        raise ValueError(f"unknown initial-condition key {', '.join(unknown)}")
    kind = ic.get("kind")
    if kind not in _IC_REQUIRED:
        raise ValueError(f"ic.kind must be one of {', '.join(_IC_REQUIRED)}, got {kind!r}")
    missing = [f"ic.{key}" for key in _IC_REQUIRED[kind] if key not in ic]
    if missing:
        raise ValueError(f"initial condition {kind!r} needs {', '.join(missing)}")
    for key in ("h", "x_lo", "x_hi", "u_m"):
        if key in ic:
            _check_real(f"ic.{key}", ic[key])
    alpha = ic.get("alpha", ())
    if not isinstance(alpha, (tuple, list)):
        raise ValueError(f"ic.alpha must be a tuple or list of numbers, got {alpha!r}")
    for value in alpha:
        _check_real("ic.alpha", value)
    if not 0.0 <= ic["h"] < math.inf:
        raise ValueError(f"ic.h must be finite and nonnegative, got {ic['h']}")
    if kind == "block" and not ic["x_lo"] < ic["x_hi"]:
        raise ValueError(f"ic.x_lo must be below ic.x_hi, got {ic['x_lo']} and {ic['x_hi']}")
    if len(ic.get("alpha", ())) > N:
        raise ValueError(f"ic.alpha has {len(ic['alpha'])} entries, more than N = {N}")
    if not all(math.isfinite(v) for v in (ic.get("u_m", 0.0), *ic.get("alpha", ()))):
        raise ValueError(f"ic.u_m and ic.alpha must be finite, got {ic.get('u_m')} "
                         f"and {ic.get('alpha')}")


def _check_real(name: str, value) -> None:
    """Reject a value that is not a real number, or is a bool, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_friction_params(friction: str, params: dict) -> None:
    """Reject an unknown friction name, a parameter that the name does not
    read, and a parameter that is not a finite real number."""
    if friction not in _FRICTION:
        raise ValueError(f"unknown friction model {friction!r}")
    reads = _FRICTION[friction][2]
    unknown = ", ".join(repr(key) for key in params if key not in reads)
    if unknown:
        raise ValueError(f"friction model {friction!r} does not read {unknown}; "
                         f"it reads {', '.join(reads)}")
    for key, value in params.items():
        _check_real(f"model.{key}", value)
        if not math.isfinite(value):
            raise ValueError(f"model.{key} must be finite, got {value}")
        text, within = _PARAM_RANGES[key]
        if not within(value):
            raise ValueError(f"model.{key} must be {text}, got {value}")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run.

    Physical inputs (H, L, g, rho, friction_params, keyed by the [model]
    file keys) are in SI units; build_model derives the dimensionless
    groups. Angles are in radians. mode is "explicit" or "semi_implicit".
    """

    N: int = 2
    J: int = 1000
    x_a: float = 0.0
    x_b: float = 1.0
    theta: float = math.pi / 4
    H: float = 0.1
    L: float = 10.0
    g: float = 9.81
    rho: float = 1200.0
    rho_s: float | None = None
    friction: str = "newtonian_slip"
    friction_params: dict = field(default_factory=dict)
    mode: str = "semi_implicit"
    cfl: float = 0.05
    quad_points: int = 32
    ic: dict = field(default_factory=lambda: dict(_BLOCK_IC))
    bathymetry: str = "flat"
    snapshot_times: tuple = (0.4, 0.6, 1.0)
    out_dir: str | None = None
    profile_resolution: int | None = None
    # the dry threshold state.H_MIN, for readers of a config; a class
    # attribute, not a field, so no run sets it
    h_min: ClassVar[float] = state.H_MIN

    def __post_init__(self):
        # the sizes are ints from here on; a numpy integer is one too
        for name in ("N", "J", "quad_points", "profile_resolution"):
            value = getattr(self, name)
            if value is None and name == "profile_resolution":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("x_a", "x_b", "theta", "H", "L", "g", "rho", "cfl"):
            _check_real(name, getattr(self, name))
        if self.rho_s is not None:
            _check_real("rho_s", self.rho_s)
        for t in self.snapshot_times:
            _check_real("snapshot_times", t)
        if self.J < 3:
            raise ValueError("J must be at least 3")
        if not 1 <= self.N <= MAX_ORDER:
            raise ValueError(f"N must lie in [1, {MAX_ORDER}], got {self.N}")
        for name in ("x_a", "x_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_a < self.x_b:
            raise ValueError(f"x_a must be below x_b, got {self.x_a} and {self.x_b}")
        if not 0.0 <= self.theta < math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2)")
        for name in ("H", "L", "g", "rho"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.rho_s is not None and not 0.0 < self.rho_s < math.inf:
            raise ValueError(f"rho_s must be None or finite and positive, got {self.rho_s}")
        _check_friction_params(self.friction, self.friction_params)
        if self.mode not in ("explicit", "semi_implicit"):
            raise ValueError(f"unknown stepper mode {self.mode!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("CFL must lie in (0, 1]")
        if not 2 <= self.quad_points <= MAX_GAUSS_POINTS:
            raise ValueError(f"quad_points must lie in [2, {MAX_GAUSS_POINTS}], "
                             f"got {self.quad_points}")
        if self.profile_resolution is not None and self.profile_resolution < 2:
            raise ValueError(f"profile_resolution must be None or >= 2, got {self.profile_resolution}")
        _check_ic(self.ic, self.N)
        times = tuple(float(t) for t in self.snapshot_times)
        if not times:
            raise ValueError("need at least one snapshot time")
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"snapshot_times must be finite, got {times}")
        if any(t < 0.0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be nonnegative and strictly ascending")
        object.__setattr__(self, "snapshot_times", times)

    @property
    def eps(self) -> float:
        return self.H / self.L


@dataclass(frozen=True)
class Snapshot:
    """Per-cell solution record at one time: x, h, u_m, alpha (J, N), bottom
    velocity, and free surface h_s = h + b."""

    time: float
    x: np.ndarray
    h: np.ndarray
    u_m: np.ndarray
    alpha: np.ndarray
    u_bottom: np.ndarray
    h_s: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """Snapshots and per-step diagnostics of one run, with its configuration
    and the moment basis it was solved with."""

    snapshots: list
    diagnostics: dict
    config: SimConfig
    basis: MomentBasis


def preset(example: int, **overrides) -> SimConfig:
    """Ready-made configurations for the four reference scenarios.

    1: Newtonian slip, N=2, semi-implicit.  2: slip/Manning bottom-friction
    comparison, N=2 (pass law="manning" and/or Lambda=/n= to sweep).
    3: Savage-Hutter, N=2, explicit (pass delta_deg=15 or 18).
    4: granular mu(I) with slip bottom (mu_i_slip), explicit, CFL=0.01,
    8-point bulk quadrature (pass N=3..6 and bathymetry="runoff" for the
    curved bed).
    All four take the grid, length scales and snapshot times from the
    SimConfig defaults.
    """
    H = overrides.get("H", SimConfig.H)
    # slip lengths are quoted dimensionless; the stored value is the physical
    # length in meters at the run's H (dimensionless again in build_model)
    if example == 1:
        base = dict(
            N=2,
            friction="newtonian_slip",
            friction_params={"lambda": 1e-4 * H, "eta": 0.01},
            mode="semi_implicit",
            cfl=0.05,
        )
    elif example == 2:
        law = overrides.pop("law", "slip")
        if law == "slip":
            params = {"lambda": overrides.pop("Lambda", 0.0015) * H, "eta": 0.01}
            friction = "newtonian_slip"
        elif law == "manning":
            params = {"manning_n": overrides.pop("n", 0.0165), "eta": 0.01}
            friction = "newtonian_manning"
        else:
            raise ValueError(f"unknown bottom-friction law {law!r}")
        base = dict(
            N=2,
            friction=friction,
            friction_params=params,
            mode="semi_implicit",
            cfl=0.05,
        )
    elif example == 3:
        delta_deg = overrides.pop("delta_deg", 15.0)
        base = dict(
            N=2,
            friction="savage_hutter",
            friction_params={"delta": math.radians(delta_deg), "phi_int": math.radians(20.0)},
            mode="explicit",
            cfl=0.05,
        )
    elif example == 4:
        base = dict(
            N=3,
            rho=1550.0,
            rho_s=2500.0,
            friction="mu_i_slip",
            friction_params={
                "mu_s": 0.48,
                "mu_2": 0.73,
                "i0": 0.279,
                "d_s": 7e-4,
                "lambda": 0.001 * H,
                "eta": 0.001,
            },
            mode="explicit",
            cfl=0.01,
            quad_points=8,
        )
    else:
        raise ValueError(f"unknown example id {example!r}")
    base.update(overrides)
    return SimConfig(**base)


def build_model(config: SimConfig):
    """Instantiate the friction model of a config: the bulk law of its
    friction name (_FRICTION) over the name's bottom law. A ConstantCoulomb
    bulk takes mu = tan(phi_int) under savage_hutter.

    This is the one place where the SI inputs become the dimensionless groups
    the laws take (the README's table of units and scales), with the velocity
    scale U = sqrt(g L) and stresses scaled by rho g cos(theta) H.
    """
    bulk, bottom_law, reads = _FRICTION[config.friction]
    p = config.friction_params
    missing = [f"model.{key}" for key in reads if key not in p]
    if missing:
        raise ValueError(f"friction model {config.friction!r} needs {', '.join(missing)}")
    if "phi_int" in reads and not 0.0 <= p["delta"] <= p["phi_int"] < math.pi / 2:
        raise ValueError("require 0 <= delta <= phi_int < pi/2")
    H, L, g, rho = config.H, config.L, config.g, config.rho
    cos_t = math.cos(config.theta)
    U = math.sqrt(g * L)

    def scaled(key: str, num: float, den: float) -> float:
        """num / den, the dimensionless group of model.key; rejects one that
        overflows, or underflows to 0 from a nonzero input, naming scaling.H."""
        group = num / den if den != 0.0 else math.inf
        if not math.isfinite(group) or (group == 0.0 and p[key] != 0.0):
            raise ValueError(f"model.{key} = {p[key]} scales to {group} at scaling.H = {H}; "
                             f"the scaled group underflows or overflows")
        return group

    # the Newtonian bulk and the slip bottom share one viscosity
    nu = scaled("eta", p["eta"] * U, rho * g * cos_t * H * H) if "eta" in reads else None
    if bottom_law is SlipBottom:
        bottom = SlipBottom(nu=nu, lam=scaled("lambda", p["lambda"], H))
    elif bottom_law is ManningBottom:
        n = p["manning_n"]
        bottom = ManningBottom(n2=scaled("manning_n", n * n * U * U, H ** (4.0 / 3.0) * cos_t))
    elif bottom_law is CoulombBottom:
        bottom = CoulombBottom(delta=p["delta"])
    else:
        bottom = MuIBottom()
    if bulk is Newtonian:
        return Newtonian(nu=nu, bottom_law=bottom)
    if bulk is MuI:
        if config.rho_s is None:
            raise ValueError("the inertial scaling needs scaling.rho_s")
        c_I = (p["i0"] * H / p["d_s"]) * math.sqrt((rho / config.rho_s) * (H / L) * cos_t)
        if not math.isfinite(c_I):
            raise ValueError(f"the inertial scaling of model.i0 = {p['i0']} and "
                             f"model.d_s = {p['d_s']} overflows (c_I = {c_I})")
        return MuI(mu_s=p["mu_s"], mu_2=p["mu_2"], c_I=c_I, bottom_law=bottom,
                   quad_points=config.quad_points)
    mu = math.tan(p["phi_int"]) if "phi_int" in reads else p["mu"]
    return ConstantCoulomb(mu=mu, bottom_law=bottom)


def build_bed(config: SimConfig):
    """Bathymetry object from the config: flat, runoff, or the path of a file
    of bed samples (TabulatedBed.from_file) that spans the grid's domain."""
    spec = config.bathymetry
    if spec == "flat":
        return FlatBed()
    if spec == "runoff":
        return RunoffBed(theta=config.theta)
    try:
        bed = TabulatedBed.from_file(spec)
    except (OSError, ValueError) as exc:
        raise ValueError(f"grid.bathymetry must be flat, runoff or a file of bed samples, "
                         f"got {spec!r}: {exc}") from exc
    if not bed.x[0] <= config.x_a < config.x_b <= bed.x[-1]:
        raise ValueError(f"grid.bathymetry file {spec!r} spans [{bed.x[0]}, {bed.x[-1]}], "
                         f"not the grid's domain [{config.x_a}, {config.x_b}]")
    return bed


def build_grid(config: SimConfig, bed=None):
    """Grid with the configured initial condition in conservative variables."""
    if bed is None:
        bed = build_bed(config)
    grid = make_grid(config.x_a, config.x_b, config.J, config.N, bed)
    ic = config.ic
    P = np.zeros((config.J, config.N + 2))
    if ic["kind"] == "block":
        # truly dry background: cells sitting exactly at H_MIN would turn wet
        # on any infinitesimal transport deposit
        inside = (grid.x >= ic["x_lo"]) & (grid.x <= ic["x_hi"])
        if not np.any(inside):
            raise ValueError(f"ic block [{ic['x_lo']}, {ic['x_hi']}] (ic.x_lo, ic.x_hi) "
                             f"covers no cell centre of the grid")
        P[:, 0] = np.where(inside, ic["h"], 0.0)
    else:
        P[:, 0] = ic["h"]
        P[:, 1] = ic.get("u_m", 0.0)
        for j, a in enumerate(ic.get("alpha", ())):
            P[:, 2 + j] = a
    return replace(grid, U=to_conservative(P))


def _snapshot(grid, t: float, bed) -> Snapshot:
    P = grid.primitive
    h = P[:, 0]
    return Snapshot(time=t, x=grid.x.copy(), h=h.copy(), u_m=P[:, 1].copy(),
                    alpha=P[:, 2:].copy(), u_bottom=bottom_velocity(P), h_s=h + bed.b(grid.x))


def run(config: SimConfig) -> RunResult:
    """Time loop: pick the CFL step (capped to land exactly on snapshot times),
    step, and record diagnostics."""
    basis = build_basis(config.N)
    model = build_model(config)
    bed = build_bed(config)
    grid = build_grid(config, bed)
    stepper = step_explicit if config.mode == "explicit" else step_semi_implicit
    diag = {k: [] for k in ("time", "dt", "mass", "max_speed", "dry_cells",
                            "sh_violations", "newton_iters", "newton_iters_max",
                            "clamped_mass")}
    # the Savage-Hutter sliding-law assumptions hold only over a Coulomb bottom
    if _FRICTION[config.friction][1] is not CoulombBottom:
        del diag["sh_violations"]
    snapshots = []
    t = 0.0
    steps = 0
    for t_target in config.snapshot_times:
        while t < t_target:
            steps += 1
            if steps > MAX_STEPS:
                raise RuntimeError(f"exceeded {MAX_STEPS} steps at t={t:.8g}")
            dt = cfl_dt(grid, config, basis)
            landed = t + dt >= t_target
            if landed:
                dt = t_target - t
            try:
                grid, info = stepper(grid, dt, model, basis, config)
            except RuntimeError as exc:
                raise RuntimeError(f"step aborted at t={t:.8g}: {exc}") from exc
            t = t_target if landed else t + dt
            _record(diag, t, dt, grid, info, basis)
        snapshots.append(_snapshot(grid, t_target, bed))
    return RunResult(snapshots=snapshots,
                     diagnostics={k: np.asarray(v) for k, v in diag.items()},
                     config=config, basis=basis)


def _record(diag: dict, t: float, dt: float, grid, info: dict, basis) -> None:
    U = grid.U
    P = grid.primitive
    wet = ~grid.dry()
    diag["time"].append(t)
    diag["dt"].append(dt)
    diag["mass"].append(float(np.sum(U[:, 0]) * grid.dx))
    diag["max_speed"].append(float(np.max(np.abs(P[wet, 1]), initial=0.0)))
    diag["dry_cells"].append(info["dry_cells"])
    if "sh_violations" in diag:
        diag["sh_violations"].append(savage_hutter_violations(P[wet], basis))
    diag["newton_iters"].append(info["newton_iters_total"])
    diag["newton_iters_max"].append(info["newton_iters_max"])
    diag["clamped_mass"].append(info["clamped_mass"])


def write_snapshot(snapshot: Snapshot, path: str) -> None:
    """CSV with 17 significant digits, one row per cell."""
    N = snapshot.alpha.shape[1]
    header = ["x", "h", "u_m"] + [f"alpha_{i}" for i in range(1, N + 1)] + ["u_bottom", "h_s"]
    cols = np.column_stack([snapshot.x, snapshot.h, snapshot.u_m, snapshot.alpha,
                            snapshot.u_bottom, snapshot.h_s])
    try:
        with open(path, "w", newline="") as f:
            f.write(",".join(header) + "\n")
            _write_rows(f, cols)
    except OSError as exc:
        raise OSError(f"cannot write snapshot to {path}: {exc}") from exc


_PROFILE_CHUNK_ROWS = 1024


def _write_rows(f, cols: np.ndarray) -> None:
    """Write the rows of cols (M, k) as "%.17g,...,%.17g" lines, formatting
    chunks of _PROFILE_CHUNK_ROWS rows with one % each (the text of a per-value
    "%.17g" join)."""
    line = ",".join(["%.17g"] * cols.shape[1]) + "\n"
    for start in range(0, len(cols), _PROFILE_CHUNK_ROWS):
        chunk = cols[start:start + _PROFILE_CHUNK_ROWS]
        f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def emit_profile(snapshot: Snapshot, basis, resolution: int, path: str | None = None) -> np.ndarray:
    """Vertical-velocity field u(x, zeta) as columnar (x, zeta, u) rows.

    zeta runs over `resolution` equispaced levels from bottom (0) to surface (1);
    rows are grouped by cell. Optionally written as a CSV for heat-map plotting.
    """
    if resolution < 2:
        raise ValueError("profile resolution must be at least 2")
    zeta = np.linspace(0.0, 1.0, resolution)
    rows = np.empty((len(snapshot.x), resolution, 3))
    rows[:, :, 0] = snapshot.x[:, None]
    rows[:, :, 1] = zeta
    rows[:, :, 2] = reconstruct_velocity(basis, snapshot.u_m[:, None],
                                         snapshot.alpha[:, None, :], zeta)
    if path is not None:
        try:
            with open(path, "w", newline="") as f:
                f.write("x,zeta,u\n")
                _write_profile_rows(f, snapshot.x, zeta, rows[:, :, 2])
        except OSError as exc:
            raise OSError(f"cannot write profile to {path}: {exc}") from exc
    return rows.reshape(-1, 3)


def _write_profile_rows(f, x: np.ndarray, zeta: np.ndarray, u: np.ndarray) -> None:
    """Write the "%.17g,%.17g,%.17g" rows (x_j, zeta_i, u[j, i]), cell by cell.

    One template per call holds the zeta text of every level, with a NUL in
    place of x; a cell fills in its u column with one % and its x with
    str.replace. The block of a cell whose u column is one value (a dry cell)
    is kept by that value's text, so -0.0 and 0.0 stay apart. Cells are
    formatted in chunks of about _PROFILE_CHUNK_ROWS rows, which bounds the
    text held in memory.
    """
    template = "".join("\0,%.17g,%%.17g\n" % z for z in zeta.tolist())
    constant_blocks = {}
    step = max(1, _PROFILE_CHUNK_ROWS // len(zeta))
    for start in range(0, len(x), step):
        chunk = u[start:start + step]
        bits = chunk.view(np.int64)
        constant = (bits == bits[:, :1]).all(axis=1).tolist()
        blocks = []
        for xj, uj, const in zip(x[start:start + step].tolist(), chunk.tolist(), constant):
            if const:
                key = "%.17g" % uj[0]
                block = constant_blocks.get(key)
                if block is None:
                    block = constant_blocks[key] = template % tuple(uj)
            else:
                block = template % tuple(uj)
            blocks.append(block.replace("\0", "%.17g" % xj))
        f.write("".join(blocks))


def front_position(snapshot: Snapshot) -> float:
    """Largest x whose height exceeds 10 * state.H_MIN (-inf if the flow is
    all dry).

    The factor 10 keeps desingularization noise in nearly-dry cells from
    registering as flow.

    The value saturates at the last cell centre once the flow reaches the
    right boundary, so fronts that got there tie whatever their speed. A
    comparison of fronts needs interior fronts: check that the last cell is
    dry (``snapshot.h[-1] <= state.H_MIN``) before comparing.
    """
    mask = snapshot.h > 10.0 * state.H_MIN
    if not np.any(mask):
        return -math.inf
    return float(snapshot.x[np.flatnonzero(mask)[-1]])


def write_summary(result: RunResult, path: str) -> None:
    """Parameters plus the per-step diagnostics series as a readable text file."""
    cfg = result.config
    d = result.diagnostics
    try:
        with open(path, "w", newline="") as f:
            f.write("# run summary\n")
            for section, mapping in config_to_mapping(cfg).items():
                for key, value in mapping.items():
                    f.write(f"{section}.{key} = {value}\n")
            f.write("# diagnostics\n")
            keys = list(d.keys())
            f.write(",".join(keys) + "\n")
            _write_rows(f, np.column_stack([np.asarray(d[k], dtype=float) for k in keys]))
    except OSError as exc:
        raise OSError(f"cannot write summary to {path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (tuple, list)):
        return " ".join("%.17g" % v for v in value)
    return str(value)


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.replace(",", " ").split())


# the file format, one (section, key, SimConfig field, parse) per field; keys
# are read case-insensitively. The friction parameters and the [ic] entries
# have their own tables below.
_FILE_FIELDS = (
    ("model", "N", "N", int),
    ("model", "theta", "theta", float),
    ("model", "friction", "friction", str),
    ("scaling", "H", "H", float),
    ("scaling", "L", "L", float),
    ("scaling", "g", "g", float),
    ("scaling", "rho", "rho", float),
    ("scaling", "rho_s", "rho_s", float),
    ("grid", "J", "J", int),
    ("grid", "x_a", "x_a", float),
    ("grid", "x_b", "x_b", float),
    ("grid", "bathymetry", "bathymetry", str),
    ("stepper", "mode", "mode", str),
    ("stepper", "cfl", "cfl", float),
    ("stepper", "quad_points", "quad_points", int),
    ("output", "times", "snapshot_times", _floats),
    ("output", "dir", "out_dir", str),
    ("output", "profile_resolution", "profile_resolution", int),
)

# each friction name's bulk law, bottom law, and the [model] keys that the
# pair reads; these keys name the friction_params too, and a model needs all
# of them. The moment order already uses key "n", so the Manning coefficient
# is "manning_n"; eta is the viscosity of the Newtonian bulk and of the slip
# bottom alike
_MU_I_KEYS = ("mu_s", "mu_2", "i0", "d_s")
_FRICTION = {
    "newtonian_slip": (Newtonian, SlipBottom, ("lambda", "eta")),
    "newtonian_manning": (Newtonian, ManningBottom, ("manning_n", "eta")),
    "savage_hutter": (ConstantCoulomb, CoulombBottom, ("delta", "phi_int")),
    "coulomb": (ConstantCoulomb, CoulombBottom, ("delta", "mu")),
    "mu_i_slip": (MuI, SlipBottom, _MU_I_KEYS + ("lambda", "eta")),
    "mu_i_manning": (MuI, ManningBottom, _MU_I_KEYS + ("manning_n",)),
    "mu_i_coulomb": (MuI, CoulombBottom, _MU_I_KEYS + ("delta",)),
    "mu_i": (MuI, MuIBottom, _MU_I_KEYS),
}
# the range of each [model] key, checked with the key's name before any law
# sees its scaled group; the laws check their own ranges too, and the
# relations mu_s < mu_2 (MuI) and delta <= phi_int (build_model)
_PARAM_RANGES = {
    **dict.fromkeys(("lambda", "i0", "d_s", "mu_s", "mu_2"), ("positive", lambda v: v > 0.0)),
    **dict.fromkeys(("eta", "manning_n", "mu"), ("nonnegative", lambda v: v >= 0.0)),
    **dict.fromkeys(("delta", "phi_int"), ("in [0, pi/2)", lambda v: 0.0 <= v < math.pi / 2)),
}

_IC_KEYS = {"kind": str, "h": float, "x_lo": float, "x_hi": float, "u_m": float,
            "alpha": _floats}

# every key some reader takes; keys of another friction name than the
# configured one are accepted, so a file can switch with one key
_KNOWN_KEYS = ({(section, key.lower()) for section, key, _, _ in _FILE_FIELDS}
               | {("model", key) for _, _, keys in _FRICTION.values() for key in keys}
               | {("ic", key) for key in _IC_KEYS})


def config_to_mapping(config: SimConfig) -> dict:
    """Flatten a SimConfig into {section: {key: string}} (the file format)."""
    mapping = {}
    for section, key, name, _ in _FILE_FIELDS:
        value = getattr(config, name)
        if value is not None:
            mapping.setdefault(section, {})[key] = _fmt(value)
    for param, value in config.friction_params.items():
        mapping["model"][param] = _fmt(value)
    mapping["ic"] = {key: _fmt(value) for key, value in config.ic.items()}
    return mapping


def _parse(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"cannot parse {section}.{key} = {raw!r}: {exc}") from exc


def config_from_mapping(mapping: dict) -> SimConfig:
    """Build a SimConfig from {section: {key: string}} (inverse of the above).

    Raises ValueError naming section.key for a key that nothing reads and
    for a value that does not parse.
    """
    sections = {}
    for section, kv in mapping.items():
        sections.setdefault(section.lower(), {}).update((k.lower(), v) for k, v in kv.items())
    for section, kv in sections.items():
        for key in kv:
            if (section, key) not in _KNOWN_KEYS:
                raise ValueError(f"unknown config key {section}.{key}")
    kw = {name: _parse(section, key.lower(), parse, sections[section][key.lower()])
          for section, key, name, parse in _FILE_FIELDS
          if key.lower() in sections.get(section, {})}
    # an unknown friction name reads nothing; SimConfig rejects it by name
    friction = kw.get("friction", SimConfig.friction)
    reads = _FRICTION[friction][2] if friction in _FRICTION else ()
    kw["friction_params"] = {key: _parse("model", key, float, raw)
                             for key, raw in sections.get("model", {}).items() if key in reads}
    if sections.get("ic"):
        kw["ic"] = {"kind": "block",
                    **{k: _parse("ic", k, _IC_KEYS[k], v) for k, v in sections["ic"].items()}}
    return SimConfig(**kw)


def read_config_file(path: str) -> dict:
    """Parse an INI-style config file into {section: {key: string}}."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _time_label(t: float) -> str:
    """The shortest positional text that reads back as t (0.1, 0.15, 1), so
    distinct snapshot times never share a file name."""
    return np.format_float_positional(t, trim="-")


def write_outputs(result: RunResult, out_dir: str) -> list:
    """Write snapshot CSVs, the run summary, and optional profile fields."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    written = []
    for snap in result.snapshots:
        name = os.path.join(out_dir, f"snapshot_t{_time_label(snap.time)}.csv")
        write_snapshot(snap, name)
        written.append(name)
    if cfg.profile_resolution is not None:
        for snap in result.snapshots:
            name = os.path.join(out_dir, f"profile_t{_time_label(snap.time)}.csv")
            emit_profile(snap, result.basis, cfg.profile_resolution, name)
            written.append(name)
    summary = os.path.join(out_dir, "summary.txt")
    write_summary(result, summary)
    written.append(summary)
    return written
