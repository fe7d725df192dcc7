"""Simulation front end: configuration, scenario presets, time loop, output."""

import configparser
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import MomentBasis, build_basis, reconstruct_velocity
from .friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    MuIBottom,
    Newtonian,
    SlipBottom,
    derive_dimensionless,
    savage_hutter_violations,
)
from .scheme import apply_transmissive_bc, cfl_dt, make_grid, step_explicit, step_semi_implicit
# to_primitive is unused here, but perfbench/tracer.py wraps sim.to_primitive by name
from .state import WetDryPolicy, to_conservative, to_primitive  # noqa: F401
from .topography import FlatBed, RunoffBed, TabulatedBed, eval_b

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


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run.

    Physical inputs (H, L, g, rho, friction parameters) are in SI units;
    dimensionless groups are derived internally. Angles are in radians.
    mode is "explicit" or "semi_implicit"; dt_fixed overrides the CFL step
    (convergence studies).
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
    newton_tol: float = 1e-6
    newton_max_iter: int = 50
    dt_fixed: float | None = None
    h_min: float = 1e-6
    quad_points: int = 32
    ic: dict = field(default_factory=lambda: dict(_BLOCK_IC))
    bathymetry: str = "flat"
    snapshot_times: tuple = (0.4, 0.6, 1.0)
    out_dir: str | None = None
    profile_resolution: int | None = None
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.J < 3:
            raise ValueError("J must be at least 3")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not 0.0 <= self.theta < math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2)")
        if self.mode not in ("explicit", "semi_implicit"):
            raise ValueError(f"unknown stepper mode {self.mode!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("CFL must lie in (0, 1]")
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 0:
            raise ValueError(f"newton_max_iter must be >= 0, got {self.newton_max_iter}")
        if self.dt_fixed is not None and not (math.isfinite(self.dt_fixed) and self.dt_fixed > 0.0):
            raise ValueError(f"dt_fixed must be None or finite and positive, got {self.dt_fixed}")
        if not self.h_min > 0.0:
            raise ValueError(f"h_min must be positive, got {self.h_min}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.quad_points < 2:
            raise ValueError(f"quad_points must be at least 2, got {self.quad_points}")
        if self.profile_resolution is not None and self.profile_resolution < 2:
            raise ValueError(f"profile_resolution must be None or >= 2, got {self.profile_resolution}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not times:
            raise ValueError("need at least one snapshot time")
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
    4: granular mu(I) with slip bottom, explicit, CFL=0.01, 8-point bulk
    quadrature (pass N=3..6 and bathymetry="runoff" for the curved bed).
    All four take the grid, length scales and snapshot times from the
    SimConfig defaults.
    """
    H = SimConfig.H
    # slip lengths are quoted dimensionless; the stored value is the physical
    # length in meters (dimensionless again after dividing by H internally)
    if example == 1:
        base = dict(
            N=2,
            friction="newtonian_slip",
            friction_params={"Lambda": 1e-4 * H, "eta": 0.01},
            mode="semi_implicit",
            cfl=0.05,
        )
    elif example == 2:
        law = overrides.pop("law", "slip")
        if law == "slip":
            params = {"Lambda": overrides.pop("Lambda", 0.0015) * H, "eta": 0.01}
            friction = "newtonian_slip"
        elif law == "manning":
            params = {"n": overrides.pop("n", 0.0165), "eta": 0.01}
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
            friction="mu_i",
            friction_params={
                "mu_s": 0.48,
                "mu_2": 0.73,
                "I0": 0.279,
                "d_s": 7e-4,
                "bottom": "slip",
                "Lambda": 0.001 * H,
                "eta0": 0.001,
            },
            mode="explicit",
            cfl=0.01,
            quad_points=8,
        )
    else:
        raise ValueError(f"unknown example id {example!r}")
    base.update(overrides)
    return SimConfig(**base)


# the bottom law of each config name; mu_i names its own in `bottom`
_BOTTOM_OF = {"newtonian_slip": "slip", "newtonian_manning": "manning",
              "savage_hutter": "coulomb", "coulomb": "coulomb"}


def _bottom_law(name: str, p: dict, d: dict):
    """Bottom law `name` from the friction parameters p and the derived
    dimensionless groups d."""
    if name == "slip":
        return SlipBottom(nu=d["nu"], lam=d["lam"])
    if name == "manning":
        return ManningBottom(n2=d["n2"])
    if name == "coulomb":
        return CoulombBottom(delta=p["delta"])
    if name == "mu_i":
        return MuIBottom()
    raise ValueError(f"unknown granular bottom law {name!r}")


def build_model(config: SimConfig):
    """Instantiate the friction model with dimensionless parameters derived
    from the configured SI inputs: the config name's bulk law (newtonian_* is
    Newtonian, savage_hutter with mu = tan(phi_int) and coulomb are
    ConstantCoulomb, mu_i is MuI) over its bottom law."""
    kind = config.friction
    p = config.friction_params
    if kind not in _FRICTION_KEYS:
        raise ValueError(f"unknown friction model {kind!r}")
    bottom_name = _BOTTOM_OF.get(kind) or p.get("bottom", "slip")
    needed = _FRICTION_KEYS[kind]
    if kind == "mu_i":
        needed = needed[:4] + _MU_I_BOTTOM_KEYS.get(bottom_name, ())
    missing = [f"model.{key}" for key in needed if _PARAM_OF.get(key, key) not in p]
    if missing:
        raise ValueError(f"friction model {kind!r} needs {', '.join(missing)}")
    if kind == "savage_hutter" and not 0.0 <= p["delta"] <= p["phi_int"] < math.pi / 2:
        raise ValueError("require 0 <= delta <= phi_int < pi/2")
    # the granular slip viscosity eta0 scales like the Newtonian eta
    d = derive_dimensionless(H=config.H, L=config.L, g=config.g, theta=config.theta,
                             rho=config.rho, rho_s=config.rho_s, eta=p.get("eta", p.get("eta0")),
                             Lambda=p.get("Lambda"), n=p.get("n"), I0=p.get("I0"), d_s=p.get("d_s"))
    bottom = _bottom_law(bottom_name, p, d)
    if kind in ("newtonian_slip", "newtonian_manning"):
        return Newtonian(nu=d["nu"], bottom_law=bottom)
    if kind == "mu_i":
        return MuI(mu_s=p["mu_s"], mu_2=p["mu_2"], c_I=d["c_I"], bottom_law=bottom,
                   quad_points=config.quad_points)
    mu = math.tan(p["phi_int"]) if kind == "savage_hutter" else p["mu"]
    return ConstantCoulomb(mu=mu, bottom_law=bottom)


def build_bed(config: SimConfig):
    """Bathymetry object from the config: flat, runoff, or a sample file path."""
    spec = config.bathymetry
    if spec == "flat":
        return FlatBed()
    if spec == "runoff":
        return RunoffBed(theta=config.theta)
    return TabulatedBed.from_file(spec)


def build_grid(config: SimConfig, bed=None):
    """Grid with the configured initial condition in conservative variables."""
    if bed is None:
        bed = build_bed(config)
    policy = WetDryPolicy(h_min=config.h_min)
    grid = make_grid(config.x_a, config.x_b, config.J, config.N, policy, bed)
    ic = config.ic
    P = np.zeros((config.J, config.N + 2))
    if ic["kind"] == "block":
        # truly dry background: cells sitting exactly at h_min would turn wet
        # on any infinitesimal transport deposit
        inside = (grid.x >= ic["x_lo"]) & (grid.x <= ic["x_hi"])
        P[:, 0] = np.where(inside, ic["h"], 0.0)
    elif ic["kind"] == "uniform":
        P[:, 0] = ic["h"]
        P[:, 1] = ic.get("u_m", 0.0)
        alpha = ic.get("alpha", ())
        for j, a in enumerate(alpha):
            P[:, 2 + j] = a
    else:
        raise ValueError(f"unknown initial condition {ic['kind']!r}")
    U = grid.U.copy()
    U[1:-1] = to_conservative(P)
    grid = replace(grid, U=U)
    return apply_transmissive_bc(grid)


def _snapshot(grid, t: float, bed) -> Snapshot:
    P = grid.primitive[1:-1]
    h = P[:, 0]
    alpha = P[:, 2:]
    u_bottom = P[:, 1] + np.sum(alpha, axis=1)
    b = np.asarray(eval_b(bed, grid.x), dtype=float)
    return Snapshot(time=t, x=grid.x.copy(), h=h.copy(), u_m=P[:, 1].copy(),
                    alpha=alpha.copy(), u_bottom=u_bottom, h_s=h + b)


def run(config: SimConfig) -> RunResult:
    """Time loop: pick the CFL step (capped to land exactly on snapshot times),
    step, and record diagnostics. A step returns its grid with the ghost rows
    mirrored, so the boundary condition is applied once, in build_grid."""
    basis = build_basis(config.N)
    model = build_model(config)
    bed = build_bed(config)
    grid = build_grid(config, bed)
    stepper = step_explicit if config.mode == "explicit" else step_semi_implicit
    diag = {k: [] for k in ("time", "dt", "mass", "max_speed", "dry_cells",
                            "sh_violations", "newton_iters", "newton_iters_max",
                            "clamped_mass")}
    if not _coulomb_bottom(model):
        del diag["sh_violations"]
    snapshots = []
    pending = list(config.snapshot_times)
    if pending[0] == 0.0:
        snapshots.append(_snapshot(grid, 0.0, bed))
        pending.pop(0)
    t = 0.0
    steps = 0
    while pending:
        t_target = pending[0]
        while t < t_target:
            steps += 1
            if steps > config.max_steps:
                raise RuntimeError(f"exceeded {config.max_steps} steps at t={t:.8g}")
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
        pending.pop(0)
    return RunResult(snapshots=snapshots,
                     diagnostics={k: np.asarray(v) for k, v in diag.items()},
                     config=config, basis=basis)


def _coulomb_bottom(model) -> bool:
    """Whether the model has a Coulomb bottom, the setting of the Savage-Hutter
    sliding-law assumptions that savage_hutter_violations checks."""
    return isinstance(model.bottom_law, CoulombBottom)


def _record(diag: dict, t: float, dt: float, grid, info: dict, basis) -> None:
    U = grid.interior()
    P = grid.primitive[1:-1]
    wet = ~grid.dry()[1:-1]
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
    """CSV with 17 significant digits, one row per interior cell."""
    N = snapshot.alpha.shape[1]
    header = ["x", "h", "u_m"] + [f"alpha_{i}" for i in range(1, N + 1)] + ["u_bottom", "h_s"]
    cols = np.column_stack([snapshot.x, snapshot.h, snapshot.u_m, snapshot.alpha,
                            snapshot.u_bottom, snapshot.h_s])
    try:
        with open(path, "w", newline="") as f:
            f.write(",".join(header) + "\n")
            for row in cols:
                f.write(",".join("%.17g" % v for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write snapshot to {path}: {exc}") from exc


_PROFILE_CHUNK_ROWS = 1024


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


def front_position(snapshot: Snapshot, h_min: float) -> float:
    """Largest x whose height exceeds 10 * h_min (-inf if the flow is all dry).

    The factor 10 keeps desingularization noise in nearly-dry cells from
    registering as flow.

    The value saturates at the last cell centre once the flow reaches the
    right boundary, so fronts that got there tie whatever their speed. A
    comparison of fronts needs interior fronts: check that the last cell is
    dry (``snapshot.h[-1] <= h_min``) before comparing.
    """
    mask = snapshot.h > 10.0 * h_min
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
            for i in range(len(d["time"])):
                f.write(",".join("%.17g" % float(d[k][i]) for k in keys) + "\n")
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
    ("stepper", "newton_tol", "newton_tol", float),
    ("stepper", "newton_max_iter", "newton_max_iter", int),
    ("stepper", "dt_fixed", "dt_fixed", float),
    ("stepper", "h_min", "h_min", float),
    ("stepper", "quad_points", "quad_points", int),
    ("stepper", "max_steps", "max_steps", int),
    ("output", "times", "snapshot_times", _floats),
    ("output", "dir", "out_dir", str),
    ("output", "profile_resolution", "profile_resolution", int),
)

# [model] keys of each friction model's parameters; the moment order already
# uses key "n", so the Manning coefficient gets the file key "manning_n"
_FRICTION_KEYS = {
    "newtonian_slip": ("lambda", "eta"),
    "newtonian_manning": ("manning_n", "eta"),
    "savage_hutter": ("delta", "phi_int"),
    "coulomb": ("delta", "mu"),
    "mu_i": ("mu_s", "mu_2", "i0", "d_s", "bottom", "lambda", "eta0", "manning_n", "delta"),
}
# a model needs all its keys, but mu_i only its first four and those of the
# bottom law it names in "bottom" (default slip, whose viscosity is eta0)
_MU_I_BOTTOM_KEYS = {"slip": ("lambda", "eta0"), "manning": ("manning_n",), "coulomb": ("delta",)}
_FILE_KEY = {"Lambda": "lambda", "I0": "i0", "n": "manning_n"}
_PARAM_OF = {key: param for param, key in _FILE_KEY.items()}

_IC_KEYS = {"kind": str, "h": float, "x_lo": float, "x_hi": float, "u_m": float,
            "alpha": _floats}

# keys of removed options, with the one value that still loads: the
# transport path is always primitive and the bed slope enters with one sign
_REMOVED_KEYS = {("stepper", "path_variable"): "primitive",
                 ("output", "flip_topography_sign"): "false"}

# every key some reader takes; keys of another friction model than the
# configured one are accepted, so a file can switch models with one key
_KNOWN_KEYS = ({(section, key.lower()) for section, key, _, _ in _FILE_FIELDS}
               | {("model", key) for keys in _FRICTION_KEYS.values() for key in keys}
               | {("ic", key) for key in _IC_KEYS} | set(_REMOVED_KEYS))


def config_to_mapping(config: SimConfig) -> dict:
    """Flatten a SimConfig into {section: {key: string}} (the file format)."""
    mapping = {}
    for section, key, name, _ in _FILE_FIELDS:
        value = getattr(config, name)
        if value is not None:
            mapping.setdefault(section, {})[key] = _fmt(value)
    for param, value in config.friction_params.items():
        mapping["model"][_FILE_KEY.get(param, param.lower())] = _fmt(value)
    mapping["ic"] = {key: _fmt(value) for key, value in config.ic.items()}
    return mapping


def _parse(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"cannot parse {section}.{key} = {raw!r}: {exc}") from exc


def config_from_mapping(mapping: dict) -> SimConfig:
    """Build a SimConfig from {section: {key: string}} (inverse of the above).

    Raises ValueError naming section.key for a key that nothing reads, for a
    value that does not parse, and for a removed option set to anything but
    the value that still loads.
    """
    sections = {}
    for section, kv in mapping.items():
        sections.setdefault(section.lower(), {}).update((k.lower(), v) for k, v in kv.items())
    for section, kv in sections.items():
        for key, raw in kv.items():
            if (section, key) not in _KNOWN_KEYS:
                raise ValueError(f"unknown config key {section}.{key}")
            allowed = _REMOVED_KEYS.get((section, key))
            if allowed is not None and raw.strip().lower() != allowed:
                raise ValueError(f"{section}.{key} was removed; only {allowed!r} still loads")
    kw = {name: _parse(section, key.lower(), parse, sections[section][key.lower()])
          for section, key, name, parse in _FILE_FIELDS
          if key.lower() in sections.get(section, {})}
    friction = kw.get("friction", SimConfig.friction)
    if friction not in _FRICTION_KEYS:
        raise ValueError(f"unknown friction model {friction!r}")
    model = sections.get("model", {})
    kw["friction_params"] = {
        _PARAM_OF.get(key, key): raw if key == "bottom" else _parse("model", key, float, raw)
        for key, raw in model.items() if key in _FRICTION_KEYS[friction]}
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


def write_outputs(result: RunResult, out_dir: str) -> list:
    """Write snapshot CSVs, the run summary, and optional profile fields."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    written = []
    for snap in result.snapshots:
        name = os.path.join(out_dir, f"snapshot_t{snap.time:g}.csv")
        write_snapshot(snap, name)
        written.append(name)
    if cfg.profile_resolution is not None:
        for snap in result.snapshots:
            name = os.path.join(out_dir, f"profile_t{snap.time:g}.csv")
            emit_profile(snap, result.basis, cfg.profile_resolution, name)
            written.append(name)
    summary = os.path.join(out_dir, "summary.txt")
    write_summary(result, summary)
    written.append(summary)
    return written
