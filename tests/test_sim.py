import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swmoment import cli, scheme, sim
from swmoment.basis import MAX_GAUSS_POINTS, bottom_velocity, build_basis, reconstruct_velocity
from swmoment.friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    Newtonian,
    SlipBottom,
)
from swmoment.sim import (
    SimConfig,
    Snapshot,
    build_model,
    config_from_mapping,
    config_to_mapping,
    emit_profile,
    front_position,
    preset,
    read_config_file,
    run,
    write_snapshot,
    write_summary,
)
from swmoment.scheme import cfl_dt, make_grid
from swmoment.state import H_MIN, to_conservative
from tests.conftest import GRAN_PARAMS, case_ids

PI4 = math.pi / 4


def test_preset_dam_break_defaults():
    cfg = preset(1)
    assert cfg.N == 2 and cfg.J == 1000
    assert cfg.mode == "semi_implicit" and cfg.cfl == 0.05
    assert cfg.theta == PI4 and cfg.eps == pytest.approx(0.01, rel=1e-15)
    assert cfg.snapshot_times == (0.4, 0.6, 1.0)
    assert cfg.ic == {"kind": "block", "h": 0.08, "x_lo": 0.3, "x_hi": 0.5}
    model = build_model(cfg)
    assert isinstance(model, Newtonian) and isinstance(model.bottom_law, SlipBottom)
    assert model.nu == pytest.approx(0.0011898692691058871, rel=1e-14)
    assert model.bottom_law.nu == model.nu
    assert model.bottom_law.lam == pytest.approx(1e-4, rel=1e-14)


def test_preset_bottom_friction_variants():
    slip = build_model(preset(2))
    assert isinstance(slip, Newtonian) and isinstance(slip.bottom_law, SlipBottom)
    assert slip.bottom_law.lam == pytest.approx(1.5e-3, rel=1e-14)
    manning = build_model(preset(2, law="manning"))
    assert isinstance(manning, Newtonian) and isinstance(manning.bottom_law, ManningBottom)
    assert manning.bottom_law.n2 == pytest.approx(0.81373918003272109, rel=1e-14)
    assert build_model(preset(2, law="slip", Lambda=0.0005)).bottom_law.lam == pytest.approx(
        5e-4, rel=1e-14)
    with pytest.raises(ValueError):
        preset(2, law="tidal")


def test_preset_granular_defaults():
    cfg = preset(3)
    assert cfg.mode == "explicit"
    model = build_model(cfg)
    assert isinstance(model, ConstantCoulomb) and isinstance(model.bottom_law, CoulombBottom)
    assert model.bottom_law.delta == pytest.approx(math.radians(15.0), rel=1e-15)
    assert model.mu == math.tan(math.radians(20.0))
    steeper = build_model(preset(3, delta_deg=18.0))
    assert steeper.bottom_law.delta == pytest.approx(math.radians(18.0), rel=1e-15)


def test_preset_rheology_defaults():
    cfg = preset(4)
    assert cfg.N == 3 and cfg.mode == "explicit" and cfg.cfl == 0.01
    assert cfg.rho == 1550.0 and cfg.rho_s == 2500.0 and cfg.quad_points == 8
    model = build_model(cfg)
    assert isinstance(model, MuI)
    assert model.mu_s == 0.48 and model.mu_2 == 0.73
    assert model.c_I == pytest.approx(2.6390311051245129, rel=1e-14)
    assert model.quad_points == 8
    assert isinstance(model.bottom_law, SlipBottom)
    assert model.bottom_law.nu == pytest.approx(9.2118911156584804e-5, rel=1e-14)
    assert model.bottom_law.lam == pytest.approx(1e-3, rel=1e-14)


@pytest.mark.parametrize("H", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("example, quoted", [(1, 1e-4), (2, 1.5e-3), (4, 1e-3)])
def test_preset_slip_length_is_quoted_at_the_run_depth_scale(example, quoted, H):
    # before, a preset stored lambda = quoted * 0.1, the default H, whatever
    # H it was given, so preset(1, H=0.2) ran at lambda/H = 5e-5
    assert build_model(preset(example, H=H)).bottom_law.lam == pytest.approx(quoted, rel=1e-14)


def test_preset_unknown_id_rejected():
    with pytest.raises(ValueError):
        preset(5)
    with pytest.raises(ValueError):
        preset(0)


def test_preset_overrides_pass_through():
    cfg = preset(1, J=200, theta=math.pi / 8, mode="explicit", snapshot_times=(0.5,))
    assert cfg.J == 200 and cfg.theta == math.pi / 8
    assert cfg.mode == "explicit" and cfg.snapshot_times == (0.5,)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(J=2)
    with pytest.raises(ValueError):
        SimConfig(N=0)
    with pytest.raises(ValueError):
        SimConfig(theta=math.pi / 2)
    with pytest.raises(ValueError):
        SimConfig(snapshot_times=())
    with pytest.raises(ValueError):
        SimConfig(snapshot_times=(0.6, 0.4))
    with pytest.raises(ValueError):
        SimConfig(snapshot_times=(0.4, 0.4))
    with pytest.raises(ValueError):
        SimConfig(snapshot_times=(-0.1, 0.4))
    # a file gets the stepper checks too (test_scheme.py::test_stepper_config_validation), before any run builds the basis or grid
    mapping = config_to_mapping(preset(1))
    mapping["stepper"]["cfl"] = "0"
    with pytest.raises(ValueError, match="CFL"):
        config_from_mapping(mapping)
    # the numeric stepper and output options, each named in its error, as a
    # SimConfig and from a file, before a run solves anything
    # quad_points = 65 used to fail in basis.gauss_rule, naming no key
    bad = {"quad_points": (1, 0, -3, MAX_GAUSS_POINTS + 1), "profile_resolution": (1, 0, -2)}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                preset(1, **{name: value})
            mapping = config_to_mapping(preset(1))
            mapping["output" if name == "profile_resolution" else "stepper"][name] = str(value)
            with pytest.raises(ValueError, match=name):
                config_from_mapping(mapping)
    # a time that is not finite would step to MAX_STEPS (inf) or stamp a
    # snapshot t=nan after no step
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="snapshot_times"):
            preset(1, snapshot_times=(0.1, value))
        mapping = config_to_mapping(preset(1))
        mapping["output"]["times"] = f"0.1 {value}"
        with pytest.raises(ValueError, match="snapshot_times"):
            config_from_mapping(mapping)
    # the edge values that stay valid
    assert preset(4, quad_points=2, profile_resolution=2).quad_points == 2
    assert preset(4, quad_points=MAX_GAUSS_POINTS).quad_points == MAX_GAUSS_POINTS


# a domain or moment order that the run cannot build, as (field, value, file
# key, start of the error); before, each built a config and failed in
# make_grid or build_basis, naming no key (x_b = inf with an error about
# ic.x_lo, ic.x_hi)
BAD_DOMAIN = {
    "x_b_inf": ("x_b", math.inf, "grid.x_b", "x_b must be finite"),
    "x_a_minus_inf": ("x_a", -math.inf, "grid.x_a", "x_a must be finite"),
    "x_a_nan": ("x_a", math.nan, "grid.x_a", "x_a must be finite"),
    "x_a_at_x_b": ("x_a", 1.0, "grid.x_a", "x_a must be below x_b"),
    "x_b_below_x_a": ("x_b", -0.5, "grid.x_b", "x_a must be below x_b"),
    "N_above_max_order": ("N", 13, "model.n", "N must lie in [1, 12]"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOMAIN))
def test_config_rejects_bad_domain_and_order(case):
    name, value, key, error = BAD_DOMAIN[case]
    with pytest.raises(ValueError, match="^" + re.escape(error)):
        preset(1, **{name: value})
    mapping = config_to_mapping(preset(1))
    section, file_key = key.split(".")
    mapping[section][file_key] = str(value)
    with pytest.raises(ValueError, match="^" + re.escape(error)):
        config_from_mapping(mapping)


@pytest.mark.parametrize("name, value", [
    ("N", 2.0), ("N", True), ("J", 16.5), ("J", 40.0), ("J", "40"), ("quad_points", 8.0),
    ("profile_resolution", 4.0), ("profile_resolution", False)])
def test_config_rejects_non_integer_sizes(name, value):
    # before, profile_resolution = 4.0 ran the whole solve and then failed in
    # write_outputs with a TypeError, before summary.txt was written
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        preset(1, **{name: value})


def test_config_accepts_numpy_integer_sizes(tmp_path):
    cfg = preset(1, N=np.int64(3), J=np.int32(16), quad_points=np.int64(8),
                 profile_resolution=np.int16(4), snapshot_times=(0.001,))
    assert all(type(getattr(cfg, name)) is int
               for name in ("N", "J", "quad_points", "profile_resolution"))
    assert config_from_mapping(config_to_mapping(cfg)) == cfg
    written = sim.write_outputs(run(cfg), str(tmp_path))
    assert [os.path.basename(p) for p in written] == [
        "snapshot_t0.001.csv", "profile_t0.001.csv", "summary.txt"]
    assert "output.profile_resolution = 4\n" in (tmp_path / "summary.txt").read_text()


@pytest.mark.parametrize("name, value", [
    (name, value) for name in ("H", "L", "g", "rho") for value in (0.0, -1.0, math.nan, math.inf)
] + [("rho_s", value) for value in (0.0, -5.0, math.nan, math.inf)])
def test_config_rejects_bad_scales(name, value):
    # before, rho = 0 and rho_s = 0 failed in build_model with ZeroDivisionError,
    # rho_s < 0 with "math domain error", and g = nan built a model with nu = nan
    example = 4 if name == "rho_s" else 1
    with pytest.raises(ValueError, match=f"^{name} must"):
        preset(example, **{name: value})
    mapping = config_to_mapping(preset(example))
    mapping["scaling"][name] = str(value)
    with pytest.raises(ValueError, match=f"^{name} must"):
        config_from_mapping(mapping)


@pytest.mark.parametrize("name, value", [
    ("theta", True), ("g", True), ("cfl", True), ("snapshot_times", (True,)),
    ("snapshot_times", ("0.1",)), ("H", "0.1"), ("cfl", "0.1"), ("x_b", "2"), ("rho_s", "3")])
def test_config_rejects_float_field_that_is_not_a_number(name, value):
    # before, each bool was accepted as 1.0, and each str raised a TypeError
    # naming no field (or, in snapshot_times, was converted by float())
    shown = value[0] if name == "snapshot_times" else value
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {re.escape(repr(shown))}$"):
        SimConfig(**{name: value})
    # a numpy float is a real number
    SimConfig(**{name: (np.float64(0.1),) if name == "snapshot_times" else np.float64(0.5)})


@pytest.mark.parametrize("example, overrides, key", [
    (1, {"H": 1e-200}, "eta"),  # H * H underflows to 0
    (1, {"H": 1e200}, "eta"),  # the viscosity underflows to 0
    (2, {"law": "manning", "H": 1e-250}, "eta"),
    (4, {"friction": "mu_i_manning", "H": 1e-250,  # H ** (4/3) underflows to 0
         "friction_params": dict(GRAN_PARAMS, manning_n=0.0165)}, "manning_n"),
    (1, {"H": 1e-3, "friction_params": {"lambda": 1e308, "eta": 0.0}}, "lambda"),  # overflows
])
def test_build_model_names_scaling_h_when_a_group_underflows_or_overflows(example, overrides,
                                                                          key):
    # before, the first three raised ZeroDivisionError, naming no key
    with pytest.raises(ValueError, match=rf"^model\.{key} = .* at scaling\.H = "):
        build_model(preset(example, **overrides))


def test_config_rejects_friction_keys_the_model_does_not_read():
    # before, "Eta" was dropped unread while config_to_mapping lowercased it
    # onto eta, so summary.txt recorded model.eta = 5 for a run with eta = 0.01
    with pytest.raises(ValueError, match="does not read 'Eta'; it reads lambda, eta$"):
        SimConfig(friction="newtonian_slip", friction_params={"lambda": 1e-5, "eta": 0.01, "Eta": 5.0})
    # the parameter names that the file keys replaced
    for old in ("Lambda", "I0", "n"):
        with pytest.raises(ValueError, match=f"does not read '{old}'"):
            preset(4, friction_params=dict(preset(4).friction_params, **{old: 0.1}))
    # a key of another model, and eta0, the former granular slip viscosity
    with pytest.raises(ValueError, match="'newtonian_manning' does not read 'lambda'"):
        preset(2, friction="newtonian_manning",
               friction_params={"lambda": 1e-4, "manning_n": 0.0165, "eta": 0.01})
    with pytest.raises(ValueError, match="'mu_i_slip' does not read 'eta0'"):
        preset(4, friction_params=dict(preset(4).friction_params, eta0=0.001))
    with pytest.raises(ValueError, match="unknown friction model 'tidal'"):
        SimConfig(friction="tidal")
    mapping = config_to_mapping(preset(1))
    mapping["model"]["friction"] = "tidal"
    with pytest.raises(ValueError, match="unknown friction model 'tidal'"):
        config_from_mapping(mapping)


def _readme_units_keys() -> set:
    """The file keys in the README's table of units and scales."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("### Units and scales", 1)[1].split("\n| ", 1)[1].split("\n\n", 1)[0]
    keys = set()
    for row in rows.splitlines()[2:]:
        keys.update(k.strip(" `").lower() for k in row.split("|")[1].split(","))
    return keys


def _readme_friction_table() -> dict:
    """{name: (bulk law, bottom law)} from the README's model.friction table,
    each law the first name in backticks of its cell."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| `model.friction` | bulk law | bottom law |", 1)[1].split("\n- ", 1)[0]
    table = {}
    for row in rows.strip().splitlines()[1:]:
        name, bulk, bottom = (re.search(r"`(\w+)", cell)[1] for cell in row.split("|")[1:4])
        table[name] = (bulk, bottom)
    return table


def test_readme_units_table_covers_every_scale_and_friction_key():
    # a friction parameter or a scale without a row in the table has no stated unit
    wanted = ({f"scaling.{key.lower()}" for section, key, _, _ in sim._FILE_FIELDS
               if section == "scaling"}
              | {f"model.{key}" for _, _, keys in sim._FRICTION.values() for key in keys})
    table = _readme_units_keys()
    assert not wanted - table, f"missing from the README units table: {sorted(wanted - table)}"
    assert table <= {f"{section}.{key}" for section, key in sim._KNOWN_KEYS}
    # and the friction table lists each friction name with its two laws
    assert _readme_friction_table() == {name: (bulk.__name__, bottom.__name__)
                                        for name, (bulk, bottom, _) in sim._FRICTION.items()}


# initial conditions build_grid cannot build, with the key their error names;
# before, these failed in the run ("'x_lo'", "index 4 is out of bounds") or
# ran: x_lo > x_hi on an empty domain to exit 0, and a misspelt key as a
# SimConfig without it
BAD_IC = {
    "unknown_kind": ({"kind": "wedge", "h": 0.05}, "ic.kind"),
    "unknown_key": ({"kind": "uniform", "h": 0.05, "um": 0.3}, "ic.um"),
    "block_without_x_lo_x_hi": ({"kind": "block", "h": 0.05}, "ic.x_lo, ic.x_hi"),
    "block_without_h": ({"kind": "block", "x_lo": 0.3, "x_hi": 0.5}, "ic.h"),
    "uniform_without_h": ({"kind": "uniform", "u_m": 0.1}, "ic.h"),
    "x_lo_above_x_hi": ({"kind": "block", "h": 0.05, "x_lo": 0.6, "x_hi": 0.5}, "ic.x_lo"),
    "x_lo_at_x_hi": ({"kind": "block", "h": 0.05, "x_lo": 0.5, "x_hi": 0.5}, "ic.x_lo"),
    "negative_h": ({"kind": "block", "h": -0.05, "x_lo": 0.3, "x_hi": 0.5}, "ic.h"),
    "nan_h": ({"kind": "uniform", "h": math.nan}, "ic.h"),
    "inf_h": ({"kind": "block", "h": math.inf, "x_lo": 0.3, "x_hi": 0.5}, "ic.h"),
    "alpha_longer_than_N": ({"kind": "uniform", "h": 0.05, "alpha": (0.1, 0.2, 0.3)}, "ic.alpha"),
    "nan_u_m": ({"kind": "uniform", "h": 0.05, "u_m": math.nan}, "ic.u_m"),
    "inf_alpha": ({"kind": "uniform", "h": 0.05, "alpha": (0.1, -math.inf)}, "ic.alpha"),
}


@pytest.mark.parametrize("case", BAD_IC)
def test_config_rejects_bad_initial_condition(case, tmp_path):
    ic, key = BAD_IC[case]
    with pytest.raises(ValueError, match=re.escape(key)):
        preset(1, ic=ic)
    lines = [f"{k} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}"
             for k, v in ic.items()]
    path = tmp_path / "ic.ini"
    path.write_text("[model]\nn = 2\n[ic]\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(key)):
        config_from_mapping(read_config_file(str(path)))


@pytest.mark.parametrize("value", ["0.1", True])
@pytest.mark.parametrize("key", ["h", "x_lo", "x_hi", "u_m", "alpha"])
def test_config_rejects_ic_value_that_is_not_a_number(key, value):
    # before, a str raised "TypeError: '<=' not supported between instances
    # of 'float' and 'str'" naming no key, and True was taken as 1.0
    ic = {"kind": "block", "h": 0.1, "x_lo": 0.3, "x_hi": 0.5, "u_m": 0.0, "alpha": (0.0,)}
    bad = dict(ic, **{key: (value,) if key == "alpha" else value})
    with pytest.raises(ValueError, match=f"^ic.{key} must be a number, got {re.escape(repr(value))}$"):
        preset(1, ic=bad)
    # a numpy float is a real number
    preset(1, ic=dict(ic, **{key: (np.float64(0.0),) if key == "alpha" else np.float64(ic[key])}))


@pytest.mark.parametrize("alpha", [0.1, "0.1 0.2", {0.1}, np.array([0.1, 0.2])],
                         ids=["float", "str", "set", "ndarray"])
def test_config_rejects_ic_alpha_that_is_not_a_sequence(alpha):
    # before, a float raised "TypeError: 'float' object is not iterable", and
    # an ndarray built a config whose mapping wrote alpha as "[0.1 0.2]",
    # which config_from_mapping cannot parse
    with pytest.raises(ValueError, match=f"^ic.alpha must be a tuple or list of numbers, "
                                         f"got {re.escape(repr(alpha))}$"):
        preset(1, ic={"kind": "uniform", "h": 0.05, "alpha": alpha})
    assert preset(1, ic={"kind": "uniform", "h": 0.05, "alpha": [0.1, 0.2]}).ic["alpha"] == [0.1, 0.2]


def test_config_rejects_ic_without_kind_and_cli_names_the_key(capsys):
    with pytest.raises(ValueError, match="ic.kind"):
        preset(1, ic={"h": 0.05, "x_lo": 0.3, "x_hi": 0.5})
    assert cli.main(["--preset", "1", "--override", "ic.x_lo=0.6"]) == 1
    assert "ic.x_lo must be below ic.x_hi" in capsys.readouterr().err
    # the edge values that stay valid: a block of zero height, N moments
    assert preset(1, ic={"kind": "block", "h": 0.0, "x_lo": 0.3, "x_hi": 0.5}).ic["h"] == 0.0
    assert len(preset(1, ic={"kind": "uniform", "h": 0.05, "alpha": (0.1, 0.2)}).ic["alpha"]) == 2


@pytest.mark.parametrize("x_lo, x_hi", [(0.31, 0.34), (1.5, 2.0), (-1.0, -0.5)])
def test_build_grid_rejects_block_that_covers_no_cell_centre(x_lo, x_hi, tmp_path):
    # cell centres of J=10 on [0, 1] are 0.05, 0.15, ..., 0.95
    cfg = preset(1, J=10, ic={"kind": "block", "h": 0.05, "x_lo": x_lo, "x_hi": x_hi})
    with pytest.raises(ValueError, match="covers no cell centre"):
        sim.build_grid(cfg)
    path = tmp_path / "ic.ini"
    path.write_text(f"[grid]\nj = 10\n[ic]\nh = 0.05\nx_lo = {x_lo}\nx_hi = {x_hi}\n")
    with pytest.raises(ValueError, match=re.escape("(ic.x_lo, ic.x_hi)")):
        sim.build_grid(config_from_mapping(read_config_file(str(path))))


def test_bathymetry_errors_name_the_key_and_the_file(tmp_path, capsys):
    # before, a typo failed with only "error: Flat not found.", comma-separated
    # samples with numpy's parse error, and samples that do not span the domain
    # with "query point outside the tabulated bed's range"
    assert cli.main(["--preset", "1", "--override", "grid.bathymetry=Flat"]) == 1
    assert ("error: grid.bathymetry must be flat, runoff or a file of bed samples, got 'Flat': "
            in capsys.readouterr().err)
    commas = tmp_path / "commas.csv"
    commas.write_text("0,0\n1,0.1\n")
    with pytest.raises(ValueError, match=f"^grid.bathymetry must be .*, got {re.escape(repr(str(commas)))}: "):
        sim.build_bed(preset(1, bathymetry=str(commas)))
    short = tmp_path / "short.txt"
    short.write_text("0 0\n0.8 0.1\n")
    with pytest.raises(ValueError, match=re.escape(f"grid.bathymetry file {str(short)!r} spans "
                                                   f"[0.0, 0.8], not the grid's domain [0.0, 1.0]")):
        sim.build_bed(preset(1, bathymetry=str(short)))


def test_bed_file_that_spans_the_domain_exactly_builds_the_grid(tmp_path):
    # the end faces are clipped to [x_a, x_b]; before, at J = 91 the last face
    # rounded above x_b = 1 and the bed refused it
    path = tmp_path / "bed.txt"
    path.write_text("# x b\n0 0\n1 0.25\n")
    grid = sim.build_grid(preset(1, J=91, bathymetry=str(path)))
    assert np.allclose(grid.dbdx, 0.25, rtol=1e-12, atol=0.0)


def test_run_zero_snapshot_echoes_initial_state():
    cfg = preset(1, J=40, snapshot_times=(0.0,))
    res = run(cfg)
    assert len(res.snapshots) == 1
    snap = res.snapshots[0]
    assert snap.time == 0.0
    inside = (snap.x >= 0.3) & (snap.x <= 0.5)
    np.testing.assert_array_equal(snap.h, np.where(inside, 0.08, 0.0))
    assert np.all(snap.u_m == 0.0) and np.all(snap.alpha == 0.0)
    assert len(res.diagnostics["time"]) == 0
    # a 0.0 target before a later one takes no step either
    res = run(dataclasses.replace(cfg, snapshot_times=(0.0, 0.001)))
    assert [s.time for s in res.snapshots] == [0.0, 0.001]
    np.testing.assert_array_equal(res.snapshots[0].h, snap.h)
    assert res.diagnostics["time"][0] > 0.0 and res.diagnostics["time"][-1] == 0.001


def test_run_uniform_equilibrium_is_stationary():
    # no inclination and zero velocity: transport and source both vanish
    cfg = SimConfig(N=2, J=16, theta=0.0, friction="newtonian_slip",
                    friction_params={"lambda": 1e-4 * 0.1, "eta": 0.01},
                    ic={"kind": "uniform", "h": 0.05}, snapshot_times=(0.05,))
    res = run(cfg)
    snap = res.snapshots[-1]
    np.testing.assert_allclose(snap.h, 0.05, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(snap.u_m, 0.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(snap.alpha, 0.0, rtol=0.0, atol=1e-12)


def test_run_lands_exactly_on_snapshot_times():
    times = (0.013, 0.0171)
    cfg = preset(1, J=40, snapshot_times=times)
    res = run(cfg)
    assert [s.time for s in res.snapshots] == list(times)
    recorded = res.diagnostics["time"]
    for t in times:
        assert np.any(recorded == t)


def test_run_diagnostics_series(tmp_path):
    cfg = preset(1, J=60, snapshot_times=(0.05,))
    res = run(cfg)
    d = res.diagnostics
    n = len(d["time"])
    assert n >= 1
    for key in ("dt", "mass", "max_speed", "dry_cells", "newton_iters",
                "newton_iters_max", "clamped_mass"):
        assert len(d[key]) == n
    # the Savage-Hutter sliding-law check applies to Coulomb bottoms only
    assert "sh_violations" not in d
    # many wet cells iterate, each at most newton_iters_max times
    assert np.all(d["newton_iters_max"] >= 1)
    assert np.all(d["newton_iters_max"] < d["newton_iters"])
    assert np.all(d["dt"] > 0.0) and np.all(np.isfinite(d["mass"]))
    mass0 = 0.08 * (0.5 - 0.3)
    assert np.max(np.abs(d["mass"] - mass0)) / mass0 < 1e-8
    write_summary(res, str(tmp_path / "summary.txt"))
    header = (tmp_path / "summary.txt").read_text().split("# diagnostics\n")[1].split("\n")[0]
    assert header.split(",") == list(d)
    assert "newton_iters_max" in header and "sh_violations" not in header

    explicit = run(preset(3, J=60, snapshot_times=(0.02,))).diagnostics
    n = len(explicit["time"])
    assert n >= 1
    assert len(explicit["sh_violations"]) == n
    assert np.array_equal(explicit["newton_iters_max"], np.zeros(n))


def test_sh_violations_skip_stored_cells(basis2):
    # a Coulomb-bottom run records sh_violations; a flow patch that meets the
    # sliding-law assumptions (u(0) = 0.4 > 0, shear > 0) ends next to one
    # stored cell, at rest with depth above H_MIN
    assert isinstance(build_model(preset(3)).bottom_law, CoulombBottom)
    grid = make_grid(0.0, 1.0, 20, 2)
    P = np.zeros((20, 4))
    P[5:15] = [0.05, 0.5, -0.1, 0.0]
    P[15, 0] = 10.0 * H_MIN
    stored = np.zeros(20, dtype=bool)
    stored[15] = True
    grid = dataclasses.replace(grid, U=to_conservative(P), stored=stored)
    diag = {k: [] for k in ("time", "dt", "mass", "max_speed", "dry_cells", "sh_violations",
                            "newton_iters", "newton_iters_max", "clamped_mass")}
    info = {"dry_cells": 11, "clamped_mass": 0.0, "newton_iters_total": 0, "newton_iters_max": 0}
    sim._record(diag, 0.1, 1e-3, grid, info, basis2)
    assert diag["sh_violations"] == [0]
    assert diag["max_speed"] == [0.5]
    # the same film, not stored, is a wet cell at rest: it violates u(0) > 0
    wet_film = dataclasses.replace(grid, stored=np.zeros(20, dtype=bool))
    sim._record(diag, 0.2, 1e-3, wet_film, dict(info, dry_cells=10), basis2)
    assert diag["sh_violations"] == [0, 1]


def test_run_on_all_dry_grid_takes_one_step_per_snapshot():
    # nothing can move, so cfl_dt is inf and each step lands on the next
    # snapshot time
    cfg = preset(1, J=16, ic={"kind": "uniform", "h": 0.5e-6}, snapshot_times=(0.5, 1.0))
    grid = sim.build_grid(cfg)
    assert np.all(grid.dry())
    assert cfl_dt(grid, cfg, sim.build_basis(cfg.N)) == math.inf
    res = run(cfg)
    assert list(res.diagnostics["time"]) == [0.5, 1.0]
    assert list(res.diagnostics["dt"]) == [0.5, 0.5]
    assert list(res.diagnostics["dry_cells"]) == [16, 16]
    for snap in res.snapshots:
        assert np.array_equal(snap.h, grid.U[:, 0])
        assert not np.any(snap.u_m) and not np.any(snap.alpha)


def test_run_is_deterministic():
    cfg = preset(1, J=32, snapshot_times=(0.05,))
    a = run(cfg).snapshots[-1]
    b = run(cfg).snapshots[-1]
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.u_m, b.u_m)
    assert np.array_equal(a.alpha, b.alpha)


def test_run_muI_N2_batched_bulk_equals_per_cell_law(monkeypatch):
    # the batched N=2 bulk keeps every cell's bits, so the whole run is
    # unchanged; one ulp added to its split-interval rows changes this state
    cfg = preset(4, N=2, J=40)
    batched = run(cfg)

    batch_bulk = MuI.bulk_terms

    def per_cell_bulk(self, P, basis):
        # each cell alone, a 1-row batch
        return np.vstack([batch_bulk(self, p[None], basis) for p in P])

    monkeypatch.setattr(MuI, "bulk_terms", per_cell_bulk)
    per_cell = run(cfg)
    assert len(batched.snapshots) == len(per_cell.snapshots) == len(cfg.snapshot_times)
    for a, b in zip(batched.snapshots, per_cell.snapshots):
        assert np.array_equal(a.h, b.h) and np.array_equal(a.u_m, b.u_m)
        assert np.array_equal(a.alpha, b.alpha)


def test_run_abort_reports_time_and_cell(monkeypatch):
    # a nonlinear law, so that the implicit stage iterates Newton
    monkeypatch.setattr(scheme, "NEWTON_MAX_ITER", 0)
    cfg = preset(2, law="manning", J=20, snapshot_times=(0.01,))
    assert cfg.mode == "semi_implicit"
    with pytest.raises(RuntimeError, match=r"aborted at t=.*cell"):
        run(cfg)


def test_run_step_budget_guard(monkeypatch):
    monkeypatch.setattr(sim, "MAX_STEPS", 2)
    cfg = preset(1, J=40, snapshot_times=(1.0,))
    with pytest.raises(RuntimeError, match="exceeded 2 steps"):
        run(cfg)


def _short_run(**overrides):
    cfg = preset(1, J=12, snapshot_times=(0.02,), **overrides)
    return run(cfg).snapshots[-1]


def test_write_snapshot_layout(tmp_path):
    snap = _short_run(N=1)
    path = tmp_path / "snap.csv"
    write_snapshot(snap, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,h,u_m,alpha_1,u_bottom,h_s"
    assert len(lines) == 1 + 12
    assert all(len(line.split(",")) == 6 for line in lines[1:])
    wide = _short_run(N=3)
    write_snapshot(wide, str(path))
    header = path.read_text().split("\n", 1)[0]
    assert header.split(",") == ["x", "h", "u_m", "alpha_1", "alpha_2", "alpha_3",
                                 "u_bottom", "h_s"]


def test_write_snapshot_rerun_is_byte_identical(tmp_path):
    snap = _short_run()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_snapshot(snap, str(p1))
    write_snapshot(snap, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_snapshot_bad_path_reports_path(tmp_path):
    snap = _short_run()
    missing = tmp_path / "no_such_dir" / "snap.csv"
    with pytest.raises(OSError, match="no_such_dir"):
        write_snapshot(snap, str(missing))


def _per_value_rows(rows):
    """The former writers' text: "%.17g" on each value, joined per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("N", [1, 6])
def test_row_writers_equal_per_value_format(N, tmp_path):
    # the snapshot and summary writers format a chunk of rows with one %; the
    # text must be that of "%.17g" on each value, on both sides of a chunk
    # edge, for -0.0, the smallest subnormal and a huge value
    rng = np.random.default_rng(50 + N)
    M, k = sim._PROFILE_CHUNK_ROWS + 3, N + 5
    cols = rng.standard_normal((M, k)) * 10.0 ** rng.integers(-300, 300, (M, k))
    cols[::7, 1] = -0.0
    cols[1::7, 2] = 5e-324
    cols[2::7, -1] = 1e300
    cols[sim._PROFILE_CHUNK_ROWS - 1:sim._PROFILE_CHUNK_ROWS + 1, 0] = [-0.0, 5e-324]
    snap = Snapshot(time=0.0, x=cols[:, 0], h=cols[:, 1], u_m=cols[:, 2],
                    alpha=cols[:, 3:3 + N], u_bottom=cols[:, -2], h_s=cols[:, -1])
    path = tmp_path / "snap.csv"
    write_snapshot(snap, str(path))
    header = ",".join(["x", "h", "u_m"] + [f"alpha_{i}" for i in range(1, N + 1)]
                      + ["u_bottom", "h_s"])
    assert path.read_bytes() == (header + "\n" + _per_value_rows(cols)).encode()
    # the summary rows, with the integer columns a run records
    diag = {f"c{i}": cols[:, i] for i in range(k)}
    diag["dry_cells"] = rng.integers(0, 2**40, M)
    result = sim.RunResult(snapshots=[], diagnostics=diag, config=preset(1), basis=None)
    write_summary(result, str(path))
    rows = [[float(diag[key][i]) for key in diag] for i in range(M)]
    text = path.read_text().split("# diagnostics\n")[1]
    assert text == ",".join(diag) + "\n" + _per_value_rows(rows)


def test_profile_constant_when_moments_vanish(basis2):
    cfg = SimConfig(N=2, J=8, theta=0.0,
                    friction_params={"lambda": 1e-5, "eta": 0.01},
                    ic={"kind": "uniform", "h": 0.05, "u_m": 0.3},
                    snapshot_times=(0.0,))
    snap = run(cfg).snapshots[0]
    rows = emit_profile(snap, basis2, resolution=7)
    assert rows.shape == (8 * 7, 3)
    np.testing.assert_allclose(rows[:, 2], 0.3, rtol=0.0, atol=1e-15)


def test_profile_bottom_row_matches_bottom_velocity():
    # the snapshot's u_bottom, the profile at zeta = 0 and the bottom laws'
    # u_b are one sum to the bit; a pairwise np.sum of the moments differed
    # from it in 76 of these 200 cells
    snap = run(preset(1, N=6, J=200, snapshot_times=(0.2,))).snapshots[-1]
    basis = build_basis(6)
    rows = emit_profile(snap, basis, resolution=5)
    bottom = rows[rows[:, 1] == 0.0]
    assert len(bottom) == len(snap.x)
    assert bottom[:, 2].tobytes() == snap.u_bottom.tobytes()
    P = np.column_stack([snap.h, snap.u_m, snap.alpha])
    assert bottom_velocity(P).tobytes() == snap.u_bottom.tobytes()
    wet = snap.h > 1e-6
    slip = SlipBottom(nu=1.0, lam=1.0).stress(P[wet], basis, None)
    assert slip.tobytes() == snap.u_bottom[wet].tobytes()


def test_profile_shear_sign_follows_first_moment(basis1):
    # u(zeta) = u_m + alpha_1 (1 - 2 zeta): negative alpha_1 shears forward
    cfg = SimConfig(N=1, J=6, theta=0.0,
                    friction_params={"lambda": 1e-5, "eta": 0.01},
                    ic={"kind": "uniform", "h": 0.05, "u_m": 0.2, "alpha": (-0.1,)},
                    snapshot_times=(0.0,))
    snap = run(cfg).snapshots[0]
    rows = emit_profile(snap, basis1, resolution=9)
    u = rows[:, 2].reshape(6, 9)
    assert np.all(np.diff(u, axis=1) > 0.0)


def test_profile_resolution_validated(basis2):
    snap = _short_run()
    with pytest.raises(ValueError):
        emit_profile(snap, None, resolution=1)
    with pytest.raises(ValueError):
        emit_profile(snap, None, resolution=0)


def test_profile_file_output(tmp_path, basis2):
    snap = _short_run()
    path = tmp_path / "field.csv"
    rows = emit_profile(snap, basis2, resolution=4, path=str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,zeta,u"
    assert len(lines) == 1 + rows.shape[0]


def test_write_outputs_profiles_use_the_run_basis(tmp_path, monkeypatch):
    result = run(preset(1, J=16, snapshot_times=(0.005,), profile_resolution=5))
    assert result.basis.N == result.config.N
    assert np.array_equal(result.basis.A, sim.build_basis(result.config.N).A)

    def no_second_build(N):
        raise AssertionError("write_outputs built the basis again")

    monkeypatch.setattr(sim, "build_basis", no_second_build)
    written = sim.write_outputs(result, str(tmp_path))
    profile = tmp_path / "profile_t0.005.csv"
    assert str(profile) in written
    rows = np.loadtxt(profile, delimiter=",", skiprows=1)
    expected = emit_profile(result.snapshots[-1], result.basis, 5)
    assert np.array_equal(rows, expected)


def test_write_outputs_names_each_snapshot_time_apart(tmp_path):
    # equal to 6 significant digits, so a "%g" name would hold both
    times = (0.01000001, 0.01000002)
    result = run(preset(1, J=20, snapshot_times=times, profile_resolution=4))
    written = sim.write_outputs(result, str(tmp_path))
    assert len(written) == len(set(written)) == 5
    for snap, t in zip(result.snapshots, times):
        assert snap.time == t
        rows = np.loadtxt(tmp_path / f"snapshot_t{t!r}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1], snap.h)
        profile = np.loadtxt(tmp_path / f"profile_t{t!r}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(profile, emit_profile(snap, result.basis, 4))
    assert not np.array_equal(result.snapshots[0].h, result.snapshots[1].h)
    # the names of the usual times are unchanged
    assert [sim._time_label(t) for t in (0.0, 0.1, 0.15, 0.2, 0.4, 0.6, 1.0)] == [
        "0", "0.1", "0.15", "0.2", "0.4", "0.6", "1"]


def _profile_lines(x, zeta, u):
    return ["x,zeta,u"] + [",".join("%.17g" % v for v in (x[j], zeta[i], u[j, i]))
                           for j in range(len(x)) for i in range(len(zeta))]


def test_profile_equals_per_cell_loop(tmp_path, basis2):
    # 50 cells x 33 levels = 1650 rows, not a multiple of the write chunk
    J, res = 50, 33
    rng = np.random.default_rng(21)
    h = rng.uniform(0.01, 0.1, J)
    alpha = rng.uniform(-0.3, 0.3, (J, 2))
    u_m = rng.uniform(-1.0, 1.0, J)
    # constant columns: dry cells at rest in both chunks, a nonzero constant,
    # and u_m = -0.0, whose column mixes -0.0 and 0.0 (-0.0 + 0.0 * phi)
    for j in (*range(10), 30, 31, *range(40, 45)):
        h[j], u_m[j], alpha[j] = 0.0, 0.0, 0.0
    u_m[[25, 26]], alpha[[25, 26]] = 0.7, 0.0
    u_m[20], alpha[20] = -0.0, 0.0
    snap = Snapshot(time=0.0, x=np.sort(rng.uniform(0.0, 1.0, J)), h=h, u_m=u_m,
                    alpha=alpha, u_bottom=u_m + alpha.sum(axis=1), h_s=h)
    path = tmp_path / "field.csv"
    rows = emit_profile(snap, basis2, res, str(path))
    zeta = np.linspace(0.0, 1.0, res)
    expected = np.empty((J, res, 3))
    for j in range(J):
        expected[j, :, 0] = snap.x[j]
        expected[j, :, 1] = zeta
        expected[j, :, 2] = reconstruct_velocity(basis2, u_m[j], alpha[j], zeta)
    u = expected[:, :, 2]
    assert np.all(u[25] == 0.7)
    assert np.any(np.signbit(u[20])) and not np.all(np.signbit(u[20]))
    expected = expected.reshape(-1, 3)
    assert rows.tobytes() == expected.tobytes()
    assert path.read_text() == "\n".join(_profile_lines(snap.x, zeta, u)) + "\n"


def test_profile_writer_keeps_signed_zero_columns_apart(tmp_path):
    # a column of -0.0 and one of 0.0 are both constant; the first of each
    # kind sets the kept block, so neither may be written as the other
    res = 40
    x = np.linspace(0.0, 1.0, 60)
    zeta = np.linspace(0.0, 1.0, res)
    u = np.random.default_rng(4).uniform(-1.0, 1.0, (len(x), res))
    u[[3, 30, 59]] = -0.0
    u[[4, 31, 58]] = 0.0
    u[5] = -0.0
    u[5, 7] = 0.0
    u[6] = 1.5
    path = tmp_path / "field.csv"
    with open(path, "w") as f:
        f.write("x,zeta,u\n")
        sim._write_profile_rows(f, x, zeta, u)
    assert path.read_text() == "\n".join(_profile_lines(x, zeta, u)) + "\n"


def test_front_position_threshold():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    zeros = np.zeros(4)
    snap = Snapshot(time=0.0, x=x, h=np.array([0.05, 2e-5, 5e-6, 0.0]),
                    u_m=zeros, alpha=np.zeros((4, 1)), u_bottom=zeros, h_s=zeros)
    # 5e-6 sits below 10*H_MIN and must not register as flow
    assert front_position(snap) == 0.2
    dry = Snapshot(time=0.0, x=x, h=np.full(4, 1e-6), u_m=zeros,
                   alpha=np.zeros((4, 1)), u_bottom=zeros, h_s=zeros)
    assert front_position(dry) == -math.inf


@pytest.mark.parametrize("example,kwargs", [
    (1, {}),
    (2, {"law": "manning"}),
    (3, {"delta_deg": 18.0}),
    (4, {"bathymetry": "runoff"}),
    (1, {"J": 40, "quad_points": 16}),
    # every optional field set; the tuples need all 17 digits
    (1, {"out_dir": "results/run 1", "profile_resolution": 17,
         "rho_s": 2600.0, "x_a": -0.5, "x_b": 2.25, "snapshot_times": (0.1 / 3, 0.2),
         "ic": {"kind": "uniform", "h": 0.05, "u_m": 0.1, "alpha": (-0.02, 0.01 / 3)}}),
])
def test_config_mapping_round_trip(example, kwargs):
    cfg = preset(example, **kwargs)
    assert config_from_mapping(config_to_mapping(cfg)) == cfg


def test_config_file_table_covers_every_field():
    # a SimConfig field without a file key would be lost in the round trip
    table = {name for _, _, name, _ in sim._FILE_FIELDS}
    assert len(table) == len(sim._FILE_FIELDS)
    assert {f.name for f in dataclasses.fields(SimConfig)} == table | {"friction_params", "ic"}


def test_config_unknown_key_raises():
    mapping = config_to_mapping(preset(1))
    mapping["grid"]["jj"] = "24"
    with pytest.raises(ValueError, match="grid.jj"):
        config_from_mapping(mapping)
    with pytest.raises(ValueError, match="solver.cfl"):
        config_from_mapping({"solver": {"cfl": "0.1"}})
    # keys are case-insensitive, within and across spellings of a section
    mixed = {"Grid": {"J": "24"}, "grid": {"x_b": "2"}}
    assert config_from_mapping(mixed) == SimConfig(J=24, x_b=2.0)
    # removed options are keys that nothing reads, whatever their value:
    # dt_max, dt_fixed (the step is always the CFL step), the constants
    # scheme.NEWTON_TOL, scheme.NEWTON_MAX_ITER, sim.MAX_STEPS and the dry
    # threshold state.H_MIN, the transport path (always primitive) and the
    # sign of the bed slope. None of them is a SimConfig argument either
    for section, key, value in (("stepper", "dt_max", "0.001"), ("stepper", "dt_fixed", "2.5e-4"),
                                ("stepper", "newton_tol", "1e-9"),
                                ("stepper", "newton_max_iter", "100"),
                                ("stepper", "max_steps", "10"),
                                ("stepper", "h_min", "1e-6"),
                                ("stepper", "path_variable", "primitive"),
                                ("stepper", "path_variable", "conservative"),
                                ("output", "flip_topography_sign", "false"),
                                ("output", "flip_topography_sign", "true")):
        mapping = config_to_mapping(preset(1))
        mapping[section][key] = value
        with pytest.raises(ValueError, match=f"^unknown config key {section}.{key}$"):
            config_from_mapping(mapping)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            SimConfig(**{key: value})
    # a key of another friction model is accepted (and not read)
    mapping = config_to_mapping(preset(2))
    mapping["model"]["friction"] = "newtonian_manning"
    mapping["model"]["manning_n"] = "0.0165"
    cfg = config_from_mapping(mapping)
    assert cfg.friction_params == {"manning_n": 0.0165, "eta": 0.01}


def test_config_round_trip_through_file(tmp_path):
    cfg = preset(2, law="manning", J=64, snapshot_times=(0.1, 0.25))
    path = tmp_path / "run.ini"
    text = []
    for section, kv in config_to_mapping(cfg).items():
        text.append(f"[{section}]")
        text.extend(f"{k} = {v}" for k, v in kv.items())
    path.write_text("\n".join(text) + "\n")
    assert config_from_mapping(read_config_file(str(path))) == cfg


def test_read_config_file_missing():
    with pytest.raises(FileNotFoundError):
        read_config_file("/no/such/config.ini")


def test_cli_preset_run_writes_outputs(tmp_path, capsys):
    rc = cli.main(["--preset", "1", "--out", str(tmp_path),
                   "--override", "grid.j=24",
                   "--override", "output.times=0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "front position" in out
    assert (tmp_path / "snapshot_t0.01.csv").exists()
    assert (tmp_path / "summary.txt").exists()


def test_cli_config_file_with_profile(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        "[grid]\nj = 16\n"
        "[output]\ntimes = 0.01\nprofile_resolution = 5\n"
    )
    rc = cli.main(["--preset", "1", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "profile_t0.01.csv").exists()


def test_cli_requires_preset_or_config():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_cli_reports_bad_inputs(tmp_path, capsys):
    assert cli.main(["--preset", "1", "--override", "nonsense"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["--preset", "1", "--override", "grid.j=banana"]) == 1
    assert cli.main(["--config", str(tmp_path / "missing.ini")]) == 1


def test_config_value_that_does_not_parse_names_its_key():
    cases = [("grid", "J", "banana", "grid.j"), ("stepper", "cfl", "fast", "stepper.cfl"),
             ("output", "times", "0.1 soon", "output.times"),
             ("model", "eta", "thick", "model.eta"), ("ic", "h", "deep", "ic.h")]
    for section, key, raw, name in cases:
        mapping = config_to_mapping(preset(1))
        mapping[section][key] = raw
        with pytest.raises(ValueError, match=f"{name} = '{raw}'"):
            config_from_mapping(mapping)


def test_cli_value_that_does_not_parse_names_its_key(tmp_path, capsys):
    assert cli.main(["--preset", "1", "--out", str(tmp_path), "--override", "grid.j=banana"]) == 1
    err = capsys.readouterr().err
    assert "grid.j" in err and "banana" in err
    assert not any(tmp_path.iterdir())


def test_cli_rejects_unknown_key(tmp_path, capsys):
    assert cli.main(["--preset", "1", "--out", str(tmp_path), "--override", "grid.jj=24"]) == 1
    assert "grid.jj" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_readme_friction_switch_loads(tmp_path, capsys):
    # the README example: preset 2's slip keys stay in the mapping next to the
    # Manning ones after the switch
    rc = cli.main(["--preset", "2", "--out", str(tmp_path),
                   "--override", "model.friction=newtonian_manning",
                   "--override", "model.manning_n=0.0165",
                   "--override", "grid.j=16", "--override", "output.times=0.005"])
    assert rc == 0, capsys.readouterr().err
    summary = (tmp_path / "summary.txt").read_text()
    assert "model.friction = newtonian_manning" in summary
    assert "model.manning_n = 0.0165" in summary


_GRANULAR_KEYS = {"mu_s": "0.48", "mu_2": "0.73", "i0": "0.279", "d_s": "7e-4"}
# every friction name and the [model] keys it needs
MISSING_KEY_CASES = {
    "newtonian_slip": {"lambda": "1e-4", "eta": "0.01"},
    "newtonian_manning": {"manning_n": "0.0165", "eta": "0.01"},
    "savage_hutter": {"delta": "0.26", "phi_int": "0.35"},
    "coulomb": {"delta": "0.26", "mu": "0.4"},
    "mu_i_slip": {**_GRANULAR_KEYS, "lambda": "1e-4", "eta": "0.001"},
    "mu_i_manning": {**_GRANULAR_KEYS, "manning_n": "0.0165"},
    "mu_i_coulomb": {**_GRANULAR_KEYS, "delta": "0.26"},
    "mu_i": _GRANULAR_KEYS,
}


def _friction_mapping(case: str, drop: str | None = None) -> dict:
    keys = {k: v for k, v in MISSING_KEY_CASES[case].items() if k != drop}
    return {"model": {"friction": case, **keys}, "scaling": {"rho_s": "2500"},
            "grid": {"j": "16"}, "output": {"times": "0.001"}}


def test_missing_key_cases_cover_every_friction_pairing():
    # a friction name added to sim._FRICTION needs a case, so that the
    # missing-key, CLI and round-trip checks below cover it
    assert set(MISSING_KEY_CASES) == set(sim._FRICTION)
    for case, keys in MISSING_KEY_CASES.items():
        assert set(keys) == set(sim._FRICTION[case][2])


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES), ids=case_ids("/"))
def test_friction_config_round_trip(case):
    cfg = config_from_mapping(_friction_mapping(case))
    assert cfg.friction_params == {k: float(v) for k, v in MISSING_KEY_CASES[case].items()}
    assert config_from_mapping(config_to_mapping(cfg)) == cfg


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES), ids=case_ids("/"))
def test_config_rejects_non_finite_friction_parameter(case):
    # before, mu_2 = inf and lambda = inf ran to exit 0, and eta = nan or
    # manning_n = nan made the implicit source solve skip its rows
    cfg = config_from_mapping(_friction_mapping(case))
    for key in sorted(MISSING_KEY_CASES[case]):
        for value in (math.nan, math.inf, -math.inf):
            error = f"^model.{key} must be finite, got {value}$"
            with pytest.raises(ValueError, match=error):
                dataclasses.replace(cfg, friction_params=dict(cfg.friction_params, **{key: value}))
            mapping = _friction_mapping(case)
            mapping["model"][key] = str(value)
            with pytest.raises(ValueError, match=error):
                config_from_mapping(mapping)


def test_config_rejects_unknown_bottom_law(capsys):
    # a friction name picks its bottom law, so model.bottom and eta0, the
    # former mu_i slip viscosity, are keys that nothing reads
    for key, value in (("bottom", "mu_i"), ("bottom", "tidal"), ("eta0", "0.001")):
        mapping = _friction_mapping("mu_i_slip")
        mapping["model"][key] = value
        with pytest.raises(ValueError, match=f"^unknown config key model.{key}$"):
            config_from_mapping(mapping)
    assert cli.main(["--preset", "4", "--override", "model.bottom=mu_i"]) == 1
    assert "unknown config key model.bottom" in capsys.readouterr().err
    with pytest.raises(ValueError, match="'mu_i_slip' does not read 'bottom'"):
        preset(4, friction_params=dict(preset(4).friction_params, bottom="mu_i"))


def test_config_reads_only_the_keys_of_its_bottom_law(tmp_path, capsys):
    # the mu(I) bottom reads no slip keys: a SimConfig rejects them, and a
    # file that switches preset 4 to mu_i does not record them
    with pytest.raises(ValueError, match="^friction model 'mu_i' does not read 'lambda', 'eta'; "
                                         "it reads mu_s, mu_2, i0, d_s$"):
        preset(4, friction="mu_i")
    rc = cli.main(["--preset", "4", "--out", str(tmp_path), "--override", "model.friction=mu_i",
                   "--override", "grid.j=16", "--override", "output.times=0.001"])
    assert rc == 0, capsys.readouterr().err
    summary = (tmp_path / "summary.txt").read_text()
    assert "model.friction = mu_i\n" in summary
    assert "model.lambda" not in summary and "model.eta" not in summary


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES), ids=case_ids("/"))
def test_build_model_names_missing_friction_parameter(case):
    build_model(config_from_mapping(_friction_mapping(case)))
    for key in sorted(MISSING_KEY_CASES[case]):
        cfg = config_from_mapping(_friction_mapping(case, drop=key))
        with pytest.raises(ValueError, match=f"'{case}' needs model.{key}$"):
            build_model(cfg)
    # a config with no parameters still constructs; the model names them all
    with pytest.raises(ValueError, match="needs model.*, model."):
        build_model(SimConfig(friction=case))


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES), ids=case_ids("/"))
def test_cli_missing_friction_parameter_names_key(case, tmp_path, capsys):
    for key in sorted(MISSING_KEY_CASES[case]):
        path = tmp_path / "run.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                for section, kv in _friction_mapping(case, drop=key).items()))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 1
        assert f"model.{key}" in capsys.readouterr().err
        assert not out.exists()


# a value out of range for each [model] key, under a friction name that
# reads it, and the range its error names
OUT_OF_RANGE = {
    "lambda": ("newtonian_slip", 0.0, "positive"),
    "eta": ("newtonian_slip", -1.0, "nonnegative"),
    "manning_n": ("newtonian_manning", -0.0165, "nonnegative"),
    "mu": ("coulomb", -0.4, "nonnegative"),
    "delta": ("coulomb", -0.1, "in [0, pi/2)"),
    "phi_int": ("savage_hutter", math.pi / 2, "in [0, pi/2)"),
    "mu_s": ("mu_i", 0.0, "positive"),
    "mu_2": ("mu_i", -0.73, "positive"),
    "i0": ("mu_i", -0.279, "positive"),
    "d_s": ("mu_i", -7e-4, "positive"),
}


@pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
def test_config_rejects_out_of_range_friction_parameter(key):
    # before, manning_n = -0.0165 ran as +0.0165 (the scaling squares n), and
    # the laws' errors named no key (mu < 0, mu_s, delta), or a scaled group:
    # eta = -1 gave nu = -0.119, i0 < 0 a negative c_I, lambda = 0 "slip length"
    assert set(OUT_OF_RANGE) == {key for _, _, keys in sim._FRICTION.values() for key in keys}
    case, value, text = OUT_OF_RANGE[key]
    mapping = _friction_mapping(case)
    mapping["model"][key] = repr(value)
    with pytest.raises(ValueError, match=f"^model.{key} must be {re.escape(text)}, got {value}$"):
        config_from_mapping(mapping)


@pytest.mark.parametrize("value", ["1e-5", True])
def test_config_rejects_friction_parameter_that_is_not_a_number(value):
    # before, a str raised "TypeError: must be real number, not str" naming no
    # key, and True was taken as 1.0
    with pytest.raises(ValueError, match=f"^model.lambda must be a number, got {re.escape(repr(value))}$"):
        SimConfig(friction="newtonian_slip", friction_params={"lambda": value, "eta": 0.01})
    # a numpy float is a real number
    SimConfig(friction="newtonian_slip", friction_params={"lambda": np.float64(1e-5), "eta": 0.01})


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES))
def test_every_friction_name_runs(case):
    # each name on preset 4's block, stepped explicitly (the mu(I) names
    # still abort at t = 0 when semi-implicit); only a Coulomb bottom records
    # the Savage-Hutter sliding-law check
    mapping = config_to_mapping(preset(4, J=40, snapshot_times=(0.05,)))
    mapping["model"].update(friction=case, **MISSING_KEY_CASES[case])
    mapping["stepper"]["mode"] = "explicit"
    result = run(config_from_mapping(mapping))
    snap = result.snapshots[-1]
    assert snap.time == 0.05
    assert np.all(np.isfinite(np.column_stack([snap.h, snap.u_m, snap.alpha])))
    coulomb_bottom = case in ("savage_hutter", "coulomb", "mu_i_coulomb")
    assert ("sh_violations" in result.diagnostics) == coulomb_bottom


def test_cli_module_invocation(tmp_path):
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "swmoment.cli", "--preset", "1",
         "--out", str(tmp_path), "--override", "grid.j=16",
         "--override", "output.times=0.005"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "completed" in proc.stdout
