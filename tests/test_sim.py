import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from swmoment import cli, sim
from swmoment.basis import reconstruct_velocity
from swmoment.friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    Newtonian,
    SlipBottom,
    muI_bulk_analytic_N2,
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
from swmoment.scheme import apply_transmissive_bc, cfl_dt, make_grid
from swmoment.state import WetDryPolicy, to_conservative

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
    bad = {"dt_fixed": (0.0, -1e-3, math.inf, math.nan), "h_min": (0.0, -1e-6, math.nan),
           "max_steps": (0, -5), "newton_max_iter": (-1,), "newton_tol": (0.0, math.nan),
           "quad_points": (1, 0, -3), "profile_resolution": (1, 0, -2)}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                preset(1, **{name: value})
            mapping = config_to_mapping(preset(1))
            mapping["output" if name == "profile_resolution" else "stepper"][name] = str(value)
            with pytest.raises(ValueError, match=name):
                config_from_mapping(mapping)
    # the edge values that stay valid: no fixed step, and newton_max_iter = 0
    # (any cell that needs an iteration then aborts the step)
    assert preset(1, dt_fixed=None, newton_max_iter=0, max_steps=1).newton_max_iter == 0
    assert preset(1, dt_fixed=1e-300).dt_fixed == 1e-300
    assert preset(4, quad_points=2, profile_resolution=2).quad_points == 2


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


def test_run_uniform_equilibrium_is_stationary():
    # no inclination and zero velocity: transport and source both vanish
    cfg = SimConfig(N=2, J=16, theta=0.0, friction="newtonian_slip",
                    friction_params={"Lambda": 1e-4 * 0.1, "eta": 0.01},
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
    # stored cell, at rest with depth above h_min
    assert isinstance(build_model(preset(3)).bottom_law, CoulombBottom)
    policy = WetDryPolicy(h_min=1e-6)
    grid = make_grid(0.0, 1.0, 20, 2, policy)
    P = np.zeros((20, 4))
    P[5:15] = [0.05, 0.5, -0.1, 0.0]
    P[15, 0] = 10.0 * policy.h_min
    U = grid.U.copy()
    U[1:-1] = to_conservative(P)
    stored = np.zeros(22, dtype=bool)
    stored[16] = True
    grid = apply_transmissive_bc(dataclasses.replace(grid, U=U, stored=stored))
    diag = {k: [] for k in ("time", "dt", "mass", "max_speed", "dry_cells", "sh_violations",
                            "newton_iters", "newton_iters_max", "clamped_mass")}
    info = {"dry_cells": 11, "clamped_mass": 0.0, "newton_iters_total": 0, "newton_iters_max": 0}
    sim._record(diag, 0.1, 1e-3, grid, info, basis2)
    assert diag["sh_violations"] == [0]
    assert diag["max_speed"] == [0.5]
    # the same film, not stored, is a wet cell at rest: it violates u(0) > 0
    wet_film = dataclasses.replace(grid, stored=np.zeros(22, dtype=bool))
    sim._record(diag, 0.2, 1e-3, wet_film, dict(info, dry_cells=10), basis2)
    assert diag["sh_violations"] == [0, 1]


def test_run_applies_the_boundary_condition_once(monkeypatch):
    # build_grid applies it; each step returns its grid with mirrored ghosts
    calls = []

    def counted(grid):
        calls.append(grid)
        return apply_transmissive_bc(grid)

    monkeypatch.setattr(sim, "apply_transmissive_bc", counted)
    res = run(preset(1, J=40, snapshot_times=(0.05, 0.1)))
    assert len(res.diagnostics["time"]) > 2
    assert len(calls) == 1


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
        assert np.array_equal(snap.h, grid.interior()[:, 0])
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

    def per_cell_bulk(self, P, basis):
        return np.array([muI_bulk_analytic_N2(p[0], p[2], p[3], self, basis) for p in P])

    monkeypatch.setattr(MuI, "bulk_terms", per_cell_bulk)
    per_cell = run(cfg)
    assert len(batched.snapshots) == len(per_cell.snapshots) == len(cfg.snapshot_times)
    for a, b in zip(batched.snapshots, per_cell.snapshots):
        assert np.array_equal(a.h, b.h) and np.array_equal(a.u_m, b.u_m)
        assert np.array_equal(a.alpha, b.alpha)


def test_run_abort_reports_time_and_cell():
    cfg = preset(1, J=20, newton_max_iter=0, snapshot_times=(0.01,))
    with pytest.raises(RuntimeError, match=r"aborted at t=.*cell"):
        run(cfg)


def test_run_step_budget_guard():
    cfg = preset(1, J=40, max_steps=2, snapshot_times=(1.0,))
    with pytest.raises(RuntimeError, match="exceeded"):
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


def test_profile_constant_when_moments_vanish(basis2):
    cfg = SimConfig(N=2, J=8, theta=0.0,
                    friction_params={"Lambda": 1e-5, "eta": 0.01},
                    ic={"kind": "uniform", "h": 0.05, "u_m": 0.3},
                    snapshot_times=(0.0,))
    snap = run(cfg).snapshots[0]
    rows = emit_profile(snap, basis2, resolution=7)
    assert rows.shape == (8 * 7, 3)
    np.testing.assert_allclose(rows[:, 2], 0.3, rtol=0.0, atol=1e-15)


def test_profile_bottom_row_matches_bottom_velocity(basis2):
    snap = _short_run()
    res = 5
    rows = emit_profile(snap, basis2, resolution=res)
    bottom = rows[rows[:, 1] == 0.0]
    assert len(bottom) == len(snap.x)
    np.testing.assert_allclose(bottom[:, 2], snap.u_bottom, rtol=0.0, atol=1e-14)


def test_profile_shear_sign_follows_first_moment(basis1):
    # u(zeta) = u_m + alpha_1 (1 - 2 zeta): negative alpha_1 shears forward
    cfg = SimConfig(N=1, J=6, theta=0.0,
                    friction_params={"Lambda": 1e-5, "eta": 0.01},
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
    # 5e-6 sits below 10*h_min and must not register as flow
    assert front_position(snap, h_min=1e-6) == 0.2
    dry = Snapshot(time=0.0, x=x, h=np.full(4, 1e-6), u_m=zeros,
                   alpha=np.zeros((4, 1)), u_bottom=zeros, h_s=zeros)
    assert front_position(dry, h_min=1e-6) == -math.inf


@pytest.mark.parametrize("example,kwargs", [
    (1, {}),
    (2, {"law": "manning"}),
    (3, {"delta_deg": 18.0}),
    (4, {"bathymetry": "runoff"}),
    (1, {"J": 40, "max_steps": 7}),
    # every optional field set; the tuples need all 17 digits
    (1, {"dt_fixed": 2.5e-4, "out_dir": "results/run 1", "profile_resolution": 17,
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


def test_config_path_variable_only_primitive():
    # removed options: the transport path is always primitive and the bed
    # slope has one sign. Files that give the one behaviour left still load;
    # any other value fails instead of silently running without it
    for section, key, kept, other in (("stepper", "path_variable", "primitive", "conservative"),
                                      ("output", "flip_topography_sign", "false", "true")):
        mapping = config_to_mapping(preset(1))
        assert key not in mapping[section]
        mapping[section][key] = kept
        assert config_from_mapping(mapping) == preset(1)
        mapping[section][key] = other
        with pytest.raises(ValueError, match=f"{section}.{key}"):
            config_from_mapping(mapping)


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
    # the removed stepper.dt_max is a key that nothing reads
    mapping = config_to_mapping(preset(1))
    mapping["stepper"]["dt_max"] = "0.001"
    with pytest.raises(ValueError, match="unknown config key stepper.dt_max"):
        config_from_mapping(mapping)
    # a key of another friction model is accepted (and not read)
    mapping = config_to_mapping(preset(2))
    mapping["model"]["friction"] = "newtonian_manning"
    mapping["model"]["manning_n"] = "0.0165"
    cfg = config_from_mapping(mapping)
    assert cfg.friction_params == {"n": 0.0165, "eta": 0.01}


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
# every friction config name, mu_i with each bottom law, and the [model] keys it needs
MISSING_KEY_CASES = {
    "newtonian_slip": {"lambda": "1e-4", "eta": "0.01"},
    "newtonian_manning": {"manning_n": "0.0165", "eta": "0.01"},
    "savage_hutter": {"delta": "0.26", "phi_int": "0.35"},
    "coulomb": {"delta": "0.26", "mu": "0.4"},
    "mu_i": {**_GRANULAR_KEYS, "lambda": "1e-4", "eta0": "0.001"},
    "mu_i/slip": {**_GRANULAR_KEYS, "bottom": "slip", "lambda": "1e-4", "eta0": "0.001"},
    "mu_i/manning": {**_GRANULAR_KEYS, "bottom": "manning", "manning_n": "0.0165"},
    "mu_i/coulomb": {**_GRANULAR_KEYS, "bottom": "coulomb", "delta": "0.26"},
    "mu_i/mu_i": {**_GRANULAR_KEYS, "bottom": "mu_i"},
}


def _friction_mapping(case: str, drop: str | None = None) -> dict:
    keys = {k: v for k, v in MISSING_KEY_CASES[case].items() if k != drop}
    return {"model": {"friction": case.split("/")[0], **keys}, "scaling": {"rho_s": "2500"},
            "grid": {"j": "16"}, "output": {"times": "0.001"}}


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES))
def test_build_model_names_missing_friction_parameter(case):
    build_model(config_from_mapping(_friction_mapping(case)))
    name = case.split("/")[0]
    for key in sorted(set(MISSING_KEY_CASES[case]) - {"bottom"}):
        cfg = config_from_mapping(_friction_mapping(case, drop=key))
        with pytest.raises(ValueError, match=f"'{name}' needs model.{key}$"):
            build_model(cfg)
    # a config with no parameters still constructs; the model names them all
    with pytest.raises(ValueError, match="needs model.*, model."):
        build_model(SimConfig(friction=name))


@pytest.mark.parametrize("case", sorted(MISSING_KEY_CASES))
def test_cli_missing_friction_parameter_names_key(case, tmp_path, capsys):
    for key in sorted(set(MISSING_KEY_CASES[case]) - {"bottom"}):
        path = tmp_path / "run.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                for section, kv in _friction_mapping(case, drop=key).items()))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 1
        assert f"model.{key}" in capsys.readouterr().err
        assert not out.exists()


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
