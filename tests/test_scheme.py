import math

import numpy as np
import pytest

from dataclasses import replace

from swmoment.basis import gauss_rule
from swmoment.friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    MuIBottom,
    Newtonian,
    SlipBottom,
)
from swmoment import scheme, state
from swmoment.hswme import source_batch, system_matrix_batch, wavespeeds_batch
from swmoment.scheme import (
    WETTING_HYSTERESIS,
    Grid,
    _dry_after_transport,
    _finalize,
    _live_window,
    _path_matrices,
    _transport,
    apply_transmissive_bc,
    cfl_dt,
    fluctuations,
    make_grid,
    step_explicit,
    step_semi_implicit,
    viscosity_matrix,
)
from swmoment.sim import SimConfig, build_model, front_position, preset, run
from swmoment.state import H_MIN, is_dry, to_conservative, to_primitive
from swmoment.topography import RunoffBed
from tests.conftest import random_wet_primitive

EPS, THETA = 0.01, math.pi / 4
MODEL = Newtonian(nu=1.19e-3, bottom_law=SlipBottom(nu=1.19e-3, lam=1e-4))


def _wet_pair(rng, N=2):
    P = random_wet_primitive(rng, N, 2)
    return to_conservative(P[0]), to_conservative(P[1]), P


def _rows(*U):
    """Consecutive conservative rows with their primitive rows and dryness,
    the arguments _path_matrices and fluctuations take. Bare states have no
    step history, so here a row is dry iff h <= H_MIN."""
    U = np.stack(U)
    return U, to_primitive(U), is_dry(U[:, 0])


def _interface_matrix(U_L, U_R, basis):
    """The Roe matrix of one interface: _path_matrices on its two rows."""
    _, P, dry = _rows(U_L, U_R)
    return _path_matrices(P, dry, EPS, THETA, basis)[0][0]


def _fluctuations(U_L, U_R, basis):
    D_minus, D_plus = fluctuations(*_rows(U_L, U_R), 0.01, 1e-3, EPS, THETA, basis)
    return D_minus[0], D_plus[0]


def test_roe_matrix_consistency(basis2):
    rng = np.random.default_rng(2)
    for _ in range(20):
        P = random_wet_primitive(rng, 2, 1)[0]
        U = to_conservative(P)
        np.testing.assert_allclose(_interface_matrix(U, U, basis2),
                                   system_matrix_batch(P[None], EPS, THETA, basis2)[0],
                                   rtol=0.0, atol=1e-14)


def test_roe_matrix_three_points_integrate_path_exactly(basis2):
    # the matrix entries are quadratic in the primitive components, so the
    # 3-point rule equals a dense quadrature of the same linear path
    rng = np.random.default_rng(3)
    U_L, U_R, P = _wet_pair(rng)
    A3 = _interface_matrix(U_L, U_R, basis2)
    nodes, weights = gauss_rule(20)
    P_s = P[0][None, :] + nodes[:, None] * (P[1] - P[0])[None, :]
    A_dense = np.einsum("k,kij->ij", weights, system_matrix_batch(P_s, EPS, THETA, basis2))
    np.testing.assert_allclose(A3, A_dense, rtol=0.0, atol=1e-13)


def test_fluctuations_sum_to_jump_transport(basis2):
    rng = np.random.default_rng(4)
    for _ in range(20):
        U_L, U_R, _ = _wet_pair(rng)
        A = _interface_matrix(U_L, U_R, basis2)
        D_minus, D_plus = _fluctuations(U_L, U_R, basis2)
        np.testing.assert_allclose(D_minus + D_plus, A @ (U_R - U_L), rtol=0.0, atol=1e-13)


def test_fluctuations_antisymmetric_under_swap(basis2):
    # the path average is symmetric under endpoint exchange while the jump
    # flips sign, so each fluctuation is odd under swapping the states
    rng = np.random.default_rng(5)
    U_L, U_R, _ = _wet_pair(rng)
    D_minus, D_plus = _fluctuations(U_L, U_R, basis2)
    D_minus_s, D_plus_s = _fluctuations(U_R, U_L, basis2)
    np.testing.assert_allclose(D_minus_s, -D_minus, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(D_plus_s, -D_plus, rtol=0.0, atol=1e-13)


def test_dry_interface_uses_wet_state_matrix(basis2):
    U_wet = to_conservative(np.array([0.05, 0.3, -0.1, 0.02]))
    U_dry = np.array([1e-7, 0.0, 0.0, 0.0])
    A = _interface_matrix(U_wet, U_dry, basis2)
    P_wet = to_primitive(U_wet[None])
    np.testing.assert_allclose(A, system_matrix_batch(P_wet, EPS, THETA, basis2)[0],
                               rtol=0.0, atol=1e-14)
    # mirrored orientation
    np.testing.assert_allclose(_interface_matrix(U_dry, U_wet, basis2), A, rtol=0.0, atol=1e-14)


def test_dry_dry_interface_has_zero_fluctuations(basis2):
    D_minus, D_plus = _fluctuations(np.array([1e-7, 0.0, 0.0, 0.0]),
                                    np.array([5e-7, 0.0, 0.0, 0.0]), basis2)
    assert np.all(D_minus == 0.0) and np.all(D_plus == 0.0)


def test_viscosity_matrix_formula():
    A = np.array([[0.0, 1.0], [0.25, 0.0]])
    dx, dt = 0.01, 2e-3
    Q = viscosity_matrix(A, dx, dt)
    np.testing.assert_allclose(Q, (dx / (2 * dt)) * np.eye(2) + (dt / (2 * dx)) * A @ A,
                               rtol=0.0, atol=0.0)
    # NaN passed the old dx <= 0 or dt <= 0 check and gave a NaN Q, inf an inf Q
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dx and dt must be finite and positive"):
            viscosity_matrix(A, bad, dt)
        with pytest.raises(ValueError, match="dx and dt must be finite and positive"):
            viscosity_matrix(A, dx, bad)


def _uniform_grid(J, N, h, u_m=0.0, alpha=None, theta_bed=None):
    grid = make_grid(0.0, 1.0, J, N,
                     bed=None if theta_bed is None else RunoffBed(theta=theta_bed))
    P = np.zeros((J, N + 2))
    P[:, 0] = h
    P[:, 1] = u_m
    if alpha is not None:
        P[:, 2:] = np.asarray(alpha)
    U = grid.U.copy()
    U[1:-1] = to_conservative(P)
    grid = Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)
    return apply_transmissive_bc(grid)


def test_uniform_rest_state_is_invariant(basis2):
    # flat bed, no inclination: transport and source both vanish identically
    grid = _uniform_grid(16, 2, h=0.05)
    cfg = SimConfig(mode="explicit", theta=0.0)
    g1, _ = step_explicit(grid, 1e-3, MODEL, basis2, cfg)
    assert np.array_equal(g1.U, grid.U)
    cfg = SimConfig(mode="semi_implicit", theta=0.0)
    g2, info = step_semi_implicit(grid, 1e-3, MODEL, basis2, cfg)
    assert np.array_equal(g2.U, grid.U)
    assert info["newton_iters_total"] == 0


def test_thin_film_at_rest_is_wet(basis2):
    # a film at rest under the rewetting margin that no step has stored is
    # wet: zero velocities do not make a cell dry
    grid = _uniform_grid(16, 2, h=10.0 * H_MIN)
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        g, info = stepper(grid, 1e-3, MODEL, basis2, SimConfig(mode=mode, theta=0.0))
        assert info["dry_cells"] == 0
        assert not np.any(g.stored)
        assert np.array_equal(g.U, grid.U)


def test_stored_flags_default_ghosts_and_step(basis2):
    grid = make_grid(0.0, 1.0, 12, 2)
    assert grid.stored.shape == (14,) and not np.any(grid.stored)
    bare = Grid(x=grid.x, dx=grid.dx, U=grid.U, dbdx=grid.dbdx)
    assert not np.any(bare.stored)
    flags = np.zeros(14, dtype=bool)
    flags[1] = True
    g = apply_transmissive_bc(replace(grid, stored=flags))
    assert g.stored[0] and not g.stored[-1]
    assert np.array_equal(g.stored[1:-1], flags[1:-1])
    flags = np.zeros(14, dtype=bool)
    flags[-2] = True
    g = apply_transmissive_bc(replace(grid, stored=flags))
    assert g.stored[-1] and not g.stored[0]
    # a step stores exactly its dry_after cells, stored mass above H_MIN included
    grid = _patch_grid(2, **WINDOW_CASES["stored_next_to_front"])
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        dt = cfl_dt(grid, SimConfig(mode=mode), basis2)
        U_check = _transport(grid, dt, EPS, THETA, basis2)
        dry_after = _dry_after_transport(U_check, grid.dry()[1:-1])
        assert np.any(dry_after & (U_check[:, 0] > H_MIN))
        g, info = stepper(grid, dt, MODEL, basis2, SimConfig(mode=mode))
        assert np.array_equal(g.stored[1:-1], dry_after)
        assert info["dry_cells"] == np.sum(dry_after)
        assert np.array_equal(g.stored[[0, -1]], g.stored[[1, -2]])
        assert np.array_equal(g.dry()[1:-1], dry_after | (g.U[1:-1, 0] <= H_MIN))


def test_dry_threshold_is_read_at_call_time(monkeypatch):
    # state.H_MIN is the one dry threshold: the grid, the rewetting margin,
    # the desingularization and the front all look it up when called
    monkeypatch.setattr(state, "H_MIN", 1e-3)
    grid = _uniform_grid(8, 1, h=2e-3, u_m=0.5)
    assert not grid.dry()[1:-1].any()
    assert grid.primitive[1, 1] == 2.0 * 2e-3 * 1e-3 / (2e-3 ** 2 + 1e-3)
    # below the 50 H_MIN margin a dry cell stays dry, a wet one stays wet
    h = grid.interior()[:, :1]
    assert _dry_after_transport(h, np.ones(8, dtype=bool)).all()
    assert not _dry_after_transport(h, np.zeros(8, dtype=bool)).any()
    snap = run(preset(1, J=8, snapshot_times=(0.0,), ic={"kind": "uniform", "h": 5e-3}))
    assert front_position(snap.snapshots[0]) == -math.inf


def test_grid_rejects_stored_of_wrong_shape_or_type():
    grid = make_grid(0.0, 1.0, 20, 2)
    args = dict(x=grid.x, dx=grid.dx, U=grid.U, dbdx=grid.dbdx)
    with pytest.raises(ValueError, match=r"\(22,\).*\(5,\)"):
        Grid(**args, stored=np.zeros(5, dtype=bool))
    for bad in (np.zeros(22), np.zeros((22, 1), dtype=bool), [False] * 22):
        with pytest.raises(ValueError, match="boolean array"):
            Grid(**args, stored=bad)
    with pytest.raises(ValueError, match="boolean array"):
        replace(grid, stored=np.zeros(21, dtype=bool))
    assert Grid(**args, stored=np.zeros(22, dtype=bool)).stored.shape == (22,)


def test_mass_is_conserved_by_transport_and_source(basis2):
    # block of material released on the slope; while the flow stays clear of
    # the boundaries the update telescopes and mass is exact
    grid = make_grid(0.0, 1.0, 200, 2)
    P = np.zeros((200, 4))
    P[:, 0] = np.where((grid.x >= 0.3) & (grid.x <= 0.5), 0.08, 1e-6)
    U = grid.U.copy()
    U[1:-1] = to_conservative(P)
    grid = Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)
    cfg = SimConfig(mode="explicit", cfl=0.05)
    mass0 = np.sum(grid.U[1:-1, 0])
    t = 0.0
    grid = apply_transmissive_bc(grid)
    while t < 0.1:
        dt = min(cfl_dt(grid, cfg, basis2), 0.1 - t)
        grid, _ = step_explicit(grid, dt, MODEL, basis2, cfg)
        t += dt
    # precondition: nothing reached the boundary cells
    assert grid.U[1, 0] <= H_MIN and grid.U[-2, 0] <= H_MIN
    drift = abs(np.sum(grid.U[1:-1, 0]) - mass0) / mass0
    assert drift < 1e-12
    assert np.all(grid.U[1:-1, 0] >= 0.0)


def test_dry_cells_keep_zero_velocity(basis2):
    grid = make_grid(0.0, 1.0, 40, 2)
    P = np.zeros((40, 4))
    P[:, 0] = np.where((grid.x >= 0.3) & (grid.x <= 0.5), 0.08, 1e-6)
    U = grid.U.copy()
    U[1:-1] = to_conservative(P)
    grid = Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)
    cfg = SimConfig(mode="semi_implicit", cfl=0.05)
    grid = apply_transmissive_bc(grid)
    for _ in range(10):
        dt = cfl_dt(grid, cfg, basis2)
        grid, info = step_semi_implicit(grid, dt, MODEL, basis2, cfg)
    U_in = grid.U[1:-1]
    dry = U_in[:, 0] <= H_MIN
    assert np.any(dry)
    assert np.all(U_in[dry, 1:] == 0.0)


def test_stepper_splitting_difference_is_second_order(basis2):
    # explicit and semi-implicit differ by O(dt^2) in a single step
    grid = _uniform_grid(20, 2, h=0.05, u_m=0.2, alpha=[-0.05, 0.01])
    model = Newtonian(nu=1.19e-3, bottom_law=SlipBottom(nu=1.19e-3, lam=1e-2))
    cfg = SimConfig(mode="semi_implicit")
    diffs = []
    for dt in (2e-3, 1e-3):
        ge, _ = step_explicit(grid, dt, model, basis2, cfg)
        gs, _ = step_semi_implicit(grid, dt, model, basis2, cfg)
        diffs.append(np.sum(np.abs(ge.U - gs.U)))
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.1)


def test_cfl_dt_wet_and_dry(basis1):
    grid = _uniform_grid(10, 1, h=0.08)
    cfg = SimConfig(mode="explicit", cfl=0.05)
    lam = math.sqrt(EPS * math.cos(THETA) * 0.08)
    assert cfl_dt(grid, cfg, basis1) == pytest.approx(
        0.05 * grid.dx / lam, rel=1e-12)
    dry = _uniform_grid(10, 1, h=1e-7)
    assert cfl_dt(dry, cfg, basis1) == math.inf
    # a film above H_MIN is wet unless a step stored it
    film = _uniform_grid(10, 1, h=10.0 * H_MIN)
    assert cfl_dt(film, cfg, basis1) == pytest.approx(
        0.05 * grid.dx / math.sqrt(EPS * math.cos(THETA) * 10.0 * H_MIN), rel=1e-12)
    stored = replace(film, stored=np.ones(12, dtype=bool))
    assert cfl_dt(stored, cfg, basis1) == math.inf


def test_newton_abort_reports_cell(basis2, monkeypatch):
    grid = _uniform_grid(10, 2, h=0.08)
    cfg = SimConfig(mode="semi_implicit")
    monkeypatch.setattr(scheme, "NEWTON_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="Newton .* cell"):
        step_semi_implicit(grid, 1e-3, MODEL, basis2, cfg)


@pytest.mark.parametrize("law, value", [(law, value) for law in ("slip", "manning")
                                        for value in (math.nan, math.inf)])
def test_nonfinite_residual_fails_the_implicit_step(law, value, basis2):
    # before, max|R| >= NEWTON_TOL was False for a NaN residual, so every row
    # counted as converged and the step skipped the source, gravity included.
    # The laws refuse a non-finite parameter, so it is set past their checks
    def unchecked(law, **fields):
        for name, v in fields.items():
            object.__setattr__(law, name, v)
        return law

    if law == "slip":
        bottom = unchecked(SlipBottom(nu=1.19e-3, lam=1e-4), nu=value)
        model = unchecked(Newtonian(nu=1.19e-3, bottom_law=bottom), nu=value)
    else:
        model = Newtonian(nu=1.19e-3, bottom_law=unchecked(ManningBottom(n2=0.8), n2=value))
    grid = _uniform_grid(10, 2, h=0.08)
    with pytest.raises(RuntimeError, match="^Newton solve did not converge in cell 1 after 0 "
                                           "updates: residual nan$"), np.errstate(invalid="ignore"):
        step_semi_implicit(grid, 1e-3, model, basis2, SimConfig(mode="semi_implicit"))


def test_nonfinite_state_aborts_with_cell_index(basis2):
    grid = _uniform_grid(10, 2, h=0.05)
    for j, col in ((5, 1), (1, 0), (10, 3)):
        U = grid.U.copy()
        U[j, col] = np.nan
        bad = Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)
        for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
            with pytest.raises(RuntimeError, match=f"^non-finite state after input in cell {j}$"):
                stepper(bad, 1e-3, MODEL, basis2, SimConfig(mode=mode))


def test_transmissive_bc_idempotent(basis2):
    rng = np.random.default_rng(8)
    grid = make_grid(0.0, 1.0, 12, 2)
    U = grid.U.copy()
    U[1:-1] = to_conservative(random_wet_primitive(rng, 2, 12))
    grid = Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)
    once = apply_transmissive_bc(grid)
    twice = apply_transmissive_bc(once)
    assert np.array_equal(once.U, twice.U)
    assert np.array_equal(once.U[0], once.U[1])
    assert np.array_equal(once.U[-1], once.U[-2])


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 2, 1)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 10, 1)


def test_make_grid_bed_slopes():
    bed = RunoffBed(theta=0.4)
    grid = make_grid(0.0, 1.0, 20, 1, bed=bed)
    faces_l = grid.x - 0.5 * grid.dx
    faces_r = grid.x + 0.5 * grid.dx
    np.testing.assert_allclose(grid.dbdx, 0.5 * (bed.dbdx(faces_l) + bed.dbdx(faces_r)),
                               rtol=0.0, atol=1e-15)


def test_stepper_config_validation():
    # the steppers read their settings from the run's SimConfig, which checks them
    with pytest.raises(ValueError):
        SimConfig(mode="imaginary")
    with pytest.raises(ValueError):
        SimConfig(cfl=0.0)


def _with_interior(grid, U_in):
    U = grid.U.copy()
    U[1:-1] = U_in
    return apply_transmissive_bc(Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx))


def _cfl_dt_all_rows(grid, config, basis):
    """cfl_dt as an eigen-solve over every wet row, with no screen."""
    U = grid.interior()
    wet = U[:, 0] > H_MIN
    if not np.any(wet):
        return math.inf
    lam = np.max(wavespeeds_batch(to_primitive(U[wet]), config.eps, config.theta, basis))
    return config.cfl * grid.dx / float(lam)


@pytest.mark.parametrize("N", [1, 2, 6])
def test_cfl_dt_screen_equals_brute_force_max(N, basis1, basis2, basis6):
    basis = {1: basis1, 2: basis2, 6: basis6}[N]
    cfg = SimConfig(mode="explicit", cfl=0.05)
    rng = np.random.default_rng(30 + N)
    grid = make_grid(0.0, 1.0, 60, N)
    grids = []
    for _ in range(10):
        # depths from below H_MIN upward, so some rows are dry
        P = random_wet_primitive(rng, N, 60, h_range=(1e-7, 0.1))
        grids.append(_with_interior(grid, to_conservative(P)))
    # every row ties for the maximum
    grids.append(_uniform_grid(60, N, h=0.05, u_m=0.2, alpha=0.5 ** np.arange(N) * 0.1))
    # the fastest row moves left
    P = random_wet_primitive(rng, N, 60, vel_scale=0.1)
    P[17, 1] = -2.0
    grids.append(_with_interior(grid, to_conservative(P)))
    for g in grids:
        assert cfl_dt(g, cfg, basis) == _cfl_dt_all_rows(g, cfg, basis)
    assert cfl_dt(grids[-1], cfg, basis) == pytest.approx(
        0.05 * grid.dx / (2.0 + math.sqrt(EPS * math.cos(THETA) * P[17, 0] + P[17, 2] ** 2)),
        rel=1e-10)
    dry = _uniform_grid(60, N, h=1e-7)
    assert cfl_dt(dry, cfg, basis) == math.inf


def _transport_full_width(grid, dt, eps, theta, basis):
    """The transport predictor with the fluctuations of every interface."""
    U = grid.U
    D_minus, D_plus = fluctuations(U, to_primitive(U), grid.dry(), grid.dx, dt,
                                   eps, theta, basis)
    return U[1:-1] - (dt / grid.dx) * (D_plus[:-1] + D_minus[1:])


def _patch_grid(N, patches, stored=(), J=40, seed=0, h_range=(1e-2, 0.1)):
    """Wet patches [lo, hi) of random flow, depths in h_range, on a dry grid
    (h below H_MIN, at rest); stored cells are flagged and hold depth at rest
    under the rewetting margin."""
    rng = np.random.default_rng(seed)
    P = np.zeros((J, N + 2))
    P[:, 0] = rng.uniform(0.0, H_MIN, J)
    for lo, hi in patches:
        P[lo:hi] = random_wet_primitive(rng, N, hi - lo, h_range=h_range, vel_scale=0.5)
    flags = np.zeros(J + 2, dtype=bool)
    for j in stored:
        P[j] = 0.0
        P[j, 0] = 0.5 * WETTING_HYSTERESIS * H_MIN
        flags[j + 1] = True
    grid = _with_interior(make_grid(0.0, 1.0, J, N), to_conservative(P))
    return apply_transmissive_bc(replace(grid, stored=flags))


WINDOW_CASES = {
    "one_patch": dict(patches=[(15, 24)]),
    "two_patches_dry_gap": dict(patches=[(5, 11), (26, 33)]),
    "touches_boundary": dict(patches=[(0, 7), (34, 40)]),
    "stored_next_to_front": dict(patches=[(12, 22)], stored=(10, 11, 22, 23, 30)),
    "all_dry": dict(patches=[]),
}


def _path_matrices_per_node(U, dry, eps, theta, basis):
    """Path matrices with one system_matrix_batch call per Gauss node."""
    wet = ~dry
    X = to_primitive(U)
    left = np.where(wet[:-1, None], X[:-1], X[1:])
    right = np.where(wet[1:, None], X[1:], X[:-1])
    A = np.zeros((U.shape[0] - 1, U.shape[1], U.shape[1]))
    for s, w in zip(*scheme._PATH_RULE):
        state = left + s * (right - left)
        A += w * system_matrix_batch(state, eps, theta, basis)
    return A


# the ids name the path (primitive variables) the cases run on
@pytest.mark.parametrize("case", sorted(WINDOW_CASES), ids=lambda c: f"{c}-primitive")
def test_path_matrices_stacked_call_equals_per_node_calls(case, basis2):
    grid = _patch_grid(2, **WINDOW_CASES[case])
    dry = grid.dry()
    A, inert = _path_matrices(to_primitive(grid.U), dry, EPS, THETA, basis2)
    assert np.array_equal(A, _path_matrices_per_node(grid.U, dry, EPS, THETA, basis2))
    assert np.array_equal(inert, dry[:-1] & dry[1:])


@pytest.mark.parametrize("case", sorted(WINDOW_CASES), ids=lambda c: f"{c}-primitive")
def test_transport_window_bit_identical_to_full_width(case, basis2):
    grid = _patch_grid(2, **WINDOW_CASES[case])
    for dt in (1e-4, 7.3e-4):
        got = _transport(grid, dt, EPS, THETA, basis2)
        assert np.array_equal(got, _transport_full_width(grid, dt, EPS, THETA, basis2))
    if case == "all_dry":
        assert np.array_equal(got, grid.U[1:-1])


def _step_dt(grid, config, basis):
    """cfl_dt, or 1e-3 where it is inf (an all-dry grid, on which run() takes
    one step to the next snapshot time)."""
    dt = cfl_dt(grid, config, basis)
    return dt if math.isfinite(dt) else 1e-3


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_steppers_with_window_bit_identical_to_full_width(case, basis2, monkeypatch):
    grid = _patch_grid(2, **WINDOW_CASES[case])
    cfgs = (SimConfig(mode="explicit"), SimConfig(mode="semi_implicit"))
    steppers = (step_explicit, step_semi_implicit)
    windowed = []
    for stepper, cfg in zip(steppers, cfgs):
        g = grid
        for _ in range(5):
            g, _ = stepper(g, _step_dt(g, cfg, basis2), MODEL, basis2, cfg)
        windowed.append(g.U)
    monkeypatch.setattr(scheme, "_transport", _transport_full_width)
    for stepper, cfg, U in zip(steppers, cfgs, windowed):
        g = grid
        for _ in range(5):
            g, _ = stepper(g, _step_dt(g, cfg, basis2), MODEL, basis2, cfg)
        assert np.array_equal(U, g.U)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_steppers_return_mirrored_ghost_rows(case, basis2):
    # a step takes a consistent grid and returns one: no boundary call between steps
    grid = _patch_grid(2, **WINDOW_CASES[case])
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        cfg = SimConfig(mode=mode)
        g = grid
        for _ in range(3):
            g, _ = stepper(g, _step_dt(g, cfg, basis2), MODEL, basis2, cfg)
            bc = apply_transmissive_bc(g)
            assert np.array_equal(g.U, bc.U) and np.array_equal(g.stored, bc.stored)


def test_steppers_return_the_same_info_keys(basis2):
    grid = _patch_grid(2, **WINDOW_CASES["stored_next_to_front"])
    cfg = SimConfig(mode="explicit")
    _, info = step_explicit(grid, cfl_dt(grid, cfg, basis2), MODEL, basis2, cfg)
    assert info["newton_iters_total"] == info["newton_iters_max"] == 0
    _, info_semi = step_semi_implicit(grid, cfl_dt(grid, cfg, basis2), MODEL, basis2, cfg)
    assert set(info) == set(info_semi) == {"dry_cells", "clamped_mass", "newton_iters_total",
                                           "newton_iters_max"}
    assert info_semi["newton_iters_max"] >= 1


def test_live_window_spans_every_interface_with_a_wet_side():
    grid = _patch_grid(2, patches=[(5, 11), (26, 33)], stored=(12, 25))
    dry = grid.dry()
    window = _live_window(dry)
    assert (window.start, window.stop) == (5, 35)
    assert np.all(dry[:window.start]) and np.all(dry[window.stop:])
    assert _live_window(np.ones(10, dtype=bool)) == slice(0, 0)


def test_run_converts_each_grid_to_primitive_once(monkeypatch):
    # one full-grid conversion per grid (the initial one and one per step),
    # shared by cfl_dt, the step and the diagnostics; a Newton iteration
    # converts its own rows, right before their one source evaluation
    calls = []

    def counted(U):
        calls.append(("to_primitive", len(U)))
        return to_primitive(U)

    def counted_source(P, *args):
        calls.append(("source_batch", len(P)))
        return source_batch(P, *args)

    monkeypatch.setattr(scheme, "to_primitive", counted)
    monkeypatch.setattr(scheme, "source_batch", counted_source)
    for mode in ("explicit", "semi_implicit"):
        calls.clear()
        cfg = preset(1, J=60, mode=mode, snapshot_times=(0.0, 0.1, 0.2))
        steps = len(run(cfg).diagnostics["time"])
        assert steps > 2
        newton = [i for i, call in enumerate(calls[:-1])
                  if call[0] == "to_primitive" and calls[i + 1] == ("source_batch", call[1])]
        grids = [n for i, (name, n) in enumerate(calls)
                 if name == "to_primitive" and i not in newton]
        assert grids == [cfg.J + 2] * (steps + 1)
        # newtonian_slip is linear in v: one Newton conversion per step
        assert len(newton) == (steps if mode == "semi_implicit" else 0)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_grid_primitive_is_cached_and_grids_are_read_only(case, basis2):
    grid = _patch_grid(2, **WINDOW_CASES[case])
    assert grid.primitive is grid.primitive
    assert grid.primitive.tobytes() == to_primitive(grid.U).tobytes()
    for array in (grid.U, grid.stored, grid.primitive, grid.dry()):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 1
    before = [array.copy() for array in (grid.U, grid.stored, grid.primitive, grid.dry())]
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        cfg = SimConfig(mode=mode)
        g, _ = stepper(grid, _step_dt(grid, cfg, basis2), MODEL, basis2, cfg)
        assert g.primitive.tobytes() == to_primitive(g.U).tobytes()
        after = (grid.U, grid.stored, grid.primitive, grid.dry())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3])
def test_steppers_reject_a_bad_dt_by_name(dt, basis2):
    # cfl_dt is inf on an all-dry grid; inf * 0 in the transport would be NaN
    grid = _patch_grid(2, **WINDOW_CASES["all_dry"])
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        cfg = SimConfig(mode=mode)
        assert cfl_dt(grid, cfg, basis2) == math.inf
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            stepper(grid, dt, MODEL, basis2, cfg)


def _semi_implicit_reference(grid, dt, model, eps, theta, basis):
    """The semi-implicit step with the finite-difference Newton over all N+2
    conservative rows, depth included, and one residual evaluation per
    perturbed column. For a model linear in the velocity the velocity
    columns are probed with unit steps, which are exact for its affine
    residual; the depth column keeps the FD_EPS step."""
    U_check = _transport_full_width(grid, dt, eps, theta, basis)
    dry_after = _dry_after_transport(U_check, grid.dry()[1:-1])
    idx = np.flatnonzero(~dry_after)
    U_new = U_check.copy()
    iters_total = iters_max = 0
    target = U_check[idx]
    dbdx = grid.dbdx[idx]

    def residual(V, sub):
        S = source_batch(to_primitive(V), model, eps, theta, dbdx[sub], basis)
        return V - target[sub] - dt * S

    V = target.copy()
    R = residual(V, slice(None))
    active = np.max(np.abs(R), axis=1) >= scheme.NEWTON_TOL
    m = V.shape[1]
    while np.any(active):
        iters_max += 1
        assert iters_max <= scheme.NEWTON_MAX_ITER
        Va = V[active]
        step = scheme.FD_EPS * np.maximum(1.0, np.abs(Va))
        if model.linear_in_velocity:
            step[:, 1:] = 1.0
        jac = np.empty((Va.shape[0], m, m))
        for c in range(m):
            Vp, Vm = Va.copy(), Va.copy()
            Vp[:, c] += step[:, c]
            Vm[:, c] -= step[:, c]
            jac[:, :, c] = (residual(Vp, active) - residual(Vm, active)) / (2.0 * step[:, c])[:, None]
        Va = Va - np.linalg.solve(jac, R[active][:, :, None])[:, :, 0]
        V[active] = Va
        R[active] = residual(Va, active)
        iters_total += int(np.sum(active))
        alive = np.flatnonzero(active)
        active[alive[np.max(np.abs(R[active]), axis=1) < scheme.NEWTON_TOL]] = False
    U_new[idx] = V
    U_out = _finalize(grid, U_new, dry_after)[0].interior()
    return U_check, U_out, iters_total, iters_max


def _newton_models():
    """name -> (model, N, step as a fraction of the CFL step)."""
    granular = build_model(preset(4))
    return {
        "newtonian_slip": (MODEL, 2, 0.5),
        "newtonian_manning": (build_model(preset(2, law="manning")), 2, 0.5),
        "savage_hutter": (build_model(preset(3)), 2, 0.5),
        "coulomb": (ConstantCoulomb(mu=0.4, bottom_law=CoulombBottom(delta=math.radians(25.0))), 2, 0.5),
        "muI_N1_muI_bottom": (replace(granular, bottom_law=MuIBottom()), 1, 0.5),
        # the random profiles shear hard in thin cells, where the mu(I) bulk
        # law is stiff enough that Newton needs a shorter step to converge
        "muI_N3": (granular, 3, 0.1),
    }


@pytest.mark.parametrize("name", sorted(_newton_models()))
def test_semi_implicit_newton_matches_full_jacobian_reference(name, basis1, basis2, basis3):
    model, N, cfl_fraction = _newton_models()[name]
    basis = {1: basis1, 2: basis2, 3: basis3}[N]
    cfg = SimConfig(mode="semi_implicit")
    static = isinstance(model, MuI) and isinstance(model.bottom_law, MuIBottom)
    for seed in range(3):
        grid = _patch_grid(N, patches=[(2, 15), (22, 38)], J=40, seed=seed)
        if static:
            # a block with alpha = 0 slides at u_m = 0.3; where alpha_1 = 0 on
            # both sides of an interface its moment fluctuations vanish, so the
            # inner cells keep alpha = 0 exactly through transport and the
            # residual is evaluated on the static-mobilization branch
            U = grid.U.copy()
            U[5:12, 1] = 0.3 * U[5:12, 0]
            U[5:12, 2:] = 0.0
            grid = _with_interior(grid, U[1:-1])
        dt = cfl_fraction * cfl_dt(grid, cfg, basis)
        U_check, U_ref, total_ref, max_ref = _semi_implicit_reference(
            grid, dt, model, EPS, THETA, basis)
        if static:
            assert np.all(U_check[5:10, 2:] == 0.0)
        got, info = step_semi_implicit(grid, dt, model, basis, cfg)
        assert info["newton_iters_total"] == total_ref
        assert info["newton_iters_max"] == max_ref >= 1
        np.testing.assert_allclose(got.U[1:-1], U_ref, rtol=1e-10, atol=0.0)
        wet = ~_dry_after_transport(U_check, grid.dry()[1:-1])
        assert np.any(~wet)
        assert np.array_equal(got.U[1:-1][wet, 0], U_check[wet, 0])


@pytest.mark.parametrize("law", ["slip", "manning"])
def test_semi_implicit_source_rows_per_step(law, basis2, monkeypatch):
    # slip + Newtonian is linear in v: its exact Jacobian needs no probe
    # copies, so the source sees each wet row once. Manning evaluates the
    # residual of the rows still iterating, then the central-difference batch
    # of 2n copies of each row whose residual is not yet below NEWTON_TOL
    model = MODEL if law == "slip" else build_model(preset(2, law="manning"))
    assert model.linear_in_velocity == (law == "slip")
    grid = _patch_grid(2, patches=[(2, 15), (22, 38)], J=40, seed=1)
    cfg = SimConfig(mode="semi_implicit")
    dt = 0.5 * cfl_dt(grid, cfg, basis2)
    calls = []

    def counted(P, *args):
        calls.append(len(P))
        return source_batch(P, *args)

    monkeypatch.setattr(scheme, "source_batch", counted)
    _, info = step_semi_implicit(grid, dt, model, basis2, cfg)
    wet = len(grid.x) - info["dry_cells"]
    assert info["newton_iters_total"] > 0
    if law == "slip":
        assert calls == [wet]
        assert info["newton_iters_max"] == 1
    else:
        # wet, then per update 2n * active and the residual of those active rows
        active = calls[2::2]
        assert calls[0] == wet
        assert calls[1::2] == [2 * (basis2.N + 1) * k for k in active]
        assert len(active) == info["newton_iters_max"] > 1
        assert sum(active) == info["newton_iters_total"]


def test_exact_jacobian_on_films_thinner_than_sqrt_h_min(basis2):
    # below h = sqrt(H_MIN) the desingularization factor kappa(h) is not 1/h;
    # the one update must still solve the implicit source exactly
    cfg = SimConfig(mode="semi_implicit")
    thin = 0
    for seed in range(3):
        grid = _patch_grid(2, patches=[(5, 35)], J=40, seed=seed, h_range=(1e-5, 1e-3))
        dt = 0.5 * cfl_dt(grid, cfg, basis2)
        U_check, U_ref, total_ref, max_ref = _semi_implicit_reference(
            grid, dt, MODEL, EPS, THETA, basis2)
        got, info = step_semi_implicit(grid, dt, MODEL, basis2, cfg)
        assert (info["newton_iters_total"], info["newton_iters_max"]) == (total_ref, max_ref)
        np.testing.assert_allclose(got.U[1:-1], U_ref, rtol=1e-10, atol=0.0)
        wet = ~_dry_after_transport(U_check, grid.dry()[1:-1])
        thin += int(np.sum(wet & (U_check[:, 0] ** 2 < H_MIN)))
    assert thin > 10


def test_singular_newton_jacobian_reports_cell(basis2, monkeypatch):
    grid = _uniform_grid(10, 2, h=0.08)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(scheme.np.linalg, "solve", singular)
    with pytest.raises(RuntimeError, match="singular Newton Jacobian in cell 1"):
        step_semi_implicit(grid, 1e-3, MODEL, basis2,
                           SimConfig(mode="semi_implicit"))
