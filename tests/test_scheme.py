import math

import numpy as np
import pytest

from dataclasses import replace

from swmoment.basis import MAX_ORDER, build_basis, gauss_rule, reconstruct_velocity
from swmoment.friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    MuIBottom,
    Newtonian,
    SlipBottom,
)
from swmoment import scheme, sim, state
from swmoment.hswme import (
    linear_source_batch,
    source_batch,
    source_split_batch,
    system_matrix_batch,
    wavespeeds_batch,
)
from swmoment.scheme import (
    WETTING_HYSTERESIS,
    Grid,
    _dry_after_transport,
    _finalize,
    _live_window,
    _path_matrices,
    _transport,
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
    return _with_state(grid, to_conservative(P))


def test_uniform_rest_state_is_invariant(basis2):
    # flat bed, no inclination: transport and source both vanish identically
    grid = _uniform_grid(16, 2, h=0.05)
    cfg = SimConfig(mode="explicit", theta=0.0)
    g1, _ = step_explicit(grid, 1e-3, MODEL, basis2, cfg)
    assert np.array_equal(g1.U, grid.U)
    cfg = SimConfig(mode="semi_implicit", theta=0.0)
    g2, info = step_semi_implicit(grid, 1e-3, MODEL, basis2, cfg)
    assert np.array_equal(g2.U, grid.U)
    # the linear model's one solve covers every wet cell
    assert (info["newton_iters_total"], info["newton_iters_max"]) == (16, 1)


def test_thin_film_at_rest_is_wet(basis2):
    # a film at rest under the rewetting margin that no step has stored is
    # wet: zero velocities do not make a cell dry
    grid = _uniform_grid(16, 2, h=10.0 * H_MIN)
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        g, info = stepper(grid, 1e-3, MODEL, basis2, SimConfig(mode=mode, theta=0.0))
        assert info["dry_cells"] == 0
        assert not np.any(g.stored)
        assert np.array_equal(g.U, grid.U)


def test_stored_flags_default_and_step(basis2):
    grid = make_grid(0.0, 1.0, 12, 2)
    assert grid.U.shape == (12, 4)
    assert grid.stored.shape == (12,) and not np.any(grid.stored)
    bare = Grid(x=grid.x, dx=grid.dx, U=grid.U, dbdx=grid.dbdx)
    assert not np.any(bare.stored)
    # a step stores exactly its dry_after cells, stored mass above H_MIN included
    grid = _patch_grid(2, **WINDOW_CASES["stored_next_to_front"])
    for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
        dt = cfl_dt(grid, SimConfig(mode=mode), basis2)
        U_check = _transport(grid, dt, EPS, THETA, basis2)
        dry_after = _dry_after_transport(U_check, grid.dry())
        assert np.any(dry_after & (U_check[:, 0] > H_MIN))
        g, info = stepper(grid, dt, MODEL, basis2, SimConfig(mode=mode))
        assert np.array_equal(g.stored, dry_after)
        assert info["dry_cells"] == np.sum(dry_after)
        assert np.array_equal(g.dry(), dry_after | (g.U[:, 0] <= H_MIN))


def test_dry_threshold_is_read_at_call_time(monkeypatch):
    # state.H_MIN is the one dry threshold: the grid, the rewetting margin,
    # the desingularization and the front all look it up when called
    monkeypatch.setattr(state, "H_MIN", 1e-3)
    grid = _uniform_grid(8, 1, h=2e-3, u_m=0.5)
    assert not grid.dry().any()
    assert grid.primitive[0, 1] == 2.0 * 2e-3 * 1e-3 / (2e-3 ** 2 + 1e-3)
    # below the 50 H_MIN margin a dry cell stays dry, a wet one stays wet
    h = grid.U[:, :1]
    assert _dry_after_transport(h, np.ones(8, dtype=bool)).all()
    assert not _dry_after_transport(h, np.zeros(8, dtype=bool)).any()
    snap = run(preset(1, J=8, snapshot_times=(0.0,), ic={"kind": "uniform", "h": 5e-3}))
    assert front_position(snap.snapshots[0]) == -math.inf


def test_rewetting_margin_decides_whether_a_dry_cell_rewets():
    # a cell dry before the step rewets only on a transported depth above 50
    # H_MIN; a cell wet before it stays wet on any depth above H_MIN
    margin = 50.0 * H_MIN
    h = np.array([[margin * (1.0 - 1e-12)], [margin], [margin * (1.0 + 1e-12)], [2.0 * H_MIN]])
    assert _dry_after_transport(h, np.ones(4, dtype=bool)).tolist() == [True, True, False, True]
    assert not _dry_after_transport(h, np.zeros(4, dtype=bool)).any()


@pytest.mark.parametrize("N", [1, 2, 5])
def test_limited_source_gamma_minimizes_the_profile_energy(N):
    # the friction rows of a row are scaled by gamma: where the friction
    # increment dv lowers the energy, gamma is the value in [0, 1] that
    # minimizes the energy of v + gamma dv, the integral of u^2 over the
    # depth of its reconstructed profile. W is that energy's matrix, by
    # quadrature of the profiles of the unit vectors (u_m, alpha_1..alpha_N)
    basis = build_basis(N)
    zeta, weights = gauss_rule(N + 1)
    profiles = [reconstruct_velocity(basis, e[0], e[1:], zeta) for e in np.eye(N + 1)]
    W = np.einsum("k,ik,jk->ij", weights, profiles, profiles)
    rng = np.random.default_rng(19)
    P = random_wet_primitive(rng, N, 400, h_range=(1e-4, 0.1))
    dbdx = np.zeros(len(P))
    dt = 1e-4
    _, S_fric = source_split_batch(P, MODEL, EPS, THETA, dbdx, basis)
    S = scheme._limited_source(P, dt, MODEL, EPS, THETA, dbdx, basis)
    # the moment rows have no driving part, so S there is gamma * S_fric
    gamma = S[:, 2] / S_fric[:, 2]
    v = P[:, 1:]
    dv = dt * S_fric[:, 1:] / P[:, :1]
    lowers = np.einsum("mi,ij,mj->m", v, W, dv)
    assert np.all(lowers < 0.0)
    best = np.minimum(1.0, -lowers / np.einsum("mi,ij,mj->m", dv, W, dv))
    # both branches: cells that the step resolves, and cells it would overshoot
    assert np.any(best == 1.0) and np.any(best < 0.5)
    np.testing.assert_allclose(gamma, best, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(S[:, 2:], gamma[:, None] * S_fric[:, 2:], rtol=1e-14, atol=0.0)



def test_grid_rejects_stored_of_wrong_shape_or_type():
    grid = make_grid(0.0, 1.0, 20, 2)
    args = dict(x=grid.x, dx=grid.dx, U=grid.U, dbdx=grid.dbdx)
    with pytest.raises(ValueError, match=r"\(20,\).*\(5,\)"):
        Grid(**args, stored=np.zeros(5, dtype=bool))
    for bad in (np.zeros(20), np.zeros((20, 1), dtype=bool), [False] * 20):
        with pytest.raises(ValueError, match="boolean array"):
            Grid(**args, stored=bad)
    with pytest.raises(ValueError, match="boolean array"):
        replace(grid, stored=np.zeros(19, dtype=bool))
    assert Grid(**args, stored=np.zeros(20, dtype=bool)).stored.shape == (20,)


def test_grid_rejects_u_or_dbdx_without_one_row_per_cell():
    # a mismatched U once built, and cfl_dt ran on it; the step then failed
    # with an IndexError that named neither array
    x = np.linspace(0.05, 0.95, 10)
    for bad in (np.ones((7, 4)), np.zeros((12, 4)), np.zeros(10)):  # (12, 4): with ghost rows
        with pytest.raises(ValueError, match=r"U must hold one row per cell, shape \(J, N\+2\) "
                                             r"with J = 10"):
            Grid(x=x, dx=0.1, U=bad, dbdx=np.zeros(10))
    for bad in (np.zeros(3), np.zeros(12), np.zeros((10, 1))):
        with pytest.raises(ValueError, match=r"dbdx must hold one slope per cell, shape \(10,\)"):
            Grid(x=x, dx=0.1, U=np.zeros((10, 4)), dbdx=bad)
    with pytest.raises(ValueError, match="one row per cell"):
        replace(make_grid(0.0, 1.0, 10, 2), U=np.zeros((12, 4)))


def test_mass_is_conserved_by_transport_and_source(basis2):
    # block of material released on the slope; while the flow stays clear of
    # the boundaries the update telescopes and mass is exact
    grid = make_grid(0.0, 1.0, 200, 2)
    P = np.zeros((200, 4))
    P[:, 0] = np.where((grid.x >= 0.3) & (grid.x <= 0.5), 0.08, 1e-6)
    grid = _with_state(grid, to_conservative(P))
    cfg = SimConfig(mode="explicit", cfl=0.05)
    mass0 = np.sum(grid.U[:, 0])
    t = 0.0
    while t < 0.1:
        dt = min(cfl_dt(grid, cfg, basis2), 0.1 - t)
        grid, _ = step_explicit(grid, dt, MODEL, basis2, cfg)
        t += dt
    # precondition: nothing reached the boundary cells
    assert grid.U[0, 0] <= H_MIN and grid.U[-1, 0] <= H_MIN
    drift = abs(np.sum(grid.U[:, 0]) - mass0) / mass0
    assert drift < 1e-12
    assert np.all(grid.U[:, 0] >= 0.0)


def test_dry_cells_keep_zero_velocity(basis2):
    grid = make_grid(0.0, 1.0, 40, 2)
    P = np.zeros((40, 4))
    P[:, 0] = np.where((grid.x >= 0.3) & (grid.x <= 0.5), 0.08, 1e-6)
    grid = _with_state(grid, to_conservative(P))
    cfg = SimConfig(mode="semi_implicit", cfl=0.05)
    for _ in range(10):
        dt = cfl_dt(grid, cfg, basis2)
        grid, info = step_semi_implicit(grid, dt, MODEL, basis2, cfg)
    U_in = grid.U
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
    stored = replace(film, stored=np.ones(10, dtype=bool))
    assert cfl_dt(stored, cfg, basis1) == math.inf


def test_newton_abort_reports_cell(basis2, monkeypatch):
    # a nonlinear law: a linear one is solved without Newton iteration
    grid = _uniform_grid(10, 2, h=0.08)
    cfg = preset(2, law="manning")
    model = build_model(cfg)
    assert not model.linear_in_velocity
    monkeypatch.setattr(scheme, "NEWTON_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="Newton .* cell"):
        step_semi_implicit(grid, 1e-3, model, basis2, cfg)


@pytest.mark.parametrize("law, value", [(law, value) for law in ("slip", "manning")
                                        for value in (math.nan, math.inf)])
def test_nonfinite_residual_fails_the_implicit_step(law, value, basis2):
    # before, max|R| >= NEWTON_TOL was False for a NaN residual, so every row
    # counted as converged and the step skipped the source, gravity included.
    # The laws refuse a non-finite parameter, so it is set past their checks.
    # The linear slip law fails its one solve, the Manning law its Newton
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
    message = ("^non-finite linear source in cell 1$" if law == "slip" else
               "^Newton solve did not converge in cell 1 after 0 updates: residual nan$")
    with pytest.raises(RuntimeError, match=message), np.errstate(invalid="ignore"):
        step_semi_implicit(grid, 1e-3, model, basis2, SimConfig(mode="semi_implicit"))


def test_nonfinite_state_aborts_with_cell_index(basis2):
    grid = _uniform_grid(10, 2, h=0.05)
    for j, col in ((5, 1), (1, 0), (10, 3)):
        U = grid.U.copy()
        U[j - 1, col] = np.nan
        bad = Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)
        for stepper, mode in ((step_explicit, "explicit"), (step_semi_implicit, "semi_implicit")):
            with pytest.raises(RuntimeError, match=f"^non-finite state after input in cell {j}$"):
                stepper(bad, 1e-3, MODEL, basis2, SimConfig(mode=mode))


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


def _with_state(grid, U):
    """A grid on the cells of grid with the conservative rows U and no
    stored cells."""
    return Grid(x=grid.x, dx=grid.dx, U=U, dbdx=grid.dbdx)


def _cfl_dt_all_rows(grid, config, basis):
    """cfl_dt as an eigen-solve over every wet row, with no screen."""
    U = grid.U
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
        grids.append(_with_state(grid, to_conservative(P)))
    # every row ties for the maximum
    grids.append(_uniform_grid(60, N, h=0.05, u_m=0.2, alpha=0.5 ** np.arange(N) * 0.1))
    # the fastest row moves left
    P = random_wet_primitive(rng, N, 60, vel_scale=0.1)
    P[17, 1] = -2.0
    grids.append(_with_state(grid, to_conservative(P)))
    for g in grids:
        assert cfl_dt(g, cfg, basis) == _cfl_dt_all_rows(g, cfg, basis)
    assert cfl_dt(grids[-1], cfg, basis) == pytest.approx(
        0.05 * grid.dx / (2.0 + math.sqrt(EPS * math.cos(THETA) * P[17, 0] + P[17, 2] ** 2)),
        rel=1e-10)
    dry = _uniform_grid(60, N, h=1e-7)
    assert cfl_dt(dry, cfg, basis) == math.inf


@pytest.mark.parametrize("N", [1, 2, 6])
def test_cfl_dt_solves_each_run_of_equal_rows_once(N, monkeypatch):
    basis = build_basis(N)
    cfg = SimConfig(mode="explicit", cfl=0.05)
    rng = np.random.default_rng(60 + N)
    J = 60
    # the fastest state, so its rows are the candidates of the screen
    fast = np.concatenate([[0.05, 0.5], 0.1 * 0.5 ** np.arange(N)])
    block = np.zeros((J, N + 2))
    block[:, 0] = 0.5 * H_MIN
    block[20:40] = fast
    plateaus = random_wet_primitive(rng, N, J, vel_scale=0.1)
    plateaus[5:15] = fast
    plateaus[40:52] = fast
    # the screen keeps the candidates in grid order, so two plateaus of one
    # state become one run; a candidate between them, as fast but moving
    # left, splits it into two
    split = plateaus.copy()
    split[30] = fast * np.r_[1.0, -1.0, np.ones(N)]
    cases = {"uniform block": (block, 1), "two plateaus": (plateaus, 1),
             "two plateaus, split": (split, 3), "all equal and wet": (np.tile(fast, (J, 1)), 1)}
    solved = []

    def counting(P, *args):
        solved.append(len(P))
        return wavespeeds_batch(P, *args)

    monkeypatch.setattr(scheme, "wavespeeds_batch", counting)
    grid = make_grid(0.0, 1.0, J, N)
    for name, (P, runs) in cases.items():
        g = _with_state(grid, to_conservative(P))
        expected = np.float64(_cfl_dt_all_rows(g, cfg, basis))
        assert np.float64(cfl_dt(g, cfg, basis)).tobytes() == expected.tobytes(), name
        assert solved[-1] == runs, name


def _transport_full_width(grid, dt, eps, theta, basis):
    """The transport predictor with the fluctuations of every interface
    between two cells; the two boundary faces carry none."""
    U = grid.U
    D_minus = np.zeros((len(U) + 1, U.shape[1]))
    D_plus = np.zeros_like(D_minus)
    D_minus[1:-1], D_plus[1:-1] = fluctuations(U, to_primitive(U), grid.dry(), grid.dx, dt,
                                               eps, theta, basis)
    return U - (dt / grid.dx) * (D_plus[:-1] + D_minus[1:])


def _transport_edge_padded(grid, dt, eps, theta, basis):
    """The transport predictor of the former ghost-cell layout, written out:
    U, its primitive rows and its dryness edge-padded with a copy of each
    boundary cell (the transmissive ghost), the fluctuations of all J+1
    faces of those J+2 rows, then the ghost rows stripped."""
    def pad(rows):
        return np.pad(rows, [(1, 1)] + [(0, 0)] * (rows.ndim - 1), mode="edge")

    U = pad(grid.U)
    D_minus, D_plus = fluctuations(U, pad(grid.primitive), pad(grid.dry()), grid.dx, dt,
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
    flags = np.zeros(J, dtype=bool)
    for j in stored:
        P[j] = 0.0
        P[j, 0] = 0.5 * WETTING_HYSTERESIS * H_MIN
        flags[j] = True
    return replace(make_grid(0.0, 1.0, J, N), U=to_conservative(P), stored=flags)


WINDOW_CASES = {
    "one_patch": dict(patches=[(15, 24)]),
    "two_patches_dry_gap": dict(patches=[(5, 11), (26, 33)]),
    "touches_boundary": dict(patches=[(0, 7), (34, 40)]),
    "stored_next_to_front": dict(patches=[(12, 22)], stored=(10, 11, 22, 23, 30)),
    "all_dry": dict(patches=[]),
    "all_wet": dict(patches=[(0, 40)]),
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
def test_path_matrices_stacked_call_equals_per_node_calls(case):
    # the average over the entries that can be nonzero has the bytes of the
    # average of whole node matrices, at every order and dry-wet interface
    for N in range(1, MAX_ORDER + 1):
        basis = build_basis(N)
        grid = _patch_grid(N, **WINDOW_CASES[case])
        dry = grid.dry()
        A, inert = _path_matrices(to_primitive(grid.U), dry, EPS, THETA, basis)
        expected = _path_matrices_per_node(grid.U, dry, EPS, THETA, basis)
        assert A.shape == expected.shape and A.tobytes() == expected.tobytes(), f"N={N}"
        assert np.array_equal(inert, dry[:-1] & dry[1:])


@pytest.mark.parametrize("case", sorted(WINDOW_CASES), ids=lambda c: f"{c}-primitive")
def test_transport_window_bit_identical_to_full_width(case, basis2):
    grid = _patch_grid(2, **WINDOW_CASES[case])
    for dt in (1e-4, 7.3e-4):
        got = _transport(grid, dt, EPS, THETA, basis2)
        assert np.array_equal(got, _transport_full_width(grid, dt, EPS, THETA, basis2))
        # outside the window the rows are copied, not computed: U - (dt/dx) 0 is U
        window = _live_window(grid.dry())
        outside = np.ones(grid.J, dtype=bool)
        outside[window] = False
        assert got[outside].tobytes() == grid.U[outside].tobytes()
    if case == "all_dry":
        assert np.array_equal(got, grid.U)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_grid_primitive_converts_the_window_with_the_bits_of_to_primitive(case, monkeypatch):
    # the dry rows outside the window carry momenta, -0.0 among them, which
    # to_primitive zeroes; the stored rows hold theirs at zero
    grid = _patch_grid(2, **WINDOW_CASES[case])
    U = grid.U.copy()
    dry_film = U[:, 0] <= H_MIN
    U[dry_film, 1:] = np.random.default_rng(3).uniform(-1e-7, 1e-7, (np.sum(dry_film), 3))
    U[dry_film, 2] = -0.0
    grid = replace(grid, U=U)
    calls = []

    def counted(U):
        calls.append(len(U))
        return to_primitive(U)

    monkeypatch.setattr(scheme, "to_primitive", counted)
    assert grid.primitive.tobytes() == to_primitive(grid.U).tobytes()
    window = _live_window(grid.dry())
    assert calls == [window.stop - window.start]


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


@pytest.mark.parametrize("case", ["all_wet", "stored_next_to_front", "touches_boundary"])
def test_steppers_equal_the_edge_padded_ghost_scheme(case, basis2, monkeypatch):
    # the transmissive boundary was a ghost copy of each boundary cell, its
    # stored flag included; its faces then had a zero jump and so carried
    # zero. all_wet and touches_boundary have flow in both boundary cells.
    # array_equal takes -0.0 == 0.0, the one difference a zero face may make
    grid = _patch_grid(2, **WINDOW_CASES[case])
    for dt in (1e-4, 7.3e-4):
        assert np.array_equal(_transport(grid, dt, EPS, THETA, basis2),
                              _transport_edge_padded(grid, dt, EPS, THETA, basis2))
    cfgs = (SimConfig(mode="explicit"), SimConfig(mode="semi_implicit"))
    steppers = (step_explicit, step_semi_implicit)
    runs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(scheme, "_transport", _transport_edge_padded)
        for stepper, cfg in zip(steppers, cfgs):
            g = grid
            for _ in range(3):
                g, _ = stepper(g, _step_dt(g, cfg, basis2), MODEL, basis2, cfg)
            runs.append(g)
    for new, old in zip(runs[:2], runs[2:]):
        assert np.array_equal(new.U, old.U) and np.array_equal(new.stored, old.stored)


@pytest.mark.parametrize("N", range(1, 13))
def test_fluctuations_vanish_between_equal_rows(N):
    # D(U, U) = 0 exactly: the property that lets the boundary faces carry none
    basis = build_basis(N)
    rng = np.random.default_rng(40 + N)
    for P in random_wet_primitive(rng, N, 20):
        U = to_conservative(np.stack([P, P]))
        D_minus, D_plus = fluctuations(U, to_primitive(U), is_dry(U[:, 0]), 0.01, 1e-3,
                                       EPS, THETA, basis)
        assert np.all(D_minus == 0.0) and np.all(D_plus == 0.0)


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
    assert (window.start, window.stop) == (4, 34)
    assert np.all(dry[:window.start]) and np.all(dry[window.stop:])
    assert _live_window(np.ones(10, dtype=bool)) == slice(0, 0)


def test_run_converts_each_grid_to_primitive_once(monkeypatch):
    # one conversion per grid (the initial one and one per step), of the rows
    # of its live window, shared by cfl_dt, the step and the diagnostics; the
    # linear implicit stage of newtonian_slip converts nothing
    calls, grids = [], []

    def counted(U):
        calls.append(len(U))
        return to_primitive(U)

    def kept(build):
        def wrapper(*args):
            out = build(*args)
            grids.append(out if isinstance(out, Grid) else out[0])
            return out
        return wrapper

    monkeypatch.setattr(scheme, "to_primitive", counted)
    for name in ("build_grid", "step_explicit", "step_semi_implicit"):
        monkeypatch.setattr(sim, name, kept(getattr(sim, name)))
    for mode in ("explicit", "semi_implicit"):
        calls.clear()
        grids.clear()
        cfg = preset(1, J=60, mode=mode, snapshot_times=(0.0, 0.1, 0.2))
        steps = len(run(cfg).diagnostics["time"])
        assert steps > 2 and len(grids) == steps + 1
        windows = [len(g.U[_live_window(g.dry())]) for g in grids]
        assert calls == windows
        assert 0 < min(windows) and max(windows) < cfg.J


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
    dry_after = _dry_after_transport(U_check, grid.dry())
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
    U_out = _finalize(grid, U_new, dry_after)[0].U
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
            U[4:11, 1] = 0.3 * U[4:11, 0]
            U[4:11, 2:] = 0.0
            grid = _with_state(grid, U)
        dt = cfl_fraction * cfl_dt(grid, cfg, basis)
        U_check, U_ref, total_ref, max_ref = _semi_implicit_reference(
            grid, dt, model, EPS, THETA, basis)
        if static:
            assert np.all(U_check[5:10, 2:] == 0.0)
        got, info = step_semi_implicit(grid, dt, model, basis, cfg)
        assert info["newton_iters_total"] == total_ref
        assert info["newton_iters_max"] == max_ref >= 1
        np.testing.assert_allclose(got.U, U_ref, rtol=1e-10, atol=0.0)
        wet = ~_dry_after_transport(U_check, grid.dry())
        assert np.any(~wet)
        assert np.array_equal(got.U[wet, 0], U_check[wet, 0])


@pytest.mark.parametrize("law", ["slip", "manning"])
def test_semi_implicit_source_rows_per_step(law, basis2, monkeypatch):
    # slip + Newtonian is linear in v: one stresses call on the N+1
    # unit-velocity copies of each wet row gives its matrix, and the source
    # is never evaluated at the state. Manning evaluates the residual of the
    # rows still iterating, then the central-difference batch of 2n copies of
    # each row whose residual is not yet below NEWTON_TOL
    model = MODEL if law == "slip" else build_model(preset(2, law="manning"))
    assert model.linear_in_velocity == (law == "slip")
    grid = _patch_grid(2, patches=[(2, 15), (22, 38)], J=40, seed=1)
    cfg = SimConfig(mode="semi_implicit")
    dt = 0.5 * cfl_dt(grid, cfg, basis2)
    calls, stress_calls = [], []
    stresses = type(model).stresses

    def counted(P, *args):
        calls.append(len(P))
        return source_batch(P, *args)

    def counted_stresses(self, P, basis):
        stress_calls.append(len(P))
        return stresses(self, P, basis)

    monkeypatch.setattr(scheme, "source_batch", counted)
    monkeypatch.setattr(type(model), "stresses", counted_stresses)
    _, info = step_semi_implicit(grid, dt, model, basis2, cfg)
    wet = len(grid.x) - info["dry_cells"]
    assert info["newton_iters_total"] > 0
    if law == "slip":
        assert calls == []
        assert stress_calls == [(basis2.N + 1) * wet]
        assert (info["newton_iters_total"], info["newton_iters_max"]) == (wet, 1)
    else:
        # wet, then per update 2n * active and the residual of those active rows
        active = calls[2::2]
        assert calls[0] == wet
        assert calls[1::2] == [2 * (basis2.N + 1) * k for k in active]
        assert len(active) == info["newton_iters_max"] > 1
        assert sum(active) == info["newton_iters_total"]
        assert stress_calls == calls


@pytest.mark.parametrize("h_range", [(1e-2, 0.1), (1e-5, 1e-3)], ids=["deep", "thin"])
def test_linear_implicit_stage_solves_backward_euler_in_every_wet_row(h_range, basis2):
    # S = d + K v holds exactly for a linear law, so the state after the step
    # satisfies q = q_check + dt S(q) to round-off in every wet row. The tiny
    # dt leaves residuals at U_check below NEWTON_TOL, which a Newton screen
    # would accept unsolved. The thin films have kappa(h) != 1/h
    cfg = SimConfig(mode="semi_implicit")
    below = above = 0
    for seed in range(2):
        grid = _patch_grid(2, patches=[(2, 15), (22, 38)], J=40, seed=seed, h_range=h_range)
        for dt in (0.5 * cfl_dt(grid, cfg, basis2), 1e-10):
            U_check = _transport(grid, dt, EPS, THETA, basis2)
            wet = ~_dry_after_transport(U_check, grid.dry())
            g, info = step_semi_implicit(grid, dt, MODEL, basis2, cfg)
            assert (info["newton_iters_total"], info["newton_iters_max"]) == (np.sum(wet), 1)
            dbdx, q_check, q = grid.dbdx[wet], U_check[wet, 1:], g.U[wet, 1:]
            S_check = source_batch(to_primitive(U_check[wet]), MODEL, EPS, THETA, dbdx, basis2)
            err = dt * np.max(np.abs(S_check[:, 1:]), axis=1)
            below += np.sum(err < scheme.NEWTON_TOL)
            above += np.sum(err >= scheme.NEWTON_TOL)
            P = to_primitive(g.U[wet])
            S = source_batch(P, MODEL, EPS, THETA, dbdx, basis2)[:, 1:]
            d, K = linear_source_batch(P[:, 0], dbdx, MODEL, EPS, THETA, basis2)
            scale = (np.abs(q) + np.abs(q_check)
                     + dt * (np.abs(d) + (np.abs(K) @ np.abs(P[:, 1:, None]))[:, :, 0]))
            assert np.all(np.abs(q - q_check - dt * S) <= 1e-12 * scale)
    assert below > 20 and above > 20


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
        np.testing.assert_allclose(got.U, U_ref, rtol=1e-10, atol=0.0)
        wet = ~_dry_after_transport(U_check, grid.dry())
        thin += int(np.sum(wet & (U_check[:, 0] ** 2 < H_MIN)))
    assert thin > 10


def test_singular_newton_jacobian_reports_cell(basis2, monkeypatch):
    # Manning is not linear in v, so its stage is the Newton path, whose
    # finite-difference Jacobian is solved by np.linalg.solve
    model = build_model(preset(2, law="manning"))
    assert not model.linear_in_velocity
    grid = _uniform_grid(10, 2, h=0.08)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(scheme.np.linalg, "solve", singular)
    with pytest.raises(RuntimeError, match="singular Newton Jacobian in cell 1"):
        step_semi_implicit(grid, 1e-3, model, basis2,
                           SimConfig(mode="semi_implicit"))


def test_zero_pivot_of_the_linear_stage_reports_cell(basis2, monkeypatch):
    # K = I / (dt kappa) in one cell makes its system I - dt kappa K zero;
    # h = 1/8 and dt = 2^-10 keep dt kappa = 2^-7 and its inverse exact
    grid = _uniform_grid(10, 2, h=0.125)
    dt = 2.0 ** -10
    assert dt * state.desingularization_factor(0.125) * 2.0 ** 7 == 1.0

    def singular_in_cell_4(h, dbdx, model, eps, theta, basis):
        d, K = linear_source_batch(h, dbdx, model, eps, theta, basis)
        K[3] = np.eye(basis.N + 1) * 2.0 ** 7
        return d, K

    monkeypatch.setattr(scheme, "linear_source_batch", singular_in_cell_4)
    with pytest.raises(RuntimeError, match="singular linear source system in cell 4$"):
        step_semi_implicit(grid, dt, MODEL, basis2, SimConfig(mode="semi_implicit"))


@pytest.mark.parametrize("N", range(1, 13))
def test_linear_stage_equals_a_per_row_lapack_solve(N):
    # elimination without pivoting against a per-row np.linalg.solve (with
    # pivoting) of the same system (I - dt kappa K) q = q_check + dt d, on wet
    # rows whose depths lie on both sides of sqrt(H_MIN), above which kappa(h)
    # is 1/h; the rows outside rows and the depths stay untouched
    basis = build_basis(N)
    rng = np.random.default_rng(70 + N)
    M, dt = 40, 2e-3
    P = random_wet_primitive(rng, N, M, h_range=(1e-5, 0.1))
    h = P[:, 0]
    assert np.any(h * h < H_MIN) and np.any(h * h > H_MIN)
    dbdx = rng.uniform(-0.5, 0.5, M)
    rows = np.arange(3, 3 + M)
    for model in (Newtonian(nu=1.19e-3, bottom_law=SlipBottom(nu=1.19e-3, lam=1e-4)),
                  Newtonian(nu=0.02, bottom_law=SlipBottom(nu=3e-3, lam=0.05))):
        U = np.zeros((M + 6, N + 2))
        U[rows] = to_conservative(P)
        full_dbdx = np.zeros(M + 6)
        full_dbdx[rows] = dbdx
        d, K = linear_source_batch(h, dbdx, model, EPS, THETA, basis)
        scale = dt * state.desingularization_factor(h)
        expected = [np.linalg.solve(np.eye(N + 1) - scale[m] * K[m], U[rows[m], 1:] + dt * d[m])
                    for m in range(M)]
        U_before = U.copy()
        assert scheme._linear_source_solve(U, rows, dt, full_dbdx, model, EPS, THETA,
                                           basis) == (M, 1)
        # relative to each row's largest component: a small component may
        # come from cancellation, in both solves alike
        expected = np.array(expected)
        err = np.max(np.abs(U[rows, 1:] - expected), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(expected), axis=1))
        keep = np.ones(len(U), dtype=bool)
        keep[rows] = False
        assert np.array_equal(U[keep], U_before[keep])
        assert np.array_equal(U[:, 0], U_before[:, 0])
