"""End-to-end acceptance checks for the solver stack.

Each test is one independent pass/fail verdict: basis correctness, closed-form
friction oracles against quadrature, equilibrium and mass preservation,
source-model equivalence, interface-matrix properties, hyperbolicity, the
qualitative inclination/friction trends of the reference scenarios, splitting
accuracy, and wet-dry robustness on a curved bed.
"""

import math
import time
from dataclasses import replace

import numpy as np

from swmoment.basis import build_basis, eval_phi, gauss_rule
from swmoment.friction import (
    MuI,
    MuIBottom,
    Newtonian,
    SlipBottom,
    muI_bulk_analytic_N1,
    muI_bulk_quadrature,
    savage_hutter_violations,
)
from swmoment.hswme import source_batch, system_matrix_batch
from swmoment.scheme import (
    Grid,
    _path_matrices,
    cfl_dt,
    fluctuations,
    make_grid,
    step_explicit,
    step_semi_implicit,
)
from swmoment.sim import SimConfig, build_grid, build_model, front_position, preset, run
from swmoment.state import H_MIN, is_dry, to_conservative, to_primitive
from tests.conftest import random_wet_primitive

EPS = 0.01
THETA = math.pi / 4


def _grid_with_state(J: int, N: int, P: np.ndarray) -> Grid:
    grid = make_grid(0.0, 1.0, J, N)
    return Grid(x=grid.x, dx=grid.dx, U=to_conservative(P), dbdx=grid.dbdx)


def test_01_basis_orthogonality_symmetry_and_endpoints():
    start = time.perf_counter()
    basis = build_basis(6)
    # phi_i * phi_j has degree <= 12, so a 16-point rule integrates it exactly
    nodes, weights = gauss_rule(16)
    vals = np.vstack([np.ones_like(nodes)] + [eval_phi(basis, j, nodes) for j in range(1, 7)])
    gram = (vals * weights) @ vals.T
    expected = np.diag(1.0 / (2.0 * np.arange(7) + 1.0))
    np.testing.assert_allclose(gram, expected, rtol=0.0, atol=1e-13)
    assert np.array_equal(basis.C, basis.C.T)
    # the alpha_1 slice keeps (2j+1) A_ij1 = (2i+1) A_ji1
    s = 2.0 * np.arange(1, 7) + 1.0
    assert np.array_equal(basis.A * s, s[:, None] * basis.A.T)
    for j in range(1, 7):
        assert eval_phi(basis, j, 0.0) == 1.0
        assert eval_phi(basis, j, 1.0) == (-1.0) ** j
    assert time.perf_counter() - start < 1.0


def test_02_granular_bulk_closed_form_matches_quadrature_linear_profile():
    start = time.perf_counter()
    model = build_model(preset(4))
    basis = build_basis(1)
    rng = np.random.default_rng(2024)
    M = 1000
    h = 10.0 ** rng.uniform(-3.0, -1.0, M)
    a1 = -(10.0 ** rng.uniform(-6.0, 0.0, M))
    T_exact = muI_bulk_analytic_N1(h, a1, model)
    T32 = muI_bulk_quadrature(h, a1[:, None], model, basis, points=32)[:, 0]
    T8 = muI_bulk_quadrature(h, a1[:, None], model, basis, points=8)[:, 0]
    assert np.max(np.abs(T32 - T_exact) / np.abs(T_exact)) < 1e-10
    assert np.max(np.abs(T8 - T_exact) / np.abs(T_exact)) < 1e-6
    assert time.perf_counter() - start < 5.0


def test_03_granular_bulk_closed_form_quadratic_profile_and_continuity():
    model = build_model(preset(4))
    basis = build_basis(2)
    rng = np.random.default_rng(7)
    M = 200
    h = 10.0 ** rng.uniform(-3.0, -1.0, M)
    a1 = -(10.0 ** rng.uniform(-2.0, 0.0, M))
    # |alpha_2| <= |alpha_1| / 4 keeps the stationary point of the shear
    # outside the water column (single-signed increasing profiles)
    a2 = rng.uniform(-1.0, 1.0, M) * np.abs(a1) / 4.0
    alpha = np.column_stack([a1, a2])
    T32 = muI_bulk_quadrature(h, alpha, model, basis, points=32)
    T64 = muI_bulk_quadrature(h, alpha, model, basis, points=64)
    T_cf = model.bulk_terms(np.column_stack([h, np.zeros(M), alpha]), basis)
    for i in range(M):
        # the reference itself must be resolved before it can judge the closed form
        assert np.linalg.norm(T32[i] - T64[i]) <= 1e-12 * np.linalg.norm(T64[i])
        assert np.linalg.norm(T_cf[i] - T32[i]) <= 1e-8 * np.linalg.norm(T32[i])
    T1_lim = model.bulk_terms(np.column_stack([h[:20], np.zeros(20), a1[:20],
                                               np.full(20, 1e-8)]), basis)[:, 0]
    T1_lin = muI_bulk_analytic_N1(h[:20], a1[:20], model)
    assert np.all(np.abs(T1_lim - T1_lin) <= 1e-4 * np.abs(T1_lin))


def test_04_granular_equilibrium_preserved_on_incline():
    start = time.perf_counter()
    theta = math.atan(0.48)
    model = replace(build_model(preset(4)), bottom_law=MuIBottom())
    assert isinstance(model, MuI) and model.mu_s == 0.48
    basis = build_basis(1)
    P = np.tile([0.05, 0.1, 0.0], (200, 1))
    grid = _grid_with_state(200, 1, P)
    cfg = SimConfig(theta=theta, mode="semi_implicit", cfl=0.05)
    U0 = grid.U.copy()
    for _ in range(100):
        dt = cfl_dt(grid, cfg, basis)
        grid, _ = step_semi_implicit(grid, dt, model, basis, cfg)
    np.testing.assert_allclose(grid.U, U0, rtol=0.0, atol=1e-12)
    assert time.perf_counter() - start < 5.0


def test_05_mass_conserved_explicit_block_release():
    start = time.perf_counter()
    cfg = preset(1, J=200, mode="explicit", snapshot_times=(0.5,))
    grid = build_grid(cfg)
    m0 = float(np.sum(grid.U[:, 0]) * grid.dx)
    result = run(cfg)
    snap = result.snapshots[-1]
    # the drift bound presumes the support never touches the open boundaries
    assert snap.h[0] <= H_MIN and snap.h[-1] <= H_MIN
    m_end = float(result.diagnostics["mass"][-1])
    assert abs(m_end - m0) / m0 < 1e-8
    assert time.perf_counter() - start < 30.0


def test_06_sliding_law_matches_constant_friction_on_monotone_states():
    basis = build_basis(3)
    delta = math.radians(15.0)
    sliding = build_model(preset(3))
    assert sliding.bottom_law.delta == delta
    constant = build_model(replace(preset(3), friction="coulomb",
                                   friction_params={"delta": delta, "mu": math.tan(math.radians(20.0))}))
    rng = np.random.default_rng(11)
    accepted = 0
    draws = 0
    while accepted < 100:
        draws += 1
        assert draws < 10_000
        P = np.empty((1, 5))
        P[0, 0] = 10.0 ** rng.uniform(-3.0, -1.0)
        P[0, 1] = rng.uniform(0.05, 1.0)
        P[0, 2] = -rng.uniform(0.0, 0.4) * P[0, 1]
        P[0, 3] = rng.uniform(-0.05, 0.05) * P[0, 1]
        P[0, 4] = rng.uniform(-0.05, 0.05) * P[0, 1]
        if savage_hutter_violations(P, basis) != 0:
            continue
        S_sliding = source_batch(P, sliding, EPS, THETA, np.zeros(1), basis)
        S_constant = source_batch(P, constant, EPS, THETA, np.zeros(1), basis)
        np.testing.assert_allclose(S_sliding, S_constant, rtol=0.0, atol=1e-14)
        accepted += 1


def test_07_interface_matrix_consistency_path_quadrature_and_fluctuation_sum():
    basis = build_basis(2)
    rng = np.random.default_rng(12)
    nodes, weights = gauss_rule(20)
    for _ in range(20):
        P = random_wet_primitive(rng, 2, 2)
        # rows L, L, R: interface 0 is L|L, interface 1 is L|R
        U = to_conservative(P[[0, 0, 1]])
        X, dry = to_primitive(U), is_dry(U[:, 0])
        A, _ = _path_matrices(X, dry, EPS, THETA, basis)
        np.testing.assert_allclose(A[0], system_matrix_batch(P[:1], EPS, THETA, basis)[0],
                                   rtol=0.0, atol=1e-14)
        # entries are quadratic along the straight path in primitive variables,
        # so the 3-point rule must match a dense quadrature of the same path
        P_s = P[0][None, :] + nodes[:, None] * (P[1] - P[0])[None, :]
        A_dense = np.einsum("k,kij->ij", weights, system_matrix_batch(P_s, EPS, THETA, basis))
        np.testing.assert_allclose(A[1], A_dense, rtol=0.0, atol=1e-13)
        D_minus, D_plus = fluctuations(U, X, dry, 0.01, 1e-3, EPS, THETA, basis)
        np.testing.assert_allclose(D_minus[1] + D_plus[1], A[1] @ (U[2] - U[1]),
                                   rtol=0.0, atol=1e-13)


def test_08_eigenvalues_real_across_moment_orders():
    rng = np.random.default_rng(8)
    for N in range(1, 7):
        basis = build_basis(N)
        P = random_wet_primitive(rng, N, 10_000)
        ev = np.linalg.eigvals(system_matrix_batch(P, EPS, THETA, basis))
        lam_max = np.max(np.abs(ev), axis=1)
        assert np.all(np.abs(ev.imag) < 1e-9 * lam_max[:, None]), f"complex speeds at N={N}"


def test_09_front_position_increases_with_inclination():
    start = time.perf_counter()
    thetas = (math.pi / 8, math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 5)
    fronts = []
    for theta in thetas:
        # the steeper flows leave the unit domain before t=1, where every front
        # would read as the last cell centre; a domain twice as long at the
        # same dx keeps all five fronts interior
        cfg = preset(1, J=400, x_b=2.0, N=2, theta=theta, snapshot_times=(1.0,))
        snap = run(cfg).snapshots[-1]
        assert np.all(np.isfinite(snap.h)) and np.all(snap.h >= 0.0)
        front = front_position(snap)
        assert snap.h[-1] <= H_MIN and front < snap.x[-1], (
            f"front at theta={theta:.4f} reached the right boundary: {front}")
        fronts.append(front)
    assert time.perf_counter() - start < 300.0
    assert all(a < b for a, b in zip(fronts, fronts[1:])), f"fronts not strictly increasing: {fronts}"


def test_10_manning_peak_bottom_velocity_below_slip():
    res_slip = run(preset(2, J=200, law="slip", Lambda=0.0015, snapshot_times=(0.6,)))
    res_manning = run(preset(2, J=200, law="manning", n=0.0165, snapshot_times=(0.6,)))
    peak_slip = float(np.max(np.abs(res_slip.snapshots[-1].u_bottom)))
    peak_manning = float(np.max(np.abs(res_manning.snapshots[-1].u_bottom)))
    assert peak_manning < peak_slip, (
        f"peak bottom velocity: manning {peak_manning:.4f} vs slip {peak_slip:.4f}")


def test_11_stepper_splitting_difference_first_order_in_dt():
    basis = build_basis(1)
    model = Newtonian(nu=1e-4, bottom_law=SlipBottom(nu=1e-4, lam=1e-2))

    def solve(mode: str, dt: float) -> np.ndarray:
        grid = make_grid(0.0, 1.0, 50, 1)
        P = np.empty((50, 3))
        P[:, 0] = 0.05 + 0.01 * np.sin(2.0 * np.pi * grid.x)
        P[:, 1] = 0.1
        P[:, 2] = -0.02
        grid = _grid_with_state(50, 1, P)
        cfg = SimConfig(mode=mode)
        step = step_explicit if mode == "explicit" else step_semi_implicit
        for _ in range(round(0.2 / dt)):
            grid, _ = step(grid, dt, model, basis, cfg)
        return grid.U.copy()

    diffs = []
    for dt in (2e-3, 1e-3):
        diff = np.sum(np.abs(solve("explicit", dt) - solve("semi_implicit", dt))) * (1.0 / 50)
        diffs.append(diff)
    assert diffs[0] / diffs[1] >= 1.8, f"halving dt shrank the gap only {diffs[0] / diffs[1]:.2f}x"


def test_12_runoff_wet_dry_robustness():
    cfg = preset(4, J=200, N=3, bathymetry="runoff", snapshot_times=(0.25, 0.5, 1.0))
    result = run(cfg)  # raises if any step aborts
    for snap in result.snapshots:
        assert np.all(np.isfinite(snap.h)) and np.all(snap.h >= 0.0)
        dry = snap.h <= H_MIN
        assert np.all(snap.u_m[dry] == 0.0)
        assert np.all(snap.alpha[dry] == 0.0)
