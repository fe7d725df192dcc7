"""Oracles for the vertical velocity profile of x-uniform flow.

On a flat incline with an x-uniform state every face carries zero (equal
neighbours inside, no fluctuation on the boundary faces), so each cell
evolves by its source alone, an ODE in the velocity components v = (u_m,
alpha_1..alpha_N) at fixed depth h.
"""

import numpy as np

from swmoment.basis import build_basis, reconstruct_velocity
from swmoment.hswme import linear_source_batch
from swmoment.scheme import step_semi_implicit
from swmoment.sim import build_grid, build_model, preset


def _exact_moment_ode(P, model, config, basis, t):
    """v(t) of h v' = d + K v from rest, S = d + K v the source (affine in v
    for Newtonian + slip, linear_source_batch): v(t) = (e^{At} - I) A^{-1} b
    with A = K / h and b = d / h, through the eigen-decomposition of A."""
    h = P[0, 0]
    d, K = linear_source_batch(P[:, 0], np.zeros(1), model, config.eps, config.theta, basis)
    A, b = K[0] / h, d[0] / h
    w, V = np.linalg.eig(A)
    assert np.all(w.real < 0.0)
    return np.real(V @ (np.expm1(w * t) / w * np.linalg.solve(V, b)))


def test_semi_implicit_start_up_from_rest_is_first_order_against_exact_moment_ode():
    # preset 1's Newtonian bulk over its slip bottom (lambda = 1e-4 H) at
    # theta = 45 deg: the eigenvalues of A are about -0.83, -10.8 and -1527.
    # The one stiff mode is damped by backward Euler; the error is O(dt)
    cfg = preset(1, N=2, J=3, ic={"kind": "uniform", "h": 0.05})
    model, basis, grid = build_model(cfg), build_basis(cfg.N), build_grid(cfg)
    assert model.linear_in_velocity
    t_end = 0.02
    v_exact = _exact_moment_ode(grid.primitive[:1], model, cfg, basis, t_end)
    errors = []
    for steps in (20, 40):
        g = grid
        for _ in range(steps):
            g, _ = step_semi_implicit(g, t_end / steps, model, basis, cfg)
        # no face moves anything: the cells stay equal and keep their depth
        assert np.all(g.U == g.U[0]) and np.all(g.U[:, 0] == 0.05)
        errors.append(np.max(np.abs(g.primitive[:, 1:] - v_exact)))
    assert errors[0] < 5e-3 * np.max(np.abs(v_exact))
    assert 1.8 <= errors[0] / errors[1] <= 2.2


def _zeta_resolved_start_up(beta, D, sin_t, t, zeta, terms=50):
    """u(zeta, t) of u_t = sin_t + D u_zz from rest, with the Robin (slip)
    bottom u_z(0) = beta u(0) and the stress-free surface u_z(1) = 0.

    u = u_s + sum_n c_n cos(k_n (1 - zeta)) e^{-D k_n^2 t}: u_s is the steady
    profile a - b (1 - zeta)^2, and k_n tan k_n = beta gives the eigenvalues,
    one root in each (n pi, n pi + pi/2), found by bisection. The c_n project
    -u_s on the eigenfunctions, which are orthogonal with unit weight."""
    def f(k):
        return k * np.sin(k) - beta * np.cos(k)

    lo = np.pi * np.arange(terms)
    hi = lo + np.pi / 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = np.sign(f(mid)) == np.sign(f(lo))
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    k = 0.5 * (lo + hi)
    b = sin_t / (2.0 * D)
    a = b + sin_t / (D * beta)
    sk, ck = np.sin(k), np.cos(k)
    # int_0^1 (a - b s^2) cos(k s) ds and int_0^1 cos^2(k s) ds
    proj = a * sk / k - b * (sk / k + 2.0 * ck / k**2 - 2.0 * sk / k**3)
    norm = 0.5 + np.sin(2.0 * k) / (4.0 * k)
    s = 1.0 - zeta
    modes = np.cos(np.outer(s, k)) * (-proj / norm * np.exp(-D * k * k * t))
    return a - b * s * s + modes.sum(axis=1)


def test_exact_moment_ode_converges_spectrally_in_N_to_the_zeta_resolved_flow():
    # The PDE behind source_split_batch for Newtonian + slip, x-uniform: with
    # u = u_m + sum_i alpha_i phi_i, the shear stress sigma = (nu/h) u_z,
    # sigma(0) = tau_b = (nu/lam) u(0) and sigma(1) = 0, the PDE
    #   h u_t = h sin(theta) + cos(theta) sigma_z
    # projected on phi_i (int_0^1 phi_i phi_j = delta_ij / (2i+1), phi_i(0) = 1,
    # and by parts int phi_i sigma_z = -tau_b - T_i with T_i = int phi_i' sigma)
    # gives h alpha_i' = -(2i+1) cos(theta) (tau_b + T_i) and h u_m' =
    # h sin(theta) - cos(theta) tau_b, the source of source_split_batch. So the
    # moment ODE at N is the Legendre-Galerkin form of u_t = sin(theta) + D u_zz
    # with D = nu cos(theta) / h^2 and u_z(0) = (h/lam) u(0), u_z(1) = 0.
    # Measured L2(zeta) errors at t = 0.1 (preset 1 friction, h = 0.05, 45 deg),
    # N = 1..10: 2.2e-2, 7.8e-3, 2.4e-3, 4.9e-4, 3.3e-5, 2.6e-5, 5.8e-6,
    # 5.7e-7, 3.9e-7, 4.4e-8; two orders more cut the error by 0.014-0.18
    h, t_end = 0.05, 0.1
    zeta, w = np.polynomial.legendre.leggauss(64)
    zeta, w = 0.5 * (zeta + 1.0), 0.5 * w
    cfg = preset(1, J=3, ic={"kind": "uniform", "h": h})
    model = build_model(cfg)
    D = model.nu * np.cos(cfg.theta) / h**2
    u = _zeta_resolved_start_up(h / model.bottom_law.lam, D, np.sin(cfg.theta), t_end, zeta)
    errors = []
    for N in range(1, 11):
        basis = build_basis(N)
        P = np.zeros((1, N + 2))
        P[0, 0] = h
        v = _exact_moment_ode(P, model, cfg, basis, t_end)
        u_N = reconstruct_velocity(basis, v[0], v[1:], zeta)
        errors.append(np.sqrt(np.sum(w * (u_N - u) ** 2)))
    errors = np.array(errors)
    assert np.all(errors[1:] < errors[:-1])
    assert np.all(errors[2:] <= 0.25 * errors[:-2])
    assert errors[-1] <= 2e-6 * np.max(np.abs(u))
