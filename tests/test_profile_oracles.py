"""Oracles for the vertical velocity profile of x-uniform flow.

On a flat incline with an x-uniform state every face carries zero (equal
neighbours inside, no fluctuation on the boundary faces), so each cell
evolves by its source alone, an ODE in the velocity components v = (u_m,
alpha_1..alpha_N) at fixed depth h.
"""

import numpy as np

from swmoment.basis import build_basis
from swmoment.hswme import source_batch, source_jacobian_batch
from swmoment.scheme import step_semi_implicit
from swmoment.sim import build_grid, build_model, preset


def _exact_moment_ode(P, model, config, basis, t):
    """v(t) of h v' = S(0) + K v from rest, K = dS/dv (the source is affine
    in v for Newtonian + slip): v(t) = (e^{At} - I) A^{-1} b with A = K / h
    and b = S(0) / h, through the eigen-decomposition of A."""
    h = P[0, 0]
    A = source_jacobian_batch(P, model, config.theta, basis)[0] / h
    b = source_batch(P, model, config.eps, config.theta, np.zeros(1), basis)[0, 1:] / h
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
