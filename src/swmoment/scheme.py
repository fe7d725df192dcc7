"""Path-conservative polynomial-viscosity finite-volume scheme with wet-dry fronts."""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import MomentBasis
from .hswme import (
    source_batch,
    source_split_batch,
    spectral_radius_batch,
    system_matrix_batch,
    wavespeeds_batch,
)
from .state import WetDryPolicy, is_dry, to_primitive

__all__ = [
    "Grid",
    "make_grid",
    "apply_transmissive_bc",
    "roe_matrix",
    "viscosity_matrix",
    "fluctuations",
    "cfl_dt",
    "step_explicit",
    "step_semi_implicit",
]


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid: J interior cells plus one ghost cell on each side.

    U holds conservative rows (J+2, N+2); row 0 and row J+1 are ghosts.
    dbdx holds interior cell slopes (J,). stored, bool (J+2,), flags the rows
    the last step held at rest as dry; the default None means none.

    A grid is immutable: U and stored are made read-only, and a step returns
    a new grid. So primitive and dry() are computed once, on first read.
    """

    x: np.ndarray
    dx: float
    U: np.ndarray
    dbdx: np.ndarray
    policy: WetDryPolicy
    stored: np.ndarray | None = None

    def __post_init__(self):
        if self.stored is None:
            object.__setattr__(self, "stored", np.zeros(len(self.U), dtype=bool))
        if not (isinstance(self.stored, np.ndarray) and self.stored.dtype == bool
                and self.stored.shape == (len(self.U),)):
            raise ValueError(f"stored must be a boolean array of shape ({len(self.U)},), one "
                             f"flag per row of U; got {np.shape(self.stored)}")
        self.U.flags.writeable = False
        self.stored.flags.writeable = False

    @property
    def J(self) -> int:
        return len(self.x)

    @cached_property
    def primitive(self) -> np.ndarray:
        """Primitive rows of every row of U (read-only). The conversion is
        elementwise per row, so a slice of it has the bits of converting the
        slice alone."""
        P = to_primitive(self.U, self.policy)
        P.flags.writeable = False
        return P

    @cached_property
    def _dry(self) -> np.ndarray:
        dry = is_dry(self.U[:, 0], self.policy) | self.stored
        dry.flags.writeable = False
        return dry

    def dry(self) -> np.ndarray:
        """Dryness of every row of U (read-only): h <= h_min, or stored."""
        return self._dry

    def interior(self) -> np.ndarray:
        return self.U[1:-1]


def make_grid(x_a: float, x_b: float, J: int, N: int, policy: WetDryPolicy, bed=None) -> Grid:
    """Grid over (x_a, x_b) with J cells, zero-initialized states and bed slopes."""
    if J < 3:
        raise ValueError("need at least 3 cells")
    if not x_b > x_a:
        raise ValueError("domain must satisfy x_a < x_b")
    dx = (x_b - x_a) / J
    x = x_a + dx * (np.arange(J) + 0.5)
    if bed is None:
        dbdx = np.zeros(J)
    else:
        from .topography import cell_slope

        dbdx = np.asarray(cell_slope(bed, x - 0.5 * dx, x + 0.5 * dx), dtype=float)
    return Grid(x=x, dx=dx, U=np.zeros((J + 2, N + 2)), dbdx=dbdx, policy=policy)


def apply_transmissive_bc(grid: Grid) -> Grid:
    """Copy the boundary cells into the ghost cells (waves exit freely)."""
    U, stored = grid.U.copy(), grid.stored.copy()
    for rows in (U, stored):
        rows[0] = rows[1]
        rows[-1] = rows[-2]
    return replace(grid, U=U, stored=stored)


# activation margin for rewetting: a dry cell turns wet only once its
# transported depth clears this multiple of h_min, while a wet cell dries at
# h_min itself. Sub-threshold interface-viscosity deposits then accumulate as
# stored mass (flagged in Grid.stored, held at rest) instead of creeping one
# cell per step, which arrests the spurious upslope tail a quasi-static
# draining front would otherwise pump out; resolved fronts deposit far above
# the margin and are unaffected.
WETTING_HYSTERESIS = 50.0


def _path_matrices(X: np.ndarray, dry: np.ndarray, eps: float, theta: float,
                   basis: MomentBasis) -> tuple[np.ndarray, np.ndarray]:
    """Path-averaged matrices for all consecutive interfaces of the primitive
    rows X, along the linear path in primitive variables.

    dry is the dryness mask of the rows. Dry-wet interfaces use the wet
    state's matrix (constant path); dry-dry interfaces are flagged inert (no
    fluctuations). Returns (A, inert).
    """
    wet = ~dry
    wet_l, wet_r = wet[:-1], wet[1:]
    inert = ~(wet_l | wet_r)
    left = np.where(wet_l[:, None], X[:-1], X[1:])
    right = np.where(wet_r[:, None], X[1:], X[:-1])
    nodes, weights = _PATH_RULE
    # one call for all Gauss-node states; summing them in node order keeps
    # the bits of one call per node
    states = np.concatenate([left + s * (right - left) for s in nodes])
    m = X.shape[1]
    A_nodes = system_matrix_batch(states, eps, theta, basis).reshape(len(nodes), len(left), m, m)
    A = np.zeros(A_nodes.shape[1:])
    for w, A_s in zip(weights, A_nodes):
        A += w * A_s
    return A, inert


def roe_matrix(U_L, U_R, eps: float, theta: float, basis: MomentBasis,
               policy: WetDryPolicy) -> np.ndarray:
    """Interface matrix: 3-point Gauss quadrature of the transport matrix along
    the linear path between the two states in primitive variables. Bare
    states have no step history, so here a state is dry iff h <= h_min."""
    U = np.stack([np.asarray(U_L, dtype=float), np.asarray(U_R, dtype=float)])
    A, _ = _path_matrices(to_primitive(U, policy), is_dry(U[:, 0], policy), eps, theta, basis)
    return A[0]


def viscosity_matrix(A: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """Q = (dx / 2 dt) I + (dt / 2 dx) A^2 (works on a matrix or a batch)."""
    if dx <= 0.0 or dt <= 0.0:
        raise ValueError("dx and dt must be positive")
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[-1])
    return (dx / (2.0 * dt)) * eye + (dt / (2.0 * dx)) * (A @ A)


def fluctuations(U_L, U_R, dx: float, dt: float, eps: float, theta: float,
                 basis: MomentBasis, policy: WetDryPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Left/right-going interface fluctuations (D_minus, D_plus).

    D_plus + D_minus = A (U_R - U_L) with A the path-averaged matrix and the
    viscosity matrix Q splitting the jump. Inert interfaces (dry-dry, or a
    wet-dry front not advancing into the dry cell) carry no fluctuations.
    """
    U = np.stack([np.asarray(U_L, dtype=float), np.asarray(U_R, dtype=float)])
    A, inert = _path_matrices(to_primitive(U, policy), is_dry(U[:, 0], policy), eps, theta, basis)
    if inert[0]:
        zero = np.zeros(U.shape[1])
        return zero, zero.copy()
    Q = viscosity_matrix(A[0], dx, dt)
    dU = U[1] - U[0]
    D_minus = 0.5 * (A[0] - Q) @ dU
    D_plus = 0.5 * (A[0] + Q) @ dU
    return D_minus, D_plus


def cfl_dt(grid: Grid, config, basis: MomentBasis) -> float:
    """CFL time step cfl * dx / max wavespeed over the cells not grid.dry();
    inf if there are none (every interface is inert, nothing moves); dt_fixed
    if set. config is the run's SimConfig."""
    if config.dt_fixed is not None:
        return config.dt_fixed
    wet = ~grid.dry()[1:-1]
    if not np.any(wet):
        return np.inf
    eps, theta = config.eps, config.theta
    P = grid.primitive[1:-1][wet]
    # the eigen-solve stays the value of the step, so dt is the same to the
    # bit; the closed form only screens out rows that cannot hold the maximum.
    # The 1e-8 margin rests on the closed form matching max |eigvals| to a
    # relative 1e-10 for N <= 12 (asserted in test_hswme), so the maximizing
    # row is always kept.
    rho = spectral_radius_batch(P, eps, theta)
    candidates = rho >= (1.0 - 1e-8) * np.max(rho)
    lam = np.max(wavespeeds_batch(P[candidates], eps, theta, basis))
    if lam <= 0.0:
        return np.inf
    # no upper cap here: the interface viscosity scales with dx/(2 dt), so
    # shrinking dt below the CFL step would only add diffusion
    return config.cfl * grid.dx / float(lam)


def _live_window(dry: np.ndarray) -> slice:
    """Rows of grid.U from the first to the last interface with a wet side
    (empty if there is none), for the mask dry of every row (grid.dry()).

    Only these interfaces carry fluctuations, and every row that is not
    dry lies inside the window.
    """
    live = np.flatnonzero(~(dry[:-1] & dry[1:]))
    return slice(live[0], live[-1] + 2) if live.size else slice(0, 0)


def _transport(grid: Grid, dt: float, eps: float, theta: float,
               basis: MomentBasis) -> np.ndarray:
    """Transport-only predictor for the interior cells.

    The matrices are built on the _live_window of grid.dry() only; outside it
    the fluctuations stay exactly zero.
    """
    U = grid.U
    D_minus = np.zeros((U.shape[0] - 1, U.shape[1]))
    D_plus = np.zeros_like(D_minus)
    dry = grid.dry()
    window = _live_window(dry)
    if window.stop:
        lo, hi = window.start, window.stop - 1
        W = U[window]
        A, inert = _path_matrices(grid.primitive[window], dry[window], eps, theta, basis)
        Q = viscosity_matrix(A, grid.dx, dt)
        dU = W[1:] - W[:-1]
        inert = inert[:, None]
        D_minus[lo:hi] = np.where(inert, 0.0, 0.5 * np.einsum("kij,kj->ki", A - Q, dU))
        D_plus[lo:hi] = np.where(inert, 0.0, 0.5 * np.einsum("kij,kj->ki", A + Q, dU))
    return U[1:-1] - (dt / grid.dx) * (D_plus[:-1] + D_minus[1:])


def _dry_after_transport(U_check: np.ndarray, was_dry: np.ndarray,
                         policy: WetDryPolicy) -> np.ndarray:
    """Dryness of the post-transport state with the rewetting margin."""
    h_check = U_check[:, 0]
    dry = is_dry(h_check, policy)
    dry |= was_dry & (h_check <= WETTING_HYSTERESIS * policy.h_min)
    return dry


def _finalize(grid: Grid, U_new: np.ndarray, dry_after: np.ndarray,
              iters_total: int = 0, iters_max: int = 0) -> tuple[Grid, dict]:
    """The grid after a step to interior states U_new, with its ghost rows
    mirrored (transmissive) and the step's info: the dry_after cells keep
    their transported depth at rest and are flagged stored; clamp negatives."""
    U, stored = grid.U.copy(), grid.stored.copy()
    stored[1:-1] = dry_after
    out = U[1:-1]
    out[:] = U_new
    out[dry_after, 1:] = 0.0
    clamped = 0.0
    negative = out[:, 0] < 0.0
    if np.any(negative):
        clamped = float(-np.sum(out[negative, 0]))
        out[negative, 0] = 0.0
    for rows in (U, stored):  # transmissive ghosts, as apply_transmissive_bc
        rows[0] = rows[1]
        rows[-1] = rows[-2]
    return replace(grid, U=U, stored=stored), {
        "dry_cells": int(np.sum(dry_after)), "clamped_mass": clamped,
        "newton_iters_total": iters_total, "newton_iters_max": iters_max}


def _check_finite(U: np.ndarray, stage: str) -> None:
    # the whole-array test is the fast path; the per-row mask only names the cell
    if np.isfinite(U).all():
        return
    j = int(np.argmax(~np.all(np.isfinite(U), axis=1)))
    raise RuntimeError(f"non-finite state after {stage} in cell {j + 1}")


def _check_step_input(grid: Grid, dt: float) -> None:
    """A stepper's entry checks: dt finite and positive, a finite state."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"time step dt must be finite and positive, got {dt}")
    _check_finite(grid.interior(), "input")


def _limited_source(P: np.ndarray, dt: float, model, eps: float, theta: float,
                    dbdx: np.ndarray, basis: MomentBasis) -> np.ndarray:
    """Explicit source with a dissipativity guard on the friction part.

    Friction damps the velocity profile; a forward-Euler step larger than the
    friction relaxation time would overshoot and reverse it, which diverges on
    thin cells near wet-dry fronts. The friction rows are scaled per cell so
    their energy projection onto the velocity profile is driven at most to
    zero within the step. The scale is 1 wherever the step resolves the
    friction time scale, so resolved cells see plain forward Euler.
    """
    S_drive, S_fric = source_split_batch(P, model, theta, eps, dbdx, basis)
    N = basis.N
    # energy weights of (u_m, alpha_1..alpha_N): ∫ u(ζ)² dζ diagonalizes
    # to u_m² + Σ α_i²/(2i+1)
    w = 1.0 / (2.0 * np.arange(N + 1) + 1.0)
    v = P[:, 1:]
    dv = dt * S_fric[:, 1:] / P[:, 0][:, None]
    num = np.einsum("k,mk,mk->m", w, v, dv)
    den = np.einsum("k,mk,mk->m", w, dv, dv)
    gamma = np.ones(P.shape[0])
    overshoot = num < 0.0
    gamma[overshoot] = np.minimum(1.0, -num[overshoot] / den[overshoot])
    return S_drive + gamma[:, None] * S_fric


def step_explicit(grid: Grid, dt: float, model, basis: MomentBasis,
                  config) -> tuple[Grid, dict]:
    """Forward-Euler step: transport fluctuations plus the explicit source.

    The source is evaluated at the pre-step state and applied only to cells
    that are wet both before the step and after the transport predictor; its
    friction part is guarded against overshoot (see _limited_source). Both
    read the pre-step primitive rows of grid.primitive. config is the run's
    SimConfig (eps, theta).
    """
    eps, theta = config.eps, config.theta
    _check_step_input(grid, dt)
    U_check = _transport(grid, dt, eps, theta, basis)
    _check_finite(U_check, "transport")
    was_dry = grid.dry()[1:-1]
    dry_after = _dry_after_transport(U_check, was_dry, grid.policy)
    apply_src = ~was_dry & ~dry_after
    U_new = U_check.copy()
    if np.any(apply_src):
        S = _limited_source(grid.primitive[1:-1][apply_src], dt, model, eps, theta,
                            grid.dbdx[apply_src], basis)
        U_new[apply_src] += dt * S
    _check_finite(U_new, "source")
    return _finalize(grid, U_new, dry_after)


# relative central-difference step of the Newton Jacobian: the step for a
# row's component v is FD_EPS * max(1, |v|)
FD_EPS = 1e-7


def _residual_and_jacobian(V: np.ndarray, target: np.ndarray, dt: float, model,
                           eps: float, theta: float, dbdx: np.ndarray,
                           basis: MomentBasis, policy: WetDryPolicy,
                           jacobian: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Residual V - target - dt S(V) of the velocity rows and, if asked, its
    central-difference Jacobian (None otherwise).

    The depth row of the source is zero, so the depth is fixed and the
    unknowns are the n = N+1 velocity components. For the Jacobian each of
    the k rows of V is stacked with its n forward and n backward copies into
    one (2n+1)k-row batch, so a single source evaluation gives the residual
    (k, n) and the Jacobian (k, n, n).
    """
    n = V.shape[1] - 1
    batch = np.repeat(V[None], 2 * n + 1 if jacobian else 1, axis=0)
    if jacobian:
        step = FD_EPS * np.maximum(1.0, np.abs(V[:, 1:]))
        cols = np.arange(n)
        batch[1 + cols, :, 1 + cols] += step.T
        batch[1 + n + cols, :, 1 + cols] -= step.T
    S = source_batch(to_primitive(batch.reshape(-1, n + 1), policy), model, theta, eps,
                     np.tile(dbdx, batch.shape[0]), basis)
    R = (batch - target - dt * S.reshape(batch.shape))[:, :, 1:]
    if not jacobian:
        return R[0], None
    jac = (R[1:n + 1] - R[n + 1:]) / (2.0 * step.T)[:, :, None]
    return R[0], jac.transpose(1, 2, 0)


def step_semi_implicit(grid: Grid, dt: float, model, basis: MomentBasis,
                       config) -> tuple[Grid, dict]:
    """Splitting step: explicit transport predictor, then a per-cell implicit
    source solve U = U_check + dt S(U) by Newton iteration with a
    central-difference Jacobian. The depth keeps its transported value (the
    source does not change it); cells dry after transport skip the solve.
    config is the run's SimConfig (eps, theta, newton_tol, newton_max_iter)."""
    eps, theta = config.eps, config.theta
    _check_step_input(grid, dt)
    U_check = _transport(grid, dt, eps, theta, basis)
    _check_finite(U_check, "transport")
    dry_after = _dry_after_transport(U_check, grid.dry()[1:-1], grid.policy)
    U_new = U_check.copy()
    iters_total = 0
    iters_max = 0

    def residual(rows: np.ndarray, jacobian: bool):
        return _residual_and_jacobian(U_new[rows], U_check[rows], dt, model, eps, theta,
                                      grid.dbdx[rows], basis, grid.policy, jacobian)

    rows = np.flatnonzero(~dry_after)
    # the first Jacobian comes in the same source call as the residual at
    # U_check; after an update most cells have converged, so the residual is
    # evaluated alone and a Jacobian only for the cells still iterating
    while rows.size:
        R, jac = residual(rows, jacobian=iters_max == 0)
        active = np.max(np.abs(R), axis=1) >= config.newton_tol
        rows, R = rows[active], R[active]
        if not rows.size:
            break
        if iters_max >= config.newton_max_iter:
            raise RuntimeError(
                f"Newton solve did not converge in cell {rows[0] + 1}: "
                f"residual {float(np.max(np.abs(R))):.3e}"
            )
        jac = residual(rows, jacobian=True)[1] if jac is None else jac[active]
        try:
            U_new[rows, 1:] -= np.linalg.solve(jac, R[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular Newton Jacobian in cell {rows[0] + 1}") from exc
        iters_total += rows.size
        iters_max += 1
    _check_finite(U_new, "implicit source")
    return _finalize(grid, U_new, dry_after, iters_total, iters_max)


_SQRT15_OVER5 = np.sqrt(15.0) / 5.0
_PATH_RULE = (
    np.array([0.5 * (1.0 - _SQRT15_OVER5), 0.5, 0.5 * (1.0 + _SQRT15_OVER5)]),
    np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
)
