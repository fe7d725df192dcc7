"""Path-conservative polynomial-viscosity finite-volume scheme with wet-dry fronts."""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import state
from .basis import MomentBasis
from .hswme import (
    linear_source_batch,
    source_batch,
    source_split_batch,
    spectral_radius_batch,
    system_matrix_batch,
    wavespeeds_batch,
)
from .state import desingularization_factor, is_dry, to_primitive

__all__ = [
    "Grid",
    "make_grid",
    "viscosity_matrix",
    "fluctuations",
    "cfl_dt",
    "step_explicit",
    "step_semi_implicit",
]


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of J cells with centres x.

    U holds the conservative rows (J, N+2), one per cell, and dbdx the cell
    slopes (J,). A row with h <= state.H_MIN is dry. stored, bool (J,), flags
    the cells the last step held at rest as dry, with zero momenta; the
    default None means none.
    The boundary is transmissive (waves exit freely): it has no ghost cells,
    and its two faces carry no fluctuation (see _transport).

    A grid is immutable: U and stored are made read-only, and a step returns
    a new grid. So primitive and dry() are computed once, on first read.
    """

    x: np.ndarray
    dx: float
    U: np.ndarray
    dbdx: np.ndarray
    stored: np.ndarray | None = None

    def __post_init__(self):
        J = self.J
        if not (np.ndim(self.U) == 2 and len(self.U) == J):
            raise ValueError(f"U must hold one row per cell, shape (J, N+2) with J = {J}; "
                             f"got {np.shape(self.U)}")
        if np.shape(self.dbdx) != (J,):
            raise ValueError(f"dbdx must hold one slope per cell, shape ({J},); "
                             f"got {np.shape(self.dbdx)}")
        if self.stored is None:
            object.__setattr__(self, "stored", np.zeros(J, dtype=bool))
        if not (isinstance(self.stored, np.ndarray) and self.stored.dtype == bool
                and self.stored.shape == (J,)):
            raise ValueError(f"stored must be a boolean array of shape ({J},), one "
                             f"flag per cell; got {np.shape(self.stored)}")
        self.U.flags.writeable = False
        self.stored.flags.writeable = False

    @property
    def J(self) -> int:
        return len(self.x)

    @cached_property
    def primitive(self) -> np.ndarray:
        """Primitive rows of every cell (read-only), with the bits of
        to_primitive(U). Only the rows of the _live_window of dry() are
        converted: every other row is dry or stored, and to_primitive gives
        such a row (h, 0, ..., 0). The conversion is elementwise per row, so a
        slice of it has the bits of converting the slice alone."""
        P = np.zeros_like(self.U)
        P[:, 0] = self.U[:, 0]
        window = _live_window(self.dry())
        P[window] = to_primitive(self.U[window])
        P.flags.writeable = False
        return P

    @cached_property
    def _dry(self) -> np.ndarray:
        dry = is_dry(self.U[:, 0]) | self.stored
        dry.flags.writeable = False
        return dry

    def dry(self) -> np.ndarray:
        """Dryness of every cell (read-only): h <= state.H_MIN, or stored."""
        return self._dry

    def interior(self) -> np.ndarray:
        """U itself; perfbench/gates.py reads the cells by this name."""
        return self.U


def make_grid(x_a: float, x_b: float, J: int, N: int, bed=None) -> Grid:
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

        # clipped, so the end faces lie in [x_a, x_b] and not one rounding outside
        left = np.maximum(x - 0.5 * dx, x_a)
        right = np.minimum(x + 0.5 * dx, x_b)
        dbdx = np.asarray(cell_slope(bed, left, right), dtype=float)
    return Grid(x=x, dx=dx, U=np.zeros((J, N + 2)), dbdx=dbdx)


# activation margin for rewetting: a dry cell turns wet only once its
# transported depth clears this multiple of state.H_MIN, while a wet cell
# dries at state.H_MIN itself. Sub-threshold interface-viscosity deposits
# then accumulate as stored mass (flagged in Grid.stored, held at rest)
# instead of creeping one cell per step, which arrests the spurious upslope
# tail a quasi-static draining front would otherwise pump out; resolved
# fronts deposit far above the margin and are unaffected.
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


def viscosity_matrix(A: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """Q = (dx / 2 dt) I + (dt / 2 dx) A^2 (works on a matrix or a batch)."""
    if not (0.0 < dx < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"dx and dt must be finite and positive, got dx={dx}, dt={dt}")
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[-1])
    return (dx / (2.0 * dt)) * eye + (dt / (2.0 * dx)) * (A @ A)


def fluctuations(U: np.ndarray, P: np.ndarray, dry: np.ndarray, dx: float, dt: float,
                 eps: float, theta: float, basis: MomentBasis) -> tuple[np.ndarray, np.ndarray]:
    """Left/right-going fluctuations (D_minus, D_plus) at the interfaces of
    consecutive rows: conservative U, their primitive rows P and dryness dry.

    D_plus + D_minus = A (U_R - U_L) with A the path-averaged matrix and the
    viscosity matrix Q splitting the jump. Inert (dry-dry) interfaces carry no
    fluctuations.
    """
    A, inert = _path_matrices(P, dry, eps, theta, basis)
    Q = viscosity_matrix(A, dx, dt)
    dU = U[1:] - U[:-1]
    inert = inert[:, None]
    D_minus = np.where(inert, 0.0, 0.5 * np.einsum("kij,kj->ki", A - Q, dU))
    D_plus = np.where(inert, 0.0, 0.5 * np.einsum("kij,kj->ki", A + Q, dU))
    return D_minus, D_plus


def cfl_dt(grid: Grid, config, basis: MomentBasis) -> float:
    """CFL time step cfl * dx / max wavespeed over the cells not grid.dry();
    inf if there are none (every interface is inert, nothing moves). config is
    the run's SimConfig."""
    wet = ~grid.dry()
    if not np.any(wet):
        return np.inf
    eps, theta = config.eps, config.theta
    P = grid.primitive[wet]
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
    """Transport-only predictor of the cells.

    Face f lies between cells f-1 and f, so the J+1 faces include the two
    boundary faces 0 and J. These carry no fluctuation: the transmissive
    boundary sees the boundary cell on both sides, a zero jump, and a
    consistent scheme has D(U, U) = 0. Only the faces and rows of the
    _live_window of grid.dry() are computed: outside it every fluctuation
    is exactly zero, and U - (dt/dx) 0 is U to the bit.
    """
    U_check = grid.U.copy()
    dry = grid.dry()
    window = _live_window(dry)
    if window.stop:
        U = grid.U[window]
        # the window's faces, its two end faces (zero) included
        D_minus = np.zeros((U.shape[0] + 1, U.shape[1]))
        D_plus = np.zeros_like(D_minus)
        D_minus[1:-1], D_plus[1:-1] = fluctuations(
            U, grid.primitive[window], dry[window], grid.dx, dt, eps, theta, basis)
        U_check[window] = U - (dt / grid.dx) * (D_plus[:-1] + D_minus[1:])
    return U_check


def _dry_after_transport(U_check: np.ndarray, was_dry: np.ndarray) -> np.ndarray:
    """Dryness of the post-transport state with the rewetting margin."""
    h_check = U_check[:, 0]
    dry = is_dry(h_check)
    dry |= was_dry & (h_check <= WETTING_HYSTERESIS * state.H_MIN)
    return dry


def _finalize(grid: Grid, U_new: np.ndarray, dry_after: np.ndarray,
              iters_total: int = 0, iters_max: int = 0) -> tuple[Grid, dict]:
    """The grid after a step to the states U_new, which this takes over and
    edits in place, and the step's info: the dry_after cells keep their
    transported depth at rest and are flagged stored; clamp negatives."""
    U_new[dry_after, 1:] = 0.0
    clamped = 0.0
    negative = U_new[:, 0] < 0.0
    if np.any(negative):
        clamped = float(-np.sum(U_new[negative, 0]))
        U_new[negative, 0] = 0.0
    return replace(grid, U=U_new, stored=dry_after), {
        "dry_cells": int(np.sum(dry_after)), "clamped_mass": clamped,
        "newton_iters_total": iters_total, "newton_iters_max": iters_max}


def _check_finite(U: np.ndarray, stage: str) -> None:
    # the whole-array test is the fast path; the per-row mask only names the cell
    if np.isfinite(U).all():
        return
    j = int(np.argmax(~np.all(np.isfinite(U), axis=1)))
    raise RuntimeError(f"non-finite state after {stage} in cell {j + 1}")


def _predict(grid: Grid, dt: float, eps: float, theta: float,
             basis: MomentBasis) -> tuple[np.ndarray, np.ndarray]:
    """The transport predictor of both steppers: the states after _transport
    and their dryness with the rewetting margin. Rejects a dt that is not
    finite and positive, and a non-finite input or predictor."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"time step dt must be finite and positive, got {dt}")
    _check_finite(grid.U, "input")
    U_check = _transport(grid, dt, eps, theta, basis)
    _check_finite(U_check, "transport")
    return U_check, _dry_after_transport(U_check, grid.dry())


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
    S_drive, S_fric = source_split_batch(P, model, eps, theta, dbdx, basis)
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
    U_check, dry_after = _predict(grid, dt, eps, theta, basis)
    apply_src = ~grid.dry() & ~dry_after
    U_new = U_check.copy()
    if np.any(apply_src):
        S = _limited_source(grid.primitive[apply_src], dt, model, eps, theta,
                            grid.dbdx[apply_src], basis)
        U_new[apply_src] += dt * S
    _check_finite(U_new, "source")
    return _finalize(grid, U_new, dry_after)


# relative central-difference step of the Newton Jacobian: the step for a
# row's component v is FD_EPS * max(1, |v|)
FD_EPS = 1e-7
# a cell converges once each component of its residual is below NEWTON_TOL;
# one still iterating after NEWTON_MAX_ITER updates aborts the step
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 50


def _fd_jacobian(residual, V: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian (k, n, n) of a residual in the n = N+1
    velocity components of the conservative rows V (k, N+2). The n forward
    and then the n backward copies of V go to residual in one call, which
    returns their residuals (2n k, n)."""
    n = V.shape[1] - 1
    step = FD_EPS * np.maximum(1.0, np.abs(V[:, 1:]))
    cols = np.arange(n)
    batch = np.repeat(V[None], 2 * n, axis=0)
    batch[cols, :, 1 + cols] += step.T
    batch[n + cols, :, 1 + cols] -= step.T
    R = residual(batch.reshape(-1, n + 1)).reshape(2 * n, len(V), n)
    return ((R[:n] - R[n:]) / (2.0 * step.T)[:, :, None]).transpose(1, 2, 0)


def _linear_source_solve(U_new: np.ndarray, rows: np.ndarray, dt: float, dbdx: np.ndarray,
                        model, eps: float, theta: float, basis: MomentBasis) -> tuple[int, int]:
    """Backward Euler of the source of a model that is linear_in_velocity in
    the wet cells rows of U_new, in place, as one batched linear solve.

    With S = d + K v (linear_source_batch) and v = kappa(h) q, kappa the
    desingularization factor of to_primitive, the step q = q_check + dt S
    in the velocity components q = (h u_m, h alpha) is
    (I - dt kappa K) q = q_check + dt d. Returns the info's Newton counts:
    one update per row.
    """
    if not rows.size:
        return 0, 0
    h = U_new[rows, 0]
    d, K = linear_source_batch(h, dbdx[rows], model, eps, theta, basis)
    if not (np.isfinite(d).all() and np.isfinite(K).all()):
        bad = ~(np.isfinite(d).all(axis=1) & np.isfinite(K).all(axis=(1, 2)))
        raise RuntimeError(f"non-finite linear source in cell {rows[np.argmax(bad)] + 1}")
    scale = dt * desingularization_factor(h)
    jac = np.eye(K.shape[1]) - scale[:, None, None] * K
    rhs = U_new[rows, 1:] + dt * d
    try:
        U_new[rows, 1:] = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular Newton Jacobian in cell {rows[0] + 1}") from exc
    return rows.size, 1


def _newton_source_solve(U_new: np.ndarray, U_check: np.ndarray, rows: np.ndarray, dt: float,
                         dbdx: np.ndarray, model, eps: float, theta: float,
                         basis: MomentBasis) -> tuple[int, int]:
    """Newton iteration of U = U_check + dt S(U) in the wet cells rows of
    U_new, in place, with the Jacobian of _fd_jacobian. A cell stops once its
    residual is below NEWTON_TOL. Returns the info's Newton counts: the
    updates summed over cells, and the most any cell took."""
    n = U_new.shape[1] - 1
    iters_total = 0
    iters_max = 0

    def residual(V: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """V - U_check - dt S(V) in the velocity components of the states V
        of the cells, from one source call."""
        S = source_batch(to_primitive(V), model, eps, theta, dbdx[cells], basis)
        return (V - U_check[cells] - dt * S)[:, 1:]

    while rows.size:
        R = residual(U_new[rows], rows)
        err = np.max(np.abs(R), axis=1)
        # only a residual below NEWTON_TOL converges: a NaN one iterates on
        active = ~(err < NEWTON_TOL)
        rows, R, err = rows[active], R[active], err[active]
        if not rows.size:
            break
        worst = int(np.argmax(err))  # the first NaN, if any
        if iters_max >= NEWTON_MAX_ITER or not np.isfinite(err[worst]):
            raise RuntimeError(f"Newton solve did not converge in cell {rows[worst] + 1} "
                               f"after {iters_max} updates: residual {err[worst]:.3e}")
        jac = _fd_jacobian(lambda batch: residual(batch, np.tile(rows, 2 * n)), U_new[rows])
        try:
            U_new[rows, 1:] -= np.linalg.solve(jac, R[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular Newton Jacobian in cell {rows[0] + 1}") from exc
        iters_total += rows.size
        iters_max += 1
    return iters_total, iters_max


def step_semi_implicit(grid: Grid, dt: float, model, basis: MomentBasis,
                       config) -> tuple[Grid, dict]:
    """Splitting step: explicit transport predictor, then a per-cell implicit
    source solve U = U_check + dt S(U). The depth keeps its transported value
    (the source does not change it), so the unknowns are the N+1 velocity
    components; cells dry after transport skip the solve. A model that is
    linear_in_velocity makes it one linear solve (_linear_source_solve); any
    other model iterates Newton (_newton_source_solve). config is the run's
    SimConfig (eps, theta)."""
    eps, theta = config.eps, config.theta
    U_check, dry_after = _predict(grid, dt, eps, theta, basis)
    U_new = U_check.copy()
    rows = np.flatnonzero(~dry_after)
    if model.linear_in_velocity:
        iters = _linear_source_solve(U_new, rows, dt, grid.dbdx, model, eps, theta, basis)
    else:
        iters = _newton_source_solve(U_new, U_check, rows, dt, grid.dbdx, model, eps, theta, basis)
    _check_finite(U_new, "implicit source")
    return _finalize(grid, U_new, dry_after, *iters)


_SQRT15_OVER5 = np.sqrt(15.0) / 5.0
_PATH_RULE = (
    np.array([0.5 * (1.0 - _SQRT15_OVER5), 0.5, 0.5 * (1.0 + _SQRT15_OVER5)]),
    np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
)
