"""Hyperbolic moment-system transport matrix, source vector, and wavespeeds."""

import math

import numpy as np

from .basis import MomentBasis

__all__ = [
    "system_matrix_batch",
    "source_batch",
    "linear_source_batch",
    "spectral_radius_batch",
    "wavespeeds_batch",
]


def system_matrix_batch(P: np.ndarray, eps: float, theta: float, basis: MomentBasis) -> np.ndarray:
    """Transport matrices for primitive rows (M, N+2) -> (M, N+2, N+2).

    The regularization keeps only alpha_1 couplings, so the matrix reads the
    basis's alpha_1 band A_il1, B_il1: moment row i has first column
    -2 u_m alpha_1 [i=1] - A_i11 alpha_1^2, second column 2 alpha_1 [i=1], and
    band entries u_m on the diagonal plus (2 A_il1 + B_il1) alpha_1 elsewhere
    (Koellermeier & Rominger, Commun. Comput. Phys. 2020).

    The result is the transposed view of an (N+2, N+2, M) buffer, so it is not
    C-contiguous: each entry is filled as one contiguous vector over the rows,
    with the operation order of an entry-by-entry build and so its bits.
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    m = basis.N + 2
    h, u_m, a1 = P[:, 0], P[:, 1], P[:, 2]
    A = np.zeros((m, m, M))
    A[0, 1] = 1.0
    A[1, 0] = eps * math.cos(theta) * h - u_m * u_m - a1 * a1 / 3.0
    A[1, 1] = 2.0 * u_m
    A[1, 2] = (2.0 / 3.0) * a1
    # the float sum, not its correctly rounded value: the two differ by an ulp
    # in some entries, and the mu(I) N=2 explicit state is chaotic at round-off
    coup = 2.0 * basis.A + basis.B  # (N, N), couples alpha_1
    A[2:, 0] = -basis.A[:, 0][:, None] * a1 * a1
    A[2, 0] -= 2.0 * u_m * a1
    A[2, 1] = 2.0 * a1
    A[2:, 2:] = coup[:, :, None] * a1
    diag = np.arange(2, m)
    A[diag, diag] += u_m
    return A.transpose(2, 0, 1)


def _friction_factors(N: int, theta: float) -> list:
    """-(2i+1) cos(theta), i = 0..N: the factor of tau_b (+ T_i for i >= 1)
    in velocity component i+1 of the friction source."""
    cos_t = math.cos(theta)
    return [-(2 * i + 1) * cos_t for i in range(N + 1)]


def source_split_batch(P: np.ndarray, model, eps: float, theta: float,
                       dbdx: np.ndarray, basis: MomentBasis) -> tuple:
    """Source rows of wet primitive rows (M, N+2), split as (drive, fric).

    The driving part holds gravity and topography: component 2 is
    sin(theta) h - cos(theta) eps h db/dx and the moment components are zero.
    The friction part holds the bottom stress and bulk friction, the
    velocity-damping (possibly stiff) contributions: component 2 is
    -cos(theta) tau_b and moment component i+2 is -(2i+1) cos(theta)(tau_b + T_i).
    Component 1 is zero in both; the free surface carries no stress.
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    N = basis.N
    tau_b, T = model.stresses(P, basis)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    topo = eps * P[:, 0] * np.asarray(dbdx, dtype=float)
    drive = np.zeros((M, N + 2))
    fric = np.zeros((M, N + 2))
    drive[:, 1] = sin_t * P[:, 0] - cos_t * topo
    factors = _friction_factors(N, theta)
    fric[:, 1] = factors[0] * tau_b
    for i in range(1, N + 1):
        fric[:, i + 1] = factors[i] * (tau_b + T[:, i - 1])
    return drive, fric


def linear_source_batch(h: np.ndarray, dbdx: np.ndarray, model, eps: float, theta: float,
                        basis: MomentBasis) -> tuple:
    """The source of a model that is linear_in_velocity as S(v) = d + K v in
    the velocity components v = (u_m, alpha_1..alpha_N) of wet rows of depth
    h (M,): the drive d (M, N+1) and the friction matrix K (M, N+1, N+1).

    A linear law vanishes at v = 0, so the friction part of
    source_split_batch at the unit velocity e_k is column k of K. One call
    evaluates the N+1 blocks of rows (h, e_k); the drive does not depend on v,
    and d is that of the first block.
    """
    M, n = len(h), basis.N + 1
    P = np.zeros((n, M, n + 1))
    P[:, :, 0] = h
    P[np.arange(n), :, 1 + np.arange(n)] = 1.0
    drive, fric = source_split_batch(P.reshape(n * M, n + 1), model, eps, theta,
                                     np.tile(dbdx, n), basis)
    return drive[:M, 1:], fric.reshape(n, M, n + 1)[:, :, 1:].transpose(1, 2, 0)


def source_batch(P: np.ndarray, model, eps: float, theta: float, dbdx: np.ndarray,
                 basis: MomentBasis) -> np.ndarray:
    """Source rows for wet primitive rows (M, N+2) -> (M, N+2): the sum of
    the two parts of source_split_batch."""
    drive, fric = source_split_batch(P, model, eps, theta, dbdx, basis)
    return drive + fric


def wavespeeds_batch(P: np.ndarray, eps: float, theta: float, basis: MomentBasis) -> np.ndarray:
    """Largest |eigenvalue| of the transport matrix per row. If the eigen-solve
    fails, the closed form spectral_radius_batch of the whole batch."""
    P = np.asarray(P, dtype=float)
    try:
        return np.max(np.abs(np.linalg.eigvals(system_matrix_batch(P, eps, theta, basis))), axis=-1)
    except np.linalg.LinAlgError:
        return spectral_radius_batch(P, eps, theta)


def spectral_radius_batch(P: np.ndarray, eps: float, theta: float) -> np.ndarray:
    """Closed-form spectral radius |u_m| + sqrt(eps cos(theta) h + alpha_1^2) per row.

    The regularized matrix has eigenvalues u_m +- sqrt(eps cos(theta) h + alpha_1^2)
    and u_m + c_i alpha_1 with |c_i| < 1 (Koellermeier & Rominger, 2020), so the
    outer pair bounds the spectrum. Agrees with wavespeeds_batch to round-off.
    """
    P = np.asarray(P, dtype=float)
    return np.abs(P[:, 1]) + np.sqrt(eps * math.cos(theta) * P[:, 0] + P[:, 2] * P[:, 2])

