"""Hyperbolic moment-system transport matrix, source vector, and wavespeeds."""

import math

import numpy as np

from .basis import MomentBasis

__all__ = [
    "system_matrix",
    "system_matrix_batch",
    "source",
    "source_batch",
    "source_parts",
    "max_wavespeed",
    "spectral_radius_batch",
    "wavespeeds_batch",
    "equilibrium_residual",
]


def system_matrix_batch(P: np.ndarray, eps: float, theta: float, basis: MomentBasis) -> np.ndarray:
    """Transport matrices for primitive rows (M, N+2) -> (M, N+2, N+2).

    Built from the coupling tensors; the regularization keeps only alpha_1
    couplings, so moment row i has first column -2 u_m alpha_1 [i=1] - A_i11 alpha_1^2,
    second column 2 alpha_1 [i=1], and band entries u_m on the diagonal plus
    (2 A_il1 + B_il1) alpha_1 elsewhere.
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    m = basis.N + 2
    h, u_m, a1 = P[:, 0], P[:, 1], P[:, 2]
    A = np.zeros((M, m, m))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = eps * math.cos(theta) * h - u_m * u_m - a1 * a1 / 3.0
    A[:, 1, 1] = 2.0 * u_m
    A[:, 1, 2] = (2.0 / 3.0) * a1
    coup = 2.0 * basis.A[:, :, 0] + basis.B[:, :, 0]  # (N, N), couples alpha_1
    # whole-block assignments with each entry's operation order kept, so
    # every entry has the bits of an entry-by-entry build
    A[:, 2:, 0] = -basis.A[:, 0, 0] * a1[:, None] * a1[:, None]
    A[:, 2, 0] -= 2.0 * u_m * a1
    A[:, 2, 1] = 2.0 * a1
    A[:, 2:, 2:] = coup * a1[:, None, None]
    diag = np.arange(2, m)
    A[:, diag, diag] += u_m[:, None]
    return A


def system_matrix(P, eps: float, theta: float, basis: MomentBasis) -> np.ndarray:
    """Transport matrix of a single primitive state (h, u_m, alpha_1..alpha_N)."""
    P = np.asarray(P, dtype=float)
    return system_matrix_batch(P[None, :], eps, theta, basis)[0]


def source_batch(P: np.ndarray, model, theta: float, eps: float, dbdx: np.ndarray,
                 basis: MomentBasis, flip_topography_sign: bool = False) -> np.ndarray:
    """Source rows for wet primitive rows (M, N+2) -> (M, N+2).

    Component 1 is zero; component 2 is sin(theta) h + cos(theta)(tau_s - tau_b
    - eps h db/dx); moment component i+2 is (2i+1) cos(theta)((-1)^i tau_s
    - tau_b - T_i).
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    N = basis.N
    tau_b, tau_s, T = model.stresses(P, basis)
    tau_b = np.atleast_1d(np.asarray(tau_b, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    topo = eps * P[:, 0] * np.asarray(dbdx, dtype=float)
    if flip_topography_sign:
        topo = -topo
    S = np.zeros((M, N + 2))
    S[:, 1] = sin_t * P[:, 0] + cos_t * (tau_s - tau_b - topo)
    for i in range(1, N + 1):
        S[:, i + 1] = (2 * i + 1) * cos_t * (((-1) ** i) * tau_s - tau_b - T[:, i - 1])
    return S


def source(P, model, theta: float, eps: float, dbdx: float, basis: MomentBasis,
           flip_topography_sign: bool = False) -> np.ndarray:
    """Source vector of a single wet primitive state."""
    P = np.asarray(P, dtype=float)
    return source_batch(P[None, :], model, theta, eps, np.array([dbdx]), basis,
                        flip_topography_sign)[0]


def source_split_batch(P: np.ndarray, model, theta: float, eps: float,
                       dbdx: np.ndarray, basis: MomentBasis,
                       flip_topography_sign: bool = False) -> tuple:
    """Source split into driving and friction parts, summing to source_batch.

    The driving part holds gravity, surface stress and topography; the
    friction part holds the bottom stress and bulk friction rows, which are
    the velocity-damping (possibly stiff) contributions.
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    N = basis.N
    tau_b, tau_s, T = model.stresses(P, basis)
    tau_b = np.atleast_1d(np.asarray(tau_b, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    topo = eps * P[:, 0] * np.asarray(dbdx, dtype=float)
    if flip_topography_sign:
        topo = -topo
    drive = np.zeros((M, N + 2))
    fric = np.zeros((M, N + 2))
    drive[:, 1] = sin_t * P[:, 0] + cos_t * (tau_s - topo)
    fric[:, 1] = -cos_t * tau_b
    for i in range(1, N + 1):
        drive[:, i + 1] = (2 * i + 1) * cos_t * ((-1) ** i) * tau_s
        fric[:, i + 1] = -(2 * i + 1) * cos_t * (tau_b + T[:, i - 1])
    return drive, fric


def source_parts(P, model, theta: float, eps: float, dbdx: float, basis: MomentBasis) -> dict:
    """Additive decomposition of the source for diagnostics.

    The returned vectors (gravity, surface, bottom, bulk, topography) sum to
    source(P, ...) exactly.
    """
    P = np.asarray(P, dtype=float)
    N = basis.N
    tau_b, tau_s, T = model.stresses(P, basis)
    cos_t = math.cos(theta)
    grav = np.zeros(N + 2)
    grav[1] = math.sin(theta) * P[0]
    surface = np.zeros(N + 2)
    bottom = np.zeros(N + 2)
    bulk = np.zeros(N + 2)
    surface[1] = cos_t * tau_s
    bottom[1] = -cos_t * tau_b
    for i in range(1, N + 1):
        surface[i + 1] = (2 * i + 1) * cos_t * ((-1) ** i) * tau_s
        bottom[i + 1] = -(2 * i + 1) * cos_t * tau_b
        bulk[i + 1] = -(2 * i + 1) * cos_t * T[i - 1]
    topo = np.zeros(N + 2)
    topo[1] = -cos_t * eps * P[0] * dbdx
    return {"gravity": grav, "surface": surface, "bottom": bottom, "bulk": bulk,
            "topography": topo}


def _gershgorin(A: np.ndarray) -> np.ndarray:
    centers = np.abs(np.einsum("...ii->...i", A))
    radii = np.sum(np.abs(A), axis=-1) - np.abs(np.einsum("...ii->...i", A))
    return np.max(centers + radii, axis=-1)


def wavespeeds_batch(P: np.ndarray, eps: float, theta: float, basis: MomentBasis) -> np.ndarray:
    """Largest |eigenvalue| of the transport matrix per row; Gershgorin on solver failure."""
    A = system_matrix_batch(np.asarray(P, dtype=float), eps, theta, basis)
    try:
        return np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
    except np.linalg.LinAlgError:
        out = np.empty(A.shape[0])
        for i in range(A.shape[0]):
            try:
                out[i] = np.max(np.abs(np.linalg.eigvals(A[i])))
            except np.linalg.LinAlgError:
                out[i] = _gershgorin(A[i][None, :, :])[0]
        return out


def spectral_radius_batch(P: np.ndarray, eps: float, theta: float) -> np.ndarray:
    """Closed-form spectral radius |u_m| + sqrt(eps cos(theta) h + alpha_1^2) per row.

    The regularized matrix has eigenvalues u_m +- sqrt(eps cos(theta) h + alpha_1^2)
    and u_m + c_i alpha_1 with |c_i| < 1 (Koellermeier & Rominger, 2020), so the
    outer pair bounds the spectrum. Agrees with wavespeeds_batch to round-off.
    """
    P = np.asarray(P, dtype=float)
    return np.abs(P[:, 1]) + np.sqrt(eps * math.cos(theta) * P[:, 0] + P[:, 2] * P[:, 2])


def max_wavespeed(P, eps: float, theta: float, basis: MomentBasis) -> float:
    """Spectral radius of the transport matrix at one state (0 for a rest/dry state)."""
    P = np.asarray(P, dtype=float)
    return float(wavespeeds_batch(P[None, :], eps, theta, basis)[0])


def equilibrium_residual(P, model, theta: float, basis: MomentBasis) -> np.ndarray:
    """Residuals (h tan(theta) - tau_b, T_1 + tau_b, ..., T_N + tau_b).

    Zero exactly at a flat-bed, stress-free-surface equilibrium state.
    """
    P = np.asarray(P, dtype=float)
    tau_b, _, T = model.stresses(P, basis)
    T = np.atleast_1d(np.asarray(T, dtype=float))
    out = np.empty(basis.N + 1)
    out[0] = P[0] * math.tan(theta) - tau_b
    out[1:] = T + tau_b
    return out
