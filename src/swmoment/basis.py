"""Shifted Legendre basis on [0,1]: polynomials, the alpha_1 coupling band, quadrature rules."""

import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "MomentBasis",
    "build_basis",
    "eval_phi",
    "eval_dphi",
    "reconstruct_velocity",
    "bottom_velocity",
    "gauss_rule",
]

MAX_ORDER = 12
# the most points gauss_rule gives
MAX_GAUSS_POINTS = 64


def _check_int(what: str, value, lo: int, hi: int) -> int:
    """value as an int in [lo, hi]; a numpy integer is one too, a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _phi_ints(j: int) -> list[int]:
    """Integer monomial coefficients of phi_j(z) = P_j(1 - 2z), ascending powers:
    the z^k coefficient is (-1)^k C(j,k) C(j+k,k)."""
    return [(-1) ** k * comb(j, k) * comb(j + k, k) for k in range(j + 1)]


@dataclass(frozen=True)
class MomentBasis:
    """Precomputed basis data for a moment order N.

    phi/dphi hold monomial coefficients row-wise (row j-1 for phi_j, ascending
    powers, zero padded). A and B are the alpha_1 slices A_ij1 and B_ij1 of the
    coupling tensors, the only ones the regularized system reads; C is the
    derivative Gram matrix. Every entry is a ratio of integers rounded once.
    """

    N: int
    phi: np.ndarray  # (N, N+1)
    dphi: np.ndarray  # (N, N)
    A: np.ndarray  # (N, N): A_ij1
    B: np.ndarray  # (N, N): B_ij1
    C: np.ndarray  # (N, N)


def build_basis(N: int) -> MomentBasis:
    """Build the order-N basis; A, B and C in closed form.

    A_ij1 = (2i+1) int phi_i phi_j phi_1, B_ij1 = (2i+1) int phi_i' (int_0^z phi_j) phi_1,
    C_ij = int phi_i' phi_j', all over [0,1]. The Legendre recurrence
    phi_1 phi_j = ((j+1) phi_(j+1) + j phi_(j-1)) / (2j+1) and orthogonality
    (int phi_i phi_j = delta_ij / (2i+1)) leave A_ij1 = (j+1)/(2j+1) at
    i = j+1 and j/(2j+1) at i = j-1. One integration by parts, with
    int_0^z phi_j = (phi_(j-1) - phi_(j+1)) / (2(2j+1)), gives
    B_ij1 = -A_ij1 + (delta_(i,j-1) - delta_(i,j+1)) / (2j+1). C_ij is
    2m(m+1) with m = min(i, j) when i+j is even, else 0. Each entry is one
    integer ratio, correctly rounded by Python's int / int, so it has the
    bits of any exact build; the zeros are +0.0.
    """
    N = _check_int("moment order", N, 1, MAX_ORDER)
    phi, dphi = np.zeros((N, N + 1)), np.zeros((N, N))
    A, B, C = np.zeros((N, N)), np.zeros((N, N)), np.zeros((N, N))
    for j in range(1, N + 1):
        p = _phi_ints(j)
        phi[j - 1, : j + 1] = p
        dphi[j - 1, :j] = [m * c for m, c in enumerate(p)][1:]
        s = 2 * j + 1
        if j < N:  # row i = j+1
            A[j, j - 1], B[j, j - 1] = (j + 1) / s, -(j + 2) / s
        if j > 1:  # row i = j-1
            A[j - 2, j - 1], B[j - 2, j - 1] = j / s, -(j - 1) / s
        for i in range(j, N + 1, 2):
            C[i - 1, j - 1] = C[j - 1, i - 1] = 2 * j * (j + 1)
    return MomentBasis(N=N, phi=phi, dphi=dphi, A=A, B=B, C=C)


def _horner(coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Horner's rule for each row of coeffs (n, d), ascending powers, at the
    points zeta (..., k): (..., n, k). Every value starts as 0 * z + c and
    runs through all d coefficients, so a row gets the same bits whatever
    the shape of zeta."""
    z = zeta[..., None, :]
    out = np.zeros(zeta.shape[:-1] + (coeffs.shape[0], zeta.shape[-1]))
    for c in coeffs[:, ::-1].T:
        out = out * z + c[:, None]
    return out


def _check_eval_args(basis: MomentBasis, j: int, zeta) -> int:
    j = _check_int("basis index", j, 1, basis.N)
    z = np.asarray(zeta)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("evaluation point must lie in [0, 1]")
    return j


def eval_phi(basis: MomentBasis, j: int, zeta):
    """Evaluate phi_j at zeta in [0,1] (scalar or array) by Horner's rule."""
    j = _check_eval_args(basis, j, zeta)
    return _horner(basis.phi[j - 1:j], np.asarray(zeta, dtype=float)[..., None])[..., 0, 0][()]


def eval_dphi(basis: MomentBasis, zeta: np.ndarray) -> np.ndarray:
    """phi_j'(zeta) of every j = 1..N by Horner's rule: (..., N, k) for the
    points zeta (..., k) in [0, 1]."""
    return _horner(basis.dphi, np.asarray(zeta, dtype=float))


def reconstruct_velocity(basis: MomentBasis, u_m: float, alpha, zeta):
    """Vertical velocity profile u_m + sum_j alpha_j phi_j(zeta).

    Summation runs j = 1..N left to right so that zeta = 0 yields exactly
    u_m + alpha_1 + ... + alpha_N.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-1] != basis.N:
        raise ValueError(f"expected {basis.N} moments, got {alpha.shape[-1]}")
    out = u_m
    for j in range(1, basis.N + 1):
        out = out + alpha[..., j - 1] * eval_phi(basis, j, zeta)
    return out


def bottom_velocity(P: np.ndarray) -> np.ndarray:
    """u(0) = u_m + alpha_1 + ... + alpha_N of primitive rows (..., N+2),
    summed left to right: the bits of reconstruct_velocity at zeta = 0."""
    out = P[..., 1].copy()
    for j in range(2, P.shape[-1]):
        out += P[..., j]
    return out


def _legendre_and_deriv(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre P_k and P_k' on [-1,1], k >= 1, by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(1, k):
        p_next = ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        p_prev, p = p, p_next
    dp = k * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def _gauss_cached(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if k == 1:
        return (0.5,), (1.0,)
    # Newton iteration from the Chebyshev-like initial guess, tolerance 1e-15.
    i = np.arange(1, k + 1)
    x = np.cos(np.pi * (i - 0.25) / (k + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_deriv(k, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_deriv(k, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = 0.5 * (1.0 - x)  # descending x maps to ascending nodes on [0,1]
    order = np.argsort(nodes)
    return tuple(nodes[order]), tuple((0.5 * w)[order])


def gauss_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-point Gauss-Legendre nodes and weights on [0,1], k in 1..MAX_GAUSS_POINTS."""
    nodes, weights = _gauss_cached(_check_int("point count", k, 1, MAX_GAUSS_POINTS))
    return np.array(nodes), np.array(weights)
