"""Shifted Legendre basis on [0,1]: polynomials, coupling tensors, quadrature rules."""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm
from operator import mul

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


def _phi_ints(j: int) -> list[int]:
    """Integer monomial coefficients of phi_j(z) = P_j(1 - 2z), ascending powers:
    the z^k coefficient is (-1)^k C(j,k) C(j+k,k)."""
    return [(-1) ** k * comb(j, k) * comb(j + k, k) for k in range(j + 1)]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for a, ca in enumerate(p):
        for b, cb in enumerate(q):
            out[a + b] += ca * cb
    return out


def _weighted_moments(p: list[int], w: list[int], n: int) -> list[int]:
    """v_b = sum_a p_a w_(a+b) for b < n: with w_m = L / (m+1), v_b is
    L * int_0^1 p(z) z^b dz, so L * int_0^1 p q = sum_b q_b v_b."""
    return [sum(c * w[a + b] for a, c in enumerate(p)) for b in range(n)]


def _dot(q: list[int], v: list[int]) -> int:
    return sum(map(mul, q, v))


@dataclass(frozen=True)
class MomentBasis:
    """Precomputed basis data for a moment order N.

    phi/dphi hold monomial coefficients row-wise (row j-1 for phi_j, ascending
    powers, zero padded). A and B are the rank-3 coupling tensors, C the
    derivative Gram matrix; all exact-rational results stored as floats.
    """

    N: int
    phi: np.ndarray  # (N, N+1)
    dphi: np.ndarray  # (N, N)
    A: np.ndarray  # (N, N, N)
    B: np.ndarray  # (N, N, N)
    C: np.ndarray  # (N, N)


def build_basis(N: int) -> MomentBasis:
    """Build the order-N basis with exact tensor integration.

    A_ijk = (2i+1) int phi_i phi_j phi_k, B_ijk = (2i+1) int phi_i' (int_0^z phi_j) phi_k,
    C_ij = int phi_i' phi_j', all over [0,1].

    Every integrand is an integer polynomial of degree <= 3N, so L = lcm(1..3N+1)
    times its integral is an integer. Each entry is one exact integer ratio,
    rounded once to the nearest float (Python's int / int is correctly
    rounded), so any exact evaluation order gives the same bits. B uses
    int_0^z phi_j = (phi_(j-1) - phi_(j+1)) / (2(2j+1)).
    """
    if not isinstance(N, int) or N < 1 or N > MAX_ORDER:
        raise ValueError(f"moment order must be an integer in [1, {MAX_ORDER}], got {N}")
    phis = [_phi_ints(j) for j in range(N + 2)]
    dphis = [[m * c for m, c in enumerate(p)][1:] for p in phis[1:N + 1]]
    L = lcm(*range(1, 3 * N + 2))
    w = [L // (m + 1) for m in range(3 * N + 1)]
    # phi_a phi_k for a = 0..N+1 and k = 1..N, each product formed once
    pair = {}
    for a in range(N + 2):
        for k in range(1, N + 1):
            pair[a, k] = pair[k, a] if (k, a) in pair else _poly_mul(phis[a], phis[k])

    A = np.zeros((N, N, N))
    B = np.zeros((N, N, N))
    C = np.zeros((N, N))
    for i in range(1, N + 1):
        s = 2 * i + 1
        v = _weighted_moments(phis[i], w, 2 * N + 1)
        dv = _weighted_moments(dphis[i - 1], w, 2 * N + 2)
        for j in range(1, N + 1):
            for k in range(j, N + 1):
                A[i - 1, j - 1, k - 1] = A[i - 1, k - 1, j - 1] = s * _dot(pair[j, k], v) / L
        # L * int phi_i' phi_a phi_k, for B_ijk with a = j-1 and a = j+1
        inner = {key: _dot(q, dv) for key, q in pair.items()}
        for j in range(1, N + 1):
            den = 2 * (2 * j + 1) * L
            for k in range(1, N + 1):
                B[i - 1, j - 1, k - 1] = s * (inner[j - 1, k] - inner[j + 1, k]) / den
            C[i - 1, j - 1] = _dot(dphis[j - 1], dv) / L

    phi_arr = np.zeros((N, N + 1))
    dphi_arr = np.zeros((N, N))
    for r in range(N):
        phi_arr[r, : r + 2] = phis[r + 1]
        dphi_arr[r, : r + 1] = dphis[r]
    return MomentBasis(N=N, phi=phi_arr, dphi=dphi_arr, A=A, B=B, C=C)


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


def _check_eval_args(basis: MomentBasis, j: int, zeta) -> None:
    if not 1 <= j <= basis.N:
        raise ValueError(f"basis index must be in [1, {basis.N}], got {j}")
    z = np.asarray(zeta)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("evaluation point must lie in [0, 1]")


def eval_phi(basis: MomentBasis, j: int, zeta):
    """Evaluate phi_j at zeta in [0,1] (scalar or array) by Horner's rule."""
    _check_eval_args(basis, j, zeta)
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
    """Legendre P_k and P_k' on [-1,1] by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    if k == 0:
        return p_prev, np.zeros_like(x)
    for n in range(1, k):
        p_next = ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        p_prev, p = p, p_next
    dp = k * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def _gauss_cached(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if not isinstance(k, int) or k < 1 or k > MAX_GAUSS_POINTS:
        raise ValueError(f"point count must be an integer in [1, {MAX_GAUSS_POINTS}], got {k}")
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
    nodes, weights = _gauss_cached(k)
    return np.array(nodes), np.array(weights)
