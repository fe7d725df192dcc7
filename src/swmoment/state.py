"""Conservative/primitive state conversion, desingularization, dryness classification."""

import numpy as np

__all__ = [
    "to_primitive",
    "to_conservative",
    "is_dry",
    "desingularization_factor",
    "desingularized_velocity",
]


def is_dry(h, h_min: float):
    """A cell is dry iff h <= h_min (boundary included). Works elementwise."""
    return np.asarray(h) <= h_min


def _desingularization_terms(h: np.ndarray, h_min: float) -> tuple:
    """Numerator 2h and denominator h^2 + max(h^2, h_min) of the
    desingularization factor, elementwise."""
    return 2.0 * h, h * h + np.maximum(h * h, h_min)


def desingularization_factor(h, h_min: float) -> np.ndarray:
    """kappa(h) = 2h / (h^2 + max(h^2, h_min)), the factor to_primitive
    applies to each conservative velocity of a wet row: d v / d(h v) at fixed h.
    It is 1/h for h >= sqrt(h_min)."""
    two_h, den = _desingularization_terms(np.asarray(h, dtype=float), h_min)
    return two_h / den


def desingularized_velocity(h, hv, h_min: float):
    """Recover v from h*v as 2h*(hv)/(h^2 + max(h^2, h_min)).

    Equals exact division for h >= sqrt(h_min) and stays bounded for any h >= 0.
    """
    h = np.asarray(h, dtype=float)
    return 2.0 * h * np.asarray(hv, dtype=float) / (h * h + np.maximum(h * h, h_min))


def to_primitive(U, h_min: float) -> np.ndarray:
    """Map conservative rows (h, h*u_m, h*alpha_i) to primitive rows (h, u_m, alpha_i).

    Velocities are desingularized; dry cells (h <= h_min) get zero velocities.
    """
    U = np.asarray(U, dtype=float)
    if not np.isfinite(U).all():
        raise ValueError("conservative state contains NaN or Inf")
    h = U[..., 0]
    P = np.empty_like(U)
    P[..., 0] = h
    # desingularized_velocity one component at a time, its row factors formed
    # once: the same operations in the same order, so the same bits, and 2-3x
    # faster than broadcasting the rows over the short component axis
    two_h, den = _desingularization_terms(h, h_min)
    for c in range(1, U.shape[-1]):
        v = P[..., c]
        np.multiply(two_h, U[..., c], out=v)
        np.divide(v, den, out=v)
    P[is_dry(h, h_min), 1:] = 0.0
    return P


def to_conservative(P) -> np.ndarray:
    """Map primitive rows (h, u_m, alpha_i) to conservative rows (h, h*u_m, h*alpha_i)."""
    P = np.asarray(P, dtype=float)
    if not np.all(np.isfinite(P)):
        raise ValueError("primitive state contains NaN or Inf")
    if np.any(P[..., 0] < 0.0):
        raise ValueError("negative height in primitive state")
    U = np.empty_like(P)
    U[..., 0] = P[..., 0]
    U[..., 1:] = P[..., 0][..., None] * P[..., 1:]
    return U
