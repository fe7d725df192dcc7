"""Friction models: one bottom law composed with one bulk law.

A model is its bulk law (Newtonian, ConstantCoulomb, MuI) and carries a
bottom law (SlipBottom, ManningBottom, CoulombBottom, MuIBottom) as its
bottom_law field. Both consume primitive rows (h, u_m, alpha_1..alpha_N);
the model's `stresses` returns the bottom stress tau_b and the bulk terms
T_i = int_0^1 phi_i' tau dzeta of rows (M, N+2). The free surface carries no
stress. Callers must skip dry cells; heights must be positive here.

A law whose stress is linear in the velocity v = (u_m, alpha_1..alpha_N) at
fixed depth, and so zero at v = 0, says so with `linear = True`; the model's
linear_in_velocity holds when both of its laws are linear. Each law defines
its stress only: the implicit stage reads the source matrix of a linear model
off the stresses at unit velocities (hswme.linear_source_batch).
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import (MAX_GAUSS_POINTS, MomentBasis, _check_int, bottom_velocity, eval_dphi,
                    gauss_rule)

__all__ = [
    "Newtonian",
    "ConstantCoulomb",
    "MuI",
    "SlipBottom",
    "ManningBottom",
    "CoulombBottom",
    "MuIBottom",
    "muI_bulk_analytic_N1",
    "muI_bulk_quadrature",
    "savage_hutter_violations",
]


def _require_wet(h: np.ndarray) -> None:
    if np.any(h <= 0.0):
        raise ValueError("friction evaluated on a non-positive height; dry cells must be skipped")


@dataclass(frozen=True)
class SlipBottom:
    """Navier slip: tau_b = (nu / lam) u_b, with viscosity nu and slip length lam."""

    nu: float
    lam: float
    linear = True

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"slip length must be finite and positive, got {self.lam}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"viscosity must be finite and nonnegative, got {self.nu}")

    def stress(self, P: np.ndarray, basis: MomentBasis, model) -> np.ndarray:
        return (self.nu / self.lam) * bottom_velocity(P)


@dataclass(frozen=True)
class ManningBottom:
    """Manning: tau_b = n2 h^(-1/3) u_b |u_b|."""

    n2: float
    linear = False

    def __post_init__(self):
        if not 0.0 <= self.n2 < math.inf:
            raise ValueError(f"Manning factor must be finite and nonnegative, got {self.n2}")

    def stress(self, P: np.ndarray, basis: MomentBasis, model) -> np.ndarray:
        ub = bottom_velocity(P)
        return (self.n2 / np.cbrt(P[:, 0])) * ub * np.abs(ub)


@dataclass(frozen=True)
class CoulombBottom:
    """Coulomb bed friction at angle delta: tau_b = h tan(delta) sign(u_b)."""

    delta: float
    linear = False

    def __post_init__(self):
        if not 0.0 <= self.delta < math.pi / 2:
            raise ValueError("require 0 <= delta < pi/2")

    def stress(self, P: np.ndarray, basis: MomentBasis, model) -> np.ndarray:
        return P[:, 0] * np.sign(bottom_velocity(P)) * math.tan(self.delta)


@dataclass(frozen=True)
class MuIBottom:
    """Shear-rate-dependent granular bottom law, with the mu(I) coefficients
    (mu_s, mu_2, c_I) of the MuI model that carries it."""

    linear = False

    def stress(self, P: np.ndarray, basis: MomentBasis, model: "MuI") -> np.ndarray:
        h = P[:, 0]
        shear0 = P[:, 2:] @ basis.dphi[:, 0]  # d/dzeta u at zeta = 0
        rate = np.abs(shear0)
        mu = model.mu_s + (model.mu_2 - model.mu_s) * rate / (model.c_I * h**1.5 + rate)
        return mu * h * np.sign(shear0)


class _Friction:
    """A bulk law (the subclass's bulk_terms on wet rows) composed with the
    bottom law in its bottom_law field. A subclass whose bulk_terms is linear
    in v sets linear = True."""

    linear = False

    def stresses(self, P: np.ndarray, basis: MomentBasis):
        """(tau_b, T), shapes (M,) and (M, N), at wet primitive rows (M, N+2)."""
        _require_wet(P[:, 0])
        return self.bottom_law.stress(P, basis, self), self.bulk_terms(P, basis)

    @property
    def linear_in_velocity(self) -> bool:
        """Whether tau_b and T are both linear in v = (u_m, alpha) at fixed h."""
        return self.linear and self.bottom_law.linear


@dataclass(frozen=True)
class Newtonian(_Friction):
    """Newtonian interior of viscosity nu: T_i = (nu / h) sum_j C_ij alpha_j."""

    nu: float
    bottom_law: object
    linear = True

    def __post_init__(self):
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"viscosity must be finite and nonnegative, got {self.nu}")

    def bulk_terms(self, P: np.ndarray, basis: MomentBasis) -> np.ndarray:
        return (self.nu / P[:, 0])[:, None] * (P[:, 2:] @ basis.C.T)


@dataclass(frozen=True)
class ConstantCoulomb(_Friction):
    """Constant interior friction coefficient mu: T_i = -mu h (Savage-Hutter
    has mu = tan(phi_int))."""

    mu: float
    bottom_law: object

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"bulk friction coefficient must be finite and nonnegative, "
                             f"got {self.mu}")

    def bulk_terms(self, P: np.ndarray, basis: MomentBasis) -> np.ndarray:
        return np.broadcast_to((-self.mu * P[:, 0])[:, None], (P.shape[0], basis.N)).copy()


def _bracket_series(C1: np.ndarray) -> np.ndarray:
    # sum_{k>=0} (-1)^k C1^k / (k+4), absolutely convergent for C1 < 1;
    # 60 Horner terms leave < 1e-18 relative truncation at C1 = 0.5.
    out = np.zeros_like(C1)
    for k in range(59, -1, -1):
        out = 1.0 / (k + 4.0) - C1 * out
    return out


def _bracket(C1: np.ndarray) -> np.ndarray:
    """1/(3C) - 1/(2C^2) + 1/C^3 - log(1+C)/C^4, stable for all C > 0."""
    C1 = np.asarray(C1, dtype=float)
    small = C1 < 0.5
    safe = np.where(small, 1.0, C1)  # keep the direct branch free of divide warnings
    direct = 1.0 / (3.0 * safe) - 1.0 / (2.0 * safe * safe) + 1.0 / safe**3 - np.log1p(safe) / safe**4
    return np.where(small, _bracket_series(np.where(small, C1, 0.0)), direct)


def muI_bulk_analytic_N1(h, alpha_1, params: "MuI"):
    """Closed-form bulk term for a linear velocity profile.

    The closed form is that of an increasing profile (alpha_1 < 0); a
    decreasing one (alpha_1 > 0) gets its negative, by the exact oddness of
    the bulk integral in alpha_1. Returns the large-C1 limit -h*mu_s (negated
    for alpha_1 > 0) when |alpha_1| < 1e-12 * c_I * h^(3/2), and 0 at exactly
    alpha_1 = 0 (zero shear, sign convention sgn(0) = 0).
    """
    h = np.asarray(h, dtype=float)
    alpha_1 = np.asarray(alpha_1, dtype=float)
    _require_wet(h)
    a = np.abs(alpha_1)
    scale = params.c_I * h**1.5
    tiny = a < 1e-12 * scale
    C1 = scale / np.where(tiny, 1.0, 2.0 * a)
    T1 = -h * params.mu_s - 4.0 * h * (params.mu_2 - params.mu_s) * _bracket(C1)
    T1 = np.where(tiny, -h * params.mu_s, T1)
    return np.where(alpha_1 == 0.0, 0.0, np.where(alpha_1 > 0.0, -T1, T1))[()]


def _stable_G(A: float, B: float, C: float) -> float:
    """int_0^1 dxi / (A xi^2 - C xi + B) for a quadratic with no root in [0,1]."""
    D = C * C - 4.0 * A * B
    w = (2.0 * B - C) / (2.0 * A)
    tau = D / ((2.0 * B - C) ** 2)
    if abs(tau) < 0.25:
        # merged arctan/artanh series around the degenerate discriminant
        s, t, k = 0.0, 1.0, 0
        while k == 0 or abs(t) / (2 * k + 1) > 1e-18 * abs(s):
            s += t / (2 * k + 1)
            t *= tau
            k += 1
            if k > 300:
                break
        return s / (A * w)
    if D < 0.0:
        a = math.sqrt(-D) / (2.0 * abs(A))
        val = math.atan(a / w)
        if w < 0.0:
            val += math.pi
        return val / (A * a)
    b = math.sqrt(D) / (2.0 * abs(A))
    if b < abs(w):
        return math.atanh(b / w) / (A * b)
    return 0.5 * math.log1p(2.0 * w / (b - w)) / (A * b)


def _rational_integral(p: list[float], A: float, B: float, C: float, G: float, L: float) -> float:
    """int_0^1 P(xi) / (A xi^2 - C xi + B) dxi by synthetic division, given
    G = _stable_G(A, B, C) and L = log|(A - C + B) / B|."""
    p = list(p)
    n = len(p) - 1
    quotient = [0.0] * max(n - 1, 0)
    while n >= 2:
        c = p[n] / A
        quotient[n - 2] = c
        p[n] = 0.0
        p[n - 1] += C * c
        p[n - 2] -= B * c
        n -= 1
    r1 = p[1] if len(p) > 1 else 0.0
    r0 = p[0]
    poly_part = sum(c / (k + 1.0) for k, c in enumerate(quotient))
    log_part = (r1 / (2.0 * A)) * L
    return poly_part + log_part + (r0 + r1 * C / (2.0 * A)) * G


def _closed_form_conditioned(A, B, C):
    """Where the case-one closed form is accurate, elementwise: below
    |A| = 0.5 max(|B|, C) its division by A amplifies rounding up to ~1e11."""
    return (np.abs(A) >= 0.5 * np.maximum(np.abs(B), C)) & (np.abs(B) >= 1e-8 * np.maximum(np.abs(A), C))


def _case_one_closed_form(h: float, A: float, B: float, C: float, params: "MuI") -> tuple[float, float]:
    """Rational closed form of (T_1, T_2) for a single-signed increasing profile."""
    G = _stable_G(A, B, C)
    L = math.log(abs((A - C + B) / B))
    J1 = _rational_integral([0.0, 0.0, 0.0, B, 0.0, A], A, B, C, G, L)
    J2 = _rational_integral([0.0, 0.0, 0.0, -B, 0.0, 2.0 * B - A, 0.0, 2.0 * A], A, B, C, G, L)
    dmu = params.mu_2 - params.mu_s
    return (-h * params.mu_s - 4.0 * h * dmu * J1, -h * params.mu_s - 12.0 * h * dmu * J2)


def _split_quadrature(h: np.ndarray, alpha: np.ndarray, zeta_star: np.ndarray, params: "MuI",
                      basis: MomentBasis) -> np.ndarray:
    """N=2 bulk quadrature of rows whose shear changes sign at 0 < zeta_star < 1.

    Each row is integrated on [0, xi*] and [xi*, 1] with xi* = sqrt(1 - zeta_star),
    max(quad_points, 16) Gauss nodes per subinterval.
    """
    xi, w = gauss_rule(max(params.quad_points, 16))
    xi_star = np.sqrt(1.0 - zeta_star)
    lo = np.concatenate([np.zeros_like(xi_star), xi_star])[:, None]
    hi = np.concatenate([xi_star, np.ones_like(xi_star)])[:, None]
    T = _bulk_quadrature_core(np.concatenate([h, h]), np.concatenate([alpha, alpha]), params,
                              basis, lo + (hi - lo) * xi, (hi - lo) * w)
    return T[:len(h)] + T[len(h):]


def _muI_bulk_N2(h: np.ndarray, alpha: np.ndarray, params: "MuI", basis: MomentBasis) -> np.ndarray:
    """Bulk terms (T_1, T_2) of quadratic-profile rows h (M,), alpha (M, 2).

    Rows are sorted by array masks on the shear's root zeta*. A single-signed
    increasing profile takes the rational closed form where it is
    well-conditioned (_closed_form_conditioned) and 32-point quadrature
    otherwise; an interior shear sign change is integrated per subinterval,
    split at zeta*; every other row takes plain quadrature. Each quadrature
    regime is integrated in one batch. Only the closed form runs per row, on
    Python floats: it rests on scalar `** 1.5`, `math.atan` and `math.log1p`,
    which can differ from numpy's array loops in the last bit.
    """
    a1, a2 = alpha[:, 0], alpha[:, 1]
    flat = a2 == 0.0
    zeta_star = 0.5 * (1.0 + a1 / (3.0 * np.where(flat, 1.0, a2)))
    case_one = ~flat & (((a2 > 0.0) & (zeta_star <= 0.0)) | ((a2 < 0.0) & (zeta_star >= 1.0)))
    split = ~flat & ~case_one & (0.0 < zeta_star) & (zeta_star < 1.0)
    plain = ~(case_one | split)
    T = np.empty((len(h), 2))
    if np.any(split):
        T[split] = _split_quadrature(h[split], alpha[split], zeta_star[split], params, basis)
    if np.any(plain):
        T[plain] = muI_bulk_quadrature(h[plain], alpha[plain], params, basis)
    one = np.flatnonzero(case_one)
    A = 12.0 * a2[one]
    B = 2.0 * a1[one] - 6.0 * a2[one]
    C = params.c_I * np.array([x**1.5 for x in h[one].tolist()])
    closed = _closed_form_conditioned(A, B, C)
    ill = one[~closed]
    if ill.size:
        T[ill] = muI_bulk_quadrature(h[ill], alpha[ill], params, basis, points=32)
    if np.any(closed):
        rows = zip(*(x[closed].tolist() for x in (h[one], A, B, C)))
        T[one[closed]] = [_case_one_closed_form(*row, params) for row in rows]
    return T


def _bulk_quadrature_core(h: np.ndarray, alpha: np.ndarray, params: "MuI",
                          basis: MomentBasis, xi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bulk quadrature of rows h (M,), alpha (M, N) on nodes shared (k,) or per row (M, k).

    Both contractions are stacked one-row matmuls, which run the same kernel
    for every row whatever M is, so a row gets the same bits alone as in any
    batch (a 2-D matmul over rows or einsum would not).
    """
    dphi = eval_dphi(basis, 1.0 - xi * xi)  # (N, k) or (M, N, k)
    shear = (alpha[:, None, :] @ dphi)[:, 0, :]  # (M, k)
    rate = np.abs(shear)
    denom = (params.c_I * h**1.5)[:, None] * xi + rate
    mu = params.mu_s + (params.mu_2 - params.mu_s) * rate / denom
    # d zeta = -2 xi d xi and (1 - zeta) = xi^2; orientation flip absorbed
    weight = w * 2.0 * xi**3
    integrand = mu * np.sign(shear) * weight
    return h[:, None] * (integrand[:, None, :] @ np.swapaxes(dphi, -1, -2))[:, 0, :]


def muI_bulk_quadrature(h: np.ndarray, alpha: np.ndarray, params: "MuI", basis: MomentBasis,
                        points: int | None = None) -> np.ndarray:
    """Gauss-Legendre approximation of the granular bulk integral of rows
    h (M,), alpha (M, N): T of shape (M, N).

    The integral is evaluated in the substituted variable xi = sqrt(1 - zeta),
    which removes the square-root endpoint singularity of the integrand's
    denominator (measured: 8 points reach ~4e-8 relative accuracy vs ~7e-6 in
    the unsubstituted variable). sgn(0) = 0 inside the integrand.
    """
    if points is None:
        points = params.quad_points
    if points < 2:
        raise ValueError("bulk quadrature needs at least 2 points")
    _require_wet(h)
    xi, w = gauss_rule(points)
    return _bulk_quadrature_core(h, alpha, params, basis, xi, w)


@dataclass(frozen=True)
class MuI(_Friction):
    """Granular friction with an inertial-number-dependent coefficient.

    The friction coefficient interpolates between mu_s and mu_2 with the local
    shear rate; c_I collects the dimensionless inertial scaling. The bulk uses
    the closed form at N=1, the regimes of _muI_bulk_N2 at N=2 (quadrature
    rows batched, closed-form rows per cell) and quad_points-node quadrature
    above, quad_points an integer in [2, MAX_GAUSS_POINTS]. Each row of
    bulk_terms has the bits it would have if evaluated alone.
    """

    mu_s: float
    mu_2: float
    c_I: float
    bottom_law: object
    quad_points: int = 32

    def __post_init__(self):
        if not 0.0 < self.mu_s < self.mu_2 < math.inf:
            raise ValueError(f"require 0 < mu_s < mu_2 < inf, got {self.mu_s} and {self.mu_2}")
        if not 0.0 < self.c_I < math.inf:
            raise ValueError(f"c_I must be finite and positive, got {self.c_I}")
        object.__setattr__(self, "quad_points",
                           _check_int("quad_points", self.quad_points, 2, MAX_GAUSS_POINTS))

    def bulk_terms(self, P: np.ndarray, basis: MomentBasis) -> np.ndarray:
        h = P[:, 0]
        alpha = P[:, 2:]
        if basis.N == 1:
            return muI_bulk_analytic_N1(h, alpha[:, 0], self)[:, None]
        if basis.N == 2:
            return _muI_bulk_N2(h, alpha, self, basis)
        return muI_bulk_quadrature(h, alpha, self, basis)

    def stresses(self, P: np.ndarray, basis: MomentBasis):
        """(tau_b, T) of the composed laws, with static mobilization at zero shear.

        A profile with all moments exactly zero has no shear anywhere, so the
        raw laws return zero stress; the flowing-limit values (friction fully
        mobilized against the bottom-velocity direction) are used instead so a
        steadily sliding constant profile balances gravity exactly.
        """
        tau_b, T = super().stresses(P, basis)
        static = np.all(P[:, 2:] == 0.0, axis=1)
        if np.any(static):
            s = np.sign(bottom_velocity(P[static]))
            mobilized = self.mu_s * P[static, 0] * s
            if isinstance(self.bottom_law, MuIBottom):
                tau_b[static] = mobilized
            T[static, :] = -mobilized[:, None]
        return tau_b, T


def savage_hutter_violations(P: np.ndarray, basis: MomentBasis) -> int:
    """Count the primitive rows of P (M, N+2) violating the sliding-law assumptions.

    The Savage-Hutter derivation assumes a positive bottom velocity and a
    velocity profile increasing with height; violations are reported, never
    enforced. The caller passes wet rows only, as to the friction laws.
    """
    _require_wet(P[:, 0])
    bad_bottom = bottom_velocity(P) <= 0.0
    dphi = eval_dphi(basis, np.linspace(0.0, 1.0, 9))
    shear = np.zeros((P.shape[0], dphi.shape[1]))
    for j in range(basis.N):
        shear += P[:, 2 + j][:, None] * dphi[j]
    bad_profile = np.any(shear < 0.0, axis=1)
    return int(np.sum(bad_bottom | bad_profile))
