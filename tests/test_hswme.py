import math
from functools import lru_cache

import numpy as np
import pytest

from swmoment.basis import build_basis
from swmoment.friction import ConstantCoulomb, CoulombBottom, MuI, MuIBottom, Newtonian, SlipBottom
from swmoment.hswme import (
    linear_source_batch,
    source_batch,
    source_split_batch,
    spectral_radius_batch,
    system_matrix_batch,
    wavespeeds_batch,
)
from tests.conftest import CONFIG_CASES, case_ids, config_model, random_wet_primitive

EPS, THETA = 0.01, math.pi / 4


def _slip(nu, lam):
    return Newtonian(nu=nu, bottom_law=SlipBottom(nu=nu, lam=lam))

_basis = lru_cache(maxsize=None)(build_basis)


def test_system_matrix_N1_structure(basis1):
    h, u, a1 = 0.05, 0.3, -0.1
    A = system_matrix_batch(np.array([[h, u, a1]]), EPS, THETA, basis1)[0]
    c = EPS * math.cos(THETA)
    expected = np.array([
        [0.0, 1.0, 0.0],
        [c * h - u * u - a1 * a1 / 3.0, 2.0 * u, 2.0 * a1 / 3.0],
        [-2.0 * u * a1, 2.0 * a1, u],
    ])
    np.testing.assert_allclose(A, expected, rtol=0.0, atol=1e-15)


def test_system_matrix_N2_structure(basis2):
    h, u, a1, a2 = 0.05, 0.3, -0.1, 0.02
    A = system_matrix_batch(np.array([[h, u, a1, a2]]), EPS, THETA, basis2)[0]
    c = EPS * math.cos(THETA)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [c * h - u * u - a1 * a1 / 3.0, 2.0 * u, 2.0 * a1 / 3.0, 0.0],
        [-2.0 * u * a1, 2.0 * a1, u, 3.0 * a1 / 5.0],
        [-2.0 * a1 * a1 / 3.0, 0.0, a1 / 3.0, u],
    ])
    np.testing.assert_allclose(A, expected, rtol=0.0, atol=1e-15)


def _hswme_matrix(h, u, a1, N):
    """The HSWME transport matrix of one state, typed from Koellermeier &
    Rominger, Commun. Comput. Phys. 2020, in the variables (h, hu_m,
    h alpha_1..h alpha_N) and with the driving term eps cos(theta) h."""
    A = np.zeros((N + 2, N + 2))
    A[0, 1] = 1.0
    A[1, :3] = [EPS * math.cos(THETA) * h - u * u - a1 * a1 / 3.0, 2.0 * u, 2.0 * a1 / 3.0]
    A[2, 0], A[2, 1] = -2.0 * u * a1, 2.0 * a1
    if N >= 2:
        A[3, 0] = -(2.0 / 3.0) * a1 * a1
    for i in range(1, N + 1):
        A[i + 1, i + 1] = u
        if i < N:
            A[i + 1, i + 2] = (i + 2) / (2 * i + 3) * a1
        if i >= 2:
            A[i + 1, i] = (i - 1) / (2 * i - 1) * a1
    return A


@pytest.mark.parametrize("N", range(1, 13))
def test_system_matrix_matches_the_published_hswme_matrix(N):
    # an oracle independent of the basis: N = 1 and 2 have structure tests,
    # this covers every order the basis builds
    P = random_wet_primitive(np.random.default_rng(60 + N), N, 20)
    got = system_matrix_batch(P, EPS, THETA, _basis(N))
    for row, A in zip(P, got):
        expected = _hswme_matrix(row[0], row[1], row[2], N)
        np.testing.assert_allclose(A, expected, rtol=1e-15, atol=0.0)


def test_system_matrix_higher_moments_regularized(basis3):
    # only alpha_1 enters the coupling; alpha_2, alpha_3 appear nowhere
    P = np.array([0.05, 0.3, -0.1, 0.7, -0.4])
    P_zeroed = P.copy()
    P_zeroed[3:] = 0.0
    A = system_matrix_batch(P[None], EPS, THETA, basis3)[0]
    np.testing.assert_allclose(A, system_matrix_batch(P_zeroed[None], EPS, THETA, basis3)[0],
                               rtol=0.0, atol=0.0)


def test_first_row_is_momentum_selector(basis6):
    rng = np.random.default_rng(0)
    P = random_wet_primitive(rng, 6, 10)
    A = system_matrix_batch(P, EPS, THETA, basis6)
    expected = np.zeros(8)
    expected[1] = 1.0
    np.testing.assert_allclose(A[:, 0, :], np.tile(expected, (10, 1)), atol=0.0)


def test_source_first_component_zero(basis2):
    model = _slip(nu=1e-3, lam=1e-3)
    P = np.array([0.05, 0.3, -0.1, 0.02])
    S = source_batch(P[None], model, EPS, THETA, np.array([0.3]), basis2)[0]
    assert S[0] == 0.0


def test_source_momentum_row_slip(basis2):
    model = _slip(nu=2e-3, lam=1e-3)
    h, dbdx = 0.05, 0.4
    P = np.array([h, 0.3, -0.1, 0.02])
    S = source_batch(P[None], model, EPS, THETA, np.array([dbdx]), basis2)[0]
    tau_b = 2e-3 / 1e-3 * 0.22
    expected = math.sin(THETA) * h + math.cos(THETA) * (-tau_b - EPS * h * dbdx)
    assert S[1] == pytest.approx(expected, rel=1e-14)


def test_source_moment_rows_savage_hutter(basis2):
    # for a positive monotone profile: S_{i+2} = (2i+1) cos(theta) h (tan phi - tan delta)
    delta, phi = math.radians(15.0), math.radians(20.0)
    model = ConstantCoulomb(mu=math.tan(phi), bottom_law=CoulombBottom(delta=delta))
    h = 0.06
    P = np.array([h, 0.5, -0.2, 0.0])
    S = source_batch(P[None], model, EPS, THETA, np.array([0.0]), basis2)[0]
    base = math.cos(THETA) * h * (math.tan(phi) - math.tan(delta))
    assert S[2] == pytest.approx(3.0 * base, rel=1e-14)
    assert S[3] == pytest.approx(5.0 * base, rel=1e-14)


@pytest.mark.parametrize("case", sorted(CONFIG_CASES), ids=case_ids("-"))
def test_source_split_rows(case, basis2):
    model = config_model(*CONFIG_CASES[case])
    rng = np.random.default_rng(19)
    P = random_wet_primitive(rng, 2, 40)
    P[:5, 2:] = 0.0  # alpha = 0 (mu(I) static mobilization)
    h, dbdx = P[:, 0], rng.uniform(-0.5, 0.5, 40)
    tau_b, T = model.stresses(P, basis2)
    cos_t, sin_t = math.cos(THETA), math.sin(THETA)
    drive, fric = source_split_batch(P, model, EPS, THETA, dbdx, basis2)
    # drive: gravity and topography only; the stress-free surface leaves its
    # moment rows exactly zero
    assert np.array_equal(drive[:, 1], sin_t * h - cos_t * (EPS * h * dbdx))
    assert not np.any(drive[:, [0, 2, 3]])
    assert not np.any(fric[:, 0])
    assert np.array_equal(fric[:, 1], -cos_t * tau_b)
    for i in (1, 2):
        assert np.array_equal(fric[:, i + 1], -(2 * i + 1) * cos_t * (tau_b + T[:, i - 1]))
    assert np.array_equal(source_batch(P, model, EPS, THETA, dbdx, basis2), drive + fric)


@pytest.mark.parametrize("N", range(1, 13))
def test_source_jacobian_equals_unit_step_probes(N):
    # the source of a model linear in v is affine in v, so a unit step in
    # each velocity component gives its matrix column to round-off, and
    # d + K v is the source itself
    basis = _basis(N)
    rng = np.random.default_rng(N)
    P = random_wet_primitive(rng, N, 30)
    dbdx = rng.uniform(-0.5, 0.5, len(P))
    for model in (_slip(nu=1.19e-3, lam=1e-4),
                  Newtonian(nu=0.02, bottom_law=SlipBottom(nu=3e-3, lam=0.05))):
        assert model.linear_in_velocity
        d, K = linear_source_batch(P[:, 0], dbdx, model, EPS, THETA, basis)
        assert d.shape == (len(P), N + 1) and K.shape == (len(P), N + 1, N + 1)
        S = source_batch(P, model, EPS, THETA, dbdx, basis)
        for j in range(N + 1):
            shifted = P.copy()
            shifted[:, 1 + j] += 1.0
            probe = source_batch(shifted, model, EPS, THETA, dbdx, basis) - S
            assert not np.any(probe[:, 0])
            np.testing.assert_allclose(K[:, :, j], probe[:, 1:], rtol=1e-12, atol=0.0)
        # to round-off of the terms summed, which may cancel
        v = P[:, 1:, None]
        scale = np.abs(d) + (np.abs(K) @ np.abs(v))[:, :, 0]
        assert np.all(np.abs(d + (K @ v)[:, :, 0] - S[:, 1:]) <= 1e-12 * scale)


@pytest.mark.parametrize("N", range(1, 13))
def test_weighted_linear_source_matrix_is_symmetric_negative_semidefinite(N):
    # a linear law is the gradient of a convex quadratic in the energy
    # weights W = diag(1, 1/(2i+1)): W K is symmetric and has no positive
    # eigenvalue, which lets the implicit stage eliminate without pivoting
    basis = _basis(N)
    h = np.array([1e-5, 1e-3, 0.1])
    W = np.diag(1.0 / (2.0 * np.arange(N + 1) + 1.0))
    for model in (_slip(nu=1.19e-3, lam=1e-4),
                  Newtonian(nu=0.02, bottom_law=SlipBottom(nu=3e-3, lam=0.05))):
        _, K = linear_source_batch(h, np.zeros(3), model, EPS, THETA, basis)
        WK = W @ K
        size = np.max(np.abs(WK), axis=(1, 2))
        assert np.all(np.max(np.abs(WK - WK.transpose(0, 2, 1)), axis=(1, 2)) <= 1e-14 * size)
        assert np.all(np.linalg.eigvalsh(WK).max(axis=1) <= 1e-14 * size)


@pytest.mark.parametrize("case", sorted(CONFIG_CASES), ids=case_ids("-"))
def test_only_slip_newtonian_is_linear_in_velocity(case):
    assert config_model(*CONFIG_CASES[case]).linear_in_velocity == (case == "newtonian_slip")


def test_source_takes_eps_before_theta(basis2):
    # the order of system_matrix_batch and wavespeeds_batch: both are floats,
    # so a swapped pair would pass silently. At rest on a flat bed the drive
    # is sin(theta) h and the friction is zero
    model = _slip(nu=1e-3, lam=1e-3)
    P = np.array([[0.05, 0.0, 0.0, 0.0]])
    drive, fric = source_split_batch(P, model, EPS, THETA, np.zeros(1), basis2)
    assert drive[0, 1] == math.sin(THETA) * 0.05
    assert not np.any(fric)
    assert source_batch(P, model, EPS, THETA, np.zeros(1), basis2)[0, 1] == math.sin(THETA) * 0.05


def test_equilibrium_residual_zero_at_balance(basis1):
    # steady sliding: tan(theta) = mu_s balances gravity for any u_m > 0
    theta = math.atan(0.48)
    model = MuI(mu_s=0.48, mu_2=0.73, c_I=2.6390311051245129, bottom_law=MuIBottom())
    P = np.array([0.05, 0.1, 0.0])
    S = source_batch(P[None], model, EPS, theta, np.array([0.0]), basis1)[0]
    np.testing.assert_allclose(S, np.zeros(3), rtol=0.0, atol=1e-17)


def test_equilibrium_residual_nonzero_off_balance(basis1):
    # tan(theta) = 0.5 > mu_s: the momentum row keeps cos(theta) h (tan(theta) - mu_s)
    model = MuI(mu_s=0.48, mu_2=0.73, c_I=2.6390311051245129, bottom_law=MuIBottom())
    theta = math.atan(0.5)
    P = np.array([[0.05, 0.1, 0.0]])
    S = source_batch(P, model, EPS, theta, np.zeros(1), basis1)[0]
    assert S[1] == pytest.approx(math.cos(theta) * 0.05 * (0.5 - 0.48), rel=1e-12)
    assert S[1] > 1e-4


def test_rest_state_wavespeed(basis1):
    # at rest the nonzero speeds are +/- sqrt(eps cos(theta) h)
    h = 0.08
    lam = wavespeeds_batch(np.array([[h, 0.0, 0.0]]), EPS, THETA, basis1)[0]
    assert lam == pytest.approx(math.sqrt(EPS * math.cos(THETA) * h), rel=1e-12)


def test_wavespeed_translation_shift(basis2):
    # adding s to u_m shifts every eigenvalue by s
    P = np.array([0.05, 0.3, -0.1, 0.02])
    A0 = system_matrix_batch(P[None], EPS, THETA, basis2)[0]
    P_shift = P.copy()
    P_shift[1] += 0.7
    A1 = system_matrix_batch(P_shift[None], EPS, THETA, basis2)[0]
    e0 = np.sort(np.linalg.eigvals(A0).real)
    e1 = np.sort(np.linalg.eigvals(A1).real)
    np.testing.assert_allclose(e1, e0 + 0.7, rtol=1e-10, atol=1e-12)


def test_eigenvalues_real_small_sweep():
    rng = np.random.default_rng(12)
    for N in (1, 2, 3):
        basis = build_basis(N)
        P = random_wet_primitive(rng, N, 200)
        A = system_matrix_batch(P, EPS, THETA, basis)
        ev = np.linalg.eigvals(A)
        lam_max = np.max(np.abs(ev.real), axis=1)
        assert np.max(np.abs(ev.imag), axis=1).max() < 1e-9 * max(lam_max.max(), 1e-30)


def test_wavespeeds_batch_positive(basis2):
    rng = np.random.default_rng(1)
    P = random_wet_primitive(rng, 2, 32)
    lam = wavespeeds_batch(P, EPS, THETA, basis2)
    assert lam.shape == (32,)
    assert np.all(lam > 0.0)


@pytest.mark.parametrize("N", [2, 6])
def test_wavespeeds_batch_falls_back_when_eigvals_fails(N, basis2, basis6, monkeypatch):
    # a failed eigen-solve gives the closed-form bound of the whole batch
    basis = {2: basis2, 6: basis6}[N]
    P = random_wet_primitive(np.random.default_rng(40 + N), N, 8)

    def failing(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    got = wavespeeds_batch(P, EPS, THETA, basis)
    assert got.tobytes() == spectral_radius_batch(P, EPS, THETA).tobytes()


def test_spectral_radius_closed_form_matches_eigvals():
    # cfl_dt screens rows with this closed form at a relative margin of 1e-9,
    # which is safe only while it tracks the eigen-solve far more tightly
    rng = np.random.default_rng(21)
    for N in range(1, 13):
        basis = _basis(N)
        P = random_wet_primitive(rng, N, 300, h_range=(1e-6, 0.1))
        P[::4, 2] = 0.0
        P[1::4, 1] = -np.abs(P[1::4, 1])
        ev = np.linalg.eigvals(system_matrix_batch(P, EPS, THETA, basis))
        lam = np.max(np.abs(ev), axis=1)
        rho = spectral_radius_batch(P, EPS, THETA)
        gap = np.max(np.abs(rho - lam) / lam)
        assert gap < 1e-10, f"N={N}: relative gap {gap:.3e}"


def _system_matrix_entrywise(P, eps, theta, basis):
    """Transport matrices built entry by entry: the reference for the
    scatter of system_matrix_batch. A coupling off the diagonal whose
    coefficient is zero stays +0.0."""
    M, N = P.shape[0], basis.N
    h, u_m, a1 = P[:, 0], P[:, 1], P[:, 2]
    A = np.zeros((M, N + 2, N + 2))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = eps * math.cos(theta) * h - u_m * u_m - a1 * a1 / 3.0
    A[:, 1, 1] = 2.0 * u_m
    A[:, 1, 2] = (2.0 / 3.0) * a1
    coup = 2.0 * basis.A + basis.B
    for i in range(N):
        row = i + 2
        A[:, row, 0] = -basis.A[i, 0] * a1 * a1
        if i == 0:
            A[:, row, 0] -= 2.0 * u_m * a1
            A[:, row, 1] = 2.0 * a1
        for l in range(N):
            if l == i:
                A[:, row, l + 2] = coup[i, l] * a1 + u_m
            elif coup[i, l] != 0.0:
                A[:, row, l + 2] = coup[i, l] * a1
    return A


def test_system_matrix_batch_equals_entrywise_build():
    # the same bytes: array_equal would take -0.0 == 0.0
    rng = np.random.default_rng(41)
    for N in range(1, 13):
        P = random_wet_primitive(rng, N, 100, h_range=(1e-6, 0.1))
        P[::5, 2] = 0.0
        expected = _system_matrix_entrywise(P, EPS, THETA, _basis(N))
        got = system_matrix_batch(P, EPS, THETA, _basis(N))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), f"N={N}"
