import math
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swmoment.basis import (
    MAX_ORDER,
    MomentBasis,
    build_basis,
    eval_dphi,
    eval_phi,
    gauss_rule,
    reconstruct_velocity,
)


def _phi_rows(phi):
    """Exact monomial coefficients of phi_0..phi_N, ascending powers, from the
    rows of a basis's phi (integers, so exact as floats); phi_0 = 1."""
    return [[Fraction(1)]] + [[Fraction(c) for c in row[:j + 2]] for j, row in enumerate(phi)]


def test_phi_low_order_coefficients():
    assert np.array_equal(build_basis(3).phi, [[1, -2, 0, 0], [1, -6, 6, 0], [1, -12, 30, -20]])


def test_phi_endpoint_values_exact():
    basis = build_basis(12)
    for j in range(1, 13):
        assert eval_phi(basis, j, 0.0) == 1.0
        assert eval_phi(basis, j, 1.0) == (-1.0) ** j


def test_orthogonality_exact_rationals():
    # int_0^1 phi_i phi_j = delta_ij / (2j + 1), checked in exact arithmetic
    phis = _phi_rows(build_basis(6).phi)
    for i in range(0, 7):
        pi = phis[i]
        for j in range(0, 7):
            pj = phis[j]
            acc = Fraction(0)
            for a, ca in enumerate(pi):
                for b, cb in enumerate(pj):
                    acc += ca * cb / (a + b + 1)
            assert acc == (Fraction(1, 2 * j + 1) if i == j else 0)


def test_tensor_fixtures():
    basis = build_basis(2)
    # A_ij1 = (2i+1) int phi_i phi_j phi_1, B_ij1 = (2i+1) int phi_i' (int_0^zeta phi_j) phi_1
    assert basis.A.shape == basis.B.shape == (2, 2)
    assert basis.A[0, 0] == 0.0
    assert basis.B[0, 0] == 0.0
    assert basis.A[0, 1] == pytest.approx(2.0 / 5.0, abs=1e-15)
    assert basis.B[0, 1] == pytest.approx(-1.0 / 5.0, abs=1e-15)
    assert basis.A[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert basis.B[1, 0] == pytest.approx(-1.0, abs=1e-15)
    assert basis.A[1, 1] == 0.0
    assert basis.B[1, 1] == 0.0


def test_dissipation_tensor_fixtures():
    basis = build_basis(2)
    # C_ij = int phi_i' phi_j'
    assert basis.C[0, 0] == pytest.approx(4.0, abs=1e-15)
    assert basis.C[0, 1] == 0.0
    assert basis.C[1, 0] == 0.0
    assert basis.C[1, 1] == pytest.approx(12.0, abs=1e-15)


def test_tensor_symmetries():
    for N in range(1, MAX_ORDER + 1):
        basis = build_basis(N)
        assert np.array_equal(basis.C, basis.C.T)
        # (2j+1) A_ij1 = (2i+1) A_ji1 = (2i+1)(2j+1) int phi_i phi_j phi_1
        s = 2.0 * np.arange(1, N + 1) + 1.0
        assert np.array_equal(basis.A * s, s[:, None] * basis.A.T)


def test_dissipation_tensor_closed_form():
    # C_ij = 2 m (m+1) with m = min(i, j) when i + j is even, else 0
    for N in range(1, MAX_ORDER + 1):
        i, j = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
        m = np.minimum(i, j)
        assert np.array_equal(build_basis(N).C, np.where((i + j) % 2 == 0, 2.0 * m * (m + 1), 0.0))


# The reference builder: every entry as a Fraction, from polynomial products
# of the Rodrigues-formula coefficients, converted to float once. A and B are
# the k = 1 slices A_ij1, B_ij1 of the coupling tensors.
def _ref_phi(j):
    coeffs = [Fraction(0)] * (j + 1)
    for k in range(j + 1):
        power = j + k
        coeffs[k] += Fraction(comb(j, k) * (-1) ** k) * Fraction(
            factorial(power), factorial(power - j)) / factorial(j)
    return coeffs


def _ref_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for a, ca in enumerate(p):
        for b, cb in enumerate(q):
            out[a + b] += ca * cb
    return out


def _ref_int01(p):
    return sum((c / (m + 1) for m, c in enumerate(p)), Fraction(0))


def _ref_basis(N):
    phis = [_ref_phi(j) for j in range(1, N + 1)]
    dphis = [[c * m for m, c in enumerate(p)][1:] for p in phis]
    antis = [[Fraction(0)] + [c / (m + 1) for m, c in enumerate(p)] for p in phis]
    A, B, C = np.zeros((N, N)), np.zeros((N, N)), np.zeros((N, N))
    for i in range(N):
        s = 2 * (i + 1) + 1
        for j in range(N):
            C[i, j] = float(_ref_int01(_ref_mul(dphis[i], dphis[j])))
            A[i, j] = float(s * _ref_int01(_ref_mul(_ref_mul(phis[i], phis[j]), phis[0])))
            B[i, j] = float(s * _ref_int01(_ref_mul(_ref_mul(dphis[i], antis[j]), phis[0])))
    phi, dphi = np.zeros((N, N + 1)), np.zeros((N, N))
    for r in range(N):
        phi[r, : r + 2] = [float(c) for c in phis[r]]
        dphi[r, : r + 1] = [float(c) for c in dphis[r]]
    return phi, dphi, A, B, C


def test_phi_coefficients_match_rodrigues_formula():
    phi = build_basis(MAX_ORDER).phi
    for j, row in enumerate(_phi_rows(phi)):
        assert row == _ref_phi(j)
    # each row is zero past its degree
    assert not np.any(np.triu(phi, 2))


@pytest.mark.parametrize("N", range(1, MAX_ORDER + 1))
def test_build_basis_bit_identical_to_fraction_reference(N):
    basis = build_basis(N)
    for name, ref in zip(("phi", "dphi", "A", "B", "C"), _ref_basis(N)):
        got = getattr(basis, name)
        assert got.shape == ref.shape, name
        assert np.array_equal(got, ref), name
        assert np.array_equal(np.signbit(got), np.signbit(ref)), name


def test_gauss_three_point_rule():
    nodes, weights = gauss_rule(3)
    s = math.sqrt(15.0) / 5.0
    assert nodes == pytest.approx([0.5 * (1 - s), 0.5, 0.5 * (1 + s)], abs=1e-15)
    assert weights == pytest.approx([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0], abs=1e-15)


def test_gauss_eight_point_rule_matches_reference_table():
    nodes, weights = gauss_rule(8)
    ref_nodes = [0.01985, 0.10167, 0.23723, 0.40828, 0.59172, 0.76277, 0.89833, 0.98015]
    ref_weights = [0.05061, 0.11119, 0.15685, 0.18134, 0.18134, 0.15685, 0.11119, 0.05061]
    # the reference table is printed to 5 decimals (truncated, not rounded)
    assert nodes == pytest.approx(ref_nodes, abs=1.01e-5)
    assert weights == pytest.approx(ref_weights, abs=1.01e-5)


@pytest.mark.parametrize("k", [1, 2, 5, 16, 32, 64])
def test_gauss_polynomial_exactness(k):
    nodes, weights = gauss_rule(k)
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
    # a k-point rule integrates monomials up to degree 2k-1 exactly
    for p in (2 * k - 1, 2 * k - 2):
        assert np.sum(weights * nodes**p) == pytest.approx(1.0 / (p + 1), rel=1e-13)


def test_gauss_rule_rejects_bad_counts():
    for k in (0, -1, 65):
        with pytest.raises(ValueError):
            gauss_rule(k)


def test_build_basis_rejects_bad_order():
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        build_basis(13)


@pytest.mark.parametrize("call", [
    lambda b, n: build_basis(n(2)).A,
    lambda b, n: gauss_rule(n(8))[0],
    lambda b, n: eval_phi(b, n(2), 0.25),
], ids=["build_basis", "gauss_rule", "eval_phi"])
def test_basis_entry_points_take_numpy_integers(basis2, call):
    # a numpy integer is an integer, as in SimConfig
    assert np.asarray(call(basis2, np.int64)).tobytes() == np.asarray(call(basis2, int)).tobytes()


@pytest.mark.parametrize("call, error", [
    (lambda b: build_basis(True), r"^moment order must be an integer in \[1, 12\], got True$"),
    (lambda b: gauss_rule(True), r"^point count must be an integer in \[1, 64\], got True$"),
    (lambda b: eval_phi(b, 1.5, 0.5), r"^basis index must be an integer in \[1, 2\], got 1.5$"),
], ids=["build_basis", "gauss_rule", "eval_phi"])
def test_basis_entry_points_reject_non_integers_by_name(basis2, call, error):
    # a bool is not a size, and a float index has no slice
    with pytest.raises(ValueError, match=error):
        call(basis2)


def test_eval_rejects_out_of_range(basis2):
    with pytest.raises(ValueError):
        eval_phi(basis2, 0, 0.5)
    with pytest.raises(ValueError):
        eval_phi(basis2, 3, 0.5)
    with pytest.raises(ValueError):
        eval_phi(basis2, 1, -0.1)
    with pytest.raises(ValueError):
        eval_phi(basis2, 1, 1.5)


def test_eval_known_polynomials(basis2):
    zeta = np.linspace(0.0, 1.0, 11)
    assert eval_phi(basis2, 1, zeta) == pytest.approx(1.0 - 2.0 * zeta, abs=1e-15)
    assert eval_phi(basis2, 2, zeta) == pytest.approx(1.0 - 6.0 * zeta + 6.0 * zeta**2, abs=1e-14)
    # dphi holds the derivative coefficients: phi_2' = -6 + 12 zeta
    assert np.array_equal(basis2.dphi, [[-2.0, 0.0], [-6.0, 12.0]])


def _dphi_at_xi_loop(basis, xi):
    """The bulk quadrature's former evaluation of phi_j' at zeta = 1 - xi^2:
    (N, k) for xi (k,), (M, N, k) for xi (M, k)."""
    z = (1.0 - xi * xi)[..., None, :]
    out = np.zeros(xi.shape[:-1] + (basis.N, xi.shape[-1]))
    for c in basis.dphi[:, ::-1].T:
        out = out * z + c[:, None]
    return out


def _phi_scalar_loop(basis, j, zeta):
    """eval_phi's former per-value Horner loop."""
    out = 0.0
    for c in basis.phi[j - 1][::-1]:
        out = out * zeta + c
    return out


@pytest.mark.parametrize("N", range(1, MAX_ORDER + 1))
def test_eval_dphi_and_eval_phi_keep_the_bits_of_the_loops_they_replace(N):
    # the mu(I) N=2 explicit state moves far past its reference gate on one
    # ulp anywhere, so the shared Horner kernel must keep every bit
    basis = build_basis(N)
    rng = np.random.default_rng(100 + N)
    xi, _ = gauss_rule(16)
    per_row = rng.uniform(0.0, 1.0, (7, 16))
    per_row[0] = [0.0, 1.0] * 8
    for x in (xi, per_row):
        got = eval_dphi(basis, 1.0 - x * x)
        assert got.shape == x.shape[:-1] + (N, x.shape[-1])
        assert got.tobytes() == _dphi_at_xi_loop(basis, x).tobytes()
    zeta = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
    for j in range(1, N + 1):
        assert eval_phi(basis, j, zeta).tobytes() == _phi_scalar_loop(basis, j, zeta).tobytes()
        for z in zeta[:4].tolist():
            assert eval_phi(basis, j, z) == _phi_scalar_loop(basis, j, z)
    assert eval_phi(basis, 1, zeta.reshape(4, 8)).shape == (4, 8)


@given(st.floats(0.0, 1.0), st.integers(1, 6))
def test_dphi_matches_finite_difference(basis6, zeta, j):
    d = 1e-6
    lo, hi = max(0.0, zeta - d), min(1.0, zeta + d)
    fd = (eval_phi(basis6, j, hi) - eval_phi(basis6, j, lo)) / (hi - lo)
    assert np.polynomial.polynomial.polyval(zeta, basis6.dphi[j - 1]) == pytest.approx(fd, abs=5e-4)


def test_reconstruct_velocity_linear(basis1):
    zeta = np.array([0.0, 0.25, 1.0])
    u = reconstruct_velocity(basis1, 0.3, [-0.1], zeta)
    assert u == pytest.approx(0.3 - 0.1 * (1.0 - 2.0 * zeta), abs=1e-15)
    # bottom value is u_m + sum of moments
    assert u[0] == pytest.approx(0.2, abs=1e-15)


def test_reconstruct_velocity_depth_average(basis3):
    # int_0^1 u(zeta) dzeta = u_m since every phi_j integrates to zero
    rng = np.random.default_rng(7)
    alpha = rng.uniform(-1.0, 1.0, 3)
    nodes, weights = gauss_rule(16)
    u = reconstruct_velocity(basis3, 0.7, alpha, nodes)
    assert np.sum(weights * u) == pytest.approx(0.7, abs=1e-14)


def test_basis_is_frozen(basis2):
    assert isinstance(basis2, MomentBasis)
    with pytest.raises(AttributeError):
        basis2.N = 3
