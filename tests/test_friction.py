import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swmoment import friction
from swmoment.basis import MAX_ORDER, build_basis, eval_dphi, gauss_rule
from swmoment.friction import (
    ConstantCoulomb,
    CoulombBottom,
    ManningBottom,
    MuI,
    MuIBottom,
    Newtonian,
    SlipBottom,
    muI_bulk_analytic_N1,
    muI_bulk_quadrature,
    savage_hutter_violations,
)
from swmoment.sim import SimConfig, build_model, preset
from tests.conftest import (
    CONFIG_CASES,
    DELTA,
    GRAN_PARAMS,
    MU_I_BOTTOM,
    PHI,
    SCALES,
    case_ids,
    config_model,
    random_wet_primitive,
)

# Example-4 granular constants (c_I from the 50-digit scaling computation)
C_I = 2.6390311051245129
GRAN = MuI(mu_s=0.48, mu_2=0.73, c_I=C_I, bottom_law=MuIBottom())

# frozen 50-digit oracle values of the bulk integral
# (h, alpha_1, T1); C1 = c_I h^1.5 / (2 |alpha_1|) spans 4e-5 .. 4e10
N1_ORACLE = [
    (0.05, -0.3, -0.036027583064740492),
    (0.08, -0.01, -0.044458057180729764),
    (0.001, -1.0, -0.00072999165494106828),
    (0.1, -0.0834, -0.065919272440039968),
    (0.02, -2e-7, -0.0096003572270377868),
    (0.1, -1e-12, -0.048000000000798848),
]
# (h, alpha_1, alpha_2, T1, T2) with the shear single-signed on (0, 1)
N2_CASE1_ORACLE = [
    (0.05, -0.4, 0.05, -0.03606348491308279, -0.035848214190856384),
    (0.08, -0.1, -0.02, -0.055059971658682655, -0.055185575120642668),
    (0.001, -2.0, 0.5, -0.00072999232398614007, -0.0007299859860729146),
    (0.1, -0.05, -0.012, -0.064129045934448269, -0.064826377279473761),
]
# (h, alpha_1, alpha_2, T1, T2) with an interior shear sign change
N2_CASE2_ORACLE = [
    (0.05, -0.3, -0.2, -0.031638783549049812, -0.045359930041700727),
    (0.08, -0.02, 0.04, 0.016115650711964265, 0.076317601264602719),
]
# (h, a1, a2, a3, T1, T2, T3), monotone increasing profiles
N3_ORACLE = [
    (0.05, -0.4, 0.03, 0.004,
     -0.036094380563184999, -0.035919915317436915, -0.035900665500565986),
    (0.08, -0.15, -0.01, 0.002,
     -0.055804435135194734, -0.055334470805768533, -0.055437541808826461),
    (0.01, -1.2, 0.1, -0.01,
     -0.0072975442516081625, -0.0072965509088214691, -0.0072965700375787462),
]


# --- composition oracle -----------------------------------------------------

def _reference_stresses(kind, p, P, basis):
    """(tau_b, T) written out per config name as the former one-class-per-name
    models computed them, static mobilization of mu(I) included."""
    h, alpha = P[:, 0], P[:, 2:]
    ub = P[:, 1].copy()
    for j in range(2, P.shape[1]):
        ub += P[:, j]
    H, L, g, rho, rho_s = (SCALES[k] for k in ("H", "L", "g", "rho", "rho_s"))
    U, cos_t = math.sqrt(g * L), math.cos(SCALES["theta"])
    nu = p.get("eta", 0.0) * U / (rho * g * cos_t * H * H)
    if kind in MU_I_BOTTOM:
        c_I = (p["i0"] * H / p["d_s"]) * math.sqrt((rho / rho_s) * (H / L) * cos_t)
    bottom = {"newtonian_slip": "slip", "newtonian_manning": "manning",
              "savage_hutter": "coulomb", "coulomb": "coulomb", **MU_I_BOTTOM}[kind]
    if bottom == "slip":
        tau_b = (nu / (p["lambda"] / H)) * ub
    elif bottom == "manning":
        n2 = p["manning_n"] * p["manning_n"] * U * U / (H ** (4.0 / 3.0) * cos_t)
        tau_b = (n2 / np.cbrt(h)) * ub * np.abs(ub)
    elif bottom == "coulomb":
        tau_b = h * np.sign(ub) * math.tan(p["delta"])
    else:
        shear0 = alpha @ basis.dphi[:, 0]
        rate = np.abs(shear0)
        mu = 0.48 + (0.73 - 0.48) * rate / (c_I * h**1.5 + rate)
        tau_b = mu * h * np.sign(shear0)
    if kind.startswith("newtonian"):
        return tau_b, (nu / h)[:, None] * (alpha @ basis.C.T)
    if kind in ("savage_hutter", "coulomb"):
        mu = math.tan(p["phi_int"]) if kind == "savage_hutter" else p["mu"]
        return tau_b, np.broadcast_to((-mu * h)[:, None], alpha.shape).copy()
    params = MuI(mu_s=0.48, mu_2=0.73, c_I=c_I, bottom_law=MuIBottom())
    if basis.N == 1:
        T = np.empty((len(h), 1))
        inc = alpha[:, 0] <= 0.0
        T[inc, 0] = muI_bulk_analytic_N1(h[inc], alpha[inc, 0], params)
        T[~inc, 0] = -muI_bulk_analytic_N1(h[~inc], -alpha[~inc, 0], params)
    elif basis.N == 2:
        T = params.bulk_terms(P, basis)
    else:
        T = muI_bulk_quadrature(h, alpha, params, basis)
    static = np.all(alpha == 0.0, axis=1)
    mobilized = 0.48 * h[static] * np.sign(ub[static])
    if bottom == "mu_i":
        tau_b[static] = mobilized
    T[static] = -mobilized[:, None]
    return tau_b, T


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CONFIG_CASES), ids=case_ids("-"))
def test_composed_stresses_equal_former_per_model_laws(case, N, basis1, basis2, basis3):
    basis = {1: basis1, 2: basis2, 3: basis3}[N]
    kind, params = CONFIG_CASES[case]
    P = random_wet_primitive(np.random.default_rng(41 + N), N, 60, h_range=(1e-4, 0.1))
    P[40:45, 2:] = 0.0  # alpha = 0 (mu(I) static mobilization)
    P[45:50, 2:] = 0.0
    P[45:50, 2] = -P[45:50, 1]  # u_b = 0 exactly, with shear
    P[50:52, 1:] = 0.0  # at rest
    tau_b, T = config_model(kind, params).stresses(P, basis)
    ref_tau_b, ref_T = _reference_stresses(kind, params, P, basis)
    assert np.array_equal(tau_b, ref_tau_b) and np.array_equal(T, ref_T)
    # a row alone, as a 1-row batch, gets the same bits
    tau_b0, T0 = config_model(kind, params).stresses(P[45:46], basis)
    assert tau_b0.shape == (1,) and T0.shape == (1, N)
    assert tau_b0[0] == ref_tau_b[45] and np.array_equal(T0[0], ref_T[45])


# --- Newtonian models -------------------------------------------------------

def test_slip_bottom_stress(basis2):
    model = Newtonian(nu=0.002, bottom_law=SlipBottom(nu=0.002, lam=1e-4))
    P = np.array([[0.05, 0.3, -0.1, 0.02]])
    # tau_b = (nu / lam) * u(0), u(0) = u_m + alpha_1 + alpha_2
    assert model.stresses(P, basis2)[0] == pytest.approx([0.002 / 1e-4 * 0.22], rel=1e-14)


def test_newtonian_bulk_uses_dissipation_tensor(basis2):
    model = Newtonian(nu=0.002, bottom_law=SlipBottom(nu=0.002, lam=1e-4))
    P = np.array([[0.05, 0.3, -0.1, 0.02]])
    # T_i = (nu / h) sum_j C_ij alpha_j with diagonal C = diag(4, 12)
    _, T = model.stresses(P, basis2)
    assert T[0] == pytest.approx([0.002 / 0.05 * 4 * -0.1, 0.002 / 0.05 * 12 * 0.02], rel=1e-14)


def test_manning_bottom_stress(basis2):
    model = Newtonian(nu=0.001, bottom_law=ManningBottom(n2=0.8))
    P = np.array([[0.04, -0.2, -0.1, 0.0]])
    ub = -0.3
    assert model.stresses(P, basis2)[0] == pytest.approx(
        [0.8 / np.cbrt(0.04) * ub * abs(ub)], rel=1e-14)


def test_friction_rejects_dry_states(basis2):
    model = Newtonian(nu=1e-3, bottom_law=SlipBottom(nu=1e-3, lam=1e-3))
    with pytest.raises(ValueError):
        model.stresses(np.array([[0.0, 0.1, 0.0, 0.0]]), basis2)
    with pytest.raises(ValueError):
        GRAN.stresses(np.array([[0.05, 0.1, 0.0, 0.0], [-0.01, 0.1, 0.0, 0.0]]), basis2)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Newtonian(nu=-1e-3, bottom_law=SlipBottom(nu=1e-3, lam=1e-3))
    with pytest.raises(ValueError):
        SlipBottom(nu=1e-3, lam=0.0)
    with pytest.raises(ValueError):
        ManningBottom(n2=-1.0)
    with pytest.raises(ValueError):
        ConstantCoulomb(mu=-0.1, bottom_law=CoulombBottom(delta=0.2))
    with pytest.raises(ValueError):  # bed friction exceeds inner friction
        config_model("savage_hutter", {"delta": 0.4, "phi_int": 0.3})
    with pytest.raises(ValueError):
        MuI(mu_s=0.73, mu_2=0.48, c_I=1.0, bottom_law=MuIBottom())
    with pytest.raises(ValueError):
        MuI(mu_s=0.48, mu_2=0.73, c_I=0.0, bottom_law=MuIBottom())


@pytest.mark.parametrize("points", [1, 65, 100, 8.0, True])
def test_muI_rejects_bad_quad_points_when_constructed(points):
    # checked where the law is built: a bad count would otherwise first fail
    # mid-step, at the first N >= 3 bulk evaluation, naming no field
    error = f"quad_points must be an integer in [2, 64], got {points!r}"
    with pytest.raises(ValueError, match=re.escape(error)):
        MuI(mu_s=0.48, mu_2=0.73, c_I=1.0, bottom_law=MuIBottom(), quad_points=points)
    model = MuI(mu_s=0.48, mu_2=0.73, c_I=1.0, bottom_law=MuIBottom(), quad_points=np.int64(2))
    assert type(model.quad_points) is int and model.quad_points == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("law, error", [
    (lambda v: Newtonian(nu=v, bottom_law=MuIBottom()), "must be finite and nonnegative"),
    (lambda v: SlipBottom(nu=v, lam=1e-3), "must be finite and nonnegative"),
    (lambda v: ManningBottom(n2=v), "must be finite and nonnegative"),
    (lambda v: ConstantCoulomb(mu=v, bottom_law=MuIBottom()), "must be finite and nonnegative"),
    (lambda v: MuI(mu_s=0.48, mu_2=v, c_I=1.0, bottom_law=MuIBottom()),
     re.escape("require 0 < mu_s < mu_2 < inf")),
    (lambda v: MuI(mu_s=0.48, mu_2=0.73, c_I=v, bottom_law=MuIBottom()),
     "c_I must be finite and positive"),
], ids=["Newtonian", "SlipBottom", "ManningBottom", "ConstantCoulomb", "MuI.mu_2", "MuI.c_I"])
def test_law_rejects_non_finite_parameter(law, error, value):
    # before, each check was x < 0.0 (MuI: mu_s < mu_2 and c_I > 0), which is
    # False for nan and lets inf through; MuI then ran on mu = mu_s
    with pytest.raises(ValueError, match=error):
        law(value)


@pytest.mark.parametrize("kind, params", [
    ("mu_i_slip", {**CONFIG_CASES["mu_i_slip"][1], "lambda": 0.0}),  # slip length 0
    ("mu_i_slip", dict(CONFIG_CASES["mu_i_slip"][1], eta=-1e-3)),  # negative viscosity
    ("newtonian_slip", {"lambda": 0.0, "eta": 0.01}),
    ("newtonian_manning", {"manning_n": 0.01, "eta": -0.01}),
    ("coulomb", {"delta": math.pi / 2, "mu": 0.4}),  # tan(delta) ~ 1.6e16
    ("coulomb", {"delta": -0.1, "mu": 0.4}),
    ("mu_i_coulomb", dict(CONFIG_CASES["mu_i_coulomb"][1], delta=math.pi / 2)),
    ("mu_i_coulomb", dict(CONFIG_CASES["mu_i_coulomb"][1], delta=-0.1)),
])
def test_build_model_checks_law_parameters(kind, params):
    # each law checks its own parameters, so every model that carries it does;
    # before, a mu(I) slip bottom took a zero slip length (ZeroDivisionError at the first step)
    # and coulomb bottoms took any delta
    with pytest.raises(ValueError):
        config_model(kind, params)


# --- Coulomb-type models ----------------------------------------------------

def test_savage_hutter_stresses(basis2):
    model = config_model("savage_hutter", {"delta": DELTA, "phi_int": PHI})
    P = np.array([[0.06, 0.5, -0.2, 0.01]])
    tau_b, T = model.stresses(P, basis2)
    assert tau_b == pytest.approx([0.06 * math.tan(DELTA)], rel=1e-14)
    assert T[0] == pytest.approx([-0.06 * math.tan(PHI)] * 2, rel=1e-14)


def test_savage_hutter_coulomb_equivalence(basis2):
    # savage_hutter is the coulomb model with mu = tan(phi_int), to the bit
    sh = config_model("savage_hutter", {"delta": DELTA, "phi_int": PHI})
    cb = config_model("coulomb", {"delta": DELTA, "mu": math.tan(PHI)})
    rng = np.random.default_rng(42)
    P = random_wet_primitive(rng, 2, 100)
    P[:, 2] = -np.abs(P[:, 2])  # monotone increasing profile
    P[:, 3] = 0.0
    P[:, 1] = np.abs(P[:, 1]) - P[:, 2] + 0.01  # positive bottom velocity
    for a, b in zip(sh.stresses(P, basis2), cb.stresses(P, basis2)):
        assert np.array_equal(a, b)


def test_coulomb_sign_follows_bottom_velocity(basis2):
    model = ConstantCoulomb(mu=0.3, bottom_law=CoulombBottom(delta=DELTA))
    P_fwd = np.array([[0.06, 0.5, -0.1, 0.0]])
    P_rev = np.array([[0.06, -0.5, 0.1, 0.0]])
    assert np.array_equal(model.stresses(P_fwd, basis2)[0], -model.stresses(P_rev, basis2)[0])


def test_savage_hutter_violation_counter(basis2):
    P = np.array([
        [0.05, 0.5, -0.1, 0.0],   # fine: u(0) = 0.4 > 0, shear = -2 a1 > 0
        [0.05, 0.05, -0.1, 0.0],  # u(0) < 0
        [0.05, 0.5, 0.1, 0.0],    # decreasing profile
    ])
    assert savage_hutter_violations(P, basis2) == 2
    # every row given counts, however thin; the caller screens out dry cells
    thin = [1e-7, -1.0, 0.5, 0.0]
    assert savage_hutter_violations(np.vstack([P, thin]), basis2) == 3
    assert savage_hutter_violations(np.empty((0, 4)), basis2) == 0
    for h in (0.0, -1e-7):
        with pytest.raises(ValueError, match="non-positive height"):
            savage_hutter_violations(np.vstack([P, [h, -1.0, 0.5, 0.0]]), basis2)



def _sh_violations_loop(P, basis):
    """savage_hutter_violations with its former per-moment Horner loop."""
    u_b = P[:, 1].copy()
    for j in range(2, P.shape[1]):
        u_b += P[:, j]
    zeta = np.linspace(0.0, 1.0, 9)
    shear = np.zeros((P.shape[0], len(zeta)))
    for j in range(basis.N):
        acc = np.zeros_like(zeta)
        for c in basis.dphi[j, ::-1]:
            acc = acc * zeta + c
        shear += P[:, 2 + j][:, None] * acc[None, :]
    return int(np.sum((u_b <= 0.0) | np.any(shear < 0.0, axis=1)))


@pytest.mark.parametrize("N", range(1, MAX_ORDER + 1))
def test_savage_hutter_violations_match_the_former_loop(N):
    basis = build_basis(N)
    rng = np.random.default_rng(60 + N)
    P = random_wet_primitive(rng, N, 400, vel_scale=0.5)
    P[::5, 2:] = 0.0  # zero shear everywhere
    P[1::5, 2:] = -0.0
    P[2::5, 2:] *= 1e-12
    P[3::5, 1] = -np.sum(P[3::5, 2:], axis=1)  # u(0) at the edge of zero
    for rows in (P, P[::5], P[3::5], P[:1]):
        assert savage_hutter_violations(rows, basis) == _sh_violations_loop(rows, basis)
    assert 0 < savage_hutter_violations(P, basis) < len(P)


# --- granular mu(I) model ---------------------------------------------------

def test_muI_N1_closed_form_matches_oracle():
    for h, a1, ref in N1_ORACLE:
        assert muI_bulk_analytic_N1(h, a1, GRAN) == pytest.approx(ref, rel=1e-13)


def test_muI_N1_zero_shear_limits():
    # exactly zero shear -> zero stress (sgn 0 = 0); tiny shear -> -h mu_s
    assert muI_bulk_analytic_N1(0.05, 0.0, GRAN) == 0.0
    tiny = -1e-12 * C_I * 0.05**1.5 * 0.5
    assert muI_bulk_analytic_N1(0.05, tiny, GRAN) == pytest.approx(-0.05 * 0.48, rel=1e-12)


def test_muI_N1_is_odd_to_the_bit():
    # a decreasing profile gets the negated closed form of the mirrored
    # increasing one, on every branch: the series and direct brackets, the
    # tiny-shear limit, and alpha_1 = +-0 (which give +0)
    rng = np.random.default_rng(13)
    h = 10.0 ** rng.uniform(-6, -1, 4000)
    a = 10.0 ** rng.uniform(-14, 1, 4000)
    a[:10] = 0.1 * 1e-12 * C_I * h[:10] ** 1.5
    T_inc = muI_bulk_analytic_N1(h, -a, GRAN)
    T_dec = muI_bulk_analytic_N1(h, a, GRAN)
    assert np.array_equal(T_dec.view(np.int64), (-T_inc).view(np.int64))
    assert np.all(T_inc < 0.0)
    assert np.array_equal(T_inc[:10], -0.48 * h[:10])
    zero = muI_bulk_analytic_N1(h[:2], np.array([0.0, -0.0]), GRAN)
    assert np.array_equal(zero.view(np.int64), np.zeros(2).view(np.int64))


def _bulk_N2(h, a1, a2, basis2):
    """GRAN's N=2 bulk terms (T_1, T_2) of one state, a 1-row batch."""
    return GRAN.bulk_terms(np.array([[h, 0.0, a1, a2]]), basis2)[0]


def test_muI_N2_case1_matches_oracle(basis2):
    for h, a1, a2, r1, r2 in N2_CASE1_ORACLE:
        t1, t2 = _bulk_N2(h, a1, a2, basis2)
        assert t1 == pytest.approx(r1, rel=1e-12)
        assert t2 == pytest.approx(r2, rel=1e-12)


def test_muI_N2_interior_sign_change_matches_oracle(basis2):
    for h, a1, a2, r1, r2 in N2_CASE2_ORACLE:
        t1, t2 = _bulk_N2(h, a1, a2, basis2)
        assert t1 == pytest.approx(r1, rel=1e-8)
        assert t2 == pytest.approx(r2, rel=1e-8)


def test_muI_N3_quadrature_matches_oracle(basis3):
    for h, a1, a2, a3, r1, r2, r3 in N3_ORACLE:
        T = muI_bulk_quadrature(np.array([h]), np.array([[a1, a2, a3]]), GRAN, basis3, points=32)
        assert T[0] == pytest.approx([r1, r2, r3], rel=1e-12)


def test_muI_quadrature_self_convergence():
    # 8 -> 16 points agree to ~1e-7 on the closed-form validation range
    rng = np.random.default_rng(3)
    h = 10.0 ** rng.uniform(-3, -1, 200)
    alpha = -(10.0 ** rng.uniform(-6, 0, 200))[:, None]
    basis = build_basis(1)
    T8 = muI_bulk_quadrature(h, alpha, GRAN, basis, points=8)
    T16 = muI_bulk_quadrature(h, alpha, GRAN, basis, points=16)
    assert np.max(np.abs(T8 - T16) / np.abs(T16)) < 1e-7


def test_muI_bulk_oddness(basis3):
    rng = np.random.default_rng(5)
    P = random_wet_primitive(rng, 3, 50)
    T_pos = GRAN.stresses(P, basis3)[1]
    P_neg = P.copy()
    P_neg[:, 2:] = -P_neg[:, 2:]
    T_neg = GRAN.stresses(P_neg, basis3)[1]
    np.testing.assert_allclose(T_neg, -T_pos, rtol=1e-12, atol=1e-16)


def test_muI_N1_N2_continuity(basis2):
    # the N=2 closed form limits to the N=1 formula as alpha_2 -> 0
    for h, a1 in [(0.05, -0.3), (0.01, -0.05), (0.1, -1.0)]:
        ref = muI_bulk_analytic_N1(h, a1, GRAN)
        t1, _ = _bulk_N2(h, a1, 1e-8, basis2)
        assert t1 == pytest.approx(float(ref), rel=1e-4)


def test_muI_conditioning_guard_fallback_agrees(basis2):
    # states with |A| < 0.5 max(|B|, C) take the quadrature path; verify both
    # paths agree where they meet (ratio near the threshold)
    found = 0
    rng = np.random.default_rng(9)
    while found < 20:
        h = 10.0 ** rng.uniform(-3, -1)
        a2 = 10.0 ** rng.uniform(-4, -2)
        a1 = -3.0 * a2 - 10.0 ** rng.uniform(-2, 0)
        A, B, C = 12.0 * a2, 2.0 * a1 - 6.0 * a2, C_I * h**1.5
        ratio = abs(A) / max(abs(B), C)
        if not 0.4 <= ratio <= 0.6:
            continue
        found += 1
        t1, t2 = _bulk_N2(h, a1, a2, basis2)
        q1, q2 = muI_bulk_quadrature(np.array([h]), np.array([[a1, a2]]), GRAN, basis2, points=64)[0]
        assert t1 == pytest.approx(q1, rel=1e-9)
        assert t2 == pytest.approx(q2, rel=1e-9)


def _N2_regime_rows(rng, per_regime=500):
    """Primitive N=2 rows covering every regime of the N=2 bulk terms.

    With zeta* = (1 + a1/(3 a2))/2: a2 = 0 (plain quadrature), |a1| < 3|a2|
    (interior sign change, split quadrature), a1 <= -3|a2| (case one, closed
    form or its ill-conditioned quadrature fallback), a1 >= 3|a2| (plain
    quadrature); heights down to 1e-6 and moments over ten decades.
    """
    M = 4 * per_regime
    h = 10.0 ** rng.uniform(-6, -1, M)
    a2 = rng.choice([-1.0, 1.0], M) * 10.0 ** rng.uniform(-10, 0, M)
    u = rng.uniform(0.0, 1.0, M)
    a1 = np.empty(M)
    flat, split, case_one, rest = np.split(np.arange(M), 4)
    a1[flat] = rng.choice([-1.0, 1.0], per_regime) * 10.0 ** rng.uniform(-8, 0, per_regime)
    a2[flat] = 0.0
    a1[split] = 3.0 * np.abs(a2[split]) * (2.0 * u[split] - 1.0)
    a1[case_one] = -3.0 * np.abs(a2[case_one]) * (1.0 + 10.0 ** rng.uniform(-3, 3, per_regime))
    a1[rest] = 3.0 * np.abs(a2[rest]) * (1.0 + 10.0 ** rng.uniform(-3, 3, per_regime))
    P = np.column_stack([h, rng.uniform(-1.0, 1.0, M), a1, a2])
    # zeta* = 0 and zeta* = 1 exactly, from either sign of a2
    edges = np.array([[0.05, 0.1, -0.75, 0.25], [0.05, 0.1, 0.75, 0.25],
                      [0.01, 0.1, -0.75, -0.25], [0.01, 0.1, 0.75, -0.25]])
    return np.vstack([P, edges])


@pytest.mark.parametrize("N", [1, 3, 6, MAX_ORDER])
def test_muI_fixed_rule_table_is_a_read_only_fresh_evaluation(N):
    basis = build_basis(N)
    for points in (2, 8, 32):
        table = friction._fixed_rule_table(basis.dphi.tobytes(), N, points)
        xi, w = gauss_rule(points)
        fresh = (xi, eval_dphi(basis, 1.0 - xi * xi), w * 2.0 * xi**3)
        for got, expected in zip(table, fresh):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
        # tabulated once: a second call returns the same arrays
        again = friction._fixed_rule_table(build_basis(N).dphi.tobytes(), N, points)
        assert all(a is b for a, b in zip(again, table))


def _one_row_quadrature(h, alpha, params, basis, lo, hi, points):
    """Bulk quadrature of one row on xi in [lo, hi], written with plain 2-D
    products on a (1, N) row: the reference the batched forms must equal."""
    xi, w = gauss_rule(points)
    xi = lo + (hi - lo) * xi
    w = (hi - lo) * w
    z = 1.0 - xi * xi
    dphi = np.zeros((basis.N, len(xi)))
    for j in range(basis.N):
        for c in basis.dphi[j, ::-1]:
            dphi[j] = dphi[j] * z + c
    h = np.array([h])
    shear = np.asarray(alpha, dtype=float)[None, :] @ dphi
    denom = (params.c_I * h**1.5)[:, None] * xi[None, :] + np.abs(shear)
    mu = params.mu_s + (params.mu_2 - params.mu_s) * np.abs(shear) / denom
    integrand = mu * np.sign(shear) * (w * 2.0 * xi**3)[None, :]
    return (h[:, None] * (integrand @ dphi.T))[0]


@pytest.mark.parametrize("quad_points", [8, 32])
def test_muI_quadrature_matches_one_row_products(basis2, basis3, basis6, quad_points):
    # einsum or a 2-D matmul over many rows rounds differently from these
    # one-row products; the batched law must keep their bits
    model = MuI(mu_s=0.48, mu_2=0.73, c_I=C_I, bottom_law=MuIBottom(), quad_points=quad_points)
    P = _N2_regime_rows(np.random.default_rng(31), per_regime=15)
    h, a1, a2 = P[:, 0], P[:, 2], P[:, 3]
    zeta_star = 0.5 * (1.0 + a1 / (3.0 * np.where(a2 == 0.0, 1.0, a2)))
    split = (a2 != 0.0) & (np.abs(a1) < 3.0 * np.abs(a2))
    plain = (a2 == 0.0) | (~split & (a1 > -3.0 * np.abs(a2)))
    ref = np.zeros((len(P), 2))
    for i in np.flatnonzero(split):
        xi_star = math.sqrt(1.0 - zeta_star[i])
        points = max(quad_points, 16)
        ref[i] = (_one_row_quadrature(h[i], P[i, 2:], model, basis2, 0.0, xi_star, points)
                  + _one_row_quadrature(h[i], P[i, 2:], model, basis2, xi_star, 1.0, points))
    for i in np.flatnonzero(plain):
        ref[i] = _one_row_quadrature(h[i], P[i, 2:], model, basis2, 0.0, 1.0, quad_points)
    rows = split | plain
    assert np.sum(split) >= 10 and np.sum(plain & (a2 != 0.0)) >= 10
    assert np.array_equal(model.stresses(P[rows], basis2)[1], ref[rows])
    # at N = 6 (not at N <= 3) einsum also rounds the shear differently
    for basis, seed in ((basis3, 37), (basis6, 43)):
        Pn = random_wet_primitive(np.random.default_rng(seed), basis.N, 40, h_range=(1e-6, 0.1))
        ref = [_one_row_quadrature(p[0], p[2:], model, basis, 0.0, 1.0, quad_points) for p in Pn]
        assert np.array_equal(model.stresses(Pn, basis)[1], np.array(ref))


def _graded_quadrature(h, alpha, params, basis):
    """One row's bulk terms by a 64-point rule on each of 16 pieces of xi in
    [0, 1], graded geometrically toward both ends: it resolves the
    near-singularity that a shear root just outside the column puts at an end."""
    g = np.geomspace(1e-12, 0.5, 8)
    edges = np.concatenate([[0.0], g, 1.0 - g[-2::-1], [1.0]])
    return sum(_one_row_quadrature(h, alpha, params, basis, lo, hi, 64)
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("quad_points", [8, 32])
def test_muI_N2_case_one_takes_the_closed_form_or_32_points(basis2, quad_points):
    # a single-signed shear takes the closed form where it is well-conditioned
    # and the 32-point rule where it is not, whatever quad_points is. The
    # closed form meets the graded reference to 1e-12 (measured: 1.4e-13),
    # which the 32-point rule misses by more than 1e-8 on some rows
    model = MuI(mu_s=0.48, mu_2=0.73, c_I=C_I, bottom_law=MuIBottom(), quad_points=quad_points)
    P = _N2_regime_rows(np.random.default_rng(17))
    h, a1, a2 = P[:, 0], P[:, 2], P[:, 3]
    A, B, C = 12.0 * np.abs(a2), np.abs(2.0 * a1 - 6.0 * a2), C_I * h**1.5
    case_one = (a2 != 0.0) & (a1 <= -3.0 * np.abs(a2))
    well = (A >= 0.5 * np.maximum(B, C)) & (B >= 1e-8 * np.maximum(A, C))
    closed, ill = np.flatnonzero(case_one & well), np.flatnonzero(case_one & ~well)
    assert len(closed) >= 10 and len(ill) >= 10
    T = model.stresses(P, basis2)[1]
    ref32 = [_one_row_quadrature(h[i], P[i, 2:], model, basis2, 0.0, 1.0, 32) for i in ill]
    assert np.array_equal(T[ill], np.array(ref32))
    ref = np.array([_graded_quadrature(h[i], P[i, 2:], model, basis2) for i in closed])
    scale = np.max(np.abs(ref), axis=1)
    assert np.all(np.max(np.abs(T[closed] - ref), axis=1) <= 1e-12 * scale)
    T32 = muI_bulk_quadrature(h[closed], P[closed, 2:], model, basis2, points=32)
    assert np.sum(np.max(np.abs(T32 - ref), axis=1) > 1e-8 * scale) >= 10


@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_muI_bulk_terms_row_independent(N, basis1, basis2, basis3, basis6):
    # a cell's bulk friction must not depend on which cells share the call
    basis = {1: basis1, 2: basis2, 3: basis3, 6: basis6}[N]
    P = random_wet_primitive(np.random.default_rng(23 + N), N, 150, h_range=(1e-6, 0.1))
    if N == 2:
        P = np.vstack([P, _N2_regime_rows(np.random.default_rng(29), per_regime=15)])
    P[::7, 2:] = -np.abs(P[::7, 2:])
    for model in (GRAN, replace(GRAN, quad_points=8)):
        single = np.array([model.stresses(p[None], basis)[1][0] for p in P])
        assert np.array_equal(model.stresses(P, basis)[1], single)


def test_muI_quadrature_needs_two_points(basis2):
    with pytest.raises(ValueError):
        muI_bulk_quadrature(np.array([0.05]), np.array([[-0.1, 0.0]]), GRAN, basis2, points=1)


def test_muI_bottom_laws(basis2):
    P = np.array([[0.05, 0.3, -0.1, 0.02]])
    slip = replace(GRAN, bottom_law=SlipBottom(nu=1e-4, lam=1e-3))
    assert slip.stresses(P, basis2)[0] == pytest.approx([1e-4 / 1e-3 * 0.22], rel=1e-14)
    manning = replace(GRAN, bottom_law=ManningBottom(n2=0.8))
    assert manning.stresses(P, basis2)[0] == pytest.approx(
        [0.8 / np.cbrt(0.05) * 0.22 * 0.22], rel=1e-14)
    coulomb = replace(GRAN, bottom_law=CoulombBottom(delta=0.2))
    assert coulomb.stresses(P, basis2)[0] == pytest.approx([0.05 * math.tan(0.2)], rel=1e-14)


def test_muI_bottom_shear_law(basis2):
    P = np.array([[0.05, 0.3, -0.1, 0.02]])
    # shear at the bottom: -2 a1 - 6 a2 = 0.08 > 0
    rate = 0.08
    mu = 0.48 + 0.25 * rate / (C_I * 0.05**1.5 + rate)
    assert GRAN.stresses(P, basis2)[0] == pytest.approx([mu * 0.05], rel=1e-13)
    # antisymmetric in the shear direction
    P_rev = P.copy()
    P_rev[:, 2:] = -P_rev[:, 2:]
    assert GRAN.stresses(P_rev, basis2)[0] == pytest.approx([-mu * 0.05], rel=1e-13)


def test_muI_static_mobilization(basis1):
    # all moments exactly zero: raw laws see no shear, but the stresses used by
    # the source are fully mobilized against the sliding direction
    P = np.array([[0.05, 0.1, 0.0]])
    tau_b, T = GRAN.stresses(P, basis1)
    assert tau_b == pytest.approx([0.48 * 0.05], rel=1e-15)
    assert T[0] == pytest.approx([-0.48 * 0.05], rel=1e-15)
    # the raw laws keep sgn(0) = 0
    assert GRAN.bottom_law.stress(P, basis1, GRAN) == 0.0
    assert np.array_equal(GRAN.bulk_terms(P, basis1), [[0.0]])


def test_muI_mobilization_only_at_exactly_zero(basis1):
    P = np.array([[0.05, 0.1, -1e-9]])
    tau_b, T = GRAN.stresses(P, basis1)
    assert np.array_equal(tau_b, GRAN.bottom_law.stress(P, basis1, GRAN))
    assert np.array_equal(T, GRAN.bulk_terms(P, basis1))


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 0.1), st.floats(-1.0, -1e-6))
def test_muI_N1_bounded_by_friction_range(h, a1):
    # |T1| lies between h mu_s and h mu_2 for any shear magnitude
    T1 = float(muI_bulk_analytic_N1(h, a1, GRAN))
    assert -h * 0.73 - 1e-15 <= T1 <= -h * 0.48 + 1e-15


# --- dimensionless groups of build_model ------------------------------------

# nu, lam, n2 and c_I as build_model made them of every preset and config case
# when the scalings had a helper of their own; to the bit, since one ulp in nu
# or c_I moves the round-off-chaotic muI_N2_explicit workload past its gate
FROZEN_GROUPS = {
    "preset 1": {"nu": "0x1.37eac663a9381p-10", "lam": "0x1.a36e2eb1c432dp-14"},
    "preset 2 slip": {"nu": "0x1.37eac663a9381p-10", "lam": "0x1.89374bc6a7efap-10"},
    "preset 2 manning": {"nu": "0x1.37eac663a9381p-10", "n2": "0x1.a0a26bfb6dc4ep-1"},
    "preset 3": {},
    "preset 4": {"c_I": "0x1.51cbc570d1799p+1", "nu": "0x1.825fed7d1a48dp-14",
                 "lam": "0x1.0624dd2f1a9fcp-10"},
    "newtonian_slip": {"nu": "0x1.e2f7e8dc60db0p-11", "lam": "0x1.a36e2eb1c432dp-14"},
    "newtonian_manning": {"nu": "0x1.e2f7e8dc60db0p-11", "n2": "0x1.a0a26bfb6dc4ep-1"},
    "savage_hutter": {},
    "coulomb": {},
    "mu_i_slip": {"c_I": "0x1.51cbc570d1799p+1", "nu": "0x1.825fed7d1a48dp-14",
                  "lam": "0x1.0624dd2f1a9fcp-10"},
    "mu_i_manning": {"c_I": "0x1.51cbc570d1799p+1", "n2": "0x1.a0a26bfb6dc4ep-1"},
    "mu_i_coulomb": {"c_I": "0x1.51cbc570d1799p+1"},
    "mu_i": {"c_I": "0x1.51cbc570d1799p+1"},
}
PRESETS = {"preset 1": (1, {}), "preset 2 slip": (2, {}), "preset 2 manning": (2, {"law": "manning"}),
           "preset 3": (3, {}), "preset 4": (4, {})}


def _groups(model) -> dict:
    """float.hex of the model's nu, lam, n2 and c_I; the bulk and the slip
    bottom must share one nu."""
    groups = {}
    for law in (model, model.bottom_law):
        for name in ("nu", "lam", "n2", "c_I"):
            if hasattr(law, name):
                value = float(getattr(law, name)).hex()
                assert groups.setdefault(name, value) == value, name
    return groups


@pytest.mark.parametrize("case", sorted(FROZEN_GROUPS), ids=case_ids("-"))
def test_build_model_groups_keep_their_bits(case):
    if case in PRESETS:
        example, kwargs = PRESETS[case]
        model = build_model(preset(example, **kwargs))
    else:
        model = config_model(*CONFIG_CASES[case])
    assert _groups(model) == FROZEN_GROUPS[case]


# one instance of each law that declares linear = True
LINEAR_LAWS = (SlipBottom(nu=3e-3, lam=0.05), Newtonian(nu=0.02, bottom_law=ManningBottom(n2=0.8)))


def _law_stress(law, P, basis):
    """tau_b of a bottom law, or the bulk terms T of a bulk law."""
    return law.bulk_terms(P, basis) if hasattr(law, "bulk_terms") else law.stress(P, basis, None)


@pytest.mark.parametrize("law", LINEAR_LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("N", [1, 2, 6])
def test_linear_law_is_additive_and_vanishes_at_rest(law, N):
    # the implicit stage reads S = d + K v off the stresses at the unit
    # velocities, which holds for a law that is additive in v at fixed depth
    # and zero at v = 0; the stress is then the law's one definition
    laws = {cls for cls in vars(friction).values()
            if isinstance(cls, type) and getattr(cls, "linear", False)}
    assert laws == {type(law) for law in LINEAR_LAWS}
    assert not [name for name in dir(law) if name.endswith("_jacobian")]
    basis = build_basis(N)
    rng = np.random.default_rng(60 + N)
    P1 = random_wet_primitive(rng, N, 50)
    P2 = random_wet_primitive(rng, N, 50)
    P2[:, 0] = P1[:, 0]
    rest = P1.copy()
    rest[:, 1:] = 0.0
    assert not np.any(_law_stress(law, rest, basis))
    both = P1.copy()
    both[:, 1:] += P2[:, 1:]
    f1, f2 = _law_stress(law, P1, basis), _law_stress(law, P2, basis)
    assert np.all(np.abs(_law_stress(law, both, basis) - (f1 + f2))
                  <= 1e-13 * (np.abs(f1) + np.abs(f2)))


# the scalings of the former derive_dimensionless helper, now made in build_model

def test_derive_velocity_scale():
    # U = sqrt(g L) enters nu = eta U / (rho g cos(theta) H^2)
    model = config_model("newtonian_slip", {"lambda": 1e-5, "eta": 0.01})
    assert model.nu == pytest.approx(0.01 * 9.9045444115315067 / (
        1550.0 * 9.81 * math.cos(math.pi / 4) * 0.1 * 0.1), rel=1e-15)
    assert SimConfig(**SCALES).eps == pytest.approx(0.01, rel=1e-15)


def test_derive_slip_length():
    model = config_model("newtonian_slip", {"lambda": 1e-5, "eta": 0.01})
    assert model.bottom_law.lam == pytest.approx(1e-4, rel=1e-15)


def test_derive_viscosity_and_manning():
    model = build_model(SimConfig(**dict(SCALES, rho=1200.0), friction="newtonian_manning",
                                  friction_params={"manning_n": 0.0165, "eta": 0.01}))
    assert model.nu == pytest.approx(0.0011898692691058871, rel=1e-14)
    assert model.bottom_law.n2 == pytest.approx(0.81373918003272109, rel=1e-14)


def test_derive_inertial_scaling():
    # the granular slip bottom reads its viscosity from eta, as the Newtonian one does
    model = config_model(*CONFIG_CASES["mu_i_slip"])
    assert model.c_I == pytest.approx(C_I, rel=1e-14)
    assert model.bottom_law.nu == pytest.approx(9.2118911156584804e-5, rel=1e-14)


def test_derive_rejects_bad_inputs():
    # the scales, the angle and the grain size (finite and positive) are
    # checked as the config is built, the density of the inertial scaling by
    # build_model
    with pytest.raises(ValueError, match="^H must"):
        SimConfig(**dict(SCALES, H=0.0))
    with pytest.raises(ValueError, match="theta"):
        SimConfig(**dict(SCALES, theta=math.pi / 2))
    with pytest.raises(ValueError, match="^model.d_s must be finite, got nan$"):
        SimConfig(**SCALES, friction="mu_i",
                  friction_params=dict(GRAN_PARAMS, d_s=math.nan))
    for d_s in (0.0, -7e-4):
        with pytest.raises(ValueError, match=f"^model.d_s must be positive, got {d_s}$"):
            SimConfig(**SCALES, friction="mu_i", friction_params=dict(GRAN_PARAMS, d_s=d_s))
    cfg = SimConfig(**dict(SCALES, rho_s=None), friction="mu_i", friction_params=GRAN_PARAMS)
    with pytest.raises(ValueError, match="^the inertial scaling needs scaling.rho_s$"):
        build_model(cfg)
    # a grain size so small that i0 H / d_s overflows used to build c_I = inf
    cfg = preset(4, friction_params=dict(preset(4).friction_params, d_s=1e-320))
    with pytest.raises(ValueError, match="model.i0 = 0.279 and model.d_s = 1e-320 overflows"):
        build_model(cfg)
