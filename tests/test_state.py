import numpy as np
import pytest
from hypothesis import given, strategies as st

from swmoment.state import (
    H_MIN,
    desingularization_factor,
    is_dry,
    to_conservative,
    to_primitive,
)


def test_is_dry_boundary_inclusive():
    assert is_dry(1e-6)
    assert is_dry(0.0)
    assert not is_dry(1.0000001e-6)
    assert list(is_dry(np.array([0.0, 1e-6, 2e-6]))) == [True, True, False]


def test_round_trip_wet_state():
    P = np.array([0.05, 0.3, -0.1, 0.02])
    U = to_conservative(P)
    assert U == pytest.approx([0.05, 0.015, -0.005, 0.001], abs=1e-18)
    back = to_primitive(U)
    assert back == pytest.approx(P, rel=1e-12)


def test_dry_cells_get_zero_velocities():
    U = np.array([[1e-7, 3e-8, -1e-8], [0.0, 0.0, 0.0], [0.02, 0.01, 0.0]])
    P = to_primitive(U)
    assert np.all(P[:2, 1:] == 0.0)
    assert P[0, 0] == 1e-7
    assert P[2, 1] == pytest.approx(0.5, rel=1e-12)


def _desingularized_velocity(h, hv):
    """The desingularized velocity 2h hv / (h^2 + max(h^2, H_MIN)), written
    out as the reference for to_primitive."""
    return 2.0 * h * hv / (h * h + np.maximum(h * h, H_MIN))


def test_desingularized_velocity_wet_exact():
    # for h^2 >= H_MIN the formula reduces to hv / h exactly
    h, v = 0.05, 0.7
    assert to_primitive(np.array([h, h * v]))[1] == pytest.approx(v, rel=1e-14)


def test_desingularized_velocity_vanishes_with_height():
    # above the dry threshold but below sqrt(H_MIN), where the formula reads
    # 2h^2/(h^2 + H_MIN) -> 0 as h -> 0
    h = np.array([1.5e-6, 1e-5, 1e-4])
    v = to_primitive(np.column_stack([h, h * 1.0]))[:, 1]
    assert v == pytest.approx(2.0 * h * h / (h * h + 1e-6), rel=1e-12)
    assert v[0] < 5e-6


def test_to_primitive_bit_identical_to_broadcast_desingularization():
    # the per-component loop against the formula broadcast over all rows
    rng = np.random.default_rng(3)
    for shape in ((4,), (2,), (0, 4), (7, 3), (1002, 4), (40, 8), (3, 5, 4)):
        U = rng.uniform(-0.1, 0.1, shape) * rng.choice([1e-5, 1e-3, 1.0], shape)
        U[..., 0] = np.abs(U[..., 0])
        U.reshape(-1, shape[-1])[::3, 1:] = -0.0
        h = U[..., 0]
        ref = np.concatenate([h[..., None], _desingularized_velocity(h[..., None], U[..., 1:])],
                             axis=-1)
        ref[..., 1:] = np.where(is_dry(h)[..., None], 0.0, ref[..., 1:])
        assert to_primitive(U).tobytes() == ref.tobytes()


def test_desingularization_factor_is_the_slope_of_to_primitive():
    # the Newton Jacobian's d v / d(h v): wet rows only, across sqrt(H_MIN)
    rng = np.random.default_rng(5)
    h = 10.0 ** rng.uniform(-5.5, -1.0, 200)
    U = np.column_stack([h, rng.uniform(-0.1, 0.1, (200, 3))])
    kappa = desingularization_factor(h)
    np.testing.assert_allclose(kappa[:, None] * U[:, 1:], to_primitive(U)[:, 1:],
                               rtol=4e-16, atol=0.0)
    above = h * h >= H_MIN
    assert np.any(above) and np.any(~above)
    np.testing.assert_allclose(kappa[above], 1.0 / h[above], rtol=4e-16, atol=0.0)


def test_to_primitive_rejects_nonfinite():
    with pytest.raises(ValueError):
        to_primitive(np.array([0.05, np.nan, 0.0]))
    with pytest.raises(ValueError):
        to_primitive(np.array([np.inf, 0.0, 0.0]))


def test_to_conservative_rejects_negative_height():
    with pytest.raises(ValueError):
        to_conservative(np.array([-1e-3, 0.0, 0.0]))


@given(
    st.floats(1.5e-3, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)
def test_round_trip_property(h, u_m, a1):
    # exact only above sqrt(H_MIN), where the desingularization is plain division
    P = np.array([h, u_m, a1])
    back = to_primitive(to_conservative(P))
    assert back == pytest.approx(P, rel=1e-10, abs=1e-12)


def test_batch_shapes():
    P = np.tile([0.05, 0.3, -0.1], (4, 1))
    U = to_conservative(P)
    assert U.shape == (4, 3)
    assert to_primitive(U).shape == (4, 3)
