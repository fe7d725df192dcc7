import numpy as np
import pytest
from hypothesis import given, strategies as st

from swmoment.state import (
    WetDryPolicy,
    desingularized_velocity,
    is_dry,
    to_conservative,
    to_primitive,
)

POLICY = WetDryPolicy(h_min=1e-6)


def test_policy_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        WetDryPolicy(h_min=0.0)
    with pytest.raises(ValueError):
        WetDryPolicy(h_min=-1.0)


def test_is_dry_boundary_inclusive():
    assert is_dry(1e-6, POLICY)
    assert is_dry(0.0, POLICY)
    assert not is_dry(1.0000001e-6, POLICY)
    assert list(is_dry(np.array([0.0, 1e-6, 2e-6]), POLICY)) == [True, True, False]


def test_round_trip_wet_state():
    P = np.array([0.05, 0.3, -0.1, 0.02])
    U = to_conservative(P)
    assert U == pytest.approx([0.05, 0.015, -0.005, 0.001], abs=1e-18)
    back = to_primitive(U, POLICY)
    assert back == pytest.approx(P, rel=1e-12)


def test_dry_cells_get_zero_velocities():
    U = np.array([[1e-7, 3e-8, -1e-8], [0.0, 0.0, 0.0], [0.02, 0.01, 0.0]])
    P = to_primitive(U, POLICY)
    assert np.all(P[:2, 1:] == 0.0)
    assert P[0, 0] == 1e-7
    assert P[2, 1] == pytest.approx(0.5, rel=1e-12)


def test_desingularized_velocity_wet_exact():
    # for h^2 >= h_min the formula reduces to hv / h exactly
    h, v = 0.05, 0.7
    assert desingularized_velocity(h, h * v, POLICY) == pytest.approx(v, rel=1e-14)


def test_desingularized_velocity_vanishes_with_height():
    h = np.array([1e-10, 1e-8, 1e-7])
    v = desingularized_velocity(h, h * 1.0, POLICY)
    # below the threshold the formula reads 2h^2/(h^2 + h_min) -> 0 as h -> 0
    assert v == pytest.approx(2.0 * h * h / (h * h + 1e-6), rel=1e-12)
    assert v[0] < 1e-13


def test_to_primitive_bit_identical_to_broadcast_desingularization():
    # the per-component loop against the formula broadcast over all rows
    rng = np.random.default_rng(3)
    for shape in ((4,), (2,), (0, 4), (7, 3), (1002, 4), (40, 8), (3, 5, 4)):
        U = rng.uniform(-0.1, 0.1, shape) * rng.choice([1e-5, 1e-3, 1.0], shape)
        U[..., 0] = np.abs(U[..., 0])
        U.reshape(-1, shape[-1])[::3, 1:] = -0.0
        h = U[..., 0]
        ref = np.concatenate([h[..., None], desingularized_velocity(h[..., None], U[..., 1:],
                                                                    POLICY)], axis=-1)
        ref[..., 1:] = np.where(is_dry(h, POLICY)[..., None], 0.0, ref[..., 1:])
        assert to_primitive(U, POLICY).tobytes() == ref.tobytes()


def test_to_primitive_rejects_nonfinite():
    with pytest.raises(ValueError):
        to_primitive(np.array([0.05, np.nan, 0.0]), POLICY)
    with pytest.raises(ValueError):
        to_primitive(np.array([np.inf, 0.0, 0.0]), POLICY)


def test_to_conservative_rejects_negative_height():
    with pytest.raises(ValueError):
        to_conservative(np.array([-1e-3, 0.0, 0.0]))


@given(
    st.floats(1.5e-3, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)
def test_round_trip_property(h, u_m, a1):
    # exact only above sqrt(h_min), where the desingularization is plain division
    P = np.array([h, u_m, a1])
    back = to_primitive(to_conservative(P), POLICY)
    assert back == pytest.approx(P, rel=1e-10, abs=1e-12)


def test_batch_shapes():
    P = np.tile([0.05, 0.3, -0.1], (4, 1))
    U = to_conservative(P)
    assert U.shape == (4, 3)
    assert to_primitive(U, POLICY).shape == (4, 3)
