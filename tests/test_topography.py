import math
import re

import numpy as np
import pytest

from swmoment.topography import FlatBed, RunoffBed, TabulatedBed, cell_slope


def test_flat_bed():
    bed = FlatBed()
    x = np.linspace(0.0, 1.0, 7)
    assert np.all(bed.b(x) == 0.0)
    assert np.all(bed.dbdx(x) == 0.0)


def test_runoff_bed_sections():
    theta = math.pi / 4
    bed = RunoffBed(theta=theta)
    t = math.tan(theta)
    assert bed.b(0.3) == 0.0
    assert bed.b(0.7) == pytest.approx((10.0 / 7.0) * t * 0.2**2, rel=1e-14)
    assert bed.b(0.9) == pytest.approx(t * (0.9 - 0.675), rel=1e-14)


def test_runoff_bed_is_c1():
    bed = RunoffBed(theta=0.5)
    d = 1e-9
    for junction in (0.5, 0.85):
        assert bed.b(junction - d) == pytest.approx(bed.b(junction + d), abs=1e-8)
        assert bed.dbdx(junction - d) == pytest.approx(bed.dbdx(junction + d), abs=1e-7)
    # the final slope equals the plane inclination
    assert bed.dbdx(0.99) == pytest.approx(math.tan(0.5), rel=1e-14)


def test_tabulated_bed_interpolates_nodes(tmp_path):
    x = np.array([0.0, 0.2, 0.7, 1.0])
    b = np.array([0.0, 0.1, 0.05, 0.3])
    bed = TabulatedBed(x=x, values=b)
    assert bed.b(x) == pytest.approx(b, abs=1e-15)
    assert bed.b(0.45) == pytest.approx(0.075, rel=1e-14)
    assert bed.dbdx(0.1) == pytest.approx(0.5, rel=1e-12)
    assert bed.dbdx(0.8) == pytest.approx(0.25 / 0.3, rel=1e-12)
    path = tmp_path / "bed.txt"
    np.savetxt(path, np.column_stack([x, b]))
    again = TabulatedBed.from_file(str(path))
    assert again.b(0.45) == pytest.approx(0.075, rel=1e-12)


def test_tabulated_bed_validation():
    with pytest.raises(ValueError):
        TabulatedBed(x=np.array([0.0, 0.0, 1.0]), values=np.zeros(3))
    with pytest.raises(ValueError):
        TabulatedBed(x=np.array([0.0, 1.0]), values=np.zeros(3))
    with pytest.raises(ValueError):
        TabulatedBed(x=np.array([0.5]), values=np.array([0.0]))
    bed = TabulatedBed(x=np.array([0.0, 1.0]), values=np.zeros(2))
    with pytest.raises(ValueError, match=re.escape("queried on [-0.5, 0.5], outside its samples "
                                                   "[0.0, 1.0]")):
        bed.dbdx(np.array([-0.5, 0.5]))


def test_cell_slope_mean_of_faces():
    bed = RunoffBed(theta=0.4)
    xl, xr = np.array([0.6]), np.array([0.62])
    expected = 0.5 * (bed.dbdx(0.6) + bed.dbdx(0.62))
    assert cell_slope(bed, xl, xr) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        cell_slope(bed, np.array([0.5]), np.array([0.5]))
