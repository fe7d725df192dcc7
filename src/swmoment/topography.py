"""Bathymetry profiles b(x) and the face-averaged cell slope."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FlatBed", "RunoffBed", "TabulatedBed", "cell_slope"]


@dataclass(frozen=True)
class FlatBed:
    """b(x) = 0 everywhere."""

    def b(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def dbdx(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class RunoffBed:
    """Piecewise runoff profile: flat, then parabolic blend, then constant slope.

    b(x) = 0 for x < 0.5, (10/7) tan(theta) (x-0.5)^2 for 0.5 <= x <= 0.85,
    tan(theta) (x - 0.675) for x > 0.85; C^1 at both junctions.
    """

    theta: float

    def b(self, x):
        x = np.asarray(x, dtype=float)
        t = math.tan(self.theta)
        return np.where(
            x < 0.5,
            0.0,
            np.where(x <= 0.85, (10.0 / 7.0) * t * (x - 0.5) ** 2, t * (x - 0.675)),
        )

    def dbdx(self, x):
        x = np.asarray(x, dtype=float)
        t = math.tan(self.theta)
        return np.where(
            x < 0.5,
            0.0,
            np.where(x <= 0.85, (20.0 / 7.0) * t * (x - 0.5), t),
        )


@dataclass(frozen=True)
class TabulatedBed:
    """Piecewise-linear bed through strictly increasing sample points."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or len(x) < 2:
            raise ValueError("tabulated bed needs matching 1-D arrays of length >= 2")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("tabulated bed abscissae must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    def _check_domain(self, xq):
        xq = np.asarray(xq, dtype=float)
        if np.any(xq < self.x[0]) or np.any(xq > self.x[-1]):
            raise ValueError(f"tabulated bed queried on [{np.min(xq)}, {np.max(xq)}], outside "
                             f"its samples [{self.x[0]}, {self.x[-1]}]")
        return xq

    def b(self, xq):
        return np.interp(self._check_domain(xq), self.x, self.values)

    def dbdx(self, xq):
        xq = self._check_domain(xq)
        idx = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, len(self.x) - 2)
        return (self.values[idx + 1] - self.values[idx]) / (self.x[idx + 1] - self.x[idx])

    @classmethod
    def from_file(cls, path) -> "TabulatedBed":
        """Read the samples from a text file of two whitespace-separated
        columns, x and b, one sample per line ("#" starts a comment)."""
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"expected two whitespace-separated columns in {path}")
        return cls(x=data[:, 0], values=data[:, 1])


def cell_slope(bed, x_left, x_right):
    """Cell-average slope: the mean of the analytic slopes at the two faces."""
    x_left = np.asarray(x_left, dtype=float)
    x_right = np.asarray(x_right, dtype=float)
    if np.any(x_left >= x_right):
        raise ValueError("cell faces must satisfy x_left < x_right")
    return 0.5 * (bed.dbdx(x_left) + bed.dbdx(x_right))
