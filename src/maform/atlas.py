"""Chart atlas for the blow-up coordinates (v, zeta).

The base CP^{n-1} is covered by affine charts: the chart point v at fiber
value zeta is the ambient point z = zeta (1, v), with 1 in the chart's
slot (deformation._ambient_of).  For n = 2 two charts with transition
v -> 1/v, each a square grid of half-width 1.25 so the charts overlap.
Chart geometry is read in closed form from v wherever it is needed, so
no ambient point is mapped back to a chart.  The fiber is not sampled: a
tensor carries its fiber-Fourier modes, and mode norms are read at the
one fiber radius R_FIBER.

ChartAtlas is a named tuple that checks its fields when built: it
compares and hashes by value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

R_OUTER = 1.25
# the fiber radius |zeta| at which mode norms are read
R_FIBER = 0.9


class _AtlasFields(NamedTuple):
    n: int = 2
    n_v: int = 33
    box: float = R_OUTER


class ChartAtlas(_AtlasFields):
    """Chart and grid bookkeeping for the blow-up of C^n at 0.

    n = 2: two base charts of CP^1 (coordinates v and w = 1/v).
    n = 3: a single affine chart of CP^2 at coarse resolution (n_v <= 12),
    the grid of the n = 3 tensor specs that classify --tensor and
    scale-test read: their mode norms and integrability checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n not in (2, 3):
            raise ValueError("complex dimension must be 2 or 3")
        if self.n == 3 and self.n_v > 12:
            raise ValueError("n = 3 atlases are restricted to coarse grids")
        return self

    @property
    def charts(self):
        return (0, 1) if self.n == 2 else (0,)

    @property
    def xs(self):
        return np.linspace(-self.box, self.box, self.n_v)

    def base_points(self, chart):
        """Complex base coordinates on the chart grid, shape (n_v, n_v)."""
        if chart not in self.charts:
            raise ValueError(f"unknown chart {chart}")
        X, Y = np.meshgrid(self.xs, self.xs, indexing="ij")
        return X + 1j * Y

    def points(self, chart):
        """The chart nodes as a flat array: complex v, shape (N,), at n = 2
        and (v1, v2) pairs, shape (N, 2), at n = 3, in the row-major order
        of the grid (n_v,) * 2(n-1)."""
        if self.n == 2:
            return self.base_points(chart).ravel()
        if chart not in self.charts:
            raise ValueError(f"unknown chart {chart}")
        X1, Y1, X2, Y2 = np.meshgrid(self.xs, self.xs, self.xs, self.xs, indexing="ij")
        return np.stack([(X1 + 1j * Y1).ravel(), (X2 + 1j * Y2).ravel()], axis=-1)
