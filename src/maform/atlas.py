"""Chart atlas for the blow-up coordinates (v, zeta).

The base CP^{n-1} is covered by stereographic-style affine charts; for
n = 2 two charts with transition v -> 1/v, each a square grid of half-width
1.25 so the charts overlap.  The fiber is not sampled: a tensor carries
its fiber-Fourier modes, and mode norms are read at the one fiber radius
R_FIBER.

ChartAtlas is a named tuple that checks its fields when built: it
compares and hashes by value, so an atlas can key a cache.
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

    def base_points3(self):
        """n = 3: two complex base coordinates, each shape (n_v,)*4."""
        if self.n != 3:
            raise ValueError("base_points3 is for n = 3 atlases")
        X1, Y1, X2, Y2 = np.meshgrid(self.xs, self.xs, self.xs, self.xs, indexing="ij")
        return X1 + 1j * Y1, X2 + 1j * Y2


def blowup_forward(z):
    """Map points of C^n \\ {0} to (chart, v, zeta).

    Chart is the index of the largest-modulus homogeneous coordinate; v
    collects the remaining coordinates divided by z[chart], zeta = z[chart].
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if np.any(np.all(z == 0, axis=1)):
        raise ValueError("blow-up coordinates are undefined at z = 0")
    chart = np.argmax(np.abs(z), axis=1)
    zeta = np.take_along_axis(z, chart[:, None], axis=1)[:, 0]
    n = z.shape[1]
    rest = np.arange(n) != chart[:, None]
    v = (z / zeta[:, None])[rest].reshape(-1, n - 1)
    if single:
        return int(chart[0]), v[0], zeta[0]
    return chart, v, zeta

