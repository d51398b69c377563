"""Gridded differential forms: order-2 finite differences on atlas grids.

Two grid kinds are supported:

* "base": fields on the CP^1 chart squares, shape (n_v, n_v), axes (x, y).
* "total": fields on the 4-real-dimensional blow-up charts, shape
  (n_v, n_v, n_r, n_theta), axes (x, y, s, t).  Derivatives with respect to
  the Cartesian fiber coordinates (s, t) are obtained from the polar fiber
  grid by the chain rule; the angular derivative uses the periodic central
  stencil so every partial is order 2.

Components live in the real coordinate coframe (dx, dy[, ds, dt]) and are
stored per chart in immutable dictionaries.
"""

from __future__ import annotations

import numpy as np

from . import exterior
from .atlas import ChartAtlas


class GridForm:
    """A p-form sampled on the atlas grids of one or more charts."""

    def __init__(self, atlas: ChartAtlas, kind, degree, comps):
        if kind not in ("base", "total"):
            raise ValueError("kind must be 'base' or 'total'")
        self.atlas = atlas
        self.kind = kind
        self.degree = degree
        self.dim = 2 if kind == "base" else 4
        store = {}
        for chart, cc in comps.items():
            chart_store = {}
            for idx, arr in cc.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(idx):
                    raise ValueError(f"bad index tuple {idx}")
                arr = np.asarray(arr, dtype=complex)
                arr.setflags(write=False)
                chart_store[idx] = arr
            store[chart] = chart_store
        self.comps = store

    @property
    def charts(self):
        return tuple(sorted(self.comps))

    def component(self, chart, idx=()):
        idx = tuple(idx)
        cc = self.comps[chart]
        if idx in cc:
            return cc[idx]
        shape = next(iter(cc.values())).shape if cc else self._shape()
        return np.zeros(shape, dtype=complex)

    def _shape(self):
        if self.kind == "base":
            return (self.atlas.n_v, self.atlas.n_v)
        return (
            self.atlas.n_v,
            self.atlas.n_v,
            self.atlas.fiber.n_r,
            self.atlas.fiber.n_theta,
        )

    # -- construction helpers -----------------------------------------
    @classmethod
    def scalar(cls, atlas, kind, values):
        return cls(atlas, kind, 0, {c: {(): a} for c, a in values.items()})

    @classmethod
    def from_analytic(cls, form, atlas, kind, charts=None):
        """Sample an AnalyticForm (or per-chart dict of them) onto grids."""
        if charts is None:
            charts = atlas.charts
        comps = {}
        for chart in charts:
            af = form[chart] if isinstance(form, dict) else form
            pts, shape = _chart_points(atlas, kind, chart)
            vals = af.evaluate(pts)
            comps[chart] = {idx: arr.reshape(shape) for idx, arr in vals.items()}
        return cls(atlas, kind, form[charts[0]].degree if isinstance(form, dict) else form.degree, comps)

    # -- algebra ------------------------------------------------------
    def _check(self, other):
        if self.atlas is not other.atlas or self.kind != other.kind:
            raise ValueError("mismatched atlases")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        comps = {}
        for chart in self.charts:
            cc = dict(self.comps[chart])
            for idx, arr in other.comps[chart].items():
                cc[idx] = cc.get(idx, 0) + arr
            comps[chart] = cc
        return GridForm(self.atlas, self.kind, self.degree, comps)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        comps = {
            c: {i: factor * a for i, a in cc.items()} for c, cc in self.comps.items()
        }
        return GridForm(self.atlas, self.kind, self.degree, comps)

    def mul_scalar_field(self, scalar):
        """Pointwise multiply by a 0-form GridForm."""
        self._check(scalar)
        comps = {}
        for chart in self.charts:
            f = scalar.component(chart, ())
            comps[chart] = {i: a * f for i, a in self.comps[chart].items()}
        return GridForm(self.atlas, self.kind, self.degree, comps)

    def wedge(self, other):
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.dim:
            raise ValueError("degree overflow in wedge")
        comps = {}
        for chart in self.charts:
            cc = {}
            for I, a in self.comps[chart].items():
                for J, b in other.comps[chart].items():
                    res = exterior.merge_indices(I, J)
                    if res is None:
                        continue
                    sign, K = res
                    cc[K] = cc.get(K, 0) + sign * a * b
            comps[chart] = cc
        return GridForm(self.atlas, self.kind, deg, comps)

    def interior(self, X):
        """Interior product; X maps chart -> array (..., dim)."""
        if self.degree == 0:
            raise ValueError("degree mismatch: cannot contract a 0-form")
        comps = {}
        for chart in self.charts:
            cc = {}
            Xc = np.asarray(X[chart])
            for idx, arr in self.comps[chart].items():
                for k in idx:
                    sign, new = exterior.remove_index(idx, k)
                    cc[new] = cc.get(new, 0) + sign * Xc[..., k] * arr
            comps[chart] = cc
        return GridForm(self.atlas, self.kind, self.degree - 1, comps)

    def max_abs(self, interior_margin=0):
        """Max absolute component; optionally ignore boundary layers."""
        m = 0.0
        for chart in self.charts:
            for arr in self.comps[chart].values():
                a = arr
                if interior_margin:
                    g = interior_margin
                    sl = [slice(g, -g), slice(g, -g)]
                    if self.kind == "total":
                        sl += [slice(g, -g), slice(None)]
                    a = arr[tuple(sl)]
                if a.size:
                    m = max(m, float(np.max(np.abs(a))))
        return m

    # -- calculus -----------------------------------------------------
    def _partials(self, chart, arr):
        """All first partials of arr w.r.t. the real chart coordinates."""
        at = self.atlas
        h = at.h
        if self.kind == "base":
            dx = np.gradient(arr, h, axis=0, edge_order=2)
            dy = np.gradient(arr, h, axis=1, edge_order=2)
            return [dx, dy]
        dx = np.gradient(arr, h, axis=0, edge_order=2)
        dy = np.gradient(arr, h, axis=1, edge_order=2)
        radii = at.fiber.radii
        dr = np.gradient(arr, radii, axis=2, edge_order=2)
        dtheta_step = 2.0 * np.pi / at.fiber.n_theta
        dth = (np.roll(arr, -1, axis=3) - np.roll(arr, 1, axis=3)) / (2 * dtheta_step)
        th = at.fiber.thetas[None, None, None, :]
        r = radii[None, None, :, None]
        ds = np.cos(th) * dr - np.sin(th) / r * dth
        dt = np.sin(th) * dr + np.cos(th) / r * dth
        return [dx, dy, ds, dt]

    def d(self):
        if self.degree >= self.dim:
            raise ValueError("degree overflow in exterior derivative")
        comps = {}
        for chart in self.charts:
            cc = {}
            for idx, arr in self.comps[chart].items():
                parts = self._partials(chart, arr)
                for k in range(self.dim):
                    if k in idx:
                        continue
                    sign, new = exterior.insert_index(idx, k)
                    cc[new] = cc.get(new, 0) + sign * parts[k]
            comps[chart] = cc
        return GridForm(self.atlas, self.kind, self.degree + 1, comps)

    def jconj(self, J=None):
        """Tensor action of an almost complex structure on the form.

        J is None for the standard structure, or a mapping chart -> array
        (..., dim, dim) of J matrices at the nodes (degree <= 2 then).
        """
        psign = (-1) ** self.degree
        comps = {}
        if J is None:
            # source-index loop; the inverse-map signs absorb (-1)^p, see
            # the matching comment in symforms.AnalyticForm.jconj
            for chart in self.charts:
                cc = {}
                for idx, arr in self.comps[chart].items():
                    res = exterior.jo_on_indices(idx)
                    if res is None:
                        continue
                    sign, new = res
                    cc[new] = cc.get(new, 0) + sign * arr
                comps[chart] = cc
            return GridForm(self.atlas, self.kind, self.degree, comps)
        if self.degree > 2:
            raise ValueError("nodewise J action implemented for degree <= 2")
        for chart in self.charts:
            Jc = np.asarray(J[chart])
            _assert_almost_complex(Jc)
            cc = {}
            if self.degree == 0:
                comps[chart] = dict(self.comps[chart])
                continue
            if self.degree == 1:
                for i in range(self.dim):
                    acc = 0
                    for (j,), arr in self.comps[chart].items():
                        acc = acc + arr * Jc[..., j, i]
                    acc = -acc  # (J a)(X) = -a(JX)
                    if np.any(acc):
                        cc[(i,)] = acc
            else:
                full = {}
                for (i, j), arr in self.comps[chart].items():
                    full[(i, j)] = arr
                for i in range(self.dim):
                    for j in range(i + 1, self.dim):
                        acc = 0
                        for (k, l), arr in full.items():
                            acc = acc + arr * (
                                Jc[..., k, i] * Jc[..., l, j]
                                - Jc[..., l, i] * Jc[..., k, j]
                            )
                        if np.any(acc):
                            cc[(i, j)] = acc
            comps[chart] = cc
        return GridForm(self.atlas, self.kind, self.degree, comps)

    def dc(self, J=None):
        out = self.jconj(J).d().jconj(J)
        return out.scale(float((-1) ** self.degree))


def _assert_almost_complex(Jc, tol=1e-8):
    dim = Jc.shape[-1]
    sq = np.einsum("...ij,...jk->...ik", Jc, Jc)
    err = np.max(np.abs(sq + np.eye(dim)))
    if err > tol:
        raise ValueError(f"J is not almost complex: max |J^2 + Id| = {err:.3e}")


def _chart_points(atlas, kind, chart):
    if kind == "base":
        V = atlas.base_points(chart)
        pts = np.stack([V.real.ravel(), V.imag.ravel()], axis=1)
        return pts, V.shape
    tp = atlas.total_points(chart)
    shape = tp.shape[:-1]
    return tp.reshape(-1, 4), shape


def integrate_base(form, region="CP1"):
    """Integrate a base 2-form.

    region "CP1": partition-of-unity weighted sum over both charts, so each
    point of CP^1 counts exactly once.  region (chart id): single square.
    """
    if form.kind != "base" or form.degree != 2:
        raise ValueError("integrate_base expects a base 2-form")
    at = form.atlas
    total = 0.0 + 0.0j
    charts = at.charts if region == "CP1" else (region,)
    for chart in charts:
        comp = form.component(chart, (0, 1))
        if region == "CP1":
            qw = at.base_quad_weights(chart)
        else:
            w = np.full(at.n_v, at.h)
            w[0] *= 0.5
            w[-1] *= 0.5
            qw = w[:, None] * w[None, :]
        total += np.sum(comp * qw)
    return total


def chart_consistency_residual(form):
    """Max mismatch of a base form under the CP^1 chart transition.

    Pulls chart-1 components back to chart-0 coordinates on overlap nodes
    (0.85 <= |v| <= 1.18, interior of both charts) and compares with the
    chart-0 samples via bilinear interpolation of the chart-1 arrays.
    """
    from scipy.interpolate import RegularGridInterpolator

    at = form.atlas
    if form.kind != "base" or at.n != 2:
        raise ValueError("chart consistency implemented for n = 2 base forms")
    V0 = at.base_points(0)
    mask = (np.abs(V0) >= 0.85) & (np.abs(V0) <= 1.18)
    v = V0[mask]
    w = 1.0 / v
    Jc = at.transition_jacobian(v)  # d(w)/d(v) real 2x2

    def interp(chart, idx):
        arr = form.component(chart, idx)
        fr = RegularGridInterpolator((at.xs, at.xs), arr.real)
        fi = RegularGridInterpolator((at.xs, at.xs), arr.imag)
        pts = np.stack([w.real, w.imag], axis=1)
        return fr(pts) + 1j * fi(pts)

    worst = 0.0
    if form.degree == 0:
        a0 = form.component(0, ())[mask]
        a1 = interp(1, ())
        worst = float(np.max(np.abs(a0 - a1)))
    elif form.degree == 1:
        b = np.stack([interp(1, (0,)), interp(1, (1,))], axis=1)
        pulled = np.einsum("nj,nji->ni", b, Jc)
        a = np.stack(
            [form.component(0, (0,))[mask], form.component(0, (1,))[mask]], axis=1
        )
        worst = float(np.max(np.abs(a - pulled)))
    elif form.degree == 2:
        b01 = interp(1, (0, 1))
        det = Jc[:, 0, 0] * Jc[:, 1, 1] - Jc[:, 0, 1] * Jc[:, 1, 0]
        a01 = form.component(0, (0, 1))[mask]
        worst = float(np.max(np.abs(a01 - b01 * det)))
    else:
        raise ValueError("degree out of range for consistency check")
    return worst


# ---------------------------------------------------------------------------
# grid field dump


def dump_records(records, path, binary=False):
    """Write chart records of complex grid data.

    records is a sequence of (chart_id, array); each record stores the
    chart id, the grid shape, and the row-major complex values as pairs
    of doubles: decimal text in text mode, little-endian IEEE-754 in
    binary mode.
    """
    import struct

    if binary:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<q", len(records)))
            for chart, arr in records:
                arr = np.ascontiguousarray(np.asarray(arr, dtype=complex))
                fh.write(struct.pack("<qq", int(chart), arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
                fh.write(arr.astype("<c16").tobytes())
        return
    with open(path, "w") as fh:
        for chart, arr in records:
            arr = np.asarray(arr, dtype=complex)
            shape = " ".join(str(s) for s in arr.shape)
            fh.write(f"chart {int(chart)} shape {shape}\n")
            for val in arr.ravel():
                fh.write(f"{val.real:.17e} {val.imag:.17e}\n")


def load_records(path, binary=False):
    """Read back a grid field dump written by dump_records."""
    import struct

    records = []
    if binary:
        with open(path, "rb") as fh:
            (count,) = struct.unpack("<q", fh.read(8))
            for _ in range(count):
                chart, ndim = struct.unpack("<qq", fh.read(16))
                shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
                n_items = int(np.prod(shape)) if shape else 1
                data = np.frombuffer(fh.read(16 * n_items), dtype="<c16")
                records.append((chart, data.reshape(shape).astype(complex)))
        return records
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        head = lines[i].split()
        chart = int(head[1])
        shape = tuple(int(s) for s in head[3:])
        n_items = int(np.prod(shape)) if shape else 1
        vals = np.empty(n_items, dtype=complex)
        for j in range(n_items):
            re, im = lines[i + 1 + j].split()
            vals[j] = float(re) + 1j * float(im)
        records.append((chart, vals.reshape(shape)))
        i += 1 + n_items
    return records
