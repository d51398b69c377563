"""Exterior calculus kernel: symbolic path, gridded path, calibration."""

import numpy as np
import pytest
import sympy as sp

from maform.atlas import ChartAtlas, FiberGrid, overlap_weight
from maform.gridforms import GridForm, chart_consistency_residual, integrate_base
from maform.symforms import AnalyticForm, compile_exprs, real_coords

RNG = np.random.default_rng(20260825)


def sample_points(dim, n=10, lo=-0.9, hi=0.9):
    return RNG.uniform(lo, hi, size=(n, dim))


class TestCompileExprs:
    def test_matches_per_component_lambdify(self):
        x, y, s, t = real_coords(4)
        exprs = [
            sp.exp(x * t) * sp.sin(y + s) / (1 + x**2 + y**2),
            sp.log(1 + s**2 + t**2) + sp.I * x * y,
            sp.Integer(3),
            sp.Integer(0),
        ]
        pts = sample_points(4, n=25)
        got = compile_exprs((x, y, s, t), exprs)(*pts.T)
        assert got.shape == (4, 25)
        for expr, row in zip(exprs, got):
            plain = sp.lambdify((x, y, s, t), expr, modules="numpy")(*pts.T)
            want = np.broadcast_to(np.asarray(plain, dtype=complex), (25,))
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(np.abs(want), 1e-300))

    def test_memo_returns_the_same_callable(self):
        x, y = real_coords(2)
        first = compile_exprs((x, y), [x * y, x + y])
        assert compile_exprs([x, y], (x * y, y + x)) is first
        assert compile_exprs((x, y), [x * y]) is not first


class TestAnalyticCalculus:
    def test_d_of_modulus_squared(self):
        x, y = real_coords(2)
        f = AnalyticForm.scalar((x, y), x**2 + y**2)
        df = f.d()
        assert sp.simplify(df.comps[(0,)] - 2 * x) == 0
        assert sp.simplify(df.comps[(1,)] - 2 * y) == 0

    def test_d_of_rotational_one_form(self):
        x, y = real_coords(2)
        a = AnalyticForm((x, y), 1, {(0,): -y, (1,): x})
        da = a.d()
        assert sp.simplify(da.comps[(0, 1)] - 2) == 0

    def test_d_squared_is_zero_symbolically(self):
        x, y, s, t = real_coords(4)
        f = AnalyticForm.scalar((x, y, s, t), sp.exp(x * t) * sp.sin(y + s))
        dd = f.d().d()
        pts = sample_points(4)
        assert dd.max_abs_at(pts) < 1e-12

    def test_dc_calibration_ddc_mod_sq_is_4_dxdy(self):
        # the fixed convention: ddc |z|^2 = 4 dx^dy
        x, y = real_coords(2)
        f = AnalyticForm.scalar((x, y), x**2 + y**2)
        dcf = f.dc()
        assert sp.simplify(dcf.comps[(0,)] + 2 * y) == 0
        assert sp.simplify(dcf.comps[(1,)] - 2 * x) == 0
        ddc = dcf.d()
        assert sp.simplify(ddc.comps[(0, 1)] - 4) == 0

    def test_ddc_log_mod_sq_harmonic(self):
        x, y = real_coords(2)
        f = AnalyticForm.scalar((x, y), sp.log(x**2 + y**2))
        ddc = f.dc().d()
        pts = sample_points(2, lo=0.1, hi=0.9)
        assert ddc.max_abs_at(pts) < 1e-12

    def test_ddc_tau_o_positive_hermitian(self):
        # tau_o = |zeta|^2 (1+|v|^2) on the ball chart; Hermitian positivity
        # cross-checked against the independent complex-Hessian oracle.
        x, y, s, t = real_coords(4)
        tau = AnalyticForm.scalar((x, y, s, t), (s**2 + t**2) * (1 + x**2 + y**2))
        ddc = tau.dc().d()
        pts = sample_points(4, lo=0.15, hi=0.9)
        A = ddc.matrix_at(pts).real
        from maform.exterior import standard_j_matrix

        J = standard_j_matrix(4)
        g = 0.5 * (A @ J + (A @ J).swapaxes(1, 2))
        eigs = np.linalg.eigvalsh(g)
        assert np.min(eigs) > 0

        # oracle: complex Hessian of tau in the complex chart coordinates
        v, vb, ze, zb = sp.symbols("v vb ze zb")
        tau_c = (ze * zb) * (1 + v * vb)
        H = sp.Matrix(
            [
                [sp.diff(tau_c, v, vb), sp.diff(tau_c, v, zb)],
                [sp.diff(tau_c, ze, vb), sp.diff(tau_c, ze, zb)],
            ]
        )
        for p in pts[:3]:
            vv = p[0] + 1j * p[1]
            zz = p[2] + 1j * p[3]
            Hn = np.array(
                H.subs({v: vv, vb: np.conj(vv), ze: zz, zb: np.conj(zz)}), dtype=complex
            )
            assert np.min(np.linalg.eigvalsh(0.5 * (Hn + Hn.conj().T))) > 0

    def test_wedge_unit_and_interior(self):
        x, y = real_coords(2)
        one = AnalyticForm.scalar((x, y), 1)
        dxdy = AnalyticForm((x, y), 2, {(0, 1): 1})
        assert one.wedge(dxdy).comps == {(0, 1): sp.Integer(1)}
        # interior(d/dx, dx^dy) = dy
        iota = dxdy.interior([1, 0])
        assert iota.comps == {(1,): sp.Integer(1)}

    def test_wedge_anticommutes(self):
        x, y, s, t = real_coords(4)
        a = AnalyticForm((x, y, s, t), 1, {(0,): x * t, (2,): y})
        b = AnalyticForm((x, y, s, t), 1, {(1,): s, (3,): x})
        ab = a.wedge(b)
        ba = b.wedge(a)
        pts = sample_points(4)
        assert (ab + ba).max_abs_at(pts) < 1e-14

    def test_leibniz_symbolic(self):
        x, y, s, t = real_coords(4)
        a = AnalyticForm((x, y, s, t), 1, {(0,): x * y, (3,): s})
        b = AnalyticForm((x, y, s, t), 1, {(1,): t * x, (2,): y * y})
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) - a.wedge(b.d())
        pts = sample_points(4)
        assert (lhs - rhs).max_abs_at(pts) < 1e-13


class TestGriddedCalculus:
    def _atlas(self, n_v):
        # refine base and fiber together so the spacing halves in every
        # direction: n_r in 8/15/29 keeps the radial window fixed
        n_r = max(8, (n_v - 5) // 2)
        n_th = 16 * ((n_v - 1) // 16)
        return ChartAtlas(n=2, n_v=n_v, fiber=FiberGrid(n_r=n_r, n_theta=max(16, n_th)))

    def _smooth_scalar(self):
        # low angular bandwidth in the fiber (polynomial in s, t) so the
        # measured convergence rate is the clean base-direction order 2
        x, y, s, t = real_coords(4)
        expr = sp.sin(x) * sp.exp(y / 2) * (s**2 - t**2 + s * t) + x * y * s
        return AnalyticForm.scalar((x, y, s, t), expr)

    def test_d_matches_analytic_order2(self):
        f = self._smooth_scalar()
        errs = []
        for n_v in (33, 65):
            at = self._atlas(n_v)
            g = GridForm.from_analytic(f, at, "total", charts=(0,))
            dg = g.d()
            d_exact = GridForm.from_analytic(f.d(), at, "total", charts=(0,))
            errs.append((dg - d_exact).max_abs(interior_margin=2))
        assert errs[1] < errs[0] / 3.0  # order-2 convergence

    def test_dd_residual_order2(self):
        f = self._smooth_scalar()
        errs = []
        for n_v in (33, 65):
            at = self._atlas(n_v)
            g = GridForm.from_analytic(f, at, "total", charts=(0,))
            errs.append(g.d().d().max_abs(interior_margin=2))
        assert errs[0] < 0.5  # smooth field, coarse grid
        assert errs[1] < errs[0] / 3.0

    def test_gridded_leibniz(self):
        x, y, s, t = real_coords(4)
        a_sym = AnalyticForm((x, y, s, t), 1, {(0,): sp.sin(x * y), (3,): s})
        b_sym = AnalyticForm((x, y, s, t), 1, {(1,): t + x, (2,): y * y})
        errs = []
        for n_v in (17, 33):
            at = self._atlas(n_v)
            a = GridForm.from_analytic(a_sym, at, "total", charts=(0,))
            b = GridForm.from_analytic(b_sym, at, "total", charts=(0,))
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) - a.wedge(b.d())
            errs.append((lhs - rhs).max_abs(interior_margin=2))
        assert errs[1] < errs[0] / 3.0

    def test_gridded_dc_calibration(self):
        x, y = real_coords(2)
        f = AnalyticForm.scalar((x, y), x**2 + y**2)
        at = self._atlas(33)
        g = GridForm.from_analytic(f, at, "base", charts=(0,))
        ddc = g.dc().d()
        comp = ddc.component(0, (0, 1))
        assert np.max(np.abs(comp[2:-2, 2:-2] - 4.0)) < 1e-10  # exact for quadratics

    def test_dc_rejects_non_almost_complex(self):
        at = self._atlas(9)
        ones = {0: np.ones((9, 9))}
        g = GridForm.scalar(at, "base", ones)
        dg = g.d()
        bad = {0: np.zeros((9, 9, 2, 2))}
        with pytest.raises(ValueError, match="not almost complex"):
            dg.jconj(bad)

    def test_degree_overflow_and_mismatch_errors(self):
        at = self._atlas(9)
        g = GridForm.scalar(at, "base", {0: np.ones((9, 9))})
        two = g.d().wedge(g.d())  # degree 2 on a 2-dim chart
        with pytest.raises(ValueError, match="overflow"):
            two.d()
        other = GridForm.scalar(self._atlas(9), "base", {0: np.ones((9, 9))})
        with pytest.raises(ValueError, match="mismatched"):
            g + other


class TestAtlasAndIntegration:
    def test_partition_of_unity(self):
        r = np.linspace(0.05, 3.0, 200)
        w = overlap_weight(r)
        w_inv = overlap_weight(1.0 / r)
        assert np.max(np.abs(w + w_inv - 1.0)) < 1e-14
        assert np.all(w[r <= 0.8] == 1.0)
        assert np.all(w[r >= 1.25] == 0.0)

    def test_fubini_study_integral(self):
        # integrate omega_o over CP^1 via the partition of unity; the oracle
        # is the closed-form chart integral int_C dA/(1+|v|^2)^2 = pi, and
        # under the fixed convention omega_o = 4 dA/(1+r^2)^2, so 4*pi.
        x, y = real_coords(2)
        omega = AnalyticForm((x, y), 2, {(0, 1): 4 / (1 + x**2 + y**2) ** 2})
        at = ChartAtlas(n=2, n_v=65)
        g = GridForm.from_analytic(omega, at, "base")
        val = integrate_base(g, "CP1")
        oracle = 4.0 * np.pi
        assert abs(val - oracle) < 1e-6

    def test_chart_consistency_of_transition_invariant_field(self):
        # the scalar (m/m_o)^2 for the ellipsoid is a global function on CP^1
        x, y = real_coords(2)
        r2 = x**2 + y**2
        f0 = AnalyticForm.scalar((x, y), (1 + 4 * r2) / (1 + r2))
        f1 = AnalyticForm.scalar((x, y), (r2 + 4) / (1 + r2))
        at = ChartAtlas(n=2, n_v=65)
        g = GridForm(
            at,
            "base",
            0,
            {
                0: {(): f0.evaluate(_grid_pts(at, 0))[()].reshape(65, 65)},
                1: {(): f1.evaluate(_grid_pts(at, 1))[()].reshape(65, 65)},
            },
        )
        # mismatch includes the bilinear comparison interpolation, so the
        # contract is the stencil tolerance 10*h^2, not machine precision
        assert chart_consistency_residual(g) < 10 * at.h**2
        dg = GridForm(
            at,
            "base",
            1,
            {c: GridForm.from_analytic({0: f0, 1: f1}[c], at, "base", charts=(c,)).d().comps[c] for c in (0, 1)},
        )
        h = at.h
        assert chart_consistency_residual(dg) < 10 * h**2


def _grid_pts(at, chart):
    V = at.base_points(chart)
    return np.stack([V.real.ravel(), V.imag.ravel()], axis=1)
