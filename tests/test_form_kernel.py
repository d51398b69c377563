"""Exterior calculus kernel: compiled evaluation, symbolic calculus, calibration."""

import numpy as np
import pytest
import sympy as sp

from maform.domains import _mu_sq_expression, ambient_coords
from maform.symforms import AnalyticForm, Jet, compile_exprs, real_coords

RNG = np.random.default_rng(20260825)


def sample_points(dim, n=10, lo=-0.9, hi=0.9):
    return RNG.uniform(lo, hi, size=(n, dim))


def max_abs(form, points):
    """Largest absolute component value of a symbolic form over points."""
    return max((float(np.max(np.abs(v))) for v in form.evaluate(points).values()), default=0.0)


def kernel_exprs():
    x, y, s, t = real_coords(4)
    return (x, y, s, t), [
        sp.exp(x * t) * sp.sin(y + s) / (1 + x**2 + y**2),
        sp.log(1 + s**2 + t**2) + sp.I * x * y,
        sp.Integer(3),
        sp.Integer(0),
    ]


class TestCompileExprs:
    def test_matches_per_component_lambdify(self):
        (x, y, s, t), exprs = kernel_exprs()
        pts = sample_points(4, n=25)
        got = compile_exprs((x, y, s, t), exprs)(*pts.T)
        assert got.shape == (4, 25)
        for expr, row in zip(exprs, got):
            plain = sp.lambdify((x, y, s, t), expr, modules="numpy")(*pts.T)
            want = np.broadcast_to(np.asarray(plain, dtype=complex), (25,))
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(np.abs(want), 1e-300))

    def test_bitwise_equal_to_star_import_namespace(self):
        # compiled code calls numpy.<name> in the namespace {"numpy": numpy};
        # lambdify's "numpy" module string star-imports numpy instead
        coords, exprs = kernel_exprs()
        pts = sample_points(4, n=25)
        got = compile_exprs(coords, exprs)(*pts.T)
        star = sp.lambdify(coords, exprs, modules="numpy", cse=True)(*pts.T)
        for row, want in zip(got, star):
            assert np.array_equal(row, np.broadcast_to(want, row.shape))

    def test_memo_returns_the_same_callable(self):
        x, y = real_coords(2)
        first = compile_exprs((x, y), [x * y, x + y])
        assert compile_exprs([x, y], (x * y, y + x)) is first
        assert compile_exprs((x, y), [x * y]) is not first


class TestJet:
    @pytest.mark.parametrize(
        "n, kind, params",
        [
            (2, "ball", {}),
            (2, "ellipsoid", {"a": 1, "b": 4}),
            (2, "perturbed_ball", {"eps": 0.05}),
            (3, "ball", {}),
            (3, "ellipsoid", {}),
        ],
    )
    def test_gauge_derivatives_match_sympy_diff(self, n, kind, params):
        coords = ambient_coords(n)
        mu_sq = _mu_sq_expression(n, kind, params, coords)
        pts = sample_points(2 * n, n=40, lo=-1.5, hi=1.5)
        jet = Jet.of(mu_sq, coords, pts)
        grad = [sp.diff(mu_sq, c) for c in coords]
        hess = [sp.diff(g, c) for g in grad for c in coords]
        want = compile_exprs(coords, [mu_sq] + grad + hess)(*pts.T).real
        d = len(coords)
        for got, ref in (
            (jet.val, want[0]),
            (jet.grad, want[1:d + 1].T),
            (jet.hess, want[d + 1:].T.reshape(-1, d, d)),
        ):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_arithmetic_with_numbers_on_either_side(self):
        x, y = real_coords(2)
        pts = sample_points(2, n=15, lo=0.2, hi=0.9)
        f = Jet.of(x, (x, y), pts)
        g = Jet.of(y, (x, y), pts)
        got = (2 - f) / (1 + g * g) ** 3 + 3 / f - f * 0.5
        expr = (2 - x) / (1 + y * y) ** 3 + 3 / x - x / 2
        want = Jet.of(expr, (x, y), pts)
        for a, b in ((got.val, want.val), (got.grad, want.grad), (got.hess, want.hess)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_other_nodes_raise(self):
        coords = ambient_coords(2)
        with pytest.raises(TypeError, match="sin"):
            Jet.of(coords[0] ** 2 + sp.sin(coords[0]), coords, sample_points(4))


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
        assert max_abs(dd, pts) < 1e-12

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
        assert max_abs(ddc, pts) < 1e-12

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
        # a product above the top degree is the zero top-degree form
        over = dxdy.wedge(AnalyticForm((x, y), 1, {(0,): x}))
        assert over.degree == 2 and over.comps == {}

    def test_degree_overflow_and_mismatch_errors(self):
        x, y = real_coords(2)
        dxdy = AnalyticForm((x, y), 2, {(0, 1): x * y})
        with pytest.raises(ValueError, match="overflow"):
            dxdy.d()
        with pytest.raises(ValueError, match="mismatched"):
            dxdy + AnalyticForm.scalar((x, y), 1)

    def test_wedge_anticommutes(self):
        x, y, s, t = real_coords(4)
        a = AnalyticForm((x, y, s, t), 1, {(0,): x * t, (2,): y})
        b = AnalyticForm((x, y, s, t), 1, {(1,): s, (3,): x})
        ab = a.wedge(b)
        ba = b.wedge(a)
        pts = sample_points(4)
        assert max_abs(ab + ba, pts) < 1e-14

    def test_leibniz_symbolic(self):
        x, y, s, t = real_coords(4)
        a = AnalyticForm((x, y, s, t), 1, {(0,): x * y, (3,): s})
        b = AnalyticForm((x, y, s, t), 1, {(1,): t * x, (2,): y * y})
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) - a.wedge(b.d())
        pts = sample_points(4)
        assert max_abs(lhs - rhs, pts) < 1e-13
