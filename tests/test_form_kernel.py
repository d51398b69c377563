"""The expression nodes and their compiled jets against sympy, and the
symbolic references of the tests."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import sympy as sp

from maform.domains import _FUNCTIONS, _mu_sq_expression, ambient_coords, make_circular_domain, parse_tensor_spec
from maform.symforms import Jet, _jet_source, call, num, real_coords, subs, sym
from symbolic_forms import (
    SYMPY_FUNCTIONS,
    AnalyticForm,
    from_sympy,
    lambdify_rows,
    standard_j_matrix,
    sympy_coords,
    to_sympy,
)

RNG = np.random.default_rng(20260825)


def sample_points(dim, n=10, lo=-0.9, hi=0.9):
    return RNG.uniform(lo, hi, size=(n, dim))


def max_abs(form, points):
    """Largest absolute component value of a symbolic form over points."""
    return max((float(np.max(np.abs(v))) for v in form.evaluate(points).values()), default=0.0)


def kernel_exprs():
    x, y, s, t = sympy_coords(real_coords(4))
    return (x, y, s, t), [
        sp.exp(x * t) * sp.sin(y + s) / (1 + x**2 + y**2),
        sp.log(1 + s**2 + t**2) + sp.I * x * y,
        sp.Integer(3),
        sp.Integer(0),
    ]


class TestCompileExprs:
    """Order-0 jets are the package's plain evaluation of expressions."""

    def test_matches_per_component_lambdify(self):
        (x, y, s, t), exprs = kernel_exprs()
        pts = sample_points(4, n=25)
        coords = real_coords(4)
        got = np.array([Jet.compile(from_sympy(e), coords, 0)(*pts.T)[0] for e in exprs])
        assert got.shape == (4, 25)
        for expr, row in zip(exprs, got):
            plain = sp.lambdify((x, y, s, t), expr, modules="numpy")(*pts.T)
            want = np.broadcast_to(np.asarray(plain, dtype=complex), (25,))
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(np.abs(want), 1e-300))

    def test_memo_returns_the_same_callable(self):
        # nodes are hash-consed: a tree built again is the same node and
        # finds the same callable
        x, y = real_coords(2)
        first = Jet.compile(x * y + x, (x, y), 1)
        assert x * y + x is x * y + x
        assert Jet.compile(x * y + x, [x, y], 1) is first
        assert Jet.compile(x * y + x, (x, y), 2) is not first
        assert Jet.compile(x * y, (x, y), 1) is not first

    def test_tensor_mode_coefficients_at_complex_points(self):
        # tensor spec coefficients are order-0 jets in the complex base
        # coordinate, evaluated at complex points as they are
        _, (v,), modes = parse_tensor_spec(
            "k_max = 1\n"
            "mode 0 1 1 = 0.05/(1 + v*conj(v)) + 0.2*v**2*conj(v)\n"
            "mode 1 1 1 = abs(v)*exp(I*v) - re(v)*im(v)**3 + 3\n"
        )
        pts = np.array([0.3 + 0.4j, -0.7 + 0.1j, 0.05 - 0.9j])
        for *_, expr in modes:
            got = Jet.compile(expr, (v,), 0)(pts)[0]
            ref = to_sympy(expr, real=False)
            want = np.array([complex(ref.subs(sp.Symbol("v"), p).evalf()) for p in pts])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # a constant coefficient takes the shape of the points
        assert Jet.compile(0.2, (v,), 0)(pts)[0].shape == pts.shape


class TestNodes:
    """Nodes fold numbers at construction and substitute by rebuilding."""

    def test_numbers_fold(self):
        x, y = real_coords(2)
        assert x + 0 is x and 1 * x is x and x**1 is x
        assert 0 * x is num(0) and x**0 is num(1)
        assert num(2) * 3 + 1 is num(7) and call("exp", 0) is num(1)
        assert num(1j) * 1j is num(-1)  # a complex number with no imaginary part is real
        assert (2 * x) ** 2 is 4 * x**2 and (x**3) ** -1 is x**-3
        assert x + y + 2 is num(2) + (x + y) and (x + y + 2).args == (num(2), x, y)
        assert x - x is num(0) and x + y + x is 2 * x + y and x * y - 0.5 * x * y is 0.5 * x * y

    def test_subs_rebuilds_and_folds(self):
        x, y = real_coords(2)
        shared = x**2 + y**2
        expr = shared * call("sin", shared) / (1 + shared)
        out = subs(expr, {x: 0.5, y: num(0)})
        assert out is num(0.25 * math.sin(0.25) * 1.25**-1)
        assert subs(expr, {x: y, y: x}) is (y**2 + x**2) * call("sin", y**2 + x**2) / (1 + y**2 + x**2)

    def test_sympy_round_trip(self):
        for expr in RULE_CASES.values():
            node = from_sympy(expr)
            assert from_sympy(to_sympy(node)) is node


def _rule_cases():
    """Expressions in (x, y) that reach every jet rule: each function of the
    spec grammar at a real and at a complex argument inside its domain
    (unevaluated, so sympy keeps the node), numbers, a complex
    intermediate and powers with a non-numeric exponent."""
    x, y = sympy_coords(real_coords(2))
    inner = sp.Rational(3, 10) + x * y / 5 + x**2 / 10
    cases = {}
    for name, kind in _FUNCTIONS.items():
        func = sp.sqrt if kind == "sqrt" else SYMPY_FUNCTIONS[kind]
        shift = 2 if name == "acosh" else 0
        cases[f"{name}-real"] = func(inner + shift, evaluate=False)
        cases[f"{name}-complex"] = func(inner + shift + sp.I * y**2 / 10, evaluate=False)
    cases["numbers"] = sp.pi * x + sp.E * y**2 + sp.I * x * y + sp.sqrt(2)
    cases["complex_product"] = (x + sp.I * y) * (x - sp.I * y)
    cases["symbolic_exponent"] = x ** (y + 1)
    cases["numeric_base"] = 2 ** (x * y)
    cases["numbers_either_side"] = (2 - x) / (1 + y * y) ** 3 + 3 / x - x / 2
    return (x, y), cases


RULE_COORDS, RULE_CASES = _rule_cases()


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
        nodes = ambient_coords(n)
        mu_sq = _mu_sq_expression(n, kind, params, nodes)
        pts = sample_points(2 * n, n=40, lo=-1.5, hi=1.5)
        jet = Jet.of(mu_sq, nodes, pts, order=3)
        coords = sympy_coords(nodes)
        partials = {(): to_sympy(mu_sq)}
        for order in (1, 2, 3):
            for idx in itertools.combinations_with_replacement(range(len(coords)), order):
                partials[idx] = sp.diff(partials[idx[:-1]], coords[idx[-1]])
        want = lambdify_rows(coords, list(partials.values()))(*pts.T).real
        for idx, ref in zip(partials, want):
            got = jet.parts[len(idx)][(slice(None),) + idx]
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0), idx

    @pytest.mark.parametrize("case", list(RULE_CASES))
    def test_rules_match_sympy_partials(self, case):
        expr, coords = RULE_CASES[case], RULE_COORDS
        pts = np.array([[0.21, 0.47], [0.55, 0.13], [0.38, 0.61]])
        jet = Jet.of(from_sympy(expr), real_coords(2), pts, order=3)
        for order in range(4):
            for idx in itertools.combinations_with_replacement(range(2), order):
                partial = sp.diff(expr, *[coords[i] for i in idx]) if idx else expr
                ref = np.array([complex(partial.subs(dict(zip(coords, p))).evalf()) for p in pts])
                got = jet.parts[order][(slice(None),) + idx]
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0), idx

    def test_orders_truncate_the_same_jet(self):
        coords = real_coords(2)
        expr = from_sympy(RULE_CASES["complex_product"] * RULE_CASES["atan-complex"])
        pts = sample_points(2, n=7, lo=0.2, hi=0.6)
        full = Jet.of(expr, coords, pts, order=3).parts
        for order in (1, 2):
            parts = Jet.of(expr, coords, pts, order=order).parts
            assert len(parts) == order + 1
            for got, want in zip(parts, full):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [{"eps": 0.05}, {"eps": 0.2, "q": {2: 1.0, 3: 0.5}}])
    def test_emitted_source_binds_each_scaled_factor_once(self, spec):
        # numpy multiplies left to right, so c * a * b is (c * a) * b and
        # the emitter binds c * a (for c = 1 and three factors or more, a
        # * b) as a name of its own: no term of the source of the chart
        # jets of log m^2 (order 3) or of mu^2 (order 2) continues a
        # product past a number times a name, so none repeats one
        mink, _ = make_circular_domain({"kind": "perturbed_ball", **spec})
        for source in (_jet_source(real_coords(2), call("log", mink.m_sq_charts[0]), 3),
                       _jet_source(ambient_coords(2), mink.mu_sq_ambient, 2)):
            terms = [term for line in source.splitlines()[1:] if " = " in line
                     for term in line.split(" = ", 1)[1].split(" + ")]
            scaled = Counter(tuple(factors[:2]) for factors in (term.split(" * ") for term in terms)
                             if len(factors) > 2 and factors[0][0] in "0123456789(")
            assert not scaled, scaled

    def test_jet_call_holds_only_live_temporaries(self):
        # each name of the emitted source is deleted after its last read:
        # evaluating 0.0763 / (1 + v conj v) at 16,641 complex points peaks
        # at two arrays, the result and the one it is computed from (five
        # when every name lived to the return)
        v = sym("v")
        fn = Jet.compile(0.0763 / (1 + v * call("conj", v)), (v,), 0)
        points = np.linspace(-1.0, 1.0, 16641) + 0.5j
        fn(points)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(points)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * points.nbytes

    @pytest.mark.parametrize("number", [num(math.inf), num(complex(1, math.inf)), num(math.nan)])
    def test_non_finite_numbers_raise(self, number):
        # the spec reader refuses them, but a node built in code may hold
        # one: it must not reach the emitted source as inf or nan
        x, y = real_coords(2)
        with pytest.raises(ValueError, match="non-finite number"):
            Jet.compile(x * y + number * x, (x, y), 0)

    def test_other_nodes_raise(self):
        coords = ambient_coords(2)
        with pytest.raises(ValueError, match="unknown function 'f'"):
            call("f", coords[0])
        with pytest.raises(TypeError, match="log takes 1"):
            call("log", coords[0], coords[1])
        with pytest.raises(ValueError, match="symbol w is not a coordinate"):
            Jet.of(coords[0] ** 2 + sym("w"), coords, sample_points(4), order=2)


class TestAnalyticCalculus:
    def test_d_of_modulus_squared(self):
        x, y = sympy_coords(real_coords(2))
        f = AnalyticForm.scalar((x, y), x**2 + y**2)
        df = f.d()
        assert sp.simplify(df.comps[(0,)] - 2 * x) == 0
        assert sp.simplify(df.comps[(1,)] - 2 * y) == 0

    def test_d_of_rotational_one_form(self):
        x, y = sympy_coords(real_coords(2))
        a = AnalyticForm((x, y), 1, {(0,): -y, (1,): x})
        da = a.d()
        assert sp.simplify(da.comps[(0, 1)] - 2) == 0

    def test_d_squared_is_zero_symbolically(self):
        x, y, s, t = sympy_coords(real_coords(4))
        f = AnalyticForm.scalar((x, y, s, t), sp.exp(x * t) * sp.sin(y + s))
        dd = f.d().d()
        pts = sample_points(4)
        assert max_abs(dd, pts) < 1e-12

    def test_dc_calibration_ddc_mod_sq_is_4_dxdy(self):
        # the fixed convention: ddc |z|^2 = 4 dx^dy
        x, y = sympy_coords(real_coords(2))
        f = AnalyticForm.scalar((x, y), x**2 + y**2)
        dcf = f.dc()
        assert sp.simplify(dcf.comps[(0,)] + 2 * y) == 0
        assert sp.simplify(dcf.comps[(1,)] - 2 * x) == 0
        ddc = dcf.d()
        assert sp.simplify(ddc.comps[(0, 1)] - 4) == 0

    def test_ddc_log_mod_sq_harmonic(self):
        x, y = sympy_coords(real_coords(2))
        f = AnalyticForm.scalar((x, y), sp.log(x**2 + y**2))
        ddc = f.dc().d()
        pts = sample_points(2, lo=0.1, hi=0.9)
        assert max_abs(ddc, pts) < 1e-12

    def test_ddc_tau_o_positive_hermitian(self):
        # tau_o = |zeta|^2 (1+|v|^2) on the ball chart; Hermitian positivity
        # cross-checked against the independent complex-Hessian oracle.
        x, y, s, t = sympy_coords(real_coords(4))
        tau = AnalyticForm.scalar((x, y, s, t), (s**2 + t**2) * (1 + x**2 + y**2))
        ddc = tau.dc().d()
        pts = sample_points(4, lo=0.15, hi=0.9)
        A = ddc.matrix_at(pts).real
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
        x, y = sympy_coords(real_coords(2))
        one = AnalyticForm.scalar((x, y), 1)
        dxdy = AnalyticForm((x, y), 2, {(0, 1): 1})
        assert one.wedge(dxdy).comps == {(0, 1): sp.Integer(1)}
        # a product above the top degree is the zero top-degree form
        over = dxdy.wedge(AnalyticForm((x, y), 1, {(0,): x}))
        assert over.degree == 2 and over.comps == {}

    def test_degree_overflow_and_mismatch_errors(self):
        x, y = sympy_coords(real_coords(2))
        dxdy = AnalyticForm((x, y), 2, {(0, 1): x * y})
        with pytest.raises(ValueError, match="overflow"):
            dxdy.d()
        with pytest.raises(ValueError, match="mismatched"):
            dxdy + AnalyticForm.scalar((x, y), 1)

    def test_wedge_anticommutes(self):
        x, y, s, t = sympy_coords(real_coords(4))
        a = AnalyticForm((x, y, s, t), 1, {(0,): x * t, (2,): y})
        b = AnalyticForm((x, y, s, t), 1, {(1,): s, (3,): x})
        ab = a.wedge(b)
        ba = b.wedge(a)
        pts = sample_points(4)
        assert max_abs(ab + ba, pts) < 1e-14

    def test_leibniz_symbolic(self):
        x, y, s, t = sympy_coords(real_coords(4))
        a = AnalyticForm((x, y, s, t), 1, {(0,): x * y, (3,): s})
        b = AnalyticForm((x, y, s, t), 1, {(1,): t * x, (2,): y * y})
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) - a.wedge(b.d())
        pts = sample_points(4)
        assert max_abs(lhs - rhs, pts) < 1e-13
