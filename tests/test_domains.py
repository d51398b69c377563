"""Domain model: gauge construction, exhaustion, spec files."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from maform import domains
from maform.atlas import ChartAtlas
from maform.deformation import _ambient_of
from maform.domains import (
    DomainError,
    PseudoconvexityError,
    SpecParseError,
    ambient_coords,
    make_circular_domain,
    parse_domain_spec,
    parse_expression,
    parse_tensor_spec,
)
from maform.symforms import Jet, ddc_matrix, levi_matrix, sym, symbols, to_real
from symbolic_forms import AnalyticForm, lambdify_rows, standard_j_matrix, sympy_coords, to_sympy

RNG = np.random.default_rng(20260825)


class TestMakeCircularDomain:
    def test_ball_chart_values(self):
        mink, exh = make_circular_domain({"kind": "ball"})
        assert abs(mink.m(0, 0.0) - 1.0) < 1e-14
        assert abs(mink.m(0, 1.0) - np.sqrt(2.0)) < 1e-14
        assert abs(mink.m(1, 1.0) - np.sqrt(2.0)) < 1e-14

    def test_ellipsoid_chart_values(self):
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        assert abs(mink.m(0, 1.0) - np.sqrt(5.0)) < 1e-14
        assert abs(mink.m(0, 0.0) - 1.0) < 1e-14
        # chart 1 swaps the roles of the coefficients
        assert abs(mink.m(1, 0.0) - 2.0) < 1e-14

    def test_homogeneity_across_charts(self):
        for spec in (
            {"kind": "ball"},
            {"kind": "ellipsoid", "a": 1, "b": 4},
            {"kind": "perturbed_ball", "eps": 0.05},
        ):
            mink, _ = make_circular_domain(spec)
            v = RNG.uniform(-1.2, 1.2, 20) + 1j * RNG.uniform(-1.2, 1.2, 20)
            v = v[np.abs(v) > 0.3]
            m0 = mink.m(0, v)
            m1 = mink.m(1, 1.0 / v)
            assert np.max(np.abs(m1 - m0 / np.abs(v))) < 1e-12

    def test_mu_degree_one_homogeneous(self):
        mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        z = RNG.normal(size=(30, 2)) + 1j * RNG.normal(size=(30, 2))
        lam = RNG.uniform(0.2, 2.0, 30) * np.exp(1j * RNG.uniform(0, 2 * np.pi, 30))
        mu1 = np.sqrt(mink.mu_sq_jet(z * lam[:, None])[0])
        mu0 = np.sqrt(mink.mu_sq_jet(z)[0])
        assert np.max(np.abs(mu1 - np.abs(lam) * mu0)) < 1e-10

    def test_exhaustion_matches_gauge_squared(self):
        # tau = mu^2 is |zeta|^2 m^2(v) at z = zeta (1, v) on every chart:
        # the chart expressions agree with the ambient one, by sympy
        z = RNG.normal(size=(20, 2)) + 1j * RNG.normal(size=(20, 2))
        coords = sympy_coords(ambient_coords(2))
        for spec in ({"kind": "ellipsoid", "a": 1, "b": 4},
                     {"kind": "perturbed_ball", "eps": 0.2, "q": {3: 1}}):
            mink, exh = make_circular_domain(spec)
            tau = AnalyticForm.scalar(coords, to_sympy(exh.tau_ambient)).scalar_at(to_real(z)).real
            assert np.max(np.abs(tau - mink.mu_sq_jet(z)[0])) < 1e-10
            for chart in (0, 1):
                zeta = z[:, chart]
                v = z[:, 1 - chart] / zeta
                assert np.max(np.abs(_ambient_of(2, chart, v, zeta) - z)) < 1e-14
                assert np.max(np.abs(tau - np.abs(zeta) ** 2 * mink.m(chart, v) ** 2)) < 1e-10

    def test_pseudoconvexity_eps_scan(self):
        # scan the perturbation upward; the witness must flip from pass to
        # fail at some finite amplitude, with the offending point reported
        eigs = []
        failed_at = None
        for eps in (0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
            try:
                make_circular_domain({"kind": "perturbed_ball", "eps": eps})
                eigs.append(eps)
            except PseudoconvexityError as err:
                failed_at = eps
                assert err.eigenvalue <= 0
                assert err.point.shape == (2,)
                break
        assert failed_at is not None, "witness never failed in the scan"
        assert 0.05 in eigs, "small perturbations must stay pseudoconvex"

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "ball"},
            {"kind": "ellipsoid", "a": 1, "b": 4},
            {"kind": "perturbed_ball", "eps": 0.05},
        ],
    )
    def test_ddc_matrix_matches_symbolic_ddc(self, spec):
        mink, _ = make_circular_domain(spec)
        coords = domains.ambient_coords(2)
        pts = RNG.uniform(-1.0, 1.0, size=(50, 4))
        got = ddc_matrix(Jet.of(mink.mu_sq_ambient, coords, pts, order=2).hess)
        form = AnalyticForm.scalar(sympy_coords(coords), to_sympy(mink.mu_sq_ambient))
        want = form.dc().d().matrix_at(pts).real
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_witness_eigenvalue_matches_symbolic_ddc(self):
        # the witness's sample points, with the Levi form of the symbolic
        # ddc of mu^2: its smallest eigenvalue is the one reported
        with pytest.raises(PseudoconvexityError) as err:
            make_circular_domain({"kind": "perturbed_ball", "eps": 0.8})
        coords = domains.ambient_coords(2)
        mu_sq = domains._mu_sq_expression(2, "perturbed_ball", {"eps": 0.8}, coords)
        pts = domains.uniform_samples(7, 60, 4)
        pts = pts[np.linalg.norm(pts, axis=1) > 0.3]
        form = AnalyticForm.scalar(sympy_coords(coords), to_sympy(mu_sq))
        AJ = form.dc().d().matrix_at(pts).real @ standard_j_matrix(4)
        eigs = np.linalg.eigvalsh(0.5 * (AJ + AJ.swapaxes(1, 2)))
        assert abs(err.value.eigenvalue - eigs.min()) <= 1e-13 * np.max(np.abs(eigs))

    @staticmethod
    def levi_eigenvalues(mu_sq, pts):
        """Every Levi eigenvalue at the points, ascending, from eigvalsh on
        the 4 x 4 matrix of ddc(mu^2)(., J .)."""
        coords = domains.ambient_coords(2)
        AJ = ddc_matrix(Jet.of(mu_sq, coords, pts, order=2).hess) @ standard_j_matrix(4)
        return np.linalg.eigvalsh(0.5 * (AJ + AJ.swapaxes(1, 2)))

    def test_closed_form_levi_eigenvalue_matches_eigvalsh(self):
        # random ellipsoids and perturbed balls, pseudoconvex or not, at
        # random points: the closed-form least eigenvalue of the Hermitian
        # 2 x 2 block against eigvalsh, relative to the largest eigenvalue
        # magnitude (measured within 1.3e-15)
        rng = np.random.default_rng(61)
        coords = domains.ambient_coords(2)
        for i in range(20):
            if i % 2:
                params = {"eps": rng.uniform(0.0, 0.9),
                          "q": {int(k): rng.uniform(0.0, 1.0) for k in rng.integers(1, 5, 2)}}
                kind = "perturbed_ball"
            else:
                kind, params = "ellipsoid", {"a": rng.uniform(0.3, 3.0), "b": rng.uniform(0.3, 20.0)}
            mu_sq = domains._mu_sq_expression(2, kind, params, coords)
            pts = rng.uniform(-1.0, 1.0, (100, 4))
            got = domains.least_levi_eigenvalues(levi_matrix(Jet.of(mu_sq, coords, pts, order=2).hess))
            eigs = self.levi_eigenvalues(mu_sq, pts)
            assert np.all(np.abs(got - eigs[:, 0]) <= 1e-13 * np.max(np.abs(eigs), axis=1)), (kind, params)

    @pytest.mark.parametrize(
        "params", [{"eps": 0.5}, {"eps": 0.8}, {"eps": 0.3, "q": {2: 1.0, 3: 0.5}}]
    )
    def test_witness_names_the_worst_point_of_eigvalsh(self, params):
        # a gauge that fails the witness names the sample point whose
        # eigvalsh eigenvalue is least, and that eigenvalue
        with pytest.raises(PseudoconvexityError) as err:
            make_circular_domain({"kind": "perturbed_ball", **params})
        coords = domains.ambient_coords(2)
        mu_sq = domains._mu_sq_expression(2, "perturbed_ball", params, coords)
        pts = domains.uniform_samples(7, 60, 4)
        pts = pts[np.linalg.norm(pts, axis=1) > 0.3]
        eigs = self.levi_eigenvalues(mu_sq, pts)
        worst = int(np.argmin(eigs[:, 0]))
        assert np.array_equal(err.value.point, pts[worst, 0::2] + 1j * pts[worst, 1::2])
        assert abs(err.value.eigenvalue - eigs[worst, 0]) <= 1e-13 * np.max(np.abs(eigs[worst]))

    def test_gauge_positivity_enforced(self, monkeypatch):
        # mu^2 = |z2|^2 - |z1|^2 gives m^2 = |v|^2 - 1 < 0 at the chart-0
        # node v = 0; no spec kind reaches such a gauge, so it is injected
        def indefinite(n, kind, params, coords):
            x1, y1, x2, y2 = coords
            return x2**2 + y2**2 - x1**2 - y1**2

        monkeypatch.setattr(domains, "_mu_sq_expression", indefinite)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="not positive"):
            make_circular_domain({"kind": "ball"})


class TestBlowupCoords:
    """The chart inclusion z = zeta (1, v), 1 in the chart slot
    (deformation._ambient_of), inverts the blow-up coordinates of z: the
    chart of its largest-modulus coordinate, zeta that coordinate and v
    the others divided by it."""

    def test_axis_points(self):
        assert np.array_equal(_ambient_of(2, 0, 0.0, 1.0), [1.0, 0.0])
        assert np.array_equal(_ambient_of(2, 0, 1.0, 0.5), [0.5, 0.5])
        assert np.array_equal(_ambient_of(2, 1, 2.0, 0.5), [1.0, 0.5])

    @staticmethod
    def _assert_round_trip(z):
        n = z.shape[1]
        chart = np.argmax(np.abs(z), axis=1)
        out = np.empty_like(z)
        for c in range(n):
            sel = chart == c
            v = np.delete(z[sel] / z[sel, c, None], c, axis=1)
            out[sel] = _ambient_of(n, c, v[:, 0] if n == 2 else v, z[sel, c])
        assert np.max(np.abs(out - z)) < 1e-12
        return chart

    @staticmethod
    def _every_chart_batch(n, size=1000):
        # a separate generator keeps the module draws of later tests fixed
        rng = np.random.default_rng(n)
        return rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))

    def test_round_trip(self):
        self._assert_round_trip(RNG.normal(size=(100, 2)) + 1j * RNG.normal(size=(100, 2)))
        charts = self._assert_round_trip(self._every_chart_batch(2))
        assert set(charts.tolist()) == {0, 1}

    def test_round_trip_n3(self):
        self._assert_round_trip(RNG.normal(size=(50, 3)) + 1j * RNG.normal(size=(50, 3)))
        charts = self._assert_round_trip(self._every_chart_batch(3))
        assert set(charts.tolist()) == {0, 1, 2}


class TestSpecFiles:
    GOOD = """# ellipsoid fixture
n = 2
mu.kind = ellipsoid
a = 1
b = 4
N_v = 33
N_r = 8
N_theta = 16
"""

    def test_parse_and_echo(self):
        spec = parse_domain_spec(self.GOOD)
        assert spec.kind == "ellipsoid"
        assert spec.params == {"a": 1.0, "b": 4.0}
        assert spec.n_v == 33
        # N_r and N_theta are range-checked and read by nothing
        assert spec.atlas() == ChartAtlas(n=2, n_v=33)
        assert spec.raw == self.GOOD  # bit-exact echo source

    def test_parse_perturbed_q_list(self):
        text = "mu.kind = perturbed_ball\neps = 0.05\nq = 2:1, 3:0.5\n"
        spec = parse_domain_spec(text)
        assert spec.params["q"] == {2: 1.0, 3: 0.5}

    def test_spec_drives_construction(self):
        spec = parse_domain_spec(self.GOOD)
        mink, _ = make_circular_domain(spec.mu_spec(), atlas=spec.atlas())
        assert abs(mink.m(0, 1.0) - np.sqrt(5.0)) < 1e-14

    def test_errors_carry_position(self):
        with pytest.raises(SpecParseError, match="line 2"):
            parse_domain_spec("n = 2\nbogus_key = 1\n")
        with pytest.raises(SpecParseError, match="column"):
            parse_domain_spec("mu.kind = dodecahedron\n")
        with pytest.raises(SpecParseError, match="expected"):
            parse_domain_spec("just some words\n")


ROOT = Path(__file__).resolve().parents[1]
AMBIENT = dict(zip(["x1", "y1", "x2", "y2"], ambient_coords(2)))
BASE = {"v": sym("v")}
BASES = dict(zip(["v", "v1", "v2"], symbols("v v1 v2")))


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spec_expressions():
    """Every tau.expr and mode line value in the test sources and in the
    benchmark's spec files, with the coordinates it is read in."""
    lines = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        lines += re.findall(r"((?:tau\.expr|mode \d+ \d+ \d+) = [^\n\"]*?)(?:\\n|\"|$)", path.read_text(), re.M)
    wl = _workloads()
    for seed in (1, 2):
        lines += wl.synthetic_tensor_spec(wl.synthetic_amplitudes(seed)).splitlines()
    out = []
    for line in lines:
        key, eq, val = line.partition(" = ")
        if key == "tau.expr":
            out.append((val.strip(), AMBIENT))
        elif key.startswith("mode "):
            out.append((val.strip(), BASES))
    return out


def _sympify_rows(text, names):
    """The numpy function of a spec text as sympy's own parser reads it,
    in the coordinates of names (real for the ambient ones, complex for
    the base ones); the texts are trusted here, so sympify may evaluate
    them."""
    real = names is AMBIENT
    coords = sympy_coords(names.values(), real=real)
    local = {**dict(zip(names, coords)), "conj": sp.conjugate}
    return lambdify_rows(coords, [sp.sympify(text, locals=local)])


def _sample_points(names, n=7, seed=3):
    """Points of the names, as one array per name: real for the ambient
    coordinates, complex off the axes for the base ones."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.2, 0.8, size=(len(names), n))
    return pts if names is AMBIENT else pts * np.exp(1j * rng.uniform(0.3, 1.2, size=pts.shape))


class TestSpecReader:
    def test_expressions_match_sympify(self):
        # the expression read from a spec text has the value sympy's own
        # parser gives the text, at sample points
        accepted = 0
        for text, names in _spec_expressions():
            try:
                got = parse_expression(text, names)
            except SpecParseError:
                continue  # a test of an unknown name or of code in a spec
            pts = _sample_points(names)
            value = Jet.compile(got, list(names.values()), 0)(*pts)[0]
            want = _sympify_rows(text, names)(*pts)[0]
            assert np.max(np.abs(value - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0), text
            accepted += 1
        assert accepted >= 10

    def test_tau_expr_without_gauge(self):
        spec = parse_domain_spec("# no mu.kind line: tau.expr replaces the gauge\ntau.expr = x1**2\n")
        pts = _sample_points(AMBIENT)
        value = Jet.compile(spec.tau_expr, list(AMBIENT.values()), 0)(*pts)[0]
        assert spec.kind is None and np.max(np.abs(value - pts[0] ** 2)) <= 1e-12
        assert spec.at == {"tau.expr": (2, 12)}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 2\nN_v = 9\n", "line 2, column 8: missing required key 'mu.kind'"),
            ("", "line 1, column 1: missing required key 'mu.kind'"),
            ("tau.expression = x1\n", "line 1, column 1: unknown key 'tau.expression'"),
            ("tau.expr = x1**2\n  tau.expr = y1**2\n", "line 2, column 3: duplicate key 'tau.expr'"),
            ("mu.kind = ball\ntau.expr = x1.real\n", "line 2, column 12: 'x1.real' is not allowed"),
            ("mu.kind = perturbed_ball\nq = 2:1, x\n", "line 2, column 5: bad value for 'q'"),
            ("mu.kind = perturbed_ball\nq = -1:1\n", "line 2, column 5: q must pair distinct"),
            ("mu.kind = perturbed_ball\nq = 2:1, 2:3\n", "line 2, column 5: q must pair distinct"),
            ("mu.kind = perturbed_ball\nq =  2:nan\n", "line 2, column 6: q must pair distinct"),
        ],
    )
    def test_domain_errors(self, text, message):
        with pytest.raises(SpecParseError) as exc:
            parse_domain_spec(text)
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("N_v = 17\nN_v = 17\n", "line 2, column 1: duplicate key 'N_v'"),
            ("mode 0 1 = 1\n", "line 1, column 1: expected 'mode k a b = expr'"),
            ("mode 1 1 1 = 1\n", "line 1, column 1: mode indices out of range: 1 1 1"),
            ("modes 0 1 1 = 1\n", "line 1, column 1: unknown key 'modes 0 1 1'"),
            ("mode 0 1 1 = v + w\n", "line 1, column 18: unknown name 'w'"),
        ],
    )
    def test_tensor_errors(self, text, message):
        with pytest.raises(SpecParseError) as exc:
            parse_tensor_spec(text)
        assert message in str(exc.value)

    def test_tensor_entries(self):
        values, coords, modes = parse_tensor_spec(
            "n = 3\nN_v = 5\nk_max = 2\nmode 2 2 1 = v1*conj(v2)\n"
        )
        assert values == {"n": 3, "N_v": 5, "k_max": 2}
        assert coords == [BASES["v1"], BASES["v2"]]
        [(k, a, b, expr)] = modes
        pts = _sample_points(BASES)[1:]
        value = Jet.compile(expr, coords, 0)(*pts)[0]
        assert (k, a, b) == (2, 2, 1)
        assert np.max(np.abs(value - pts[0] * np.conj(pts[1]))) <= 1e-12

    @pytest.mark.parametrize(
        "text, col",
        [
            ("x1 + foo(y1)", 17),
            ("x1 + __import__('os').getcwd()", 17),
            ("9**9**9", 12),
            ("x1 * exp(1000)", 17),
            ("x1 + 1e308*10*y1", 17),
            ("x1 + 1/(y1 - y1)", 17),
            ("x1 + * 2", 17),
            ("sin(x1, y1)", 12),
        ],
    )
    def test_expression_errors_point_into_the_text(self, text, col):
        with pytest.raises(SpecParseError) as exc:
            parse_expression(text, AMBIENT, 2, 12)
        assert (exc.value.line_no, exc.value.col) == (2, col)


KEYS = ["n", "mu.kind", "tau.expr", "a", "eps", "q", "N_v", "N_theta", "k_max", "mode 0 1 1"]
SPEC_TEXT = st.text(alphabet="0123456789.,:+-*/() =#vxyI\n\t", max_size=40)
SPEC_LINES = st.lists(
    st.tuples(st.sampled_from(KEYS), SPEC_TEXT).map(" = ".join), max_size=6
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), SPEC_TEXT, SPEC_LINES))
def test_readers_raise_only_spec_errors(text):
    # any text is read or refused with a position, never with another error
    for read in (
        parse_domain_spec,
        parse_tensor_spec,
        lambda t: parse_expression(t, AMBIENT),
        lambda t: parse_expression(t, BASE),
    ):
        try:
            read(text)
        except SpecParseError as exc:
            assert exc.line_no >= 1 and exc.col >= 1
