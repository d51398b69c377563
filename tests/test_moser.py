"""Curvature data, base flow with its horizontal lift, and map assembly."""

import tracemalloc

import numpy as np
import pytest

from maform.atlas import ChartAtlas, blowup_forward
from maform.deformation import extract
from maform.domains import MinkowskiField, make_circular_domain
from maform.moser import (
    FS_AREA,
    MoserError,
    _charts_by_field,
    _disk_integral,
    _gauss_legendre,
    _hand_off,
    _lifted_field,
    _sphere_point,
    curvature,
    measure_connection_mismatch,
    moser_flow,
    normalize_domain,
)
from maform.symforms import call, num, real_coords
from flow_reference import reference_flow
from symbolic_forms import AnalyticForm, lambdify_rows, sympy_coords, to_sympy

ATLAS = ChartAtlas(n=2, n_v=17)


def forward(nm, z):
    """The normalizing map z = zeta p(v) -> zeta W(v) at ambient points z
    (..., 2): W off the nodes from FITPACK's interpolating bicubic spline
    through its node values, rescaled so that mu(W(v)) = m_o(v) =
    (1 + |v|^2)^(1/2)."""
    from scipy.interpolate import RectBivariateSpline

    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1, 2)
    chart, v, zeta = blowup_forward(flat)
    out = np.empty_like(flat)
    for c in np.unique(chart):
        sel = chart == c
        vs = v[sel, 0]
        xs, W = nm.atlas.xs, nm.W[c]
        raw = np.stack([
            RectBivariateSpline(xs, xs, W[..., k].real).ev(vs.real, vs.imag)
            + 1j * RectBivariateSpline(xs, xs, W[..., k].imag).ev(vs.real, vs.imag)
            for k in range(2)
        ], axis=-1)
        scale = np.sqrt(1.0 + np.abs(vs) ** 2) / nm.mink.mu(raw)
        out[sel] = (zeta[sel] * scale)[:, None] * raw
    return out.reshape(z.shape)


def reference_lifted_field(conn, chart_of):
    """The lifted field on the interleaved layout: states (P, 3) of (x, y,
    theta), X and its partials as complex arrays from one field call per
    chart label, and the full 3x3 derivative with its zero theta column."""

    def f(t, y):
        v = y[:, 0] + 1j * y[:, 1]
        X = np.empty((3, len(v)), dtype=complex)
        for c in np.unique(chart_of):
            sel = chart_of == c
            F = np.reshape(conn.fields[c](v[sel].real, v[sel].imag), (3, 4, -1))
            w = (1.0 - t) * F[:, 0] + t * F[:, 1]
            X[0, sel] = X0 = (-F[0, 3] + 1j * F[0, 2]) / w[0]
            X[1:, sel] = (-F[1:, 3] + 1j * F[1:, 2] - X0 * w[1:]) / w[0]
        q = 1.0 + np.abs(v) ** 2
        dtheta = -np.imag(X[0] * np.conj(v)) / q
        D = np.zeros(y.shape + (3,))
        # d v / dx = 1 and d v / dy = i, so d conj(v) is 1 and -i
        for k, dv_bar in enumerate((1.0, -1j)):
            D[:, 0, k] = X[1 + k].real
            D[:, 1, k] = X[1 + k].imag
            dg = np.imag(X[1 + k] * np.conj(v) + X[0] * dv_bar)
            D[:, 2, k] = (-dg - dtheta * 2.0 * y[:, k]) / q
        return np.stack([X[0].real, X[0].imag, dtheta], axis=-1), D

    return f


def reference_rk4_step(f, t, y, dt, M):
    """RK4 on y with the variational matrices M (P, 3, 2), each stage's
    variational slope the matrix product Df @ (M + s N)."""

    def stage(s, k, N):
        slope, D = f(t + s, y + s * k)
        return slope, D @ (M + s * N)

    half = dt / 2
    k1, N1 = stage(0.0, 0.0, 0.0)
    k2, N2 = stage(half, k1, N1)
    k3, N3 = stage(half, k2, N2)
    k4, N4 = stage(dt, k3, N3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), M + dt / 6 * (N1 + 2 * N2 + 2 * N3 + N4)


def reference_hand_off(y, M):
    """v -> 1/v and theta -> theta + arg v on the interleaved layout, M
    carried by the real 2x2 Jacobian of v -> 1/v and the gradient of arg v."""
    v = y[:, 0] + 1j * y[:, 1]
    dw = -1.0 / v**2
    J = np.empty(v.shape + (2, 2))
    J[:, 0, 0] = J[:, 1, 1] = dw.real
    J[:, 1, 0] = dw.imag
    J[:, 0, 1] = -dw.imag
    d_arg = np.stack([-v.imag, v.real], axis=1) / (np.abs(v) ** 2)[:, None]
    M_new = np.empty_like(M)
    M_new[:, :2] = J @ M[:, :2]
    M_new[:, 2] = M[:, 2] + np.einsum("ni,nik->nk", d_arg, M[:, :2])
    w = 1.0 / v
    return np.stack([w.real, w.imag, y[:, 2] + np.angle(v)], axis=1), M_new


def per_chart_flow(conn, n_steps):
    """The flow as one integration per start chart on the interleaved
    layout, with the complex field and the 3x3 matrix product, its points
    grouped by chart label at every step: the reference for the batched
    moser_flow on real planes.  Returns the endpoints, phases and
    jacobians per chart and the number of hand-offs."""
    at = conn.atlas
    endpoints, phases, jacobians, handed = {}, {}, {}, 0
    dt = 1.0 / n_steps
    for chart in at.charts:
        V0 = at.base_points(chart).ravel()
        y = np.stack([V0.real, V0.imag, np.zeros(len(V0))], axis=1)
        chart_of = np.full(len(V0), chart)
        M = np.tile(np.eye(3, 2), (len(V0), 1, 1))
        for i in range(n_steps):
            y, M = reference_rk4_step(reference_lifted_field(conn, chart_of), i * dt, y, dt, M)
            far = np.hypot(y[:, 0], y[:, 1]) > 3.0
            handed += int(np.count_nonzero(far))
            if np.any(far):
                y[far], M[far] = reference_hand_off(y[far], M[far])
                chart_of[far] = 1 - chart_of[far]
        flipped = chart_of != chart
        if np.any(flipped):
            y[flipped], M[flipped] = reference_hand_off(y[flipped], M[flipped])
        endpoints[chart] = (y[:, 0] + 1j * y[:, 1]).reshape(at.n_v, at.n_v)
        phases[chart] = y[:, 2].reshape(at.n_v, at.n_v)
        jacobians[chart] = M.reshape(at.n_v, at.n_v, 3, 2)
    return endpoints, phases, jacobians, handed


def spied(conn):
    """conn with every distinct chart field wrapped once (so sharing is
    kept), and the list that records one entry per field call."""
    calls = []

    def spy(fn):
        def counted(xs, ys):
            calls.append(np.shape(xs))
            return fn(xs, ys)

        return counted

    wrapped = {fn: spy(fn) for fn in conn.fields.values()}
    return conn._replace(fields={c: wrapped[fn] for c, fn in conn.fields.items()}), calls


@pytest.fixture(scope="module")
def ball_map():
    mink, _ = make_circular_domain({"kind": "ball"})
    return mink, normalize_domain(mink, atlas=ATLAS, n_steps=50)


@pytest.fixture(scope="module")
def ellipsoid_map():
    mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    return mink, normalize_domain(mink, atlas=ATLAS, n_steps=100)


@pytest.fixture(scope="module")
def ellipsoid_step_maps():
    """The ellipsoid's maps at N_v = 9 for 25, 50, 100 and 200 steps."""
    mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    atlas = ChartAtlas(n=2, n_v=9)
    return [normalize_domain(mink, atlas=atlas, n_steps=n) for n in (25, 50, 100, 200)]


@pytest.fixture(scope="module")
def perturbed_map():
    mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
    return mink, normalize_domain(mink, atlas=ATLAS, n_steps=100)


def traced_peak(fn):
    """Peak bytes allocated while fn runs, above those live when it starts,
    under tracemalloc (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [24, 40, 80])
def test_gauss_legendre_matches_numpy(n):
    # the Newton-iterated rule against numpy's leggauss, and exact on
    # x^(2n - 2), the highest even power an n-point rule integrates exactly
    nodes, weights = _gauss_legendre(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-14
    assert np.max(np.abs(weights - want_weights)) <= 1e-14
    assert abs(weights @ nodes ** (2 * n - 2) - 2.0 / (2 * n - 1)) <= 1e-14


class TestCurvature:
    def test_ball_coefficient_is_reference(self):
        # the ball's curvature is the reference form 4/(1 + |v|^2)^2; the
        # chain rule through log m^2 reproduces it up to roundoff
        mink, _ = make_circular_domain({"kind": "ball"})
        conn = curvature(mink, ATLAS)
        rng = np.random.default_rng(41)
        r = 2.5 * np.sqrt(rng.uniform(0, 1, 400))
        random_points = r * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
        for c in (0, 1):
            for v in (ATLAS.base_points(c).ravel(), random_points):
                w = np.reshape(conn.fields[c](v.real, v.imag), (3, 4, -1))[0, 1]
                ref = 4 / (1 + np.abs(v) ** 2) ** 2
                assert np.max(np.abs(w - ref)) <= 1e-15 * np.max(ref)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "ball"},
            {"kind": "ellipsoid", "a": 1, "b": 4},
            {"kind": "perturbed_ball", "eps": 0.05},
        ],
    )
    def test_chart_fields_match_the_log_form_route(self, spec):
        # the rows as symbolic ddc and dc of the logarithms, each
        # differentiated once more, against the compiled jets
        import sympy as sp

        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ATLAS)
        x, y = sympy_coords(real_coords(2))
        rng = np.random.default_rng(43)
        for c in (0, 1):
            m_sq = to_sympy(mink.m_sq_charts[c])
            w = AnalyticForm.scalar((x, y), sp.log(m_sq)).dc().d().comps[(0, 1)]
            alpha = AnalyticForm.scalar((x, y), sp.log(m_sq / (1 + x**2 + y**2))).dc()
            exprs = [4 / (1 + x**2 + y**2) ** 2, w] + [alpha.comps.get((k,), 0) for k in (0, 1)]
            rows = lambdify_rows((x, y), exprs + [sp.diff(e, u) for u in (x, y) for e in exprs])
            v = 2.5 * np.sqrt(rng.uniform(0, 1, 300)) * np.exp(2j * np.pi * rng.uniform(0, 1, 300))
            want = np.reshape(rows(v.real, v.imag), (3, 4, -1))
            got = np.reshape(conn.fields[c](v.real, v.imag), (3, 4, -1))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_total_curvature_matches_reference_area(self):
        for spec in ({"kind": "ball"},
                     {"kind": "ellipsoid", "a": 1, "b": 4},
                     {"kind": "perturbed_ball", "eps": 0.05}):
            mink, _ = make_circular_domain(spec)
            conn = curvature(mink, ATLAS)
            assert abs(conn.integral - FS_AREA) < 1e-6, spec

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "ball"},
            {"kind": "ellipsoid", "a": 1, "b": 4},
            {"kind": "ellipsoid", "a": 1, "b": 20},
            {"kind": "perturbed_ball", "eps": 0.05},
            {"kind": "perturbed_ball", "eps": 0.2, "q": {3: 1}},
        ],
    )
    def test_disk_rule_is_resolved(self, spec):
        # the default 40 x 80 rule and the 80 x 160 rule agree on the
        # curvature coefficient of every distinct chart field (measured
        # within 7.2e-15), so the smaller rule loses nothing
        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ATLAS)
        for fn in _charts_by_field(conn.fields):
            def w(xs, ys):
                return fn(xs, ys)[1]

            assert abs(_disk_integral(w) - _disk_integral(w, 80, 160)) <= 1e-13

    def test_disk_rule_working_set_is_bounded(self):
        # the 40 x 80 disk rule runs in blocks of radii, so one curvature
        # call at N_v = 17 stays below 2 MB (compiled jets warm)
        mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        curvature(mink, ATLAS)
        assert traced_peak(lambda: curvature(mink, ATLAS)) < 2e6

    def test_positive_coefficient_required(self):
        # a gauge whose log fails to be strictly subharmonic on a chart
        # must be reported through the curvature sign, not integrated
        x, y = real_coords(2)
        bad = (1 + x**2 + y**2) * call("exp", -(x**2))
        mink = MinkowskiField(
            n=2, kind="ball", params={}, mu_sq_ambient=num(1),
            m_sq_charts={0: bad, 1: bad},
        )
        with pytest.raises(MoserError, match="not positive"):
            curvature(mink, ATLAS)


class TestMoserFlow:
    def test_ball_flow_is_identity(self, ball_map):
        mink, _ = ball_map
        conn = curvature(mink, ATLAS)
        flow = moser_flow(conn, n_steps=50)
        for c in (0, 1):
            V = ATLAS.base_points(c)
            assert np.max(np.abs(flow.endpoints[c] - V)) < 1e-14
        assert flow.endpoint_residual < 1e-12

    def test_ellipsoid_endpoint_contract(self):
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        conn = curvature(mink, ChartAtlas(n=2, n_v=33))
        flow = moser_flow(conn, n_steps=200)
        assert flow.endpoint_residual < 1e-6

    def test_endpoint_residual_decreases_under_refinement(self):
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        conn = curvature(mink, ATLAS)
        r = [moser_flow(conn, n_steps=n).endpoint_residual for n in (25, 50)]
        assert r[1] < r[0]

    def test_flow_is_fourth_order(self, ellipsoid_step_maps):
        # the ellipsoid is linearly equivalent to the ball, so its W and its
        # mode-0 norm move with the step count by RK4 truncation alone: each
        # halving divides the change by about 16, and a wrong third partial
        # or variational coupling shows as a ratio near 2 or 4
        maps = ellipsoid_step_maps
        W = [nm.W for nm in maps]
        norms = [extract(nm).mode_norms()[0] for nm in maps]
        for changes in (
            [max(np.max(np.abs(a[c] - b[c])) for c in (0, 1)) for a, b in zip(W, W[1:])],
            [abs(a - b) for a, b in zip(norms, norms[1:])],
        ):
            for coarse, fine in zip(changes, changes[1:]):
                assert 12 <= coarse / fine <= 20, changes

    def test_ellipsoid_mode_norms_within_richardson_estimate(self, ellipsoid_step_maps):
        # closed-form anchor: the ellipsoid is a linear image of the ball,
        # so its tensor vanishes.  The positive modes are exact zeros, and
        # for each halving of the step count the Richardson extrapolation
        # fine - (coarse - fine) / 15 of the mode-0 norm is 0 to within 5 %
        # of the error estimate |coarse - fine| / 15 (measured: 0.65 %,
        # 0.29 % and 0.14 %)
        norms = [extract(nm).mode_norms() for nm in ellipsoid_step_maps]
        assert all(np.all(n[1:] == 0.0) for n in norms)
        for coarse, fine in zip(norms, norms[1:]):
            estimate = abs(coarse[0] - fine[0]) / 15
            assert abs(fine[0] - (coarse[0] - fine[0]) / 15) <= 0.05 * estimate, (coarse[0], fine[0])

    def test_lifted_field_jacobian_matches_central_differences(self):
        # the exact Df, the variational slope at M = I, entry by entry
        # against central differences of the slope; the field does not
        # depend on theta, so its theta column is zero.  f returns its two
        # buffers from every call, so each result is copied before the next
        mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        conn = curvature(mink, ATLAS)
        rng = np.random.default_rng(29)
        n, h = 200, 1e-5
        eye = np.broadcast_to(np.eye(3, 2)[..., None], (3, 2, n))
        rows = ("Re X", "Im X", "theta'")
        for chart in (0, 1):
            y = np.stack(
                [*rng.uniform(-2.5, 2.5, (2, n)), rng.uniform(-np.pi, np.pi, n)]
            )
            f = _lifted_field([(conn.fields[chart], slice(0, n))], np.full(n, chart), np.arange(n), (n,))
            for t in (0.0, 0.37, 1.0):
                D = f(t, y, eye)[1].copy()
                for k, coord in enumerate(("x", "y", "theta")):
                    e = np.zeros((3, 1))
                    e[k] = h
                    plus = f(t, y + e, eye)[0].copy()
                    fd = (plus - f(t, y - e, eye)[0]) / (2 * h)
                    for r, row in enumerate(rows):
                        scale = np.max(np.abs(D[r]))
                        exact = D[r, k] if k < 2 else 0.0
                        err = np.max(np.abs(exact - fd[r]))
                        assert err <= 1e-6 * scale, (
                            f"d({row})/d{coord}, chart {chart}, t = {t}: "
                            f"{err:.2e} against scale {scale:.2e}"
                        )

    @pytest.mark.parametrize(
        "spec, hands_off",
        [({"kind": "ellipsoid", "a": 1, "b": 4}, True), ({"kind": "perturbed_ball", "eps": 0.05}, False)],
    )
    def test_batched_flow_matches_per_chart_flow(self, spec, hands_off):
        # one state for all charts, one call per distinct chart field, and
        # the regrouping after hand-offs (24 on the ellipsoid) must not
        # change the per-chart integration
        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ATLAS)
        flow = moser_flow(conn, n_steps=50)
        *ref, handed = per_chart_flow(conn, 50)
        assert (handed > 0) == hands_off, handed
        for got, want in zip((flow.endpoints, flow.phases, flow.jacobians), ref):
            for c in ATLAS.charts:
                assert got[c].shape == want[c].shape
                assert np.max(np.abs(got[c] - want[c])) <= 1e-14

    @pytest.mark.parametrize(
        "spec, handed",
        [({"kind": "ellipsoid", "a": 1, "b": 4}, (11, 152)), ({"kind": "perturbed_ball", "eps": 0.05}, (0, 0))],
    )
    def test_flow_matches_the_reference_to_the_bit(self, spec, handed):
        # the in-place flow, its points sorted by field and re-sorted on
        # hand-off steps, against the stage arithmetic of flow_reference on
        # points in start order: the same operations on every point, so
        # equal to the bit.  On the ellipsoid 10 hand-off steps and the
        # return to the start charts move 152 points between two fields
        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ChartAtlas(n=2, n_v=33))
        flow = moser_flow(conn, n_steps=50)
        want, moved = reference_flow(conn, 50)
        assert moved == handed
        for got, ref in zip((flow.endpoints, flow.phases, flow.jacobians), want):
            for c in ATLAS.charts:
                assert got[c].shape == ref[c].shape
                assert np.array_equal(got[c], ref[c])

    @pytest.mark.parametrize("n_v", [33, 65])
    def test_flow_working_set_is_bounded(self, n_v):
        # the stages write into buffers, so the flow's traced peak above
        # its start stays below 8.5 times the bytes of the state and its
        # Jacobians, 9 planes of P points (measured 7.5; the stages with
        # fresh arrays of flow_reference peak at 11.7 and 11.0)
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        conn = curvature(mink, ChartAtlas(n=2, n_v=n_v))
        moser_flow(conn, n_steps=10)
        state_bytes = 9 * 8 * 2 * n_v**2
        assert traced_peak(lambda: moser_flow(conn, n_steps=10)) < 8.5 * state_bytes

    @pytest.mark.parametrize("spec", [{"kind": "ball"}, {"kind": "perturbed_ball", "eps": 0.05}])
    def test_charts_with_one_field_and_grid_flow_alike(self, spec):
        # the same m^2 and the same node grid on both charts: the two
        # charts' results agree to the bit (the flow of each trajectory is
        # shared; test_shared_field_flows_each_trajectory_once checks it
        # against two separate flows)
        mink, _ = make_circular_domain(spec)
        flow = moser_flow(curvature(mink, ATLAS), n_steps=50)
        for got in (flow.endpoints, flow.phases, flow.jacobians):
            assert np.array_equal(got[0], got[1])

    @pytest.mark.parametrize("spec", [{"kind": "ball"}, {"kind": "perturbed_ball", "eps": 0.05}])
    def test_shared_field_flows_each_trajectory_once(self, spec):
        # charts that share one field flow the first chart's nodes only: the
        # results equal to the bit those of the two-chart flow, whose charts
        # call separate copies of the field, and every stage's field call
        # sees the nodes of one chart
        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ATLAS)
        fn = conn.fields[0]
        apart = conn._replace(fields={c: lambda xs, ys: fn(xs, ys) for c in ATLAS.charts})
        once, calls = spied(conn)
        got, want = moser_flow(once, n_steps=50), moser_flow(apart, n_steps=50)
        for name in ("endpoints", "phases", "jacobians"):
            for c in ATLAS.charts:
                assert np.array_equal(getattr(got, name)[c], getattr(want, name)[c])
        assert got.endpoint_residual == want.endpoint_residual
        assert calls[:200] == [(ATLAS.n_v**2,)] * 200

    @pytest.mark.parametrize(
        "spec, shared, stage_calls",
        [
            ({"kind": "ball"}, True, 200),
            ({"kind": "perturbed_ball", "eps": 0.05}, True, 200),
            ({"kind": "ellipsoid", "a": 1, "b": 4}, False, 400),
        ],
    )
    def test_one_field_call_per_distinct_field_and_stage(self, spec, shared, stage_calls):
        # charts with the same m^2 expression share one compiled field, and
        # each of the 4 x 50 stages calls each distinct field once; the
        # endpoint residual adds two calls per chart
        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ATLAS)
        assert (conn.fields[0] is conn.fields[1]) == shared
        doctored, calls = spied(conn)
        moser_flow(doctored, n_steps=50)
        assert len(calls) == stage_calls + 2 * len(ATLAS.charts)

    def test_degenerate_form_names_the_points_chart_and_start_node(self):
        # w_t <= 0 at one chart-1 point names chart 1 and the point's start
        # node (start chart, j, k), also when the charts share one field
        # call, and through a point order that is not the start order
        mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        conn = curvature(mink, ATLAS)
        good = conn.fields[0]
        P = ATLAS.base_points(1)[3, 5]

        def bad(xs, ys):
            F = np.reshape(good(xs, ys), (3, 4, -1))
            F[:, :2, (xs == P.real) & (ys == P.imag)] = -1.0
            return tuple(F.reshape(12, -1))

        with pytest.raises(MoserError, match=r"t=0\.000, chart 1, start node \(1, 3, 5\)"):
            moser_flow(conn._replace(fields={0: good, 1: bad}), n_steps=10)
        shared, calls = spied(conn._replace(fields={0: bad, 1: bad}))
        v = np.array([0.1, 0.2j, 0.3, 0.1, P, 0.3])
        f = _lifted_field([(shared.fields[0], slice(0, 6))], np.array([0, 0, 0, 1, 1, 1]),
                          np.array([5, 3, 4, 0, 1, 2]), (2, 3))
        with pytest.raises(MoserError, match=r"t=0\.500, chart 1, start node \(0, 1\)"):
            f(0.5, np.stack([v.real, v.imag, np.zeros(6)]), np.zeros((3, 2, 6)))
        assert len(calls) == 1

    def test_perturbed_ball_anchor(self):
        # at the benchmark's resolution the pulled-back target form equals
        # the reference form, and the fiber-constant mode has the closed-form
        # norm tanh(eps)
        mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        nm = normalize_domain(mink, atlas=ATLAS, n_steps=50)
        assert nm.residuals["endpoint"] <= 5.1e-12
        assert abs(extract(nm).mode_norms()[0] - np.tanh(0.05)) <= 1e-12

    def test_circle_equivariance(self):
        # the gauge is circle symmetric, so the endpoint map commutes with
        # v -> iv, which permutes the symmetric node grid exactly
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        conn = curvature(mink, ATLAS)
        E = moser_flow(conn, n_steps=50).endpoints[0]
        n = ATLAS.n_v
        xs = ATLAS.xs
        for j in range(0, n, 4):
            for k in range(0, n, 4):
                v = xs[j] + 1j * xs[k]
                jv = np.where(np.isclose(xs, -xs[k]))[0][0]
                kv = np.where(np.isclose(xs, xs[j]))[0][0]
                assert abs(E[jv, kv] - 1j * E[j, k]) < 1e-8, v


def _lift(flow, chart):
    return _sphere_point(
        chart, flow.endpoints[chart], flow.phases[chart], flow.jacobians[chart]
    )


class TestHorizontalLift:
    def test_sphere_preserved_and_projects(self):
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        conn = curvature(mink, ATLAS)
        flow = moser_flow(conn, n_steps=80)
        for c in (0, 1):
            s, _, _ = _lift(flow, c)
            # reference-sphere membership of the endpoints
            norms = np.linalg.norm(s, axis=-1)
            assert np.max(np.abs(norms - 1.0)) < 1e-14
            # the lift sits over the base flow
            proj = s[..., 1] / s[..., 0] if c == 0 else s[..., 0] / s[..., 1]
            assert np.max(np.abs(proj - flow.endpoints[c])) < 1e-13

    def test_ball_lift_is_stationary(self):
        mink, _ = make_circular_domain({"kind": "ball"})
        conn = curvature(mink, ATLAS)
        flow = moser_flow(conn, n_steps=30)
        s, _, _ = _lift(flow, 0)
        V = ATLAS.base_points(0)
        m_o = np.sqrt(1.0 + np.abs(V) ** 2)
        start = np.stack([np.ones_like(V), V], axis=-1) / m_o[..., None]
        assert np.max(np.abs(s - start)) < 1e-13

    def test_hand_off_keeps_sphere_point_and_derivatives(self):
        # v -> 1/v with theta -> theta + arg v re-expresses the same lifted
        # point in the other chart, so the sphere point and its derivatives
        # along the start coordinates must not change
        rng = np.random.default_rng(3)
        n = 200
        v = rng.uniform(2.0, 5.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        y = np.stack([v.real, v.imag, rng.uniform(-np.pi, np.pi, n)], axis=1)
        M = rng.normal(size=(n, 3, 2))
        y2, M2 = _hand_off(y.T, np.moveaxis(M, 0, -1))
        for c in (0, 1):
            before = _sphere_point(c, v, y[:, 2], M)
            after = _sphere_point(1 - c, y2[0] + 1j * y2[1], y2[2], np.moveaxis(M2, -1, 0))
            for a, b in zip(before, after):
                assert np.max(np.abs(a - b)) < 1e-13


def phase_gauged(nm):
    """The map e^{i lambda} W, lambda = 0.7 x - 0.4 y + 0.3 |v|^2, with its
    exact derivatives, and d(lambda) at the nodes, per chart."""
    W, dWx, dWy, dlam = {}, {}, {}, {}
    for c in nm.atlas.charts:
        V = nm.atlas.base_points(c)
        x, y = V.real, V.imag
        phase = np.exp(1j * (0.7 * x - 0.4 * y + 0.3 * (x * x + y * y)))[..., None]
        dlam[c] = np.stack([0.7 + 0.6 * x, -0.4 + 0.6 * y], axis=-1)
        W[c] = phase * nm.W[c]
        dWx[c] = phase * (nm.dWx[c] + 1j * dlam[c][..., 0, None] * nm.W[c])
        dWy[c] = phase * (nm.dWy[c] + 1j * dlam[c][..., 1, None] * nm.W[c])
    return nm._replace(W=W, dWx=dWx, dWy=dWy), dlam


def defect(nm, c):
    return measure_connection_mismatch(nm.mink, nm.atlas, c, nm.W[c], nm.dWx[c], nm.dWy[c])


class TestPhaseCorrection:
    """The lifted flow preserves the connection (moser module docstring),
    so the phase defect of the assembled map is RK4 truncation error and
    no phase correction is needed."""

    @pytest.mark.parametrize("fixture", ["ellipsoid_map", "perturbed_map"])
    def test_phase_gauge_adds_its_differential_to_the_defect(self, fixture, request):
        # the closed-form iW component is exact: a phase gauge e^{i lambda}
        # adds d(lambda), with components up to 1.45, to the measured defect
        # (measured within 4.4e-16)
        _, nm = request.getfixturevalue(fixture)
        gauged, dlam = phase_gauged(nm)
        for c in (0, 1):
            nu = defect(nm, c) + dlam[c]
            assert np.max(np.abs(nu)) > 0.5
            assert np.max(np.abs(defect(gauged, c) - nu)) < 1e-13

    def test_circle_symmetric_gauges_have_no_defect(self, ellipsoid_map):
        _, nm = ellipsoid_map
        # for a circle-symmetric gauge the lifted map already matches the
        # connection, to the flow's truncation error
        assert nm.residuals["connection_mismatch"] < 1e-8

    def test_remeasure_matches_stored_differential(self, perturbed_map):
        _, nm = perturbed_map
        # the defect re-measured from the stored node data is the reported
        # residual, and vanishes to the flow's truncation error
        worst = max(float(np.max(np.abs(defect(nm, c)))) for c in (0, 1))
        assert worst == nm.residuals["connection_mismatch"]
        assert worst < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "ellipsoid", "a": 1, "b": 4},
         {"kind": "perturbed_ball", "eps": 0.2, "q": {3: 1}}],
    )
    def test_defect_is_fourth_order_truncation_error(self, spec):
        # halving the step divides the defect by 2^4 (measured 16.1 and
        # 15.6): it is RK4 error, not a connection left to correct
        mink, _ = make_circular_domain(spec)
        nu = [normalize_domain(mink, atlas=ATLAS, n_steps=n).residuals["connection_mismatch"]
              for n in (25, 50)]
        assert 14.0 <= nu[0] / nu[1] <= 18.0, nu

    @pytest.mark.parametrize("fixture", ["ellipsoid_map", "perturbed_map"])
    def test_extraction_ignores_a_phase_gauge(self, fixture, request):
        # the tensor of e^{i lambda} W equals that of W (measured within
        # 1.5e-15): a phase left by the flow cannot move a mode
        _, nm = request.getfixturevalue(fixture)
        a, b = extract(nm), extract(phase_gauged(nm)[0])
        for c in (0, 1):
            assert np.max(np.abs(a.modes[c] - b.modes[c])) < 1e-14


class TestNormalizingMap:
    def test_ball_map_is_identity(self, ball_map):
        # closed-form anchor: the ball is the fixed point of the
        # normalization, W(v) = p(v) on both charts within 1e-12
        _, nm = ball_map
        for c in (0, 1):
            V = ATLAS.base_points(c)
            ones = np.ones_like(V)
            expected = np.stack([ones, V] if c == 0 else [V, ones], axis=-1)
            assert np.max(np.abs(nm.W[c] - expected)) < 1e-12
        rng = np.random.default_rng(1)
        z = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
        z *= 0.5 / np.linalg.norm(z, axis=1)[:, None]
        assert np.max(np.abs(forward(nm, z) - z)) < 1e-12

    def test_gauge_normalization(self, ellipsoid_map, perturbed_map):
        ball, _ = make_circular_domain({"kind": "ball"})
        rng = np.random.default_rng(7)
        z = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        z *= rng.uniform(0.2, 0.6, size=100)[:, None] / np.linalg.norm(z, axis=1)[:, None]
        for mink, nm in (ellipsoid_map, perturbed_map):
            zp = forward(nm, z)
            assert np.max(np.abs(mink.mu(zp) - ball.mu(z))) < 1e-7

    def test_fiber_linearity(self, perturbed_map):
        _, nm = perturbed_map
        rng = np.random.default_rng(11)
        z = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
        z *= 0.4 / np.linalg.norm(z, axis=1)[:, None]
        lam = rng.normal(size=20) + 1j * rng.normal(size=20)
        a = forward(nm, lam[:, None] * z)
        b = lam[:, None] * forward(nm, z)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_residual_report_keys(self, perturbed_map):
        _, nm = perturbed_map
        assert list(nm.residuals) == ["endpoint", "connection_mismatch", "gauge_normalization"]
        assert all(np.isfinite(value) for value in nm.residuals.values())

    def test_small_perturbations_give_small_maps(self):
        # the distance of W from the identity map scales linearly in the
        # perturbation amplitude
        at = ChartAtlas(n=2, n_v=17)
        V = at.base_points(0)
        ident = np.stack([np.ones_like(V), V], axis=-1)
        dists = []
        for eps in (0.01, 0.02):
            mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": eps})
            nm = normalize_domain(mink, atlas=at, n_steps=50)
            dists.append(float(np.max(np.abs(nm.W[0] - ident))))
        ratio = dists[1] / dists[0]
        assert 1.6 < ratio < 2.4, dists


class TestClosedForms:
    """The pipeline against the closed form of closed_forms.py, node by
    node: curvature, flow and lift, assembly, extraction and the mode norm
    at once."""

    def test_reinhardt_mode0_norm_is_the_beltrami_coefficient(self):
        # mu^2 = |z|^2 + 0.3 (|z1|^4 + |z2|^4) / |z|^2, built as a node as
        # make_circular_domain builds a gauge, at N_v = 17 and 50 steps:
        # at every node with 0 < |v| < 1.7 of both charts |phi_0| is
        # |mu_B(psi^-1(|v|))| within 5e-11, the measured 1.8e-11 with a
        # margin of 2.7; the error is the flow's RK4 truncation (7.2e-14
        # at 200 steps), and without psi^-1 it reads 1.6e-2
        from closed_forms import RHO, RadialMoserMap
        from maform.domains import _chart_inclusion, ambient_coords
        from maform.symforms import subs

        c = 0.3
        coords = ambient_coords(2)
        x1, y1, x2, y2 = coords
        a1, a2 = x1**2 + y1**2, x2**2 + y2**2
        mu_sq = a1 + a2 + c * (a1**2 + a2**2) / (a1 + a2)
        m_sq = {chart: subs(mu_sq, dict(zip(coords, _chart_inclusion(2, chart, real_coords(2)))))
                for chart in ATLAS.charts}
        mink = MinkowskiField(n=2, kind="reinhardt", params={}, mu_sq_ambient=mu_sq, m_sq_charts=m_sq)
        tensor = extract(normalize_domain(mink, atlas=ATLAS, n_steps=50))
        radial = RadialMoserMap(1 + RHO**2 + c * (1 + RHO**4) / (1 + RHO**2))
        for chart in ATLAS.charts:
            p = np.abs(ATLAS.base_points(chart))
            inside = (p > 0) & (p < 1.7)
            want = np.array([radial.mode0_norm(r) for r in p[inside]])
            got = np.abs(tensor.modes[chart][0][..., 0, 0][inside])
            assert inside.sum() == 284
            assert np.max(np.abs(got - want)) < 5e-11
