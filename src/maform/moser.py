"""Normalization of circular domains at n = 2.

The circle-bundle geometry of a gauge mu on C^2 induces a curvature 2-form
on the base CP^1.  A Moser flow deforms the reference area form into that
curvature form.  Its horizontal lift to the unit sphere has the closed form
u = e^{i theta} (1, v) / sqrt(1 + |v|^2) on chart 0 (the Hopf connection),
so the one flow carries the phase theta next to the base point; the
assembled map is fiber-linear over the base, z = zeta(1, v) -> zeta * W(v),
normalizes the gauge, and is the input to deformation-tensor extraction.

The lift carries the connection as well as the curvature (Moser's argument,
Trans. AMS 120, 1965, applied to connections).  In a chart the connections
eta_t = eta_o + t alpha have d(eta_t) = omega_t, and the field solves
i_{X_t} omega_t = -alpha, so alpha(X_t) = -omega_t(X_t, X_t) = 0: the
Hopf-horizontal lift Y of X_t is eta_t-horizontal for every t.  Then
L_Y eta_t + d(eta_t)/dt = i_Y omega_t + alpha = 0, which gives
psi_1^* eta_1 = eta_o.  The phase defect that assemble measures is the
flow's RK4 truncation error, and falls 16-fold per step doubling.

Design notes: all flow fields are evaluated from exact chart expressions.
The curvature coefficient and the primitive, with their x and y
partials, come from the compiled order-3 jet of log m^2 (symforms.Jet.compile,
once per distinct chart expression) and the closed forms of the reference
terms, so spatial discretization error enters only through the node
sampling of results, not through the dynamics.  The curvature check and
its disk integral read the coefficient from the same jet, so each chart
expression compiles once.  The nodes of all charts advance as one batched
flow on real planes, sorted by chart field so that each field's points
are one contiguous slice (re-sorted only on steps that hand points to the
other chart).  Each RK4 stage calls each distinct field once on its
slice, giving the field and its exact Jacobian as 12 planes, and writes
the slope and the 3x2 variational slope of the slice into buffers that
rk4_step sums in place, so a stage allocates only plane temporaries of
its slice.  mu^2 and its ambient gradient (the lift's gauge derivative,
the phase component of the defect and the gauge residual) come from its
order-1 jet, evaluated once at the sphere points and once at W.
The derivative dW that extraction needs at grid nodes is propagated by
variational Jacobians along the flow and stored exactly at the nodes,
never re-estimated by differencing an interpolant.  The small dense
algebra is closed-form: the quadrature rule by Newton's iteration and
the endpoint determinant as ad - bc, so the Moser commands at n = 2 call
no LAPACK or BLAS routine.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .atlas import ChartAtlas, R_OUTER
from .deformation import _ambient_of
from .domains import MinkowskiField
from .ode import rk4_step
from .symforms import Jet, call, real_coords, to_real


class MoserError(ValueError):
    """Degenerate or inconsistent normalization data."""


FS_AREA = 4.0 * np.pi  # integral of the reference form under the convention


# ---------------------------------------------------------------------------
# curvature of the gauge circle bundle


class ConnectionData(NamedTuple):
    """Curvature 2-form data of a gauge on the base CP^1.

    fields: chart -> compiled callable of _chart_fields, one object for
    charts with the same m^2, giving at (x, y) arrays the 12 planes of the
    coefficients w_o and w of the reference form and of the curvature form
    omega = w dx^dy, the components (alpha_x, alpha_y) of the primitive
    with omega - omega_o = d(alpha), and the x and y partials of all four.
    """

    mink: MinkowskiField
    atlas: ChartAtlas
    fields: dict
    integral: float
    min_coefficient: float


@cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's iteration on the roots of P_n from the three-term recurrence,
    started at the asymptotic estimates cos(pi (i - 1/4) / (n + 1/2)),
    and the weights 2 / ((1 - x^2) P_n'(x)^2) (Abramowitz and Stegun
    25.4.29), ascending."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, prev = x, np.ones_like(x)
        for k in range(2, n + 1):
            p, prev = ((2 * k - 1) * x * p - (k - 1) * prev) / k, p
        slope = n * (x * p - prev) / (x * x - 1.0)
        if np.max(np.abs(p / slope)) < 1e-15:
            return x, 2.0 / ((1.0 - x * x) * slope * slope)
        x = x - p / slope
    raise MoserError(f"Gauss-Legendre nodes for n = {n} did not converge")


def _disk_integral(fn, n_r=40, n_theta=80):
    """Integral of a smooth density over the unit disk.

    Gauss-Legendre in radius and a trapezoid rule in angle (spectrally
    accurate for periodic integrands), so analytic integrands converge to
    machine precision well before the node counts used here.  fn runs on
    blocks of 10 radii, so its temporaries do not grow with n_r.
    """
    nodes, weights = _gauss_legendre(n_r)
    rs = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights * rs
    th = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    V = rs[:, None] * np.exp(1j * th)[None, :]
    total = sum(np.sum(fn(V[s:s + 10].real, V[s:s + 10].imag) * wr[s:s + 10, None])
                for s in range(0, n_r, 10))
    return float(total * (2 * np.pi / n_theta))


@cache
def _chart_fields(m_sq):
    """Compiled (w_o, w, alpha_x, alpha_y) at (x, y) arrays of a chart with
    gauge chart function m_sq, then their x and then their y partials: a
    tuple of 12 planes of the point shape, in the row-major order of (3, 4).

    With L = log m^2 and g = L - log q, q = 1 + |v|^2, w = L_xx + L_yy and
    alpha = dc g = (-g_y, g_x), from the order-3 jet of L.  The reference
    terms are closed forms in r = 1/q: w_o = 4 r^2, dw_o = -16 r^3 (x, y),
    and log q has the partials 2 x r, 2 y r, 2 r - 4 x^2 r^2, -4 x y r^2 and
    2 r - 4 y^2 r^2.  Memoized on the hash-consed node, so charts with the
    same m^2 share one callable.
    """
    log_m_sq = Jet.compile(call("log", m_sq), real_coords(2), 3)

    def fields(xs, ys):
        _, Lx, Ly, Lxx, Lxy, Lyy, Lxxx, Lxxy, Lxyy, Lyyy = log_m_sq(xs, ys)
        r = 1.0 / (1.0 + xs * xs + ys * ys)
        Qx, Qy = 2.0 * r * xs, 2.0 * r * ys  # the x and y partials of log q
        wo = 4.0 * r * r
        gxy = Lxy + Qx * Qy
        return (wo, Lxx + Lyy, Qy - Ly, Lx - Qx,
                -2.0 * wo * Qx, Lxxx + Lxyy, -gxy, Lxx - 2.0 * r + Qx * Qx,
                -2.0 * wo * Qy, Lxxy + Lyyy, 2.0 * r - Qy * Qy - Lyy, gxy)

    return fields


def _charts_by_field(fields):
    """Each distinct callable of a chart -> field dict, with its charts."""
    return {fn: [c for c in fields if fields[c] is fn] for fn in fields.values()}


def curvature(mink: MinkowskiField, atlas=None) -> ConnectionData:
    """Curvature form of the gauge circle bundle on the base charts.

    omega = ddc log m^2 per chart, its coefficient w = L_xx + L_yy read
    from the flow's fields (_chart_fields), so each distinct chart
    expression compiles one jet; positivity of the coefficient witnesses
    strict pseudoconvexity of the gauge, and the chart-weighted integral
    must reproduce the reference total area (the two forms differ by an
    exact form).
    """
    if mink.n != 2:
        raise MoserError("curvature data is implemented for n = 2")
    if atlas is None:
        atlas = ChartAtlas(n=2, n_v=33)
    fields = {c: _chart_fields(mink.m_sq_charts[c]) for c in atlas.charts}
    shared = {fn: len(charts) for fn, charts in _charts_by_field(fields).items()}
    V = atlas.base_points(0)  # every chart has the same node grid
    mins = []
    for fn, charts in _charts_by_field(fields).items():
        w = fn(V.real, V.imag)[1]
        node = np.unravel_index(np.argmin(w), w.shape)
        if w[node] <= 0:
            raise MoserError(
                f"curvature coefficient not positive on chart {charts[0]} at node "
                f"{tuple(map(int, node))}, v={V[node]:.4f} (min {w[node]:.3e}): "
                "gauge is not strictly pseudoconvex"
            )
        mins.append(float(w[node]))
    min_coeff = min(mins)
    # each chart's closed unit disk covers CP^1 exactly once (the two
    # boundary circles are identified), and the integrand is analytic, so
    # the high-order disk rule resolves the total to machine precision
    total = sum(
        count * _disk_integral(lambda xs, ys, fn=fn: fn(xs, ys)[1])
        for fn, count in shared.items()
    )
    conn = ConnectionData(
        mink=mink,
        atlas=atlas,
        fields=fields,
        integral=total,
        min_coefficient=min_coeff,
    )
    if abs(conn.integral - FS_AREA) > 1e-6:
        raise MoserError(
            f"total curvature {conn.integral:.10f} deviates from the "
            f"reference {FS_AREA:.10f}: chart/weight inconsistency"
        )
    return conn


# ---------------------------------------------------------------------------
# Moser flow on the base


class MoserFlowResult(NamedTuple):
    """Endpoint samples of the flow, per start chart: the base end positions
    (represented in the same chart), the Hopf phases theta of the lifted
    sphere points, and the real 3x2 derivatives of (x, y, theta) with
    respect to the start coordinates."""

    conn: ConnectionData
    n_steps: int
    endpoints: dict  # chart -> complex (n_v, n_v)
    phases: dict  # chart -> real (n_v, n_v)
    jacobians: dict  # chart -> real (n_v, n_v, 3, 2)
    endpoint_residual: float


def _lifted_field(groups, chart_of, node, node_shape):
    """The base field X_t and the Hopf phase rate theta' = (Re X y - Im X
    x) / (1 + |v|^2) of the horizontal lift, as f(t, state, M) for rk4_step
    on real planes: the state of shape (3, P) holds (x, y, theta) of P points
    in the charts chart_of, and M of shape (3, 2, P) their derivatives.
    groups holds (field, slice) pairs: the points of each slice lie in
    charts with that field callable, and the slices partition the points.

    With omega_t = (1-t) omega_o + t omega and the exact primitive alpha of
    omega - omega_o, X_t solves i_{X_t} omega_t = -alpha, which in a chart
    is X = (-alpha_y + i alpha_x) / w_t.  Each stage calls each field once,
    on its contiguous slice, reads its 12 planes and writes the slope and
    the variational slope of the slice into the two buffers that f returns
    from every call.  The field does not depend on theta, so the
    variational slope is Df[:, :2] M[:2], formed as plane products.  A
    degenerate w_t names the point's chart and its start node: the flat
    index node of the point in node_shape (in moser_flow, (start chart, j,
    k)).
    """
    slope, var = np.empty((3, len(node))), np.empty((3, 2, len(node)))

    def f(t, state, M):
        for field, s in groups:
            x, y = state[0, s], state[1, s]
            F = field(x, y)
            w, wx, wy = [(1.0 - t) * F[k] + t * F[k + 1] for k in (0, 4, 8)]  # w_t and its partials
            if np.min(w) <= 0:
                p = s.start + int(np.argmin(w))
                raise MoserError(
                    f"interpolated form degenerates at t={t:.3f}, chart {chart_of[p]}, "
                    f"start node {tuple(map(int, np.unravel_index(node[p], node_shape)))}, "
                    f"v={complex(state[0, p], state[1, p]):.4f}"
                )
            a = np.divide(-F[3], w, out=slope[0, s])  # Re X
            b = np.divide(F[2], w, out=slope[1, s])  # Im X
            q = 1.0 + x * x + y * y
            rate = np.divide(a * y - b * x, q, out=slope[2, s])
            # the x and y partials of (a, b, rate), by the quotient rule
            da = ((-F[7] - a * wx) / w, (-F[11] - a * wy) / w)
            db = ((F[6] - b * wx) / w, (F[10] - b * wy) / w)
            two_rate = 2.0 * rate
            drate = ((da[0] * y - db[0] * x - b - two_rate * x) / q,
                     (da[1] * y - db[1] * x + a - two_rate * y) / q)
            for out, (dx, dy) in zip(var[..., s], (da, db, drate)):
                np.multiply(dx, M[0, :, s], out=out)
                out += dy * M[1, :, s]
        return slope, var

    return f


def _hand_off(state, M):
    """The same sphere points in the opposite chart: v -> 1/v and theta ->
    theta + arg v, on planes (x, y, theta) of shape (3, P) and M of shape
    (3, 2, P), with the start derivatives carried by d(1/v) = -dv / v^2
    and d(arg v) = (x dy - y dx) / |v|^2."""
    x, y = state[0], state[1]
    v = x + 1j * y
    w = 1.0 / v
    dv = -1.0 / v**2 * (M[0] + 1j * M[1])
    d_arg = (x * M[1] - y * M[0]) / (x * x + y * y)
    return (np.array([w.real, w.imag, state[2] + np.angle(v)]),
            np.array([dv.real, dv.imag, M[2] + d_arg]))


def _sphere_point(chart, v, theta, M):
    """Horizontal lift s = e^{i theta} p / m of base points v of a chart,
    p = (1, v) on chart 0 and (v, 1) on chart 1, m = |p|, with its
    derivatives along the two start coordinates from the 3x2 matrices M.

    Returns s, ds_dx, ds_dy, each of shape v.shape + (2,).
    """
    m = np.sqrt(1.0 + np.abs(v) ** 2)[..., None]
    p = _ambient_of(2, chart, v, 1.0)
    e = np.zeros_like(p)
    e[..., 1 - chart] = 1.0
    rot = np.exp(1j * theta)[..., None]
    out = [rot * p / m]
    for a in (0, 1):
        va = (M[..., 0, a] + 1j * M[..., 1, a])[..., None]
        theta_a = M[..., 2, a][..., None]
        dm = np.real(np.conj(v)[..., None] * va)
        out.append(rot * (1j * theta_a * p / m + e * va / m - p * dm / m**3))
    return tuple(out)


def moser_flow(conn: ConnectionData, n_steps=200):
    """Integrate the interpolation flow and its horizontal lift from t = 0
    to 1 on the base grids.

    Fixed-step RK4 on node trajectories of the state (x, y, theta), theta
    the Hopf phase of the lift to the unit sphere, with the variational 3x2
    Jacobian propagated alongside, the nodes of all charts as one state of
    real planes.  Trajectories that wander far from their chart are handed
    to the opposite chart and converted back for storage.  The points stay
    sorted by field callable, each field's points one slice, so a hand-off
    step that moves points between fields re-sorts them (np.take, which
    keeps the planes C-ordered; y[:, order] would not), and the endpoints
    are put back in start-node order.  Charts with one field callable
    start from one node grid and flow alike to the bit, so only the first
    chart of each field flows and the others get copies of its results.
    The endpoint contract (the pullback of the target form equals the
    reference form, its determinant ad - bc) is measured at every node.
    """
    at = conn.atlas
    lead = {fn: charts[0] for fn, charts in _charts_by_field(conn.fields).items()}
    flown = sorted(lead.values())
    fns = [conn.fields[c] for c in flown]
    # chart -> the position of its field's lead chart among the flown ones
    rank = np.array([flown.index(lead[conn.fields[c]]) for c in at.charts])
    V0 = np.stack([at.base_points(c) for c in flown])
    start = np.repeat(flown, V0[0].size)
    chart_of, node = start.copy(), np.arange(V0.size)
    y = np.array([V0.real.ravel(), V0.imag.ravel(), np.zeros(V0.size)])
    M = np.zeros((3, 2, V0.size))
    M[0, 0] = M[1, 1] = 1.0

    def field():
        bounds = np.searchsorted(rank[chart_of], np.arange(len(fns) + 1))
        groups = [(fn, slice(lo, hi)) for fn, lo, hi in zip(fns, bounds, bounds[1:]) if hi > lo]
        return _lifted_field(groups, chart_of, node, V0.shape)

    f = field()
    dt = 1.0 / n_steps
    # the step's sum and stage pairs; each step's start pair becomes the
    # next step's sum, so the steps allocate no state
    spare = [(np.empty_like(y), np.empty_like(M)) for _ in range(2)]
    for i in range(n_steps):
        start_pair = (y, M)
        y, M = rk4_step(f, i * dt, y, dt, M, spare)
        spare[0] = start_pair
        # hand far wanderers to the opposite chart (avoids infinity)
        far = np.hypot(y[0], y[1]) > 3.0
        if np.any(far):
            y[:, far], M[..., far] = _hand_off(y[:, far], M[..., far])
            chart_of[far] = 1 - chart_of[far]
            if len(fns) > 1:
                order = np.argsort(rank[chart_of], kind="stable")
                y, M = np.take(y, order, axis=-1), np.take(M, order, axis=-1)
                chart_of, node = chart_of[order], node[order]
                f = field()
    # represent endpoints in the start chart, in start-node order
    flipped = chart_of != start[node]
    if np.any(flipped):
        y[:, flipped], M[..., flipped] = _hand_off(y[:, flipped], M[..., flipped])
    order = np.argsort(node)
    y, M = np.take(y, order, axis=-1), np.take(M, order, axis=-1)
    y = y.reshape((3,) + V0.shape)[:, rank]
    M = np.moveaxis(M.reshape((3, 2) + V0.shape)[:, :, rank], (0, 1), (-2, -1))
    endpoints = {c: y[0, c] + 1j * y[1, c] for c in at.charts}
    phases = {c: y[2, c] for c in at.charts}
    jacobians = {c: M[c] for c in at.charts}

    resid = 0.0
    for c in at.charts:
        fields, E, V = conn.fields[c], endpoints[c], at.base_points(c)
        J = jacobians[c]
        pulled = fields(E.real, E.imag)[1] * (J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0])
        ref = fields(V.real, V.imag)[0]
        resid = max(resid, float(np.max(np.abs(pulled - ref)[np.abs(V) <= R_OUTER])))
    return MoserFlowResult(
        conn=conn,
        n_steps=n_steps,
        endpoints=endpoints,
        phases=phases,
        jacobians=jacobians,
        endpoint_residual=resid,
    )


# ---------------------------------------------------------------------------
# assembly


def measure_connection_mismatch(atlas, chart, W, dWx, dWy, grad):
    """Phase defect 1-form at the chart nodes of a fiber-linear map.

    For a map z = zeta p(v) -> zeta W(v), the reference horizontal lift of
    the base direction e (1 or i, the x or y direction) at z = p(v) pushes
    to X = dW_e - e vbar W / (1 + |v|^2); nu(e) is its component along the
    fiber phase direction iW, -d(mu^2)(iX) / d(mu^2)(W): d(mu^2) kills the
    gauge-horizontal plane, which is J-invariant, and iW, and reads 2 mu^2
    on W by Euler's identity; grad is the real gradient of mu^2 at W
    (MinkowskiField.mu_sq_jet).  Returns nu with shape (n_v, n_v, 2).
    """
    V = atlas.base_points(chart)

    def d_mu_sq(X):
        return np.sum(grad * to_real(X), axis=-1)

    drift = (np.conj(V) / (1.0 + np.abs(V) ** 2))[..., None] * W
    nu = [-d_mu_sq(1j * (dW - e * drift)) for e, dW in ((1.0, dWx), (1j, dWy))]
    return np.stack(nu, axis=-1) / d_mu_sq(W)[..., None]


class NormalizingMap(NamedTuple):
    """Fiber-linear normalizing diffeomorphism z = zeta p(v) -> zeta W(v).

    W and its base derivatives are stored exactly at the grid nodes
    (flow-accurate).
    """

    mink: MinkowskiField
    atlas: ChartAtlas
    W: dict  # chart -> complex (n_v, n_v, 2)
    dWx: dict
    dWy: dict
    residuals: dict


def assemble(flow: MoserFlowResult) -> NormalizingMap:
    """The final map from the lifted base flow.

    Builds W = m_o * s_hat / mu(s_hat) per chart from the horizontal lift
    s_hat of the flow endpoints, with flow-accurate derivatives, and
    measures the phase defect of that map (module docstring) as the
    connection_mismatch residual.
    """
    conn = flow.conn
    mink = conn.mink
    at = conn.atlas

    W, dWx, dWy = {}, {}, {}
    connection = gauge_resid = 0.0
    for chart in at.charts:
        V = at.base_points(chart)
        m_o = np.sqrt(1.0 + np.abs(V) ** 2)
        dm_dx = (V.real / m_o)[..., None]
        dm_dy = (V.imag / m_o)[..., None]
        s, sx, sy = _sphere_point(
            chart, flow.endpoints[chart], flow.phases[chart], flow.jacobians[chart]
        )
        mu_sq, grad = mink.mu_sq_jet(s)
        mu = np.sqrt(mu_sq)
        dmu_x = np.sum(grad * to_real(sx), axis=-1) / (2 * mu)
        dmu_y = np.sum(grad * to_real(sy), axis=-1) / (2 * mu)
        mo3 = m_o[..., None]
        mu3 = mu[..., None]
        W[chart] = mo3 * s / mu3
        dWx[chart] = dm_dx * s / mu3 + mo3 * sx / mu3 - mo3 * s * (dmu_x / mu**2)[..., None]
        dWy[chart] = dm_dy * s / mu3 + mo3 * sy / mu3 - mo3 * s * (dmu_y / mu**2)[..., None]
        mu_sq, grad = mink.mu_sq_jet(W[chart])
        nu = measure_connection_mismatch(at, chart, W[chart], dWx[chart], dWy[chart], grad)
        connection = max(connection, float(np.max(np.abs(nu))))
        # gauge normalization at the stored nodes
        gauge = np.sqrt(mu_sq) - m_o
        gauge_resid = max(gauge_resid, float(np.max(np.abs(gauge))))

    residuals = {
        "endpoint": flow.endpoint_residual,
        "connection_mismatch": connection,
        "gauge_normalization": gauge_resid,
    }
    return NormalizingMap(mink=mink, atlas=at, W=W, dWx=dWx, dWy=dWy, residuals=residuals)


def normalize_domain(mink: MinkowskiField, atlas=None, n_steps=200) -> NormalizingMap:
    """Full normalization pipeline for a closed-form gauge."""
    conn = curvature(mink, atlas)
    return assemble(moser_flow(conn, n_steps=n_steps))
