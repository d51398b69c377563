"""The Moser flow on whole-state arrays, stage by stage, the tests'
bit-for-bit reference for moser.moser_flow, which runs in place.

Each stage gathers the points of every field with np.isin, scatters the
12 field planes into whole-state planes, and returns fresh slope and
variational arrays; rk4_step keeps all four stages and sums them at the
end.  The points never change order.  moser_flow must reproduce its
endpoints, phases and Jacobians to the bit: its stages do the same
floating-point operations on each point, in the same order.
"""

import numpy as np

from maform.moser import MoserError, _charts_by_field, _hand_off


def lifted_field(fields, chart_of, node_shape):
    """f(t, state, M) of the lifted flow on points in the charts chart_of,
    in start order."""
    groups = [(fn, np.flatnonzero(np.isin(chart_of, cs)))
              for fn, cs in _charts_by_field(fields).items()]
    groups = [(fn, idx) for fn, idx in groups if len(idx)]

    def f(t, state, M):
        x, y = state[0], state[1]
        if len(groups) == 1:
            F = groups[0][0](x, y)
        else:
            F = [np.empty(len(x)) for _ in range(12)]
            for fn, idx in groups:
                for plane, part in zip(F, fn(x[idx], y[idx])):
                    plane[idx] = part
        w = [(1.0 - t) * F[k] + t * F[k + 1] for k in (0, 4, 8)]
        if np.min(w[0]) <= 0:
            p = np.argmin(w[0])
            raise MoserError(
                f"interpolated form degenerates at t={t:.3f}, chart {chart_of[p]}, "
                f"start node {tuple(map(int, np.unravel_index(p, node_shape)))}, "
                f"v={complex(x[p], y[p]):.4f}"
            )
        a = -F[3] / w[0]
        b = F[2] / w[0]
        dw = np.array(w[1:])
        da = (-np.array([F[7], F[11]]) - a * dw) / w[0]
        db = (np.array([F[6], F[10]]) - b * dw) / w[0]
        q = 1.0 + x * x + y * y
        rate = (a * y - b * x) / q
        drate = (da * y - db * x + np.array([-b, a]) - 2.0 * rate * state[:2]) / q
        D = np.array([da, db, drate])
        return np.array([a, b, rate]), D[:, 0, None] * M[0] + D[:, 1, None] * M[1]

    return f


def rk4_step(f, t, y, dt, M):
    half = dt / 2
    k1, N1 = f(t, y, M)
    k2, N2 = f(t + half, y + half * k1, M + half * N1)
    k3, N3 = f(t + half, y + half * k2, M + half * N2)
    k4, N4 = f(t + dt, y + dt * k3, M + dt * N3)
    y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y_new, M + dt / 6 * (N1 + 2 * N2 + 2 * N3 + N4)


def reference_flow(conn, n_steps):
    """Endpoints, phases and Jacobians per chart, as moser_flow returns
    them, and the number of hand-off steps with the number of points they
    move, the final return of every handed point to its start chart
    included."""
    at = conn.atlas
    lead = {fn: charts[0] for fn, charts in _charts_by_field(conn.fields).items()}
    flown = sorted(lead.values())
    V0 = np.stack([at.base_points(c) for c in flown])
    start = np.repeat(flown, V0[0].size)
    chart_of = start.copy()
    y = np.array([V0.real.ravel(), V0.imag.ravel(), np.zeros(V0.size)])
    M = np.zeros((3, 2, V0.size))
    M[0, 0] = M[1, 1] = 1.0
    f = lifted_field(conn.fields, chart_of, V0.shape)
    dt = 1.0 / n_steps
    steps = moved = 0
    for i in range(n_steps):
        y, M = rk4_step(f, i * dt, y, dt, M)
        far = np.hypot(y[0], y[1]) > 3.0
        if np.any(far):
            steps, moved = steps + 1, moved + int(np.count_nonzero(far))
            y[:, far], M[..., far] = _hand_off(y[:, far], M[..., far])
            chart_of[far] = 1 - chart_of[far]
            f = lifted_field(conn.fields, chart_of, V0.shape)
    flipped = chart_of != start
    if np.any(flipped):
        steps, moved = steps + 1, moved + int(np.count_nonzero(flipped))
        y[:, flipped], M[..., flipped] = _hand_off(y[:, flipped], M[..., flipped])
    rows = [flown.index(lead[conn.fields[c]]) for c in at.charts]
    y = y.reshape((3,) + V0.shape)[:, rows]
    M = np.moveaxis(M.reshape((3, 2) + V0.shape)[:, :, rows], (0, 1), (-2, -1))
    endpoints = {c: y[0, c] + 1j * y[1, c] for c in at.charts}
    phases = {c: y[2, c] for c in at.charts}
    jacobians = {c: M[c] for c in at.charts}
    return (endpoints, phases, jacobians), (steps, moved)
