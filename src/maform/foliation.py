"""Degenerate Monge-Ampere geometry of a parabolic exhaustion.

Off the center, a parabolic exhaustion tau determines a real vector field Z
by ddc tau(Z, JX) = dtau(X) for every X; Z and JZ span the leaves of the
Monge-Ampere foliation.  The identities verified here characterize when
tau solves the homogeneous complex Monge-Ampere equation; their failure is
a quantitative obstruction, not an exception.

All computations run in ambient real coordinates of C^n; the derivatives
of tau are exact (symbolic), and tau, dtau and ddc tau are compiled into
one callable.  The identity suite evaluates first and does the algebra
afterwards: it compiles only the derivatives the Z field does not hold
(ddc log tau and ddc tau^k, k >= 2) and builds its wedge products from
point values.  The Lie derivative along Z is taken by finite differences
in flow time, and the flow's variational equation uses DZ by central
differences of Z, the one remaining finite difference of the identity
suite.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import sympy as sp

from .domains import ExhaustionField
from .exterior import jo_comps, standard_j_matrix, wedge_comps
from .ode import rk4_step
from .symforms import AnalyticForm, compile_exprs

# central-difference step of DZ, and the flow-time step of the Lie
# derivative relative to the local tau
JACOBIAN_STEP = 1e-5
LIE_REL_STEP = 5e-4


class FoliationError(ValueError):
    """Degenerate data where nondegeneracy is required (reports the node)."""


# ---------------------------------------------------------------------------
# the Monge-Ampere field


class ZFieldEvaluator:
    """Nodewise solver for the field Z of the defining linear condition.

    ddc tau(Z, J X) = dtau(X) for all X reads (A J)^T Z = dtau with A the
    antisymmetric coefficient matrix of ddc tau; the solution is unique
    wherever A is invertible.  dtau and ddc tau are differentiated once,
    here, and the identity suite reads their values from fields.
    """

    def __init__(self, tau_form):
        self.tau = tau_form
        self.dim = tau_form.dim
        self.J = standard_j_matrix(self.dim)
        dtau = tau_form.d()
        ddc = tau_form.dc().d()
        self._pairs = list(ddc.comps)
        exprs = [tau_form.comps.get((), 0)]
        exprs += [dtau.comps.get((k,), 0) for k in range(self.dim)]
        exprs += [ddc.comps[p] for p in self._pairs]
        self._fields = compile_exprs(tau_form.coords, exprs)

    def fields(self, pts):
        """tau (N,), dtau (N, dim) and the antisymmetric matrix A
        (N, dim, dim) of ddc tau at real points (N, dim), from one call."""
        pts = np.asarray(pts, dtype=float)
        vals = np.real(self._fields(*pts.T))
        A = np.zeros((len(pts), self.dim, self.dim))
        for (i, j), row in zip(self._pairs, vals[1 + self.dim:]):
            A[:, i, j] = row
            A[:, j, i] = -row
        return vals[0], vals[1:1 + self.dim].T, A

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        _, rhs, A = self.fields(pts)
        M = np.swapaxes(A @ self.J, -1, -2)
        dets = np.abs(np.linalg.det(M))
        if np.min(dets) < 1e-12:
            bad = int(np.argmin(dets))
            raise FoliationError(
                f"ddc tau degenerate at node {bad}: point {pts[bad].tolist()}"
            )
        return np.linalg.solve(M, rhs[..., None])[..., 0]

    def jacobian(self, pts):
        """Spatial derivative DZ (N, dim, dim) by central differences of the
        evaluator, with all 2 dim shifted copies of the points in one call."""
        pts = np.asarray(pts, dtype=float)
        n, d = pts.shape
        shifts = JACOBIAN_STEP * np.concatenate([np.eye(d), -np.eye(d)])
        Z = self((pts + shifts[:, None, :]).reshape(-1, d)).reshape(2, d, n, d)
        return np.moveaxis((Z[0] - Z[1]) / (2.0 * JACOBIAN_STEP), 0, -1)


def _ambient_points(n, n_samples, seed=11, lo=0.35, hi=1.0):
    """Random sample points in the spherical shell lo <= |z| <= hi."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_samples, 2 * n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = rng.uniform(lo, hi, size=(n_samples, 1))
    return raw * radii


# ---------------------------------------------------------------------------
# identity suite


def _lie_derivative_flow(ev: ZFieldEvaluator, pts):
    """Lie derivative of ddc tau along Z at pts, via a symmetric five-point
    stencil in flow time of the pulled-back form.

    The step h_i is proportional to the local tau (the flow rescales tau by
    e^t); the five-point stencil keeps the finite-difference error near
    1e-14 so the 1e-10 identity budget is dominated by roundoff.  The flow
    of Z for time s h_i from point i is the flow of h_i Z for time s, so
    each stencil point is one RK4 step of every point together.
    """
    pts = np.asarray(pts, dtype=float)
    hs = LIE_REL_STEP * np.minimum(ev.fields(pts)[0], 1.0)

    def scaled_field(_t, y):
        return hs[:, None] * ev(y), hs[:, None, None] * ev.jacobian(y)

    def pullback(s):
        q, Dq = rk4_step(scaled_field, 0.0, pts, s, M=np.eye(ev.dim))
        return np.swapaxes(Dq, 1, 2) @ ev.fields(q)[2] @ Dq

    num = -pullback(2.0) + 8.0 * pullback(1.0) - 8.0 * pullback(-1.0) + pullback(-2.0)
    return num / (12.0 * hs)[:, None, None]


def _lincomb(*terms):
    """The numeric form sum of c * form over the (c, form) terms, with c a
    number or an (N,) array of point values."""
    out = {}
    for c, form in terms:
        for I, v in form.items():
            out[I] = out.get(I, 0) + c * v
    return out


def _max_abs(form):
    """Largest absolute component value of a numeric form over all points."""
    return max((float(np.max(np.abs(v))) for v in form.values()), default=0.0)


def verify_ma_identities(exh: ExhaustionField, n_samples=40, seed=13):
    """Residual report for the exhaustion identity suite.

    Checks, at random ambient shell samples: the log-potential identity
    tau^2 ddc log tau = tau ddc tau - dtau ^ dc tau; the power rule
    ddc tau^k = k tau^(k-1) ddc tau + k(k-1) tau^(k-2) dtau ^ dc tau for
    k = 2..n-1 (k = 1 is ddc tau itself); the top-degree degeneracy
    tau (ddc tau)^n = n dtau ^ dc tau ^ (ddc tau)^(n-1); the contraction
    normalization ddc tau(Z, JZ) = dtau(Z) = tau; and flow invariance of
    ddc tau along Z.  Failures are report entries, never exceptions.

    Evaluate first, then do the algebra: tau, dtau and ddc tau are the
    values of the Z field, dc tau is dtau under J_o, and only ddc log tau
    and ddc tau^k are differentiated and compiled here, in one call.  ddc
    log tau stays the symbolic derivative of log tau, so the log-potential
    identity compares two independent routes.  The wedge products are
    taken of numeric forms, {index tuple: (N,) array}, with the same sign
    bookkeeping as the symbolic ones.
    """
    tol = {
        "log_potential": 1e-10,
        "power_rule": 1e-10,
        "top_degeneracy": 1e-8,
        "contraction": 1e-10,
        "flow_invariance": 1e-10,
    }
    n = exh.n
    ev = ZFieldEvaluator(exh.ambient_form())
    pts = _ambient_points(n, n_samples, seed=seed)
    report = {}

    coords, t = ev.tau.coords, ev.tau.comps[()]
    potentials = [sp.log(t)] + [t**k for k in range(2, n)]
    derived = [AnalyticForm.scalar(coords, e).dc().d() for e in potentials]
    fn = compile_exprs(coords, [e for f in derived for e in f.comps.values()])
    rows = iter(np.real(fn(*pts.T)))
    ddclog, *ddc_powers = [{I: next(rows) for I in f.comps} for f in derived]

    tau, dtau, A = ev.fields(pts)
    dt = {(k,): dtau[:, k] for k in range(ev.dim)}
    ddc = {(i, j): A[:, i, j] for i, j in ev._pairs}
    cross = wedge_comps(dt, jo_comps(dt))

    report["log_potential"] = _max_abs(_lincomb((tau**2, ddclog), (-tau, ddc), (1.0, cross)))
    report["power_rule"] = 0.0
    for k, lhs in enumerate(ddc_powers, start=2):
        rhs_ddc, rhs_cross = k * tau ** (k - 1), k * (k - 1) * tau ** (k - 2)
        resid = _max_abs(_lincomb((1.0, lhs), (-rhs_ddc, ddc), (-rhs_cross, cross)))
        report["power_rule"] = max(report["power_rule"], resid)

    ddc_top = reduce(wedge_comps, [ddc] * (n - 1))
    top_lhs = _lincomb((tau, wedge_comps(ddc_top, ddc)))
    diff = _lincomb((1.0, top_lhs), (-n, wedge_comps(cross, ddc_top)))
    report["top_degeneracy"] = _max_abs(diff) / max(_max_abs(top_lhs), 1e-30)

    sub = pts[:20]
    Z = ev(sub)
    tau_vals, dtau, A = ev.fields(sub)
    JZ = Z @ ev.J.T
    c1 = np.einsum("ni,nij,nj->n", Z, A, JZ) - tau_vals
    c2 = np.sum(dtau * Z, axis=1) - tau_vals
    report["contraction"] = float(max(np.max(np.abs(c1)), np.max(np.abs(c2))))

    lie = _lie_derivative_flow(ev, sub)
    report["flow_invariance"] = float(np.max(np.abs(lie - A)))

    report["pass"] = {key: report[key] < tol[key] for key in tol}
    report["tolerances"] = tol
    report["all_pass"] = all(report["pass"].values())
    return report
