"""Degenerate Monge-Ampere geometry of a parabolic exhaustion.

Off the center, a parabolic exhaustion tau determines a real vector field Z
by ddc tau(Z, JX) = dtau(X) for every X; Z and JZ span the leaves of the
Monge-Ampere foliation.  The identities verified here characterize when
tau solves the homogeneous complex Monge-Ampere equation; their failure is
a quantitative obstruction, not an exception.

All computations run in ambient real coordinates of C^n; the derivatives
of tau are exact (symbolic), and tau, dtau and ddc tau are compiled into
one callable.  The Lie derivative along Z is taken by finite differences
in flow time, and the flow's variational equation uses DZ by central
differences of Z, the one remaining finite difference of the identity
suite.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .domains import ExhaustionField
from .exterior import standard_j_matrix
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
    wherever A is invertible.  dtau, dc tau and ddc tau are differentiated
    once, here, and the identity suite reads them from the evaluator.
    """

    def __init__(self, tau_form):
        self.tau = tau_form
        self.dim = tau_form.dim
        self.dtau = tau_form.d()
        self.dctau = tau_form.dc()
        self.ddc = self.dctau.d()
        self.J = standard_j_matrix(self.dim)
        self._pairs = list(self.ddc.comps)
        exprs = [tau_form.comps.get((), 0)]
        exprs += [self.dtau.comps.get((k,), 0) for k in range(self.dim)]
        exprs += [self.ddc.comps[p] for p in self._pairs]
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


def verify_ma_identities(exh: ExhaustionField, n_samples=40, seed=13):
    """Residual report for the exhaustion identity suite.

    Checks, at random ambient shell samples: the log-potential identity
    tau^2 ddc log tau = tau ddc tau - dtau ^ dc tau; the power rule
    ddc tau^k = k tau^(k-1) ddc tau + k(k-1) tau^(k-2) dtau ^ dc tau for
    k = 1..n-1; the top-degree degeneracy tau (ddc tau)^n =
    n dtau ^ dc tau ^ (ddc tau)^(n-1); the contraction normalization
    ddc tau(Z, JZ) = dtau(Z) = tau; and flow invariance of ddc tau along Z.
    Failures are report entries, never exceptions.
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
    tau, ddctau = ev.tau, ev.ddc
    pts = _ambient_points(n, n_samples, seed=seed)
    report = {}

    cross = ev.dtau.wedge(ev.dctau)
    log_tau = AnalyticForm.scalar(tau.coords, sp.log(tau.comps[()]))
    ddclog = log_tau.dc().d()

    tau_sq = AnalyticForm.scalar(tau.coords, tau.comps[()] ** 2)
    lhs = tau_sq.wedge(ddclog)
    rhs = tau.wedge(ddctau) - cross
    report["log_potential"] = (lhs - rhs).max_abs_at(pts)

    power = 0.0
    for k in range(1, n):
        tk = AnalyticForm.scalar(tau.coords, tau.comps[()] ** k)
        lhs_k = tk.dc().d()
        rhs_k = AnalyticForm.scalar(tau.coords, k * tau.comps[()] ** (k - 1)).wedge(
            ddctau
        ) + AnalyticForm.scalar(
            tau.coords, k * (k - 1) * tau.comps[()] ** max(k - 2, 0)
        ).wedge(cross)
        power = max(power, (lhs_k - rhs_k).max_abs_at(pts))
    report["power_rule"] = power

    top_lhs = tau.wedge(ddctau.wedge_power(n))
    top_rhs = cross.wedge(ddctau.wedge_power(n - 1)).scale(n)
    diff = top_lhs - top_rhs
    scale = max(top_lhs.max_abs_at(pts), 1e-30)
    report["top_degeneracy"] = diff.max_abs_at(pts) / scale

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
