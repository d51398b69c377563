"""Degenerate Monge-Ampere geometry of a parabolic exhaustion.

Off the center, a parabolic exhaustion tau determines a real vector field Z
by ddc tau(Z, JX) = dtau(X) for every X; Z and JZ span the leaves of the
Monge-Ampere foliation.  The identities verified here characterize when
tau solves the homogeneous complex Monge-Ampere equation; their failure is
a quantitative obstruction, not an exception.

All computations run in ambient real coordinates of C^n; the derivatives
of tau are exact (symbolic).  The Lie derivative along Z is taken by finite
differences in flow time, and the flow's variational equation uses DZ by
central differences of Z, the one remaining finite difference of the
identity suite.  The leaves through the center are traced by integrating
the radial leaf ODE from the gauge direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .atlas import blowup_inverse
from .domains import ExhaustionField
from .exterior import standard_j_matrix
from .ode import rk4_step
from .symforms import AnalyticForm, to_complex, to_real


class FoliationError(ValueError):
    """Degenerate data where nondegeneracy is required (reports the node)."""


# ---------------------------------------------------------------------------
# the Monge-Ampere field


class ZFieldEvaluator:
    """Nodewise solver for the field Z of the defining linear condition.

    ddc tau(Z, J X) = dtau(X) for all X reads (A J)^T Z = dtau with A the
    antisymmetric coefficient matrix of ddc tau; the solution is unique
    wherever A is invertible.
    """

    def __init__(self, tau_form):
        self.tau = tau_form
        self.dim = tau_form.dim
        self.dtau = tau_form.d()
        self.ddc = tau_form.dc().d()
        self.J = standard_j_matrix(self.dim)

    def tau_at(self, pts):
        return self.tau.scalar_at(pts).real

    def matrices(self, pts):
        return self.ddc.matrix_at(pts).real

    def dtau_at(self, pts):
        return self.dtau.vector_at(pts).real

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        A = self.matrices(pts)
        rhs = self.dtau_at(pts)
        M = np.swapaxes(A @ self.J, -1, -2)
        dets = np.abs(np.linalg.det(M))
        if np.min(dets) < 1e-12:
            bad = int(np.argmin(dets))
            raise FoliationError(
                f"ddc tau degenerate at node {bad}: point {pts[bad].tolist()}"
            )
        return np.linalg.solve(M, rhs[..., None])[..., 0]

    def jacobian(self, pts, h=1e-5):
        """Spatial derivative DZ by central differences of the evaluator."""
        pts = np.asarray(pts, dtype=float)
        D = np.empty(pts.shape[:-1] + (self.dim, self.dim))
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = h
            D[..., :, k] = (self(pts + e) - self(pts - e)) / (2.0 * h)
        return D


def _ambient_points(n, n_samples, seed=11, lo=0.35, hi=1.0):
    """Random sample points in the spherical shell lo <= |z| <= hi."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_samples, 2 * n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = rng.uniform(lo, hi, size=(n_samples, 1))
    return raw * radii


# ---------------------------------------------------------------------------
# identity suite


def _lie_derivative_flow(ev: ZFieldEvaluator, pts, rel_step=5e-4):
    """Lie derivative of ddc tau along Z at pts, via a symmetric five-point
    stencil in flow time of the pulled-back form.

    The step is proportional to the local tau (the flow rescales tau by
    e^t); the five-point stencil keeps the finite-difference error near
    1e-14 so the 1e-10 identity budget is dominated by roundoff.
    """
    pts = np.asarray(pts, dtype=float)
    tau_loc = ev.tau_at(pts)
    hs = rel_step * np.minimum(tau_loc, 1.0)
    eye = np.eye(ev.dim)

    def pullback(sign_mult):
        out = np.empty((len(pts), ev.dim, ev.dim))
        for i, p in enumerate(pts):
            q, Dq = rk4_step(
                lambda _t, y: (ev(y), ev.jacobian(y)), 0.0, p[None, :],
                sign_mult * hs[i], M=eye,
            )
            Aq = ev.matrices(q)[0]
            out[i] = Dq[0].T @ Aq @ Dq[0]
        return out

    g_p1, g_m1 = pullback(1.0), pullback(-1.0)
    g_p2, g_m2 = pullback(2.0), pullback(-2.0)
    num = -g_p2 + 8.0 * g_p1 - 8.0 * g_m1 + g_m2
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
    tau = exh.ambient_form()
    pts = _ambient_points(n, n_samples, seed=seed)
    report = {}

    dtau = tau.d()
    dctau = tau.dc()
    ddctau = dctau.d()
    cross = dtau.wedge(dctau)
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

    ev = ZFieldEvaluator(tau)
    sub = pts[:20]
    Z = ev(sub)
    A = ev.matrices(sub)
    JZ = Z @ ev.J.T
    tau_vals = ev.tau_at(sub)
    c1 = np.einsum("ni,nij,nj->n", Z, A, JZ) - tau_vals
    c2 = np.sum(ev.dtau_at(sub) * Z, axis=1) - tau_vals
    report["contraction"] = float(max(np.max(np.abs(c1)), np.max(np.abs(c2))))

    lie = _lie_derivative_flow(ev, sub)
    report["flow_invariance"] = float(np.max(np.abs(lie - A)))

    report["pass"] = {key: report[key] < tol[key] for key in tol}
    report["tolerances"] = tol
    report["all_pass"] = all(report["pass"].values())
    return report


# ---------------------------------------------------------------------------
# leaves


@dataclass(frozen=True)
class LeafDisc:
    """A sampled leaf through the center in direction v (chart affine
    coordinate).  ray holds the points at radii rho; the full disc follows
    from the rotation rule F(v, e^{i theta} zeta) = e^{i theta} F(v, zeta).
    """

    chart: int
    base_v: np.ndarray  # (n - 1,) chart affine coordinates
    radii: np.ndarray  # (m,)
    ray: np.ndarray  # (m, n) complex points of C^n along theta = 0
    tau_residual: float  # max |tau(ray(rho)) - rho^2|

    def points(self, thetas):
        """Disc samples at all (rho, theta): shape (m, len(thetas), n)."""
        phase = np.exp(1j * np.asarray(thetas))
        return self.ray[:, None, :] * phase[None, :, None]


def _leaf_states(ev: ZFieldEvaluator, X, rhos):
    """RK4 states of the leaf ODE dX/drho = (2 / sqrt(tau)) Z(X) at every
    radius of the grid rhos, starting from X at rhos[0]."""

    def rhs(_rho, X):
        tau_vals = np.maximum(ev.tau_at(X), 1e-30)
        return 2.0 / np.sqrt(tau_vals)[:, None] * ev(X)

    states = [X]
    for i in range(len(rhos) - 1):
        states.append(rk4_step(rhs, rhos[i], states[-1], rhos[i + 1] - rhos[i]))
    return np.array(states)


def trace_leaf(exh: ExhaustionField, base_v, chart=0, rho_start=0.05, rho_end=0.9,
               n_steps=200, tol=1e-8):
    """Integrate one leaf of the foliation outward from the center.

    The radial parametrization satisfies dX/drho = (2 / sqrt(tau)) Z(X),
    which makes tau(X(rho)) = rho^2 along the leaf; the seed at rho_start
    lies on the ray through the chart point (1, v) normalized by the gauge.
    A base point has shape (n - 1,), a scalar at n = 2; a batch of shape
    (B, n - 1), or (B,) at n = 2, returns a list of discs.
    """
    mink = exh.minkowski
    if mink is None:
        raise FoliationError("leaf tracing needs gauge data (circular input)")
    n = exh.n
    ev = ZFieldEvaluator(exh.ambient_form())
    base = np.asarray(base_v, dtype=complex)
    vlist = base.reshape(-1, n - 1)
    direction = blowup_inverse(chart, vlist, np.ones(len(vlist)))
    m0 = mink.mu(direction)
    seed = rho_start * direction / m0[:, None]
    rhos = np.linspace(rho_start, rho_end, n_steps + 1)
    ray_real = _leaf_states(ev, to_real(seed), rhos)  # (m, B, 2n)
    tau_along = ev.tau_at(ray_real.reshape(-1, 2 * n)).reshape(ray_real.shape[:2])
    resid = np.max(np.abs(tau_along - rhos[:, None] ** 2), axis=0)
    if np.max(tau_along) > (1.05 * max(rho_end, exh.r_bound)) ** 2:
        raise FoliationError("leaf escapes the sublevel domain")
    discs = []
    for b, v in enumerate(vlist):
        if resid[b] > tol:
            raise FoliationError(
                f"leaf through v = {v} violates tau = rho^2 by {resid[b]:.3e}"
            )
        discs.append(
            LeafDisc(
                chart=chart,
                base_v=v,
                radii=rhos,
                ray=to_complex(ray_real[:, b, :]),
                tau_residual=float(resid[b]),
            )
        )
    if base.ndim == (0 if n == 2 else 1):
        return discs[0]
    return discs


def reverse_leaf(exh: ExhaustionField, disc: LeafDisc, n_steps=200):
    """Integrate the leaf ODE inward from the outer ray sample and return
    the distance to the original seed (forward/backward consistency)."""
    ev = ZFieldEvaluator(exh.ambient_form())
    rhos = np.linspace(disc.radii[-1], disc.radii[0], n_steps + 1)
    X = _leaf_states(ev, to_real(disc.ray[-1][None, :]), rhos)[-1]
    back = to_complex(X)[0]
    return float(np.max(np.abs(back - disc.ray[0])))
