"""Degenerate Monge-Ampere geometry of a parabolic exhaustion.

Off the center, a parabolic exhaustion tau determines a real vector field Z
by ddc tau(Z, JX) = dtau(X) for every X; Z and JZ span the leaves of the
Monge-Ampere foliation.  The identities verified here characterize when
tau solves the homogeneous complex Monge-Ampere equation; their failure is
a quantitative obstruction, not an exception.

Every derivative is exact and numeric: one compiled order-3 jet of tau
(symforms.Jet) gives tau, dtau, ddc tau and its partials, DZ follows by
implicit differentiation and the Lie derivative along Z by Cartan's
formula.  No finite difference is taken.

The matrix of the defining condition is the Levi form of tau, the real
form of the Hermitian n x n matrix H of symforms.levi_matrix, so Z and
the columns of DZ solve complex n x n systems H z = w: by Cramer's rule
at n = 2, where no LAPACK or BLAS routine runs, and by LAPACK at n = 3.
The products with J are its signed swaps (symforms.times_j) and the
others einsum contractions.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations

import numpy as np

from .domains import ExhaustionField, ambient_coords, least_levi_eigenvalues
from .exterior import wedge_comps
from .symforms import Jet, call, ddc_matrix, levi_matrix, times_j, to_complex, to_real


class FoliationError(ValueError):
    """Degenerate data where nondegeneracy is required (reports the node)."""


# ---------------------------------------------------------------------------
# the Monge-Ampere field


class ZFieldEvaluator:
    """Nodewise solver for the field Z of the defining linear condition:
    ddc tau(Z, J X) = dtau(X) for all X reads M Z = dtau with M = (A J)^T
    and A the antisymmetric matrix of ddc tau, unique where A is invertible.
    M is the real form of the Levi matrix H (symforms.levi_matrix), so
    det M = |det H|^2 and the system is solved as H z = w on complex
    points (module docstring).  tau is the exhaustion's expression in the
    ambient real coordinates coords.
    """

    def __init__(self, exh: ExhaustionField):
        self.tau = exh.tau_ambient
        self.coords = ambient_coords(exh.n)

    def fields(self, pts):
        """tau (N,), dtau (N, dim), its partials (N, dim, dim), the matrix A
        (N, dim, dim) of ddc tau and its partials dA (N, dim, dim, dim),
        dA[:, k] = d_k A, at real points (N, dim), from one order-3 jet."""
        jet = Jet.of(self.tau, self.coords, pts, order=3)
        tau, dtau, hess, third = (np.real(p) for p in jet.parts)
        return tau, dtau, hess, ddc_matrix(hess), ddc_matrix(third)

    def flow(self, pts):
        """Z, DZ (DZ[:, i, k] = d_k Z_i), A and the Lie derivative L of ddc
        tau along Z at pts: M d_k Z = d_k dtau - (d_k M) Z, and by Cartan's
        formula L = Z^k d_k A + DZ^T A + A DZ."""
        _, dtau, hess, A, dA = self.fields(pts)
        H = levi_matrix(hess)
        det = _hermitian_det(H)
        dets = det * det  # det M
        if np.min(dets) < 1e-12:
            bad = int(np.argmin(dets))
            raise FoliationError(
                f"ddc tau degenerate at node {bad}: point {np.asarray(pts)[bad].tolist()}"
            )
        Z = to_real(_hermitian_solve(H, det, to_complex(dtau)[:, None]))[:, 0]
        dM = np.swapaxes(times_j(dA), -1, -2)
        rhs = hess - np.einsum("nkij,nj->nik", dM, Z)
        DZ = np.swapaxes(to_real(_hermitian_solve(H, det, to_complex(np.swapaxes(rhs, 1, 2)))), 1, 2)
        L = (np.einsum("nk,nkij->nij", Z, dA) + np.einsum("nki,nkj->nij", DZ, A)
             + np.einsum("nik,nkj->nij", A, DZ))
        return Z, DZ, A, L


def _hermitian_det(H):
    """The real determinants (N,) of Hermitian matrices H (N, n, n): in
    closed form at n = 2, by LAPACK at n = 3."""
    if H.shape[-1] > 2:
        return np.linalg.det(H).real
    off = H[:, 0, 1]
    return H[:, 0, 0].real * H[:, 1, 1].real - (off.real * off.real + off.imag * off.imag)


def _hermitian_solve(H, det, w):
    """The solutions x (N, k, n) of H x = w for Hermitian matrices H
    (N, n, n) with determinants det (N,) and right-hand sides w (N, k, n),
    one per row: Cramer's rule at n = 2, LAPACK at n = 3."""
    if H.shape[-1] > 2:
        return np.swapaxes(np.linalg.solve(H, np.swapaxes(w, 1, 2)), 1, 2)
    h, d = H[:, None], det[:, None]
    x = np.empty_like(w)
    x[..., 0] = (h[..., 1, 1] * w[..., 0] - h[..., 0, 1] * w[..., 1]) / d
    x[..., 1] = (h[..., 0, 0] * w[..., 1] - h[..., 1, 0] * w[..., 0]) / d
    return x


def _ambient_points(n, n_samples, seed=11, lo=0.35, hi=1.0):
    """Random sample points in the spherical shell lo <= |z| <= hi: Gaussian
    directions, then uniform radii, from random.Random(seed)."""
    rng = random.Random(seed)
    raw = np.array([[rng.gauss(0.0, 1.0) for _ in range(2 * n)] for _ in range(n_samples)])
    raw /= np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
    radii = np.array([rng.uniform(lo, hi) for _ in range(n_samples)])
    return raw * radii[:, None]


# ---------------------------------------------------------------------------
# identity suite


def _max_abs(values):
    return float(np.max(np.abs(values)))


@np.errstate(all="ignore")  # a value that is not finite fails its row
def verify_ma_identities(exh: ExhaustionField, n_samples=40, seed=13):
    """Residual report for the definition rows and the exhaustion
    identity suite.

    The definition rows are conditions on tau at the samples: positivity,
    tau > 0, and levi (condition c), the least eigenvalue of the Levi
    form H (domains.least_levi_eigenvalues) is positive.  Each reads minus
    its least value, so that like every other row it passes below its
    tolerance, here 0.  No floating-point warning is printed: a value that
    is not finite (the log of a tau <= 0) makes its row nan, which fails.

    The identities, at the same samples: the log-potential identity
    tau^2 ddc log tau = tau ddc tau - dtau ^ dc tau; the power rule
    ddc tau^k = k tau^(k-1) ddc tau + k(k-1) tau^(k-2) dtau ^ dc tau for
    k = 2..n-1 (k = 1 is ddc tau itself); the top-degree degeneracy
    tau (ddc tau)^n = n dtau ^ dc tau ^ (ddc tau)^(n-1); the contraction
    normalization ddc tau(Z, JZ) = dtau(Z) = tau; and flow invariance of
    ddc tau along Z.  Failures are report entries, never exceptions: where
    ddc tau is degenerate, Z does not exist, the last two rows read nan
    and report["error"] names the node.

    The jet of log tau (ddc log tau) is checked against the algebra of the
    jet of tau.  2-forms are antisymmetric matrices of point values; the
    top-degree wedges are taken of numeric forms {index tuple: (N,) array}.
    """
    tol = {
        "positivity": 0.0,
        "levi": 0.0,
        "log_potential": 1e-10,
        "power_rule": 1e-10,
        "top_degeneracy": 1e-8,
        "contraction": 1e-10,
        "flow_invariance": 1e-10,
    }
    n = exh.n
    ev = ZFieldEvaluator(exh)
    pts = _ambient_points(n, n_samples, seed=seed)
    report = {}

    t = ev.tau
    ddclog, *ddc_powers = [
        ddc_matrix(np.real(Jet.of(e, ev.coords, pts, order=2).hess))
        for e in [call("log", t)] + [t**k for k in range(2, n)]
    ]
    tau, dtau, hess, A, _ = ev.fields(pts)
    report["positivity"] = -float(np.min(tau))
    report["levi"] = -float(np.min(least_levi_eigenvalues(levi_matrix(hess))))
    dc = -times_j(dtau)  # dc f = -J^T grad f in components
    cross = dtau[:, :, None] * dc[:, None, :] - dc[:, :, None] * dtau[:, None, :]
    t3 = tau[:, None, None]
    report["log_potential"] = _max_abs(t3**2 * ddclog - t3 * A + cross)
    report["power_rule"] = max([0.0] + [
        _max_abs(lhs - k * t3 ** (k - 1) * A - k * (k - 1) * t3 ** (k - 2) * cross)
        for k, lhs in enumerate(ddc_powers, start=2)])

    pairs = list(combinations(range(2 * n), 2))
    ddc, dt_dct = ({(i, j): F[:, i, j] for i, j in pairs} for F in (A, cross))
    ddc_top = reduce(wedge_comps, [ddc] * (n - 1))
    [top], [mixed] = wedge_comps(ddc_top, ddc).values(), wedge_comps(dt_dct, ddc_top).values()
    report["top_degeneracy"] = _max_abs(tau * top - n * mixed) / max(_max_abs(tau * top), 1e-30)

    sub = slice(20)
    try:
        Z, _, A, lie = ev.flow(pts[sub])
    except FoliationError as exc:  # no Z: both rows fail, and the node is named
        report["contraction"] = report["flow_invariance"] = float("nan")
        report["error"] = str(exc)
    else:
        c1 = np.einsum("ni,nij,nj->n", Z, A, -times_j(Z)) - tau[sub]  # Z J^T = -Z J
        c2 = np.sum(dtau[sub] * Z, axis=1) - tau[sub]
        report["contraction"] = max(_max_abs(c1), _max_abs(c2))
        report["flow_invariance"] = _max_abs(lie - A)

    report["pass"] = {key: report[key] < tol[key] for key in tol}
    report["tolerances"] = tol
    report["all_pass"] = all(report["pass"].values())
    return report
