"""Deformation tensors of fibered complex structures over projective space.

A complex structure J on the blown-up ball that is standard along the
radial discs and preserves the horizontal distribution is encoded by a
tensor phi mapping reference anti-holomorphic horizontal vectors to
holomorphic ones, through the graph relation: the J-anti-holomorphic
horizontal space is {w + phi(w)}.  A tensor is the stack of its
fiber-Fourier modes phi = sum_k phi_k(v) zeta^k over the base nodes; the
fiber itself is never sampled.  This module extracts phi from a
normalizing map, builds the tensor of a synthetic-tensor spec and
measures the modes at the fiber radius R_FIBER; the integrability
conditions of an n = 3 tensor are in the integrability module.

Extraction (n = 2) is closed-form 2 x 2 complex algebra.  In the
coordinates p d/dz + q d/dzbar the (0,1) space of J is {(p, q):
A p + B q = 0}; for the pullback by a map with dphi(h) = A h + B hbar
these are the blocks of dphi.  ebar projects onto that space along its
conjugate as (p', q'), q' = (Abar - Bbar A^-1 B)^-1 Abar ebar and
p' = -A^-1 B q', and since e is orthogonal to z, phi = <p', e> / <q', ebar>.
For a fiber-linear normalizing map A depends on v alone, Bbar A^-1 B
carries the factor |zeta / zetabar| = 1 and ebar scales by zetabar, so phi
does not depend on zeta: extract solves once per base node, at zeta = 1,
and the tensor is mode 0 only.

Conventions: the reference exhaustion is |z|^2; the frame e_a over a
chart is the horizontal projection of the coordinate lift, extended
along fibers equivariantly, e_a = zeta * (eps_{j_a} - (conj(z^{j_a}) /
|z|^2) z).  Components are stored in the frame ebar^b (x) e_a.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .atlas import R_FIBER, ChartAtlas
from .symforms import Jet

__all__ = [
    "DeformationError",
    "DeformationTensor",
    "chart_axes",
    "frame_vectors",
    "extract",
    "tensor_from_mode_functions",
]


class DeformationError(ValueError):
    """Degenerate graph data or ill-posed tensor operation."""


# ---------------------------------------------------------------------------
# complexified tangent algebra

def chart_axes(n, chart):
    """Ambient axes transverse to the chart axis, in coordinate order."""
    return [j for j in range(n) if j != chart]


def hol_rep(p):
    """Real-coordinate components of p^i d/dz^i, shape (..., 2n) complex."""
    p = np.asarray(p, dtype=complex)
    out = np.empty(p.shape[:-1] + (2 * p.shape[-1],), dtype=complex)
    out[..., 0::2] = p / 2.0
    out[..., 1::2] = -1j * p / 2.0
    return out


def antihol_rep(q):
    """Real-coordinate components of q^i d/dzbar^i."""
    q = np.asarray(q, dtype=complex)
    out = np.empty(q.shape[:-1] + (2 * q.shape[-1],), dtype=complex)
    out[..., 0::2] = q / 2.0
    out[..., 1::2] = 1j * q / 2.0
    return out


def reference_form_matrix(n):
    """Constant matrix of the reference Levi form in real coordinates."""
    A = np.zeros((2 * n, 2 * n))
    for m in range(n):
        A[2 * m, 2 * m + 1] = 4.0
        A[2 * m + 1, 2 * m] = -4.0
    return A


def frame_vectors(n, chart, z):
    """Horizontal holomorphic frame at ambient points z, shape (..., n).

    Returns e of shape (..., n-1, n): e_a is the fiber-equivariant
    horizontal projection of the coordinate lift along base direction a.
    """
    z = np.asarray(z, dtype=complex)
    zeta = z[..., chart]
    nsq = np.sum(np.abs(z) ** 2, axis=-1)
    axes = chart_axes(n, chart)
    e = np.empty(z.shape[:-1] + (n - 1, n), dtype=complex)
    for a, j in enumerate(axes):
        basis = np.zeros(n)
        basis[j] = 1.0
        e[..., a, :] = zeta[..., None] * (
            basis - (np.conj(z[..., j]) / nsq)[..., None] * z
        )
    return e


def _require_nonzero(x, chart, what):
    """Raise DeformationError at the first node where |x| < 1e-10 or x is
    not finite, so that no nan or inf reaches the modes."""
    bad = ~(np.abs(x) >= 1e-10)
    if np.any(bad):
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise DeformationError(
            f"graph projection degenerates on chart {chart} at node {idx}: "
            f"|{what}| = {abs(x[idx]):.3e}"
        )


def _mul2(M, N):
    """Products of 2 x 2 matrix fields M (2, 2, ...) and N (2, k, ...)."""
    return np.sum(M[:, :, None] * N[None], axis=1)


def _solve2(M, b, chart, what):
    """Cramer's rule for 2 x 2 matrix fields M (2, 2, ...), b (2, k, ...)."""
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    _require_nonzero(det, chart, what)
    return np.stack([M[1, 1] * b[0] - M[0, 1] * b[1], M[0, 0] * b[1] - M[1, 0] * b[0]]) / det


def _graph_from_blocks(chart, z, A, B):
    """Solve the graph relation (n = 2) in closed form (module docstring) at
    points z (..., 2), for blocks A and B of shape (2, 2, ...) broadcast
    against them.  beta and alpha are the Hermitian projections of q' on
    ebar and of p' on e; returns (phi, leak) with leak the radial-disc
    (zbar and z) component that a fibered structure must not produce."""
    e = np.moveaxis(frame_vectors(2, chart, z)[..., 0, :], -1, 0)
    z = np.moveaxis(z, -1, 0)
    X = _solve2(A, B, chart, "det A")
    Abar = np.conj(A)
    M = Abar - _mul2(np.conj(B), X)
    q = _solve2(M, _mul2(Abar, np.conj(e)[:, None]), chart, "det(Abar - Bbar A^-1 B)")[:, 0]
    p = -_mul2(X, q[:, None])[:, 0]
    esq = np.sum(np.abs(e) ** 2, axis=0)
    beta = np.sum(q * e, axis=0) / esq
    _require_nonzero(beta, chart, "beta")
    phi = np.sum(p * np.conj(e), axis=0) / (esq * beta)
    leak = np.maximum(np.abs(np.sum(q * z, axis=0)), np.abs(np.sum(p * np.conj(z), axis=0)))
    return phi[..., None, None], float(np.max(leak / np.sum(np.abs(z) ** 2, axis=0)))


# ---------------------------------------------------------------------------
# tensors


class DeformationTensor(NamedTuple):
    """Deformation tensor modes on the base grid of one or two charts.

    modes[chart] has shape (k_max+1, n_v, ..., n-1, n-1) over base nodes.
    diagnostics defaults to an empty read-only mapping, so no tensor writes
    into another's.  spec, for a tensor built from a spec
    (tensor_from_mode_functions), is its (coords, entries); the structure
    equation differentiates them.
    """

    n: int
    atlas: ChartAtlas
    k_max: int
    modes: dict
    diagnostics: dict = MappingProxyType({})
    spec: tuple = None

    @property
    def charts(self):
        return sorted(self.modes.keys())

    def mode_norms(self):
        """The mode norms n_k (mode_norm) of every mode k."""
        return np.array([self.mode_norm(k) for k in range(self.k_max + 1)])

    def mode_norm(self, k, modes=None):
        """Reference-metric operator norm of mode k, sup over the nodes of
        every chart, or of modes {chart: array} in place of the charts'
        mode k when given.

        The norm of phi_k zeta^k is evaluated at |zeta| = R_FIBER (n = 2)
        and on the unit fiber (n = 3).
        """
        scale = (R_FIBER if self.n == 2 else 1.0) ** np.arange(self.k_max + 1)
        out = 0.0
        for chart in self.charts:
            mode = self.modes[chart][k] if modes is None else modes[chart]
            # np.max and np.maximum keep a NaN node, so no verdict passes on it
            out = np.maximum(out, np.max(_node_norms(self, chart, mode)) * scale[k])
        return out


def _chart_points(atlas, chart):
    """Base points of a chart as a flat complex array (n=2) or (N,2)."""
    if atlas.n == 2:
        return atlas.base_points(chart).ravel()
    V1, V2 = atlas.base_points3()
    return np.stack([V1.ravel(), V2.ravel()], axis=-1)


def _ambient_of(n, chart, v, zeta):
    """Ambient points z for base coordinates v (complex for n = 2, shape
    (..., n-1) otherwise) and fiber values zeta, broadcast together."""
    v = np.asarray(v, dtype=complex)
    if n == 2:
        v = v[..., None]
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    z = np.empty(np.broadcast(v, zeta).shape[:-1] + (n,), dtype=complex)
    z[..., chart] = zeta[..., 0]
    z[..., chart_axes(n, chart)] = zeta * v
    return z


# (n, n_v, box, chart) -> (Qhalf, Pinvh) of _levi_roots
_LEVI_ROOTS = {}


def _levi_roots(tensor, chart):
    """Q^(1/2) and P^(-1/2) of the reference Levi Gram matrices at the chart
    nodes, shape (N, n-1, n-1).

    Evaluated at zeta = 1; the Gram matrices scale by |zeta|^2, so
    Q^(1/2) phi P^(-1/2) does not depend on the fiber point.  They depend
    on the atlas geometry only and are computed once per geometry.
    """
    n = tensor.n
    key = (n, tensor.atlas.n_v, tensor.atlas.box, chart)
    if key not in _LEVI_ROOTS:
        z = _ambient_of(n, chart, _chart_points(tensor.atlas, chart), 1.0)
        e, A = frame_vectors(n, chart, z), reference_form_matrix(n)
        Pg = np.einsum("...ai,ij,...bj->...ab", hol_rep(e), A, antihol_rep(np.conj(e))) / (2j)
        Qg = np.einsum("...ai,ij,...bj->...ab", antihol_rep(np.conj(e)), A, hol_rep(e)) / (-2j)
        _LEVI_ROOTS[key] = (_mat_sqrt(Qg), np.linalg.inv(_mat_sqrt(Pg)))
    return _LEVI_ROOTS[key]


def _node_norms(tensor, chart, mode):
    """Operator norms w.r.t. the reference Levi metric at the nodes of one
    mode of a chart, flattened over the nodes.

    At n = 2 both Gram matrices are the scalar |e|^2 = 1/(1 + |v|^2), so
    Q^(1/2) phi_k P^(-1/2) = phi_k and the norm of mode k is |phi_k|.
    """
    m = tensor.n - 1
    mode = mode.reshape(-1, m, m)
    if m == 1:
        return np.abs(mode[:, 0, 0])
    Qhalf, Pinvh = _levi_roots(tensor, chart)
    return np.linalg.norm(Qhalf @ mode @ Pinvh, ord=2, axis=(-2, -1))


def _mat_sqrt(H):
    """Hermitian PSD square root, vectorized over leading axes."""
    w, U = np.linalg.eigh(H)
    w = np.maximum(w, 0.0)
    return (U * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


# ---------------------------------------------------------------------------
# extraction


def extract(nm, k_max=7):
    """Deformation tensor of the structure pulled back by a fiber-linear
    normalizing map z = zeta p(v) -> zeta W(v) (n = 2).

    Its derivative is dphi(h) = A h + B hbar, with dW = (W_x - i W_y)/2 and
    dbarW = (W_x + i W_y)/2: A = [W - v dW, dW] and B = [-vbar dbarW, dbarW]
    on the chart and the other slot at zeta = 1.  The graph relation is
    solved from them in closed form once per base node; phi does not
    depend on zeta (module docstring), so mode 0 is phi(v) and modes
    1..k_max are zero.
    """
    at = nm.atlas
    modes, leaks = {}, []
    for chart in at.charts:
        V = at.base_points(chart)
        W, Wx, Wy = (np.moveaxis(a[chart], -1, 0) for a in (nm.W, nm.dWx, nm.dWy))
        dW, dbarW = (Wx - 1j * Wy) / 2, (Wx + 1j * Wy) / 2
        A = np.empty((2,) + W.shape, dtype=complex)
        A[:, chart], A[:, 1 - chart] = W - V * dW, dW
        B = np.empty_like(A)
        B[:, chart], B[:, 1 - chart] = -np.conj(V) * dbarW, dbarW
        phi, leak = _graph_from_blocks(chart, _ambient_of(2, chart, V, 1.0), A, B)
        modes[chart] = np.zeros((k_max + 1,) + phi.shape, dtype=complex)
        modes[chart][0] = phi
        leaks.append(leak)
    return DeformationTensor(
        n=2, atlas=at, k_max=k_max, modes=modes, diagnostics={"disc_leak": max(leaks)}
    )


# ---------------------------------------------------------------------------
# synthetic tensors


def tensor_from_mode_functions(atlas, coords, entries, k_max):
    """The tensor of a synthetic-tensor spec (domains.parse_tensor_spec).

    Each entry (k, a, b, expr) adds the coefficient expr, an expression
    (symforms.Expr) or a number in the base coordinates coords (v for
    n = 2, v1, v2 for n = 3), to mode k at row a and column b, both
    counted from 1; the coefficients are compiled as order-0 jets and
    evaluated at the nodes; a coefficient that is not finite at a node
    raises DeformationError.
    Synthetic tensors are single-chart: the frame-transition phase is
    singular at the opposite chart's origin, so only extracted tensors
    carry both charts.
    """
    n, coords, entries = atlas.n, tuple(coords), tuple(entries)
    v = _chart_points(atlas, 0)
    stack = np.zeros((k_max + 1, len(v), n - 1, n - 1), dtype=complex)
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        for k, a, b, expr in entries:
            stack[k, :, a - 1, b - 1] += Jet.compile(expr, coords, 0)(*v.reshape(len(v), -1).T)[0]
    grid = (atlas.n_v,) * (2 * n - 2)
    if not np.all(np.isfinite(stack)):
        k, p, a, b = np.argwhere(~np.isfinite(stack))[0]
        node = tuple(int(i) for i in np.unravel_index(p, grid))
        raise DeformationError(
            f"mode {k} {a + 1} {b + 1} is not finite on chart 0 at node {node}, v = {v[p]}"
        )
    modes = {0: stack.reshape((k_max + 1,) + grid + (n - 1, n - 1))}
    return DeformationTensor(n=n, atlas=atlas, k_max=k_max, modes=modes, spec=(coords, entries))
