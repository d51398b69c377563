"""Deformation tensors of fibered complex structures over projective space.

A complex structure J on the blown-up ball that is standard along the
radial discs and preserves the horizontal distribution is encoded by a
tensor phi mapping reference anti-holomorphic horizontal vectors to
holomorphic ones, through the graph relation: the J-anti-holomorphic
horizontal space is {w + phi(w)}.  A tensor is the stack of its
fiber-Fourier modes phi = sum_k phi_k(v) zeta^k over the base nodes.  This
module extracts phi from a normalizing map or a structure field, verifies
the integrability conditions with exact Lie brackets, reconstructs J from
phi (n = 2), and implements the rotation and contraction actions on modes.

Extraction (n = 2) is closed-form 2 x 2 complex algebra.  In the
coordinates p d/dz + q d/dzbar the (0,1) space of J is {(p, q):
A p + B q = 0}; for the pullback by a map with dphi(h) = A h + B hbar
these are the blocks of dphi.  ebar projects onto that space along its
conjugate as (p', q'), q' = (Abar - Bbar A^-1 B)^-1 Abar ebar and
p' = -A^-1 B q', and since e is orthogonal to z, phi = <p', e> / <q', ebar>.
For a fiber-linear normalizing map A depends on v alone, Bbar A^-1 B
carries the factor |zeta / zetabar| = 1 and ebar scales by zetabar, so phi
does not depend on zeta: extract solves once per base node, at zeta = 1,
and the tensor is mode 0 only.  A general structure field is not
fiber-invariant, and extract_from_structure solves at every fiber node.

Conventions: the reference exhaustion is |z|^2; the frame e_a over a
chart is the horizontal projection of the coordinate lift, extended
along fibers equivariantly, e_a = zeta * (eps_{j_a} - (conj(z^{j_a}) /
|z|^2) z).  Components are stored in the frame ebar^b (x) e_a.

Integrability (n = 3; both conditions are vacuous at n = 2): (i) the
symmetry of ddc tau_o(phi X, Y) reads the node samples, and (ii) the
structure equation (Kodaira, Complex Manifolds and Deformation of Complex
Structures, ch. 5) takes its brackets [U, V]^i = U^d d_d V^i - V^d d_d U^i
from order-1 jets (symforms.Jet) of the frame fields and of the spec's
mode coefficients in the real ambient coordinates, so no derivative is
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .atlas import ChartAtlas
from .domains import ambient_coords
from .symforms import Jet, call, subs, to_real

__all__ = [
    "DeformationError",
    "DeformationTensor",
    "StructureField",
    "chart_axes",
    "frame_vectors",
    "extract",
    "extract_from_structure",
    "fourier_modes_from_components",
    "reconstruct",
    "rotate",
    "contract",
    "verify_mode_equations",
    "tensor_from_mode_functions",
    "INTEGRABILITY_TOL",
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


def _graph_basis(n, chart, z):
    """Columns [ebar_a, zbar, e_a, zhol] of the complexified splitting."""
    e = frame_vectors(n, chart, z)
    cols = np.empty(z.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    for a in range(n - 1):
        cols[..., :, a] = antihol_rep(np.conj(e[..., a, :]))
        cols[..., :, n + a] = hol_rep(e[..., a, :])
    cols[..., :, n - 1] = antihol_rep(np.conj(z))
    cols[..., :, 2 * n - 1] = hol_rep(z)
    return e, cols


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


def _structure_from_graph(n, chart, z, phi):
    """J matrices whose (0,1) space is the graph of phi plus the disc part."""
    e = frame_vectors(n, chart, z)
    S = np.empty(z.shape[:-1] + (2 * n, n), dtype=complex)
    for a in range(n - 1):
        u = antihol_rep(np.conj(e[..., a, :]))
        for b in range(n - 1):
            u = u + phi[..., b, a][..., None] * hol_rep(e[..., b, :])
        S[..., :, a] = u
    S[..., :, n - 1] = antihol_rep(np.conj(z))
    C = np.concatenate([S, np.conj(S)], axis=-1)
    D = np.concatenate([np.full(n, -1j), np.full(n, 1j)])
    J = np.real(C * D @ np.linalg.inv(C))
    return J


# ---------------------------------------------------------------------------
# tensors


@dataclass
class DeformationTensor:
    """Deformation tensor modes on the base grid of one or two charts.

    modes[chart] has shape (k_max+1, n_v, ..., n-1, n-1) over base nodes.
    spec, for a tensor built from a spec (tensor_from_mode_functions), is
    its (coords, entries); the structure equation differentiates them.
    """

    n: int
    atlas: ChartAtlas
    k_max: int
    modes: dict
    diagnostics: dict = field(default_factory=dict)
    spec: tuple = None

    @property
    def charts(self):
        return sorted(self.modes.keys())

    def mode_norms(self):
        """Reference-metric operator norm of each mode, sup over nodes.

        The norm of phi_k zeta^k is evaluated at the outer fiber radius,
        where the fiber factor is largest on the grid.
        """
        r = self.atlas.fiber.radii[-1] if self.n == 2 else 1.0
        out = np.zeros(self.k_max + 1)
        for chart in self.charts:
            # np.max and np.maximum keep a NaN node, so no verdict passes on it
            ops = np.array([np.max(op) for op in _operator_norms(self, chart)])
            out = np.maximum(out, ops * r ** np.arange(self.k_max + 1))
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
        e = frame_vectors(n, chart, z)
        A = reference_form_matrix(n)
        Pg = np.empty(z.shape[:-1] + (n - 1, n - 1), dtype=complex)
        Qg = np.empty_like(Pg)
        for a in range(n - 1):
            for b in range(n - 1):
                ea = hol_rep(e[..., a, :])
                eb_bar = antihol_rep(np.conj(e[..., b, :]))
                Pg[..., a, b] = np.einsum("...i,ij,...j->...", ea, A, eb_bar) / (2j)
                Qg[..., a, b] = np.einsum(
                    "...i,ij,...j->...", antihol_rep(np.conj(e[..., a, :])), A,
                    hol_rep(e[..., b, :])
                ) / (-2j)
        _LEVI_ROOTS[key] = (_mat_sqrt(Qg), np.linalg.inv(_mat_sqrt(Pg)))
    return _LEVI_ROOTS[key]


def _operator_norms(tensor, chart):
    """Per-mode operator norms w.r.t. the reference Levi metric at nodes."""
    Qhalf, Pinvh = _levi_roots(tensor, chart)
    m = tensor.n - 1
    out = []
    for M in tensor.modes[chart].reshape(tensor.k_max + 1, -1, m, m):
        if m == 1:
            # 1x1 matrices: the operator norm is the modulus
            out.append(np.abs(Qhalf[:, 0, 0] * M[:, 0, 0] * Pinvh[:, 0, 0]))
        else:
            out.append(np.linalg.norm(Qhalf @ M @ Pinvh, ord=2, axis=(-2, -1)))
    return out


def _mat_sqrt(H):
    """Hermitian PSD square root, vectorized over leading axes."""
    w, U = np.linalg.eigh(H)
    w = np.maximum(w, 0.0)
    return (U * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


# ---------------------------------------------------------------------------
# extraction


def _mode_cutoff(atlas, k_max):
    """k_max, by default the highest mode the fiber angles resolve."""
    n_theta = atlas.fiber.n_theta
    if k_max is None:
        return n_theta // 2 - 1
    if n_theta < 2 * (k_max + 1):
        raise DeformationError(
            f"k_max {k_max} needs at least {2 * (k_max + 1)} fiber angles"
        )
    return k_max


def extract(nm, k_max=None):
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
    k_max = _mode_cutoff(at, k_max)
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


@dataclass
class StructureField:
    """Almost complex structure samples on the blow-up grid (n = 2)."""

    atlas: ChartAtlas
    J: dict  # chart -> (n_v, n_v, n_r, n_theta, 4, 4)


def reconstruct(tensor: DeformationTensor) -> StructureField:
    """Complex structure whose anti-holomorphic horizontal space is the
    graph of the tensor, standard along the radial discs, sampled on the
    full blow-up grid (n = 2)."""
    if tensor.n != 2:
        raise DeformationError(
            f"structure reconstruction is implemented for n = 2 only, got n = {tensor.n}"
        )
    norms = tensor.mode_norms()
    if np.sum(norms) >= 1.0:
        raise DeformationError(
            f"tensor operator norm {np.sum(norms):.3f} >= 1: the graph is "
            "not transverse and no structure exists"
        )
    at = tensor.atlas
    J = {}
    for chart in tensor.charts:
        z = _ambient_of(2, chart, at.base_points(chart)[:, :, None, None], at.fiber.zetas)
        J[chart] = _structure_from_graph(2, chart, z, _series(tensor.modes[chart], at))
    return StructureField(atlas=at, J=J)


def extract_from_structure(sf: StructureField, k_max=None) -> DeformationTensor:
    """Solve the graph relation at every node of a structure field.

    J acts on complex tangent vectors as h -> Jc h + Ja hbar, with Jc and
    Ja the halves (Jx -+ i Jy)/2 of its x and y columns as complex rows,
    so its (0,1) space is {(p, q): (Jc + i) p + Ja q = 0}: the blocks
    A = Jc + i and B = Ja of the closed form that extract uses.  A general
    J is not fiber-invariant, so the solve runs on the full fiber grid and
    the modes come from fourier_modes_from_components.
    """
    at = sf.atlas
    components, leaks = {}, []
    for chart in sorted(sf.J):
        J = np.moveaxis(sf.J[chart], (-2, -1), (0, 1))
        rows = J[0::2] + 1j * J[1::2]
        Jx, Jy = rows[:, 0::2], rows[:, 1::2]
        A = (Jx - 1j * Jy) / 2
        A[[0, 1], [0, 1]] += 1j
        z = _ambient_of(2, chart, at.base_points(chart)[:, :, None, None], at.fiber.zetas)
        components[chart], leak = _graph_from_blocks(chart, z, A, (Jx + 1j * Jy) / 2)
        leaks.append(leak)
    tensor = fourier_modes_from_components(at, components, k_max)
    tensor.diagnostics["disc_leak"] = max(leaks)
    return tensor


# ---------------------------------------------------------------------------
# fiber-Fourier analysis


def fourier_modes_from_components(atlas, components, k_max):
    """Angular DFT of component arrays into radius-independent modes.

    Mode k at a base node is the ring-k DFT coefficient divided by r^k,
    averaged over the fiber radii.
    """
    k_max = _mode_cutoff(atlas, k_max)
    radii = atlas.fiber.radii
    modes = {}
    for chart, comp in components.items():
        # (n_theta, n_v, n_v, n_r, 1, 1): ring k holds mode k times r^k
        ring = np.moveaxis(np.fft.fft(comp, axis=3) / atlas.fiber.n_theta, 3, 0)
        modes[chart] = np.array(
            [np.mean(ring[k] / radii[:, None, None] ** k, axis=2) for k in range(k_max + 1)]
        )
    return DeformationTensor(n=2, atlas=atlas, k_max=k_max, modes=modes)


def _series(mode_stack, atlas):
    """Synthesize component arrays from a mode stack."""
    zetas = atlas.fiber.zetas
    k_max = mode_stack.shape[0] - 1
    powers = zetas[..., None] ** np.arange(k_max + 1)  # (nr, ntheta, k)
    return np.einsum("rtk,kxyab->xyrtab", powers, mode_stack)


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
    stack = np.zeros((k_max + 1, n - 1, n - 1, len(v)), dtype=complex)
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        for k, a, b, expr in entries:
            stack[k, a - 1, b - 1] += Jet.compile(expr, coords, 0)(*v.reshape(len(v), -1).T)[0]
    grid = (atlas.n_v,) * (2 * n - 2)
    if not np.all(np.isfinite(stack)):
        k, a, b, p = np.argwhere(~np.isfinite(stack))[0]
        node = tuple(int(i) for i in np.unravel_index(p, grid))
        raise DeformationError(
            f"mode {k} {a + 1} {b + 1} is not finite on chart 0 at node {node}, v = {v[p]}"
        )
    modes = {0: np.moveaxis(stack, -1, 1).reshape((k_max + 1,) + grid + (n - 1, n - 1))}
    return DeformationTensor(n=n, atlas=atlas, k_max=k_max, modes=modes, spec=(coords, entries))


# ---------------------------------------------------------------------------
# group actions


def rotate(tensor: DeformationTensor, theta) -> DeformationTensor:
    """Fiber-rotation pullback: mode j picks up the factor e^{ij theta}."""
    phases = np.exp(1j * np.arange(tensor.k_max + 1) * theta)
    return _remap_modes(tensor, phases)


def contract(tensor: DeformationTensor, k) -> DeformationTensor:
    """Evaluate the tensor at ([v], k zeta): mode j scales by k^j."""
    if not (0 < k <= 1):
        raise DeformationError("contraction ratio must lie in (0, 1]")
    factors = np.asarray(k, dtype=float) ** np.arange(tensor.k_max + 1)
    return _remap_modes(tensor, factors)


def _remap_modes(tensor, factors):
    """The tensor with mode k scaled by factors[k], on node samples alone."""
    factors = np.asarray(factors)
    modes = {
        c: m * factors.reshape((-1,) + (1,) * (m.ndim - 1))
        for c, m in tensor.modes.items()
    }
    return DeformationTensor(
        n=tensor.n, atlas=tensor.atlas, k_max=tensor.k_max, modes=modes,
        diagnostics=dict(tensor.diagnostics),
    )


# ---------------------------------------------------------------------------
# integrability verifiers

# bound on the residuals of (i) and (ii): on integrable n = 3 tensors with
# coefficients up to 2, at N_v = 7 and 12 and chart boxes 1 and 1.25, (i)
# measures at most 4.4e-15 and (ii) 3.6e-16, all roundoff; the bound
# leaves two orders of headroom above the larger
INTEGRABILITY_TOL = 1e-12


def condition_symmetry(tensor, chart=0):
    """Residuals of (i), one per mode: the symmetry of ddc tau_o(phi(X),
    Y) on the anti-holomorphic horizontal frame, from the node samples.

    (i) must hold at every fiber value zeta, and phi = sum_k zeta^k phi_k
    with the form of phi_k scaling by |zeta|^2 zeta^k, so it holds for
    each mode on its own: mode k is checked at zeta = 1.
    """
    n = tensor.n
    z = _ambient_of(n, chart, _chart_points(tensor.atlas, chart), 1.0)
    e = frame_vectors(n, chart, z)
    modes = tensor.modes[chart].reshape(tensor.k_max + 1, len(z), n - 1, n - 1)
    A = reference_form_matrix(n)
    img = np.einsum("kpba,pbi->kpai", modes, e)
    B = np.einsum("kpai,ij,pbj->kpab", hol_rep(img), A, antihol_rep(np.conj(e)))
    return np.max(np.abs(B - np.swapaxes(B, -1, -2)), axis=(1, 2, 3))


@lru_cache(maxsize=1)
def _jets(atlas, k_max, spec, chart, zeta):
    """Order-1 jets at the chart nodes, lifted to the fiber value zeta, in
    the 2n real ambient coordinates: part 0 is the value and part 1 + d
    the partial along coordinate d.

    Returns (E, C, Q): the frame vectors E (n-1, 1+2n, N, n), the
    coefficients C (k_max+1, n-1, n-1, 1+2n, N) of zeta^k phi_k, with v =
    z_axes / zeta substituted into the spec's entries, and Q (N, 2n, 2n),
    which takes rep vectors to their coefficients over [ebar_a, zbar, e_a,
    zhol].  Cached, since verify_mode_equations reads them repeatedly.
    """
    n = atlas.n
    coords = ambient_coords(n)
    Z = [x + 1j * y for x, y in zip(coords[0::2], coords[1::2])]
    axes = chart_axes(n, chart)
    z = _ambient_of(n, chart, _chart_points(atlas, chart), zeta)
    x = to_real(z).T

    def jet(expr):
        return np.array(Jet.compile(expr, coords, 1)(*x), dtype=complex)

    nsq = sum(c**2 for c in coords)
    E = np.array([
        [jet(Z[chart] * (int(i == j) - call("conj", Z[j]) * Z[i] / nsq)) for i in range(n)]
        for j in axes
    ])
    base, entries = spec
    v = {c: Z[j] / Z[chart] for c, j in zip(base, axes)}
    C = np.zeros((k_max + 1, n - 1, n - 1, 1 + 2 * n, len(z)), dtype=complex)
    for k, a, b, expr in entries:
        C[k, a - 1, b - 1] += jet(subs(Z[chart] ** k * expr, v))
    return np.moveaxis(E, 1, -1), C, np.linalg.inv(_graph_basis(n, chart, z)[1])


def _times(f, g):
    """Jet of the product of a scalar jet f (1+d, N) and a vector jet g
    (1+d, N, m): Leibniz's rule on every partial."""
    f = f[..., None]
    return np.concatenate([f[:1] * g[:1], f[:1] * g[1:] + f[1:] * g[:1]])


def _bracket(U, V):
    """Lie bracket [U, V]^i = U^d d_d V^i - V^d d_d U^i of the jets (1+2n,
    N, 2n) of rep vector fields; rep components are taken along the real
    coordinates, so they are also the directional weights."""
    return np.einsum("pd,dpi->pi", U[0], V[1:]) - np.einsum("pd,dpi->pi", V[0], U[1:])


def maurer_cartan_residual(tensor, chart=0, zeta=0.5, dbar_mode=None, bracket_pairs=None):
    """Residual arrays of the structure equation at the chart nodes.

    dbar_mode selects the fiber mode entering the derivative term (None
    for the full tensor); bracket_pairs lists the (i, j) mode pairs of
    the quadratic term (None entries meaning the full tensor).  Returns a
    dict with per-point residual magnitudes ("field"), the sup norm
    ("residual"), and the anti-holomorphic leak of the bracket, the
    measured counterpart of the structural containment assumption.
    """
    n = tensor.n
    if n < 3:
        return {"residual": 0.0, "antihol_leak": 0.0, "field": 0.0}
    if tensor.spec is None:
        raise DeformationError("the structure equation needs the mode expressions of a spec tensor")
    if bracket_pairs is None:
        bracket_pairs = [(None, None)]
    E, C, Q = _jets(tensor.atlas, tensor.k_max, tensor.spec, chart, zeta)
    images = {}

    def coef(k):
        # coefficient jets of mode k (None: the full tensor)
        return C.sum(axis=0) if k is None else C[k]

    def image(k, a):
        # jet of phi(ebar_a) for mode k
        if (k, a) not in images:
            images[k, a] = hol_rep(sum(_times(coef(k)[b, a], E[b]) for b in range(n - 1)))
        return images[k, a]

    def split(vec):
        # the ebar and e coefficients of rep vectors (N, 2n)
        c = np.einsum("pij,pj->pi", Q, vec)
        return c[:, : n - 1], c[:, n : 2 * n - 1]

    X = [antihol_rep(np.conj(e)) for e in E]
    phi_sel = coef(dbar_mode)[:, :, 0]
    worst = 0.0
    leak = 0.0
    fields = []
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            leak1, c1 = split(_bracket(X[a], image(dbar_mode, b)))  # [X, phi(Y)]
            leak2, c2 = split(_bracket(X[b], image(dbar_mode, a)))  # [Y, phi(X)]
            cXY = split(_bracket(X[a], X[b]))[0]
            total = c1 - c2 - np.einsum("abp,pb->pa", phi_sel, cXY)
            leak = max(leak, float(np.max(np.abs(leak1))), float(np.max(np.abs(leak2))))
            for ki, kj in bracket_pairs:
                Bij = _bracket(image(ki, a), image(kj, b))
                Bji = _bracket(image(ki, b), image(kj, a))
                total = total + 0.5 * split(0.5 * (Bij - Bji))[1]
            fields.append(total)
            worst = max(worst, float(np.max(np.abs(total))))
    return {
        "residual": worst,
        "antihol_leak": leak,
        "field": np.concatenate([f[..., None] for f in fields], axis=-1),
    }


def verify_mode_equations(tensor: DeformationTensor, k_max=None, chart=0, zeta=0.5):
    """Per-mode residuals of the graded structure equations.

    Mode k couples its own derivative term with the quadratic terms of
    all mode splittings i + j = k; the per-mode residual fields must sum
    to the full-tensor residual, which is returned as a consistency gap.
    """
    if k_max is None:
        k_max = tensor.k_max
    out = {"per_mode": [], "consistency": 0.0}
    if tensor.n < 3:
        out["per_mode"] = [0.0] * (k_max + 1)
        return out
    full = maurer_cartan_residual(tensor, chart, zeta)
    acc = None
    for k in range(k_max + 1):
        pairs = [(i, k - i) for i in range(k + 1)]
        res = maurer_cartan_residual(tensor, chart, zeta, dbar_mode=k, bracket_pairs=pairs)
        out["per_mode"].append(res["residual"])
        acc = res["field"] if acc is None else acc + res["field"]
    # the graded residuals must reassemble the ungraded one
    tail_pairs = [
        (i, j)
        for i in range(tensor.k_max + 1)
        for j in range(tensor.k_max + 1)
        if i + j > k_max
    ]
    if tail_pairs:
        # bracket content of the splittings beyond k_max, isolated by
        # subtracting a run with an empty pair list
        extra = maurer_cartan_residual(
            tensor, chart, zeta, dbar_mode=None, bracket_pairs=tail_pairs
        )
        base = maurer_cartan_residual(tensor, chart, zeta, dbar_mode=None, bracket_pairs=[])
        acc = acc + (extra["field"] - base["field"])
    out["consistency"] = float(np.max(np.abs(acc - full["field"])))
    return out
