"""Deformation tensors of fibered complex structures over projective space.

A complex structure J on the blown-up ball that is standard along the
radial discs and preserves the horizontal distribution is encoded by a
tensor phi mapping reference anti-holomorphic horizontal vectors to
holomorphic ones, through the graph relation: the J-anti-holomorphic
horizontal space is {w + phi(w)}.  A tensor is the stack of its
fiber-Fourier modes phi = sum_k phi_k(v) zeta^k over the base nodes.  This
module extracts phi from a normalizing map or a structure field, verifies
the integrability conditions, reconstructs J from phi (n = 2), and
implements the rotation and contraction actions on modes.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atlas import ChartAtlas

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
    field, when present, evaluates the mode coefficient stack at arbitrary
    base points and makes finite-difference verification node-free.
    """

    n: int
    atlas: ChartAtlas
    k_max: int
    modes: dict
    diagnostics: dict = field(default_factory=dict)
    field_fn: object = None  # (chart, v) -> (len(v), k_max+1, n-1, n-1)

    @property
    def charts(self):
        return sorted(self.modes.keys())

    def mode_field(self, chart, v):
        """Mode stack at arbitrary base points of a chart."""
        if self.field_fn is not None:
            return self.field_fn(chart, v)
        raise DeformationError("tensor carries node samples only")

    def mode_norms(self):
        """Reference-metric operator norm of each mode, sup over nodes.

        The norm of phi_k zeta^k is evaluated at the outer fiber radius,
        where the fiber factor is largest on the grid.
        """
        r = self.atlas.fiber.radii[-1] if self.n == 2 else 1.0
        out = np.zeros(self.k_max + 1)
        for chart in self.charts:
            ops = _operator_norms(self, chart)
            for k in range(self.k_max + 1):
                out[k] = max(out[k], float(np.max(ops[k])) * r**k)
        return out


def _chart_points(tensor, chart):
    """Base points of a chart as a flat complex array (n=2) or (N,2)."""
    at = tensor.atlas
    if tensor.n == 2:
        return at.base_points(chart).ravel()
    V1, V2 = at.base_points3()
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
        z = _ambient_of(n, chart, _chart_points(tensor, chart), 1.0)
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
    averaged over the fiber radii; the spread across radii is the
    fiber-holomorphy residual and the negative-frequency energy measures
    departure from a power series in zeta.
    """
    k_max = _mode_cutoff(atlas, k_max)
    n_theta = atlas.fiber.n_theta
    radii = atlas.fiber.radii
    modes = {}
    cross = negative = tail = 0.0
    for chart, comp in components.items():
        F = np.fft.fft(comp, axis=3) / n_theta  # (nv, nv, nr, ntheta, .., ..)
        neg = np.abs(F[:, :, :, n_theta // 2 + 1 :])
        negative = max(negative, float(np.max(neg, initial=0.0)))
        ring = np.moveaxis(F, 3, 0)  # (ntheta, nv, nv, nr, .., ..)
        stack = []
        for k in range(k_max + 1):
            per_radius = ring[k] / radii[None, None, :, None, None] ** k
            mean = np.mean(per_radius, axis=2)
            cross = max(
                cross,
                float(np.max(np.abs(per_radius - mean[:, :, None]))),
            )
            stack.append(mean)
        modes[chart] = np.array(stack)
        # tail: distance between the components and the truncated series
        tail = max(tail, float(np.max(np.abs(comp - _series(modes[chart], atlas)))))
    return DeformationTensor(
        n=2, atlas=atlas, k_max=k_max, modes=modes,
        diagnostics={"cross_radius": cross, "negative_energy": negative, "tail": tail},
    )


def _series(mode_stack, atlas):
    """Synthesize component arrays from a mode stack."""
    zetas = atlas.fiber.zetas
    k_max = mode_stack.shape[0] - 1
    powers = zetas[..., None] ** np.arange(k_max + 1)  # (nr, ntheta, k)
    return np.einsum("rtk,kxyab->xyrtab", powers, mode_stack)


# ---------------------------------------------------------------------------
# synthetic tensors


def tensor_from_mode_functions(atlas, n, entries, k_max, chart_list=(0,)):
    """Build a tensor from closed-form mode coefficients on chart 0.

    entries: list of (k, a, b, fn) with fn(v) -> complex array; v is the
    complex chart coordinate for n = 2 or an (N, 2) array for n = 3.
    Synthetic tensors are single-chart: the frame-transition phase is
    singular at the opposite chart's origin, so only extracted tensors
    carry both charts.
    """
    entries = list(entries)

    def stack_at(chart, v):
        if chart != 0:
            raise DeformationError("synthetic tensors live on chart 0")
        v = np.asarray(v)
        npts = v.shape[0]
        out = np.zeros((npts, k_max + 1, n - 1, n - 1), dtype=complex)
        for k, a, b, fn in entries:
            out[:, k, a, b] += fn(v)
        return out

    modes = {}
    for chart in chart_list:
        if n == 2:
            v = atlas.base_points(chart).ravel()
            arr = stack_at(chart, v)
            modes[chart] = np.moveaxis(
                arr.reshape(atlas.n_v, atlas.n_v, k_max + 1, n - 1, n - 1), 2, 0
            )
        else:
            V1, V2 = atlas.base_points3()
            v = np.stack([V1.ravel(), V2.ravel()], axis=-1)
            arr = stack_at(0, v)
            modes[chart] = np.moveaxis(
                arr.reshape(V1.shape + (k_max + 1, n - 1, n - 1)), -3, 0
            )
    return DeformationTensor(
        n=n, atlas=atlas, k_max=k_max, modes=modes, field_fn=stack_at
    )


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
    factors = np.asarray(factors)
    modes = {
        c: m * factors.reshape((-1,) + (1,) * (m.ndim - 1))
        for c, m in tensor.modes.items()
    }
    field_fn = None
    if tensor.field_fn is not None:
        inner = tensor.field_fn

        def field_fn(chart, v):
            return inner(chart, v) * np.asarray(factors)[None, :, None, None]

    return DeformationTensor(
        n=tensor.n, atlas=tensor.atlas, k_max=tensor.k_max, modes=modes,
        diagnostics=dict(tensor.diagnostics), field_fn=field_fn,
    )


# ---------------------------------------------------------------------------
# integrability verifiers


def _fd_jacobian(fieldfn, z, h=0.01):
    """Derivative of a complexified-vector field w.r.t. real coordinates.

    Five-point central stencil per real direction; fieldfn maps ambient
    points (N, n) complex to rep vectors (N, 2n) complex.  Returns
    (N, 2n, 2n): D[:, i, d] = d(rep_i)/d(real coord d).
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    D = np.empty(z.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    for d in range(2 * n):
        step = np.zeros(n, dtype=complex)
        if d % 2 == 0:
            step[d // 2] = h
        else:
            step[d // 2] = 1j * h
        f2p = fieldfn(z + 2 * step)
        f1p = fieldfn(z + step)
        f1m = fieldfn(z - step)
        f2m = fieldfn(z - 2 * step)
        D[..., d] = (-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * h)
    return D


def _bracket(Ufn, Vfn, z, h=0.01):
    """Lie bracket of complexified vector fields at ambient points."""
    U = Ufn(z)
    V = Vfn(z)
    DU = _fd_jacobian(Ufn, z, h)
    DV = _fd_jacobian(Vfn, z, h)
    # rep components are w.r.t. real coordinates, so the directional
    # derivative along U uses the real-coordinate components of U; those
    # are exactly the rep entries (complex-valued real components)
    return (
        np.einsum("...id,...d->...i", DV, U)
        - np.einsum("...id,...d->...i", DU, V)
    )


def _decompose(n, chart, z, vec):
    """Coefficients of rep vectors over [ebar_a, zbar, e_a, zhol]."""
    _, cols = _graph_basis(n, chart, z)
    return np.linalg.solve(cols, vec[..., None])[..., 0]


def condition_symmetry(tensor, chart=0, zeta=0.5):
    """Residual of (i): symmetry of ddc tau_o(phi(X), Y) on the
    anti-holomorphic horizontal frame."""
    n = tensor.n
    v = _chart_points(tensor, chart)
    npts = v.shape[0]
    z = _ambient_of(n, chart, v, zeta)
    e = frame_vectors(n, chart, z)
    stack = tensor.mode_field(chart, v)
    powers = np.full(npts, zeta, dtype=complex)[:, None] ** np.arange(
        tensor.k_max + 1
    )
    phi = np.einsum("pk,pkab->pab", powers, stack)
    A = reference_form_matrix(n)
    B = np.empty((npts, n - 1, n - 1), dtype=complex)
    img = np.einsum("pba,pbi->pai", phi, e)
    for a in range(n - 1):
        for b in range(n - 1):
            B[:, a, b] = np.einsum(
                "pi,ij,pj->p",
                hol_rep(img[:, a, :]), A, antihol_rep(np.conj(e[:, b, :])),
            )
    return float(np.max(np.abs(B - np.swapaxes(B, -1, -2))))


def _phi_matrix_at(tensor, chart, z, mode_select=None):
    """Tensor matrix phi^a_b at ambient points, optionally one fiber mode."""
    n = tensor.n
    zeta = z[..., chart]
    if n == 2:
        flat_v = (z[..., 1 - chart] / zeta).ravel()
    else:
        axes = chart_axes(n, chart)
        flat_v = np.stack(
            [(z[..., j] / zeta).ravel() for j in axes], axis=-1
        )
    stack = tensor.mode_field(chart, flat_v).reshape(
        z.shape[:-1] + (tensor.k_max + 1, n - 1, n - 1)
    )
    if mode_select is None:
        powers = zeta[..., None] ** np.arange(tensor.k_max + 1)
    else:
        powers = np.zeros(zeta.shape + (tensor.k_max + 1,), dtype=complex)
        powers[..., mode_select] = zeta**mode_select
    return np.einsum("...k,...kab->...ab", powers, stack)


def _frame_field(n, chart, a):
    def fn(z):
        e = frame_vectors(n, chart, z)
        return antihol_rep(np.conj(e[..., a, :]))

    return fn


def _phi_image_field(tensor, chart, a, mode_select=None):
    n = tensor.n

    def fn(z):
        e = frame_vectors(n, chart, z)
        phi = _phi_matrix_at(tensor, chart, z, mode_select)
        img = np.einsum("...b,...bi->...i", phi[..., :, a], e)
        return hol_rep(img)

    return fn


def maurer_cartan_residual(tensor, chart=0, zeta=0.5, dbar_mode=None,
                           bracket_pairs=None, h=0.01, v_samples=None):
    """Residual arrays of the structure equation on one chart.

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
    if bracket_pairs is None:
        bracket_pairs = [(None, None)]
    if v_samples is None:
        v = _chart_points(tensor, chart)
        # keep clear of the chart boundary so the FD stencil stays inside
        keep = np.max(np.abs(v), axis=-1) <= tensor.atlas.box - 3 * h
        v = v[keep]
    else:
        v = v_samples
    z = _ambient_of(n, chart, v, zeta)

    worst = 0.0
    leak = 0.0
    fields = []
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            X = _frame_field(n, chart, a)
            Y = _frame_field(n, chart, b)
            PX = _phi_image_field(tensor, chart, a, dbar_mode)
            PY = _phi_image_field(tensor, chart, b, dbar_mode)
            B1 = _bracket(X, PY, z, h)  # [X, phi(Y)]
            B2 = _bracket(Y, PX, z, h)  # [Y, phi(X)]
            BXY = _bracket(X, Y, z, h)
            c1 = _decompose(n, chart, z, B1)
            c2 = _decompose(n, chart, z, B2)
            cXY = _decompose(n, chart, z, BXY)
            phi_sel = _phi_matrix_at(tensor, chart, z, dbar_mode)
            phi_of_bxy = np.einsum(
                "...ab,...b->...a", phi_sel, cXY[..., : n - 1]
            )
            total = c1[..., n : 2 * n - 1] - c2[..., n : 2 * n - 1] - phi_of_bxy
            leak = max(
                leak,
                float(np.max(np.abs(c1[..., : n - 1]))),
                float(np.max(np.abs(c2[..., : n - 1]))),
            )
            for ki, kj in bracket_pairs:
                Pi_X = _phi_image_field(tensor, chart, a, ki)
                Pj_Y = _phi_image_field(tensor, chart, b, kj)
                Pi_Y = _phi_image_field(tensor, chart, b, ki)
                Pj_X = _phi_image_field(tensor, chart, a, kj)
                Bij = _bracket(Pi_X, Pj_Y, z, h)
                Bji = _bracket(Pi_Y, Pj_X, z, h)
                cij = _decompose(n, chart, z, 0.5 * (Bij - Bji))
                total = total + 0.5 * cij[..., n : 2 * n - 1]
            fields.append(total)
            worst = max(worst, float(np.max(np.abs(total))))
    return {
        "residual": worst,
        "antihol_leak": leak,
        "field": np.concatenate([f[..., None] for f in fields], axis=-1),
        "points": v,
    }


def verify_mode_equations(tensor: DeformationTensor, k_max=None, chart=0,
                          zeta=0.5, h=0.01):
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
    full = maurer_cartan_residual(tensor, chart, zeta, h=h)
    acc = None
    for k in range(k_max + 1):
        pairs = [(i, k - i) for i in range(k + 1)]
        res = maurer_cartan_residual(
            tensor, chart, zeta, dbar_mode=k, bracket_pairs=pairs, h=h
        )
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
            tensor, chart, zeta, dbar_mode=None, bracket_pairs=tail_pairs, h=h
        )
        base = maurer_cartan_residual(
            tensor, chart, zeta, dbar_mode=None, bracket_pairs=[], h=h
        )
        acc = acc + (extra["field"] - base["field"])
    out["consistency"] = float(np.max(np.abs(acc - full["field"])))
    return out
