"""Integrability conditions of a deformation tensor at n = 3.

Both conditions are vacuous at n = 2, where no command runs them.  (i) The
symmetry of ddc tau_o(phi X, Y) reads the node samples, with the reference
pairing in closed form.  (ii) The structure equation (Kodaira, Complex
Manifolds and Deformation of Complex Structures, ch. 5) is checked mode by
mode in one pass: mode k couples its own derivative term with the
brackets of the mode pairs (i, k - i).  The brackets [U, V]^i = U^d d_d
V^i - V^d d_d U^i come from order-1 jets (symforms.Jet) of the frame
fields and of the spec's mode coefficients in the real ambient
coordinates, evaluated once per tensor, so no derivative is approximated.
Both read chart 0, the only chart at n = 3; (ii) lifts it to the fiber
value ZETA.  The frame and the chart geometry are those of the deformation
module, and the frame coefficients of a bracket are read in closed form
(_split), so no linear system is solved.
"""

from __future__ import annotations

import numpy as np

from .deformation import (
    DeformationError,
    _ambient_of,
    antihol_rep,
    chart_axes,
    frame_vectors,
    hol_rep,
)
from .domains import ambient_coords
from .symforms import Jet, call, subs, to_real

# bound on the residuals of (i) and (ii): on integrable n = 3 tensors with
# coefficients up to 2, at N_v = 7 and 12 and chart boxes 1 and 1.25, (i)
# measures at most 4.4e-15 and (ii) 3.6e-16, all roundoff; the bound
# leaves two orders of headroom above the larger
INTEGRABILITY_TOL = 1e-12

# the fiber value at which (ii) is evaluated
ZETA = 0.5


def condition_symmetry(tensor):
    """Residuals of (i), one per mode: the symmetry of ddc tau_o(phi(X),
    Y) on the anti-holomorphic horizontal frame, from the node samples.

    (i) must hold at every fiber value zeta, and phi = sum_k zeta^k phi_k
    with the form of phi_k scaling by |zeta|^2 zeta^k, so it holds for
    each mode on its own: mode k is checked at zeta = 1.  The reference
    form pairs p d_z with q d_zbar as ddc|z|^2(p d_z, q d_zbar) = 2i p.q.
    """
    n = tensor.n
    z = _ambient_of(n, 0, tensor.atlas.points(0), 1.0)
    e = frame_vectors(n, 0, z)
    modes = tensor.modes[0].reshape(tensor.k_max + 1, len(z), n - 1, n - 1)
    img = np.einsum("kpba,pbi->kpai", modes, e)
    B = 2j * np.einsum("kpai,pbi->kpab", img, np.conj(e))
    return np.max(np.abs(B - np.swapaxes(B, -1, -2)), axis=(1, 2, 3))


def _split(chart, v, zeta, vec):
    """The ebar_a and e_a coefficients (N, n-1) each of rep vectors vec
    (N, 2n) in the splitting [ebar_a, zbar, e_a, zhol] at the points
    zeta (1, v) of a chart.

    vec is hol_rep(p) + antihol_rep(q) with p = u_x + i u_y and q = u_x -
    i u_y, so p lies in the span of e_a and z, and q in that of their
    conjugates.  On the axes j_b of the chart e_a has the components
    zeta delta_ab + v_b e_a[chart] and z the components v_b z[chart], so
    the e_a coefficient of p is (p_(j_a) - v_a p_chart) / zeta: G^-1 <p, e>
    for the frame's Gram matrix G, written out; likewise for q.
    """
    axes = chart_axes(v.shape[-1] + 1, chart)
    p = vec[:, 0::2] + 1j * vec[:, 1::2]
    q = vec[:, 0::2] - 1j * vec[:, 1::2]
    return ((q[:, axes] - np.conj(v) * q[:, chart, None]) / np.conj(zeta),
            (p[:, axes] - v * p[:, chart, None]) / zeta)


def _jets(tensor):
    """Order-1 jets of a spec tensor at the nodes of chart 0, lifted to
    the fiber value ZETA, in the 2n real ambient coordinates: part 0 is
    the value and part 1 + d the partial along coordinate d.

    Returns (E, C): the frame vectors E (n-1, 1+2n, N, n) and the
    coefficients C (k_max+1, n-1, n-1, 1+2n, N) of zeta^k phi_k, with v =
    z_axes / zeta substituted into the spec's entries.
    """
    n = tensor.n
    coords = ambient_coords(n)
    Z = [x + 1j * y for x, y in zip(coords[0::2], coords[1::2])]
    axes = chart_axes(n, 0)
    z = _ambient_of(n, 0, tensor.atlas.points(0), ZETA)
    x = to_real(z).T

    def jet(expr):
        return np.array(Jet.compile(expr, coords, 1)(*x), dtype=complex)

    nsq = sum(c**2 for c in coords)
    E = np.array([
        [jet(Z[0] * (int(i == j) - call("conj", Z[j]) * Z[i] / nsq)) for i in range(n)]
        for j in axes
    ])
    base, entries = tensor.spec
    v = {c: Z[j] / Z[0] for c, j in zip(base, axes)}
    C = np.zeros((tensor.k_max + 1, n - 1, n - 1, 1 + 2 * n, len(z)), dtype=complex)
    for k, a, b, expr in entries:
        C[k, a - 1, b - 1] += jet(subs(Z[0] ** k * expr, v))
    return np.moveaxis(E, 1, -1), C


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


def mode_residuals(tensor):
    """Sup residuals of the graded structure equation, one per mode, at the
    nodes of chart 0 lifted to the fiber value ZETA.

    On the frame fields X = ebar_1 and Y = ebar_2, mode k reads
    [X, phi_k Y] - [Y, phi_k X] - phi_k [X, Y] + sum_{i+j=k} [phi_i X,
    phi_j Y] (antisymmetrized, halved) in the e_a coefficients; the jets
    of the images phi_k(ebar_a) are built once per mode.
    """
    if tensor.spec is None:
        raise DeformationError("the structure equation needs the mode expressions of a spec tensor")
    E, C = _jets(tensor)
    v = tensor.atlas.points(0)

    def split(vec):
        return _split(0, v, ZETA, vec)

    images = [[hol_rep(sum(_times(Ck[b, a], E[b]) for b in range(2))) for a in range(2)]
              for Ck in C]
    X, Y = (antihol_rep(np.conj(e)) for e in E)
    cXY = split(_bracket(X, Y))[0]
    out = []
    for k, (phiX, phiY) in enumerate(images):
        total = (split(_bracket(X, phiY))[1] - split(_bracket(Y, phiX))[1]
                 - np.einsum("abp,pb->pa", C[k, :, :, 0], cXY))
        for i in range(k + 1):
            Bij = _bracket(images[i][0], images[k - i][1])
            Bji = _bracket(images[i][1], images[k - i][0])
            total = total + 0.5 * split(0.5 * (Bij - Bji))[1]
        out.append(float(np.max(np.abs(total))))
    return out
