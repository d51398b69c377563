"""Integrability conditions of a deformation tensor at n = 3.

Both conditions are vacuous at n = 2.  (i) The symmetry of ddc tau_o(phi
X, Y) reads the node samples, and (ii) the structure equation (Kodaira,
Complex Manifolds and Deformation of Complex Structures, ch. 5) takes its
brackets [U, V]^i = U^d d_d V^i - V^d d_d U^i from order-1 jets
(symforms.Jet) of the frame fields and of the spec's mode coefficients in
the real ambient coordinates, so no derivative is approximated.  The
frame and the chart geometry are those of the deformation module, and the
frame coefficients of a bracket are read in closed form (_split), so no
linear system is solved.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .deformation import (
    DeformationError,
    _ambient_of,
    antihol_rep,
    chart_axes,
    frame_vectors,
    hol_rep,
    reference_form_matrix,
)
from .domains import ambient_coords
from .symforms import Jet, call, subs, to_real

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
    z = _ambient_of(n, chart, tensor.atlas.points(chart), 1.0)
    e = frame_vectors(n, chart, z)
    modes = tensor.modes[chart].reshape(tensor.k_max + 1, len(z), n - 1, n - 1)
    A = reference_form_matrix(n)
    img = np.einsum("kpba,pbi->kpai", modes, e)
    B = np.einsum("kpai,ij,pbj->kpab", hol_rep(img), A, antihol_rep(np.conj(e)))
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


@lru_cache(maxsize=1)
def _jets(atlas, k_max, spec, chart, zeta):
    """Order-1 jets at the chart nodes, lifted to the fiber value zeta, in
    the 2n real ambient coordinates: part 0 is the value and part 1 + d
    the partial along coordinate d.

    Returns (E, C): the frame vectors E (n-1, 1+2n, N, n) and the
    coefficients C (k_max+1, n-1, n-1, 1+2n, N) of zeta^k phi_k, with v =
    z_axes / zeta substituted into the spec's entries.  Cached, since
    verify_mode_equations reads them repeatedly.
    """
    n = atlas.n
    coords = ambient_coords(n)
    Z = [x + 1j * y for x, y in zip(coords[0::2], coords[1::2])]
    axes = chart_axes(n, chart)
    z = _ambient_of(n, chart, atlas.points(chart), zeta)
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
    E, C = _jets(tensor.atlas, tensor.k_max, tensor.spec, chart, zeta)
    v = tensor.atlas.points(chart)
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
        return _split(chart, v, zeta, vec)

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


def verify_mode_equations(tensor, k_max=None, chart=0, zeta=0.5):
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
