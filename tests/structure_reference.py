"""The structure round trip, the tests' reference for extraction.

A tensor phi gives an almost complex structure J on the blow-up grid (n =
2) whose anti-holomorphic horizontal space is the graph of phi, standard
along the radial discs (reconstruct); extract_from_structure solves the
graph relation back at every fiber node with the closed form that
deformation.extract uses, and fourier_modes_from_components takes the
angular DFT of the components into radius-independent modes.  A general J
is not fiber-invariant, so the round trip runs on a polar fiber grid of
its own (fiber_zetas: N_R radii up to R_FIBER, N_THETA angles, a power of
two so that the DFT is exact on band-limited data), where extract needs
only zeta = 1.
"""

from typing import NamedTuple

import numpy as np

from maform.atlas import R_FIBER
from maform.deformation import (
    DeformationError,
    DeformationTensor,
    _ambient_of,
    _graph_from_blocks,
    antihol_rep,
    frame_vectors,
    hol_rep,
)

# the fiber grid of the round trip; the inner radius keeps clear of the
# exceptional set zeta = 0
N_R, N_THETA = 8, 16
RADII = np.linspace(0.1125, R_FIBER, N_R)


class StructureField(NamedTuple):
    """Almost complex structure samples on the blow-up grid (n = 2)."""

    atlas: object
    J: dict  # chart -> (n_v, n_v, N_R, N_THETA, 4, 4)


def fiber_zetas():
    """The fiber nodes zeta of the round trip, shape (N_R, N_THETA)."""
    thetas = 2.0 * np.pi * np.arange(N_THETA) / N_THETA
    return RADII[:, None] * np.exp(1j * thetas[None, :])


def _grid_points(atlas, chart):
    """Ambient points of every base and fiber node of a chart."""
    return _ambient_of(2, chart, atlas.base_points(chart)[:, :, None, None], fiber_zetas())


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
    return np.real(C * D @ np.linalg.inv(C))


def _series(mode_stack):
    """Component arrays on the fiber grid synthesized from a mode stack."""
    k_max = mode_stack.shape[0] - 1
    powers = fiber_zetas()[..., None] ** np.arange(k_max + 1)  # (N_R, N_THETA, k)
    return np.einsum("rtk,kxyab->xyrtab", powers, mode_stack)


def reconstruct(tensor):
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
    J = {
        chart: _structure_from_graph(2, chart, _grid_points(at, chart), _series(tensor.modes[chart]))
        for chart in tensor.charts
    }
    return StructureField(atlas=at, J=J)


def extract_from_structure(sf, k_max):
    """Solve the graph relation at every node of a structure field.

    J acts on complex tangent vectors as h -> Jc h + Ja hbar, with Jc and
    Ja the halves (Jx -+ i Jy)/2 of its x and y columns as complex rows,
    so its (0,1) space is {(p, q): (Jc + i) p + Ja q = 0}: the blocks
    A = Jc + i and B = Ja of the closed form that extract uses.
    """
    at = sf.atlas
    components, leaks = {}, []
    for chart in sorted(sf.J):
        J = np.moveaxis(sf.J[chart], (-2, -1), (0, 1))
        rows = J[0::2] + 1j * J[1::2]
        Jx, Jy = rows[:, 0::2], rows[:, 1::2]
        A = (Jx - 1j * Jy) / 2
        A[[0, 1], [0, 1]] += 1j
        components[chart], leak = _graph_from_blocks(chart, _grid_points(at, chart), A, (Jx + 1j * Jy) / 2)
        leaks.append(leak)
    tensor = fourier_modes_from_components(at, components, k_max)
    return tensor._replace(diagnostics={"disc_leak": max(leaks)})


def fourier_modes_from_components(atlas, components, k_max):
    """Angular DFT of component arrays into radius-independent modes.

    Mode k at a base node is the ring-k DFT coefficient divided by r^k,
    averaged over the fiber radii.
    """
    if N_THETA < 2 * (k_max + 1):
        raise DeformationError(f"k_max {k_max} needs at least {2 * (k_max + 1)} fiber angles")
    modes = {}
    for chart, comp in components.items():
        # (N_THETA, n_v, n_v, N_R, 1, 1): ring k holds mode k times r^k
        ring = np.moveaxis(np.fft.fft(comp, axis=3) / N_THETA, 3, 0)
        modes[chart] = np.array(
            [np.mean(ring[k] / RADII[:, None, None] ** k, axis=2) for k in range(k_max + 1)]
        )
    return DeformationTensor(n=2, atlas=atlas, k_max=k_max, modes=modes)
