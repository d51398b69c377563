"""Deformation tensors: extraction, modes, verifiers, and the scaling test."""

import tracemalloc

import numpy as np
import pytest

from maform import deformation
from maform.atlas import R_FIBER, ChartAtlas
from maform.characterization import classify, scaling_test
from maform.cli import load_tensor_file
from maform.deformation import (
    DeformationError,
    DeformationTensor,
    _levi_roots,
    extract,
    frame_vectors,
    hol_rep,
    antihol_rep,
    reference_form_matrix,
    tensor_from_mode_functions,
)
from maform.integrability import (
    _bracket,
    _jets,
    _times,
    condition_symmetry,
    maurer_cartan_residual,
    verify_mode_equations,
)
from maform.domains import make_circular_domain
from maform.moser import normalize_domain
from maform.symforms import call, sym, symbols
from structure_reference import (
    extract_from_structure,
    fiber_zetas,
    fourier_modes_from_components,
    reconstruct,
)
from symbolic_forms import standard_j_matrix

ATLAS = ChartAtlas(n=2, n_v=17)
ATLAS3 = ChartAtlas(n=3, n_v=7, box=1.0)
V = sym("v")
V1, V2 = symbols("v1 v2")


@pytest.fixture(scope="module")
def ball_tensor():
    mink, _ = make_circular_domain({"kind": "ball"})
    nm = normalize_domain(mink, atlas=ATLAS, n_steps=50)
    return extract(nm)


@pytest.fixture(scope="module")
def ellipsoid_tensor():
    mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    nm = normalize_domain(mink, atlas=ATLAS, n_steps=100)
    return extract(nm)


@pytest.fixture(scope="module")
def synthetic_129():
    """The n = 2 synthetic tensor of the scale-test benchmark's kind, at
    N_v = 129 with k_max = 7."""
    vbar = call("conj", V)
    entries = [
        (0, 1, 1, 0.05 / (1 + V * vbar)), (1, 1, 1, 0.02 * V / (1 + V * vbar)),
        (3, 1, 1, 0.01 * V**2), (7, 1, 1, 0.003 * vbar),
    ]
    return tensor_from_mode_functions(ChartAtlas(n=2, n_v=129), (V,), entries, 7)


@pytest.fixture(scope="module")
def perturbed_nm():
    mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
    return normalize_domain(mink, atlas=ATLAS, n_steps=100)


@pytest.fixture(scope="module")
def perturbed_tensor(perturbed_nm):
    return extract(perturbed_nm)


def four_by_four_graph(nm, chart):
    """phi at every fiber node of a chart by the real 4 x 4 route: the
    pushforward D of z = zeta p(v) -> zeta W(v), J = D^-1 J_o D, the
    projection (1 + iJ)/2 of ebar, and a 4 x 4 solve for its coefficients
    over the splitting [ebar, zbar, e, z]."""
    V = ATLAS.base_points(chart)[:, :, None, None]
    zeta = fiber_zetas()
    z = np.empty(np.broadcast(V, zeta).shape + (2,), dtype=complex)
    z[..., chart], z[..., 1 - chart] = zeta, zeta * V
    W, Wx, Wy = (a[chart][:, :, None, None, :] for a in (nm.W, nm.dWx, nm.dWy))
    D = np.empty(z.shape[:-1] + (4, 4))
    for col, h in enumerate(np.eye(4)):
        hc = h[0::2] + 1j * h[1::2]
        dv = (hc[1 - chart] - V * hc[chart]) / zeta
        img = hc[chart] * W + zeta[..., None] * (
            dv.real[..., None] * Wx + dv.imag[..., None] * Wy
        )
        D[..., 0::2, col], D[..., 1::2, col] = img.real, img.imag
    J = np.linalg.solve(D, standard_j_matrix(4) @ D)
    e = frame_vectors(2, chart, z)[..., 0, :]
    cols = np.stack(
        [antihol_rep(np.conj(e)), antihol_rep(np.conj(z)), hol_rep(e), hol_rep(z)], axis=-1
    )
    eta = 0.5 * (np.eye(4) + 1j * J) @ antihol_rep(np.conj(e))[..., None]
    coeff = np.linalg.solve(cols, eta)[..., 0]
    return coeff[..., 2] / coeff[..., 0]


def random_bandlimited(rng, k_max=5, scale=0.03):
    """Random n = 2 tensor with polynomial mode coefficients."""
    entries = []
    for k in range(k_max + 1):
        c0, c1, c2 = (complex(c) for c in rng.normal(size=3) + 1j * rng.normal(size=3))
        vbar = call("conj", V)
        entries.append((k, 1, 1, scale * (c0 + c1 * V + c2 * vbar) / (1 + V * vbar)))
    return tensor_from_mode_functions(ATLAS, (V,), entries, k_max)


def mc_exact_tensor(c=0.2, w_scale=0.15, g_scale=0.1):
    """n = 3 mode-0 tensor solving the structure equation in closed form.

    phi(ebar_1) = c e_1 + g e_2 with g free of the conjugate second
    coordinate, phi(ebar_2) = H(v1 - (c/2) conj(v1)) e_2: the derivative
    term contributes -(c/2) H' e_2 and the quadratic bracket +(c/2) H' e_2,
    so the equation holds exactly while [phi(X), phi(Y)] does not vanish.
    """
    entries = [
        (0, 1, 1, c),
        (0, 2, 1, g_scale * V1 * call("conj", V1)),
        (0, 2, 2, w_scale * (V1 - (c / 2) * call("conj", V1))),
    ]
    return tensor_from_mode_functions(ATLAS3, (V1, V2), entries, 0)


def levi_pairing(v):
    """Matrix M_cb pairing the holomorphic frame against the conjugate
    frame under the reference form, at zeta = 1 on chart 0 of CP^2."""
    z = np.concatenate([np.ones(v.shape[:-1] + (1,), complex), v], axis=-1)
    e = frame_vectors(3, 0, z)
    A = reference_form_matrix(3)
    M = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    for cc in range(2):
        for b in range(2):
            M[..., cc, b] = np.einsum(
                "...i,ij,...j->...",
                hol_rep(e[..., cc, :]), A, antihol_rep(np.conj(e[..., b, :])),
            )
    return M


def tensor_with_bilinear_form(Bfn):
    """n = 3 mode-0 tensor whose associated bilinear form is Bfn(v), from
    node samples: condition (i) needs no derivatives."""
    v = np.stack([V.ravel() for V in ATLAS3.base_points3()], axis=-1)
    # B = phi^T M, so phi solves M^T phi = B
    phi = np.linalg.solve(np.swapaxes(levi_pairing(v), -1, -2), Bfn(v))
    modes = {0: phi.reshape((1,) + (ATLAS3.n_v,) * 4 + (2, 2))}
    return DeformationTensor(n=3, atlas=ATLAS3, k_max=0, modes=modes)


class TestExtraction:
    def test_ball_tensor_vanishes(self, ball_tensor):
        assert np.sum(ball_tensor.mode_norms()) < 1e-8
        assert ball_tensor.diagnostics["disc_leak"] < 1e-8

    def test_circular_domains_have_mode_zero_only(
        self, ellipsoid_tensor, perturbed_tensor
    ):
        # a circular domain is normalized by a fiber-linear map, so every
        # positive fiber mode of its tensor vanishes
        for t in (ellipsoid_tensor, perturbed_tensor):
            norms = t.mode_norms()
            assert np.sum(norms[1:]) < 1e-6, norms

    def test_extraction_diagnostics(self, perturbed_tensor):
        assert perturbed_tensor.diagnostics["disc_leak"] < 1e-6

    def test_matches_four_by_four_route(self, perturbed_nm, perturbed_tensor):
        # the 4 x 4 route solves at every fiber node, so mode 0 matching it
        # everywhere also checks that phi does not depend on zeta
        for chart in ATLAS.charts:
            want = four_by_four_graph(perturbed_nm, chart)
            got = perturbed_tensor.modes[chart][0][:, :, None, None, 0, 0]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_ellipsoid_positive_modes_are_zero(self, ellipsoid_tensor):
        # phi of a fiber-linear map does not depend on zeta, so extraction
        # leaves the positive modes exactly zero
        assert np.sum(ellipsoid_tensor.mode_norms()[1:]) == 0

    @pytest.mark.parametrize("keys, value", [(("dWx", "dWy"), 0.0), (("W",), np.nan)])
    def test_degenerate_node_names_chart_and_node(self, perturbed_nm, keys, value):
        arrays = {key: dict(getattr(perturbed_nm, key)) for key in keys}
        for per_chart in arrays.values():
            per_chart[1] = per_chart[1].copy()
            per_chart[1][3, 5] = value
        with pytest.raises(DeformationError, match=r"chart 1 at node \(3, 5\): \|det A\|"):
            extract(perturbed_nm._replace(**arrays))

    def test_round_trip_through_structure(self):
        rng = np.random.default_rng(3)
        t = random_bandlimited(rng)
        back = extract_from_structure(reconstruct(t), t.k_max)
        for c in t.charts:
            assert np.max(np.abs(back.modes[c] - t.modes[c])) < 1e-8

    def test_five_random_round_trips(self):
        # both compositions: tensor -> J -> tensor and J -> tensor -> J
        rng = np.random.default_rng(11)
        for _ in range(5):
            t = random_bandlimited(rng, k_max=rng.integers(1, 6))
            sf = reconstruct(t)
            t2 = extract_from_structure(sf, t.k_max)
            assert np.max(np.abs(t2.modes[0] - t.modes[0])) < 1e-8
            sf2 = reconstruct(t2)
            assert np.max(np.abs(sf2.J[0] - sf.J[0])) < 1e-8

    def test_degenerate_graph_rejected(self):
        big = tensor_from_mode_functions(ATLAS, (V,), [(0, 1, 1, 1.2)], 0)
        with pytest.raises(DeformationError, match="not transverse"):
            reconstruct(big)


def reference_mode_norms(tensor):
    """Mode norms by the per-node formula: the reference Levi Gram matrices,
    their eigh square roots and a batched SVD of every mode at every node."""
    n, at = tensor.n, tensor.atlas
    A = reference_form_matrix(n)
    out = np.zeros(tensor.k_max + 1)
    for chart in tensor.charts:
        if n == 2:
            v = at.base_points(chart).reshape(-1, 1)
        else:
            v = np.stack([V.ravel() for V in at.base_points3()], axis=-1)
        z = np.insert(v, chart, 1.0, axis=1)
        e = frame_vectors(n, chart, z)
        P = np.einsum("pai,ij,pbj->pab", hol_rep(e), A, antihol_rep(np.conj(e))) / 2j
        Q = np.einsum("pai,ij,pbj->pab", antihol_rep(np.conj(e)), A, hol_rep(e)) / -2j
        roots = []
        for G in (Q, P):
            w, U = np.linalg.eigh(G)
            roots.append((U * np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(U, -1, -2)))
        r = R_FIBER if n == 2 else 1.0
        for k in range(tensor.k_max + 1):
            M = tensor.modes[chart][k].reshape(-1, n - 1, n - 1)
            ops = np.linalg.norm(
                roots[0] @ M @ np.linalg.inv(roots[1]), ord=2, axis=(-2, -1)
            )
            out[k] = max(out[k], float(np.max(ops)) * r**k)
    return out


class TestModeNorms:
    def test_n2_matches_per_node_formula(self):
        t = random_bandlimited(np.random.default_rng(8), k_max=5)
        want = reference_mode_norms(t)
        assert np.max(np.abs(t.mode_norms() - want) / want) < 1e-13

    def test_n3_matches_per_node_formula(self):
        rng = np.random.default_rng(9)
        entries = []
        for k in range(3):
            for a in (1, 2):
                for b in (1, 2):
                    c = [complex(x) for x in 0.05 * (rng.normal(size=3) + 1j * rng.normal(size=3))]
                    entries.append((k, a, b, c[0] + c[1] * V1 + c[2] * call("conj", V2)))
        t = tensor_from_mode_functions(ATLAS3, (V1, V2), entries, 2)
        want = reference_mode_norms(t)
        assert np.max(np.abs(t.mode_norms() - want) / want) < 1e-13

    @pytest.mark.parametrize("name", ["synthetic_129", "ellipsoid_tensor", "perturbed_tensor"])
    def test_n2_norm_is_the_modulus_of_the_mode(self, request, name):
        # at n = 2 both Levi Gram matrices are the scalar |e|^2, so the
        # norm of mode k is max |phi_k| r^k; the Gram route of the n = 3
        # norms (_levi_roots) agrees to roundoff
        t = request.getfixturevalue(name)
        weights = R_FIBER ** np.arange(t.k_max + 1)
        modulus = np.zeros(t.k_max + 1)
        gram = np.zeros(t.k_max + 1)
        for c in t.charts:
            modes = t.modes[c].reshape(t.k_max + 1, -1)
            Qhalf, Pinvh = _levi_roots(t, c)
            modulus = np.maximum(modulus, np.max(np.abs(modes), axis=1) * weights)
            levi = np.abs(Qhalf[:, 0, 0] * modes * Pinvh[:, 0, 0])
            gram = np.maximum(gram, np.max(levi, axis=1) * weights)
        got = t.mode_norms()
        assert np.array_equal(got, modulus)
        assert np.all(np.abs(got - gram) <= 1e-15 * gram)

    @pytest.mark.parametrize("k", [0, 1])
    def test_nan_node_fails_every_verdict_that_reads_its_mode(self, k):
        # one NaN node of mode k reads as a NaN norm, not as norm 0, so
        # the ball verdict fails, and with k > 0 the circularity and the
        # rotation verdicts fail too
        modes = np.zeros((2, ATLAS.n_v, ATLAS.n_v, 1, 1), dtype=complex)
        modes[k, 3, 5] = np.nan
        t = DeformationTensor(n=2, atlas=ATLAS, k_max=1, modes={0: modes, 1: np.zeros_like(modes)})
        norms = t.mode_norms()
        assert np.isnan(norms[k]) and norms[1 - k] == 0.0
        verdicts = classify(t).verdicts
        assert not verdicts["ball"]
        assert verdicts["circular"] == verdicts["rotational_0.7"] == verdicts["rotational_1.9"] == (k == 0)


def series_components(tensor):
    """Component arrays sum_k phi_k zeta^k of a tensor on the fiber grid."""
    powers = fiber_zetas()[..., None] ** np.arange(tensor.k_max + 1)
    return {c: np.einsum("rtk,kxyab->xyrtab", powers, m) for c, m in tensor.modes.items()}


class TestFourierModes:
    def test_bandlimited_exact_recovery(self):
        rng = np.random.default_rng(5)
        t = random_bandlimited(rng, k_max=5)
        out = fourier_modes_from_components(ATLAS, series_components(t), 5)
        assert np.max(np.abs(out.modes[0] - t.modes[0])) < 1e-12

    def test_single_mode_synthetic(self):
        t = tensor_from_mode_functions(ATLAS, (V,), [(2, 1, 1, 0.25)], 5)
        out = fourier_modes_from_components(ATLAS, series_components(t), 5)
        assert abs(np.max(np.abs(out.modes[0][2])) - 0.25) < 1e-12
        for k in (0, 1, 3, 4, 5):
            assert np.max(np.abs(out.modes[0][k])) < 1e-12

    def test_mode_cutoff_needs_enough_angles(self):
        comp = np.zeros((ATLAS.n_v, ATLAS.n_v, 8, 16, 1, 1), dtype=complex)
        with pytest.raises(DeformationError, match="fiber angles"):
            fourier_modes_from_components(ATLAS, {0: comp}, 12)


class TestStructureField:
    def test_zero_tensor_gives_standard_structure(self):
        t = tensor_from_mode_functions(ATLAS, (V,), [], 0)
        sf = reconstruct(t)
        Jo = standard_j_matrix(4)
        assert np.max(np.abs(sf.J[0] - Jo)) < 1e-12

    def test_structure_squares_to_minus_one(self):
        rng = np.random.default_rng(17)
        t = random_bandlimited(rng, k_max=2)
        sf = reconstruct(t)
        J = sf.J[0]
        eye = np.eye(4)
        assert np.max(np.abs(J @ J + eye)) < 1e-10

    def test_reconstruct_is_n2_only(self):
        with pytest.raises(DeformationError, match="n = 2 only, got n = 3"):
            reconstruct(mc_exact_tensor())


class TestConditionSymmetry:
    def test_symmetric_form_passes(self):
        def Bfn(v):
            B = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
            B[..., 0, 0] = 0.05 * (1 + v[..., 0] * np.conj(v[..., 0]))
            B[..., 1, 1] = 0.05
            B[..., 0, 1] = 0.02 * v[..., 0] * v[..., 1]
            B[..., 1, 0] = B[..., 0, 1]
            return B

        t = tensor_with_bilinear_form(Bfn)
        assert np.max(condition_symmetry(t)) < 1e-14

    def test_antisymmetric_part_measured_exactly(self):
        a0 = 0.04

        def Bfn(v):
            B = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
            B[..., 0, 0] = 0.05
            B[..., 1, 1] = 0.05
            B[..., 0, 1] = a0
            B[..., 1, 0] = -a0
            return B

        t = tensor_with_bilinear_form(Bfn)
        [res] = condition_symmetry(t)
        # mode k is checked on the unit fiber, zeta = 1
        expected = 2 * a0
        assert abs(res - expected) < 0.05 * expected

    def test_each_mode_on_its_own(self):
        # phi = 0.2 - 0.4 zeta has a symmetric sum at zeta = 0.5, but (i)
        # holds at every zeta only if it holds for each mode
        t = tensor_from_mode_functions(ATLAS3, (V1, V2), [(0, 1, 1, 0.2), (1, 1, 1, -0.4)], 1)
        res = condition_symmetry(t)
        assert res.shape == (2,) and res[0] > 1e-2
        assert abs(res[1] - 2 * res[0]) <= 1e-14

    def test_n2_is_vacuous(self):
        rng = np.random.default_rng(23)
        t = random_bandlimited(rng, k_max=2)
        assert np.array_equal(condition_symmetry(t), np.zeros(3))


def five_point_bracket(U, W, z, h=1e-3):
    """[U, W] of rep vector fields U, W (numpy functions of ambient points
    (N, n)) by the five-point stencil along each real coordinate: an
    independent reference for the exact brackets."""
    D = {}
    for F in (U, W):
        cols = []
        for d in range(2 * z.shape[-1]):
            step = np.zeros(z.shape[-1], complex)
            step[d // 2] = h if d % 2 == 0 else 1j * h
            near, far = F(z + step) - F(z - step), F(z + 2 * step) - F(z - 2 * step)
            cols.append((8 * near - far) / (12 * h))
        D[F] = np.stack(cols, axis=-1)
    return np.einsum("pid,pd->pi", D[W], U(z)) - np.einsum("pid,pd->pi", D[U], W(z))


class TestMaurerCartan:
    def test_exact_solution_passes(self):
        t = mc_exact_tensor()
        assert np.sum(t.mode_norms()) < 1.0
        mc = maurer_cartan_residual(t, 0, 0.5)
        assert mc["residual"] < 1e-12
        assert mc["antihol_leak"] < 1e-12

    def test_quadratic_term_is_nonzero(self):
        # the same tensor with the bracket term dropped misses the
        # equation by the size of [phi(X), phi(Y)]
        t = mc_exact_tensor()
        mc = maurer_cartan_residual(t, 0, 0.5, bracket_pairs=[])
        assert mc["residual"] > 1e-3

    def test_generic_tensor_fails(self):
        entries = [
            (0, 1, 1, 0.2 * call("conj", V1)),
            (0, 2, 2, 0.2 * call("conj", V2) * V1),
        ]
        t = tensor_from_mode_functions(ATLAS3, (V1, V2), entries, 0)
        mc = maurer_cartan_residual(t, 0, 0.5)
        assert mc["residual"] > 1e-3

    def test_n2_vacuous(self):
        rng = np.random.default_rng(25)
        t = random_bandlimited(rng, k_max=2)
        mc = maurer_cartan_residual(t)
        assert mc["residual"] == 0.0

    def test_brackets_match_central_differences(self):
        # [ebar_1, phi(ebar_2)] and [phi(ebar_1), phi(ebar_2)] of the exact
        # solution from the jets, against the stencil of the same fields
        # built from frame_vectors and the coefficients in numpy
        c, g, w = 0.2, 0.1, 0.15
        t = mc_exact_tensor(c, w, g)
        E, C, _ = _jets(ATLAS3, 0, t.spec, 0, 0.5)
        jet_image = [hol_rep(_times(C[0, 0, a], E[0]) + _times(C[0, 1, a], E[1])) for a in (0, 1)]

        def ebar1(z):
            return antihol_rep(np.conj(frame_vectors(3, 0, z)[:, 0]))

        def image(a):
            def field(z):
                v1 = z[:, 1] / z[:, 0]
                e = frame_vectors(3, 0, z)
                if a == 0:
                    img = c * e[:, 0] + (g * v1 * np.conj(v1))[:, None] * e[:, 1]
                else:
                    img = (w * (v1 - c / 2 * np.conj(v1)))[:, None] * e[:, 1]
                return hol_rep(img)

            return field

        v = np.stack([V.ravel() for V in ATLAS3.base_points3()], axis=-1)
        z = np.concatenate([np.full((len(v), 1), 0.5 + 0j), 0.5 * v], axis=-1)
        X1 = antihol_rep(np.conj(E[0]))
        for got, want in [
            (_bracket(X1, jet_image[1]), five_point_bracket(ebar1, image(1), z)),
            (_bracket(jet_image[0], jet_image[1]), five_point_bracket(image(0), image(1), z)),
        ]:
            assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    def test_node_samples_have_no_structure_equation(self):
        t = tensor_with_bilinear_form(lambda v: np.zeros(v.shape[:-1] + (2, 2), complex))
        with pytest.raises(DeformationError, match="mode expressions"):
            maurer_cartan_residual(t)


class TestModeEquations:
    def test_verified_tensor_per_mode(self):
        t = mc_exact_tensor()
        rep = verify_mode_equations(t, chart=0, zeta=0.5)
        assert all(r < 1e-12 for r in rep["per_mode"]), rep["per_mode"]
        assert rep["consistency"] < 1e-12

    def test_consistency_for_generic_multimode(self):
        # the graded residual fields must reassemble the full-tensor
        # residual even when no mode equation is satisfied
        rng = np.random.default_rng(27)
        c = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        entries = [
            (k, a + 1, b + 1, 0.1 * (complex(c[k, a, b]) + 0.2 * call("conj", (V1, V2)[a])))
            for k in range(2) for a in range(2) for b in range(2)
        ]
        t = tensor_from_mode_functions(ATLAS3, (V1, V2), entries, 1)
        rep = verify_mode_equations(t, chart=0, zeta=0.5)
        assert rep["consistency"] < 1e-12
        assert max(rep["per_mode"]) > 1e-3

    def test_n2_all_zero(self):
        rng = np.random.default_rng(29)
        t = random_bandlimited(rng, k_max=3)
        rep = verify_mode_equations(t)
        assert all(r == 0.0 for r in rep["per_mode"])


def traced_peak(fn, *args):
    """Peak traced allocation of fn(*args) above the memory live before it."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


class TestAllocation:
    """Neither extraction nor a synthetic tensor allocates fiber-grid arrays.
    The peaks measure 0.95 MB and 4.5 MB; one complex (n_v, n_v, n_r,
    n_theta) array, 2.2 MB at N_v = 33 and 34 MB at N_v = 129, breaks each
    bound."""

    def test_extract_on_base_nodes(self):
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        nm = normalize_domain(mink, atlas=ChartAtlas(n=2, n_v=33), n_steps=10)
        assert traced_peak(extract, nm) < 2e6

    def test_tensor_spec_on_base_nodes(self, tmp_path):
        spec = tmp_path / "synth.tns"
        spec.write_text(
            "n = 2\nN_v = 129\nN_r = 8\nN_theta = 16\nk_max = 7\n"
            "mode 0 1 1 = 0.05/(1 + v*conj(v))\nmode 1 1 1 = 0.02*v/(1 + v*conj(v))\n"
            "mode 3 1 1 = 0.01*v**2\nmode 7 1 1 = 0.003*conj(v)\n"
        )
        load_tensor_file(str(spec))  # compile the coefficients outside the trace
        assert traced_peak(load_tensor_file, str(spec)) < 9e6

    def test_n2_norms_build_no_gram_matrices(self, synthetic_129, monkeypatch):
        # the Levi Gram matrices of a new geometry measured 6.5 MB at
        # N_v = 129, and a list of every mode's node norms 1.3 MB; the
        # moduli of one mode at a time measure 0.14 MB
        monkeypatch.setattr(deformation, "_LEVI_ROOTS", {})
        assert traced_peak(synthetic_129.mode_norms) < 1e6

    def test_scaling_test_holds_one_iterate(self, synthetic_129):
        # one complex (129, 129, 1, 1) mode is 0.27 MB and its node norms
        # 0.13 MB: iterated one mode at a time the test measures 0.40 MB
        # beside its input; a second mode buffer (0.67 MB) or the iterate
        # of the whole (8, 129, 129, 1, 1) stack (2.5 MB) breaks the bound
        assert traced_peak(scaling_test, synthetic_129, 0.5) < 0.5e6
        # each row keeps the bits of the norms of the whole tensor
        # evaluated at ([v], 0.5^i zeta), mode j scaled by 0.5^j per step
        report = scaling_test(synthetic_129, 0.5, iters=4)
        factors = (0.5 ** np.arange(8)).reshape(8, 1, 1, 1, 1)
        it = synthetic_129
        for row in report.trace:
            assert np.array_equal(row, it.mode_norms())
            it = it._replace(modes={c: m * factors for c, m in it.modes.items()})
