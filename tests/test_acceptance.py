"""End-to-end acceptance checks, one pass/fail line per criterion."""

import time

import numpy as np
import pytest

from maform.atlas import ChartAtlas
from maform.characterization import classify, scaling_test
from maform.cli import main as cli_main
from maform.deformation import (
    DeformationTensor,
    extract,
    frame_vectors,
    hol_rep,
    antihol_rep,
    tensor_from_mode_functions,
)
from maform.domains import make_circular_domain
from maform.foliation import verify_ma_identities
from maform.integrability import condition_symmetry, mode_residuals
from maform.moser import FS_AREA, curvature, moser_flow, normalize_domain
from maform.symforms import call, sym, symbols
from structure_reference import extract_from_structure, reconstruct, reference_form_matrix
from test_characterization import rotation_defect
from test_moser import forward, mu

ATLAS = ChartAtlas(n=2, n_v=17)
ATLAS3 = ChartAtlas(n=3, n_v=7, box=1.0)
V = sym("v")
V1, V2 = symbols("v1 v2")


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def ball_nm():
    mink, _ = make_circular_domain({"kind": "ball"})
    return mink, normalize_domain(mink, atlas=ATLAS, n_steps=50)


@pytest.fixture(scope="module")
def ellipsoid_nm():
    mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    return mink, normalize_domain(mink, atlas=ATLAS, n_steps=100)


@pytest.fixture(scope="module")
def perturbed_nm():
    mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
    return mink, normalize_domain(mink, atlas=ATLAS, n_steps=100)


def random_bandlimited(rng, k_max=5, scale=0.03):
    entries = []
    for k in range(k_max + 1):
        c0, c1, c2 = (complex(c) for c in rng.normal(size=3) + 1j * rng.normal(size=3))
        vbar = call("conj", V)
        entries.append((k, 1, 1, scale * (c0 + c1 * V + c2 * vbar) / (1 + V * vbar)))
    return tensor_from_mode_functions(ATLAS, (V,), entries, k_max)


def levi_pairing(v):
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
    # node samples: condition (i) needs no derivatives
    v = ATLAS3.points(0)
    phi = np.linalg.solve(np.swapaxes(levi_pairing(v), -1, -2), Bfn(v))
    modes = {0: phi.reshape((1,) + (ATLAS3.n_v,) * 4 + (2, 2))}
    return DeformationTensor(n=3, atlas=ATLAS3, k_max=0, modes=modes)


def test_c01_ball_identity_suite():
    start = time.time()
    _, exh = make_circular_domain({"kind": "ball"})
    rep = verify_ma_identities(exh, n_samples=64)
    elapsed = time.time() - start
    worst = max(
        rep[k] for k in ("log_potential", "power_rule", "top_degeneracy",
                         "contraction", "flow_invariance")
    )
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_c02_ellipsoid_degeneracy_and_convergence():
    # the exact (symbolic) path only: the package has no gridded form
    # calculus whose convergence could be checked
    start = time.time()
    _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    analytic = verify_ma_identities(exh)["top_degeneracy"]
    elapsed = time.time() - start
    report(2, analytic < 1e-8 and elapsed < 60.0,
           f"analytic {analytic:.2e}, {elapsed:.1f}s")


def test_c03_curvature_cohomology_class():
    worst = 0.0
    for spec in ({"kind": "ball"},
                 {"kind": "ellipsoid", "a": 1, "b": 4},
                 {"kind": "perturbed_ball", "eps": 0.05}):
        mink, _ = make_circular_domain(spec)
        conn = curvature(mink, ATLAS)
        worst = max(worst, abs(conn.integral - FS_AREA))
    report(3, worst < 1e-6, f"max area mismatch {worst:.2e}")


def test_c04_flow_endpoint():
    mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    fine = moser_flow(
        curvature(mink, ChartAtlas(n=2, n_v=64)), n_steps=200
    ).endpoint_residual
    coarse = moser_flow(
        curvature(mink, ChartAtlas(n=2, n_v=33)), n_steps=100
    ).endpoint_residual
    report(4, fine < 1e-6 and fine < coarse,
           f"residual {fine:.2e} (coarse {coarse:.2e})")


def test_c05_map_contract(ellipsoid_nm, perturbed_nm):
    ball, _ = make_circular_domain({"kind": "ball"})
    rng = np.random.default_rng(17)
    z = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    z *= rng.uniform(0.2, 0.6, size=200)[:, None] / np.linalg.norm(
        z, axis=1
    )[:, None]
    gauge = nu = 0.0
    for mink, nm in (ellipsoid_nm, perturbed_nm):
        gauge = max(gauge, float(np.max(np.abs(mu(mink, forward(nm, z)) - mu(ball, z)))))
        nu = max(nu, nm.residuals["connection_mismatch"])
    report(5, gauge < 1e-7 and nu < 1e-6,
           f"gauge {gauge:.2e}, connection mismatch {nu:.2e}")


def test_c06_circular_mode_collapse(ball_nm, ellipsoid_nm, perturbed_nm):
    tail = 0.0
    for _, nm in (ellipsoid_nm, perturbed_nm):
        tail = max(tail, float(np.sum(extract(nm).mode_norms()[1:])))
    ball_zero = extract(ball_nm[1]).mode_norms()[0]
    report(6, tail < 1e-5 and ball_zero < 1e-8,
           f"positive-mode tail {tail:.2e}, ball mode 0 {ball_zero:.2e}")


def test_c07_round_trips():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        t = random_bandlimited(rng, k_max=int(rng.integers(1, 6)))
        sf = reconstruct(t)
        t2 = extract_from_structure(sf, t.k_max)
        worst = max(worst, float(np.max(np.abs(t2.modes[0] - t.modes[0]))))
        sf2 = reconstruct(t2)
        worst = max(worst, float(np.max(np.abs(sf2.J[0] - sf.J[0]))))
    report(7, worst < 1e-8, f"max round-trip defect {worst:.2e}")


def test_c08_bilinear_symmetry_and_mode_equations():
    def sym(v):
        B = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
        B[..., 0, 0] = 0.05 * (1 + v[..., 0] * np.conj(v[..., 0]))
        B[..., 1, 1] = 0.05
        B[..., 0, 1] = 0.02 * v[..., 0] * v[..., 1]
        B[..., 1, 0] = B[..., 0, 1]
        return B

    sym_res = np.max(condition_symmetry(tensor_with_bilinear_form(sym)))

    a0 = 0.04

    def antisym(v):
        B = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
        B[..., 0, 0] = 0.05
        B[..., 1, 1] = 0.05
        B[..., 0, 1] = a0
        B[..., 1, 0] = -a0
        return B

    [anti_res] = condition_symmetry(tensor_with_bilinear_form(antisym))
    expected = 2 * a0
    anti_ok = abs(anti_res - expected) < 0.05 * expected

    c = 0.2
    entries = [
        (0, 1, 1, c),
        (0, 2, 1, 0.1 * V1 * call("conj", V1)),
        (0, 2, 2, 0.15 * (V1 - (c / 2) * call("conj", V1))),
    ]
    t = tensor_from_mode_functions(ATLAS3, (V1, V2), entries, 0)
    per_mode = mode_residuals(t)
    report(8, sym_res < 1e-14 and anti_ok and max(per_mode) <= 1e-12,
           f"symmetric {sym_res:.2e}, antisymmetric {anti_res:.4f} "
           f"vs {expected:.4f}, structure equation {max(per_mode):.2e}")


def test_c09_rotation_verdicts():
    rng = np.random.default_rng(33)
    checked = 0
    for i in range(20):
        entries = []
        for k in range(5):
            if i % 2 == 0 and k >= 1:
                continue
            c0, c1 = (complex(c) for c in rng.normal(size=2) + 1j * rng.normal(size=2))
            entries.append((k, 1, 1, 0.05 * (c0 + c1 * V) / (1 + V * call("conj", V))))
        t = tensor_from_mode_functions(ATLAS, (V,), entries, 4)
        angles = (0.7, 1.1, 1.9, 2.5, 3.3)
        rep = classify(t, angles=angles)
        defect = rep.values["circularity_defect"]
        for theta in angles:
            assert abs(rotation_defect(t, theta) - defect) <= 1e-12 * defect
            assert rep.verdicts[f"rotational_{theta:g}"] == rep.verdicts["circular"]
            checked += 1
    report(9, checked == 100, f"{checked} rotation defects equal to the circularity defect")


def test_c10_contraction_decay():
    rng = np.random.default_rng(37)
    t = random_bandlimited(rng, k_max=3)
    start = time.time()
    rep = scaling_test(t, 0.5, iters=20)
    elapsed = time.time() - start
    ok = (
        rep.values["slope_error"] < 1e-6
        and rep.verdicts["scaling_limit_is_mode0"]
        and elapsed < 5.0
    )
    report(10, ok, f"slope error {rep.values['slope_error']:.2e}, "
                   f"{elapsed:.2f}s")


def test_c11_cli_determinism(tmp_path):
    dom = tmp_path / "ball.dom"
    dom.write_text("n = 2\nmu.kind = ball\nN_v = 9\n")
    tns = tmp_path / "synth.tns"
    tns.write_text(
        "n = 2\nN_v = 17\nk_max = 2\n"
        "mode 0 1 1 = 0.05/(1 + v*conj(v))\nmode 2 1 1 = 0.01*v\n"
    )
    outputs = {"verify_report.txt": [], "classify_report.txt": []}
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(
            ["verify", "--domain", str(dom), "--out", str(out)]
        ) == 0
        assert cli_main(
            ["classify", "--tensor", str(tns), "--out", str(out)]
        ) == 0
        for name in outputs:
            outputs[name].append((out / name).read_bytes())
    same = all(pair[0] == pair[1] for pair in outputs.values())
    report(11, same, "byte-identical reports across repeated runs")
