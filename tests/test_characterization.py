"""Verdict suite: circularity, ball, rotation, scaling."""

import time

import numpy as np
import pytest

from maform.atlas import R_FIBER, ChartAtlas
from maform.characterization import CharacterizationError, classify, scaling_test
from maform.deformation import DeformationTensor, extract, tensor_from_mode_functions
from maform.domains import make_circular_domain
from maform.moser import normalize_domain
from maform.symforms import call, sym

ATLAS = ChartAtlas(n=2, n_v=17)
V = sym("v")


def random_tensor(rng, k_max=4, circular=False, scale=0.05):
    entries = []
    for k in range(k_max + 1):
        if circular and k >= 1:
            continue
        c0, c1 = (complex(c) for c in rng.normal(size=2) + 1j * rng.normal(size=2))
        entries.append((k, 1, 1, scale * (c0 + c1 * V) / (1 + V * call("conj", V))))
    return tensor_from_mode_functions(ATLAS, (V,), entries, k_max)


def rotation_defect(tensor, theta):
    """Invariance defect of the tensor under the fiber rotation by theta,
    from the modes rotated in numpy: mode k picks up e^{ik theta}, and
    the norm of its motion is divided by |e^{ik theta} - 1|."""
    phases = np.exp(1j * np.arange(tensor.k_max + 1) * theta)
    moved = tensor._replace(modes={
        c: m * phases.reshape((-1,) + (1,) * (m.ndim - 1)) - m for c, m in tensor.modes.items()
    }).mode_norms()
    return sum(moved[k] / abs(phases[k] - 1.0) for k in range(1, tensor.k_max + 1))


@pytest.fixture(scope="module")
def ball_tensor():
    mink, _ = make_circular_domain({"kind": "ball"})
    return extract(normalize_domain(mink, atlas=ATLAS, n_steps=50))


@pytest.fixture(scope="module")
def ellipsoid_tensor():
    mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
    return extract(normalize_domain(mink, atlas=ATLAS, n_steps=100))


@pytest.fixture(scope="module")
def perturbed_tensor():
    mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
    return extract(normalize_domain(mink, atlas=ATLAS, n_steps=100))


class TestVerdicts:
    def test_ball_is_circular_and_ball(self, ball_tensor):
        verdicts = classify(ball_tensor).verdicts
        assert verdicts["circular"]
        assert verdicts["ball"]

    def test_ellipsoid_reduces_to_the_ball(self, ellipsoid_tensor):
        # the diagonal ellipsoid is linearly equivalent to the ball
        # (rescale the second axis), so its whole tensor vanishes
        verdicts = classify(ellipsoid_tensor).verdicts
        assert verdicts["circular"]
        assert verdicts["ball"]

    def test_perturbed_ball_is_circular_not_ball(self, perturbed_tensor):
        # circular by construction, but the indicatrix is not an ellipsoid,
        # so no linear map reaches the ball: the fiber-constant mode stays
        rep = classify(perturbed_tensor)
        assert rep.verdicts["circular"]
        assert not rep.verdicts["ball"]
        assert rep.values["ball_defect"] > 1e-2

    def test_positive_mode_blocks_circularity(self):
        t = tensor_from_mode_functions(ATLAS, (V,), [(1, 1, 1, 0.1)], 1)
        rep = classify(t)
        assert not rep.verdicts["circular"]
        assert abs(rep.values["circularity_defect"] - 0.1 * R_FIBER) < 1e-12

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            t = random_tensor(rng, circular=bool(rng.integers(2)))
            for loose, tight in ((1e-3, 1e-6), (1e-1, 1e-2)):
                strict = classify(t, tol_circular=tight, tol_ball=tight).verdicts
                lenient = classify(t, tol_circular=loose, tol_ball=loose).verdicts
                if strict["circular"]:
                    assert lenient["circular"]
                if strict["ball"]:
                    assert lenient["ball"]


class TestRotation:
    def test_verdict_matches_circularity(self):
        # twenty random tensors, five non-resonant angles: the invariance
        # defect of the rotated modes recovers the positive-mode norms, so
        # each rotational verdict is the circular one
        rng = np.random.default_rng(33)
        angles = (0.7, 1.1, 1.9, 2.5, 3.3)
        for i in range(20):
            t = random_tensor(rng, k_max=4, circular=(i % 2 == 0))
            rep = classify(t, angles=angles)
            defect = rep.values["circularity_defect"]
            for theta in angles:
                assert abs(rotation_defect(t, theta) - defect) <= 1e-12 * defect
                assert rep.verdicts[f"rotational_{theta:g}"] == rep.verdicts["circular"]

    def test_mode_zero_tensor_is_invariant(self):
        rng = np.random.default_rng(35)
        t = random_tensor(rng, circular=True)
        assert classify(t, angles=(1.234,)).verdicts["rotational_1.234"]

    def test_resonant_angle_rejected(self):
        t = tensor_from_mode_functions(ATLAS, (V,), [(2, 1, 1, 0.1)], 2)
        with pytest.raises(CharacterizationError, match="resonant at mode 2"):
            classify(t, angles=(np.pi,))


class TestScaling:
    def test_decay_rates_and_limit(self):
        rng = np.random.default_rng(37)
        t = random_tensor(rng, k_max=3)
        start = time.time()
        rep = scaling_test(t, 0.5, iters=20)
        elapsed = time.time() - start
        assert rep.values["slope_error"] < 1e-6
        assert rep.values["mode0_drift"] == 0.0
        assert rep.verdicts["scaling_rates"]
        assert rep.verdicts["scaling_limit_is_mode0"]
        assert elapsed < 5.0

    def test_per_mode_geometric_decay(self):
        rng = np.random.default_rng(39)
        t = random_tensor(rng, k_max=3)
        rep = scaling_test(t, 0.5, iters=10)
        arr = np.stack(rep.trace)
        for j in (1, 2, 3):
            ratio = arr[1:, j] / arr[:-1, j]
            assert np.max(np.abs(ratio - 0.5**j)) < 1e-12

    def test_constant_trace_for_mode_zero(self):
        rng = np.random.default_rng(41)
        t = random_tensor(rng, circular=True)
        rep = scaling_test(t, 0.3, iters=5)
        arr = np.stack(rep.trace)
        assert np.max(np.abs(arr[:, 0] - arr[0, 0])) == 0.0

    def test_slopes_are_the_least_squares_lines(self):
        # the closed-form slope of each mode is the line np.polyfit fits
        # through the logarithms of its trace
        t = random_tensor(np.random.default_rng(49))
        rep = scaling_test(t, 0.6, iters=20)
        logs = np.log(np.stack(rep.trace))
        for j, slope in enumerate(rep.slopes):
            assert abs(slope - np.polyfit(np.arange(len(logs)), logs[:, j], 1)[0]) <= 1e-14

    def test_ratio_domain(self):
        rng = np.random.default_rng(43)
        t = random_tensor(rng)
        with pytest.raises(CharacterizationError, match="ratio"):
            scaling_test(t, 1.2)


class TestClassifyReport:
    def test_report_layout_and_determinism(self):
        rng = np.random.default_rng(45)
        t = random_tensor(rng, k_max=3)
        rep = classify(t)
        text = "\n".join(rep.lines())
        assert "circular:" in text
        assert "# mode  norm" in text
        assert "\n".join(classify(t).lines()) == text

    def test_verdict_consistency(self, perturbed_tensor):
        rep = classify(perturbed_tensor)
        assert rep.verdicts["circular"]
        assert not rep.verdicts["ball"]
        for key, val in rep.verdicts.items():
            if key.startswith("rotational"):
                assert val == rep.verdicts["circular"]

    def test_one_mode_norms_call(self, monkeypatch):
        # every verdict and value reads the one norm vector
        calls = []
        norms = DeformationTensor.mode_norms

        def counted(tensor):
            calls.append(tensor)
            return norms(tensor)

        monkeypatch.setattr(DeformationTensor, "mode_norms", counted)
        t = random_tensor(np.random.default_rng(47), k_max=3)
        rep = classify(t)
        assert len(calls) == 1
        assert sorted(rep.verdicts) == ["ball", "circular", "rotational_0.7", "rotational_1.9"]
