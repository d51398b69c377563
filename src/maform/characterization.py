"""Classification suite for deformation tensors.

Circularity and ball verdicts from fiber-mode norms, the rotational
invariance test, and the scaling iteration with per-mode decay-rate fits.
"""

from typing import NamedTuple

import numpy as np

from .deformation import contract, rotate


class CharacterizationError(ValueError):
    """Raised for resonant angles or bad contraction ratios."""


# ---------------------------------------------------------------------------
# mode-norm verdicts


def circularity_defect(tensor):
    """Total operator norm of all positive fiber modes."""
    return float(np.sum(tensor.mode_norms()[1:]))


def is_circular(tensor, tol=1e-5):
    """A tensor with only the fiber-constant mode describes a domain whose
    normal form is reached by a fiber-linear map."""
    return circularity_defect(tensor) < tol


def ball_defect(tensor):
    """Total operator norm of the tensor, mode 0 included."""
    return float(np.sum(tensor.mode_norms()))


def is_ball(tensor, tol=1e-8):
    """The zero tensor leaves the standard structure untouched."""
    return ball_defect(tensor) < tol


# ---------------------------------------------------------------------------
# rotational test


def _resonance_check(theta, k_max, eps=1e-8):
    for k in range(1, k_max + 1):
        if abs(np.exp(1j * k * theta) - 1.0) < eps:
            raise CharacterizationError(
                f"angle {theta} is resonant at mode {k}: the rotation "
                "fixes that mode and the test is uninformative"
            )


def rotational_test(tensor, theta, tol=1e-5):
    """Invariance of the tensor under the fiber rotation by theta.

    Mode k picks up the factor e^{ik theta}, so at a non-resonant angle
    the invariance defect recovers the positive-mode norms exactly; the
    verdict therefore agrees with the circularity verdict, and that
    agreement is checked rather than assumed: a disagreement, as when the
    mode norms overflow, raises CharacterizationError.
    """
    if tensor.k_max >= 1:
        _resonance_check(theta, tensor.k_max)
    rotated = rotate(tensor, theta)
    diff = rotated._replace(modes={c: rotated.modes[c] - tensor.modes[c] for c in tensor.charts})
    moved = diff.mode_norms()
    defect = 0.0
    for k in range(1, tensor.k_max + 1):
        # the raw motion is |1 - e^{ik theta}| times the mode size; divide
        # the factor back out so the defect is angle independent
        defect += moved[k] / abs(np.exp(1j * k * theta) - 1.0)
    verdict = defect < tol
    if verdict != is_circular(tensor, tol):
        raise CharacterizationError(
            f"rotation defect {defect:.3e} at angle {theta} and circularity defect "
            f"{circularity_defect(tensor):.3e} give different verdicts"
        )
    return verdict


# ---------------------------------------------------------------------------
# scaling test


class ClassificationReport(NamedTuple):
    """Flat verdict block plus per-mode and per-iteration tables."""

    verdicts: dict
    values: dict
    tolerances: dict
    mode_norms: np.ndarray = None
    trace: list = ()
    slopes: np.ndarray = None
    expected_slopes: np.ndarray = None

    def lines(self):
        out = []
        for key in sorted(self.verdicts):
            out.append(f"{key}: {'pass' if self.verdicts[key] else 'fail'}")
        for key in sorted(self.values):
            out.append(f"{key}: {self.values[key]:.12e}")
        for key in sorted(self.tolerances):
            out.append(f"tol_{key}: {self.tolerances[key]:.3e}")
        if self.mode_norms is not None:
            out.append("# mode  norm")
            for k, v in enumerate(self.mode_norms):
                out.append(f"{k:4d}  {v:.12e}")
        if self.trace:
            k_max = len(self.trace[0]) - 1
            header = "# iter " + " ".join(f"mode{k}" for k in range(k_max + 1))
            out.append(header)
            for i, row in enumerate(self.trace):
                out.append(
                    f"{i:6d} " + " ".join(f"{v:.12e}" for v in row)
                )
        if self.slopes is not None:
            out.append("# mode  slope  expected")
            for j, (s, e) in enumerate(zip(self.slopes, self.expected_slopes)):
                out.append(f"{j:4d}  {s:.12e}  {e:.12e}")
        return out


def scaling_test(tensor, k, iters=20, slope_tol=1e-6):
    """Iterate the fiber contraction and fit the per-mode decay rates.

    Mode j decays by the factor k^j per iteration; a log-linear fit of the
    recorded norms recovers the slope j*log k, and the fiber-constant mode
    is a fixed point, so the iteration limit is the mode-0 tensor.
    """
    if not (0 < k < 1):
        raise CharacterizationError("contraction ratio must lie in (0, 1)")
    base = tensor.mode_norms()
    trace = [base]
    it = tensor
    for i in range(iters):
        # the first contraction makes the iterate, the others overwrite it
        it = contract(it, k, out=it if i else None)
        trace.append(it.mode_norms())
    arr = np.stack(trace)  # (iters+1, k_max+1)
    slopes = np.zeros(tensor.k_max + 1)
    expected = np.arange(tensor.k_max + 1) * np.log(k)
    idx = np.arange(iters + 1)
    for j in range(tensor.k_max + 1):
        # an empty mode's decay rate is unobservable
        slopes[j] = np.polyfit(idx, np.log(arr[:, j]), 1)[0] if base[j] > 0 else expected[j]
    slope_err = float(np.max(np.abs(slopes - expected)))
    mode0_drift = max(
        float(np.max(np.abs(it.modes[c][0] - tensor.modes[c][0])))
        for c in tensor.charts
    )
    tail = float(np.sum(arr[-1, 1:]))
    return ClassificationReport(
        verdicts={
            "scaling_rates": slope_err < slope_tol,
            "scaling_limit_is_mode0": mode0_drift == 0.0 and tail < 1e-6,
        },
        values={
            "slope_error": slope_err,
            "mode0_drift": mode0_drift,
            "limit_tail_norm": tail,
            "ratio": float(k),
        },
        trace=[row for row in arr],
        slopes=slopes,
        expected_slopes=expected,
        tolerances={"slope": slope_tol},
    )


def classify(tensor, tol_circular=1e-5, tol_ball=1e-8, angles=(0.7, 1.9)):
    """Full verdict report: circularity, ball, and rotational agreement."""
    norms = tensor.mode_norms()
    report = ClassificationReport(
        verdicts={
            "circular": is_circular(tensor, tol_circular),
            "ball": is_ball(tensor, tol_ball),
        },
        values={
            "circularity_defect": circularity_defect(tensor),
            "ball_defect": ball_defect(tensor),
        },
        mode_norms=norms,
        tolerances={"circular": tol_circular, "ball": tol_ball},
    )
    for theta in angles:
        report.verdicts[f"rotational_{theta:g}"] = rotational_test(
            tensor, theta, tol_circular
        )
    return report
