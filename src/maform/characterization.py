"""Classification suite for deformation tensors.

Every verdict of classify reads one vector of fiber-mode norms n_k
(DeformationTensor.mode_norms): circularity, the ball, and rotational
invariance, which at a non-resonant angle is the circularity verdict
again.  The scaling test iterates the fiber contraction and fits the
per-mode decay rates.
"""

from typing import NamedTuple

import numpy as np


class CharacterizationError(ValueError):
    """Raised for resonant angles or bad contraction ratios."""


def _resonance_check(theta, k_max, eps=1e-8):
    for k in range(1, k_max + 1):
        if abs(np.exp(1j * k * theta) - 1.0) < eps:
            raise CharacterizationError(
                f"angle {theta} is resonant at mode {k}: the rotation "
                "fixes that mode and the test is uninformative"
            )


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

    The contraction evaluates the tensor at ([v], k zeta), so mode j
    decays by the factor k^j per iteration; a log-linear fit of the
    recorded norms recovers the slope j*log k, and the fiber-constant mode
    is a fixed point, so the iteration limit is the mode-0 tensor.  Modes
    do not mix, so each is iterated alone: one buffer per chart holds a
    copy of mode j, scaled in place, and its norm
    (DeformationTensor.mode_norm) is recorded.
    """
    if not (0 < k < 1):
        raise CharacterizationError("contraction ratio must lie in (0, 1)")
    factors = np.asarray(k, dtype=float) ** np.arange(tensor.k_max + 1)
    arr = np.empty((iters + 1, tensor.k_max + 1))
    its = {c: np.empty_like(m[0]) for c, m in tensor.modes.items()}
    for j, factor in enumerate(factors):
        for c, it in its.items():
            np.copyto(it, tensor.modes[c][j])
        arr[0, j] = tensor.mode_norm(j, its)
        for i in range(1, iters + 1):
            for it in its.values():
                it *= factor
            arr[i, j] = tensor.mode_norm(j, its)
        if j == 0:  # the last read of mode 0: the difference overwrites it
            mode0_drift = max(
                float(np.max(np.abs(np.subtract(it, tensor.modes[c][0], out=it))))
                for c, it in its.items()
            )
    base = arr[0]
    slopes = np.zeros(tensor.k_max + 1)
    expected = np.arange(tensor.k_max + 1) * np.log(k)
    # the least-squares line through (i, log n_j(i)) in closed form: the
    # slope is sum (i - mean i)(y_i - mean y) / sum (i - mean i)^2
    centered = np.arange(iters + 1) - iters / 2
    for j in range(tensor.k_max + 1):
        # an empty mode's decay rate is unobservable
        if base[j] > 0:
            logs = np.log(arr[:, j])
            slopes[j] = np.sum(centered * (logs - np.mean(logs))) / np.sum(centered * centered)
        else:
            slopes[j] = expected[j]
    slope_err = float(np.max(np.abs(slopes - expected)))
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
    """Full verdict report from the mode norms n_k, computed once.

    circular: the positive modes, whose total sum_{k>=1} n_k is the
    circularity defect, are below tol_circular; a tensor with only the
    fiber-constant mode describes a domain normalized by a fiber-linear
    map.  ball: the total sum_k n_k, the ball defect, is below tol_ball;
    the zero tensor leaves the standard structure untouched.

    rotational_theta: the fiber rotation by theta moves mode k by
    (e^{ik theta} - 1) phi_k, so with the factor |e^{ik theta} - 1|
    divided back out the invariance defect is sum_{k>=1} n_k, the
    circularity defect itself; each row is the circular verdict, once
    its angle passes the resonance check.
    """
    norms = tensor.mode_norms()
    defect, total = float(np.sum(norms[1:])), float(np.sum(norms))
    circular = defect < tol_circular
    verdicts = {"circular": circular, "ball": total < tol_ball}
    for theta in angles:
        _resonance_check(theta, tensor.k_max)
        verdicts[f"rotational_{theta:g}"] = circular
    return ClassificationReport(
        verdicts=verdicts,
        values={"circularity_defect": defect, "ball_defect": total},
        mode_norms=norms,
        tolerances={"circular": tol_circular, "ball": tol_ball},
    )
