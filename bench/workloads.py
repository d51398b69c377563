"""Workload inputs of the benchmark: spec files and `maform` argument lists.

Every workload runs at N_r = 8, N_theta = 16.  A workload's inputs are a
pure function of the seed; the program sees only the files written here.
"""

import random

import numpy as np

# The chart box and the outer fiber radius of the default atlas; the
# scale-synthetic check recomputes mode norms on this grid by itself.
CHART_BOX = 1.25
OUTER_FIBER_RADIUS = 0.9

CLASSIFY_EPS = 0.05
MODE_TOL = 1e-5
VERIFY_SAMPLES = 1
VERIFY_SEED = 13

# k, spec-file coefficient, the same coefficient in numpy, amplitude range
SYNTHETIC_MODES = (
    (0, "{a}/(1 + v*conj(v))", lambda v, a: a / (1 + np.abs(v) ** 2), (0.02, 0.08)),
    (1, "{a}*v/(1 + v*conj(v))", lambda v, a: a * v / (1 + np.abs(v) ** 2), (0.01, 0.03)),
    (3, "{a}*v**2", lambda v, a: a * v**2, (0.005, 0.015)),
    (7, "{a}*conj(v)", lambda v, a: a * np.conj(v), (0.001, 0.005)),
)
SYNTHETIC_N_V = 129
SYNTHETIC_K_MAX = 7
SCALE_RATIO = 0.5
SCALE_ITERS = 20

PERTURBED_DOM = f"""\
n = 2
mu.kind = perturbed_ball
eps = {CLASSIFY_EPS}
N_v = 17
N_r = 8
N_theta = 16
"""

ELLIPSOID_DOM = """\
n = 2
mu.kind = ellipsoid
a = 1
b = 4
N_v = 33
N_r = 8
N_theta = 16
"""


def synthetic_amplitudes(seed):
    """Mode amplitudes of the scale-synthetic tensor, four digits each."""
    rng = random.Random(seed)
    return {k: round(rng.uniform(lo, hi), 4) for k, _, _, (lo, hi) in SYNTHETIC_MODES}


def synthetic_tensor_spec(amplitudes):
    lines = [
        "n = 2",
        f"N_v = {SYNTHETIC_N_V}",
        "N_r = 8",
        "N_theta = 16",
        f"k_max = {SYNTHETIC_K_MAX}",
    ]
    for k, text, _, _ in SYNTHETIC_MODES:
        lines.append(f"mode {k} 1 1 = " + text.format(a=amplitudes[k]))
    return "\n".join(lines) + "\n"


def synthetic_mode_values(amplitudes, v):
    """Coefficient c_k(v) of every synthetic mode k at complex points v."""
    return {k: form(v, amplitudes[k]) for k, _, form, _ in SYNTHETIC_MODES}


class Command:
    """One `maform` command of a workload: its input files as a function of
    the seed, and its arguments as a function of the seed and the input
    directory (without --out).  Its outputs are checked by checks.py under
    the command's name."""

    def __init__(self, name, files, argv):
        self.name = name
        self.files = files  # seed -> {file name: text}
        self.argv = argv  # (seed, input dir) -> maform arguments


def _path(directory, name):
    return f"{directory}/{name}"


COMMANDS = {
    c.name: c
    for c in (
        Command(
            "classify-perturbed",
            lambda seed: {"perturbed.dom": PERTURBED_DOM},
            lambda seed, d: [
                "classify", "--domain", _path(d, "perturbed.dom"),
                "--steps", "50", "--mode-tol", str(MODE_TOL), "--seed", str(seed),
            ],
        ),
        Command(
            "invariants-ellipsoid",
            lambda seed: {"ellipsoid.dom": ELLIPSOID_DOM},
            lambda seed, d: [
                "invariants", "--domain", _path(d, "ellipsoid.dom"),
                "--steps", "50", "--seed", str(seed),
            ],
        ),
        Command(
            "verify-perturbed",
            # the kept fault must not depend on the seed: fixed sample seed
            lambda seed: {"perturbed.dom": PERTURBED_DOM},
            lambda seed, d: [
                "verify", "--domain", _path(d, "perturbed.dom"),
                "--samples", str(VERIFY_SAMPLES), "--seed", str(VERIFY_SEED),
            ],
        ),
        Command(
            "scale-synthetic",
            lambda seed: {
                "synthetic.tns": synthetic_tensor_spec(synthetic_amplitudes(seed))
            },
            lambda seed, d: [
                "scale-test", "--tensor", _path(d, "synthetic.tns"),
                "--k", str(SCALE_RATIO), "--iters", str(SCALE_ITERS),
                "--seed", str(seed),
            ],
        ),
    )
}

# A workload is a round of commands, run one after the other; a run repeats
# the round.  The Moser pipeline runs in the first workload only.
WORKLOADS = {
    "moser-pipeline": (COMMANDS["classify-perturbed"], COMMANDS["invariants-ellipsoid"]),
    "identities-tensor": (COMMANDS["verify-perturbed"], COMMANDS["scale-synthetic"]),
}
