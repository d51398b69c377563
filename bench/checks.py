"""Correctness checks on the outputs of one `maform` invocation.

Each check compares a report with an independent computation or with a
property the method must have, never with a stored copy of an earlier
output.  A check returns a list of error strings; an empty list passes.
"""

import math
import os

import numpy as np
from maform.gridforms import load_records

import workloads as wl

# The identity that fails on every valid domain today: finite-difference
# roundoff in foliation._lie_derivative_flow, not the geometry.
KNOWN_FAULT = "flow_invariance"
SOUND_IDENTITIES = ("log_potential", "power_rule", "top_degeneracy", "contraction")
TANH_TOL = 1e-8
BALL_TOL = 1e-8
NORM_RTOL = 1e-12
# trace rows are compared printed value against printed value, each
# rounded to 13 significant digits
ROW_RTOL = 1e-11


class Report:
    """The body of a maform report after the spec echo: `key: value`
    entries and the rows of each `# header` table."""

    def __init__(self, text):
        head, sep, body = text.partition("# spec-echo-end\n")
        if not sep:
            raise ValueError("report has no spec echo")
        self.entries = {}
        self.tables = {}
        rows = None
        for line in body.splitlines():
            if line.startswith("#"):
                rows = self.tables.setdefault(" ".join(line[1:].split()), [])
            elif ": " in line:
                key, _, val = line.partition(": ")
                self.entries[key.strip()] = val.strip()
                rows = None
            elif rows is not None and line.strip():
                rows.append(line.split())

    def numbers(self, table):
        return [[float(x) for x in row] for row in self.tables.get(table, [])]


def _mode_norms(report, errors, expect):
    rows = report.numbers("mode norm")
    if [int(r[0]) for r in rows] != list(range(expect)):
        errors.append(f"mode table has rows {[r[0] for r in rows]}, want 0..{expect - 1}")
        return None
    return [r[1] for r in rows]


def _verdicts(report, want, errors):
    for key, verdict in want.items():
        got = report.entries.get(key)
        if got != verdict:
            errors.append(f"verdict {key} is {got}, want {verdict}")


def check_classify(text, eps, mode_tol, k_max=7):
    """Perturbed ball: circular and rotation-invariant but not the ball;
    the positive modes vanish and the mode-0 norm is tanh(eps)."""
    errors = []
    report = Report(text)
    _verdicts(
        report,
        {"circular": "pass", "rotational_0.7": "pass", "rotational_1.9": "pass",
         "ball": "fail"},
        errors,
    )
    norms = _mode_norms(report, errors, k_max + 1)
    if norms is not None:
        total = sum(norms[1:])
        if not total < mode_tol:
            errors.append(f"positive-mode total {total:.3e} >= mode_tol {mode_tol:.1e}")
        gap = abs(norms[0] - math.tanh(eps))
        if not gap <= TANH_TOL:
            errors.append(f"mode-0 norm off tanh(eps) by {gap:.3e}")
    return errors


def check_invariants(text, dump_path, n_v, k_max=7):
    """Ellipsoid: a linear image of the ball, so every mode norm is below
    the ball tolerance; the dump reads back as 2 charts x (k_max+1)."""
    errors = []
    norms = _mode_norms(Report(text), errors, k_max + 1)
    if norms is not None:
        for k, v in enumerate(norms):
            if not v < BALL_TOL:
                errors.append(f"mode {k} norm {v:.3e} >= ball tolerance {BALL_TOL:.0e}")
    records = load_records(dump_path)
    charts = [c for c, _ in records]
    if charts != [0] * (k_max + 1) + [1] * (k_max + 1):
        errors.append(f"dump holds charts {charts}, want 2 x {k_max + 1} records")
    for c, arr in records:
        if arr.shape[:2] != (n_v, n_v) or not np.all(np.isfinite(arr)):
            errors.append(f"dump record of chart {c} has shape {arr.shape} or non-finite values")
            break
    return errors


def check_verify(text, returncode):
    """Identity suite on the perturbed ball.

    Returns (errors, failed): the four sound identities must pass; the
    known fault makes the operation fail, which is counted, not an error.
    """
    errors = []
    report = Report(text)
    rows = {r[0]: r[1:] for r in report.tables.get("identity residual tolerance verdict", [])}
    for name in SOUND_IDENTITIES + (KNOWN_FAULT,):
        if name not in rows:
            errors.append(f"identity {name} missing from the report")
            continue
        residual, tol, verdict = rows[name]
        if (float(residual) < float(tol)) != (verdict == "pass"):
            errors.append(f"identity {name}: verdict {verdict} disagrees with {residual} vs {tol}")
        if name in SOUND_IDENTITIES and verdict != "pass":
            errors.append(f"identity {name} fails: residual {residual}, tolerance {tol}")
    all_pass = all(r[-1] == "pass" for r in rows.values())
    if report.entries.get("all_pass") != ("pass" if all_pass else "fail"):
        errors.append(f"all_pass line {report.entries.get('all_pass')} disagrees with the rows")
    if returncode != (0 if all_pass else 1):
        errors.append(f"exit code {returncode} disagrees with all_pass")
    failed = rows.get(KNOWN_FAULT, ["", "", ""])[-1] == "fail"
    return errors, failed


def expected_scale_row0(amplitudes):
    """Mode-k norm of the synthetic tensor: r^k max over chart-0 nodes of
    |c_k(v)|, with r the outer fiber radius."""
    xs = np.linspace(-wl.CHART_BOX, wl.CHART_BOX, wl.SYNTHETIC_N_V)
    v = xs[:, None] + 1j * xs[None, :]
    out = [0.0] * (wl.SYNTHETIC_K_MAX + 1)
    for k, c in wl.synthetic_mode_values(amplitudes, v).items():
        out[k] = wl.OUTER_FIBER_RADIUS**k * float(np.max(np.abs(c)))
    return out


def _close(got, want, rtol):
    return got == want if want == 0 else abs(got - want) <= rtol * abs(want)


def check_scale(text, amplitudes, ratio, iters):
    """Scale test: row 0 matches the spec's coefficients on the grid and
    row i is row 0 with mode j scaled by ratio^(i*j)."""
    errors = []
    report = Report(text)
    _verdicts(report, {"scaling_rates": "pass", "scaling_limit_is_mode0": "pass"}, errors)
    header = "iter " + " ".join(f"mode{j}" for j in range(wl.SYNTHETIC_K_MAX + 1))
    rows = report.numbers(header)
    if [int(r[0]) for r in rows] != list(range(iters + 1)):
        return errors + [f"trace has {len(rows)} rows, want {iters + 1}"]
    row0 = rows[0][1:]
    for j, (got, want) in enumerate(zip(row0, expected_scale_row0(amplitudes))):
        if not _close(got, want, NORM_RTOL):
            errors.append(f"iteration 0 mode {j}: {got!r}, want {want!r}")
    for i, row in enumerate(rows[1:], start=1):
        for j, got in enumerate(row[1:]):
            want = row0[j] * ratio ** (i * j)
            if not _close(got, want, ROW_RTOL):
                errors.append(f"iteration {i} mode {j}: {got!r}, want {want!r}")
    return errors


def _read(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return fh.read()


def check_outputs(command, seed, out_dir, returncode):
    """Check one invocation of a command; returns (errors, failed)."""
    if command == "verify-perturbed":
        return check_verify(_read(out_dir, "verify_report.txt"), returncode)
    if returncode != 0:
        return [f"exit code {returncode}"], False
    if command == "classify-perturbed":
        return check_classify(_read(out_dir, "classify_report.txt"), wl.CLASSIFY_EPS, wl.MODE_TOL), False
    if command == "invariants-ellipsoid":
        return check_invariants(
            _read(out_dir, "invariants_report.txt"),
            os.path.join(out_dir, "tensor_modes.dat"),
            n_v=33,
        ), False
    if command == "scale-synthetic":
        return check_scale(
            _read(out_dir, "scale_report.txt"),
            wl.synthetic_amplitudes(seed), wl.SCALE_RATIO, wl.SCALE_ITERS,
        ), False
    raise KeyError(command)
