"""The benchmark's output checks accept today's reports (fixtures/) and
reject doctored ones.  No pipeline runs here."""

import math
from pathlib import Path

import numpy as np
from maform.gridforms import dump_records

import checks
import workloads as wl

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture(name):
    return (FIXTURES / name).read_text()


def doctor(text, old, new):
    assert text.count(old) == 1, old
    return text.replace(old, new)


def row_line(report_text, table, index):
    """The report line of row `index` of a table."""
    body = report_text.partition("# spec-echo-end\n")[2].splitlines()
    start = next(i for i, line in enumerate(body) if " ".join(line[1:].split()) == table)
    return body[start + 1 + index]


class TestClassify:
    def test_todays_report_passes(self):
        assert checks.check_classify(fixture("classify_report.txt"), wl.CLASSIFY_EPS, wl.MODE_TOL) == []

    def test_mode0_norm_off_tanh_by_1e6_is_rejected(self):
        text = fixture("classify_report.txt")
        line = row_line(text, "mode norm", 0)
        norm0 = float(line.split()[1])
        assert abs(norm0 - math.tanh(wl.CLASSIFY_EPS)) < 1e-8
        bad = doctor(text, line, f"   0  {norm0 + 1e-6:.12e}")
        errors = checks.check_classify(bad, wl.CLASSIFY_EPS, wl.MODE_TOL)
        assert any("tanh" in e for e in errors)


class TestInvariants:
    def dump(self, tmp_path, records):
        path = tmp_path / "tensor_modes.dat"
        dump_records(records, str(path))
        return str(path)

    def records(self, n_v=3):
        return [(c, np.full((n_v, n_v, 1, 1), 1e-12 * (k + 1), dtype=complex))
                for c in (0, 1) for k in range(8)]

    def test_todays_report_and_a_full_dump_pass(self, tmp_path):
        path = self.dump(tmp_path, self.records())
        assert checks.check_invariants(fixture("invariants_report.txt"), path, n_v=3) == []

    def test_missing_dump_record_is_rejected(self, tmp_path):
        path = self.dump(tmp_path, self.records()[:-1])
        errors = checks.check_invariants(fixture("invariants_report.txt"), path, n_v=3)
        assert any("records" in e for e in errors)

    def test_mode_norm_above_ball_tolerance_is_rejected(self, tmp_path):
        text = fixture("invariants_report.txt")
        bad = doctor(text, row_line(text, "mode norm", 0), f"   0  {2e-8:.12e}")
        path = self.dump(tmp_path, self.records())
        errors = checks.check_invariants(bad, path, n_v=3)
        assert any("ball tolerance" in e for e in errors)


class TestVerify:
    def test_todays_report_passes_and_counts_the_known_fault(self):
        errors, failed = checks.check_verify(fixture("verify_report.txt"), returncode=1)
        assert errors == []
        assert failed

    def test_failing_sound_identity_is_rejected(self):
        text = fixture("verify_report.txt")
        line = row_line(text, "identity residual tolerance verdict", 2)
        assert line.startswith("log_potential")
        bad = doctor(text, line, "log_potential  3.000000000000e-09  1.000e-10  fail")
        errors, _ = checks.check_verify(bad, returncode=1)
        assert any("log_potential fails" in e for e in errors)


class TestScale:
    amplitudes = wl.synthetic_amplitudes(1)

    def test_spec_of_the_fixture_is_the_seeded_spec(self):
        text = fixture("scale_report_seed1.txt")
        assert wl.synthetic_tensor_spec(self.amplitudes) in text

    def test_todays_report_passes(self):
        text = fixture("scale_report_seed1.txt")
        assert checks.check_scale(text, self.amplitudes, wl.SCALE_RATIO, wl.SCALE_ITERS) == []

    def test_row_off_by_one_factor_of_k_is_rejected(self):
        text = fixture("scale_report_seed1.txt")
        header = "iter " + " ".join(f"mode{j}" for j in range(8))
        line = row_line(text, header, 5)
        fields = line.split()
        fields[4] = f"{float(fields[4]) * wl.SCALE_RATIO:.12e}"  # mode 3
        bad = doctor(text, line, " ".join(fields))
        errors = checks.check_scale(bad, self.amplitudes, wl.SCALE_RATIO, wl.SCALE_ITERS)
        assert len(errors) == 1 and errors[0].startswith("iteration 5 mode 3:")
