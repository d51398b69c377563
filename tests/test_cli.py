"""Command-line contract: exit codes, headers, determinism, dumps."""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maform
from maform import cli
from maform.cli import build_parser, main
from maform.gridforms import dump_records, load_records

BALL_DOM = """\
# unit ball gauge
n = 2
mu.kind = ball
N_v = 9
N_r = 8
N_theta = 16
"""

ELLIPSOID_DOM = """\
n = 2
mu.kind = ellipsoid
a = 1
b = 4
N_v = 17
N_r = 8
N_theta = 16
"""

PERTURBED_DOM = """\
n = 2
mu.kind = perturbed_ball
eps = 0.05
N_v = 17
"""

NONMA_DOM = """\
# ambient exhaustion violating the top-degree degeneracy
n = 2
tau.expr = x1**2 + y1**2 + x2**2 + y2**2 + (x1**2 + y1**2)**2
N_v = 9
"""

SYNTH_TNS = """\
n = 2
N_v = 17
k_max = 3
mode 0 1 1 = 0.05/(1 + v*conj(v))
mode 1 1 1 = 0.02*v/(1 + v*conj(v))
mode 3 1 1 = 0.01
"""


# an n = 3 tensor whose mode 0 solves the structure equation while the
# symmetry (i) fails, and whose mode 1 fails the structure equation
FAILING_N3_TNS = """\
n = 3
N_v = 7
k_max = 1
mode 0 1 1 = 0.2
mode 0 2 1 = 0.1*v1*conj(v1)
mode 1 2 2 = 0.15*v2
"""

SMALL_N2_TNS = """\
n = 2
N_v = 5
k_max = 1
mode 0 1 1 = 0.05/(1 + v*conj(v))
mode 1 1 1 = 0.02*v
"""

# the classify report of SMALL_N2_TNS before the integrability entry was
# added to it
SMALL_N2_CLASSIFY_BODY = """\
ball: fail
circular: fail
rotational_0.7: fail
rotational_1.9: fail
ball_defect: 8.181980515339e-02
circularity_defect: 3.181980515339e-02
tol_ball: 1.000e-08
tol_circular: 1.000e-05
# mode  norm
   0  5.000000000000e-02
   1  3.181980515339e-02
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(argv):
    return main(argv)


def package_env(**extra):
    """The environment with the package importable in a fresh process."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(maform.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return env


def run_process(argv):
    """The command line in a fresh process, so that an uncaught exception
    shows as a traceback on stderr."""
    return subprocess.run(
        [sys.executable, "-m", "maform.cli", *argv], env=package_env(),
        capture_output=True, text=True, timeout=300,
    )


def per_value_text(records):
    """The text dump of records written one %.17e value at a time."""
    ref = ""
    for chart, a in records:
        ref += f"chart {chart} shape {' '.join(str(n) for n in a.shape)}\n"
        for val in np.ravel(a).astype(complex):
            ref += f"{val.real:.17e} {val.imag:.17e}\n"
    return ref.encode()


class TestDumpFormat:
    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(3)
        recs = [
            (0, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))),
            (1, rng.normal(size=(2, 3, 2)) + 0j),
        ]
        path = str(tmp_path / "dump")
        dump_records(recs, path, binary=binary)
        back = load_records(path, binary=binary)
        for (c1, a1), (c2, a2) in zip(recs, back):
            assert c1 == c2
            assert np.array_equal(a1, a2)

    def test_text_bytes_match_a_write_per_value(self, tmp_path):
        # the text of a record is the per-value formatting, signed zeros
        # and non-finite values included
        arr = np.array([
            [complex(0.1, -0.0), complex(-0.0, np.inf)],
            [complex(np.nan, -np.inf), complex(-1e-300, 3e300)],
        ])
        recs = [(0, arr), (1, arr.T[::-1]), (2, np.zeros((0, 3), complex)), (3, np.array(2.5))]
        path = tmp_path / "dump"
        dump_records(recs, str(path))
        assert path.read_bytes() == per_value_text(recs)

    def test_zero_records_match_a_write_per_value(self, tmp_path):
        # a record of +0.0 doubles only is written as one repeated line; a
        # -0.0 or a subnormal keeps the per-value formatting; each reads back
        recs = [
            (0, np.zeros((3, 2), complex)),
            (1, np.array([0j, complex(0.0, -0.0), complex(-0.0, 0.0)])),
            (2, np.array([[0j, 5e-324 + 0j], [0j, 0j]])),
        ]
        path = tmp_path / "dump"
        dump_records(recs, str(path))
        assert path.read_bytes() == per_value_text(recs)
        for (c1, a1), (c2, a2) in zip(recs, load_records(str(path))):
            assert c1 == c2 and a1.shape == a2.shape
            assert np.array_equal(a1, a2)
            assert np.array_equal(np.signbit(a1.view(float)), np.signbit(a2.view(float)))

    def test_binary_is_little_endian_pairs(self, tmp_path):
        arr = np.array([[1.5 - 2.5j]])
        path = str(tmp_path / "dump.bin")
        dump_records([(0, arr)], path, binary=True)
        raw = open(path, "rb").read()
        # trailing 16 bytes are the single value as two little-endian doubles
        vals = np.frombuffer(raw[-16:], dtype="<f8")
        assert vals[0] == 1.5 and vals[1] == -2.5


class TestExitCodes:
    def test_ball_verifies(self, tmp_path, capsys):
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        assert run(["verify", "--domain", dom, "--out", str(tmp_path)]) == 0

    def test_perturbed_ball_verifies(self, tmp_path):
        dom = write(tmp_path, "perturbed.dom", PERTURBED_DOM)
        argv = ["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"]
        assert run(argv) == 0
        assert "all_pass: pass" in (tmp_path / "verify_report.txt").read_text()

    def test_module_entry_point_verifies(self, tmp_path):
        # `python -m maform` runs the same command line as `maform`
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        out = subprocess.run(
            [sys.executable, "-m", "maform", "verify", "--domain", dom, "--samples", "1",
             "--out", str(tmp_path)],
            env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "all_pass: pass" in (tmp_path / "verify_report.txt").read_text()

    def test_non_degenerate_exhaustion_fails(self, tmp_path):
        dom = write(tmp_path, "nonMA.dom", NONMA_DOM)
        assert run(["verify", "--domain", dom, "--out", str(tmp_path)]) == 1
        text = (tmp_path / "verify_report.txt").read_text()
        assert "top_degeneracy" in text
        assert "fail" in text

    def test_degenerate_exhaustion_reports_the_node(self, tmp_path):
        # ddc tau of |z1|^2 |z2|^2 is degenerate, so Z does not exist: the
        # rows that need Z fail and the report names the node
        dom = write(tmp_path, "product.dom", "n = 2\ntau.expr = (x1**2 + y1**2)*(x2**2 + y2**2)\n")
        out = run_process(["verify", "--domain", dom, "--out", str(tmp_path)])
        assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
        text = (tmp_path / "verify_report.txt").read_text()
        rows = {line.split()[0]: line.split()[-1] for line in text.splitlines()
                if line.startswith(("contraction", "flow_invariance"))}
        assert rows == {"contraction": "fail", "flow_invariance": "fail"}
        assert "error: ddc tau degenerate at node 0" in text
        assert "all_pass: fail" in text

    def test_indefinite_tau_fails_the_definition_rows_silently(self, tmp_path):
        # tau < 0 at some samples and an indefinite Levi form: every
        # identity row passes, the positivity and levi rows fail, and the
        # log of tau <= 0 writes no warning to stderr
        dom = write(tmp_path, "indefinite.dom", "n = 2\ntau.expr = x1**2 + y1**2 - (x2**2 + y2**2)/2\n")
        out = run_process(["verify", "--domain", dom, "--out", str(tmp_path)])
        assert out.returncode == 1 and out.stderr == "", out.stderr
        text = (tmp_path / "verify_report.txt").read_text()
        failed = [line.split()[0] for line in text.splitlines() if line.endswith("  fail")]
        assert failed == ["levi", "positivity"]
        assert "levi  2.000000000000e+00  0.000e+00  fail" in text

    def test_elementary_functions_tau_expr_verifies(self, tmp_path):
        # sqrt, exp and log in tau.expr go through the jet's chain rule
        dom = write(
            tmp_path, "elementary.dom",
            "n = 2\ntau.expr = x1**2 + y1**2 + x2**2 + y2**2 + exp(x1**2 + y2**2)/4"
            " + sqrt(1 + x2**2) + log(1 + y1**2)\nN_v = 9\n",
        )
        out = run_process(["verify", "--domain", dom, "--out", str(tmp_path)])
        assert out.returncode in (0, 1) and "Traceback" not in out.stderr, out.stderr
        rows = {
            line.split()[0]: float(line.split()[1])
            for line in (tmp_path / "verify_report.txt").read_text().splitlines()
            if line.startswith(("log_potential", "power_rule"))
        }
        assert rows.keys() == {"log_potential", "power_rule"}
        assert max(rows.values()) < 1e-10, rows

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        dom = write(tmp_path, "bad.dom", "n = 2\nmu.fancy = ball\n")
        assert run(["verify", "--domain", dom, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column 1" in err

    def test_bad_value_position_reported(self, tmp_path, capsys):
        for kind in ("pear", "grid"):
            dom = write(tmp_path, "bad2.dom", f"n = 2\nmu.kind = {kind}\n")
            assert run(["verify", "--domain", dom, "--out", str(tmp_path)]) == 2
            assert "column 11" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.dom")
        assert run(["verify", "--domain", missing, "--out", str(tmp_path)]) == 2

    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("zoo.tns", "n = 2\nmode 0 1 1 = 1/0\n", "line 2, column 14: '1/0' holds a number"),
            ("huge.tns", "n = 2\nmode 0 1 1 = 1e308*10*v\n", "line 2, column 14: '1e308*10' holds a number"),
            ("zoo.dom", "n = 2\ntau.expr = 1/0 + x1\n", "line 2, column 12: '1/0' holds a number"),
        ],
    )
    def test_non_finite_number_exits_2_at_its_column(self, tmp_path, capsys, name, text, message):
        spec = write(tmp_path, name, text)
        if name.endswith(".dom"):
            argv = ["verify", "--domain", spec, "--samples", "1"]
        else:
            argv = ["classify", "--tensor", spec]
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_malformed_tensor_spec(self, tmp_path, capsys):
        tns = write(tmp_path, "bad.tns", "n = 2\nmode 1 = 0.1\n")
        assert run(["classify", "--tensor", tns, "--out", str(tmp_path)]) == 2
        assert "mode k a b" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("n", "5"), ("N_theta", "12"), ("N_theta", "1"), ("N_v", "1"), ("N_v", "3"), ("N_r", "0")],
    )
    def test_resolution_out_of_range_exits_2(self, tmp_path, capsys, key, value):
        dom = write(tmp_path, "bad.dom", f"mu.kind = ball\n{key} = {value}\n")
        argv = ["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"]
        assert run(argv) == 2
        assert f"line 2, column {len(key) + 4}: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n = 5", "n must be 2 or 3"),
            ("N_v = 2", "N_v must be at least 4"),
            ("N_r = 1", "N_r must be at least 2"),
            ("N_theta = 12", "N_theta must be a power of two"),
            ("k_max = -1", "k_max must be non-negative"),
            ("N_v = N", "bad value for 'N_v'"),
        ],
    )
    def test_bad_tensor_key_exits_2(self, tmp_path, capsys, line, message):
        tns = write(tmp_path, "bad.tns", f"mode 0 1 1 = 0.01\n{line}\n")
        assert run(["classify", "--tensor", tns, "--out", str(tmp_path)]) == 2
        col = line.index("=") + 3
        assert f"line 2, column {col}: {message}" in capsys.readouterr().err

    def test_four_nodes_per_axis_normalize(self, tmp_path):
        dom = write(tmp_path, "ball.dom", BALL_DOM.replace("N_v = 9", "N_v = 4"))
        argv = ["normalize", "--domain", dom, "--out", str(tmp_path), "--steps", "5"]
        assert run(argv) == 0

    @pytest.mark.parametrize("command", ["normalize", "invariants", "classify"])
    def test_moser_command_on_n3_domain_exits_2(self, tmp_path, command):
        # the Moser pipeline is n = 2 only; verify runs the n = 3 ball
        dom = write(tmp_path, "ball3.dom", "mu.kind = ball\nn = 3\nN_v = 5\n")
        out = run_process([command, "--domain", dom, "--out", str(tmp_path)])
        assert out.returncode == 2
        assert f"line 2, column 5: {command} is implemented for n = 2 only, got n = 3" in out.stderr
        assert "Traceback" not in out.stderr
        assert run(["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"]) == 0

    def test_unknown_name_in_tensor_spec_exits_2(self, tmp_path):
        tns = write(tmp_path, "bad.tns", "n = 2\nN_v = 9\nmode 0 1 1 = 0.05*w\n")
        out = run_process(["classify", "--tensor", tns, "--out", str(tmp_path)])
        assert out.returncode == 2
        assert "line 3, column 19: unknown name 'w'" in out.stderr
        assert "Traceback" not in out.stderr

    def test_unknown_name_in_tau_expr_exits_2(self, tmp_path):
        dom = write(
            tmp_path, "bad.dom",
            "n = 2\ntau.expr = z1*conjugate(z1) + x2**2 + y2**2\nN_v = 9\n",
        )
        out = run_process(["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"])
        assert out.returncode == 2
        assert "line 2, column 12: unknown name 'z1'" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "command, name, text, message",
        [
            ("verify", "bad.dom", "n = 2\ntau.expr = a\n", "line 2, column 12: unknown name 'a'"),
            ("classify", "bad.tns", "n = 2\nmode 0 1 1 = d\n", "line 2, column 14: unknown name 'd'"),
            ("verify", "bad.dom", "n = 2\nmu.kind = u\n", "line 2, column 11: unknown mu.kind 'u'"),
        ],
    )
    def test_value_text_inside_the_key_points_at_the_value(
        self, tmp_path, capsys, command, name, text, message
    ):
        # the value text also occurs in the key, left of the '='
        spec = write(tmp_path, name, text)
        flag = "--domain" if name.endswith(".dom") else "--tensor"
        assert run([command, flag, spec, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_error_after_tau_expr_names_its_own_line(self, tmp_path, capsys):
        dom = write(
            tmp_path, "bad.dom",
            "n = 2\ntau.expr = x1**2 + y1**2 + x2**2 + y2**2\nN_v = 9\nN_theta = 12\n",
        )
        assert run(["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"]) == 2
        assert "line 4, column 11: N_theta must be a power of two" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("bad.dom", "n = 2\ntau.expression = x1**2\n", "line 2, column 1: unknown key 'tau.expression'"),
            ("bad.dom", "tau.expr = x1**2\ntau.expr = y1**2\n", "line 2, column 1: duplicate key 'tau.expr'"),
            ("bad.dom", "n = 2\nN_v = 9\n", "line 2, column 8: missing required key 'mu.kind'"),
            ("bad.tns", "N_v = 17\nmode 0 1 1 = 0.01\nN_v = 17\n", "line 3, column 1: duplicate key 'N_v'"),
        ],
    )
    def test_spec_reader_faults_exit_2(self, tmp_path, capsys, name, text, message):
        spec = write(tmp_path, name, text)
        if name.endswith(".dom"):
            argv = ["verify", "--domain", spec, "--samples", "1"]
        else:
            argv = ["classify", "--tensor", spec]
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_tau_expr_spec_whose_comment_names_mu_kind_verifies(self, tmp_path):
        dom = write(
            tmp_path, "tau.dom",
            "# no mu.kind line: tau.expr replaces the gauge\n"
            "n = 2\ntau.expr = x1**2 + y1**2 + x2**2 + y2**2\nN_v = 9\n",
        )
        assert run(["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"]) == 0

    @pytest.mark.parametrize("command", ["normalize", "invariants", "classify"])
    def test_moser_command_on_tau_expr_exits_2(self, tmp_path, capsys, command):
        dom = write(tmp_path, "tau.dom", "n = 2\ntau.expr = x1**2 + y1**2 + x2**2 + y2**2\n")
        assert run([command, "--domain", dom, "--out", str(tmp_path)]) == 2
        message = f"line 2, column 12: {command} needs a gauge (mu.kind), not tau.expr"
        assert message in capsys.readouterr().err

    def test_tau_expr_code_is_not_run(self, tmp_path):
        target = tmp_path / "x"
        dom = write(
            tmp_path, "evil.dom",
            "n = 2\ntau.expr = x1**2 + y1**2 + x2**2 + y2**2"
            f" + 0*len(str(__import__('os').mkdir('{target}')))\n",
        )
        out = run_process(["verify", "--domain", dom, "--out", str(tmp_path), "--samples", "1"])
        assert out.returncode == 2
        assert "line 2, column 46: unknown name 'len'" in out.stderr
        assert "Traceback" not in out.stderr
        assert not target.exists()


class TestReportHeader:
    def test_header_block_and_spec_echo(self, tmp_path):
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        run(["verify", "--domain", dom, "--out", str(tmp_path), "--seed", "7"])
        text = (tmp_path / "verify_report.txt").read_text()
        assert "# convention: dc = i(dbar - d)" in text
        assert "ddc|z|^2 = 4 dx^dy" in text
        # N_r and N_theta are range-checked and read by nothing, so the
        # resolutions leave them out
        assert "# resolutions: N_v=9\n" in text
        # the verify rows print each tolerance they apply; the header
        # prints only a tolerance that the command applies
        assert "# tolerances:" not in text
        assert "identity=" not in text
        assert "# seed: 7" in text
        # the spec file is echoed bit-exactly between the markers
        start = text.index("# spec-echo-begin\n") + len("# spec-echo-begin\n")
        end = text.index("\n# spec-echo-end")
        assert text[start:end] == BALL_DOM.rstrip("\n")


# the options of each command, as documented in the README
COMMAND_OPTIONS = {
    "verify": {"--domain", "--out", "--seed", "--samples"},
    "normalize": {"--domain", "--out", "--seed", "--binary", "--moser-tol", "--steps"},
    "invariants": {"--domain", "--out", "--seed", "--binary", "--steps", "--kmax"},
    "classify": {"--domain", "--tensor", "--out", "--seed", "--mode-tol", "--steps", "--kmax"},
    "scale-test": {"--tensor", "--out", "--seed", "--k", "--iters"},
}

# for each command: the options of a quick run, and for every option it
# applies a value that changes its outputs (None: a flag)
ACTING = {
    "verify": ({"--samples": "2"}, {"--samples": "3", "--seed": "7"}),
    # 40 steps bring every gated normalize residual under the default bound
    "normalize": (
        {"--steps": "40"}, {"--binary": None, "--moser-tol": "1e-30", "--steps": "41"}
    ),
    "invariants": ({"--steps": "5"}, {"--binary": None, "--steps": "6", "--kmax": "3"}),
    "classify": ({"--steps": "5"}, {"--mode-tol": "1e-3", "--steps": "6", "--kmax": "3"}),
    "scale-test": ({}, {"--k": "0.25", "--iters": "3"}),
}


def _registered_options():
    commands = build_parser()._subparsers._group_actions[0].choices
    return {
        name: {a.option_strings[-1] for a in p._actions if a.option_strings} - {"--help"}
        for name, p in commands.items()
    }


class TestOptions:
    def test_each_command_registers_the_options_it_applies(self):
        assert _registered_options() == COMMAND_OPTIONS

    def test_other_options_exit_2(self, tmp_path, capsys):
        spec = write(tmp_path, "ball.dom", BALL_DOM)
        every = set().union(*COMMAND_OPTIONS.values()) - {"--domain", "--tensor"}
        for command, options in COMMAND_OPTIONS.items():
            for option in sorted(every - options):
                value = [] if option == "--binary" else ["1"]
                flag = "--tensor" if command == "scale-test" else "--domain"
                argv = [command, flag, spec, option, *value, "--out", str(tmp_path)]
                assert run(argv) == 2, (command, option)
                assert "unrecognized arguments" in capsys.readouterr().err
        out = ["--out", str(tmp_path)]
        assert run(["verify", "--domain", spec, "--sample", "2", *out]) == 2  # no abbreviations
        assert run(["classify", "--domain", spec, "--tensor", spec, *out]) == 2
        assert run(["classify", *out]) == 2

    @pytest.mark.parametrize("option", ["--steps", "--kmax"])
    def test_classify_tensor_refuses_domain_options(self, tmp_path, capsys, option):
        # a tensor spec runs no flow and carries its own k_max
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        argv = ["classify", "--tensor", tns, option, "1", "--out", str(tmp_path)]
        assert run(argv) == 2
        assert f"{option} applies to --domain only" in capsys.readouterr().err
        assert not (tmp_path / "classify_report.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["normalize", "--moser-tol", "0"],
            ["normalize", "--moser-tol=-1e-6"],
            ["normalize", "--moser-tol", "nan"],
            ["classify", "--mode-tol", "0"],
        ],
    )
    def test_non_positive_tolerance_exits_2(self, tmp_path, capsys, argv):
        spec = write(tmp_path, "ball.dom", BALL_DOM)
        assert run([*argv, "--domain", spec, "--out", str(tmp_path)]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option, low",
        [
            (["scale-test", "--iters", "0"], "--iters", 1),
            (["scale-test", "--iters", "-3"], "--iters", 1),
            (["invariants", "--steps", "0"], "--steps", 1),
            (["classify", "--kmax", "-1"], "--kmax", 0),
            (["normalize", "--steps", "-2"], "--steps", 1),
            (["verify", "--samples", "0"], "--samples", 1),
        ],
        ids=[
            "iters-0", "iters-negative", "steps-0", "kmax-negative", "steps-negative", "samples-0"
        ],
    )
    def test_count_out_of_range_exits_2(self, tmp_path, capsys, argv, option, low):
        # argparse refuses the count before any work, naming the option
        if argv[0] == "scale-test":
            spec = ["--tensor", write(tmp_path, "synth.tns", SYNTH_TNS)]
        else:
            spec = ["--domain", write(tmp_path, "ball.dom", BALL_DOM)]
        assert run([*argv, *spec, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be at least {low}, got {argv[2]}" in err
        assert list(tmp_path.glob("*_report.txt")) == []

    def test_every_option_acts(self, tmp_path):
        # no option is accepted and then ignored: each changes a report
        # body, a dump or the exit code (--out and, but on verify, --seed
        # change only where the outputs go and the header)
        domain = write(tmp_path, "ellipsoid.dom", ELLIPSOID_DOM.replace("N_v = 17", "N_v = 9"))
        specs = {
            "verify": ["--domain", write(tmp_path, "perturbed.dom", PERTURBED_DOM)],
            "scale-test": ["--tensor", write(tmp_path, "synth.tns", SYNTH_TNS.replace("N_v = 17", "N_v = 9"))],
        }
        runs = 0

        def outputs(command, options):
            nonlocal runs
            runs += 1
            out = tmp_path / f"run{runs}"
            argv = [command, *specs.get(command, ["--domain", domain]), "--out", str(out)]
            for option, value in options.items():
                argv += [option] if value is None else [option, value]
            code = run(argv)
            files = {p.name: p.read_bytes().partition(b"# spec-echo-end\n")[-1] for p in out.iterdir()}
            return code, files

        exempt = {"--domain", "--tensor", "--out", "--seed"}
        registered = _registered_options()
        assert registered.keys() == ACTING.keys()
        for command, (base, acting) in ACTING.items():
            assert set(acting) | exempt >= registered[command], command
            default = outputs(command, base)
            for option, value in acting.items():
                assert outputs(command, {**base, option: value}) != default, (command, option)

    @pytest.mark.parametrize(
        "argv, report, line",
        [
            (["normalize", "--steps", "5", "--moser-tol", "2e-6"], "normalize_report.txt",
             "# tolerances: moser=2.000e-06\n"),
            (["classify", "--mode-tol", "3e-5"], "classify_report.txt", "# tolerances: mode=3.000e-05\n"),
            (["scale-test"], "scale_report.txt", None),
        ],
    )
    def test_tolerance_line_only_where_applied(self, tmp_path, argv, report, line):
        if argv[0] == "normalize":
            spec = ["--domain", write(tmp_path, "ball.dom", BALL_DOM)]
        else:
            spec = ["--tensor", write(tmp_path, "synth.tns", SYNTH_TNS)]
        assert run([*argv, *spec, "--out", str(tmp_path)]) == 0
        header = (tmp_path / report).read_text().partition("# spec-echo-begin")[0]
        found = [l for l in header.splitlines(True) if l.startswith("# tolerances:")]
        assert found == ([line] if line else [])


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run(["verify", "--domain", dom, "--out", str(out), "--seed", "13"])
            outs.append((out / "verify_report.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_classify_byte_identical(self, tmp_path):
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run(["classify", "--tensor", tns, "--out", str(out)])
            outs.append((out / "classify_report.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_normalize_byte_identical(self, tmp_path):
        # N_v = 9 puts nodes far enough out for the flow to hand some of
        # them to the opposite chart and back; at 20 steps the endpoint
        # residual fails the default bound, and the outputs are written
        dom = write(tmp_path, "ellipsoid.dom", ELLIPSOID_DOM.replace("N_v = 17", "N_v = 9"))
        names = ("normalize_report.txt", "map_psi.dat")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["normalize", "--domain", dom, "--out", str(out), "--steps", "20"]) == 1
            outs.append([(out / name).read_bytes() for name in names])
        assert outs[0] == outs[1]


def refuse_numpy_linalg(monkeypatch):
    """Make every public numpy.linalg function raise AssertionError."""

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")

        return call

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse(name))


class TestLapackFree:
    def test_moser_commands_call_no_numpy_linalg(self, tmp_path, monkeypatch):
        # at n = 2 the Levi eigenvalue, the quadrature rule, the endpoint
        # determinant and the mode norms are closed forms: classify on the
        # perturbed ball, and invariants and normalize on the ellipsoid, run
        # with every public numpy.linalg function raising
        from maform import moser

        refuse_numpy_linalg(monkeypatch)
        moser._gauss_legendre.cache_clear()
        pert = write(tmp_path, "perturbed.dom", PERTURBED_DOM)
        ell = write(tmp_path, "ellipsoid.dom", ELLIPSOID_DOM)
        for argv in (["classify", "--domain", pert], ["invariants", "--domain", ell],
                     ["normalize", "--domain", ell]):
            assert run(argv + ["--steps", "50", "--out", str(tmp_path)]) == 0, argv

    def test_identity_and_tensor_commands_call_no_numpy_linalg(self, tmp_path, monkeypatch):
        # verify solves the Z system on the 2 x 2 Hermitian Levi matrix by
        # Cramer's rule, and the scaling test and the n = 2 mode norms are
        # moduli: verify on the perturbed ball, the ellipsoid and a
        # tau.expr (which fails top_degeneracy), scale-test and classify
        # --tensor, with every public numpy.linalg function raising; at
        # n = 3 the Levi roots, the 2 x 2 operator norms and the frame
        # coefficients of the structure equation are closed forms too, so
        # both tensor commands run on FAILING_N3_TNS (which fails its
        # integrability rows)
        from maform import deformation

        refuse_numpy_linalg(monkeypatch)
        deformation._LEVI_ROOTS.clear()
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        tns3 = write(tmp_path, "failing3.tns", FAILING_N3_TNS)
        for argv, code in (
            (["verify", "--domain", write(tmp_path, "perturbed.dom", PERTURBED_DOM)], 0),
            (["verify", "--domain", write(tmp_path, "ellipsoid.dom", ELLIPSOID_DOM)], 0),
            (["verify", "--domain", write(tmp_path, "nonma.dom", NONMA_DOM)], 1),
            (["scale-test", "--tensor", tns], 0),
            (["classify", "--tensor", tns], 0),
            (["scale-test", "--tensor", tns3], 1),
            (["classify", "--tensor", tns3], 1),
        ):
            assert run(argv + ["--out", str(tmp_path)]) == code, argv

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs the Linux /proc")
    def test_verify_faults_in_no_openblas_page(self, tmp_path):
        # no BLAS product runs either: the resident size of the OpenBLAS
        # library that numpy maps stays what the import left (the LAPACK
        # solves and products of the real 4 x 4 system added 636 KB)
        dom = write(tmp_path, "perturbed.dom", PERTURBED_DOM)
        script = (
            "from maform.cli import main\n"
            "def rss():\n"
            "    total, inside = None, False\n"
            "    for line in open('/proc/self/smaps'):\n"
            "        if '-' in line.split()[0]:  # a mapping's header line\n"
            "            inside = 'openblas' in line\n"
            "        elif inside and line.startswith('Rss:'):\n"
            "            total = (total or 0) + int(line.split()[1])\n"
            "    return total\n"
            "before = rss()\n"
            f"code = main(['verify', '--domain', {dom!r}, '--out', {str(tmp_path)!r}])\n"
            "print(code, before, rss())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True,
            text=True, check=True, timeout=300,
        )
        code, before, after = out.stdout.split()[-3:]
        if before == "None":
            pytest.skip("numpy maps no OpenBLAS library")
        assert code == "0"
        assert int(after) == int(before), (before, after)


class TestPipelineCommands:
    def test_normalize_dump_and_report(self, tmp_path):
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        code = run(
            ["normalize", "--domain", dom, "--out", str(tmp_path),
             "--steps", "40"]
        )
        assert code == 0
        recs = load_records(str(tmp_path / "map_psi.dat"))
        assert [c for c, _ in recs] == [0, 1]
        assert recs[0][1].shape == (9, 9, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ball.dom", "map_psi.dat", "normalize_report.txt"]
        lines = (tmp_path / "normalize_report.txt").read_text().splitlines()
        rows = lines[lines.index("# residual  value") + 1:]
        assert [line.split()[0] for line in rows] == [
            "connection_mismatch", "endpoint", "gauge_normalization", "all_pass:"]
        assert rows[-1] == "all_pass: pass"

    def test_normalize_gates_every_printed_residual(self, tmp_path):
        # at 20 steps the ellipsoid's endpoint residual (4.0e-6) exceeds
        # the header's moser= bound, while the other two residuals stay
        # under it
        dom = write(tmp_path, "ell.dom", "n = 2\nmu.kind = ellipsoid\na = 1\nb = 4\nN_v = 9\n")
        assert run(["normalize", "--domain", dom, "--out", str(tmp_path), "--steps", "20"]) == 1
        text = (tmp_path / "normalize_report.txt").read_text()
        rows = {line.split()[0]: float(line.split()[1]) for line in text.splitlines()
                if line.startswith(("endpoint", "gauge_normalization", "connection_mismatch"))}
        assert rows["endpoint"] > 1e-6
        assert rows["gauge_normalization"] <= 1e-6 and rows["connection_mismatch"] <= 1e-6
        assert "all_pass: fail" in text

    def test_normalize_binary_dump(self, tmp_path):
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        code = run(
            ["normalize", "--domain", dom, "--out", str(tmp_path),
             "--steps", "40", "--binary"]
        )
        assert code == 0
        recs = load_records(str(tmp_path / "map_psi.bin"), binary=True)
        assert recs[0][1].shape == (9, 9, 2)

    def test_invariants_circular_mode_table(self, tmp_path):
        dom = write(tmp_path, "ellipsoid.dom", ELLIPSOID_DOM)
        code = run(
            ["invariants", "--domain", dom, "--out", str(tmp_path),
             "--steps", "100", "--kmax", "7"]
        )
        assert code == 0
        text = (tmp_path / "invariants_report.txt").read_text()
        # every positive mode row of a circular domain is below 1e-6
        rows = [l.split() for l in text.splitlines()
                if l[:4].strip().isdigit()]
        assert len(rows) == 8
        for k, norm in rows:
            if int(k) >= 1:
                assert float(norm) < 1e-6
        recs = load_records(str(tmp_path / "tensor_modes.dat"))
        assert len(recs) == 16  # two charts, eight modes each

    def test_invariants_kmax_is_not_bounded_by_n_theta(self, tmp_path):
        # N_theta = 16 once bounded the cutoff by 2(k_max + 1) <= N_theta;
        # the modes are not read from fiber angles, so --kmax 8 runs
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        argv = ["invariants", "--domain", dom, "--out", str(tmp_path), "--steps", "20", "--kmax", "8"]
        assert run(argv) == 0
        text = (tmp_path / "invariants_report.txt").read_text()
        rows = [l.split() for l in text.splitlines() if l[:4].strip().isdigit()]
        assert [int(k) for k, _ in rows] == list(range(9))
        assert all(float(norm) == 0.0 for _, norm in rows[1:])

    def test_defect_at_the_tolerance_gives_one_verdict(self, tmp_path):
        # the circularity defect of mode 1 = 1e-5 v is 1e-5 |1.25 + 1.25i|
        # 0.9 at the corner node, and the tolerance sits on it to the last
        # bit; a rotation defect measured on rotated modes once read below
        # it, and the disagreement exited 1
        tns = write(tmp_path, "t.tns", "n = 2\nN_v = 9\nk_max = 1\nmode 1 1 1 = 1e-05*v\n")
        argv = ["classify", "--tensor", tns, "--mode-tol", "1.590990257669732e-05"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        text = (tmp_path / "classify_report.txt").read_text()
        assert "circularity_defect: 1.590990257670e-05" in text
        for key in ("circular", "rotational_0.7", "rotational_1.9"):
            assert f"\n{key}: fail\n" in text

    def test_classify_synthetic_verdicts(self, tmp_path):
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        assert run(["classify", "--tensor", tns, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "classify_report.txt").read_text()
        assert "circular: fail" in text
        assert "ball: fail" in text
        assert "# mode  norm" in text

    def test_scale_test_trace(self, tmp_path):
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        code = run(
            ["scale-test", "--tensor", tns, "--k", "0.5",
             "--iters", "20", "--out", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "scale_report.txt").read_text()
        assert "scaling_rates: pass" in text
        assert "# iter mode0 mode1 mode2 mode3" in text
        # trace column for mode 3 decays by 1/8 per iteration
        rows = [l.split() for l in text.splitlines()
                if l[:6].strip().isdigit() and len(l.split()) == 5]
        assert len(rows) == 21
        first, second = float(rows[0][4]), float(rows[1][4])
        assert abs(second / first - 0.125) < 1e-12

    @pytest.mark.parametrize("ratio", ["1.5", "0", "-0.5", "nan", "inf"])
    def test_bad_ratio_exits_2(self, tmp_path, capsys, ratio):
        # a contraction ratio outside (0, 1) is a bad option, refused before
        # the tensor is built
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        assert run(["scale-test", "--tensor", tns, "--k", ratio, "--out", str(tmp_path)]) == 2
        assert f"argument --k: must be in (0, 1), got {ratio}" in capsys.readouterr().err
        assert not (tmp_path / "scale_report.txt").exists()

    @pytest.mark.filterwarnings("error")
    def test_underflowed_iterates_leave_the_fit(self, tmp_path):
        # at k = 0.001 the mode-1 norm falls below the least normal double
        # after about 100 of 120 iterations: the rate is fitted on the
        # iterates above it, and no log(0) enters the fit
        tns = write(tmp_path, "two.tns", "n = 2\nN_v = 5\nk_max = 1\nmode 0 1 1 = 0.05\nmode 1 1 1 = 0.02*v\n")
        argv = ["scale-test", "--tensor", tns, "--k", "0.001", "--iters", "120", "--out", str(tmp_path)]
        assert run(argv) == 0
        text = (tmp_path / "scale_report.txt").read_text()
        assert "scaling_rates: pass\n" in text
        [error] = [line.split()[1] for line in text.splitlines() if line.startswith("slope_error: ")]
        assert float(error) < 1e-12
        [last] = [line.split() for line in text.splitlines() if line.startswith("   120 ")]
        assert float(last[2]) == 0.0


def integrability_rows(text):
    """{(condition, mode): (residual, tolerance, verdict)} of a report."""
    rows = [l.split() for l in text.splitlines()
            if l.startswith(("integrability_symmetry ", "structure_equation "))]
    return {(r[0], r[1]): (float(r[2]), r[3], r[4]) for r in rows}


class TestIntegrability:
    @pytest.mark.parametrize(
        "command, report, tolerances",
        [
            ("classify", "classify_report.txt", "mode=1.000e-05 integrability=1.000e-12"),
            ("scale-test", "scale_report.txt", "integrability=1.000e-12"),
        ],
    )
    def test_failing_n3_tensor_exits_1_with_its_report(self, tmp_path, command, report, tolerances):
        tns = write(tmp_path, "fail3.tns", FAILING_N3_TNS)
        assert run([command, "--tensor", tns, "--out", str(tmp_path)]) == 1
        text = (tmp_path / report).read_text()
        assert f"# tolerances: {tolerances}\n" in text
        assert "# condition  mode  residual  tolerance  verdict\n" in text
        rows = integrability_rows(text)
        assert rows.keys() == {
            ("integrability_symmetry", "0"),
            ("integrability_symmetry", "1"),
            ("structure_equation", "0"),
            ("structure_equation", "1"),
        }
        for mode, want in (("0", 0.6696), ("1", 0.2286)):
            symmetry, _, verdict = rows["integrability_symmetry", mode]
            assert abs(symmetry - want) < 1e-4 and verdict == "fail"
        # mode 0 solves the structure equation: exact brackets leave roundoff
        assert rows["structure_equation", "0"][0] <= 1e-12
        assert rows["structure_equation", "0"][1:] == ("1.000e-12", "pass")
        # mode 1 reads its derivative term with the brackets of the pairs
        # (0, 1) and (1, 0); without the pair (0, k) it reads 6.28e-3
        residual, _, verdict = rows["structure_equation", "1"]
        assert abs(residual - 1.2556e-2) < 1e-6 and verdict == "fail"

    @pytest.mark.parametrize("command", ["classify", "scale-test"])
    def test_one_jet_evaluation_per_command(self, tmp_path, monkeypatch, command):
        # every mode's residual reads the jets of one _jets call
        from maform import integrability

        calls = []
        jets = integrability._jets
        monkeypatch.setattr(integrability, "_jets", lambda t: calls.append(t) or jets(t))
        tns = write(tmp_path, "fail3.tns", FAILING_N3_TNS)
        assert run([command, "--tensor", tns, "--out", str(tmp_path)]) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["classify", "scale-test"])
    def test_zero_n3_tensor_exits_0(self, tmp_path, command):
        tns = write(tmp_path, "zero3.tns", "n = 3\nN_v = 5\nk_max = 1\n")
        assert run([command, "--tensor", tns, "--out", str(tmp_path)]) == 0
        report = "classify_report.txt" if command == "classify" else "scale_report.txt"
        rows = integrability_rows((tmp_path / report).read_text())
        assert len(rows) == 4
        assert all(value == 0.0 and verdict == "pass" for value, _, verdict in rows.values())

    def test_symmetry_is_checked_per_mode(self, tmp_path):
        # phi = 0.2 - 0.4 zeta is symmetric at zeta = 0.5 only: (i) must
        # hold at every zeta, so each mode is checked on its own
        tns = write(tmp_path, "cancel.tns", "n = 3\nN_v = 5\nk_max = 1\nmode 0 1 1 = 0.2\nmode 1 1 1 = -0.4\n")
        assert run(["classify", "--tensor", tns, "--out", str(tmp_path)]) == 1
        rows = integrability_rows((tmp_path / "classify_report.txt").read_text())
        for mode in ("0", "1"):
            symmetry, _, verdict = rows["integrability_symmetry", mode]
            assert symmetry > 1e-2 and verdict == "fail"

    def test_n2_report_adds_only_the_vacuous_entry(self, tmp_path):
        tns = write(tmp_path, "small2.tns", SMALL_N2_TNS)
        assert run(["classify", "--tensor", tns, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "classify_report.txt").read_text()
        head, _, body = text.partition("# spec-echo-end\n")
        assert "# tolerances: mode=1.000e-05\n" in head
        assert body == "integrability: vacuous at n = 2\n" + SMALL_N2_CLASSIFY_BODY

    def test_coefficient_not_finite_at_a_node_exits_1(self, tmp_path, capsys):
        # conj(v)/v has modulus 1 off the origin and is 0/0 at the node
        # v = 0: the tensor is refused there, not classified as the ball
        tns = write(tmp_path, "nan.tns", "n = 2\nN_v = 5\nk_max = 1\nmode 1 1 1 = conj(v)/v\n")
        assert run(["classify", "--tensor", tns, "--out", str(tmp_path)]) == 1
        assert "mode 1 1 1 is not finite on chart 0 at node (2, 2)" in capsys.readouterr().err

    def test_scale_test_n2_states_vacuous(self, tmp_path):
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        assert run(["scale-test", "--tensor", tns, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "scale_report.txt").read_text().partition("# spec-echo-end\n")[2]
        assert body.startswith("integrability: vacuous at n = 2\nscaling_limit_is_mode0: ")


# pieces of random tensor specs: coordinates of either dimension, huge and
# tiny numbers, and zero divisors
_ATOMS = st.sampled_from(
    ["v", "v1", "v2", "conj(v1)", "conj(v)", "0", "0.0", "2", "I", "1e308", "1e-300", "(v1 - v1)"]
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    ),
    max_leaves=4,
)
_MODE_LINES = st.lists(
    st.tuples(
        st.integers(-1, 3), st.integers(0, 3), st.integers(0, 3), _EXPRESSIONS
    ).map(lambda t: f"mode {t[0]} {t[1]} {t[2]} = {t[3]}"),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]), st.integers(4, 5), st.integers(0, 2), _MODE_LINES,
    st.sampled_from(["classify", "scale-test"]),
)
def test_random_tensor_specs_exit_0_1_or_2(n, n_v, k_max, mode_lines, command):
    # any small tensor spec ends in an exit code, never in a traceback
    text = "\n".join([f"n = {n}", f"N_v = {n_v}", "N_theta = 8", f"k_max = {k_max}", *mode_lines])
    with tempfile.TemporaryDirectory() as out:
        spec = os.path.join(out, "random.tns")
        with open(spec, "w") as fh:
            fh.write(text + "\n")
        with np.errstate(all="ignore"):
            assert main([command, "--tensor", spec, "--out", out]) in (0, 1, 2)


class TestEnvironment:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs the Linux /proc"
    )
    def test_thread_cap_env(self):
        # the thread pools start with the first product; count the
        # threads of a fresh process after one
        script = (
            "import os, maform.cli, numpy as np\n"
            "a = np.ones((1500, 1500))\n"
            "a @ a\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        env = {
            key: val for key, val in package_env(MAFORM_THREADS="1").items()
            if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        }
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.split() == ["1"]

    def test_compile_loads_no_numpy_test_modules(self):
        # a star import of numpy would load numpy.testing and with it
        # unittest; compiled jets name only the numpy functions they call
        script = (
            "import sys\n"
            "from maform.symforms import Jet, real_coords\n"
            "x, y = real_coords(2)\n"
            "Jet.compile(x * y, (x, y), 3)\n"
            "print([m for m in ('numpy.testing', 'unittest') if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.split() == ["[]"], out.stdout

    def test_commands_import_no_scipy(self, tmp_path):
        # scipy is a test dependency only: no command may load it
        dom = write(tmp_path, "ball.dom", BALL_DOM)
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        commands = [
            ["normalize", "--domain", dom, "--steps", "5"],
            ["invariants", "--domain", dom, "--steps", "5"],
            ["verify", "--domain", dom, "--samples", "1"],
            ["classify", "--tensor", tns],
            ["scale-test", "--tensor", tns],
        ]
        script = (
            "import sys\n"
            "from maform.cli import main\n"
            f"for argv in {commands!r}:\n"
            f"    print(main(argv + ['--out', {str(tmp_path)!r}]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True,
            text=True, check=True, timeout=300,
        )
        assert out.stdout.splitlines()[-1] == "[]", out.stdout
        assert [line for line in out.stdout.splitlines() if line.isdigit()] == ["0"] * 5

    def test_commands_load_no_lazy_numpy_submodules(self, tmp_path):
        # numpy loads numpy.ma, numpy.random and numpy.polynomial on first
        # use only; no command needs any of them
        ball = write(tmp_path, "ball.dom", BALL_DOM)
        ell = write(tmp_path, "ellipsoid.dom", ELLIPSOID_DOM)
        tns = write(tmp_path, "synth.tns", SYNTH_TNS)
        commands = [
            ["normalize", "--domain", ball, "--steps", "5"],
            ["invariants", "--domain", ell, "--steps", "5"],
            ["classify", "--domain", ell, "--steps", "5"],
            ["classify", "--tensor", tns],
            ["verify", "--domain", ball, "--samples", "1"],
            ["scale-test", "--tensor", tns],
        ]
        script = (
            "import sys\n"
            "from maform.cli import main\n"
            f"for argv in {commands!r}:\n"
            f"    print(main(argv + ['--out', {str(tmp_path)!r}]))\n"
            "lazy = ('numpy.ma', 'numpy.random', 'numpy.polynomial')\n"
            "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in lazy))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True,
            text=True, check=True, timeout=300,
        )
        assert out.stdout.splitlines()[-1] == "[]", out.stdout
        assert [line for line in out.stdout.splitlines() if line.isdigit()] == ["0"] * 6

    # command -> (its arguments on the spec files of _command_inputs, the
    # watched modules it loads, and the maform modules it loads after its
    # first pipeline call)
    LOADS = {
        "verify": (["verify", "--domain", "ball.dom", "--samples", "1"], ["maform.foliation"], []),
        "normalize": (
            ["normalize", "--domain", "ball.dom", "--steps", "5"],
            ["maform.gridforms", "maform.moser"], [],
        ),
        "invariants": (
            ["invariants", "--domain", "ball.dom", "--steps", "5"],
            ["maform.gridforms", "maform.moser"], [],
        ),
        "classify-domain": (
            ["classify", "--domain", "ball.dom", "--steps", "5"],
            ["maform.characterization", "maform.moser"], [],
        ),
        "classify-tensor": (["classify", "--tensor", "n2.tns"], ["maform.characterization"], []),
        "scale-test": (["scale-test", "--tensor", "n2.tns"], ["maform.characterization"], []),
        "classify-n3": (
            ["classify", "--tensor", "n3.tns"],
            ["maform.characterization", "maform.integrability"], ["maform.integrability"],
        ),
    }

    @pytest.mark.parametrize("command", sorted(LOADS))
    def test_command_loads_only_the_modules_it_runs(self, tmp_path, command):
        # a fresh process per command: verify and scale-test load no
        # maform.moser, the Moser commands no maform.foliation, no n = 2
        # command the integrability module, and none dataclasses; every
        # maform module an n = 2 command runs is loaded before its first
        # pipeline call, where the benchmark stamps the end of set-up
        argv, loads, late = self.LOADS[command]
        write(tmp_path, "ball.dom", BALL_DOM)
        write(tmp_path, "n2.tns", SMALL_N2_TNS)
        write(tmp_path, "n3.tns", FAILING_N3_TNS)
        watched = [
            "dataclasses", "maform.characterization", "maform.foliation", "maform.gridforms",
            "maform.integrability", "maform.moser",
        ]
        script = (
            "import sys\n"
            "from maform import cli\n"
            "at_first_call = []\n"
            "for name in ('make_circular_domain', 'tensor_from_mode_functions'):\n"
            "    def first(*args, _fn=getattr(cli, name), **kwargs):\n"
            "        at_first_call.append(set(sys.modules))\n"
            "        return _fn(*args, **kwargs)\n"
            "    setattr(cli, name, first)\n"
            f"print(cli.main({argv!r} + ['--out', 'out']))\n"
            f"print(sorted(m for m in {watched!r} if m in sys.modules))\n"
            "print(sorted(m for m in set(sys.modules) - at_first_call[0] if m.startswith('maform')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=package_env(),
            capture_output=True, text=True, check=True, timeout=300,
        )
        code, loaded, after = out.stdout.splitlines()[-3:]
        assert code in ("0", "1"), out.stdout
        assert loaded == repr(loads), out.stdout
        assert after == repr(late), out.stdout


class FirstPipelineCall(Exception):
    """Raised by a stub of a command's first pipeline call: not a
    ValueError, so main lets it through."""


class TestSetupStamp:
    # the benchmark ends set-up at the first call of make_circular_domain
    # or tensor_from_mode_functions, names it replaces on maform.cli after
    # import; every command must make its first pipeline call through one
    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["verify", "--domain", "ball.dom"], "make_circular_domain"),
            (["normalize", "--domain", "ball.dom"], "make_circular_domain"),
            (["invariants", "--domain", "ball.dom"], "make_circular_domain"),
            (["classify", "--domain", "ball.dom"], "make_circular_domain"),
            (["classify", "--tensor", "synth.tns"], "tensor_from_mode_functions"),
            (["scale-test", "--tensor", "synth.tns"], "tensor_from_mode_functions"),
        ],
        ids=["verify", "normalize", "invariants", "classify-domain", "classify-tensor", "scale-test"],
    )
    def test_first_pipeline_call_is_a_stamped_name(self, tmp_path, monkeypatch, argv, entry):
        write(tmp_path, "ball.dom", BALL_DOM)
        write(tmp_path, "synth.tns", SYNTH_TNS)
        for name in ("make_circular_domain", "tensor_from_mode_functions"):
            def stub(*args, _name=name, **kwargs):
                raise FirstPipelineCall(_name)

            monkeypatch.setattr(cli, name, stub)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FirstPipelineCall) as hit:
            main(argv + ["--out", "out"])
        assert hit.value.args == (entry,)
