"""Command-line front end.

Subcommands: verify (exhaustion identity suite), normalize (Moser
pipeline dump), invariants (deformation-tensor extraction and mode
table), classify (verdict report), scale-test (contraction trace).
Each subcommand accepts only the options it applies (build_parser).

Reports are deterministic given the options and the seed: every output
embeds the convention line, the resolutions, the tolerance the command
applies (normalize: --moser-tol, classify: --mode-tol, and for an n = 3
tensor spec, classify and scale-test: the integrability bound; no line
where none is), the seed, and a bit-exact echo of the input spec file.
Exit codes: 0 on pass, 1 on a failed check (an integrability condition
of a tensor spec among them) or a propagated module error, 2 on a spec
parse error or a bad option.

Each command imports the pipeline modules it runs at its top, before its
first pipeline call (make_circular_domain or tensor_from_mode_functions,
which stay names of this module), so a process loads only the code its
command runs, and all of it before the pipeline starts.
"""

import argparse
import os
import sys

import numpy as np

from . import CONVENTION
from .deformation import extract, tensor_from_mode_functions
from .domains import (
    ExhaustionField,
    SpecParseError,
    make_circular_domain,
    parse_domain_spec,
    parse_tensor_spec,
)


def _fmt(x):
    return f"{float(x):.12e}"


def report_header(args, spec_text, resolutions, tolerances=None):
    """Common header block: convention, resolutions, the tolerances the
    command applies (when it applies any), seed, and the raw spec text
    between echo markers."""
    res = " ".join(f"{k}={v}" for k, v in resolutions.items())
    lines = [
        "# maform report",
        f"# command: {args.command}",
        f"# convention: {CONVENTION}",
        f"# resolutions: {res}",
    ]
    if tolerances:
        lines.append(f"# tolerances: {tolerances}")
    lines += [
        f"# seed: {args.seed}",
        "# spec-echo-begin",
        spec_text.rstrip("\n"),
        "# spec-echo-end",
    ]
    return lines


def _write_report(args, name, lines):
    """Write the report and print its path."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(path)


# ---------------------------------------------------------------------------
# spec files


def load_domain_file(path):
    """The DomainSpec of a domain spec file (domains.parse_domain_spec)."""
    with open(path) as fh:
        return parse_domain_spec(fh.read())


def load_tensor_file(path):
    """Build the tensor of a synthetic-tensor spec file
    (domains.parse_tensor_spec); returns (tensor, values, text)."""
    from .atlas import ChartAtlas

    with open(path) as fh:
        text = fh.read()
    values, coords, modes = parse_tensor_spec(text)
    atlas = ChartAtlas(n=values["n"], n_v=values["N_v"])
    return tensor_from_mode_functions(atlas, coords, modes, values["k_max"]), values, text


def _integrability(tensor):
    """The integrability conditions of a spec tensor: (i) the symmetry of
    ddc tau_o(phi X, Y) and (ii) the structure equation, per mode, each
    bounded by INTEGRABILITY_TOL.  Returns the header's tolerance text
    (None at n = 2), the report lines and whether all rows pass.  Both
    conditions are vacuous at n = 2, and the report says so."""
    if tensor.n == 2:
        return None, ["integrability: vacuous at n = 2"], True
    from .integrability import INTEGRABILITY_TOL, condition_symmetry, mode_residuals

    rows = []
    for name, per_mode in (
        ("integrability_symmetry", condition_symmetry(tensor)),
        ("structure_equation", mode_residuals(tensor)),
    ):
        rows += [(name, str(k), value) for k, value in enumerate(per_mode)]
    passed = [value <= INTEGRABILITY_TOL for *_, value in rows]
    lines = ["# condition  mode  residual  tolerance  verdict"] + [
        f"{name}  {mode}  {_fmt(value)}  {INTEGRABILITY_TOL:.3e}  {'pass' if ok else 'fail'}"
        for (name, mode, value), ok in zip(rows, passed)
    ]
    return f"integrability={INTEGRABILITY_TOL:.3e}", lines, all(passed)


# ---------------------------------------------------------------------------
# commands


def _moser_spec(args):
    """Domain spec of a command that runs the Moser pipeline: a
    gauge-based circular domain with n = 2, the only dimension whose
    curvature data is implemented."""
    spec = load_domain_file(args.domain)
    if spec.tau_expr is not None:
        raise SpecParseError(
            *spec.at["tau.expr"], f"{args.command} needs a gauge (mu.kind), not tau.expr"
        )
    if spec.n != 2:
        raise SpecParseError(
            *spec.at["n"], f"{args.command} is implemented for n = 2 only, got n = {spec.n}"
        )
    return spec


def _pipeline_tensor(args, spec):
    """Full pipeline: gauge -> normalizing map -> deformation tensor."""
    from .moser import normalize_domain

    mink, _ = make_circular_domain(spec.mu_spec())
    nm = normalize_domain(mink, atlas=spec.atlas(), n_steps=args.steps)
    return extract(nm, k_max=args.kmax)


def _resolutions(spec, **extra):
    return {"N_v": spec.n_v, **extra}


def cmd_verify(args):
    from .foliation import verify_ma_identities

    spec = load_domain_file(args.domain)
    if spec.tau_expr is None:
        _, exh = make_circular_domain(spec.mu_spec())
    else:
        exh = ExhaustionField(n=spec.n, tau_ambient=spec.tau_expr)
    report = verify_ma_identities(exh, n_samples=args.samples, seed=args.seed)
    lines = report_header(args, spec.raw, _resolutions(spec))
    lines.append("# identity  residual  tolerance  verdict")
    for key in sorted(report["pass"]):
        ok = report["pass"][key]
        lines.append(
            f"{key}  {_fmt(report[key])}  "
            f"{report['tolerances'][key]:.3e}  {'pass' if ok else 'fail'}"
        )
    if "error" in report:
        lines.append(f"error: {report['error']}")
    lines.append(f"all_pass: {'pass' if report['all_pass'] else 'fail'}")
    _write_report(args, "verify_report.txt", lines)
    return 0 if report["all_pass"] else 1


def cmd_normalize(args):
    from .gridforms import dump_records
    from .moser import normalize_domain

    spec = _moser_spec(args)
    mink, _ = make_circular_domain(spec.mu_spec())
    nm = normalize_domain(mink, atlas=spec.atlas(), n_steps=args.steps)

    ext = "bin" if args.binary else "dat"
    os.makedirs(args.out, exist_ok=True)
    psi_path = os.path.join(args.out, f"map_psi.{ext}")
    dump_records([(c, nm.W[c]) for c in sorted(nm.W)], psi_path, binary=args.binary)

    res = _resolutions(spec, rk4_steps=args.steps)
    lines = report_header(args, spec.raw, res, f"moser={args.moser_tol:.3e}")
    lines.append(f"psi_table: {os.path.basename(psi_path)}")
    lines.append("# residual  value")
    for key in sorted(nm.residuals):
        lines.append(f"{key}  {_fmt(nm.residuals[key])}")
    failed = any(not value <= args.moser_tol for value in nm.residuals.values())
    lines.append(f"all_pass: {'fail' if failed else 'pass'}")
    _write_report(args, "normalize_report.txt", lines)
    return 1 if failed else 0


def cmd_invariants(args):
    from .gridforms import dump_records

    spec = _moser_spec(args)
    tensor = _pipeline_tensor(args, spec)

    ext = "bin" if args.binary else "dat"
    os.makedirs(args.out, exist_ok=True)
    tensor_path = os.path.join(args.out, f"tensor_modes.{ext}")
    records = []
    for c in tensor.charts:
        for k in range(tensor.k_max + 1):
            records.append((c, tensor.modes[c][k]))
    dump_records(records, tensor_path, binary=args.binary)

    norms = tensor.mode_norms()
    res = _resolutions(spec, rk4_steps=args.steps, k_max=args.kmax)
    lines = report_header(args, spec.raw, res)
    lines.append(f"tensor_table: {os.path.basename(tensor_path)}")
    lines.append("# mode  norm")
    for k, v in enumerate(norms):
        lines.append(f"{k:4d}  {_fmt(v)}")
    lines.append(f"positive_mode_total: {_fmt(np.sum(norms[1:]))}")
    _write_report(args, "invariants_report.txt", lines)
    return 0


def cmd_classify(args):
    from .characterization import classify

    given = [option for option in _DOMAIN_ONLY if option[2:] in vars(args)]
    if args.tensor and given:
        print(f"error: {given[0]} applies to --domain only, not to --tensor", file=sys.stderr)
        return 2
    if args.tensor:
        tensor, values, raw = load_tensor_file(args.tensor)
        res = {k: values[k] for k in ("N_v", "k_max")}
        tol, checks, integrable = _integrability(tensor)
    else:
        spec = _moser_spec(args)
        for option in _DOMAIN_ONLY:
            vars(args).setdefault(option[2:], _OPTIONS[option]["default"])
        tensor, raw = _pipeline_tensor(args, spec), spec.raw
        res = _resolutions(spec, rk4_steps=args.steps, k_max=args.kmax)
        tol, checks, integrable = None, [], True
    report = classify(tensor, tol_circular=args.mode_tol)
    tolerances = " ".join(filter(None, [f"mode={args.mode_tol:.3e}", tol]))
    lines = report_header(args, raw, res, tolerances) + checks + report.lines()
    _write_report(args, "classify_report.txt", lines)
    return 0 if integrable else 1


def cmd_scale_test(args):
    from .characterization import scaling_test

    tensor, values, raw = load_tensor_file(args.tensor)
    tol, checks, integrable = _integrability(tensor)
    report = scaling_test(tensor, args.k, iters=args.iters)
    res = {k: values[k] for k in ("N_v", "k_max")}
    lines = report_header(args, raw, res, tol) + checks + report.lines()
    _write_report(args, "scale_report.txt", lines)
    return 0 if integrable and all(report.verdicts.values()) else 1


# ---------------------------------------------------------------------------
# entry point


def _checked(cast, ok, what):
    """argparse type: the text cast, refused where ok is false; a text that
    does not cast reads 'invalid int value' or 'invalid float value'."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = cast.__name__
    return parse


# the argparse types of a tolerance, a count, the mode cutoff and the
# contraction ratio
_positive = _checked(float, lambda v: v > 0, "positive")
_count = _checked(int, lambda v: v >= 1, "at least 1")
_index = _checked(int, lambda v: v >= 0, "at least 0")
_ratio = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


# every option, with its one default
_OPTIONS = {
    "--domain": dict(help="domain spec file"),
    "--tensor": dict(help="synthetic-tensor spec file"),
    "--out": dict(default=".", help="output directory"),
    "--seed": dict(type=int, default=13, help="sample seed of verify; the others echo it"),
    "--samples": dict(type=_count, default=40, help="identity sample points"),
    "--binary": dict(action="store_true", help="binary dumps"),
    "--moser-tol": dict(type=_positive, default=1e-6, help="normalization residual bound"),
    "--mode-tol": dict(type=_positive, default=1e-5, help="circularity bound on positive modes"),
    "--steps": dict(type=_count, default=200, help="RK4 steps"),
    "--kmax": dict(type=_index, default=7, help="fiber mode cutoff"),
    "--k": dict(type=_ratio, default=0.5, help="contraction ratio, in (0, 1)"),
    "--iters": dict(type=_count, default=20, help="contraction iterations"),
}

# command -> (function, help, its spec file options, its other options)
_COMMANDS = {
    "verify": (cmd_verify, "exhaustion identity suite", "--domain", "--samples"),
    "normalize": (
        cmd_normalize, "Moser pipeline and map dump", "--domain", "--binary --moser-tol --steps"
    ),
    "invariants": (
        cmd_invariants, "deformation-tensor mode table", "--domain", "--binary --steps --kmax"
    ),
    "classify": (
        cmd_classify, "circularity and ball verdicts", "--domain --tensor",
        "--mode-tol --steps --kmax",
    ),
    "scale-test": (cmd_scale_test, "contraction iteration trace", "--tensor", "--k --iters"),
}


# classify options that only a --domain input uses; unset unless given
_DOMAIN_ONLY = ("--steps", "--kmax")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maform",
        description="Monge-Ampere foliations, Moser normalization and "
        "deformation invariants of circular domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, specs, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        specs = specs.split()
        if len(specs) == 1:
            p.add_argument(specs[0], required=True, **_OPTIONS[specs[0]])
        else:
            group = p.add_mutually_exclusive_group(required=True)
            for spec in specs:
                group.add_argument(spec, **_OPTIONS[spec])
        for option in ["--out", "--seed", *options.split()]:
            kwargs = _OPTIONS[option]
            if len(specs) > 1 and option in _DOMAIN_ONLY:
                kwargs = {**kwargs, "default": argparse.SUPPRESS}
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # DomainError, MoserError and the like
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
