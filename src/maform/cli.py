"""Command-line front end.

Subcommands: verify (exhaustion identity suite), normalize (Moser
pipeline dump), invariants (deformation-tensor extraction and mode
table), classify (verdict report), scale-test (contraction trace).

Reports are deterministic given config and seed: every output embeds
the convention line, the resolutions, the tolerances, the seed, and a
bit-exact echo of the input spec file.  Exit codes: 0 on pass, 1 on a
failed check or a propagated module error, 2 on a spec parse error.
"""

import argparse
import os
import re
import sys
from dataclasses import dataclass

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from . import CONVENTION
from .characterization import classify, scaling_test
from .deformation import extract, tensor_from_mode_functions
from .domains import (
    DomainError,
    ExhaustionField,
    SpecParseError,
    _value_col,
    ambient_coords,
    make_circular_domain,
    parse_domain_spec,
    parse_spec_value,
)
from .foliation import verify_ma_identities
from .gridforms import dump_records
from .moser import MoserError, normalize_domain
from .symforms import compile_exprs


@dataclass
class RunConfig:
    """Everything a command run depends on, echoed in the report header."""

    command: str
    domain_path: str = None
    tensor_path: str = None
    out_dir: str = "."
    n_samples: int = 40
    seed: int = 13
    rk4_steps: int = 200
    k_max: int = 7
    moser_tol: float = 1e-6
    mode_tol: float = 1e-5
    ratio: float = 0.5
    iters: int = 20
    binary: bool = False


def _validate(config):
    for name in ("moser_tol", "mode_tol"):
        if getattr(config, name) <= 0:
            raise ValueError(f"{name} must be positive")


def _fmt(x):
    return f"{float(x):.12e}"


def report_header(config, spec_text, resolutions):
    """Common header block: convention, resolutions, tolerances, seed,
    and the raw spec text between echo markers."""
    res = " ".join(f"{k}={v}" for k, v in resolutions.items())
    lines = [
        "# maform report",
        f"# command: {config.command}",
        f"# convention: {CONVENTION}",
        f"# resolutions: {res}",
        f"# tolerances: moser={config.moser_tol:.3e} mode={config.mode_tol:.3e}",
        f"# seed: {config.seed}",
        "# spec-echo-begin",
        spec_text.rstrip("\n"),
        "# spec-echo-end",
    ]
    return lines


def _write_report(config, name, lines):
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# spec files


def _reject_unknown_names(expr, allowed, line_no, line, val):
    """Raise SpecParseError at the first name in the expression text val
    (on the spec line line) that is neither an allowed coordinate nor a
    known function; compiled code would only fail on it when called."""
    unknown = {s.name for s in expr.free_symbols - set(allowed)}
    unknown |= {f.func.__name__ for f in expr.atoms(AppliedUndef)}
    if unknown:
        found = [m for m in re.finditer(r"[A-Za-z_]\w*", val) if m.group() in unknown]
        name, offset = (found[0].group(), found[0].start()) if found else (min(unknown), 0)
        raise SpecParseError(line_no, _value_col(line, val) + offset, f"unknown name {name!r}")


def load_domain_file(path):
    """Read a domain spec; a tau.expr line overrides the gauge-based
    construction with an arbitrary ambient exhaustion expression."""
    with open(path) as fh:
        text = fh.read()
    tau_expr = None
    kept = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("tau.expr"):
            _, eq, val = stripped.partition("=")
            if not eq or not val.strip():
                raise SpecParseError(line_no, 1, "tau.expr needs a value")
            tau_expr = (line_no, line, val.strip())
            line = ""  # a blank line keeps the line numbers of what follows
        kept.append(line)
    body = "\n".join(kept)
    if tau_expr is not None and "mu.kind" not in body:
        # an ambient exhaustion replaces the gauge; keep the grammar happy
        body += "\nmu.kind = ball"
    spec = parse_domain_spec(body)
    exh_override = None
    if tau_expr is not None:
        line_no, line, val = tau_expr
        coords = ambient_coords(spec.n)
        try:
            expr = sp.sympify(val, locals={str(c): c for c in coords})
        except (sp.SympifyError, SyntaxError, TypeError):
            raise SpecParseError(line_no, 1, f"bad tau.expr: {val!r}")
        _reject_unknown_names(expr, coords, line_no, line, val)
        exh_override = ExhaustionField(n=spec.n, tau_ambient=expr)
    return spec, exh_override, text


def load_tensor_file(path):
    """Parse a synthetic-tensor spec: resolution keys, checked like those
    of a domain spec (domains.parse_spec_value), plus mode entries.

    Mode lines read 'mode k a b = expr' with a, b in 1..n-1 and expr a
    closed-form coefficient in the base coordinate v (v1, v2 for n = 3);
    conjugate(v) is allowed.
    """
    from .atlas import ChartAtlas, FiberGrid

    with open(path) as fh:
        text = fh.read()
    values = {"n": 2, "N_v": 17, "N_r": 8, "N_theta": 16, "k_max": 0}
    entries = []
    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SpecParseError(line_no, 1, "expected 'key = value'")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key.startswith("mode"):
            parts = key.split()
            if len(parts) != 4:
                raise SpecParseError(line_no, 1, "expected 'mode k a b = expr'")
            try:
                k, a, b = (int(p) for p in parts[1:])
            except ValueError:
                raise SpecParseError(line_no, 1, f"bad mode indices: {key!r}")
            entries.append((line_no, k, a, b, val))
            continue
        if key not in values:
            col = line.index(key) + 1
            raise SpecParseError(line_no, col, f"unknown key {key!r}")
        values[key] = parse_spec_value(key, line_no, line, val, int)

    n = values["n"]
    if n == 2:
        syms = [sp.Symbol("v")]
    else:
        syms = [sp.Symbol(f"v{i+1}") for i in range(n - 1)]
    local = {str(s): s for s in syms}
    local["conj"] = sp.conjugate
    k_max = values["k_max"]
    exprs = []
    for line_no, k, a, b, val in entries:
        if not (0 <= k <= k_max and 1 <= a <= n - 1 and 1 <= b <= n - 1):
            raise SpecParseError(line_no, 1, f"mode indices out of range: {k} {a} {b}")
        try:
            expr = sp.sympify(val, locals=local)
        except (sp.SympifyError, SyntaxError, TypeError):
            raise SpecParseError(line_no, 1, f"bad coefficient: {val!r}")
        _reject_unknown_names(expr, syms, line_no, lines[line_no - 1], val)
        exprs.append(expr)
    coefficients = compile_exprs(syms, exprs)

    def call(v, i):
        v = np.asarray(v)
        args = [v] if n == 2 else [v[..., j] for j in range(n - 1)]
        return np.asarray(coefficients(*args)[i], dtype=complex)

    fn_entries = [
        (k, a - 1, b - 1, lambda v, i=i: call(v, i))
        for i, (_, k, a, b, _) in enumerate(entries)
    ]

    atlas = ChartAtlas(
        n=n,
        n_v=values["N_v"],
        fiber=FiberGrid(n_r=values["N_r"], n_theta=values["N_theta"]),
    )
    tensor = tensor_from_mode_functions(atlas, n, fn_entries, k_max)
    return tensor, values, text


# ---------------------------------------------------------------------------
# commands


def _moser_spec(config):
    """Domain spec and text of a command that runs the Moser pipeline: a
    gauge-based circular domain with n = 2, the only dimension whose
    curvature data is implemented."""
    spec, exh_override, raw = load_domain_file(config.domain_path)
    _validate(config)
    if exh_override is not None:
        raise DomainError(f"{config.command} needs a gauge-based circular domain")
    if spec.n != 2:
        raise SpecParseError(
            *spec.n_at, f"{config.command} is implemented for n = 2 only, got n = {spec.n}"
        )
    return spec, raw


def _pipeline_tensor(config, spec):
    """Full pipeline: gauge -> normalizing map -> deformation tensor."""
    mink, _ = make_circular_domain(spec.mu_spec())
    nm = normalize_domain(mink, atlas=spec.atlas(), n_steps=config.rk4_steps)
    return extract(nm, k_max=config.k_max), nm


def cmd_verify(config):
    spec, exh_override, raw = load_domain_file(config.domain_path)
    _validate(config)
    if exh_override is not None:
        exh = exh_override
    else:
        _, exh = make_circular_domain(spec.mu_spec())
    report = verify_ma_identities(
        exh, n_samples=config.n_samples, seed=config.seed
    )
    res = {"N_v": spec.n_v, "N_r": spec.n_r, "N_theta": spec.n_theta}
    lines = report_header(config, raw, res)
    lines.append("# identity  residual  tolerance  verdict")
    for key in sorted(report["pass"]):
        ok = report["pass"][key]
        lines.append(
            f"{key}  {_fmt(report[key])}  "
            f"{report['tolerances'][key]:.3e}  {'pass' if ok else 'fail'}"
        )
    lines.append(f"all_pass: {'pass' if report['all_pass'] else 'fail'}")
    path = _write_report(config, "verify_report.txt", lines)
    print(path)
    return 0 if report["all_pass"] else 1


def cmd_normalize(config):
    spec, raw = _moser_spec(config)
    mink, _ = make_circular_domain(spec.mu_spec())
    nm = normalize_domain(mink, atlas=spec.atlas(), n_steps=config.rk4_steps)

    ext = "bin" if config.binary else "dat"
    os.makedirs(config.out_dir, exist_ok=True)
    psi_path = os.path.join(config.out_dir, f"map_psi.{ext}")
    lam_path = os.path.join(config.out_dir, f"map_lambda.{ext}")
    dump_records(
        [(c, nm.W[c]) for c in sorted(nm.W)], psi_path, binary=config.binary
    )
    dump_records(
        [(c, nm.lam[c].astype(complex)) for c in sorted(nm.lam)],
        lam_path,
        binary=config.binary,
    )

    res = {
        "N_v": spec.n_v,
        "N_r": spec.n_r,
        "N_theta": spec.n_theta,
        "rk4_steps": config.rk4_steps,
    }
    lines = report_header(config, raw, res)
    lines.append(f"psi_table: {os.path.basename(psi_path)}")
    lines.append(f"lambda_table: {os.path.basename(lam_path)}")
    lines.append("# residual  value")
    for key in sorted(nm.residuals):
        lines.append(f"{key}  {_fmt(nm.residuals[key])}")
    failed = (
        nm.residuals["gauge_normalization"] > config.moser_tol
        or nm.residuals["connection_mismatch"] > config.moser_tol
    )
    lines.append(f"all_pass: {'fail' if failed else 'pass'}")
    path = _write_report(config, "normalize_report.txt", lines)
    print(path)
    return 1 if failed else 0


def cmd_invariants(config):
    spec, raw = _moser_spec(config)
    tensor, _ = _pipeline_tensor(config, spec)

    ext = "bin" if config.binary else "dat"
    os.makedirs(config.out_dir, exist_ok=True)
    tensor_path = os.path.join(config.out_dir, f"tensor_modes.{ext}")
    records = []
    for c in tensor.charts:
        for k in range(tensor.k_max + 1):
            records.append((c, tensor.modes[c][k]))
    dump_records(records, tensor_path, binary=config.binary)

    norms = tensor.mode_norms()
    res = {
        "N_v": spec.n_v,
        "N_r": spec.n_r,
        "N_theta": spec.n_theta,
        "rk4_steps": config.rk4_steps,
        "k_max": config.k_max,
    }
    lines = report_header(config, raw, res)
    lines.append(f"tensor_table: {os.path.basename(tensor_path)}")
    lines.append("# mode  norm")
    for k, v in enumerate(norms):
        lines.append(f"{k:4d}  {_fmt(v)}")
    lines.append(f"positive_mode_total: {_fmt(np.sum(norms[1:]))}")
    path = _write_report(config, "invariants_report.txt", lines)
    print(path)
    return 0


def cmd_classify(config):
    if config.tensor_path:
        tensor, values, raw = load_tensor_file(config.tensor_path)
        _validate(config)
        res = {k: values[k] for k in ("N_v", "N_r", "N_theta", "k_max")}
    else:
        spec, raw = _moser_spec(config)
        tensor, _ = _pipeline_tensor(config, spec)
        res = {
            "N_v": spec.n_v,
            "N_r": spec.n_r,
            "N_theta": spec.n_theta,
            "rk4_steps": config.rk4_steps,
            "k_max": config.k_max,
        }
    report = classify(tensor, tol_circular=config.mode_tol)
    lines = report_header(config, raw, res)
    lines.extend(report.lines())
    path = _write_report(config, "classify_report.txt", lines)
    print(path)
    return 0


def cmd_scale_test(config):
    tensor, values, raw = load_tensor_file(config.tensor_path)
    _validate(config)
    report = scaling_test(tensor, config.ratio, iters=config.iters)
    res = {k: values[k] for k in ("N_v", "N_r", "N_theta", "k_max")}
    lines = report_header(config, raw, res)
    lines.extend(report.lines())
    path = _write_report(config, "scale_report.txt", lines)
    print(path)
    return 0 if all(report.verdicts.values()) else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maform",
        description="Monge-Ampere foliations, Moser normalization and "
        "deformation invariants of circular domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain=False, tensor=False, either=False):
        if domain or either:
            p.add_argument(
                "--domain", required=domain, help="domain spec file"
            )
        if tensor or either:
            p.add_argument(
                "--tensor", required=tensor, help="synthetic-tensor spec file"
            )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=13)
        p.add_argument("--binary", action="store_true", help="binary dumps")
        p.add_argument("--moser-tol", type=float, default=1e-6)
        p.add_argument("--mode-tol", type=float, default=1e-5)
        p.add_argument("--steps", type=int, default=200, help="RK4 steps")
        p.add_argument("--kmax", type=int, default=7, help="fiber mode cutoff")

    p = sub.add_parser("verify", help="exhaustion identity suite")
    common(p, domain=True)
    p.add_argument("--samples", type=int, default=40)

    p = sub.add_parser("normalize", help="Moser pipeline and map dump")
    common(p, domain=True)

    p = sub.add_parser("invariants", help="deformation-tensor mode table")
    common(p, domain=True)

    p = sub.add_parser("classify", help="circularity and ball verdicts")
    common(p, either=True)

    p = sub.add_parser("scale-test", help="contraction iteration trace")
    common(p, tensor=True)
    p.add_argument("--k", type=float, default=0.5, help="contraction ratio")
    p.add_argument("--iters", type=int, default=20)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "normalize": cmd_normalize,
    "invariants": cmd_invariants,
    "classify": cmd_classify,
    "scale-test": cmd_scale_test,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = RunConfig(
        command=args.command,
        domain_path=getattr(args, "domain", None),
        tensor_path=getattr(args, "tensor", None),
        out_dir=args.out,
        seed=args.seed,
        binary=args.binary,
        moser_tol=args.moser_tol,
        mode_tol=args.mode_tol,
        rk4_steps=args.steps,
        k_max=args.kmax,
        n_samples=getattr(args, "samples", 40),
        ratio=getattr(args, "k", 0.5),
        iters=getattr(args, "iters", 20),
    )
    if config.command == "classify" and not (
        config.domain_path or config.tensor_path
    ):
        print("error: classify needs --domain or --tensor", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MoserError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
