"""Complete circular domains: gauge data, exhaustions, and spec files.

A complete circular domain is described by its degree-1 homogeneous gauge mu
on C^n.  On the blow-up charts the gauge is carried by the chart functions
m(v) = mu((1, v)) (and its permutations), and the exhaustion is tau = mu^2.
All closed-form domains keep their expressions (symforms.Expr), mu^2 in
the ambient real coordinates and m^2 in the chart coordinates, so that
downstream identity checks differentiate them exactly.
"""

from __future__ import annotations

import ast
import math
import operator
import random
from typing import NamedTuple

import numpy as np

from .atlas import ChartAtlas
from .symforms import Expr, Jet, call, levi_matrix, num, real_coords, subs, sym, symbols, to_complex, to_real


class DomainError(ValueError):
    """Invalid domain data (nonpositive gauge, bad spec, ...)."""


class PseudoconvexityError(DomainError):
    """Strict pseudoconvexity witness failed; carries the offending point."""

    def __init__(self, point, eigenvalue):
        self.point = np.asarray(point)
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"strict pseudoconvexity fails at z = {self.point.tolist()}: "
            f"smallest Levi eigenvalue {self.eigenvalue:.3e} <= 0"
        )


def ambient_coords(n):
    """Real coordinates of C^n: (x1, y1, ..., xn, yn)."""
    return symbols(" ".join(f"x{i+1} y{i+1}" for i in range(n)))


def _mu_sq_expression(n, kind, params, coords):
    """mu^2 as an expression in the ambient real coordinates, built in real
    arithmetic.  The perturbed ball's Re(z1 conj z2)^d is the binomial
    expansion of (a + ib)^d, a = x1 x2 + y1 y2 and b = y1 x2 - x1 y2, so
    its chart functions stay real polynomials in the chart coordinates."""
    r2 = sum(c**2 for c in coords)
    if kind == "ball":
        return r2
    if kind == "ellipsoid":
        coeffs = params.get("coeffs")
        if coeffs is None:
            coeffs = [params.get("a", 1.0), params.get("b", 4.0)]
            coeffs += [1.0] * (n - len(coeffs))
        if len(coeffs) != n or any(c <= 0 for c in coeffs):
            raise DomainError(f"ellipsoid needs {n} positive coefficients")
        return sum(
            float(c) * (coords[2 * i] ** 2 + coords[2 * i + 1] ** 2)
            for i, c in enumerate(coeffs)
        )
    if kind == "perturbed_ball":
        if n != 2:
            raise DomainError("perturbed_ball is defined for n = 2")
        x1, y1, x2, y2 = coords
        a, b = x1 * x2 + y1 * y2, y1 * x2 - x1 * y2
        q = sum(
            float(c) * sum(
                math.comb(d, j) * (-1) ** (j // 2) * a ** (d - j) * b**j for j in range(0, d + 1, 2)
            ) / r2**d
            for d, c in params.get("q", {2: 1.0}).items()
        )
        return r2 * (1 + float(params.get("eps", 0.05)) * q) ** 2
    raise DomainError(f"unknown domain kind {kind!r}")


def _chart_inclusion(n, chart, v_coords):
    """Ambient substitution for the chart point with homogeneous coordinate
    1 in slot `chart` and affine coordinates v elsewhere."""
    vals = []
    k = 0
    for i in range(n):
        if i == chart:
            vals.extend([num(1), num(0)])
        else:
            vals.extend([v_coords[2 * k], v_coords[2 * k + 1]])
            k += 1
    return vals


class MinkowskiField(NamedTuple):
    """Degree-1 homogeneous gauge of a complete circular domain.

    mu_sq_ambient is mu^2, an expression (symforms.Expr) in the ambient
    real coordinates; m_sq_charts maps chart id to the chart expression
    m(v)^2 in the real base coordinates.
    """

    n: int
    kind: str
    params: dict
    mu_sq_ambient: object
    m_sq_charts: dict

    def base_coords(self):
        return real_coords(2 * (self.n - 1)) if self.n == 2 else ambient_coords(self.n - 1)

    def m(self, chart, v):
        """m at complex base points v (n = 2) or (v1, v2) pairs (n = 3)."""
        v = np.asarray(v, dtype=complex)
        pts = to_real(v.reshape(-1, self.n - 1))
        [m_sq] = Jet.compile(self.m_sq_charts[chart], self.base_coords(), 0)(*pts.T)
        shape = v.shape if self.n == 2 else v.shape[:-1]
        return np.sqrt(np.real(m_sq)).reshape(shape)

    def mu_sq_jet(self, z):
        """mu^2 and its real gradient at ambient points z (..., n) complex,
        of shapes z.shape[:-1] and z.shape[:-1] + (2n,), from the order-1
        jet of mu_sq_ambient in the interleaved real coordinates (to_real)."""
        z = np.asarray(z, dtype=complex)
        jet = Jet.of(self.mu_sq_ambient, ambient_coords(self.n), to_real(z.reshape(-1, self.n)), order=1)
        return jet.parts[0].reshape(z.shape[:-1]), jet.grad.reshape(z.shape[:-1] + (2 * self.n,))


class ExhaustionField(NamedTuple):
    """Parabolic exhaustion of C^n given by its ambient expression.

    For circular domains tau(z) = mu(z)^2; a tau.expr spec line supplies
    an arbitrary smooth expression in the ambient real coordinates.
    """

    n: int
    tau_ambient: object


# ---------------------------------------------------------------------------
# construction and validation


def uniform_samples(seed, n, d, lo=-1.0, hi=1.0):
    """n points, shape (n, d), uniform on [lo, hi]^d from random.Random(seed)."""
    rng = random.Random(seed)
    return np.array([rng.uniform(lo, hi) for _ in range(n * d)]).reshape(n, d)


def least_levi_eigenvalues(H):
    """The least eigenvalue (N,) of the Levi forms H (N, n, n), the
    Hermitian matrices of symforms.levi_matrix.

    At n = 2 it has the closed form (H00 + H11)/2 - |((H00 - H11)/2,
    H10)|; at n = 3 it is the least eigenvalue of eigvalsh.
    """
    if H.shape[-1] > 2:
        return np.linalg.eigvalsh(H)[:, 0]
    a, d = H[:, 0, 0].real, H[:, 1, 1].real
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(H[:, 1, 0]))


def _levi_witness(mu_sq, coords, n_samples=60, seed=7):
    """Check ddc(mu^2) > 0 at random ambient sample points off the origin;
    raises PseudoconvexityError with the offending point."""
    pts = uniform_samples(seed, n_samples, len(coords))
    pts = pts[np.sqrt(np.sum(pts * pts, axis=1)) > 0.3]
    least = least_levi_eigenvalues(levi_matrix(Jet.of(mu_sq, coords, pts, order=2).hess))
    worst = int(np.argmin(least))
    if least[worst] <= 0:
        raise PseudoconvexityError(to_complex(pts[worst]), least[worst])


def make_circular_domain(mu_spec, atlas=None):
    """Build (MinkowskiField, ExhaustionField) from a gauge description.

    mu_spec: dict with keys 'kind' in {ball, ellipsoid, perturbed_ball},
    'n' (default 2), and kind parameters (a, b, eps, q).
    Validates positivity of the chart gauge and the strict-pseudoconvexity
    witness at ambient sample points.
    """
    spec = dict(mu_spec)
    n = int(spec.pop("n", 2))
    kind = spec.pop("kind")
    if atlas is None:
        atlas = ChartAtlas(n=2, n_v=33) if n == 2 else ChartAtlas(n=3, n_v=9)

    coords = ambient_coords(n)
    mu_sq = _mu_sq_expression(n, kind, spec, coords)
    base = real_coords(2 * (n - 1)) if n == 2 else ambient_coords(n - 1)
    m_sq = {}
    for chart in range(n) if n == 3 else (0, 1):
        vals = _chart_inclusion(n, chart, base)
        m_sq[chart] = subs(mu_sq, dict(zip(coords, vals)))
    mink = MinkowskiField(
        n=n, kind=kind, params=spec, mu_sq_ambient=mu_sq, m_sq_charts=m_sq
    )

    # positivity of the gauge on the chart grids
    for chart in atlas.charts:
        m = mink.m(chart, atlas.points(chart))
        if np.min(m) <= 0 or not np.all(np.isfinite(m)):
            bad = np.unravel_index(np.argmin(m), (atlas.n_v,) * (2 * n - 2))
            raise DomainError(f"gauge not positive at chart {chart} node {bad}")

    _levi_witness(mu_sq, coords)
    return mink, ExhaustionField(n=n, tau_ambient=mu_sq)


# ---------------------------------------------------------------------------
# spec files


class SpecParseError(ValueError):
    def __init__(self, line_no, col, message):
        self.line_no = line_no
        self.col = col
        super().__init__(f"line {line_no}, column {col}: {message}")


class SpecLine(NamedTuple):
    """One 'key = value' line of a spec: its number, the key and the value
    text, with the column at which each starts."""

    line_no: int
    key: str
    key_col: int
    text: str
    col: int

    def error(self, message, at_key=False):
        """A SpecParseError at the value text, or at the key."""
        return SpecParseError(self.line_no, self.key_col if at_key else self.col, message)


def read_spec(text, keys, entry=None):
    """The 'key = value' lines of a spec text, skipping blank lines and
    lines that start with '#'.

    Returns ({key: SpecLine} over the keys given, each at most once, and
    the list of SpecLines whose key's first word is entry).  A line
    without '=', an unknown key or a repeated one is an error at its
    line and column.
    """
    values, entries = {}, []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, val = stripped.partition("=")
        if not eq:
            raise SpecParseError(line_no, line.index(stripped) + 1, "expected 'key = value'")
        key, val = key.strip(), val.strip()
        at = line.index("=")
        item = SpecLine(
            line_no, key, line.index(key) + 1, val, line.index(val, at) + 1 if val else at + 2
        )
        if key.split()[:1] == [entry]:
            entries.append(item)
        elif key not in keys:
            raise item.error(f"unknown key {key!r}", at_key=True)
        elif key in values:
            raise item.error(f"duplicate key {key!r}", at_key=True)
        else:
            values[key] = item
    return values, entries


# keys with a range: the values the pipeline can run on, and what a bad one lacks
_SPEC_RANGES = {
    "n": (lambda v: v in (2, 3), "must be 2 or 3"),
    "N_v": (lambda v: v >= 4, "must be at least 4, the nodes per axis a cubic interpolant needs"),
    "N_r": (lambda v: v >= 2, "must be at least 2 fiber radii"),
    "N_theta": (lambda v: v >= 2 and not v & (v - 1), "must be a power of two, at least 2"),
    "k_max": (lambda v: v >= 0, "must be non-negative"),
    "q": (lambda q: len(dict(q)) == len(q) and all(d >= 0 and math.isfinite(c) for d, c in q),
          "must pair distinct degrees of at least 0 with finite coefficients"),
}


def parse_spec_value(item, cast):
    """The value of a SpecLine, cast and checked against _SPEC_RANGES; a
    SpecParseError points at the value."""
    try:
        out = cast(item.text)
    except ValueError:
        raise item.error(f"bad value for {item.key!r}: {item.text!r}")
    if item.key in _SPEC_RANGES and not _SPEC_RANGES[item.key][0](out):
        raise item.error(f"{item.key} {_SPEC_RANGES[item.key][1]}, got {out}")
    return out


# the function names of the spec grammar and the node kinds they build
# (symforms.CALLS); sqrt builds a power
_FUNCTIONS = dict(
    {name: name for name in "exp log sin cos tan asin acos atan sinh cosh tanh asinh acosh atanh "
     "abs conj re im".split()},
    Abs="abs", conjugate="conj", sqrt="sqrt",
)
_CONSTANTS = {"I": 1j, "pi": math.pi, "E": math.e}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}


def _call(name, *args):
    if name != "sqrt":
        return call(_FUNCTIONS[name], *args)
    if len(args) != 1:
        raise TypeError(f"sqrt takes 1 argument(s), got {len(args)}")
    return args[0] ** 0.5


def parse_expression(text, names, line_no=1, col=1):
    """The expression (symforms.Expr) of the spec text text, which starts
    at column col of line line_no.

    The text is parsed by ast and nothing in it is evaluated: the tree may
    hold only numbers, + - * / ** and unary minus, the coordinates in
    names ({name: symbol}), I, pi, E and calls of the elementary functions
    in _FUNCTIONS (conj is conjugate).  Anything else is a SpecParseError
    at its column, and so is a node whose numbers, as they fold in double
    precision, are not all finite (1/0, 1e308*10, 9**9**9, exp(1000)): no
    compiled jet can hold them.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        offset = min(max((exc.offset or 1) - 1, 0), len(text))
        raise SpecParseError(line_no, col + offset, f"bad expression: {exc.msg}")
    except ValueError as exc:  # a null byte or a lone surrogate
        raise SpecParseError(line_no, col, f"bad expression: {exc}")
    except (RecursionError, MemoryError):
        raise SpecParseError(line_no, col, "expression nested too deeply")

    def fail(node, message):
        # ast columns count UTF-8 bytes
        offset = len(text.encode()[: node.col_offset].decode(errors="ignore"))
        raise SpecParseError(line_no, col + offset, message)

    def apply(node, fn, *args):
        # numbers fold where their operands meet: one that is not finite
        # is refused at the node that made it
        try:
            out = fn(*args)
        except (ZeroDivisionError, OverflowError, ValueError):
            out = num(math.nan)
        if not all(np.isfinite(a.args[0]) for a in (out,) + out.args
                   if isinstance(a, Expr) and a.kind == "num"):
            segment = ast.get_source_segment(text, node)
            fail(node, f"{segment!r} holds a number that is not a finite double")
        return out

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return apply(node, num, node.value)
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            if node.id in _CONSTANTS:
                return num(_CONSTANTS[node.id])
            fail(node, f"unknown name {node.id!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return apply(node, _OPERATORS[type(node.op)], build(node.left), build(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return apply(node, operator.neg, build(node.operand))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _FUNCTIONS:
                fail(node.func, f"unknown name {node.func.id!r}")
            if node.keywords:
                fail(node.keywords[0], "keyword arguments are not allowed")
            args = [build(arg) for arg in node.args]
            try:
                return apply(node, _call, node.func.id, *args)
            except TypeError as exc:
                fail(node, f"bad call of {node.func.id}: {exc}")
        fail(node, f"{ast.get_source_segment(text, node)!r} is not allowed in an expression")

    try:
        return build(tree.body)
    except RecursionError:
        raise SpecParseError(line_no, col, "expression nested too deeply")


class DomainSpec(NamedTuple):
    """Parsed text description of a domain, with the raw text preserved so
    reports can echo it bit-exactly.  kind is None when a tau.expr line
    gives the exhaustion tau_expr; at maps each key given to the (line,
    column) of its value."""

    n: int
    kind: str
    params: dict
    n_v: int
    raw: str
    tau_expr: object
    at: dict

    def mu_spec(self):
        return {"n": self.n, "kind": self.kind, **self.params}

    def atlas(self):
        return ChartAtlas(n=self.n, n_v=self.n_v)


# fiber-grid sizes: range-checked when given and read by nothing, since
# the fiber is not sampled
_FIBER_KEYS = ("N_r", "N_theta")
_DOMAIN_KEYS = {"n", "mu.kind", "tau.expr", "a", "b", "eps", "q", "N_v", *_FIBER_KEYS}


def _check_fiber_keys(values):
    for key in _FIBER_KEYS:
        if key in values:
            parse_spec_value(values[key], int)


def _q_list(text):
    """A perturbed_ball q list 'degree:coeff, ...' as (degree, coeff) pairs."""
    return [(int(d), float(c)) for d, _, c in (pair.partition(":") for pair in text.split(","))]


def parse_domain_spec(text):
    """Parse a 'key = value' domain spec (read_spec).

    Keys: n, mu.kind in {ball, ellipsoid, perturbed_ball}, a, b, eps, q
    (comma list of degree:coeff), N_v, N_r, N_theta (_FIBER_KEYS: checked,
    then ignored), and tau.expr, an
    exhaustion in the ambient coordinates x1, y1, ..., xn, yn
    (parse_expression) that replaces the gauge.  mu.kind is required
    unless tau.expr is given.  Errors carry line and column positions; an
    integer key outside the range the pipeline runs on (_SPEC_RANGES) is
    an error at its value.
    """
    values, _ = read_spec(text, _DOMAIN_KEYS)

    def take(key, default, cast=str):
        return parse_spec_value(values[key], cast) if key in values else default

    kind = take("mu.kind", None)
    if kind is None and "tau.expr" not in values:
        lines = text.splitlines() or [""]  # the error points past the end of the text
        message = "missing required key 'mu.kind' (or 'tau.expr')"
        raise SpecParseError(len(lines), len(lines[-1]) + 1, message)
    n = take("n", 2, int)
    params = {}
    if kind == "ellipsoid":
        params["a"] = take("a", 1.0, float)
        params["b"] = take("b", 4.0, float)
    elif kind == "perturbed_ball":
        params["eps"] = take("eps", 0.05, float)
        params["q"] = dict(take("q", [(2, 1.0)], _q_list))
    elif kind not in ("ball", None):
        raise values["mu.kind"].error(f"unknown mu.kind {kind!r}")
    coords = {c.args[0]: c for c in ambient_coords(n)}
    tau = values.get("tau.expr")
    n_v = take("N_v", 33, int)
    _check_fiber_keys(values)
    return DomainSpec(
        n=n,
        kind=kind,
        params=params,
        n_v=n_v,
        raw=text,
        tau_expr=None if tau is None else parse_expression(tau.text, coords, tau.line_no, tau.col),
        at={key: (item.line_no, item.col) for key, item in values.items()},
    )


_TENSOR_DEFAULTS = {"n": 2, "N_v": 17, "k_max": 0}


def parse_tensor_spec(text):
    """Parse a synthetic-tensor spec (read_spec): the integer keys of
    _TENSOR_DEFAULTS and _FIBER_KEYS, checked like those of a domain spec
    (the fiber keys are then ignored), and entries
    'mode k a b = expr' with 0 <= k <= k_max, a, b in 1..n-1 and expr a
    coefficient (parse_expression) in the base coordinate v (v1, v2 for
    n = 3).

    Returns (values, coords, modes): the integer values, the coordinate
    symbols and a list of (k, a, b, expr).
    """
    items, entries = read_spec(text, {*_TENSOR_DEFAULTS, *_FIBER_KEYS}, entry="mode")
    values = {
        key: parse_spec_value(items[key], int) if key in items else default
        for key, default in _TENSOR_DEFAULTS.items()
    }
    _check_fiber_keys(items)
    n = values["n"]
    coords = [sym("v")] if n == 2 else [sym(f"v{i+1}") for i in range(n - 1)]
    names = {c.args[0]: c for c in coords}
    modes = []
    for item in entries:
        try:  # a wrong count of indices fails the unpacking
            k, a, b = (int(p) for p in item.key.split()[1:])
        except ValueError:
            raise item.error(f"expected 'mode k a b = expr', got {item.key!r}", at_key=True)
        if not (0 <= k <= values["k_max"] and 1 <= a <= n - 1 and 1 <= b <= n - 1):
            raise item.error(f"mode indices out of range: {k} {a} {b}", at_key=True)
        modes.append((k, a, b, parse_expression(item.text, names, item.line_no, item.col)))
    return values, coords, modes
