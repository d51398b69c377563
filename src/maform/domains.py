"""Complete circular domains: gauge data, exhaustions, and spec files.

A complete circular domain is described by its degree-1 homogeneous gauge mu
on C^n.  On the blow-up charts the gauge is carried by the chart functions
m(v) = mu((1, v)) (and its permutations), and the exhaustion is tau = mu^2.
All closed-form domains keep exact sympy expressions, mu^2 in the ambient
real coordinates and m^2 in the chart coordinates, so downstream identity
checks can run at symbolic accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .atlas import ChartAtlas, blowup_forward
from .exterior import standard_j_matrix
from .symforms import AnalyticForm, Jet, real_coords, to_complex, to_real


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
    names = " ".join(f"x{i+1} y{i+1}" for i in range(n))
    return sp.symbols(names, real=True)


def _complex_coords(coords):
    return [coords[2 * i] + sp.I * coords[2 * i + 1] for i in range(len(coords) // 2)]


def _mu_sq_expression(n, kind, params, coords):
    """Exact mu^2 as a sympy expression in the ambient real coordinates."""
    zc = _complex_coords(coords)
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
            sp.nsimplify(c) * (coords[2 * i] ** 2 + coords[2 * i + 1] ** 2)
            for i, c in enumerate(coeffs)
        )
    if kind == "perturbed_ball":
        if n != 2:
            raise DomainError("perturbed_ball is defined for n = 2")
        eps = sp.nsimplify(params.get("eps", 0.05))
        qcoeffs = params.get("q", {2: 1.0})
        w = sp.expand(zc[0] * sp.conjugate(zc[1]))
        q = sum(
            sp.nsimplify(c) * sp.re(sp.expand(w**d)) / r2**d for d, c in qcoeffs.items()
        )
        return r2 * (1 + eps * q) ** 2
    raise DomainError(f"unknown domain kind {kind!r}")


def _chart_inclusion(n, chart, v_coords):
    """Ambient substitution for the chart point with homogeneous coordinate
    1 in slot `chart` and affine coordinates v elsewhere."""
    vals = []
    k = 0
    for i in range(n):
        if i == chart:
            vals.extend([sp.Integer(1), sp.Integer(0)])
        else:
            vals.extend([v_coords[2 * k], v_coords[2 * k + 1]])
            k += 1
    return vals


@dataclass(frozen=True)
class MinkowskiField:
    """Degree-1 homogeneous gauge of a complete circular domain.

    mu_sq_ambient is the exact (sympy) mu^2 in the ambient real
    coordinates; m_sq_charts maps chart id to the exact chart expression
    m(v)^2 in the real base coordinates.
    """

    n: int
    kind: str
    params: dict
    mu_sq_ambient: object
    m_sq_charts: dict

    def base_coords(self):
        return real_coords(2 * (self.n - 1)) if self.n == 2 else ambient_coords(self.n - 1)

    def m_sq_form(self, chart):
        """Chart function m^2 as a 0-form on the base chart."""
        return AnalyticForm.scalar(self.base_coords(), self.m_sq_charts[chart])

    def m(self, chart, v):
        """m at complex base points v (n = 2) or (v1, v2) pairs (n = 3)."""
        v = np.asarray(v, dtype=complex)
        pts = to_real(v.reshape(-1, self.n - 1))
        vals = self.m_sq_form(chart).scalar_at(pts).real
        shape = v.shape if self.n == 2 else v.shape[:-1]
        return np.sqrt(vals).reshape(shape)

    def mu(self, z):
        """Gauge value at ambient points z, shape (..., n) complex."""
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 1
        zz = z[None, :] if single else z.reshape(-1, self.n)
        chart, v, zeta = blowup_forward(zz)
        out = np.empty(len(zz))
        for c in np.unique(chart):
            sel = chart == c
            vv = v[sel, 0] if self.n == 2 else v[sel]
            out[sel] = np.abs(zeta[sel]) * self.m(int(c), vv)
        if single:
            return float(out[0])
        return out.reshape(z.shape[:-1])


@dataclass(frozen=True)
class ExhaustionField:
    """Parabolic exhaustion of C^n given by its ambient expression.

    For circular domains tau(z) = mu(z)^2; a tau.expr spec line supplies
    an arbitrary smooth expression in the ambient real coordinates.
    """

    n: int
    tau_ambient: object

    def ambient_form(self):
        return AnalyticForm.scalar(ambient_coords(self.n), self.tau_ambient)


# ---------------------------------------------------------------------------
# construction and validation


def _ddc_matrix(mu_sq, coords, pts):
    """The antisymmetric matrix of ddc(mu^2) at real points (N, 2n): with
    the Hessian H of the second-order jet, A = (HJ)^T - HJ, since dc f =
    -J^T grad f in components."""
    HJ = Jet.of(mu_sq, coords, pts).hess @ standard_j_matrix(len(coords))
    return HJ.swapaxes(1, 2) - HJ


def _levi_witness(mu_sq, coords, n_samples=60, seed=7):
    """Check ddc(mu^2) > 0 at random ambient sample points off the origin;
    raises PseudoconvexityError with the offending point."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_samples, len(coords)))
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[norms > 0.3]
    AJ = _ddc_matrix(mu_sq, coords, pts) @ standard_j_matrix(len(coords))
    eigs = np.linalg.eigvalsh(0.5 * (AJ + AJ.swapaxes(1, 2)))
    worst = int(np.argmin(eigs[:, 0]))
    if eigs[worst, 0] <= 0:
        raise PseudoconvexityError(to_complex(pts[worst]), eigs[worst, 0])


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
        m_sq[chart] = mu_sq.subs(dict(zip(coords, vals)), simultaneous=True)
    mink = MinkowskiField(
        n=n, kind=kind, params=spec, mu_sq_ambient=mu_sq, m_sq_charts=m_sq
    )

    # positivity of the gauge on the chart grids
    for chart in ((0, 1) if n == 2 else (0,)):
        if n == 2:
            V = atlas.base_points(chart)
            m = mink.m(chart, V)
        else:
            V1, V2 = atlas.base_points3()
            m = mink.m(chart, np.stack([V1, V2], axis=-1))
        if np.min(m) <= 0 or not np.all(np.isfinite(m)):
            bad = np.unravel_index(np.argmin(m), m.shape)
            raise DomainError(f"gauge not positive at chart {chart} node {bad}")

    _levi_witness(mu_sq, coords)
    return mink, ExhaustionField(n=n, tau_ambient=mu_sq)


# ---------------------------------------------------------------------------
# domain spec files


@dataclass(frozen=True)
class DomainSpec:
    """Parsed text description of a domain, with the raw text preserved so
    reports can echo it bit-exactly."""

    n: int
    kind: str
    params: dict
    n_v: int
    n_r: int
    n_theta: int
    raw: str
    n_at: tuple = None  # (line, column) of the n value, when given

    def mu_spec(self):
        return {"n": self.n, "kind": self.kind, **self.params}

    def atlas(self):
        from .atlas import FiberGrid

        return ChartAtlas(
            n=self.n,
            n_v=self.n_v,
            fiber=FiberGrid(n_r=self.n_r, n_theta=self.n_theta),
        )


class SpecParseError(ValueError):
    def __init__(self, line_no, col, message):
        self.line_no = line_no
        self.col = col
        super().__init__(f"line {line_no}, column {col}: {message}")


_SPEC_KEYS = {"n", "mu.kind", "a", "b", "eps", "q", "N_v", "N_r", "N_theta"}
# integer keys: the values the pipeline can run on, and what a bad one lacks
_SPEC_RANGES = {
    "n": (lambda v: v in (2, 3), "must be 2 or 3"),
    "N_v": (lambda v: v >= 4, "must be at least 4, the nodes per axis a cubic interpolant needs"),
    "N_r": (lambda v: v >= 2, "must be at least 2 fiber radii"),
    "N_theta": (lambda v: v >= 2 and not v & (v - 1), "must be a power of two, at least 2"),
    "k_max": (lambda v: v >= 0, "must be non-negative"),
}


def _value_col(line, val):
    """Column of the value text val on a spec line, found after the '='."""
    return line.index(val, line.index("=")) + 1 if val else 1


def parse_spec_value(key, line_no, line, val, cast):
    """The value text val of key on a spec line, cast and checked against
    _SPEC_RANGES; a SpecParseError points at val."""
    col = _value_col(line, val)
    try:
        out = cast(val)
    except ValueError:
        raise SpecParseError(line_no, col, f"bad value for {key!r}: {val!r}")
    if key in _SPEC_RANGES and not _SPEC_RANGES[key][0](out):
        raise SpecParseError(line_no, col, f"{key} {_SPEC_RANGES[key][1]}, got {out}")
    return out


def parse_domain_spec(text):
    """Parse a 'key = value' domain spec.

    Recognized keys: n, mu.kind in {ball, ellipsoid, perturbed_ball},
    a, b, eps, q (comma list of degree:coeff), N_v, N_r, N_theta.  Lines
    starting with '#' and blank lines are ignored.  Errors carry line and
    column positions; an integer key outside the range the pipeline runs
    on (_SPEC_RANGES) is an error at its value.
    """
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SpecParseError(line_no, 1, "expected 'key = value'")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SPEC_KEYS:
            col = line.index(key) + 1
            raise SpecParseError(line_no, col, f"unknown key {key!r}")
        if key in values:
            raise SpecParseError(line_no, 1, f"duplicate key {key!r}")
        values[key] = (line_no, line, val)

    def take(key, default=None, cast=str):
        if key not in values:
            if default is None and key in ("mu.kind",):
                raise SpecParseError(0, 0, f"missing required key {key!r}")
            return default
        return parse_spec_value(key, *values[key], cast)

    kind = take("mu.kind")
    n = take("n", 2, int)
    params = {}
    if kind == "ellipsoid":
        params["a"] = take("a", 1.0, float)
        params["b"] = take("b", 4.0, float)
    elif kind == "perturbed_ball":
        params["eps"] = take("eps", 0.05, float)
        qraw = take("q", "2:1")

        def parse_q(s):
            out = {}
            for item in s.split(","):
                d, _, c = item.partition(":")
                out[int(d.strip())] = float(c.strip())
            return out

        if isinstance(qraw, str):
            try:
                params["q"] = parse_q(qraw)
            except ValueError:
                line_no, line, val = values["q"]
                raise SpecParseError(line_no, 1, f"bad q list: {val!r}")
    elif kind != "ball":
        line_no, line, val = values["mu.kind"]
        raise SpecParseError(line_no, _value_col(line, val), f"unknown mu.kind {val!r}")
    return DomainSpec(
        n=n,
        kind=kind,
        params=params,
        n_v=take("N_v", 33, int),
        n_r=take("N_r", 8, int),
        n_theta=take("N_theta", 16, int),
        raw=text,
        n_at=(values["n"][0], _value_col(*values["n"][1:])) if "n" in values else None,
    )
