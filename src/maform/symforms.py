"""Symbolic (exact) differential forms on a single coordinate chart, and
the numeric derivatives of sympy expressions.

Coefficients are sympy expressions in the real chart coordinates.  Every
sympy -> numpy conversion in the package goes through compile_exprs: one
lambdify call with common-subexpression elimination per list of
expressions, memoized for the life of the process.  Partials of an
expression at points, to order 3, come from its forward-mode Jet.

Convention: dc = i(dbar - d) for the standard structure J_o, generalized to
dc(alpha) = (-1)^p * Jact(d(Jact(alpha))) where Jact is the tensor action
(J alpha)(X_1..X_p) = (-1)^p alpha(J X_1, .., J X_p).  With this choice
d(dc)|z|^2 = 4 dx^dy.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from . import exterior

# (coords, exprs) -> compiled callable; expressions are immutable, so a hit
# is the same function whatever caller asked first
_COMPILED = {}


def compile_exprs(coords, exprs):
    """Compile sympy expressions in coords into one numpy callable.

    The callable takes one array per coordinate and returns an array of
    shape (len(exprs),) + broadcast shape of the arguments, component k
    holding exprs[k] (constant components are broadcast too).  Each
    (coords, exprs) pair is compiled once per process.
    """
    key = (tuple(coords), tuple(sp.sympify(e) for e in exprs))
    fn = _COMPILED.get(key)
    if fn is None:
        # lambdify's own printer for modules="numpy", whose namespace is
        # `from numpy import *` (that loads every lazily imported numpy
        # submodule): here the functions printed by name, conjugate among
        # them, resolve to their numpy namesakes, the rest import one by one
        names = {f.func.__name__ for e in key[1] for f in e.atoms(sp.Function)}
        namespace = {name: getattr(np, name) for name in names if hasattr(np, name)}
        printer = NumPyPrinter({
            "fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True,
            "user_functions": {name: name for name in namespace},
        })
        raw = sp.lambdify(key[0], list(key[1]), modules=[namespace], printer=printer, cse=True)

        def fn(*args):
            shape = np.broadcast(*args).shape
            return np.array([np.broadcast_to(v, shape) for v in raw(*args)])

        _COMPILED[key] = fn
    return fn


def ddc_matrix(hess):
    """The antisymmetric matrix A (..., d, d) of ddc f from the Hessian of f
    (..., d, d): A = (HJ)^T - HJ, since dc f = -J^T grad f in components."""
    HJ = hess @ exterior.standard_j_matrix(hess.shape[-1])
    return np.swapaxes(HJ, -1, -2) - HJ


def _scale(c, a):
    """The point values c (N,) times the array a (N, ...), point by point."""
    return c.reshape(c.shape + (1,) * (a.ndim - 1)) * a


def _sym3(a, b):
    """a_ij b_k + a_ik b_j + a_jk b_i for a (N, d, d) and b (N, d)."""
    p = a[..., None] * b[:, None, None, :]
    return p + p.transpose(0, 1, 3, 2) + p.transpose(0, 3, 1, 2)


# the value and the derivatives to order 3 at s of the univariate functions
# of the spec grammar (domains._FUNCTIONS): exp and log by hand, and those of
# _COMPILED_UNARY from sympy's derivatives, compiled once by compile_exprs
_UNARY = {
    sp.exp: lambda s: [np.exp(s)] * 4,
    sp.log: lambda s: [np.log(s), 1 / s, -1 / s**2, 2 / s**3],
}
_COMPILED_UNARY = (sp.sin, sp.cos, sp.tan, sp.asin, sp.acos, sp.atan,
                   sp.sinh, sp.cosh, sp.tanh, sp.asinh, sp.acosh, sp.atanh)
_LINEAR = {sp.conjugate: np.conj, sp.re: np.real, sp.im: np.imag}


def _unary(func, u):
    """The univariate function func at the jet or number u."""
    z = sp.Symbol("z")
    f = _UNARY.get(func) or compile_exprs((z,), [sp.diff(func(z), z, k) for k in range(4)])
    return u._chain(f(u.parts[0])) if isinstance(u, Jet) else f(u)[0]


class Jet:
    """Forward-mode jet of order 1, 2 or 3 of a function at N points, whose
    parts[k] (N,) + (d,) * k are its k-th partials, through + - * /, powers
    and univariate functions, numbers on either side and complex values
    allowed (Griewank & Walther, Evaluating Derivatives, ch. 13)."""

    def __init__(self, parts):
        self.parts = list(parts)

    grad = property(lambda self: self.parts[1])
    hess = property(lambda self: self.parts[2])

    @classmethod
    def of(cls, expr, coords, points, order):
        """The jet of the sympy expression expr in coords at real points
        (N, d), by one walk of its tree: numbers (pi, E, I) are constants, u^w
        for w not a number is exp(w log u), conjugate, re and im act on every
        part, and abs, arg and atan2 go through powers and log; any node not
        named here or in _UNARY and _COMPILED_UNARY raises ValueError."""
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        zeros = [np.zeros((n,) + (d,) * k) for k in range(order + 1)]
        eye = np.eye(d)
        seeds = {c: cls([points[:, k], np.broadcast_to(eye[k], (n, d))] + zeros[2:])
                 for k, c in enumerate(coords)}

        def walk(e):
            f, args = type(e), e.args
            if e in seeds:
                return seeds[e]
            if e.is_number:
                return float(e) if e.is_extended_real else complex(e)
            if e.is_Add or e.is_Mul:
                return reduce(operator.add if e.is_Add else operator.mul, map(walk, args))
            if e.is_Pow and e.exp.is_number:
                return walk(e.base) ** walk(e.exp)
            if e.is_Pow:
                return _unary(sp.exp, walk(e.exp) * _unary(sp.log, walk(e.base)))
            if f in _LINEAR:
                return walk(args[0]).map(_LINEAR[f])
            if f is sp.Abs:  # |u| = (u conj u)^(1/2)
                u = walk(args[0])
                return (u * u.map(np.conj)) ** 0.5
            if f in (sp.arg, sp.atan2):  # arg u = Im log u, atan2(y, x) = arg(x + iy)
                u = walk(args[0]) if f is sp.arg else walk(args[1]) + 1j * walk(args[0])
                return _unary(sp.log, u).map(np.imag)
            if f in _UNARY or f in _COMPILED_UNARY:
                return _unary(f, walk(args[0]))
            raise ValueError(f"no jet rule for {f.__name__} node {e}")

        out = walk(sp.sympify(expr))
        return out if isinstance(out, cls) else cls([np.full(n, out)] + zeros[1:])

    def map(self, f):
        """f(self) for a linear map f of the values."""
        return Jet([f(p) for p in self.parts])

    def _chain(self, f):
        """g(self) by Faa di Bruno's formula, f[k] = g^(k) at the value."""
        u = self.parts
        out = [f[0], _scale(f[1], u[1])]
        if len(u) > 2:
            out.append(_scale(f[1], u[2]) + _scale(f[2], u[1][:, :, None]) * u[1][:, None, :])
        if len(u) > 3:
            cube = (u[1][:, :, None] * u[1][:, None, :])[..., None] * u[1][:, None, None, :]
            out.append(_scale(f[1], u[3]) + _scale(f[2], _sym3(u[2], u[1])) + _scale(f[3], cube))
        return Jet(out)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.parts, other.parts)])
        return Jet([self.parts[0] + other] + self.parts[1:])

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        """Leibniz's rule, part by part."""
        if not isinstance(other, Jet):
            return self.map(lambda p: p * other)
        (f0, f1, *f), (g0, g1, *g) = self.parts, other.parts
        out = [f0 * g0, _scale(g0, f1) + _scale(f0, g1)]
        if f:
            cross = f1[:, :, None] * g1[:, None, :]
            out.append(_scale(g0, f[0]) + cross + cross.swapaxes(1, 2) + _scale(f0, g[0]))
        if f[1:]:
            out.append(_scale(g0, f[1]) + _sym3(f[0], g1) + _sym3(g[0], f1) + _scale(f0, g[1]))
        return Jet(out)

    __rmul__ = __mul__

    def __pow__(self, p):
        """f^p for a number p: the k-th derivative of s^p is the falling
        factorial p (p-1) ... (p-k+1) times s^(p-k), zero once a factor is."""
        c, f = 1, []
        for k in range(len(self.parts)):
            f.append(c * self.parts[0] ** (p - k) if c else np.zeros_like(self.parts[0]))
            c *= p - k
        return self._chain(f)

    def __truediv__(self, other):
        return self * other**-1 if isinstance(other, Jet) else self * (1.0 / other)

    def __rtruediv__(self, other):
        return other * self**-1


def real_coords(dim, prefix=None):
    """Standard real coordinate symbols.

    dim=2 -> (x, y); dim=4 -> (x, y, s, t); dim=6 -> (x1, y1, x2, y2, s, t).
    v = x + iy is the base affine coordinate, zeta = s + it the fiber one.
    """
    if prefix is not None:
        return sp.symbols(" ".join(f"{prefix}{i}" for i in range(dim)), real=True)
    if dim == 2:
        return sp.symbols("x y", real=True)
    if dim == 4:
        return sp.symbols("x y s t", real=True)
    if dim == 6:
        return sp.symbols("x1 y1 x2 y2 s t", real=True)
    raise ValueError(f"no standard coordinate set for dim {dim}")


def to_real(z):
    """Complex points (..., n) to interleaved real coordinates (..., 2n),
    z_k = x_2k + i x_2k+1, the order of real_coords and ambient_coords."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def to_complex(x):
    """Inverse of to_real: (..., 2n) real to (..., n) complex."""
    return x[..., 0::2] + 1j * x[..., 1::2]


class AnalyticForm:
    """A complex-valued p-form with sympy coefficients on one chart."""

    def __init__(self, coords, degree, comps):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        self.degree = degree
        clean = {}
        for idx, expr in comps.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(idx):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            expr = sp.sympify(expr)
            if expr != 0:
                clean[idx] = clean.get(idx, 0) + expr
        self.comps = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def scalar(cls, coords, expr):
        return cls(coords, 0, {(): expr})

    # -- algebra ------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        comps = dict(self.comps)
        for idx, e in other.comps.items():
            comps[idx] = comps.get(idx, 0) + e
        return AnalyticForm(self.coords, self.degree, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        factor = sp.sympify(factor)
        return AnalyticForm(
            self.coords, self.degree, {i: factor * e for i, e in self.comps.items()}
        )

    def _check(self, other):
        if self.coords != other.coords or self.degree != other.degree:
            raise ValueError("mismatched forms")

    # -- calculus -----------------------------------------------------
    def d(self):
        if self.degree >= self.dim:
            raise ValueError("degree overflow in exterior derivative")
        comps = {}
        for idx, expr in self.comps.items():
            for k, xk in enumerate(self.coords):
                res = exterior.merge_indices((k,), idx)
                if res is not None:
                    sign, new = res
                    comps[new] = comps.get(new, 0) + sign * sp.diff(expr, xk)
        return AnalyticForm(self.coords, self.degree + 1, comps)

    def jconj(self):
        """Tensor action of J_o: (J a)(X..) = (-1)^p a(J X..).

        exterior.jo_comps runs over source indices; because J_o maps basis
        covectors to signed basis covectors and J_o^{-1} = -J_o, the
        per-axis inverse signs exactly absorb the (-1)^p prefactor.
        """
        return AnalyticForm(self.coords, self.degree, exterior.jo_comps(self.comps))

    def dc(self):
        """dc = (-1)^p Jact d Jact; equals i(dbar-d) on scalars."""
        out = self.jconj().d().jconj()
        return out.scale((-1) ** self.degree)

    def wedge(self, other):
        if self.coords != other.coords:
            raise ValueError("mismatched charts")
        deg = min(self.degree + other.degree, self.dim)
        return AnalyticForm(self.coords, deg, exterior.wedge_comps(self.comps, other.comps))

    # -- evaluation ---------------------------------------------------
    def evaluate(self, points):
        """Evaluate all components at points, shape (N, dim) real.

        Returns dict index tuple -> complex array of shape (N,).
        Indices absent from the form are genuinely zero and omitted.
        """
        points = np.asarray(points, dtype=float)
        if not self.comps:
            return {}
        fn = compile_exprs(self.coords, self.comps.values())
        vals = np.asarray(fn(*points.T), dtype=complex)
        return dict(zip(self.comps, vals))

    def matrix_at(self, points):
        """For a 2-form, the full antisymmetric coefficient matrix per point."""
        if self.degree != 2:
            raise ValueError("matrix_at needs a 2-form")
        vals = self.evaluate(points)
        n = len(points)
        A = np.zeros((n, self.dim, self.dim), dtype=complex)
        for (i, j), arr in vals.items():
            A[:, i, j] = arr
            A[:, j, i] = -arr
        return A

    def scalar_at(self, points):
        if self.degree != 0:
            raise ValueError("scalar_at needs a 0-form")
        vals = self.evaluate(points)
        if not vals:
            return np.zeros(len(points), dtype=complex)
        return vals[()]
