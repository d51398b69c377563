"""Symbolic (exact) differential forms on a single coordinate chart.

Coefficients are sympy expressions in the real chart coordinates and all
derivatives are exact.  Every sympy -> numpy
conversion in the package goes through compile_exprs: one lambdify call
with common-subexpression elimination per list of expressions, memoized
for the life of the process.

Convention: dc = i(dbar - d) for the standard structure J_o, generalized to
dc(alpha) = (-1)^p * Jact(d(Jact(alpha))) where Jact is the tensor action
(J alpha)(X_1..X_p) = (-1)^p alpha(J X_1, .., J X_p).  With this choice
d(dc)|z|^2 = 4 dx^dy.
"""

from __future__ import annotations

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


class Jet:
    """Second-order forward-mode jet of a real function at N points: the
    value (N,), the gradient (N, d) and the Hessian (N, d, d), propagated
    through + - * / and numeric powers, with numbers on either side
    (Griewank & Walther, Evaluating Derivatives, ch. 13)."""

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @classmethod
    def of(cls, expr, coords, points):
        """The jet of the sympy expression expr in coords at real points
        (N, d), by a walk of its Add/Mul/Pow/Symbol/Number tree; any other
        node raises TypeError."""
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        zero_hess = np.broadcast_to(0.0, (n, d, d))
        seeds = {
            c: cls(points[:, k], np.broadcast_to(np.eye(d)[k], (n, d)), zero_hess)
            for k, c in enumerate(coords)
        }

        def walk(e):
            if e in seeds:
                return seeds[e]
            if e.is_Number:
                return float(e)
            if e.is_Add or e.is_Mul:
                args = [walk(a) for a in e.args]
                out = args[0]
                for a in args[1:]:
                    out = out + a if e.is_Add else out * a
                return out
            if e.is_Pow and e.exp.is_Number:
                return walk(e.base) ** (int(e.exp) if e.exp.is_Integer else float(e.exp))
            raise TypeError(f"no jet rule for {type(e).__name__} node {e}")

        out = walk(sp.sympify(expr))
        if not isinstance(out, cls):  # a constant
            return cls(np.full(n, out), np.zeros((n, d)), np.zeros((n, d, d)))
        return out

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val * other, self.grad * other, self.hess * other)
        cross = self.grad[:, :, None] * other.grad[:, None, :]
        return Jet(
            self.val * other.val,
            self.grad * other.val[:, None] + self.val[:, None] * other.grad,
            self.hess * other.val[:, None, None] + cross + cross.swapaxes(1, 2)
            + self.val[:, None, None] * other.hess,
        )

    __rmul__ = __mul__

    def __pow__(self, p):
        """(f^p)' = p f^(p-1) f' and (f^p)'' = p f^(p-1) f'' + p (p-1)
        f^(p-2) f' f'^T, for a number p."""
        v1 = p * self.val ** (p - 1)
        v2 = p * (p - 1) * self.val ** (p - 2)
        g = self.grad
        return Jet(
            self.val**p,
            v1[:, None] * g,
            v1[:, None, None] * self.hess + v2[:, None, None] * g[:, :, None] * g[:, None, :],
        )

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
