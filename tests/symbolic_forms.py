"""Symbolic references for the tests: exact differential forms on one chart,
plain sympy lambdify evaluation, and the converters between sympy trees
and the package's expression nodes.

The package computes every derivative numerically from compiled jets
(maform.symforms.Jet) of its own nodes (maform.symforms.Expr); the forms
here differentiate sympy trees with sympy and evaluate them through
sympy's own lambdify, so that they share no code with the jets they
check.  Convention: dc = i(dbar - d), generalized to
dc(alpha) = (-1)^p * Jact(d(Jact(alpha))) where Jact is the tensor action
(J alpha)(X_1..X_p) = (-1)^p alpha(J X_1, .., J X_p); d(dc)|z|^2 = 4 dx^dy.
"""

import numpy as np
import sympy as sp

from maform import symforms
from maform.exterior import merge_indices, wedge_comps

# node kind <-> sympy function
SYMPY_FUNCTIONS = {
    **{name: getattr(sp, name) for name in symforms._UNARY},
    "conj": sp.conjugate, "re": sp.re, "im": sp.im, "abs": sp.Abs, "arg": sp.arg, "atan2": sp.atan2,
}
_NODE_KINDS = {f: name for name, f in SYMPY_FUNCTIONS.items()}


def standard_j_matrix(dim):
    """The matrix of the standard structure J_o on tangent vectors,
    J e_2m = e_2m+1 and J e_2m+1 = -e_2m: the reference of the signed
    swaps of symforms.times_j."""
    J = np.zeros((dim, dim))
    for m in range(0, dim, 2):
        J[m + 1, m] = 1.0
        J[m, m + 1] = -1.0
    return J


def to_sympy(e, real=True):
    """The sympy tree of a node (or a number), node for node (unevaluated);
    its symbols are real, or complex with real=False."""
    e = symforms.as_node(e)
    if e.kind == "sym":
        return sp.Symbol(e.args[0], real=True) if real else sp.Symbol(e.args[0])
    if e.kind == "num":
        return sp.sympify(e.args[0])
    args = [to_sympy(a, real) for a in e.args]
    func = {"add": sp.Add, "mul": sp.Mul, "pow": sp.Pow}.get(e.kind) or SYMPY_FUNCTIONS[e.kind]
    return func(*args, evaluate=False)


def from_sympy(e):
    """The node of a sympy tree: numbers fold to Python numbers, symbols
    keep their names."""
    e = sp.sympify(e)
    if e.is_Symbol:
        return symforms.sym(e.name)
    if e.is_number:
        return symforms.num(complex(e))
    args = [from_sympy(a) for a in e.args]
    if e.is_Add:
        return symforms.add(*args)
    if e.is_Mul:
        return symforms.mul(*args)
    if e.is_Pow:
        return symforms.power(*args)
    if type(e) not in _NODE_KINDS:
        raise ValueError(f"no node for the sympy function {type(e).__name__}")
    return symforms.call(_NODE_KINDS[type(e)], *args)


def sympy_coords(coords, real=True):
    """The sympy symbols of symbol nodes."""
    return tuple(to_sympy(c, real) for c in coords)


def lambdify_rows(coords, exprs):
    """The numpy function of exprs in coords by one plain sp.lambdify; it
    returns an array (len(exprs),) + the broadcast shape of its arguments."""
    fn = sp.lambdify(coords, list(exprs), modules="numpy")

    def rows(*args):
        shape = np.broadcast(*args).shape
        return np.array([np.broadcast_to(v, shape) for v in fn(*args)])

    return rows


def jo_comps(A):
    """Components of the tensor action of J_o on the form with components A.

    J e_{2m} = e_{2m+1} and J e_{2m+1} = -e_{2m}, so alpha(J e_{i1}, ..,
    J e_{ip}) is alpha_K for the sorted mapped axes K, with the sign of the
    odd axes of I and the parity of the sort.
    """
    out = {}
    for I, a in A.items():
        sign, K = merge_indices(tuple(i ^ 1 for i in I), ())
        sign *= (-1) ** sum(i % 2 for i in I)
        out[K] = out.get(K, 0) + sign * a
    return out


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

    @classmethod
    def scalar(cls, coords, expr):
        return cls(coords, 0, {(): expr})

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

    def d(self):
        if self.degree >= self.dim:
            raise ValueError("degree overflow in exterior derivative")
        comps = {}
        for idx, expr in self.comps.items():
            for k, xk in enumerate(self.coords):
                res = merge_indices((k,), idx)
                if res is not None:
                    sign, new = res
                    comps[new] = comps.get(new, 0) + sign * sp.diff(expr, xk)
        return AnalyticForm(self.coords, self.degree + 1, comps)

    def jconj(self):
        """Tensor action of J_o: (J a)(X..) = (-1)^p a(J X..).

        jo_comps runs over source indices; because J_o maps basis
        covectors to signed basis covectors and J_o^{-1} = -J_o, the
        per-axis inverse signs exactly absorb the (-1)^p prefactor.
        """
        return AnalyticForm(self.coords, self.degree, jo_comps(self.comps))

    def dc(self):
        """dc = (-1)^p Jact d Jact; equals i(dbar-d) on scalars."""
        out = self.jconj().d().jconj()
        return out.scale((-1) ** self.degree)

    def wedge(self, other):
        if self.coords != other.coords:
            raise ValueError("mismatched charts")
        deg = min(self.degree + other.degree, self.dim)
        return AnalyticForm(self.coords, deg, wedge_comps(self.comps, other.comps))

    def evaluate(self, points):
        """All components at real points (N, dim): {index tuple: complex
        (N,) array}; indices absent from the form are zero and omitted."""
        points = np.asarray(points, dtype=float)
        if not self.comps:
            return {}
        vals = lambdify_rows(self.coords, self.comps.values())(*points.T)
        return dict(zip(self.comps, vals.astype(complex)))

    def matrix_at(self, points):
        """For a 2-form, the full antisymmetric coefficient matrix per point."""
        if self.degree != 2:
            raise ValueError("matrix_at needs a 2-form")
        A = np.zeros((len(points), self.dim, self.dim), dtype=complex)
        for (i, j), arr in self.evaluate(points).items():
            A[:, i, j] = arr
            A[:, j, i] = -arr
        return A

    def scalar_at(self, points):
        if self.degree != 0:
            raise ValueError("scalar_at needs a 0-form")
        return self.evaluate(points).get((), np.zeros(len(points), dtype=complex))
