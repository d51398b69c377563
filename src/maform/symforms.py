"""Exact numeric derivatives of sympy expressions, and the packing of
complex points into real chart coordinates.

Every sympy -> numpy evaluation and every derivative in the package goes
through Jet.compile: one walk of the expression tree emits straight-line
numpy source for the expression and its partials up to order 3 (source
transformation; Griewank & Walther, Evaluating Derivatives, ch. 6 and
13), exec'd once and memoized for the life of the process.  Order 0 is
plain evaluation.

Convention: dc = i(dbar - d) for the standard structure J_o, so on a
function dc f = -J^T grad f in components and ddc f has the matrix
(HJ)^T - HJ of its Hessian H (ddc_matrix); ddc |z|^2 = 4 dx^dy.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import sympy as sp

from . import exterior

_Z = sp.Dummy("z")
# the univariate functions of the spec grammar (domains._FUNCTIONS): the
# numpy function and the first derivative, whose jet gives the rest (built
# at first use: sympy expressions cost time to build)
_UNARY = {
    sp.exp: ("exp", sp.exp),
    sp.log: ("log", lambda z: 1 / z),
    sp.sin: ("sin", sp.cos),
    sp.cos: ("cos", lambda z: -sp.sin(z)),
    sp.tan: ("tan", lambda z: 1 + sp.tan(z) ** 2),
    sp.asin: ("arcsin", lambda z: 1 / sp.sqrt(1 - z**2)),
    sp.acos: ("arccos", lambda z: -1 / sp.sqrt(1 - z**2)),
    sp.atan: ("arctan", lambda z: 1 / (1 + z**2)),
    sp.sinh: ("sinh", sp.cosh),
    sp.cosh: ("cosh", sp.sinh),
    sp.tanh: ("tanh", lambda z: 1 - sp.tanh(z) ** 2),
    sp.asinh: ("arcsinh", lambda z: 1 / sp.sqrt(1 + z**2)),
    sp.acosh: ("arccosh", lambda z: 1 / (sp.sqrt(z - 1) * sp.sqrt(z + 1))),
    sp.atanh: ("arctanh", lambda z: 1 / (1 - z**2)),
}
_LINEAR = {sp.conjugate: "conj", sp.re: "real", sp.im: "imag"}
# the names emitted source reads; inf and nan stand for folded numbers
# that overflow
_NAMESPACE = {
    name: getattr(np, name)
    for name in [f for f, _ in _UNARY.values()] + list(_LINEAR.values())
    + ["full", "broadcast", "inf", "nan"]
}
# (coords, expr, order) -> compiled jet; expressions are immutable, so a
# hit is the same function whatever caller asked first
_COMPILED = {}


def _indices(d, order):
    """The sorted multi-indices of the partials of a function of d
    variables up to order, by order and then lexicographically."""
    return [I for k in range(order + 1) for I in combinations_with_replacement(range(d), k)]


@lru_cache(maxsize=None)
def _leibniz(I):
    """Leibniz's rule for d_I (f g): {(J, K): count} over the subsets of
    the index positions of I, J taken by f and K by g."""
    k = len(I)
    return Counter(
        (tuple(I[i] for i in S), tuple(I[i] for i in range(k) if i not in S))
        for r in range(k + 1) for S in combinations(range(k), r)
    )


def _number(e):
    """The Python number of a sympy number."""
    return float(e) if e.is_extended_real else complex(e)


def _literal(c):
    """The source text of a Python number, an atom of any expression."""
    text = repr(c if isinstance(c, complex) else float(c))
    return f"({text})" if text.startswith("-") else text


class _Walk:
    """One walk of a jet over the multi-indices up to order in d
    variables, its leaves seeded by seeds {symbol: jet}.

    A jet is {multi-index: component}, an absent index being zero; a
    component is a number, a name bound in the shared source lines
    {right-hand side: name} (the same text is bound once), or a pair
    (number, name) for their product, which is folded into the next sum.
    """

    def __init__(self, lines, seeds, d, order):
        self.lines, self.seeds, self.d, self.order = lines, seeds, d, order
        self.idx = _indices(d, order)
        self.memo = {}

    def bind(self, text):
        if text not in self.lines:
            self.lines[text] = f"t{len(self.lines)}"
        return self.lines[text]

    def sum(self, terms):
        """The component of the sum of coef * product(factors) over the
        terms (coef, factors), numbers and scaled names folded."""
        const, parts = 0, []
        for coef, factors in terms:
            names = []
            for f in factors:
                if isinstance(f, tuple):
                    coef, f = coef * f[0], f[1]
                if isinstance(f, str):
                    names.append(f)
                else:
                    coef *= f
            if coef != 0 and names:
                parts.append((coef, " * ".join(names)))
            elif coef != 0:
                const += coef
        if len(parts) == 1 and const == 0 and " " not in parts[0][1]:
            coef, name = parts[0]
            return name if coef == 1 else (coef, name)
        text = [name if coef == 1 else f"{_literal(coef)} * {name}" for coef, name in parts]
        return self.bind(" + ".join(text + [_literal(const)] * (const != 0))) if parts else const

    def term(self, c):
        """The source text of a component: a name or a number."""
        if isinstance(c, tuple):
            return self.bind(f"{_literal(c[0])} * {c[1]}")
        return c if isinstance(c, str) else _literal(c)

    def __call__(self, e):
        if e not in self.memo:
            self.memo[e] = self.rule(e)
        return self.memo[e]

    def rule(self, e):
        """The jet of the node e: numbers (pi, E, I) are constants, u^w for
        w not a number is exp(w log u), conjugate, re and im act on every
        part, abs and arg (atan2) go through powers and log; any node not
        named here or in _UNARY, and a number that is not finite, raises
        ValueError."""
        f, args = type(e), e.args
        if e in self.seeds:
            return self.seeds[e]
        if e.is_number:
            if not np.isfinite(_number(e)):
                raise ValueError(f"non-finite number {e} in an expression")
            return {(): _number(e)}
        if e.is_Add:
            return self.combine([(1, self(a)) for a in args])
        if e.is_Mul:
            return reduce(self.mul, map(self, args))
        if e.is_Pow and e.exp.is_number:
            return self.power(self(e.base), e.exp)
        if e.is_Pow:
            return self.unary(sp.exp, self.mul(self(e.exp), self.unary(sp.log, self(e.base))))
        if f in _LINEAR:
            return self.linear(_LINEAR[f], self(args[0]))
        if f is sp.Abs:  # |u| = (u conj u)^(1/2)
            u = self(args[0])
            return self.power(self.mul(u, self.linear("conj", u)), sp.S.Half)
        if f in (sp.arg, sp.atan2):  # arg u = Im log u, atan2(y, x) = arg(x + iy)
            u = self(args[0]) if f is sp.arg else self.combine([(1, self(args[1])), (1j, self(args[0]))])
            return self.linear("imag", self.unary(sp.log, u))
        if f in _UNARY:
            return self.unary(f, self(args[0]))
        raise ValueError(f"no jet rule for {f.__name__} node {e}")

    def combine(self, terms):
        """The linear combination of the jets of terms (coef, jet)."""
        return {I: self.sum((c, [u[I]]) for c, u in terms if I in u) for I in self.idx}

    def linear(self, name, u):
        """The numpy map name (conj, real or imag) of every part of u."""
        return {I: self.bind(f"{name}({self.term(u[I])})") for I in self.idx if I in u}

    def mul(self, u, v):
        """Leibniz's rule."""
        return {
            I: self.sum((n, [u.get(J, 0), v.get(K, 0)]) for (J, K), n in _leibniz(I).items())
            for I in self.idx
        }

    def chain(self, value, first, u):
        """g(u) from the source text of its value and its first derivative
        g'(_Z), by Faa di Bruno's formula in recursive form: d_(i, I) g(u)
        = d_I (g'(u) d_i u), with the jet of g'(u) one order lower."""
        out = {(): self.bind(value)}
        if self.order:
            dg = _Walk(self.lines, {_Z: u}, self.d, self.order - 1)(first)
            for i, *rest in self.idx[1:]:
                out[(i, *rest)] = self.sum(
                    (n, [dg.get(J, 0), u.get(tuple(sorted((i,) + K)), 0)])
                    for (J, K), n in _leibniz(tuple(rest)).items()
                )
        return out

    def unary(self, func, u):
        """func(u) for a function of _UNARY."""
        name, first = _UNARY[func]
        return self.chain(f"{name}({self.term(u.get((), 0))})", first(_Z), u)

    def power(self, u, p):
        """u^p for a sympy number p."""
        return self.chain(f"{self.term(u.get((), 0))} ** {_literal(_number(p))}", p * _Z ** (p - 1), u)


class Jet:
    """The partials of an expression at N points: parts[k] (N,) + (d,) * k
    holds its k-th partials, for k up to the order."""

    def __init__(self, parts):
        self.parts = list(parts)

    grad = property(lambda self: self.parts[1])
    hess = property(lambda self: self.parts[2])

    @staticmethod
    def compile(expr, coords, order):
        """The numpy function of the jet of the sympy expression expr in
        coords up to order (0 to 3), compiled once per process.

        The function takes one array per coordinate, real or complex (they
        broadcast), and returns the tuple of the partials d_I expr over the
        sorted multi-indices I, by order and then lexicographically: for
        (x, y) at order 2, the value, d_x, d_y, d_xx, d_xy and d_yy.  The
        rules of _Walk.rule cover the spec grammar; any other node raises
        ValueError.
        """
        key = (tuple(coords), sp.sympify(expr), order)
        if key not in _COMPILED:
            d = len(key[0])
            lines = {}
            seeds = {c: {(): f"x{k}", (k,): 1} for k, c in enumerate(key[0])}
            walk = _Walk(lines, seeds, d, order)
            jet = walk(key[1])
            comps = [jet.get(I, 0) for I in walk.idx]
            out = [walk.term(c) if isinstance(c, (str, tuple)) else f"full(shape, {_literal(c)})"
                   for c in comps]
            args = ", ".join(f"x{k}" for k in range(d))
            body = [f"    {name} = {text}" for text, name in lines.items()]
            if len(out) > sum(isinstance(c, (str, tuple)) for c in comps):
                body.append(f"    shape = broadcast({args}).shape")
            source = "\n".join([f"def jet({args}):", *body, f"    return ({', '.join(out)},)"])
            namespace = dict(_NAMESPACE)
            exec(source, namespace)
            _COMPILED[key] = namespace["jet"]
        return _COMPILED[key]

    @classmethod
    def of(cls, expr, coords, points, order):
        """The jet of the sympy expression expr in coords at real points
        (N, d), its parts the full symmetric tensors of Jet.compile's
        partials."""
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        comps = cls.compile(expr, coords, order)(*points.T)
        dtype = np.result_type(*comps)
        parts = [np.empty((n,) + (d,) * k, dtype) for k in range(order + 1)]
        for I, c in zip(_indices(d, order), comps):
            for perm in set(permutations(I)):
                parts[len(I)][(slice(None),) + perm] = c
        return cls(parts)


def ddc_matrix(hess):
    """The antisymmetric matrix A (..., d, d) of ddc f from the Hessian of f
    (..., d, d): A = (HJ)^T - HJ, since dc f = -J^T grad f in components."""
    HJ = hess @ exterior.standard_j_matrix(hess.shape[-1])
    return np.swapaxes(HJ, -1, -2) - HJ


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
