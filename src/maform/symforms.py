"""Expression nodes, their exact numeric derivatives, and the packing of
complex points into real chart coordinates.

Expr is the package's one expression type: the spec reader, the gauges
and every derived expression build it, with Python's operators and the
functions of CALLS.  Every evaluation and every derivative in the
package goes through Jet.compile: one walk of the expression tree emits
straight-line numpy source for the expression and its partials up to
order 3 (source transformation; Griewank & Walther, Evaluating
Derivatives, ch. 6 and 13), exec'd once and memoized for the life of the
process.  Order 0 is plain evaluation.

Convention: dc = i(dbar - d) for the standard structure J_o, so on a
function dc f = -J^T grad f in components and ddc f has the matrix
(HJ)^T - HJ of its Hessian H (ddc_matrix); ddc |z|^2 = 4 dx^dy.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np


class Expr:
    """An immutable expression node.

    kind is "sym" (args: the name), "num" (args: a float, or a complex
    with a nonzero imaginary part), "add" and "mul" (two or more
    operands, flattened, their numbers folded into one leading number,
    and the equal terms of a sum collected),
    "pow" (base, exponent) or a function of CALLS (its arguments).  Nodes
    are hash-consed: structurally equal nodes are one object, so equality
    is identity and a node keys a dict by its structure.  Build them with
    the operators, sym, num and call, never directly.
    """

    __slots__ = ("kind", "args")

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(-1.0, other))

    def __rsub__(self, other):
        return add(other, mul(-1.0, self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(other, power(self, -1.0))

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def __neg__(self):
        return mul(-1.0, self)

    def __reduce__(self):  # a copy or an unpickled node is the one node of its structure
        return _node, (self.kind, self.args)

    def __repr__(self):
        if self.kind in ("sym", "num"):
            return str(self.args[0])
        if self.kind in ("add", "mul"):
            return "(" + (" + " if self.kind == "add" else "*").join(map(repr, self.args)) + ")"
        if self.kind == "pow":
            return f"{self.args[0]!r}**{self.args[1]!r}"
        return f"{self.kind}({', '.join(map(repr, self.args))})"


# (kind, args) -> the one node of that structure
_NODES = {}


def _node(kind, args):
    key = (kind, args)
    if key not in _NODES:
        node = object.__new__(Expr)
        node.kind, node.args = key
        _NODES[key] = node
    return _NODES[key]


def sym(name):
    """The symbol node name."""
    return _node("sym", (name,))


def symbols(names):
    """The symbol nodes of the space-separated names."""
    return tuple(map(sym, names.split()))


def num(value):
    """The number node of a Python number (an int converts to float, and
    OverflowError if it does not fit)."""
    value = complex(value)
    return _node("num", (value.real if value.imag == 0 else value,))


def as_node(x):
    """x if it is a node, else the number node of x."""
    return x if isinstance(x, Expr) else num(x)


def add(*terms):
    """The sum node, flattened, its numbers folded into one and its terms
    c * w with equal w collected (x - x is 0)."""
    const, coefs = 0.0, {}
    for t in map(as_node, terms):
        for a in t.args if t.kind == "add" else (t,):
            if a.kind == "num":
                const += a.args[0]
                continue
            c, w = 1.0, a
            if a.kind == "mul" and a.args[0].kind == "num":
                c, w = a.args[0].args[0], mul(*a.args[1:])
            coefs[w] = coefs.get(w, 0.0) + c
    args = [mul(c, w) for w, c in coefs.items() if c != 0]
    if const != 0 or not args:  # x + 0 is x
        args.insert(0, num(const))
    return args[0] if len(args) == 1 else _node("add", tuple(args))


def mul(*factors):
    """The product node, flattened, its numbers folded into one."""
    coef, args = 1.0, []
    for f in map(as_node, factors):
        for a in f.args if f.kind == "mul" else (f,):
            if a.kind == "num":
                coef *= a.args[0]
            else:
                args.append(a)
    if coef == 0 or not args:  # 0 * x is 0
        return num(coef)
    if coef != 1:  # 1 * x is x
        args.insert(0, num(coef))
    return args[0] if len(args) == 1 else _node("mul", tuple(args))


def power(base, exp):
    """The node base ** exp.  A number exponent folds u^0 = 1 and u^1 = u,
    and an integer one (u^p)^r = u^(p r) and (c w)^r = c^r w^r for a
    number c, as they hold for every complex u and w."""
    base, exp = as_node(base), as_node(exp)
    if exp.kind == "num":
        p = exp.args[0]
        if base.kind == "num":
            return num(base.args[0] ** p)
        if p == 0 or p == 1:
            return base if p == 1 else num(1.0)
        if isinstance(p, float) and p.is_integer():
            if base.kind == "pow":
                return power(base.args[0], mul(base.args[1], p))
            if base.kind == "mul" and base.args[0].kind == "num":
                return mul(power(base.args[0], p), power(mul(*base.args[1:]), p))
    return _node("pow", (base, exp))


# the univariate functions of the spec grammar (domains._FUNCTIONS): the
# numpy function and the first derivative, whose jet gives the rest; a
# number folds by math, or by cmath off the real domain (math, cmath and
# the spec share the names)
_UNARY = {
    "exp": ("exp", lambda z: call("exp", z)),
    "log": ("log", lambda z: 1 / z),
    "sin": ("sin", lambda z: call("cos", z)),
    "cos": ("cos", lambda z: -call("sin", z)),
    "tan": ("tan", lambda z: 1 + call("tan", z) ** 2),
    "asin": ("arcsin", lambda z: (1 - z**2) ** -0.5),
    "acos": ("arccos", lambda z: -((1 - z**2) ** -0.5)),
    "atan": ("arctan", lambda z: 1 / (1 + z**2)),
    "sinh": ("sinh", lambda z: call("cosh", z)),
    "cosh": ("cosh", lambda z: call("sinh", z)),
    "tanh": ("tanh", lambda z: 1 - call("tanh", z) ** 2),
    "asinh": ("arcsinh", lambda z: (1 + z**2) ** -0.5),
    "acosh": ("arccosh", lambda z: (z - 1) ** -0.5 * (z + 1) ** -0.5),
    "atanh": ("arctanh", lambda z: 1 / (1 - z**2)),
}
_LINEAR = {"conj": "conj", "re": "real", "im": "imag"}
# the other functions of a node, with their number folds
_OTHER = {
    "conj": lambda x: x.conjugate(),
    "re": lambda x: x.real,
    "im": lambda x: x.imag,
    "abs": abs,
}
# every function name of a node, with its number of arguments
CALLS = dict.fromkeys([*_UNARY, *_OTHER], 1)


def _fold(name, *values):
    if name in _OTHER:
        return _OTHER[name](*values)
    if isinstance(values[0], float):
        try:
            return getattr(math, name)(values[0])
        except ValueError:  # outside the real domain: the principal value
            pass
    return getattr(cmath, name)(values[0])


def call(name, *args):
    """The node of the function name of CALLS at args, folded to a number
    when every argument is one (ValueError, ZeroDivisionError or
    OverflowError where the value is not a finite number).  An unknown
    name raises ValueError and a wrong count of arguments TypeError."""
    if name not in CALLS:
        raise ValueError(f"unknown function {name!r}")
    if len(args) != CALLS[name]:
        raise TypeError(f"{name} takes {CALLS[name]} argument(s), got {len(args)}")
    args = tuple(map(as_node, args))
    if all(a.kind == "num" for a in args):
        return num(_fold(name, *(a.args[0] for a in args)))
    return _node(name, args)


_BUILD = {"add": add, "mul": mul, "pow": power}


def subs(expr, mapping):
    """expr with the nodes of mapping {node: value} replaced at once and
    the tree rebuilt bottom up, so that numbers fold; a subtree shared in
    the tree is rebuilt once."""
    memo = {key: as_node(value) for key, value in mapping.items()}

    def walk(e):
        if e not in memo:
            if e.kind in ("sym", "num"):
                memo[e] = e
            else:
                args = [walk(a) for a in e.args]
                memo[e] = _BUILD[e.kind](*args) if e.kind in _BUILD else call(e.kind, *args)
        return memo[e]

    return walk(as_node(expr))


# the stand-in argument of the first derivatives of _UNARY
_Z = sym("_z")
# the names emitted source reads; inf and nan stand for folded numbers
# that overflow
_NAMESPACE = {
    name: getattr(np, name)
    for name in [f for f, _ in _UNARY.values()] + list(_LINEAR.values())
    + ["full", "broadcast", "inf", "nan"]
}
# a name bound in emitted source
_TEMP = re.compile(r"\bt\d+\b")
# (coords, expr, order) -> compiled jet; nodes are immutable, so a hit is
# the same function whatever caller asked first
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
                # numpy multiplies left to right, so the scaled leading
                # factor (or, unscaled, the leading pair of three or more)
                # is a product of its own, bound once for every term
                if coef != 1 and len(names) > 1:
                    coef, names = 1, [self.bind(f"{_literal(coef)} * {names[0]}")] + names[1:]
                elif len(names) > 2:
                    names = [self.bind(f"{names[0]} * {names[1]}")] + names[2:]
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
        """The jet of the node e: numbers are constants, u^w for w not a
        number is exp(w log u), conj, re and im act on every part, abs goes
        through powers, and the functions of _UNARY through their first
        derivatives; a symbol that is not a seed, and
        a number that is not finite, raises ValueError."""
        kind, args = e.kind, e.args
        if e in self.seeds:
            return self.seeds[e]
        if kind == "num":
            if not np.isfinite(args[0]):
                raise ValueError(f"non-finite number {e} in an expression")
            return {(): args[0]}
        if kind == "sym":
            raise ValueError(f"symbol {e} is not a coordinate of the jet")
        if kind == "add":
            return self.combine([(1, self(a)) for a in args])
        if kind == "mul":
            return reduce(self.mul, map(self, args))
        if kind == "pow" and args[1].kind == "num":
            return self.power(self(args[0]), args[1].args[0])
        if kind == "pow":
            return self.unary("exp", self.mul(self(args[1]), self.unary("log", self(args[0]))))
        if kind in _LINEAR:
            return self.linear(kind, self(args[0]))
        if kind == "abs":  # |u| = (u conj u)^(1/2)
            u = self(args[0])
            return self.power(self.mul(u, self.linear("conj", u)), 0.5)
        return self.unary(kind, self(args[0]))

    def combine(self, terms):
        """The linear combination of the jets of terms (coef, jet)."""
        return {I: self.sum((c, [u[I]]) for c, u in terms if I in u) for I in self.idx}

    def linear(self, kind, u):
        """The linear map kind (conj, re or im) of every part of u, numbers
        folded."""
        return {
            I: self.bind(f"{_LINEAR[kind]}({self.term(c)})") if isinstance(c, (str, tuple))
            else _OTHER[kind](c)
            for I, c in u.items()
        }

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

    def unary(self, name, u):
        """name(u) for a function of _UNARY."""
        func, first = _UNARY[name]
        return self.chain(f"{func}({self.term(u.get((), 0))})", first(_Z), u)

    def power(self, u, p):
        """u^p for a number p."""
        return self.chain(f"{self.term(u.get((), 0))} ** {_literal(p)}", p * _Z ** (p - 1), u)


def _jet_source(coords, expr, order):
    """The source of Jet.compile's function: one line per bound product
    or sum, each name deleted after its last read unless it is returned,
    so a call holds only the temporaries still to be read."""
    d = len(coords)
    lines = {}
    seeds = {c: {(): f"x{k}", (k,): 1} for k, c in enumerate(coords)}
    walk = _Walk(lines, seeds, d, order)
    jet = walk(expr)
    comps = [jet.get(I, 0) for I in walk.idx]
    out = ", ".join(walk.term(c) if isinstance(c, (str, tuple)) else f"full(shape, {_literal(c)})"
                    for c in comps)
    args = ", ".join(f"x{k}" for k in range(d))
    last = {}  # name -> the line that reads it last
    for k, (text, name) in enumerate(lines.items()):
        last.update((used, k) for used in _TEMP.findall(text))
        last.setdefault(name, k)
    returned = set(_TEMP.findall(out))
    dead = {}
    for name, k in last.items():
        if name not in returned:
            dead.setdefault(k, []).append(name)
    body = []
    for k, (text, name) in enumerate(lines.items()):
        body.append(f"    {name} = {text}")
        if k in dead:
            body.append(f"    del {', '.join(dead[k])}")
    if "full(" in out:
        body.append(f"    shape = broadcast({args}).shape")
    return "\n".join([f"def jet({args}):", *body, f"    return ({out},)"])


class Jet:
    """The partials of an expression at N points: parts[k] (N,) + (d,) * k
    holds its k-th partials, for k up to the order."""

    def __init__(self, parts):
        self.parts = list(parts)

    grad = property(lambda self: self.parts[1])
    hess = property(lambda self: self.parts[2])

    @staticmethod
    def compile(expr, coords, order):
        """The numpy function of the jet of the expression expr (an Expr or
        a number) in the symbols coords up to order (0 to 3), compiled once
        per process.

        The function takes one array per coordinate, real or complex (they
        broadcast), and returns the tuple of the partials d_I expr over the
        sorted multi-indices I, by order and then lexicographically: for
        (x, y) at order 2, the value, d_x, d_y, d_xx, d_xy and d_yy.  The
        rules of _Walk.rule cover every node; a symbol not in coords, or a
        number that is not finite, raises ValueError.
        """
        key = (tuple(coords), as_node(expr), order)
        if key not in _COMPILED:
            namespace = dict(_NAMESPACE)
            exec(_jet_source(*key), namespace)
            _COMPILED[key] = namespace["jet"]
        return _COMPILED[key]

    @classmethod
    def of(cls, expr, coords, points, order):
        """The jet of the expression expr in coords at real points
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


def times_j(M):
    """The product M J (..., d, d) with the matrix J of the standard
    structure, J e_2m = e_2m+1 and J e_2m+1 = -e_2m, as the signed column
    swap it is: column 2m of M J is column 2m + 1 of M, and column 2m + 1
    is minus column 2m."""
    MJ = np.empty_like(M)
    MJ[..., 0::2] = M[..., 1::2]
    MJ[..., 1::2] = -M[..., 0::2]
    return MJ


def ddc_matrix(hess):
    """The antisymmetric matrix A (..., d, d) of ddc f from the Hessian of f
    (..., d, d): A = (HJ)^T - HJ, since dc f = -J^T grad f in components."""
    HJ = times_j(hess)
    return np.swapaxes(HJ, -1, -2) - HJ


def levi_matrix(hess):
    """The Levi form of f as the complex Hermitian matrix H (..., n, n)
    from the Hessian of f (..., 2n, 2n).

    The real Levi matrix S = AJ of ddc f(., J .), A = ddc_matrix(hess),
    is symmetric (to the bit, since A is antisymmetric to the bit and J
    only swaps signs) and commutes with J, so it is the real form of H,
    H[m, l] = S[2m, 2l] + i S[2m+1, 2l], with S[2m, 2l+1] = -Im H[m, l]
    and S[2m+1, 2l+1] = Re H[m, l]: S x = y reads H z = w on z_m = x_2m +
    i x_2m+1, each eigenvalue of H is one of S twice, and det S = |det H|^2.
    """
    S = times_j(ddc_matrix(hess))
    return S[..., 0::2, 0::2] + 1j * S[..., 1::2, 0::2]


def real_coords(dim):
    """Standard real coordinate symbols.

    dim=2 -> (x, y); dim=4 -> (x, y, s, t); dim=6 -> (x1, y1, x2, y2, s, t).
    v = x + iy is the base affine coordinate, zeta = s + it the fiber one.
    """
    names = {2: "x y", 4: "x y s t", 6: "x1 y1 x2 y2 s t"}
    if dim not in names:
        raise ValueError(f"no standard coordinate set for dim {dim}")
    return symbols(names[dim])


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
