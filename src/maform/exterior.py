"""Index combinatorics of the form calculus.

A p-form is stored as a mapping from strictly increasing index tuples to
coefficients: (N,) arrays of point values, or sympy expressions in the
symbolic references of the tests.  The helpers here do the sign
bookkeeping for wedge products, for either kind of coefficient, and build
the matrix of the standard complex structure.
"""

from __future__ import annotations

import itertools


def merge_indices(I, J):
    """Concatenate two increasing index tuples into one increasing tuple.

    Returns (sign, K) where sign is the parity of the merge permutation,
    or None when the tuples share an index (the wedge vanishes).
    """
    combined = I + J
    if len(set(combined)) != len(combined):
        return None
    inv = sum(a > b for a, b in itertools.combinations(combined, 2))
    return (-1) ** inv, tuple(sorted(combined))


def wedge_comps(A, B):
    """Components of the wedge product of the forms with components A and
    B; above the top degree there are none."""
    out = {}
    for I, a in A.items():
        for J, b in B.items():
            res = merge_indices(I, J)
            if res is not None:
                sign, K = res
                out[K] = out.get(K, 0) + sign * a * b
    return out


def standard_pairs(dim):
    """Axis pairing of the standard structure: axes (2m, 2m+1) are the
    real/imaginary parts of the m-th complex coordinate."""
    if dim % 2:
        raise ValueError("real dimension must be even")
    return [(2 * m, 2 * m + 1) for m in range(dim // 2)]


def standard_j_matrix(dim):
    """Matrix of J_o on tangent vectors: J e_{2m} = e_{2m+1},
    J e_{2m+1} = -e_{2m}."""
    import numpy as np

    J = np.zeros((dim, dim))
    for a, b in standard_pairs(dim):
        J[b, a] = 1.0
        J[a, b] = -1.0
    return J
