"""Index combinatorics of the form calculus.

A p-form is stored as a mapping from strictly increasing index tuples to
coefficients: (N,) arrays of point values, or sympy expressions in the
symbolic references of the tests.  The helpers here do the sign
bookkeeping for wedge products, for either kind of coefficient.
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
