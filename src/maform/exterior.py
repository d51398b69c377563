"""Index combinatorics of the symbolic form calculus.

A p-form is stored as a mapping from strictly increasing index tuples to
coefficients.  The helpers here do the sign bookkeeping for wedge products,
exterior derivatives and the action of the standard
complex structure on forms, and build the matrix of that structure.
"""

from __future__ import annotations

import itertools


def merge_indices(I, J):
    """Concatenate two increasing index tuples into one increasing tuple.

    Returns (sign, K) where sign is the parity of the merge permutation,
    or None when the tuples share an index (the wedge vanishes).
    """
    if set(I) & set(J):
        return None
    combined = list(I) + list(J)
    # count inversions of the concatenation
    inv = 0
    for a, b in itertools.combinations(range(len(combined)), 2):
        if combined[a] > combined[b]:
            inv += 1
    return (-1) ** inv, tuple(sorted(combined))


def insert_index(I, k):
    """Insert axis k into increasing tuple I; returns (sign, K) or None."""
    if k in I:
        return None
    pos = sum(1 for i in I if i < k)
    return (-1) ** pos, tuple(sorted(I + (k,)))


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


def jo_axis_action(k):
    """J_o on basis vectors as (sign, axis): J e_k = sign * e_axis."""
    if k % 2 == 0:
        return 1, k + 1
    return -1, k - 1


def jo_on_indices(I):
    """Evaluate alpha(J e_{i1}, ..., J e_{ip}) index bookkeeping for J_o.

    Returns (sign, K) with K increasing, such that
    alpha(J e_{i1}, ..., J e_{ip}) = sign * alpha_K, or None if two mapped
    axes coincide (impossible for J_o, kept for symmetry).
    """
    sign = 1
    mapped = []
    for i in I:
        s, j = jo_axis_action(i)
        sign *= s
        mapped.append(j)
    if len(set(mapped)) != len(mapped):
        return None
    # sort mapped axes, tracking permutation parity
    arr = list(mapped)
    inv = 0
    for a, b in itertools.combinations(range(len(arr)), 2):
        if arr[a] > arr[b]:
            inv += 1
    return sign * (-1) ** inv, tuple(sorted(arr))
