"""The classical fourth-order Runge-Kutta step with its variational equation.

The Moser flow, which carries the Hopf phase of its horizontal lift,
advances through rk4_step with its variational matrices.
The derivative M of the state with respect to its start value obeys the
variational equation M' = Df(t, y) M; it is advanced through the same four
stages (Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I).
"""

from __future__ import annotations

import numpy as np


def rk4_step(f, t, y, dt, M, buffers=None):
    """One RK4 step from t to t + dt of the pair (y, M), y' = g(t, y) and
    M' = Dg(t, y) M.

    f(t, y, M) returns the slope g(t, y) and the variational slope Dg M
    at a stage point from one call, each with the shape of its argument;
    it may return the same buffers from every call, overwritten, but not
    its arguments.  The stages are summed in place, in the order of
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4), in one buffer pair while another
    holds the next stage point and then the weighted slope (a weight of 1
    multiplies exactly), and (y_new, M_new) is returned in the first pair.
    buffers ((y_new, M_new), (y_stage, M_stage)) gives the two pairs, each
    of the shapes of (y, M) and neither holding them, so that a caller
    that rotates them across steps allocates nothing per step; without it
    both pairs are new arrays.
    """
    half = dt / 2
    slopes = f(t, y, M)
    if buffers is None:
        buffers = [(np.empty_like(y), np.empty_like(M)) for _ in range(2)]
    total, point = buffers
    for acc, k in zip(total, slopes):
        np.copyto(acc, k)
    for s, weight in ((half, 2.0), (half, 2.0), (dt, 1.0)):
        for at, k, start in zip(point, slopes, (y, M)):
            np.add(start, np.multiply(k, s, out=at), out=at)
        slopes = f(t + s, *point)
        for acc, k, scratch in zip(total, slopes, point):
            acc += np.multiply(k, weight, out=scratch)
    for acc, start in zip(total, (y, M)):
        acc *= dt / 6
        acc += start
    return total
