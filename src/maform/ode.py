"""The classical fourth-order Runge-Kutta step with its variational equation.

The Moser flow, which carries the Hopf phase of its horizontal lift,
advances through rk4_step with its variational matrices.
The derivative M of the state with respect to its start value obeys the
variational equation M' = Df(t, y) M; it is advanced through the same four
stages (Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I).
"""

from __future__ import annotations


def rk4_step(f, t, y, dt, M):
    """One RK4 step from t to t + dt of the pair (y, M), y' = g(t, y) and
    M' = Dg(t, y) M.

    f(t, y, M) returns the slope g(t, y) and the variational slope Dg M
    at a stage point from one call, each with the shape of its argument,
    and (y_new, M_new) is returned.
    """
    half = dt / 2
    k1, N1 = f(t, y, M)
    k2, N2 = f(t + half, y + half * k1, M + half * N1)
    k3, N3 = f(t + half, y + half * k2, M + half * N2)
    k4, N4 = f(t + dt, y + dt * k3, M + dt * N3)
    y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y_new, M + dt / 6 * (N1 + 2 * N2 + 2 * N3 + N4)
