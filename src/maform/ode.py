"""The classical fourth-order Runge-Kutta step with its variational equation.

The Moser flow, which carries the Hopf phase of its horizontal lift,
advances through rk4_step with its variational matrices.
The derivative M of the state with respect to its start value obeys the
variational equation M' = Df(t, y) M; it is advanced through the same four
stages (Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I).
"""

from __future__ import annotations


def rk4_step(f, t, y, dt, M):
    """One RK4 step of y' = f(t, y) from t to t + dt, with the variational
    matrices M of shape (..., d, k).

    f(t, y) returns the slope and its spatial derivative Df of shape
    (..., d, d) from one call; M is advanced along the same stage points,
    its stage slope the matrix product Df @ (M + s N) over the leading
    point axes, shape (..., d, k), and (y_new, M_new) is returned.
    """

    def stage(s, k, N):
        # slope and variational slope at t + s, y + s k, M + s N
        slope, D = f(t + s, y + s * k)
        return slope, D @ (M + s * N)

    half = dt / 2
    k1, N1 = stage(0.0, 0.0, 0.0)
    k2, N2 = stage(half, k1, N1)
    k3, N3 = stage(half, k2, N2)
    k4, N4 = stage(dt, k3, N3)
    y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y_new, M + dt / 6 * (N1 + 2 * N2 + 2 * N3 + N4)
