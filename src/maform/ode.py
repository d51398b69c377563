"""The classical fourth-order Runge-Kutta step with its variational equation.

Both flows of the package (the Moser flow, which carries the Hopf phase
of its horizontal lift, and the flow of the Monge-Ampere field Z) advance
through rk4_step.
The derivative M of the state with respect to its start value obeys the
variational equation M' = Df(t, y) M; it is advanced through the same four
stages (Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I).
"""

from __future__ import annotations

import numpy as np


def rk4_step(f, t, y, dt, jac=None, M=None):
    """One RK4 step of y' = f(t, y) from t to t + dt.

    Without jac the new state is returned.  With jac(t, y) -> Df of shape
    (..., d, d), the variational matrices M of shape (..., d, k) are
    propagated along the same stage points and (y_new, M_new) is returned.
    """
    half = dt / 2
    k1 = f(t, y)
    y2 = y + half * k1
    k2 = f(t + half, y2)
    y3 = y + half * k2
    k3 = f(t + half, y3)
    y4 = y + dt * k3
    k4 = f(t + dt, y4)
    y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if jac is None:
        return y_new

    def prod(D, N):
        return np.einsum("...ij,...jk->...ik", D, N)

    N1 = prod(jac(t, y), M)
    N2 = prod(jac(t + half, y2), M + half * N1)
    N3 = prod(jac(t + half, y3), M + half * N2)
    N4 = prod(jac(t + dt, y4), M + dt * N3)
    return y_new, M + dt / 6 * (N1 + 2 * N2 + 2 * N3 + N4)
