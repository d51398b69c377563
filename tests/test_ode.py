"""The shared RK4 step and its variational equation."""

import numpy as np
from scipy.linalg import expm

from maform.ode import rk4_step

A = np.array([[-0.3, 1.0], [-1.2, 0.1]])


def linear_with_jacobian(_t, y, M):
    return A @ y, A @ M


def integrate(y0, n_steps, M=np.eye(2)):
    dt = 1.0 / n_steps
    y = y0
    for i in range(n_steps):
        y, M = rk4_step(linear_with_jacobian, i * dt, y, dt, M=M)
    return y, M


def test_variational_matrix_is_the_step_of_each_identity_column():
    _, M = integrate(np.array([0.4, -0.7]), 7)
    columns = np.stack([integrate(e, 7)[0] for e in np.eye(2)], axis=1)
    assert np.max(np.abs(M - columns)) < 1e-15


def test_fourth_order_convergence():
    # the state and the variational matrix, whose exact value at t = 1 is
    # expm(A)
    y0 = np.array([1.0, 0.5])
    exact = expm(A) @ y0
    err = [np.max(np.abs(integrate(y0, n)[0] - exact)) for n in (10, 20)]
    assert 14.0 < err[0] / err[1] < 18.0, err
    err = [np.max(np.abs(integrate(y0, n)[1] - expm(A))) for n in (10, 20)]
    assert 14.0 < err[0] / err[1] < 18.0, err


def test_stage_times_integrate_cubics_exactly():
    # RK4 is exact for y' = p(t) with p of degree 3 only if the stages sit
    # at t, t + dt/2 (twice) and t + dt; the slope does not depend on y,
    # so the variational slope Df M = 0
    y, M = np.zeros(1), np.zeros((1, 1))
    for i in range(4):
        y, M = rk4_step(lambda t, _y, _M: (4 * t**3 + 1.0, np.zeros((1, 1))), 0.25 * i, y, 0.25, M=M)
    assert abs(y[0] - 2.0) < 1e-15
