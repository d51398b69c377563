"""The Monge-Ampere field Z and the exhaustion identity suite."""

import numpy as np
import pytest
import sympy as sp

from maform import symforms
from maform.domains import ExhaustionField, ambient_coords, make_circular_domain
from maform.foliation import (
    FoliationError,
    ZFieldEvaluator,
    _ambient_points,
    reverse_leaf,
    trace_leaf,
    verify_ma_identities,
)
from maform.ode import rk4_step
from maform.symforms import AnalyticForm

RNG = np.random.default_rng(20260825)


def non_ma_exhaustion():
    """tau = |z|^2 + |z1|^4: smooth and exhausting, but log tau has a rank-2
    complex Hessian, so the top-degree degeneracy identity fails at order
    one away from the origin."""
    x1, y1, x2, y2 = ambient_coords(2)
    expr = x1**2 + y1**2 + x2**2 + y2**2 + (x1**2 + y1**2) ** 2
    return ExhaustionField(n=2, tau_ambient=expr)


def z_field(exh, n_samples, seed=11):
    """The evaluator of Z for exh and Z at random shell points."""
    ev = ZFieldEvaluator(exh.ambient_form())
    pts = _ambient_points(exh.n, n_samples, seed=seed)
    return ev, pts, ev(pts)


def normal_basis(ev, pts, Z):
    """Basis (X, JX) of the plane ddc tau-orthogonal to Z and JZ (n = 2)."""
    A = ev.matrices(pts)
    rows = np.stack([np.einsum("ni,nij->nj", Z, A), np.einsum("ni,nij->nj", Z @ ev.J.T, A)], axis=1)
    X = np.linalg.svd(rows)[2][:, -1, :]
    return np.stack([X, X @ ev.J.T], axis=1)


class TestComputeZ:
    """Z solved nodewise by ZFieldEvaluator from the defining condition."""

    def test_ball_field_is_half_radial(self):
        # under the convention ddc|z|^2 = 4 dx^dy the defining condition
        # gives Z = (1/2) * radial field; the holomorphic part is then
        # (1/2) z^i d/dz^i and the flow rescales tau by e^t
        _, exh = make_circular_domain({"kind": "ball"})
        ev, pts, Z = z_field(exh, 30)
        resid = np.einsum("ni,nij,jk->nk", Z, ev.matrices(pts), ev.J) - ev.dtau_at(pts)
        assert np.max(np.abs(resid)) < 1e-12
        assert np.max(np.abs(Z - 0.5 * pts)) < 1e-12

    def test_ellipsoid_field_stays_radial(self):
        # oracle: plug the half-radial field into the defining condition
        # for tau = |z1|^2 + 4 |z2|^2 symbolically and verify it solves it
        x1, y1, x2, y2 = ambient_coords(2)
        tau = x1**2 + y1**2 + 4 * (x2**2 + y2**2)
        radial = [x1 / 2, y1 / 2, x2 / 2, y2 / 2]
        tau_form = AnalyticForm.scalar((x1, y1, x2, y2), tau)
        ddc = tau_form.dc().d()
        dtau = tau_form.d()
        from maform.exterior import standard_j_matrix

        J = standard_j_matrix(4)
        # ddc tau(Z, J e_k) must equal dtau(e_k) for every k
        Zrow = sp.Matrix(1, 4, radial)
        A = sp.zeros(4, 4)
        for (i, j), e in ddc.comps.items():
            A[i, j] = e
            A[j, i] = -e
        lhs = Zrow * A * sp.Matrix(J)
        for k in range(4):
            assert sp.simplify(lhs[k] - dtau.comps[(k,)]) == 0

        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        _, pts, Z = z_field(exh, 30)
        assert np.max(np.abs(Z - 0.5 * pts)) < 1e-12

    def test_contraction_normalization(self):
        # ddc tau(Z, JZ) = dtau(Z) = tau at random nodes
        _, exh = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        ev, pts, Z = z_field(exh, 20)
        tau = ev.tau_at(pts)
        c = np.einsum("ni,nij,nj->n", Z, ev.matrices(pts), Z @ ev.J.T)
        assert np.max(np.abs(c - tau)) < 1e-11
        d = np.sum(ev.dtau_at(pts) * Z, axis=1)
        assert np.max(np.abs(d - tau)) < 1e-11

    def test_normal_distribution_properties(self):
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        ev, pts, Z = z_field(exh, 25)
        H = normal_basis(ev, pts, Z)
        A = ev.matrices(pts)
        # defining property of the normal distribution
        for row in (Z, Z @ ev.J.T):
            pair = np.einsum("ni,nij,naj->na", row, A, H)
            assert np.max(np.abs(pair)) < 1e-10
        # tangent to the level sets
        dt = ev.dtau_at(pts)
        assert np.max(np.abs(np.einsum("ni,nai->na", dt, H))) < 1e-10
        # J-invariance of the basis
        assert np.max(np.abs(H[:, 1, :] - H[:, 0, :] @ ev.J.T)) < 1e-12
        combined = np.concatenate([Z[:, None, :], (Z @ ev.J.T)[:, None, :], H], axis=1)
        assert np.max(np.linalg.cond(combined)) < 1e6

    def test_kernel_of_log_form(self):
        # Z and JZ span the kernel of ddc log tau
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        ev, pts, Z = z_field(exh, 20)
        log_tau = AnalyticForm.scalar(ev.tau.coords, sp.log(ev.tau.comps[()]))
        A = log_tau.dc().d().matrix_at(pts).real
        for V in (Z, Z @ ev.J.T):
            assert np.max(np.abs(np.einsum("nij,nj->ni", A, V))) < 1e-11 * np.max(np.abs(A))

    def test_degenerate_input_reports_node(self):
        # tau with identically vanishing Hessian along a direction
        x1, y1, x2, y2 = ambient_coords(2)
        flat = ExhaustionField(n=2, tau_ambient=x1**2 + y1**2)
        with pytest.raises(FoliationError, match="degenerate"):
            z_field(flat, 5)

    def test_flow_invariance_of_normal_distribution(self):
        # push the normal basis by a small flow step and re-measure the
        # defining property at the moved points; the flow preserves the
        # distribution, so the residual stays at the numerical floor
        # (stronger than the O(step^2) bound it must satisfy)
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        ev, pts, Z = z_field(exh, 10)
        H = normal_basis(ev, pts, Z)
        resids = []
        for step in (2e-2, 1e-2):
            moved, jac = rk4_step(
                lambda _t, y: (ev(y), ev.jacobian(y)), 0.0, pts, step, M=np.eye(4),
            )
            A = ev.matrices(moved)
            Zm = ev(moved)
            JZm = Zm @ ev.J.T
            pushed = np.einsum("nij,naj->nai", jac, H)
            r = 0.0
            for row in (Zm, JZm):
                r = max(r, float(np.max(np.abs(np.einsum("ni,nij,naj->na", row, A, pushed)))))
            resids.append(r)
        assert max(resids) < 1e-9, resids


class TestIdentitySuite:
    def test_ball_all_identities(self):
        _, exh = make_circular_domain({"kind": "ball"})
        rep = verify_ma_identities(exh)
        for key in ("log_potential", "power_rule", "top_degeneracy",
                    "contraction", "flow_invariance"):
            assert rep[key] < 1e-10, (key, rep[key])
        assert rep["all_pass"]

    def test_ellipsoid_analytic(self):
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        rep = verify_ma_identities(exh)
        assert rep["top_degeneracy"] < 1e-8
        assert rep["all_pass"]

    def test_perturbed_ball_sound_identities(self):
        _, exh = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        rep = verify_ma_identities(exh)
        for key in ("log_potential", "power_rule", "top_degeneracy",
                    "contraction", "flow_invariance"):
            assert rep["pass"][key], (key, rep[key])
        assert rep["all_pass"]

    def test_each_form_compiles_once(self, monkeypatch):
        # one lambdify per evaluated form: the log-potential difference,
        # the top-degree form and its difference (the power-rule difference
        # is identically zero for n = 2 and compiles nothing), plus tau,
        # dtau and ddc tau of the Z field
        _, exh = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        calls = []
        lambdify = sp.lambdify

        def counted(*args, **kwargs):
            calls.append(args)
            return lambdify(*args, **kwargs)

        monkeypatch.setattr(sp, "lambdify", counted)
        monkeypatch.setattr(symforms, "_COMPILED", {})
        verify_ma_identities(exh, n_samples=2)
        assert len(calls) == 6

    def test_log_potential_holds_for_any_tau(self):
        # the potential identity is an algebraic consequence for any smooth
        # positive tau, circular or not
        rep = verify_ma_identities(non_ma_exhaustion())
        assert rep["log_potential"] < 1e-10
        assert rep["power_rule"] < 1e-10

    def test_non_ma_input_fails_top_identity(self):
        rep = verify_ma_identities(non_ma_exhaustion())
        assert rep["top_degeneracy"] > 1e-2
        assert not rep["pass"]["top_degeneracy"]
        assert not rep["all_pass"]


class TestLeaves:
    def test_ball_axis_leaf(self):
        _, exh = make_circular_domain({"kind": "ball"})
        disc = trace_leaf(exh, 0.0, n_steps=100)
        # the leaf through [1:0] is the straight disc zeta -> (zeta, 0)
        assert np.max(np.abs(disc.ray[:, 0] - disc.radii)) < 1e-9
        assert np.max(np.abs(disc.ray[:, 1])) < 1e-12
        assert disc.tau_residual < 1e-10

    def test_ellipsoid_leaf_is_straight_and_normalized(self):
        mink, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        v0 = 0.7 - 0.2j
        disc = trace_leaf(exh, v0, n_steps=150)
        direction = np.array([1.0, v0]) / mink.m(0, v0)
        expected = disc.radii[:, None] * direction[None, :]
        assert np.max(np.abs(disc.ray - expected)) < 1e-9
        assert disc.tau_residual < 1e-10

    def test_rotation_equivariance(self):
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        disc = trace_leaf(exh, 0.3 + 0.4j, n_steps=120)
        thetas = np.array([0.0, 1.1, 2.7])
        pts = disc.points(thetas)
        for i, th in enumerate(thetas):
            assert np.max(np.abs(pts[:, i, :] - np.exp(1j * th) * disc.ray)) < 1e-14

    def test_reversal(self):
        _, exh = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        disc = trace_leaf(exh, 0.5 + 0.1j, n_steps=150)
        assert reverse_leaf(exh, disc, n_steps=150) < 1e-8

    def test_batched_tracing(self):
        _, exh = make_circular_domain({"kind": "ball"})
        vs = np.array([0.1, 0.5 + 0.5j, -0.9j])
        discs = trace_leaf(exh, vs, n_steps=100)
        assert len(discs) == 3
        for d in discs:
            assert d.tau_residual < 1e-10

    def test_n3_ball_leaves_single_and_batched(self):
        # a base point at n = 3 has shape (2,); the leaf through it is the
        # straight ray of the unit vector along (1, v)
        _, exh = make_circular_domain({"kind": "ball", "n": 3})
        v = np.array([0.1, 0.2j])
        disc = trace_leaf(exh, v, n_steps=100)
        direction = np.concatenate([[1.0], v]) / np.sqrt(1.0 + np.sum(np.abs(v) ** 2))
        assert np.max(np.abs(disc.ray - disc.radii[:, None] * direction[None, :])) < 1e-12
        assert np.array_equal(disc.base_v, v)
        assert disc.tau_residual < 1e-10
        discs = trace_leaf(exh, np.array([v, [0.5, -0.3 + 0.1j]]), n_steps=100)
        assert len(discs) == 2
        for d in discs:
            assert d.tau_residual < 1e-10

    def test_non_parabolic_rejected(self):
        exh = non_ma_exhaustion()
        object.__setattr__(exh, "minkowski", None)
        with pytest.raises(FoliationError, match="gauge data"):
            trace_leaf(exh, 0.2)
