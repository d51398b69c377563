"""The Monge-Ampere field Z and the exhaustion identity suite."""

import itertools

import numpy as np
import pytest
import sympy as sp

from maform import symforms
from maform.cli import main
from maform.domains import ExhaustionField, ambient_coords, least_levi_eigenvalues, make_circular_domain
from maform.exterior import wedge_comps
from maform.foliation import (
    FoliationError,
    ZFieldEvaluator,
    _ambient_points,
    _hermitian_det,
    _hermitian_solve,
    verify_ma_identities,
)
from maform.ode import rk4_step
from maform.symforms import ddc_matrix, levi_matrix, real_coords, to_complex, to_real
from symbolic_forms import AnalyticForm, lambdify_rows, standard_j_matrix, sympy_coords, to_sympy

RNG = np.random.default_rng(20260825)
J4 = standard_j_matrix(4)


def non_ma_exhaustion():
    """tau = |z|^2 + |z1|^4: smooth and exhausting, but log tau has a rank-2
    complex Hessian, so the top-degree degeneracy identity fails at order
    one away from the origin."""
    x1, y1, x2, y2 = ambient_coords(2)
    expr = x1**2 + y1**2 + x2**2 + y2**2 + (x1**2 + y1**2) ** 2
    return ExhaustionField(n=2, tau_ambient=expr)


def z_field(exh, n_samples, seed=11):
    """The evaluator of Z for exh and Z at random shell points."""
    ev = ZFieldEvaluator(exh)
    pts = _ambient_points(exh.n, n_samples, seed=seed)
    return ev, pts, ev.flow(pts)[0]


def normal_basis(ev, pts, Z):
    """Basis (X, JX) of the plane ddc tau-orthogonal to Z and JZ (n = 2)."""
    A = ev.fields(pts)[3]
    rows = np.stack([np.einsum("ni,nij->nj", Z, A), np.einsum("ni,nij->nj", Z @ J4.T, A)], axis=1)
    X = np.linalg.svd(rows)[2][:, -1, :]
    return np.stack([X, X @ J4.T], axis=1)


class TestComputeZ:
    """Z solved nodewise by ZFieldEvaluator from the defining condition."""

    def test_ball_field_is_half_radial(self):
        # under the convention ddc|z|^2 = 4 dx^dy the defining condition
        # gives Z = (1/2) * radial field; the holomorphic part is then
        # (1/2) z^i d/dz^i and the flow rescales tau by e^t
        _, exh = make_circular_domain({"kind": "ball"})
        ev, pts, Z = z_field(exh, 30)
        _, dtau, _, A, _ = ev.fields(pts)
        resid = np.einsum("ni,nij,jk->nk", Z, A, J4) - dtau
        assert np.max(np.abs(resid)) < 1e-12
        assert np.max(np.abs(Z - 0.5 * pts)) < 1e-12

    def test_ellipsoid_field_stays_radial(self):
        # oracle: plug the half-radial field into the defining condition
        # for tau = |z1|^2 + 4 |z2|^2 symbolically and verify it solves it
        x1, y1, x2, y2 = sympy_coords(ambient_coords(2))
        tau = x1**2 + y1**2 + 4 * (x2**2 + y2**2)
        radial = [x1 / 2, y1 / 2, x2 / 2, y2 / 2]
        tau_form = AnalyticForm.scalar((x1, y1, x2, y2), tau)
        ddc = tau_form.dc().d()
        dtau = tau_form.d()
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
        tau, dtau, _, A, _ = ev.fields(pts)
        c = np.einsum("ni,nij,nj->n", Z, A, Z @ J4.T)
        assert np.max(np.abs(c - tau)) < 1e-11
        d = np.sum(dtau * Z, axis=1)
        assert np.max(np.abs(d - tau)) < 1e-11

    def test_normal_distribution_properties(self):
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        ev, pts, Z = z_field(exh, 25)
        H = normal_basis(ev, pts, Z)
        _, dt, _, A, _ = ev.fields(pts)
        # defining property of the normal distribution
        for row in (Z, Z @ J4.T):
            pair = np.einsum("ni,nij,naj->na", row, A, H)
            assert np.max(np.abs(pair)) < 1e-10
        # tangent to the level sets
        assert np.max(np.abs(np.einsum("ni,nai->na", dt, H))) < 1e-10
        # J-invariance of the basis
        assert np.max(np.abs(H[:, 1, :] - H[:, 0, :] @ J4.T)) < 1e-12
        combined = np.concatenate([Z[:, None, :], (Z @ J4.T)[:, None, :], H], axis=1)
        assert np.max(np.linalg.cond(combined)) < 1e6

    def test_kernel_of_log_form(self):
        # Z and JZ span the kernel of ddc log tau
        _, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        ev, pts, Z = z_field(exh, 20)
        log_tau = AnalyticForm.scalar(sympy_coords(ev.coords), sp.log(to_sympy(ev.tau)))
        A = log_tau.dc().d().matrix_at(pts).real
        for V in (Z, Z @ J4.T):
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

        def slope(_t, y, M):
            Z, DZ = ev.flow(y)[:2]
            return Z, DZ @ M

        for step in (2e-2, 1e-2):
            moved, jac = rk4_step(slope, 0.0, pts, step, M=np.tile(np.eye(4), (len(pts), 1, 1)))
            A = ev.fields(moved)[3]
            Zm = ev.flow(moved)[0]
            JZm = Zm @ J4.T
            pushed = np.einsum("nij,naj->nai", jac, H)
            r = 0.0
            for row in (Zm, JZm):
                r = max(r, float(np.max(np.abs(np.einsum("ni,nij,naj->na", row, A, pushed)))))
            resids.append(r)
        assert max(resids) < 1e-9, resids


GATE_SPECS = {
    "ball": {"kind": "ball"},
    "ellipsoid": {"kind": "ellipsoid", "a": 1, "b": 4},
    "perturbed_ball": {"kind": "perturbed_ball", "eps": 0.05},
}


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

    def test_ellipsoid_n3_all_identities(self):
        # n = 3 is the first dimension whose power rule reaches the
        # compiled ddc tau^2 rows
        _, exh = make_circular_domain({"kind": "ellipsoid", "n": 3})
        rep = verify_ma_identities(exh)
        assert rep["power_rule"] < 1e-10
        assert rep["all_pass"], rep

    def test_each_form_compiles_once(self, monkeypatch, tmp_path):
        # every derivative and every evaluation of the commands is a jet
        # compiled by Jet.compile, once per expression and order
        monkeypatch.setattr(symforms, "_COMPILED", {})
        sources = []

        def counted_exec(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(symforms, "exec", counted_exec, raising=False)
        dom, tns = tmp_path / "p.dom", tmp_path / "t.tns"
        dom.write_text("mu.kind = perturbed_ball\neps = 0.05\nN_v = 9\nN_r = 4\nN_theta = 8\n")
        tns.write_text("N_v = 9\nk_max = 1\nmode 0 1 1 = 0.05/(1 + v*conj(v))\nmode 1 1 1 = 0.01*v\n")
        out = str(tmp_path / "out")
        for argv in (
            ["verify", "--domain", str(dom), "--samples", "2"],
            ["normalize", "--domain", str(dom), "--steps", "10"],
            ["invariants", "--domain", str(dom), "--steps", "10", "--kmax", "2"],
            ["classify", "--domain", str(dom), "--steps", "10", "--kmax", "2"],
            ["scale-test", "--tensor", str(tns)],
        ):
            assert main(argv + ["--out", out]) == 0, argv
        assert len(sources) == len(symforms._COMPILED) > 0

    @pytest.mark.parametrize("n_samples", [40, 1])
    @pytest.mark.parametrize("case", list(GATE_SPECS))
    def test_flow_invariance_at_roundoff(self, case, n_samples):
        # L_Z ddc tau = ddc tau from exact DZ and Cartan's formula
        _, exh = make_circular_domain(GATE_SPECS[case])
        rep = verify_ma_identities(exh, n_samples=n_samples)
        assert rep["flow_invariance"] <= 1e-12, rep["flow_invariance"]

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

    @pytest.mark.parametrize("spec", [{"kind": "ball"}, {"kind": "ellipsoid", "a": 1, "b": 4},
                                      {"kind": "perturbed_ball", "eps": 0.05},
                                      {"kind": "ellipsoid", "n": 3}])
    def test_definition_rows_read_the_least_values(self, spec):
        # minus the least tau and minus the least Levi eigenvalue over the
        # samples, against eigvalsh of the real Levi matrix
        _, exh = make_circular_domain(spec)
        rep = verify_ma_identities(exh)
        tau, _, hess, A, _ = ZFieldEvaluator(exh).fields(_ambient_points(exh.n, 40, seed=13))
        S = np.swapaxes(A @ standard_j_matrix(2 * exh.n), 1, 2)
        assert rep["positivity"] == -np.min(tau) < 0
        assert abs(rep["levi"] + np.min(np.linalg.eigvalsh(S)[:, 0])) <= 1e-14 * abs(rep["levi"])
        assert rep["pass"]["positivity"] and rep["pass"]["levi"]


class TestHermitianLevi:
    """The defining condition's matrix M = (AJ)^T is the real form of the
    Hermitian Levi matrix H, whose complex n x n solves replace the real
    2n x 2n ones."""

    @staticmethod
    def hessians(n, seed):
        h = np.random.default_rng(seed).normal(size=(20, 2 * n, 2 * n))
        return h + np.swapaxes(h, 1, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_real_form_is_the_symmetrized_levi_matrix(self, n):
        # M equals the J-symmetrized S to the bit, and is the real form of H
        hess = self.hessians(n, 40 + n)
        AJ = ddc_matrix(hess) @ standard_j_matrix(2 * n)
        M = np.swapaxes(AJ, 1, 2)
        assert np.array_equal(M, 0.5 * (AJ + M))
        H = levi_matrix(hess)
        assert np.array_equal(H, np.conj(np.swapaxes(H, 1, 2)))
        assert np.array_equal(M[:, 0::2, 0::2], H.real) and np.array_equal(M[:, 1::2, 1::2], H.real)
        assert np.array_equal(M[:, 1::2, 0::2], H.imag) and np.array_equal(M[:, 0::2, 1::2], -H.imag)
        det = _hermitian_det(H)
        assert np.all(np.abs(det * det - np.linalg.det(M)) <= 1e-13 * np.abs(np.linalg.det(M)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_solves_match_lapack_on_the_real_matrix(self, n):
        # Cramer's rule (n = 2) and the complex solve (n = 3) against
        # np.linalg.solve on M, for Z's right-hand side and DZ's 2n, within
        # 1e-13 relative (measured 2.7e-15 and 6.0e-16); the least
        # eigenvalue of H against eigvalsh of M (measured 7.4e-16)
        hess = self.hessians(n, 50 + n)
        M = np.swapaxes(ddc_matrix(hess) @ standard_j_matrix(2 * n), 1, 2)
        H = levi_matrix(hess)
        rhs = np.random.default_rng(60 + n).normal(size=(20, 2 * n, 2 * n + 1))
        got = np.swapaxes(to_real(_hermitian_solve(H, _hermitian_det(H), to_complex(np.swapaxes(rhs, 1, 2)))), 1, 2)
        want = np.linalg.solve(M, rhs)
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-13 * np.max(np.abs(want), axis=(1, 2)))
        eigs = np.linalg.eigvalsh(M)
        assert np.all(np.abs(least_levi_eigenvalues(H) - eigs[:, 0]) <= 1e-13 * np.max(np.abs(eigs), axis=1))


def _alternation(form, vectors):
    """A p-form with components {I: (N,) array} on the p columns of vectors
    (dim, p): the sum over I of form_I det(vectors[I])."""
    return sum(v * np.linalg.det(vectors[list(I)]) for I, v in form.items())


def _shuffle_wedge(a, p, b, q, vectors):
    """(a ^ b)(v_1..v_p+q) as the signed sum over (p, q)-shuffles of
    a(v_S) b(v_S'), the sign (-1)^(sum S - p(p-1)/2) of the shuffle: an
    oracle that shares no sign bookkeeping with exterior.merge_indices."""
    total = 0.0
    for S in itertools.combinations(range(p + q), p):
        rest = [k for k in range(p + q) if k not in S]
        sign = (-1) ** (sum(S) - p * (p - 1) // 2)
        total = total + sign * _alternation(a, vectors[:, list(S)]) * _alternation(b, vectors[:, rest])
    return total


class TestNumericWedge:
    """The identity suite wedges point values; the symbolic products it
    replaced are the reference."""

    def random_form(self, coords, degree, rng):
        x = coords
        comps = {
            I: rng.uniform(-1, 1) + rng.uniform(-1, 1) * x[I[0]] * x[-1 - I[-1]]
            for I in itertools.combinations(range(len(coords)), degree)
            if rng.uniform() < 0.7
        }
        return AnalyticForm(coords, degree, comps)

    @pytest.mark.parametrize("dim", [4, 6])
    @pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 2), (1, 3)])
    def test_matches_symbolic_wedge_and_shuffle_oracle(self, dim, p, q):
        rng = np.random.default_rng(100 * dim + 10 * p + q)
        coords = sympy_coords(real_coords(dim, prefix="x"))
        a, b = self.random_form(coords, p, rng), self.random_form(coords, q, rng)
        pts = rng.uniform(-0.9, 0.9, size=(12, dim))
        numeric = wedge_comps(a.evaluate(pts), b.evaluate(pts))
        symbolic = a.wedge(b).evaluate(pts)
        assert numeric.keys() == symbolic.keys()
        for K, v in symbolic.items():
            assert np.max(np.abs(numeric[K] - v)) < 1e-14
        vectors = rng.normal(size=(dim, p + q))
        want = _shuffle_wedge(a.evaluate(pts), p, b.evaluate(pts), q, vectors)
        assert np.max(np.abs(_alternation(numeric, vectors) - want)) < 1e-13

    def test_top_degeneracy_matches_symbolic_products(self):
        # the non-Monge-Ampere residual is order one, so both routes must
        # give the same number, not only both a small one
        exh = non_ma_exhaustion()
        tau = AnalyticForm.scalar(sympy_coords(ambient_coords(2)), to_sympy(exh.tau_ambient))
        dtau, ddc = tau.d(), tau.dc().d()
        cross = dtau.wedge(tau.dc())
        top_lhs = tau.wedge(ddc.wedge(ddc))
        diff = top_lhs - cross.wedge(ddc).scale(2)
        pts = _ambient_points(2, 40, seed=13)

        def max_abs(form):
            return max(float(np.max(np.abs(v))) for v in form.evaluate(pts).values())

        want = max_abs(diff) / max_abs(top_lhs)
        got = verify_ma_identities(exh)["top_degeneracy"]
        assert abs(got - want) <= 1e-12 * want


def exact_z_jets(exh, pts):
    """Oracle from the order-3 sympy partials of tau at real points (N, d):
    A = (HJ)^T - HJ and M = (AJ)^T, Z from M Z = grad tau, DZ by implicit
    differentiation, M d_k Z = d_k grad tau - (d_k M) Z, and the Lie
    derivative L = Z^k d_k A + DZ^T A + A DZ.  Returns (Z, DZ, A, L)."""
    coords = sympy_coords(ambient_coords(exh.n))
    n, d = pts.shape
    partials = {(): to_sympy(exh.tau_ambient)}  # keyed by sorted axis tuples
    for order in (1, 2, 3):
        for idx in itertools.combinations_with_replacement(range(d), order):
            partials[idx] = sp.diff(partials[idx[:-1]], coords[idx[-1]])
    fn = lambdify_rows(coords, list(partials.values()))
    vals = dict(zip(partials, np.real(fn(*pts.T))))

    def tensor(order):
        out = np.empty((n,) + (d,) * order)
        for idx in itertools.product(range(d), repeat=order):
            out[(slice(None),) + idx] = vals[tuple(sorted(idx))]
        return out

    g, H, T = tensor(1), tensor(2), tensor(3)
    J = standard_j_matrix(d)

    def ddc(hessian):
        HJ = hessian @ J
        return np.swapaxes(HJ, -1, -2) - HJ

    A = ddc(H)
    M = np.swapaxes(A @ J, -1, -2)
    Z = np.linalg.solve(M, g[..., None])[..., 0]
    dA = ddc(np.moveaxis(T, -1, 1))  # (N, k, i, j) = d_k A_ij
    dM = np.swapaxes(dA @ J, -1, -2)
    rhs = H - np.einsum("nkij,nj->nki", dM, Z)  # row k: d_k grad tau - (d_k M) Z
    DZ = np.swapaxes(np.linalg.solve(M[:, None], rhs[..., None])[..., 0], 1, 2)
    L = np.einsum("nk,nkij->nij", Z, dA) + np.swapaxes(DZ, 1, 2) @ A + A @ DZ
    return Z, DZ, A, L


def skew_exhaustion():
    """tau = |z|^2 + (x1 y2)^2: not circular, so Z is not the half-radial
    field, and DZ is not symmetric (on the circular domains DZ = I/2)."""
    x1, y1, x2, y2 = ambient_coords(2)
    return ExhaustionField(n=2, tau_ambient=x1**2 + y1**2 + x2**2 + y2**2 + (x1 * y2) ** 2)


ORACLE_CASES = {
    "ball": lambda: make_circular_domain({"kind": "ball"})[1],
    "ellipsoid": lambda: make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})[1],
    "perturbed_ball": lambda: make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})[1],
    "ellipsoid_n3": lambda: make_circular_domain({"kind": "ellipsoid", "n": 3})[1],
    "skew": skew_exhaustion,
}


class TestExactOracle:
    """The jet derivatives DZ and the Lie derivative of ddc tau against
    sympy's exact partials, and Cartan's formula L_Z ddc tau = d(i_Z ddc
    tau) = ddc tau, which holds wherever Z is defined."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_finite_differences_match_exact_derivatives(self, case):
        exh = ORACLE_CASES[case]()
        ev, pts, Z = z_field(exh, 20, seed=13)
        Z_exact, DZ, A, L = exact_z_jets(exh, pts)
        assert np.max(np.abs(Z - Z_exact)) < 1e-12
        assert np.max(np.abs(A - ev.fields(pts)[3])) < 1e-12
        assert np.max(np.abs(ev.flow(pts)[1] - DZ)) < 1e-12
        assert np.max(np.abs(ev.flow(pts)[3] - L)) < 1e-12
        assert np.max(np.abs(L - A)) < 1e-14
