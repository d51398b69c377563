"""Domain model: gauge construction, exhaustion, spec files."""

import numpy as np
import pytest

from maform import domains
from maform.atlas import blowup_forward
from maform.domains import (
    DomainError,
    PseudoconvexityError,
    SpecParseError,
    make_circular_domain,
    parse_domain_spec,
)
from maform.exterior import standard_j_matrix
from maform.symforms import AnalyticForm, to_real

RNG = np.random.default_rng(20260825)


class TestMakeCircularDomain:
    def test_ball_chart_values(self):
        mink, exh = make_circular_domain({"kind": "ball"})
        assert abs(mink.m(0, 0.0) - 1.0) < 1e-14
        assert abs(mink.m(0, 1.0) - np.sqrt(2.0)) < 1e-14
        assert abs(mink.m(1, 1.0) - np.sqrt(2.0)) < 1e-14

    def test_ellipsoid_chart_values(self):
        mink, _ = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        assert abs(mink.m(0, 1.0) - np.sqrt(5.0)) < 1e-14
        assert abs(mink.m(0, 0.0) - 1.0) < 1e-14
        # chart 1 swaps the roles of the coefficients
        assert abs(mink.m(1, 0.0) - 2.0) < 1e-14

    def test_homogeneity_across_charts(self):
        for spec in (
            {"kind": "ball"},
            {"kind": "ellipsoid", "a": 1, "b": 4},
            {"kind": "perturbed_ball", "eps": 0.05},
        ):
            mink, _ = make_circular_domain(spec)
            v = RNG.uniform(-1.2, 1.2, 20) + 1j * RNG.uniform(-1.2, 1.2, 20)
            v = v[np.abs(v) > 0.3]
            m0 = mink.m(0, v)
            m1 = mink.m(1, 1.0 / v)
            assert np.max(np.abs(m1 - m0 / np.abs(v))) < 1e-12

    def test_mu_degree_one_homogeneous(self):
        mink, _ = make_circular_domain({"kind": "perturbed_ball", "eps": 0.05})
        z = RNG.normal(size=(30, 2)) + 1j * RNG.normal(size=(30, 2))
        lam = RNG.uniform(0.2, 2.0, 30) * np.exp(1j * RNG.uniform(0, 2 * np.pi, 30))
        mu1 = mink.mu(z * lam[:, None])
        mu0 = mink.mu(z)
        assert np.max(np.abs(mu1 - np.abs(lam) * mu0)) < 1e-10

    def test_exhaustion_matches_gauge_squared(self):
        mink, exh = make_circular_domain({"kind": "ellipsoid", "a": 1, "b": 4})
        z = RNG.normal(size=(20, 2)) + 1j * RNG.normal(size=(20, 2))
        tau = exh.ambient_form().scalar_at(to_real(z)).real
        assert np.max(np.abs(tau - mink.mu(z) ** 2)) < 1e-10

    def test_pseudoconvexity_eps_scan(self):
        # scan the perturbation upward; the witness must flip from pass to
        # fail at some finite amplitude, with the offending point reported
        eigs = []
        failed_at = None
        for eps in (0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
            try:
                make_circular_domain({"kind": "perturbed_ball", "eps": eps})
                eigs.append(eps)
            except PseudoconvexityError as err:
                failed_at = eps
                assert err.eigenvalue <= 0
                assert err.point.shape == (2,)
                break
        assert failed_at is not None, "witness never failed in the scan"
        assert 0.05 in eigs, "small perturbations must stay pseudoconvex"

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "ball"},
            {"kind": "ellipsoid", "a": 1, "b": 4},
            {"kind": "perturbed_ball", "eps": 0.05},
        ],
    )
    def test_ddc_matrix_matches_symbolic_ddc(self, spec):
        mink, _ = make_circular_domain(spec)
        coords = domains.ambient_coords(2)
        pts = RNG.uniform(-1.0, 1.0, size=(50, 4))
        got = domains._ddc_matrix(mink.mu_sq_ambient, coords, pts)
        want = AnalyticForm.scalar(coords, mink.mu_sq_ambient).dc().d().matrix_at(pts).real
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_witness_eigenvalue_matches_symbolic_ddc(self):
        # the witness's sample points, with the Levi form of the symbolic
        # ddc of mu^2: its smallest eigenvalue is the one reported
        with pytest.raises(PseudoconvexityError) as err:
            make_circular_domain({"kind": "perturbed_ball", "eps": 0.8})
        coords = domains.ambient_coords(2)
        mu_sq = domains._mu_sq_expression(2, "perturbed_ball", {"eps": 0.8}, coords)
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(60, 4))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.3]
        AJ = AnalyticForm.scalar(coords, mu_sq).dc().d().matrix_at(pts).real @ standard_j_matrix(4)
        eigs = np.linalg.eigvalsh(0.5 * (AJ + AJ.swapaxes(1, 2)))
        assert abs(err.value.eigenvalue - eigs.min()) <= 1e-13 * np.max(np.abs(eigs))

    def test_gauge_positivity_enforced(self, monkeypatch):
        # mu^2 = |z2|^2 - |z1|^2 gives m^2 = |v|^2 - 1 < 0 at the chart-0
        # node v = 0; no spec kind reaches such a gauge, so it is injected
        def indefinite(n, kind, params, coords):
            x1, y1, x2, y2 = coords
            return x2**2 + y2**2 - x1**2 - y1**2

        monkeypatch.setattr(domains, "_mu_sq_expression", indefinite)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="not positive"):
            make_circular_domain({"kind": "ball"})


class TestBlowupCoords:
    def test_axis_points(self):
        chart, v, zeta = blowup_forward(np.array([1.0, 0.0], dtype=complex))
        assert chart == 0 and abs(v[0]) < 1e-15 and abs(zeta - 1.0) < 1e-15
        chart, v, zeta = blowup_forward(np.array([0.5, 0.5], dtype=complex))
        assert chart == 0 and abs(v[0] - 1.0) < 1e-15 and abs(zeta - 0.5) < 1e-15

    @staticmethod
    def _assert_round_trip(z):
        chart, v, zeta = blowup_forward(z)
        # the same arithmetic row by row, and the rebuild zeta * (1, v)
        # with 1 in slot chart
        assert np.array_equal(v, [np.delete(r / r[c], c) for r, c in zip(z, chart)])
        rows = [s * np.insert(r, c, 1.0) for r, c, s in zip(v, chart, zeta)]
        assert np.max(np.abs(np.array(rows) - z)) < 1e-12
        return chart

    @staticmethod
    def _every_chart_batch(n, size=1000):
        # a separate generator keeps the module draws of later tests fixed
        rng = np.random.default_rng(n)
        return rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))

    def test_round_trip(self):
        self._assert_round_trip(RNG.normal(size=(100, 2)) + 1j * RNG.normal(size=(100, 2)))
        charts = self._assert_round_trip(self._every_chart_batch(2))
        assert set(charts.tolist()) == {0, 1}

    def test_round_trip_n3(self):
        self._assert_round_trip(RNG.normal(size=(50, 3)) + 1j * RNG.normal(size=(50, 3)))
        charts = self._assert_round_trip(self._every_chart_batch(3))
        assert set(charts.tolist()) == {0, 1, 2}

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            blowup_forward(np.zeros(2, dtype=complex))


class TestSpecFiles:
    GOOD = """# ellipsoid fixture
n = 2
mu.kind = ellipsoid
a = 1
b = 4
N_v = 33
N_r = 8
N_theta = 16
"""

    def test_parse_and_echo(self):
        spec = parse_domain_spec(self.GOOD)
        assert spec.kind == "ellipsoid"
        assert spec.params == {"a": 1.0, "b": 4.0}
        assert (spec.n_v, spec.n_r, spec.n_theta) == (33, 8, 16)
        assert spec.raw == self.GOOD  # bit-exact echo source

    def test_parse_perturbed_q_list(self):
        text = "mu.kind = perturbed_ball\neps = 0.05\nq = 2:1, 3:0.5\n"
        spec = parse_domain_spec(text)
        assert spec.params["q"] == {2: 1.0, 3: 0.5}

    def test_spec_drives_construction(self):
        spec = parse_domain_spec(self.GOOD)
        mink, _ = make_circular_domain(spec.mu_spec(), atlas=spec.atlas())
        assert abs(mink.m(0, 1.0) - np.sqrt(5.0)) < 1e-14

    def test_errors_carry_position(self):
        with pytest.raises(SpecParseError, match="line 2"):
            parse_domain_spec("n = 2\nbogus_key = 1\n")
        with pytest.raises(SpecParseError, match="column"):
            parse_domain_spec("mu.kind = dodecahedron\n")
        with pytest.raises(SpecParseError, match="expected"):
            parse_domain_spec("just some words\n")
