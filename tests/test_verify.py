"""Verifier sweeps, Poisson reconstruction, disk transfer, asymptotics."""

import json
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from mingraphs import (
    AffineMap,
    AnalyticMap,
    BoundaryArgumentData,
    ConvergenceError,
    HeightRecord,
    LevelCurveSpec,
    ParameterError,
    PowerAffineMap,
    QuadratureError,
    SampleGrid,
    SingularityError,
    SumMap,
    WeierstrassPair,
    admit,
    disk_transfer_check,
    estimate_asymptotic_angles,
    lw_family,
    poisson_kernels,
    sample_level_curve,
    sigma_for_level,
    verify_lemma2,
    verify_poisson,
    verify_scaling,
    verify_thm1,
    verify_thm2,
)
from mingraphs import cli, verify

GRID = verify.SAMPLE_GRID


def sign_flip_pair() -> WeierstrassPair:
    """Synthetic negative control: h' = zeta - 4 so Re h' changes sign."""
    h = SumMap((PowerAffineMap(offset=1.0, exponent=2.0, coeff=0.5), AffineMap(-5.0)))
    return WeierstrassPair(h=h, k0=2.0, g_anchor=(1.0 + 0j, 0j), label="sign-flip")


def t_space_kernels(gamma: float, zeta: complex) -> tuple[float, float, float]:
    """The three original t-space Poisson kernels for lw(gamma), by mpmath at
    30 digits: Im log h', the tau-derivative form and the by-parts form."""
    with mpmath.workdps(30):
        s, t = mpmath.mpf(zeta.real), mpmath.mpf(zeta.imag)
        a = mpmath.mpf(gamma) - 1

        def poisson(u):
            return s / mpmath.pi / (s**2 + (u - t) ** 2)

        pts = [-mpmath.inf, t - 5 * s, t, t + 5 * s, mpmath.inf]
        im_log = mpmath.quad(lambda u: poisson(u) * a * mpmath.atan(u), pts)
        deriv = mpmath.quad(
            lambda u: 2 * (u - t) / (s**2 + (u - t) ** 2) * poisson(u) * a * mpmath.atan(u), pts
        )
        by_parts = mpmath.quad(lambda u: poisson(u) * a / (1 + u * u), pts)
        return float(im_log), float(deriv), float(by_parts)


class TestSampleGrid:
    def test_points_shape(self):
        grid = SampleGrid.rectangular(0.1, 1.0, 3, 2.0, 5)
        assert grid.points().shape == (3, 5)

    def test_positive_sigma_enforced(self):
        with pytest.raises(ParameterError):
            SampleGrid(sigmas=np.array([0.0, 1.0]), taus=np.array([0.0]), descriptor="bad")

    def test_fixed_sample_sets(self):
        assert GRID.descriptor == "sigma geom[0.02,10]x24, tau [-10,10]x21"
        # both ends are exact: the critical-point test in test_cli relies on zeta = 10
        assert (GRID.sigmas[0], GRID.sigmas[-1], GRID.taus[10]) == (0.02, 10.0, 0.0)
        assert len(verify.POISSON_POINTS) == 20
        assert verify.ANGLE_PROBES == (1e2, 1e3, 1e4)


class TestLemma2:
    def test_lw15_pointwise_value(self, lw15):
        jet = lw15.h.jet(1.0 + 0j)
        assert 1.0 * abs(jet.d2 / jet.d1) == pytest.approx(0.25, rel=1e-13)

    def test_planar_zero(self, planar22):
        report = verify_lemma2(admit(planar22))
        assert report.passed and report.empirical_constant == 0.0

    def test_lw19_supremum_on_real_axis(self, monkeypatch):
        grid = SampleGrid(sigmas=np.linspace(0.5, 50.0, 25), taus=np.linspace(-50.0, 50.0, 21),
                          descriptor="sigma lin[0.5,50]x25, tau [-50,50]x21")
        monkeypatch.setattr(verify, "SAMPLE_GRID", grid)
        report = verify_lemma2(admit(lw_family(1.9)))
        assert report.passed
        assert report.empirical_constant == pytest.approx(50.0 * 0.9 / 51.0, rel=1e-12)
        assert report.empirical_constant < 0.9
        assert report.extremal_point == (50.0, 0.0)

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    def test_family_bound(self, gamma):
        report = verify_lemma2(admit(lw_family(gamma)))
        assert report.passed
        assert report.empirical_constant <= gamma - 1.0 + 1e-12


class TestDerivativeFloor:
    """h' = zeta - 4 vanishes at zeta = 4: every h''/h' must refuse it."""

    @pytest.fixture(autouse=True)
    def grid_through_zero(self, monkeypatch):
        monkeypatch.setattr(verify, "SAMPLE_GRID", SampleGrid(
            sigmas=np.array([1.0, 4.0]), taus=np.array([-1.0, 0.0, 1.0]),
            descriptor="contains zeta = 4"))

    def test_lemma2_raises(self):
        with pytest.raises(SingularityError):
            verify_lemma2(admit(sign_flip_pair()))

    def test_disk_raises(self):
        with pytest.raises(SingularityError):
            disk_transfer_check(admit(sign_flip_pair()))


class TestThm1:
    @pytest.fixture
    def five_levels(self, monkeypatch):
        monkeypatch.setattr(verify, "THM1_LEVELS", (0.5, 1.0, 2.0, 4.0, 8.0))

    def test_planar(self, planar22, monkeypatch):
        monkeypatch.setattr(verify, "THM1_LEVELS", (0.5, 1.0, 2.0))
        report = verify_thm1(admit(planar22))
        assert report.passed and report.empirical_constant == 0.0

    def test_lw15_chain(self, lw15, five_levels):
        report = verify_thm1(admit(lw15))
        assert report.passed
        # C=2, tau=0 sits on the sampled set: C*kappa there is a lower bound
        assert report.empirical_constant >= 2.0 * HeightRecord.at(lw15, 1.0 + 0j).kappa - 1e-12
        assert "chain bound" in report.notes

    def test_no_growth_across_levels(self, lw15, five_levels):
        report = verify_thm1(admit(lw15))
        a_emp = verify_lemma2(admit(lw15)).empirical_constant
        assert report.empirical_constant <= 2.0 * a_emp + 1e-9


class TestThm2:
    def test_lw15_passes(self, lw15):
        report = verify_thm2(admit(lw15))
        assert report.passed
        assert report.empirical_constant > 0.0
        assert report.notes == "all sub-checks passed"

    def test_planar_fails_strict_positivity(self, planar22):
        report = verify_thm2(admit(planar22))
        assert not report.passed
        assert "(d)" in report.notes
        assert "planar" in report.notes

    def test_sign_flip_fails_re_hprime(self, monkeypatch):
        # keep |tau| >= 2 so h' = zeta - 4 never vanishes on the grid
        grid = SampleGrid(sigmas=np.linspace(1.0, 10.0, 10), taus=np.linspace(2.0, 10.0, 9),
                          descriptor="sigma [1,10], tau [2,10]")
        monkeypatch.setattr(verify, "SAMPLE_GRID", grid)
        report = verify_thm2(admit(sign_flip_pair()))
        assert not report.passed
        assert "(b)" in report.notes  # Re h' <= 0 named with its point
        assert "(a)" in report.notes  # boundary y_tau < 0 as well


def boundary_data(psi, dpsi) -> BoundaryArgumentData:
    """Boundary data from vectorized callables psi(t) and psi'(t)."""
    return BoundaryArgumentData(lambda t: (psi(t), dpsi(t)))


def zeros(t):
    return np.zeros_like(t)


class TestPoisson:
    def test_zero_data(self, lw15):
        data = boundary_data(zeros, zeros)
        (im_log, ratio, by_parts), _ = poisson_kernels(data, 1.0 + 0j)
        assert im_log == pytest.approx(0.0, abs=1e-12)
        assert ratio == pytest.approx(0.0, abs=1e-12)
        assert by_parts == pytest.approx(0.0, abs=1e-12)

    def test_constant_data_gives_zero_ratio(self):
        data = boundary_data(lambda t: np.full_like(t, 0.3), zeros)
        (_, ratio, by_parts), _ = poisson_kernels(data, 1.5 + 0.5j)
        assert ratio == pytest.approx(0.0, abs=1e-9)
        assert by_parts == pytest.approx(0.0, abs=1e-12)

    def test_odd_data_at_real_point(self, lw15):
        data = boundary_data(lambda t: 0.5 * np.arctan(t), lambda t: 0.5 / (1 + t * t))
        (im_log, _, _), _ = poisson_kernels(data, 1.0 + 0j)
        assert im_log == pytest.approx(0.0, abs=1e-10)
        assert np.angle(lw15.h.jet(1.0 + 0j).d1) == 0.0

    def test_interior_reconstruction(self, lw15):
        data = BoundaryArgumentData.from_pair(lw15)
        (im_log, _, _), _ = poisson_kernels(data, 1.0 + 1.0j)
        assert im_log == pytest.approx(0.5 * np.angle(2.0 + 1.0j), abs=1e-4)
        (_, ratio, by_parts), _ = poisson_kernels(data, 1.0 + 0j)
        assert ratio == pytest.approx(0.25, abs=1e-4)
        assert by_parts == pytest.approx(0.25, abs=1e-4)
        assert abs(ratio - by_parts) <= 2e-4

    def test_gamma19_point(self):
        data = boundary_data(lambda t: 0.9 * np.arctan(t), lambda t: 0.9 / (1 + t * t))
        (_, ratio, _), _ = poisson_kernels(data, 2.0 + 3.0j)
        assert ratio == pytest.approx(0.15, abs=1e-4)
        assert np.real(0.9 / (3.0 + 3.0j)) == pytest.approx(0.15)

    def test_psi_bound_enforced(self):
        with pytest.raises(ParameterError):
            boundary_data(lambda t: np.full_like(t, 2.0), zeros)

    def test_psi_bound_enforced_on_integrated_values(self):
        # the spike at 1e-3 < t < 2e-3 misses every construction sample but
        # not the quadrature nodes near this point
        data = boundary_data(lambda t: np.where((t > 1e-3) & (t < 2e-3), 2.0, 0.0), zeros)
        assert np.max(np.abs(data.values(verify.PSI_SAMPLES)[0])) == 0.0
        with pytest.raises(ParameterError):
            poisson_kernels(data, 0.0015 + 0j)

    @pytest.mark.parametrize("zeta", [0.5 - 3.0j, 0.5 + 1.0j, 1.0 + 0j, 2.0 + 3.0j])
    def test_mpmath_oracle(self, lw15, zeta):
        oracle = t_space_kernels(1.5, zeta)
        values, errors = poisson_kernels(BoundaryArgumentData.from_pair(lw15), zeta)
        for value, expected in zip(values, oracle):  # Im log h', derivative form, by parts
            assert abs(value - expected) <= 1e-12
        for err in (*errors, errors[1] + errors[2]):
            assert np.isfinite(err) and err <= 1e-10

    def test_one_call_per_rule_size(self):
        calls = []

        def values(t):
            calls.append(t.shape)
            return 0.5 * np.arctan(t), 0.5 / (1 + t * t)

        data = BoundaryArgumentData(values)
        calls.clear()
        points = np.array([complex(s, t) for s in (0.5, 1.0, 2.0, 5.0) for t in (-3, -1, 0, 1, 3)])
        poisson_kernels(data, points)
        assert 2 <= len(calls) <= 7  # rule sizes 64, 128, ..., 4096
        assert all(shape[0] == 20 for shape in calls)

    def test_report_evaluates_boundary_once_per_rule_size(self, lw15):
        # One jet of h on the boundary at construction (the 399 samples),
        # then one per Gauss-Legendre rule size covering all 20 points.
        class BoundaryCalls(AnalyticMap):
            shapes = []

            def jet(self, zeta):
                zeta = np.asarray(zeta, dtype=complex)
                if np.all(zeta.real == 0.0):
                    self.shapes.append(zeta.shape)
                return lw15.h.jet(zeta)

        pair = replace(lw15, h=BoundaryCalls())
        admitted = admit(pair)
        BoundaryCalls.shapes.clear()  # admit's row at sigma = 0; the check's calls follow
        report = verify_poisson(admitted, BoundaryArgumentData.from_pair(pair))
        assert report.to_json() == verify_poisson(admit(lw15)).to_json()
        construction, *rules = BoundaryCalls.shapes
        assert construction == verify.PSI_SAMPLES.shape == (399,)
        assert 2 <= len(rules) <= 7
        assert rules == [(len(verify.POISSON_POINTS), 64 * 2**k) for k in range(len(rules))]

    def test_nonconvergent_data_raises(self):
        # a jump in psi away from the symmetric node set: O(1/n) convergence
        data = boundary_data(lambda t: 0.5 * np.sign(t - 0.3), zeros)
        with pytest.raises(QuadratureError):
            poisson_kernels(data, 1.0 + 0j)

    def test_wrong_pair_data_fails(self):
        wrong = BoundaryArgumentData.from_pair(lw_family(1.5))
        report = verify_poisson(admit(lw_family(1.9)), wrong)
        assert not report.passed
        assert report.empirical_constant > 1e-4
        # a deviation above the quadrature estimate keeps its location
        targets = {(s, t) for s in (0.5, 1.0, 2.0, 5.0) for t in (-3.0, -1.0, 0.0, 1.0, 3.0)}
        assert report.extremal_point in targets
        assert json.loads(report.to_json())["extremal_point"] == list(report.extremal_point)

    @pytest.mark.parametrize("gamma", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_psi_bound_on_family(self, gamma):
        data = BoundaryArgumentData.from_pair(lw_family(gamma))
        assert np.max(np.abs(data.values(verify.PSI_SAMPLES)[0])) <= np.pi / 2

    def test_report(self, lw15, monkeypatch):
        monkeypatch.setattr(verify, "POISSON_POINTS", (0.5 + 0j, 1.0 + 2.0j, 2.0 - 1.0j))
        report = verify_poisson(admit(lw15))
        assert report.passed
        assert report.grid_descriptor.startswith("3 interior points")
        assert report.empirical_constant <= 1e-4

    @pytest.mark.parametrize("gamma", [1.001, 1.5, 1.999])
    def test_report_accuracy(self, gamma):
        report = verify_poisson(admit(lw_family(gamma)))
        assert report.passed
        assert report.empirical_constant <= 1e-12
        assert "n-vs-2n" in report.notes
        # rounding noise below the n-vs-2n estimate has no location
        assert report.extremal_point is None
        assert json.loads(report.to_json())["extremal_point"] is None


class TestScaling:
    def test_identity_factor(self, lw15, monkeypatch):
        monkeypatch.setattr(verify, "SCALE_FACTORS", (1.0,))
        report = verify_scaling(admit(lw15))
        assert report.passed and report.empirical_constant == 0.0
        assert report.grid_descriptor == "factors [1.0], 20 points"

    @pytest.mark.parametrize("gamma", [1.23, 1.5, 1.77])
    def test_one_array_evaluation_matches_pointwise(self, gamma):
        # verify_scaling evaluates h once on all SCALING_POINTS; each kappa
        # agrees with a scalar evaluation at its point to a few ulps (numpy's
        # scalar and array complex powers can round differently).
        from mingraphs import scale_solution
        for c in (1.0, *verify.SCALE_FACTORS):
            pair = scale_solution(lw_family(gamma), c)
            together = HeightRecord.at(pair, np.array(verify.SCALING_POINTS)).kappa
            apart = [HeightRecord.at(pair, zeta).kappa for zeta in verify.SCALING_POINTS]
            np.testing.assert_allclose(together, apart, rtol=8 * np.finfo(float).eps, atol=0.0)

    def test_doubling_halves_curvature(self, lw15):
        from mingraphs import scale_solution
        scaled = scale_solution(lw15, 2.0)
        kappa_scaled = HeightRecord.at(scaled, 1.0 + 0j).kappa
        assert kappa_scaled == pytest.approx(
            HeightRecord.at(lw15, 1.0 + 0j).kappa / 2.0, rel=1e-12
        )
        report = verify_scaling(admit(lw15))
        assert report.passed and "c=2: " in report.notes

    def test_planar_trivial(self, planar22):
        report = verify_scaling(admit(planar22))
        assert report.passed and report.empirical_constant == pytest.approx(0.0, abs=1e-15)

    def test_wrong_scaling_fails(self, lw15, monkeypatch):
        # negative control: a solution scaled by 1.01*c breaks c*kappa_scaled = kappa
        scale = verify.scale_solution
        monkeypatch.setattr(verify, "scale_solution", lambda pair, c: scale(pair, 1.01 * c))
        report = verify_scaling(admit(lw15))
        assert not report.passed and report.empirical_constant > 1e3 * verify.SCALING_TOL


class TestDiskTransfer:
    def test_center_of_disk(self, lw15, monkeypatch):
        grid = SampleGrid(sigmas=np.array([1.0]), taus=np.array([0.0]), descriptor="zeta=1")
        monkeypatch.setattr(verify, "SAMPLE_GRID", grid)
        report = disk_transfer_check(admit(lw15))
        # w = 0 there: A1 = |H''/H'| = |(h''/h')*(zeta+1)^2/2 + (zeta+1)| = 2.5
        assert report.passed
        assert report.empirical_constant == pytest.approx(2.5, rel=1e-12)

    def test_planar_finite(self, planar22):
        report = disk_transfer_check(admit(planar22))
        assert report.passed and np.isfinite(report.empirical_constant)

    def test_lw15_chain_consistent(self, lw15):
        report = disk_transfer_check(admit(lw15))
        assert report.passed
        assert "holds" in report.notes


class TestAsymptoticAngles:
    def test_planar_vertical(self, planar22):
        plus, minus = estimate_asymptotic_angles(planar22)
        assert plus == pytest.approx(np.pi / 2, abs=1e-12)
        assert minus == pytest.approx(np.pi / 2, abs=1e-12)

    def test_lw15(self, lw15):
        plus, minus = estimate_asymptotic_angles(lw15)
        assert plus == pytest.approx(3 * np.pi / 4, abs=1e-6)
        assert minus == pytest.approx(np.pi / 4, abs=1e-6)

    @pytest.mark.parametrize("gamma", [1.01, 1.1, 1.5, 1.9, 1.99])
    def test_lw_closed_form(self, gamma):
        # The boundary arc of lw(gamma) leaves at gamma*pi/2 toward +infinity
        # and at (2-gamma)*pi/2 toward -infinity, unrotated.
        plus, minus = estimate_asymptotic_angles(lw_family(gamma))
        assert abs(plus - gamma * np.pi / 2) <= 1e-9
        assert abs(minus - (2.0 - gamma) * np.pi / 2) <= 1e-9

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(verify, "ANGLE_PROBES", (1.0, 2.0))
        with pytest.raises(ConvergenceError):
            estimate_asymptotic_angles(lw_family(1.9))


class TestReportSerialization:
    def test_fixed_field_order(self, planar22):
        report = verify_lemma2(admit(planar22))
        parsed = json.loads(report.to_json())
        assert list(parsed.keys()) == [
            "check_name", "passed", "empirical_constant", "extremal_point",
            "tolerance", "grid_descriptor", "notes",
        ]
        assert parsed["passed"] is True
        assert isinstance(parsed["extremal_point"], list)

    def test_determinism(self, lw15):
        a = verify_thm2(admit(lw15)).to_json()
        b = verify_thm2(admit(lw15)).to_json()
        assert a == b


def test_h_evaluated_once_per_point_set(lw15, tmp_path, monkeypatch):
    # `verify all` evaluates h once on SAMPLE_GRID and once on its boundary
    # row, which every sampled check then reads; a level curve evaluates h
    # once for all of its columns.
    class Calls(AnalyticMap):
        points = []

        def jet(self, zeta):
            self.points.append(np.array(zeta, dtype=complex))
            return lw15.h.jet(zeta)

    pair = replace(lw15, h=Calls())
    monkeypatch.setattr(cli, "build_pair", lambda spec: pair)
    Calls.points.clear()
    assert cli.main(["verify", "all", "--out", str(tmp_path / "out"),
                     "--grid=0.5,3,-2,2,0.125"]) == 0

    def count(want):
        return sum(got.shape == want.shape and np.array_equal(got, want) for got in Calls.points)

    assert verify.SAMPLE_GRID.points().shape == (24, 21)
    assert count(verify.SAMPLE_GRID.points()) == 1
    assert count(0.0 + 1j * verify.SAMPLE_GRID.taus) == 1
    for c in (0.0, 1.0, 2.0):
        Calls.points.clear()
        curve = sample_level_curve(pair, LevelCurveSpec(c, -20.0, 20.0, 401))
        assert [got.shape for got in Calls.points] == [(401,)]
        assert np.array_equal(Calls.points[0], sigma_for_level(pair, c) + 1j * curve.tau)
