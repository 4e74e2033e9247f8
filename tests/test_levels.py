"""Level-curve sampling and the three curvature routes."""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mingraphs import (
    ConvergenceError,
    HeightRecord,
    LevelCurve,
    LevelCurveSpec,
    ParameterError,
    SingularityError,
    boundary_trace,
    curvature_generic,
    eval_surface,
    lw_family,
    sample_level_curve,
    sigma_for_level,
)
from mingraphs import levels, serialize
from mingraphs.cli import main
from mingraphs.levels import (
    MAX_LEVEL_SAMPLES,
    SAMPLE_COLUMNS,
    rows_to_csv,
    rows_to_json,
    sample_rows,
)
from mingraphs.serialize import fmt_float, to_json
from oracles import curvature_fd_oracle, tau_partials_conjugate_form

KAPPA_LW15_AT_1 = 1.5 * 2.0**0.5 / (4.5 + 1.0) * 0.25  # = 0.09642365...


class TestSigmaForLevel:
    def test_values(self, lw15):
        assert sigma_for_level(lw15, 3.0) == 1.5
        assert sigma_for_level(lw15, 0.0) == 0.0
        assert sigma_for_level(lw15, 2.0) == 1.0

    def test_negative_rejected(self, lw15):
        with pytest.raises(ParameterError):
            sigma_for_level(lw15, -1.0)


class TestTauPartials:
    def test_planar(self, planar22):
        partials = HeightRecord.at(planar22, 0.7 + 2.0j).tau_partials
        assert partials == pytest.approx((0.0, 2.5, 0.0, 0.0))

    def test_lw15_real_axis(self, lw15):
        x_tau, y_tau, _, _ = HeightRecord.at(lw15, 1.0 + 0j).tau_partials
        hp = 1.5 * 2.0**0.5
        assert x_tau == pytest.approx(0.0, abs=1e-15)
        assert y_tau == pytest.approx(hp + 1.0 / hp, rel=1e-13)

    def test_lw15_boundary_positive(self, lw15):
        _, y_tau, _, _ = HeightRecord.at(lw15, 1j).tau_partials
        hp = lw15.h.jet(1j).d1
        expected = (abs(hp) ** 2 + 1.0) * np.real(hp) / abs(hp) ** 2
        assert y_tau == pytest.approx(expected, rel=1e-13)
        assert y_tau == pytest.approx(2.1659508282117276, rel=1e-12)
        assert y_tau > 0.0

    def test_conjugate_form_agrees(self, lw15):
        for zeta in (0.3 + 0j, 1.0 + 2.0j, 5.0 - 7.0j):
            x_tau, y_tau, _, _ = HeightRecord.at(lw15, zeta).tau_partials
            alt_x, alt_y = tau_partials_conjugate_form(lw15, zeta)
            assert x_tau == pytest.approx(alt_x, rel=1e-12, abs=1e-14)
            assert y_tau == pytest.approx(alt_y, rel=1e-12, abs=1e-14)

    def test_against_finite_differences(self, lw15):
        for zeta in (1.0 + 0j, 0.5 + 1.5j, 2.0 - 1.0j):
            x_tau, y_tau, x_tautau, y_tautau = HeightRecord.at(lw15, zeta).tau_partials
            step = 1e-5  # first differences: truncation and roundoff both tiny
            up = eval_surface(lw15, zeta + 1j * step)
            dn = eval_surface(lw15, zeta - 1j * step)
            assert (up.x - dn.x) / (2 * step) == pytest.approx(x_tau, abs=1e-8)
            assert (up.y - dn.y) / (2 * step) == pytest.approx(y_tau, abs=1e-8)
            step = 1e-3  # second differences: keep roundoff/step^2 below tolerance
            up = eval_surface(lw15, zeta + 1j * step)
            dn = eval_surface(lw15, zeta - 1j * step)
            mid = eval_surface(lw15, zeta)
            assert (up.x - 2 * mid.x + dn.x) / step**2 == pytest.approx(x_tautau, abs=1e-5)
            assert (up.y - 2 * mid.y + dn.y) / step**2 == pytest.approx(y_tautau, abs=1e-5)


class TestCurvature:
    def test_generic_straight_line(self):
        assert curvature_generic(0.0, 2.5, 0.0, 0.0) == 0.0

    def test_generic_unit_circle(self):
        assert curvature_generic(1.0, 0.0, 0.0, 1.0) == 1.0

    def test_generic_degenerate(self):
        with pytest.raises(SingularityError):
            curvature_generic(0.0, 0.0, 1.0, 1.0)

    def test_closed_form_lw15(self, lw15):
        assert HeightRecord.at(lw15, 1.0 + 0j).kappa == pytest.approx(
            KAPPA_LW15_AT_1, rel=1e-13
        )

    def test_closed_form_planar_zero(self, planar22):
        for zeta in (0.5 + 0j, 1.0 + 3.0j):
            assert HeightRecord.at(planar22, zeta).kappa == 0.0

    def test_generic_equals_closed(self, lw15):
        for zeta in (1.0 + 0j, 0.1 + 5.0j, 3.0 - 2.0j):
            generic = curvature_generic(*HeightRecord.at(lw15, zeta).tau_partials)
            closed = HeightRecord.at(lw15, zeta).kappa
            assert generic == pytest.approx(closed, abs=1e-12)

    def test_h_image_lw15(self, lw15):
        assert HeightRecord.at(lw15, 1.0 + 0j).kappa1 == pytest.approx(
            0.25 / (1.5 * 2.0**0.5), rel=1e-13
        )

    def test_h_image_planar_zero(self, planar22):
        assert HeightRecord.at(planar22, 1.0 + 1.0j).kappa1 == 0.0

    def test_sign_agreement_and_ratio(self, lw15):
        for zeta in (0.2 + 1.0j, 1.0 - 4.0j, 6.0 + 6.0j):
            kappa = HeightRecord.at(lw15, zeta).kappa
            kappa1 = HeightRecord.at(lw15, zeta).kappa1
            assert np.sign(kappa) == np.sign(kappa1)
            mag2 = abs(lw15.h.jet(zeta).d1) ** 2
            assert kappa == pytest.approx(mag2 / (mag2 + lw15.k) * kappa1, rel=1e-12)


@pytest.mark.parametrize("gamma", [1.000001, 1.001, 1.5, 1.999, 1.999999])
def test_closed_form_against_mpmath(gamma):
    """kappa of lw(gamma) against a 40-digit evaluation of the same formula.

    Re(h''/h') = (gamma-1)(1+sigma)/|zeta+1|^2 is a small real part of a
    larger complex ratio when |tau| >> 1+sigma, so the double evaluation
    loses about log10(|zeta+1|/(1+sigma)) digits to cancellation.  The bound
    scales with that loss; its factor 16 is headroom over the worst case
    measured on this grid, 4.2 eps |zeta+1|/(1+sigma).
    """
    pair = lw_family(gamma)
    eps = np.finfo(float).eps
    for sigma in (0.0, 1e-3, 1.0, 10.0, 1e3):
        for tau in (0.0, 1e-3, -1.0, 1e2, -1e4, 1e6, -1e6):
            zeta = complex(sigma, tau)
            with mpmath.workdps(40):
                p, base = mpmath.mpf(gamma), mpmath.mpc(sigma, tau) + 1
                hp = p * base ** (p - 1)
                hpp = p * (p - 1) * base ** (p - 2)
                want = abs(hp) / (abs(hp) ** 2 + pair.k) * mpmath.re(hpp / hp)
                rel = float(abs((HeightRecord.at(pair, zeta).kappa - want) / want))
            assert rel <= 16 * eps * (1.0 + abs(zeta + 1) / (1.0 + sigma)), (sigma, tau, rel)


class TestFdOracle:
    def test_matches_closed_form(self, lw15):
        got = curvature_fd_oracle(lw15, 1.0, 0.0, 1e-4)
        assert got == pytest.approx(KAPPA_LW15_AT_1, abs=1e-8)

    def test_planar_zero(self, planar22):
        assert curvature_fd_oracle(planar22, 1.0, 0.5, 1e-4) == pytest.approx(0.0, abs=1e-12)

    def test_second_order_in_step(self, lw15):
        closed = HeightRecord.at(lw15, 1.0 + 0j).kappa
        err_coarse = abs(curvature_fd_oracle(lw15, 1.0, 0.0, 1e-2) - closed)
        err_fine = abs(curvature_fd_oracle(lw15, 1.0, 0.0, 5e-3) - closed)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.15)

    def test_gamma19_point(self):
        pair = lw_family(1.9)
        closed = HeightRecord.at(pair, 2.0 + 0j).kappa
        hp_mag = 1.9 * 3.0**0.9
        assert closed == pytest.approx(hp_mag * 0.3 / (hp_mag**2 + 1.0), rel=1e-13)
        assert curvature_fd_oracle(pair, 2.0, 0.0, 1e-4) == pytest.approx(closed, abs=1e-8)

    def test_tolerance_trips(self, lw15):
        with pytest.raises(ConvergenceError):
            curvature_fd_oracle(lw15, 1.0, 0.0, 0.5, tol=1e-12)

    def test_bad_step(self, lw15):
        with pytest.raises(ParameterError):
            curvature_fd_oracle(lw15, 1.0, 0.0, -1e-4)


class TestSampling:
    def test_planar_three_samples(self, planar22):
        spec = LevelCurveSpec(c=2.0, tau_min=-1.0, tau_max=1.0, n_samples=3)
        curve = sample_level_curve(planar22, spec)
        assert len(curve) == 3
        assert np.all(curve.kappa == 0.0)
        assert curve.x == pytest.approx([1.5] * 3)
        assert curve.s == pytest.approx([0.0, 2.5, 5.0], rel=1e-13)

    def test_lw15_all_positive(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-5.0, tau_max=5.0, n_samples=101)
        curve = sample_level_curve(lw15, spec)
        assert curve.kappa.min() > 0.0

    def test_two_samples_chord(self, planar22):
        spec = LevelCurveSpec(c=2.0, tau_min=0.0, tau_max=0.7, n_samples=2)
        curve = sample_level_curve(planar22, spec)
        assert curve.s[0] == 0.0
        chord = np.hypot(curve.x[1] - curve.x[0], curve.y[1] - curve.y[0])
        assert curve.s[1] == pytest.approx(chord, rel=1e-12)

    def test_s_nondecreasing_phi_atan2(self, lw15):
        spec = LevelCurveSpec(c=1.0, tau_min=-8.0, tau_max=8.0, n_samples=64)
        curve = sample_level_curve(lw15, spec)
        assert np.all(np.diff(curve.s) >= 0.0)
        every9 = slice(None, None, 9)
        assert curve.phi[every9] == pytest.approx(
            np.arctan2(curve.y_tau[every9], curve.x_tau[every9]))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            LevelCurveSpec(c=-1.0, tau_min=-20.0, tau_max=20.0, n_samples=401)
        with pytest.raises(ParameterError):
            LevelCurveSpec(c=1.0, tau_min=2.0, tau_max=-2.0, n_samples=401)
        with pytest.raises(ParameterError):
            LevelCurveSpec(c=1.0, tau_min=-20.0, tau_max=20.0, n_samples=1)

    def test_sample_cap(self):
        spec = LevelCurveSpec(c=1.0, tau_min=-20.0, tau_max=20.0, n_samples=MAX_LEVEL_SAMPLES)
        assert spec.n_samples == MAX_LEVEL_SAMPLES
        with pytest.raises(ParameterError, match=f"{MAX_LEVEL_SAMPLES + 1} samples"):
            LevelCurveSpec(c=1.0, tau_min=-20.0, tau_max=20.0, n_samples=MAX_LEVEL_SAMPLES + 1)


class TestBoundaryTrace:
    def test_lw15_flags_and_origin_curvature(self, lw15):
        spec = LevelCurveSpec(c=0.0, tau_min=-10.0, tau_max=10.0, n_samples=41)
        trace = boundary_trace(lw15, spec)
        assert np.all(trace.y_tau >= 0.0) and np.all(trace.kappa >= 0.0)
        assert trace.tau[20] == 0.0
        assert trace.kappa[20] == pytest.approx(1.5 / 3.25 * 0.5, rel=1e-12)
        assert trace.x[20] == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert trace.y[20] == pytest.approx(0.0, abs=1e-15)

    def test_planar_boundary_line(self, planar22):
        spec = LevelCurveSpec(c=0.0, tau_min=-4.0, tau_max=4.0, n_samples=17)
        trace = boundary_trace(planar22, spec)
        assert trace.y_tau == pytest.approx([2.5] * 17)
        assert np.all(trace.kappa == 0.0)

    def test_requires_zero_level(self, lw15):
        with pytest.raises(ParameterError):
            boundary_trace(lw15, LevelCurveSpec(c=1.0, tau_min=-20.0, tau_max=20.0,
                                                n_samples=401))


def _reference_csv(curve):
    """The per-field CSV writer: fmt_float on every field of every sample."""
    lines = [",".join(SAMPLE_COLUMNS)]
    for i in range(len(curve)):
        lines.append(",".join(fmt_float(getattr(curve, name)[i]) for name in SAMPLE_COLUMNS))
    return "\n".join(lines) + "\n"


def _reference_json(curve):
    """The per-value JSON writer: one dict per sample through to_json."""
    records = [{name: float(getattr(curve, name)[i]) for name in SAMPLE_COLUMNS}
               for i in range(len(curve))]
    return to_json(records) + "\n"


def _with_rows(curve, *rows):
    """curve with the given rows, one value per column each, appended."""
    return LevelCurve(*(np.append(getattr(curve, name), [row[k] for row in rows])
                        for k, name in enumerate(SAMPLE_COLUMNS)))


class TestExport:
    def test_csv_schema_and_determinism(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-1.0, tau_max=1.0, n_samples=5)
        curve = sample_level_curve(lw15, spec)
        text = rows_to_csv(sample_rows(curve))
        header = text.split("\n", 1)[0]
        assert header == "tau,x,y,x_tau,y_tau,x_tautau,y_tautau,phi,s,kappa,kappa1"
        assert text == rows_to_csv(sample_rows(sample_level_curve(lw15, spec)))

    def test_json_records(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-1.0, tau_max=1.0, n_samples=3)
        curve = sample_level_curve(lw15, spec)
        records = json.loads(rows_to_json(sample_rows(curve)))
        assert len(records) == 3
        assert list(records[0].keys()) == list(SAMPLE_COLUMNS)
        assert records[1]["tau"] == 0.0

    def test_byte_identical_to_reference(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-3.0, tau_max=3.0, n_samples=7)
        odd = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-310, 0.1, -2.5e300,
               float("-nan"), 5.0, 1.0 / 3.0, 0.0]
        curve = _with_rows(sample_level_curve(lw15, spec), odd, odd[::-1])
        rows = sample_rows(curve)
        assert rows_to_csv(rows) == _reference_csv(curve)
        assert rows_to_json(rows) == _reference_json(curve)
        empty = LevelCurve(*[np.empty(0)] * len(SAMPLE_COLUMNS))
        assert sample_rows(empty) == []
        assert rows_to_csv([]) == _reference_csv(empty)
        assert rows_to_json([]) == _reference_json(empty)

    def test_one_format_call_per_float(self, tmp_path, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x)
            return fmt_float(x)

        monkeypatch.setattr(levels, "fmt_float", counting)
        monkeypatch.setattr(serialize, "fmt_float", counting)
        assert main(["levelcurves", "--gamma", "1.5", "--levels", "0,1,2,3,4",
                     "--tau=-20,20,401", "--format", "csv,json", "--out", str(tmp_path)]) == 0
        assert len(calls) == 5 * 401 * len(SAMPLE_COLUMNS)


@settings(max_examples=120, deadline=None)
@given(
    gamma=st.floats(1.05, 1.95),
    sigma=st.floats(0.01, 20.0),
    tau=st.floats(-20.0, 20.0),
)
def test_curvature_route_identity_property(gamma, sigma, tau):
    pair = lw_family(gamma)
    zeta = complex(sigma, tau)
    generic = curvature_generic(*HeightRecord.at(pair, zeta).tau_partials)
    closed = HeightRecord.at(pair, zeta).kappa
    assert abs(generic - closed) <= 1e-12
