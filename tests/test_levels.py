"""Level-curve sampling and the three curvature routes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mingraphs import (
    ConvergenceError,
    LevelCurveSpec,
    ParameterError,
    SingularityError,
    boundary_trace,
    curvature_closed_form,
    curvature_fd_oracle,
    curvature_generic,
    curvature_h_image,
    eval_surface,
    lw_family,
    sample_level_curve,
    sigma_for_level,
    tau_partials,
    tau_partials_conjugate_form,
)
from mingraphs import levels, serialize
from mingraphs.cli import main
from mingraphs.levels import (
    MAX_LEVEL_SAMPLES,
    SAMPLE_COLUMNS,
    LevelCurveSample,
    rows_to_csv,
    rows_to_json,
    sample_rows,
)
from mingraphs.serialize import fmt_float, to_json

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
        assert tau_partials(planar22, 0.7 + 2.0j) == pytest.approx((0.0, 2.5, 0.0, 0.0))

    def test_lw15_real_axis(self, lw15):
        x_tau, y_tau, _, _ = tau_partials(lw15, 1.0 + 0j)
        hp = 1.5 * 2.0**0.5
        assert x_tau == pytest.approx(0.0, abs=1e-15)
        assert y_tau == pytest.approx(hp + 1.0 / hp, rel=1e-13)

    def test_lw15_boundary_positive(self, lw15):
        _, y_tau, _, _ = tau_partials(lw15, 1j)
        hp = lw15.h.jet(1j).d1
        expected = (abs(hp) ** 2 + 1.0) * np.real(hp) / abs(hp) ** 2
        assert y_tau == pytest.approx(expected, rel=1e-13)
        assert y_tau == pytest.approx(2.1659508282117276, rel=1e-12)
        assert y_tau > 0.0

    def test_conjugate_form_agrees(self, lw15):
        for zeta in (0.3 + 0j, 1.0 + 2.0j, 5.0 - 7.0j):
            x_tau, y_tau, _, _ = tau_partials(lw15, zeta)
            alt_x, alt_y = tau_partials_conjugate_form(lw15, zeta)
            assert x_tau == pytest.approx(alt_x, rel=1e-12, abs=1e-14)
            assert y_tau == pytest.approx(alt_y, rel=1e-12, abs=1e-14)

    def test_against_finite_differences(self, lw15):
        for zeta in (1.0 + 0j, 0.5 + 1.5j, 2.0 - 1.0j):
            x_tau, y_tau, x_tautau, y_tautau = tau_partials(lw15, zeta)
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
        assert curvature_closed_form(lw15, 1.0 + 0j) == pytest.approx(
            KAPPA_LW15_AT_1, rel=1e-13
        )

    def test_closed_form_planar_zero(self, planar22):
        for zeta in (0.5 + 0j, 1.0 + 3.0j):
            assert curvature_closed_form(planar22, zeta) == 0.0

    def test_generic_equals_closed(self, lw15):
        for zeta in (1.0 + 0j, 0.1 + 5.0j, 3.0 - 2.0j):
            generic = curvature_generic(*tau_partials(lw15, zeta))
            closed = curvature_closed_form(lw15, zeta)
            assert generic == pytest.approx(closed, abs=1e-12)

    def test_h_image_lw15(self, lw15):
        assert curvature_h_image(lw15, 1.0 + 0j) == pytest.approx(
            0.25 / (1.5 * 2.0**0.5), rel=1e-13
        )

    def test_h_image_planar_zero(self, planar22):
        assert curvature_h_image(planar22, 1.0 + 1.0j) == 0.0

    def test_sign_agreement_and_ratio(self, lw15):
        for zeta in (0.2 + 1.0j, 1.0 - 4.0j, 6.0 + 6.0j):
            kappa = curvature_closed_form(lw15, zeta)
            kappa1 = curvature_h_image(lw15, zeta)
            assert np.sign(kappa) == np.sign(kappa1)
            mag2 = abs(lw15.h.jet(zeta).d1) ** 2
            assert kappa == pytest.approx(mag2 / (mag2 + lw15.k) * kappa1, rel=1e-12)


class TestFdOracle:
    def test_matches_closed_form(self, lw15):
        got = curvature_fd_oracle(lw15, 1.0, 0.0, 1e-4)
        assert got == pytest.approx(KAPPA_LW15_AT_1, abs=1e-8)

    def test_planar_zero(self, planar22):
        assert curvature_fd_oracle(planar22, 1.0, 0.5, 1e-4) == pytest.approx(0.0, abs=1e-12)

    def test_second_order_in_step(self, lw15):
        closed = curvature_closed_form(lw15, 1.0 + 0j)
        err_coarse = abs(curvature_fd_oracle(lw15, 1.0, 0.0, 1e-2) - closed)
        err_fine = abs(curvature_fd_oracle(lw15, 1.0, 0.0, 5e-3) - closed)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.15)

    def test_gamma19_point(self):
        pair = lw_family(1.9)
        closed = curvature_closed_form(pair, 2.0 + 0j)
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
        samples = sample_level_curve(planar22, spec)
        assert len(samples) == 3
        assert all(s.kappa == 0.0 for s in samples)
        assert all(s.x == pytest.approx(1.5) for s in samples)
        assert [s.s for s in samples] == pytest.approx([0.0, 2.5, 5.0], rel=1e-13)

    def test_lw15_all_positive(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-5.0, tau_max=5.0, n_samples=101)
        samples = sample_level_curve(lw15, spec)
        assert min(s.kappa for s in samples) > 0.0

    def test_two_samples_chord(self, planar22):
        spec = LevelCurveSpec(c=2.0, tau_min=0.0, tau_max=0.7, n_samples=2)
        a, b = sample_level_curve(planar22, spec)
        assert a.s == 0.0
        chord = np.hypot(b.x - a.x, b.y - a.y)
        assert b.s == pytest.approx(chord, rel=1e-12)

    def test_s_nondecreasing_phi_atan2(self, lw15):
        spec = LevelCurveSpec(c=1.0, tau_min=-8.0, tau_max=8.0, n_samples=64)
        samples = sample_level_curve(lw15, spec)
        s_vals = [s.s for s in samples]
        assert all(b >= a for a, b in zip(s_vals, s_vals[1:]))
        for s in samples[::9]:
            assert s.phi == pytest.approx(np.arctan2(s.y_tau, s.x_tau))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            LevelCurveSpec(c=-1.0)
        with pytest.raises(ParameterError):
            LevelCurveSpec(c=1.0, tau_min=2.0, tau_max=-2.0)
        with pytest.raises(ParameterError):
            LevelCurveSpec(c=1.0, n_samples=1)

    def test_sample_cap(self):
        assert LevelCurveSpec(c=1.0, n_samples=MAX_LEVEL_SAMPLES).n_samples == MAX_LEVEL_SAMPLES
        with pytest.raises(ParameterError, match=f"{MAX_LEVEL_SAMPLES + 1} samples"):
            LevelCurveSpec(c=1.0, n_samples=MAX_LEVEL_SAMPLES + 1)


class TestBoundaryTrace:
    def test_lw15_flags_and_origin_curvature(self, lw15):
        spec = LevelCurveSpec(c=0.0, tau_min=-10.0, tau_max=10.0, n_samples=41)
        trace = boundary_trace(lw15, spec)
        assert trace.y_tau_nonnegative and trace.kappa_nonnegative
        center = trace.samples[20]
        assert center.tau == 0.0
        assert center.kappa == pytest.approx(1.5 / 3.25 * 0.5, rel=1e-12)
        assert center.x == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert center.y == pytest.approx(0.0, abs=1e-15)

    def test_planar_boundary_line(self, planar22):
        spec = LevelCurveSpec(c=0.0, tau_min=-4.0, tau_max=4.0, n_samples=17)
        trace = boundary_trace(planar22, spec)
        assert all(s.y_tau == pytest.approx(2.5) for s in trace.samples)
        assert all(s.kappa == 0.0 for s in trace.samples)

    def test_requires_zero_level(self, lw15):
        with pytest.raises(ParameterError):
            boundary_trace(lw15, LevelCurveSpec(c=1.0))


def _reference_csv(samples):
    """The per-field CSV writer: fmt_float on every field of every sample."""
    lines = [",".join(SAMPLE_COLUMNS)]
    for sample in samples:
        lines.append(",".join(fmt_float(getattr(sample, name)) for name in SAMPLE_COLUMNS))
    return "\n".join(lines) + "\n"


def _reference_json(samples):
    """The per-value JSON writer: one dict per sample through to_json."""
    records = [{name: float(getattr(sample, name)) for name in SAMPLE_COLUMNS}
               for sample in samples]
    return to_json(records) + "\n"


class TestExport:
    def test_csv_schema_and_determinism(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-1.0, tau_max=1.0, n_samples=5)
        samples = sample_level_curve(lw15, spec)
        text = rows_to_csv(sample_rows(samples))
        header = text.split("\n", 1)[0]
        assert header == "tau,x,y,x_tau,y_tau,x_tautau,y_tautau,phi,s,kappa,kappa1"
        assert text == rows_to_csv(sample_rows(sample_level_curve(lw15, spec)))

    def test_json_records(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-1.0, tau_max=1.0, n_samples=3)
        samples = sample_level_curve(lw15, spec)
        records = json.loads(rows_to_json(sample_rows(samples)))
        assert len(records) == 3
        assert list(records[0].keys()) == list(SAMPLE_COLUMNS)
        assert records[1]["tau"] == 0.0

    def test_byte_identical_to_reference(self, lw15):
        spec = LevelCurveSpec(c=2.0, tau_min=-3.0, tau_max=3.0, n_samples=7)
        odd = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-310, 0.1, -2.5e300,
               float("-nan"), 5.0, 1.0 / 3.0, 0.0]
        samples = [*sample_level_curve(lw15, spec), LevelCurveSample(*odd),
                   LevelCurveSample(*odd[::-1])]
        rows = sample_rows(samples)
        assert rows_to_csv(rows) == _reference_csv(samples)
        assert rows_to_json(rows) == _reference_json(samples)
        assert rows_to_csv([]) == _reference_csv([])
        assert rows_to_json([]) == _reference_json([])

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
    generic = curvature_generic(*tau_partials(pair, zeta))
    closed = curvature_closed_form(pair, zeta)
    assert abs(generic - closed) <= 1e-12
