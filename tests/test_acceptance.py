"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import numpy as np
import pytest

from mingraphs import (
    BoundaryArgumentData,
    HeightRecord,
    SampleGrid,
    admit,
    laplacian,
    levelset_curvature_field,
    lw_family,
    msr_residual,
    planar_pair,
    poisson_kernels,
    preimages,
    reconstruct_u,
    scale_solution,
    verify_lemma2,
    verify_scaling,
    verify_thm1,
    verify_thm2,
)
from mingraphs import verify
from mingraphs.graphfield import _f_values
from oracles import curvature_fd_oracle, curvature_generic, field_from_function

GAMMAS_COARSE = (1.1, 1.5, 1.9)
GAMMAS_FULL = tuple(round(1.1 + 0.1 * i, 10) for i in range(9))
SIGMA0S = (0.1, 1.0, 10.0)
TAUS21 = np.linspace(-10.0, 10.0, 21)
THM_GRID = SampleGrid.rectangular(0.01, 10.0, 25, 10.0, 21)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for gamma in GAMMAS_COARSE:
        pair = lw_family(gamma)
        for sigma0 in SIGMA0S:
            for tau in TAUS21:
                closed = HeightRecord.at(pair, complex(sigma0, tau)).kappa
                oracle = curvature_fd_oracle(pair, sigma0, float(tau), step=1e-4)
                worst = max(worst, abs(closed - oracle) / (1.0 + abs(closed)))
    report(1, worst <= 1e-6,
           f"closed form vs FD oracle: max scaled deviation {worst:.3e} (tol 1e-6)")


def test_criterion_2_algebraic_identity():
    worst = 0.0
    for gamma in GAMMAS_COARSE:
        pair = lw_family(gamma)
        for sigma0 in SIGMA0S:
            zetas = sigma0 + 1j * TAUS21
            heights = HeightRecord.at(pair, zetas)
            generic, closed = curvature_generic(*heights.tau_partials), heights.kappa
            worst = max(worst, float(np.max(np.abs(generic - closed))))
    report(2, worst <= 1e-12,
           f"generic-formula vs closed-form curvature: max |diff| {worst:.3e} (tol 1e-12)")


def test_criterion_3_concavity_propagation(monkeypatch):
    monkeypatch.setattr(verify, "SAMPLE_GRID", THM_GRID)
    min_kappas = []
    for gamma in GAMMAS_FULL:
        rep = verify_thm2(admit(lw_family(gamma)))
        min_kappas.append(rep.empirical_constant)
        if not rep.passed:
            report(3, False, f"gamma={gamma}: {rep.notes}")
    negative = verify_thm2(admit(planar_pair(2.0, 2.0)))
    ok = min(min_kappas) > 0.0 and not negative.passed
    report(3, ok,
           f"min kappa over family sweep {min(min_kappas):.3e} > 0; "
           f"planar negative control fails as designed: {not negative.passed}")


def test_criterion_4_curvature_bound(monkeypatch):
    monkeypatch.setattr(verify, "THM1_LEVELS", (0.5, 1.0, 2.0, 4.0, 8.0))
    monkeypatch.setattr(verify, "SAMPLE_GRID", THM_GRID)
    details = []
    ok = True
    for gamma in GAMMAS_FULL:
        pair = lw_family(gamma)
        thm1 = verify_thm1(admit(pair))
        lemma2 = verify_lemma2(admit(pair))
        ok = ok and thm1.passed and lemma2.passed
        ok = ok and thm1.empirical_constant <= 2.0 * lemma2.empirical_constant + 1e-9
        ok = ok and lemma2.empirical_constant <= gamma - 1.0 + 1e-12
        details.append(f"{gamma:g}:K={thm1.empirical_constant:.3f},A={lemma2.empirical_constant:.3f}")
    report(4, ok, "sup C|kappa| <= (k0/sqrt(k))*A_emp + 1e-9 and A_emp <= gamma-1 "
           f"for all gammas ({'; '.join(details[:3])}...)")


def test_criterion_5_poisson_machinery():
    gamma = 1.5
    pair = lw_family(gamma)
    data = BoundaryArgumentData(
        lambda t: ((gamma - 1.0) * np.arctan(t), (gamma - 1.0) / (1.0 + t * t))
    )
    points = [complex(s, t) for s in (0.5, 1.0, 2.0, 5.0) for t in (-3, -1, 0, 1, 3)]
    assert len(points) == 20
    worst_value = worst_agree = 0.0
    for zeta in points:
        jet = pair.h.jet(zeta)
        (im_log, ratio, by_parts), _ = poisson_kernels(data, zeta)
        worst_value = max(worst_value, abs(im_log - float(np.angle(jet.d1))))
        closed = float(np.real(jet.d2 / jet.d1))
        worst_value = max(worst_value, abs(ratio - closed))
        worst_value = max(worst_value, abs(by_parts - closed))
        worst_agree = max(worst_agree, abs(ratio - by_parts))
    ok = worst_value <= 1e-4 and worst_agree <= 2e-4
    report(5, ok, f"Poisson reconstructions: max closed-form deviation {worst_value:.3e} "
           f"(tol 1e-4); kernel forms agree to {worst_agree:.3e} (tol 2e-4)")


def test_criterion_6_pde_residual(field32, field64, planar_field):
    rep32, rep64 = msr_residual(field32), msr_residual(field64)
    ratio = rep32.max_abs_residual / rep64.max_abs_residual
    planar = msr_residual(planar_field).max_abs_residual
    ok = 3.0 <= ratio <= 5.0 and planar <= 1e-10
    report(6, ok, f"max residual ratio h=1/32 vs 1/64: {ratio:.3f} (window [3,5]); "
           f"planar residual {planar:.3e} (tol 1e-10)")


def test_criterion_7_superharmonicity(field32, planar_field):
    lap = laplacian(field32)
    vals = lap.values[lap.mask]
    frac_negative = float(np.mean(vals < 0.0))
    planar_lap = laplacian(planar_field)
    planar_max = float(np.max(np.abs(planar_lap.values[planar_lap.mask])))
    cal = field_from_function(lambda x, y: x**2 + y**2,
                                      ((-1.0, 1.0), (-1.0, 1.0)), 0.05)
    cal_lap = laplacian(cal)
    cal_err = float(np.max(np.abs(cal_lap.values[cal_lap.mask] - 4.0)))
    ok = frac_negative == 1.0 and planar_max <= 1e-10 and cal_err <= 1e-10
    report(7, ok, f"laplacian < 0 at {100 * frac_negative:.1f}% of interior nodes; "
           f"planar |lap| {planar_max:.2e} (tol 1e-10); calibration off by {cal_err:.2e}")


def test_criterion_8_levelset_curvature(lw15, field32, field64):
    def mismatch(field):
        ls = levelset_curvature_field(field, 2.0)
        pre = preimages(lw15, field)
        near = ls.mask & (np.abs(field.values - 2.0) < 2.0 * field.spacing)
        kappa_param = np.array([HeightRecord.at(lw15, z).kappa for z in pre[near]])
        return float(np.max(np.abs(ls.values[near] - kappa_param)))

    fine, coarse = mismatch(field64), mismatch(field32)
    ok = fine <= 5e-3 and fine < coarse
    report(8, ok, f"graph-form vs parametric curvature near u=2: {fine:.3e} at h=1/64 "
           f"(tol 5e-3), {coarse:.3e} at h=1/32 (second-order trend)")


def test_criterion_9_scaling_law(lw15):
    points = [complex(s, t) for s in (0.3, 0.7, 1.0, 2.0, 5.0)
              for t in (-4.0, -1.0, 0.5, 3.0)]
    assert len(points) == 20
    rep = verify_scaling(admit(lw15))
    assert rep.grid_descriptor == "factors [0.5, 2.0, 10.0], 20 points"
    for c in (0.5, 2.0, 10.0):
        scaled = scale_solution(lw15, c)
        for zeta in points[::5]:
            assert c * HeightRecord.at(scaled, zeta).kappa == pytest.approx(
                HeightRecord.at(lw15, zeta).kappa, abs=1e-10)
    worst = rep.empirical_constant
    report(9, rep.passed and worst <= 1e-10,
           f"c*kappa_scaled = kappa to {worst:.3e} (tol 1e-10) for c in {{0.5, 2, 10}}; "
           "extrema tau-locations invariant")


def test_criterion_10_inversion_round_trip(lw15, field64):
    pre = preimages(lw15, field64)
    good = np.isfinite(pre) & field64.mask
    xs, ys = field64.xs(), field64.ys()
    targets = xs[None, :] + 1j * ys[:, None]
    err = np.abs(_f_values(lw15, pre[good]) - targets[good])
    # nodes whose preimage refinement failed count against the quota
    frac = float(np.sum(err <= 1e-10)) / float(field64.mask.sum())
    failures = int(field64.mask.sum()) - int(np.sum(err <= 1e-10))
    ok = frac >= 0.999
    report(10, ok, f"f(preimages(x,y)) within 1e-10 at {100 * frac:.2f}% of "
           f"{int(field64.mask.sum())} masked nodes ({failures} failures reported)")
