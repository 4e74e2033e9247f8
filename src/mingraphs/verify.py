"""Quantitative pass/fail checks for the curvature bound, concavity
propagation, the log-derivative estimate, the boundary Poisson-kernel
machinery, the disk transfer, and the scaling law.

None of these prove anything: each check sweeps a declared grid, reports the
empirical constant it found (a supremum over that grid, never a hard-coded
universal constant), and passes or fails against an explicit tolerance.
Negative controls (the planar solution, a synthetic map whose Re h' changes
sign) are expected to fail the concavity check; verifiers that cannot fail
verify nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import gauss_legendre, log_derivative
from .errors import ConvergenceError, DomainError, ParameterError
from .levels import (
    curvature_closed_form,
    sigma_for_level,
    tau_partials,
)
from .serialize import to_json
from .weierstrass import WeierstrassPair, scale_solution


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """A rectangular sigma x tau sampling of the half-plane with a text label."""

    sigmas: np.ndarray
    taus: np.ndarray
    descriptor: str

    def __post_init__(self):
        if not np.all(self.sigmas > 0.0):
            raise ParameterError("grid sigmas must be strictly positive")

    def points(self) -> np.ndarray:
        """Complex evaluation points, shape (n_sigma, n_tau)."""
        return self.sigmas[:, None] + 1j * self.taus[None, :]

    @staticmethod
    def rectangular(
        sigma_lo: float, sigma_hi: float, n_sigma: int, tau_abs: float, n_tau: int
    ) -> "SampleGrid":
        """sigma geometric in [sigma_lo, sigma_hi], tau uniform in [-tau_abs, tau_abs]."""
        sigmas = np.geomspace(sigma_lo, sigma_hi, n_sigma)
        taus = np.linspace(-tau_abs, tau_abs, n_tau)
        descriptor = (
            f"sigma geom[{sigma_lo:g},{sigma_hi:g}]x{n_sigma}, "
            f"tau [{-tau_abs:g},{tau_abs:g}]x{n_tau}"
        )
        return SampleGrid(sigmas=sigmas, taus=taus, descriptor=descriptor)


#: The grid that `verify` and `sweep-gamma` sample every sampled check on.
#: It is fixed, so no input can shrink it until a failing point drops out.
SAMPLE_GRID = SampleGrid.rectangular(0.02, 10.0, 24, 10.0, 21)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: the verdict, the empirical constant, and where
    the extremum was attained; serializes with a fixed field order."""

    check_name: str
    passed: bool
    empirical_constant: float
    extremal_point: tuple[float, float] | None
    tolerance: float
    grid_descriptor: str
    notes: str

    def to_dict(self) -> dict:
        point = None
        if self.extremal_point is not None:
            point = [float(self.extremal_point[0]), float(self.extremal_point[1])]
        return {
            "check_name": self.check_name,
            "passed": bool(self.passed),
            "empirical_constant": float(self.empirical_constant),
            "extremal_point": point,
            "tolerance": float(self.tolerance),
            "grid_descriptor": self.grid_descriptor,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return to_json(self.to_dict(), indent=0) + "\n"


def _argmax_point(values: np.ndarray, zetas: np.ndarray) -> tuple[float, float]:
    idx = int(np.argmax(values))
    z = zetas.ravel()[idx]
    return (float(z.real), float(z.imag))


#: verify_lemma2 fails a catalog pair whose A_emp exceeds gamma - 1 by more
#: than this.
LEMMA2_FAMILY_TOL = 1e-12


def verify_lemma2(pair: WeierstrassPair, grid: SampleGrid = SAMPLE_GRID) -> VerificationReport:
    """Empirical constant A_emp = sup sigma*|h''/h'| over the grid.

    Always passes when finite; for the catalog family the closed form gives
    sigma*(gamma-1)/|zeta+1| < gamma-1, so A_emp <= gamma-1 is additionally
    enforced.
    """
    zetas = grid.points()
    vals = zetas.real * np.abs(log_derivative(pair.h.jet(zetas)))
    a_emp = float(np.max(vals))
    extremal = _argmax_point(vals, zetas)
    passed = bool(np.isfinite(a_emp))
    notes = f"A_emp = sup sigma|h''/h'| over {vals.size} points"
    if pair.gamma is not None and 1.0 < pair.gamma < 2.0:
        bound = pair.gamma - 1.0
        passed = passed and a_emp <= bound + LEMMA2_FAMILY_TOL
        notes += f"; family bound gamma-1 = {bound:.12g}"
    return VerificationReport(
        check_name="log_derivative_bound",
        passed=passed,
        empirical_constant=a_emp,
        extremal_point=extremal,
        tolerance=LEMMA2_FAMILY_TOL,
        grid_descriptor=grid.descriptor,
        notes=notes,
    )


#: verify_thm1 fails when K_emp exceeds the chain bound by more than this.
THM1_TOL = 1e-9


def verify_thm1(
    pair: WeierstrassPair, levels: list[float], grid: SampleGrid = SAMPLE_GRID
) -> VerificationReport:
    """Curvature bound on level sets: K_emp = sup C*|kappa| against the
    proof-chain bound (k0/sqrt(k)) * A_emp.

    A_emp is taken over the supplied grid united with the level-set sample
    points themselves, so the pointwise chain
    C*|kappa| = k0*sigma0*|kappa| <= (k0/sqrt(k)) * sigma0*|h''/h'|
    is checked on exactly the points that generate K_emp.
    """
    levels = [float(c) for c in levels]
    if any(c <= 0.0 for c in levels):
        raise ParameterError("curvature-bound levels must be strictly positive")
    level_sigmas = np.array([sigma_for_level(pair, c) for c in levels])
    level_pts = level_sigmas[:, None] + 1j * grid.taus[None, :]

    c_kappa = np.array(
        [abs(c) * np.abs(curvature_closed_form(pair, level_pts[i]))
         for i, c in enumerate(levels)]
    )
    k_emp = float(np.max(c_kappa))
    extremal = _argmax_point(c_kappa, level_pts)

    sweep_pts = np.concatenate([grid.points().ravel(), level_pts.ravel()])
    a_emp = float(np.max(sweep_pts.real * np.abs(log_derivative(pair.h.jet(sweep_pts)))))
    chain_bound = pair.k0 / np.sqrt(pair.k) * a_emp
    passed = bool(k_emp <= chain_bound + THM1_TOL)
    return VerificationReport(
        check_name="curvature_bound",
        passed=passed,
        empirical_constant=k_emp,
        extremal_point=extremal,
        tolerance=THM1_TOL,
        grid_descriptor=f"{grid.descriptor}; levels {levels}",
        notes=(
            f"A_emp = {a_emp:.12g}; chain bound (k0/sqrt(k))*A_emp = {chain_bound:.12g}; "
            "K_emp reported alongside, neither asserted sharp"
        ),
    )


def verify_thm2(pair: WeierstrassPair, grid: SampleGrid = SAMPLE_GRID) -> VerificationReport:
    """Concavity propagation: all four sub-checks must hold.

    (a) y_tau >= 0 on the boundary trace, (b) Re h' > 0 on the interior
    grid, (c) Re h''/h' >= 0 on the boundary, (d) kappa > 0 strictly at
    every interior sample.  The planar solution fails (d) by design: its
    level lines are straight.
    """
    failures: list[str] = []

    boundary = 0.0 + 1j * grid.taus
    _, y_tau, _, _ = tau_partials(pair, boundary)
    if not np.all(y_tau >= 0.0):
        idx = int(np.argmin(y_tau))
        failures.append(f"(a) boundary y_tau < 0 at tau={grid.taus[idx]:.6g}")

    zetas = grid.points()
    jets = pair.h.jet(zetas)
    re_hp = np.real(jets.d1)
    if not np.all(re_hp > 0.0):
        bad = _argmax_point(-re_hp, zetas)
        failures.append(f"(b) Re h' <= 0 at (sigma,tau)=({bad[0]:.6g},{bad[1]:.6g})")

    psi_rate = np.real(log_derivative(pair.h.jet(boundary)))
    if not np.all(psi_rate >= 0.0):
        idx = int(np.argmin(psi_rate))
        failures.append(f"(c) boundary Re h''/h' < 0 at tau={grid.taus[idx]:.6g}")

    kappa = curvature_closed_form(pair, zetas)
    min_kappa = float(np.min(kappa))
    min_at = _argmax_point(-kappa, zetas)
    if not np.all(kappa > 0.0):
        failures.append(
            f"(d) kappa not strictly positive at (sigma,tau)=({min_at[0]:.6g},{min_at[1]:.6g})"
        )
        if float(np.max(np.abs(jets.d2))) <= 1e-14 * (1.0 + float(np.max(np.abs(jets.d1)))):
            failures.append("h'' vanishes identically: trivial planar solution, excluded")

    notes = "all sub-checks passed" if not failures else "; ".join(failures)
    return VerificationReport(
        check_name="concavity_propagation",
        passed=not failures,
        empirical_constant=min_kappa,
        extremal_point=min_at,
        tolerance=0.0,
        grid_descriptor=grid.descriptor,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Boundary data and the half-plane Poisson machinery
# ---------------------------------------------------------------------------

#: Construction samples of the boundary data: equispaced in theta = arctan t.
_SAMPLE_T = np.tan(np.linspace(-np.pi / 2, np.pi / 2, 401)[1:-1])


def _sampled(fn, t: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)


def _admissible(psi: np.ndarray) -> np.ndarray:
    if np.max(np.abs(psi)) > np.pi / 2 + 1e-12:
        raise ParameterError(
            "|psi| exceeds pi/2: not boundary data of a concave-domain solution"
        )
    return psi


@dataclass(frozen=True, eq=False)
class BoundaryArgumentData:
    """Boundary data psi(t) = arg h'(it) and, optionally, psi'(t).

    ``psi_fn``/``dpsi_fn`` are vectorized callables of t; ``t``/``psi`` hold
    the construction samples, which must satisfy |psi| <= pi/2 like every psi
    array the kernels integrate.  All kernels use one Gauss-Legendre rule
    (``analytic.gauss_legendre``) after the substitution t = tau + sigma*tan(theta).
    """

    t: np.ndarray
    psi: np.ndarray
    psi_fn: Callable[[np.ndarray], np.ndarray]
    dpsi_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        _admissible(self.psi)

    def psi_at(self, t: np.ndarray) -> np.ndarray:
        return _admissible(_sampled(self.psi_fn, t))

    @classmethod
    def from_pair(cls, pair: WeierstrassPair) -> "BoundaryArgumentData":
        """psi = arg h'(it) from the pair itself; psi' = Re h''/h' on the boundary."""
        return cls.from_function(
            lambda t: np.angle(pair.h.jet(1j * t).d1),
            dpsi_fn=lambda t: np.real(log_derivative(pair.h.jet(1j * t))),
        )

    @classmethod
    def from_function(
        cls,
        psi_fn: Callable[[np.ndarray], np.ndarray],
        dpsi_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "BoundaryArgumentData":
        """Wrap vectorized callables; a constant result is broadcast."""
        return cls(t=_SAMPLE_T, psi=_sampled(psi_fn, _SAMPLE_T), psi_fn=psi_fn, dpsi_fn=dpsi_fn)


@dataclass(frozen=True)
class PoissonEstimate:
    value: float
    error_bound: float


@dataclass(frozen=True)
class KernelRatioEstimate:
    derivative_form: float
    by_parts_form: float | None
    agreement_delta: float | None
    error_bound: float


def _theta_integral(zeta, weighted):
    """(1/pi) * integral over theta in (-pi/2, pi/2) of weighted(t, theta, sigma)
    with t = tau + sigma*tan(theta), for every zeta = sigma + i*tau at once."""
    zeta = np.asarray(zeta, dtype=complex)
    if not np.all(zeta.real > 0.0):
        raise DomainError("Poisson reconstruction needs sigma > 0")
    sigma, tau = zeta.real[..., None], zeta.imag[..., None]

    def integrand(x):
        theta = 0.5 * np.pi * x
        return 0.5 * weighted(tau + sigma * np.tan(theta), theta, sigma)

    return gauss_legendre(integrand)


def poisson_im_log_hprime(data: BoundaryArgumentData, zeta) -> PoissonEstimate:
    """Reconstruct Im log h'(zeta) = (sigma/pi) * integral psi(t)/(sigma^2+(t-tau)^2) dt.

    Under t = tau + sigma*tan(theta) the kernel becomes dtheta/pi, so the
    value is (1/pi) * integral psi dtheta; the error is the n-vs-2n estimate.
    """
    value, err = _theta_integral(zeta, lambda t, theta, sigma: data.psi_at(t))
    return PoissonEstimate(value=value, error_bound=err)


def poisson_re_ratio(data: BoundaryArgumentData, zeta) -> KernelRatioEstimate:
    """Reconstruct Re h''/h' from boundary data via the tau-derivative kernel,

        (2 sigma/pi) * integral (t-tau) psi(t) / (sigma^2+(t-tau)^2)^2 dt
        = (1/(pi sigma)) * integral psi sin(2 theta) dtheta,

    and, when psi' is available, also via the integrated-by-parts form
    (sigma/pi) * integral psi'(t) / (sigma^2+(t-tau)^2) dt = (1/pi) * integral
    psi' dtheta; the two must agree (that identity is what makes the
    concavity argument work).
    """
    val, err = _theta_integral(
        zeta, lambda t, theta, sigma: data.psi_at(t) * np.sin(2.0 * theta) / sigma
    )
    by_parts = agreement = None
    if data.dpsi_fn is not None:
        by_parts, err2 = _theta_integral(zeta, lambda t, theta, sigma: _sampled(data.dpsi_fn, t))
        agreement = np.abs(val - by_parts)
        err = err + err2
    return KernelRatioEstimate(
        derivative_form=val,
        by_parts_form=by_parts,
        agreement_delta=agreement,
        error_bound=err,
    )


#: verify_poisson fails when a reconstruction deviates from its closed form
#: by more than POISSON_VALUE_TOL, or the two forms of Re h''/h' disagree by
#: more than POISSON_AGREEMENT_TOL.
POISSON_VALUE_TOL = 1e-4
POISSON_AGREEMENT_TOL = 2e-4
#: verify_poisson compares the reconstructions at these interior points.
POISSON_POINTS = tuple(complex(s, t) for s in (0.5, 1.0, 2.0, 5.0) for t in (-3, -1, 0, 1, 3))


def verify_poisson(
    pair: WeierstrassPair, data: BoundaryArgumentData | None = None
) -> VerificationReport:
    """Compare both kernel reconstructions against the closed forms arg h'
    and Re h''/h' at the POISSON_POINTS.

    The extremal point is the target with the largest deviation, or None
    when that deviation is at or below the worst n-vs-2n quadrature
    estimate: there it is noise, and where noise peaks says nothing.
    """
    if data is None:
        data = BoundaryArgumentData.from_pair(pair)
    zetas = np.array(POISSON_POINTS, dtype=complex)
    im_log = poisson_im_log_hprime(data, zetas)
    ratio = poisson_re_ratio(data, zetas)
    jet = pair.h.jet(zetas)
    dev = np.maximum(
        np.abs(im_log.value - np.angle(jet.d1)),
        np.abs(ratio.derivative_form - np.real(log_derivative(jet))),
    )
    worst_idx = int(np.argmax(dev))
    worst, worst_at = float(dev[worst_idx]), zetas[worst_idx]
    worst_agree = 0.0 if ratio.agreement_delta is None else float(np.max(ratio.agreement_delta))
    worst_err = float(np.max(np.maximum(im_log.error_bound, ratio.error_bound)))
    passed = worst <= POISSON_VALUE_TOL and worst_agree <= POISSON_AGREEMENT_TOL
    extremal = None if worst <= worst_err else (float(worst_at.real), float(worst_at.imag))
    return VerificationReport(
        check_name="poisson_boundary_reconstruction",
        passed=bool(passed),
        empirical_constant=worst,
        extremal_point=extremal,
        tolerance=POISSON_VALUE_TOL,
        grid_descriptor=f"{zetas.size} interior points, Gauss-Legendre in theta",
        notes=(
            f"max closed-form deviation {worst:.3e}; "
            f"kernel-vs-by-parts agreement {worst_agree:.3e} (tol {POISSON_AGREEMENT_TOL:g}); "
            f"worst quadrature n-vs-2n estimate {worst_err:.3e}"
        ),
    )


#: verify_scaling checks the law at each factor c of SCALE_FACTORS and each
#: point zeta of SCALING_POINTS, and fails when |c*kappa_scaled - kappa|
#: exceeds SCALING_TOL.
SCALE_FACTORS = (0.5, 2.0, 10.0)
SCALING_POINTS = tuple(
    complex(s, t) for s in (0.3, 0.7, 1.0, 2.0, 5.0) for t in (-4.0, -1.0, 0.5, 3.0)
)
SCALING_TOL = 1e-10

#: verify_scaling compares where kappa peaks along this level line.
_EXTREMA_LEVEL = 2.0


def verify_scaling(pair: WeierstrassPair) -> VerificationReport:
    """Check c*kappa_scaled = kappa at fixed zeta, plus invariance of the tau
    locations of curvature extrema along a level set, for every c in
    SCALE_FACTORS.  The report's constant and point are those of the first
    factor with the largest deviation."""
    kappa = np.array([curvature_closed_form(pair, z) for z in SCALING_POINTS])
    line = sigma_for_level(pair, _EXTREMA_LEVEL) + 1j * np.linspace(-10.0, 10.0, 401)
    base_line = np.asarray(curvature_closed_form(pair, line))

    passed, worst, worst_at, notes = True, None, None, []
    for c in SCALE_FACTORS:
        scaled = scale_solution(pair, c)
        kappa_scaled = np.array([curvature_closed_form(scaled, z) for z in SCALING_POINTS])
        delta = np.abs(c * kappa_scaled - kappa)
        scaled_line = np.asarray(curvature_closed_form(scaled, line))
        extrema_match = (
            int(np.argmax(base_line)) == int(np.argmax(scaled_line))
            and int(np.argmin(base_line)) == int(np.argmin(scaled_line))
        )
        peak = float(np.max(delta))
        passed = passed and peak <= SCALING_TOL and extrema_match
        if worst is None or peak > worst:
            worst, worst_at = peak, SCALING_POINTS[int(np.argmax(delta))]
        notes.append(
            f"c={c:g}: max |c*kappa_scaled - kappa| = {peak:.3e}; "
            f"extrema tau-locations {'match' if extrema_match else 'MOVED'}"
        )
    return VerificationReport(
        check_name="scaling_law",
        passed=passed,
        empirical_constant=worst,
        extremal_point=(float(worst_at.real), float(worst_at.imag)),
        tolerance=SCALING_TOL,
        grid_descriptor=f"factors {list(SCALE_FACTORS)}, {len(SCALING_POINTS)} points",
        notes="; ".join(notes),
    )


#: disk_transfer_check lets the pointwise inequality chain miss by this much.
DISK_TOL = 1e-9


def disk_transfer_check(
    pair: WeierstrassPair, grid: SampleGrid = SAMPLE_GRID
) -> VerificationReport:
    """Transfer to the unit disk through zeta -> w = (zeta-1)/(zeta+1).

    With h(zeta) = H(w), the chain rule gives
    H''/H' = (h''/h')*(zeta+1)^2/2 + (zeta+1); the empirical constant is
    A1_emp = sup (1-|w|)*|H''/H'|, and the final inequality chain
    sigma*|h''/h'| <= 2*(A1_emp*(|zeta+1|+|zeta-1|)/4 + sigma)/|zeta+1|
    is re-verified pointwise.
    """
    zetas = grid.points()
    w = (zetas - 1.0) / (zetas + 1.0)
    ratio = log_derivative(pair.h.jet(zetas))
    h_ratio = ratio * (zetas + 1.0) ** 2 / 2.0 + (zetas + 1.0)
    slack = 1.0 - np.abs(w)
    a1_vals = slack * np.abs(h_ratio)
    a1_emp = float(np.max(a1_vals))

    lhs = zetas.real * np.abs(ratio)
    rhs = 2.0 * (a1_emp * (np.abs(zetas + 1.0) + np.abs(zetas - 1.0)) / 4.0 + zetas.real) \
        / np.abs(zetas + 1.0)
    pointwise_ok = bool(np.all(lhs <= rhs * (1.0 + 1e-12) + DISK_TOL))
    passed = bool(np.isfinite(a1_emp)) and pointwise_ok
    return VerificationReport(
        check_name="disk_transfer",
        passed=passed,
        empirical_constant=a1_emp,
        extremal_point=_argmax_point(a1_vals, zetas),
        tolerance=DISK_TOL,
        grid_descriptor=grid.descriptor,
        notes=(
            f"A1_emp = sup (1-|w|)|H''/H'| = {a1_emp:.12g}; "
            f"inequality chain {'holds' if pointwise_ok else 'VIOLATED'} pointwise"
        ),
    )


#: estimate_asymptotic_angles probes at these increasing |tau| and needs its
#: last two raw estimates to agree within ANGLES_TOL.
ANGLE_PROBES = (1e2, 1e3, 1e4)
ANGLES_TOL = 1e-3


def estimate_asymptotic_angles(pair: WeierstrassPair) -> tuple[float, float]:
    """Extrapolated tangent angles of the boundary curve as tau -> +/-inf.

    Probes phi = atan2(y_tau, x_tau) at sigma = 0 at the ANGLE_PROBES,
    requires the last two raw estimates to agree within ``ANGLES_TOL``, and
    Richardson-extrapolates assuming a 1/tau tail.  Rotating by the mean of
    the two limits puts them in the symmetric +/-alpha normalization.
    """

    def phi_at(tau: float) -> float:
        x_tau, y_tau, _, _ = tau_partials(pair, 1j * tau)
        return float(np.arctan2(y_tau, x_tau))

    def limit(signed: tuple[float, ...], side: str) -> float:
        values = [phi_at(t) for t in signed]
        gap = abs(values[-1] - values[-2])
        if gap > ANGLES_TOL:
            raise ConvergenceError(
                f"asymptotic angle not settled toward {side} infinity: "
                f"last probes differ by {gap:.3e} (tol {ANGLES_TOL:g})"
            )
        t1, t2 = abs(signed[-2]), abs(signed[-1])
        return values[-1] + (values[-1] - values[-2]) * t1 / (t2 - t1)

    angle_plus = limit(ANGLE_PROBES, "+")
    angle_minus = limit(tuple(-t for t in ANGLE_PROBES), "-")
    return angle_plus, angle_minus
