"""Quantitative pass/fail checks for the curvature bound, concavity
propagation, the log-derivative estimate, the boundary Poisson-kernel
machinery, the disk transfer, the scaling law, and, on u reconstructed over
a grid window, superharmonicity and the minimal surface equation.

None of these prove anything: each check sweeps a declared grid, reports the
empirical constant it found (a supremum over that grid, never a hard-coded
universal constant), and passes or fails against an explicit tolerance.
Negative controls (the planar solution, a synthetic map whose Re h' changes
sign) are expected to fail the concavity check; verifiers that cannot fail
verify nothing.  ``run`` is the one pass that ``verify`` and ``sweep-gamma``
make; the grid checks import ``graphfield`` only when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .analytic import gauss_legendre
from .errors import DomainError, ParameterError
from .levels import HeightRecord, sigma_for_level
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


@dataclass(frozen=True, eq=False)
class Admitted:
    """What every check takes: the pair, h on SAMPLE_GRID and on its
    boundary, and the window (x0, x1, y0, y1, h) that the grid checks
    reconstruct u on."""

    pair: WeierstrassPair
    grid: HeightRecord
    boundary: HeightRecord
    window: tuple | None = None

    @cached_property
    def field(self):
        """u on the window at spacing h, reconstructed on first read."""
        from . import graphfield

        x0, x1, y0, y1, h = self.window
        return graphfield.reconstruct_u(self.pair, ((x0, x1), (y0, y1)), h)


def admit(pair: WeierstrassPair, window: tuple | None = None) -> Admitted:
    """Evaluate h once on SAMPLE_GRID and once on its boundary; a point where
    h' is at the derivative floor or not finite refuses the pair."""
    return Admitted(pair, HeightRecord.at(pair, SAMPLE_GRID.points()),
                    HeightRecord.at(pair, 0.0 + 1j * SAMPLE_GRID.taus), window)


def run(pair: WeierstrassPair, checks: list[str],
        window: tuple | None = None) -> list[VerificationReport]:
    """Refuse an over-cap grid (msr's h/2 one too) before any work, admit the
    pair, then run the checks named in ``checks`` (functions of this module,
    looked up as they run) in order.  A float64 overflow that the caller's
    ``np.errstate`` raises (``cli.main`` does) becomes one DomainError line."""
    if "verify_superharmonic" in checks or "verify_msr" in checks:
        from .graphfield import grid_shape

        x0, x1, y0, y1, h = window
        grid_shape(((x0, x1), (y0, y1)), h / 2.0 if "verify_msr" in checks else h)
    try:
        admitted = admit(pair, window)
        return [globals()[name](admitted) for name in checks]
    except FloatingPointError as exc:
        raise DomainError(f"the pair overflows float64 ({exc})") from None


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
        return to_json(self.to_dict()) + "\n"


def _argmax_point(values: np.ndarray, zetas: np.ndarray) -> tuple[float, float]:
    idx = int(np.argmax(values))
    z = zetas.ravel()[idx]
    return (float(z.real), float(z.imag))


#: verify_lemma2 fails a catalog pair whose A_emp exceeds gamma - 1 by more
#: than this.
LEMMA2_FAMILY_TOL = 1e-12


def verify_lemma2(admitted: Admitted) -> VerificationReport:
    """Empirical constant A_emp = sup sigma*|h''/h'| over SAMPLE_GRID.

    Always passes when finite; for the catalog family the closed form gives
    sigma*(gamma-1)/|zeta+1| < gamma-1, so A_emp <= gamma-1 is additionally
    enforced.
    """
    grid, gamma = admitted.grid, admitted.pair.gamma
    vals = grid.zeta.real * np.abs(grid.ratio)
    a_emp = float(np.max(vals))
    extremal = _argmax_point(vals, grid.zeta)
    passed = bool(np.isfinite(a_emp))
    notes = f"A_emp = sup sigma|h''/h'| over {vals.size} points"
    if gamma is not None and 1.0 < gamma < 2.0:
        bound = gamma - 1.0
        passed = passed and a_emp <= bound + LEMMA2_FAMILY_TOL
        notes += f"; family bound gamma-1 = {bound:.12g}"
    return VerificationReport(
        check_name="log_derivative_bound",
        passed=passed,
        empirical_constant=a_emp,
        extremal_point=extremal,
        tolerance=LEMMA2_FAMILY_TOL,
        grid_descriptor=SAMPLE_GRID.descriptor,
        notes=notes,
    )


#: verify_thm1 fails when K_emp exceeds the chain bound by more than this.
THM1_TOL = 1e-9
#: verify_thm1 samples the level curves {u = C} at these heights.
THM1_LEVELS = (1.0, 2.0)


def verify_thm1(admitted: Admitted) -> VerificationReport:
    """Curvature bound on level sets: K_emp = sup C*|kappa| over the levels
    C of THM1_LEVELS, against the proof-chain bound (k0/sqrt(k)) * A_emp.

    A_emp is taken over SAMPLE_GRID united with the level-set sample
    points themselves, so the pointwise chain
    C*|kappa| = k0*sigma0*|kappa| <= (k0/sqrt(k)) * sigma0*|h''/h'|
    is checked on exactly the points that generate K_emp.
    """
    pair = admitted.pair
    levels = list(THM1_LEVELS)
    level_sigmas = np.array([sigma_for_level(pair, c) for c in levels])
    on_levels = HeightRecord.at(pair, level_sigmas[:, None] + 1j * SAMPLE_GRID.taus[None, :])

    c_kappa = np.abs(levels)[:, None] * np.abs(on_levels.kappa)
    k_emp = float(np.max(c_kappa))
    extremal = _argmax_point(c_kappa, on_levels.zeta)

    sups = [np.max(h.zeta.real * np.abs(h.ratio)) for h in (admitted.grid, on_levels)]
    a_emp = float(np.max(sups))
    chain_bound = pair.k0 / np.sqrt(pair.k) * a_emp
    passed = bool(k_emp <= chain_bound + THM1_TOL)
    return VerificationReport(
        check_name="curvature_bound",
        passed=passed,
        empirical_constant=k_emp,
        extremal_point=extremal,
        tolerance=THM1_TOL,
        grid_descriptor=f"{SAMPLE_GRID.descriptor}; levels {levels}",
        notes=(
            f"A_emp = {a_emp:.12g}; chain bound (k0/sqrt(k))*A_emp = {chain_bound:.12g}; "
            "K_emp reported alongside, neither asserted sharp"
        ),
    )


def verify_thm2(admitted: Admitted) -> VerificationReport:
    """Concavity propagation on SAMPLE_GRID: all four sub-checks must hold.

    (a) y_tau >= 0 on the boundary trace, (b) Re h' > 0 on the interior
    grid, (c) Re h''/h' >= 0 on the boundary, (d) kappa > 0 strictly at
    every interior sample.  The planar solution fails (d) by design: its
    level lines are straight.
    """
    failures: list[str] = []
    grid, boundary = admitted.grid, admitted.boundary
    _, y_tau, _, _ = boundary.tau_partials
    if not np.all(y_tau >= 0.0):
        idx = int(np.argmin(y_tau))
        failures.append(f"(a) boundary y_tau < 0 at tau={SAMPLE_GRID.taus[idx]:.6g}")

    zetas, jets = grid.zeta, grid.jet
    re_hp = np.real(jets.d1)
    if not np.all(re_hp > 0.0):
        bad = _argmax_point(-re_hp, zetas)
        failures.append(f"(b) Re h' <= 0 at (sigma,tau)=({bad[0]:.6g},{bad[1]:.6g})")

    psi_rate = np.real(boundary.ratio)
    if not np.all(psi_rate >= 0.0):
        idx = int(np.argmin(psi_rate))
        failures.append(f"(c) boundary Re h''/h' < 0 at tau={SAMPLE_GRID.taus[idx]:.6g}")

    kappa = grid.kappa
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
        grid_descriptor=SAMPLE_GRID.descriptor,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Boundary data and the half-plane Poisson machinery
# ---------------------------------------------------------------------------

#: BoundaryArgumentData checks |psi| <= pi/2 at these t when it is built:
#: the 399 interior points of 401 equispaced theta = arctan t.
PSI_SAMPLES = np.tan(np.linspace(-np.pi / 2, np.pi / 2, 401)[1:-1])


def _admissible(psi: np.ndarray) -> None:
    if np.max(np.abs(psi)) > np.pi / 2 + 1e-12:
        raise ParameterError(
            "|psi| exceeds pi/2: not boundary data of a concave-domain solution"
        )


@dataclass(frozen=True, eq=False)
class BoundaryArgumentData:
    """Boundary data psi(t) = arg h'(it) and psi'(t).

    ``values`` maps a t array to the pair (psi, psi'), each of t's shape.
    psi must satisfy |psi| <= pi/2 on ``PSI_SAMPLES`` and on every value
    ``poisson_kernels`` integrates.
    """

    values: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        _admissible(self.values(PSI_SAMPLES)[0])

    @classmethod
    def from_pair(cls, pair: WeierstrassPair) -> "BoundaryArgumentData":
        """psi = arg h'(it) and psi' = Re h''/h'(it), from one jet of h."""

        def values(t):
            heights = HeightRecord.at(pair, 1j * t)
            return np.angle(heights.jet.d1), np.real(heights.ratio)

        return cls(values)


def poisson_kernels(data: BoundaryArgumentData, zeta) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct three quantities at every zeta = sigma + i*tau from the
    boundary data, in one Gauss-Legendre pass over theta in (-pi/2, pi/2)
    with t = tau + sigma*tan(theta):

    0. Im log h' = (sigma/pi) * integral psi(t) / (sigma^2+(t-tau)^2) dt
       = (1/pi) * integral psi dtheta;
    1. Re h''/h' by the tau-derivative kernel,
       (2 sigma/pi) * integral (t-tau) psi(t) / (sigma^2+(t-tau)^2)^2 dt
       = (1/(pi sigma)) * integral psi sin(2 theta) dtheta;
    2. Re h''/h' by parts, (sigma/pi) * integral psi'(t) / (sigma^2+(t-tau)^2) dt
       = (1/pi) * integral psi' dtheta.

    Forms 1 and 2 must agree: that identity is what makes the concavity
    argument work.  ``data.values`` runs once per rule size.  Returns the
    values and their n-vs-2n estimates, each of shape (3,) + zeta's shape.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if not np.all(zeta.real > 0.0):
        raise DomainError("Poisson reconstruction needs sigma > 0")
    sigma, tau = zeta.real[..., None], zeta.imag[..., None]

    def integrand(x):
        theta = 0.5 * np.pi * x
        psi, dpsi = data.values(tau + sigma * np.tan(theta))
        _admissible(psi)
        return 0.5 * np.stack((psi, psi * np.sin(2.0 * theta) / sigma, dpsi))

    return gauss_legendre(integrand)


#: verify_poisson fails when a reconstruction deviates from its closed form
#: by more than POISSON_VALUE_TOL, or the two forms of Re h''/h' disagree by
#: more than POISSON_AGREEMENT_TOL.
POISSON_VALUE_TOL = 1e-4
POISSON_AGREEMENT_TOL = 2e-4
#: verify_poisson compares the reconstructions at these interior points.
POISSON_POINTS = tuple(complex(s, t) for s in (0.5, 1.0, 2.0, 5.0) for t in (-3, -1, 0, 1, 3))


def verify_poisson(
    admitted: Admitted, data: BoundaryArgumentData | None = None
) -> VerificationReport:
    """Compare both kernel reconstructions against the closed forms arg h'
    and Re h''/h' at the POISSON_POINTS.

    The extremal point is the target with the largest deviation, or None
    when that deviation is at or below the worst n-vs-2n quadrature
    estimate: there it is noise, and where noise peaks says nothing.
    """
    if data is None:
        data = BoundaryArgumentData.from_pair(admitted.pair)
    zetas = np.array(POISSON_POINTS, dtype=complex)
    (im_log, ratio, by_parts), err = poisson_kernels(data, zetas)
    heights = HeightRecord.at(admitted.pair, zetas)
    dev = np.maximum(
        np.abs(im_log - np.angle(heights.jet.d1)),
        np.abs(ratio - np.real(heights.ratio)),
    )
    worst_idx = int(np.argmax(dev))
    worst, worst_at = float(dev[worst_idx]), zetas[worst_idx]
    worst_agree = float(np.max(np.abs(ratio - by_parts)))
    worst_err = float(np.max(np.maximum(err[0], err[1] + err[2])))
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


def verify_scaling(admitted: Admitted) -> VerificationReport:
    """Check c*kappa_scaled = kappa at fixed zeta, plus invariance of the tau
    locations of curvature extrema along a level set, for every c in
    SCALE_FACTORS.  The report's constant and point are those of the first
    factor with the largest deviation."""
    pair = admitted.pair
    line = sigma_for_level(pair, _EXTREMA_LEVEL) + 1j * np.linspace(-10.0, 10.0, 401)
    points = np.concatenate((SCALING_POINTS, line))  # one evaluation of h per pair
    kappa, base_line = np.split(HeightRecord.at(pair, points).kappa, [len(SCALING_POINTS)])
    passed, worst, worst_at, notes = True, None, None, []
    for c in SCALE_FACTORS:
        scaled = HeightRecord.at(scale_solution(pair, c), points).kappa
        kappa_scaled, scaled_line = np.split(scaled, [len(SCALING_POINTS)])
        delta = np.abs(c * kappa_scaled - kappa)
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


def disk_transfer_check(admitted: Admitted) -> VerificationReport:
    """Transfer to the unit disk through zeta -> w = (zeta-1)/(zeta+1), on
    SAMPLE_GRID.

    With h(zeta) = H(w), the chain rule gives
    H''/H' = (h''/h')*(zeta+1)^2/2 + (zeta+1); the empirical constant is
    A1_emp = sup (1-|w|)*|H''/H'|, and the final inequality chain
    sigma*|h''/h'| <= 2*(A1_emp*(|zeta+1|+|zeta-1|)/4 + sigma)/|zeta+1|
    is re-verified pointwise.
    """
    zetas, ratio = admitted.grid.zeta, admitted.grid.ratio
    w = (zetas - 1.0) / (zetas + 1.0)
    h_ratio = ratio * (zetas + 1.0) ** 2 / 2.0 + (zetas + 1.0)
    a1_vals = (1.0 - np.abs(w)) * np.abs(h_ratio)
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
        grid_descriptor=SAMPLE_GRID.descriptor,
        notes=(
            f"A1_emp = sup (1-|w|)|H''/H'| = {a1_emp:.12g}; "
            f"inequality chain {'holds' if pointwise_ok else 'VIOLATED'} pointwise"
        ),
    )


#: verify_msr passes a field whose max-norm residual falls by a factor in this
#: range when the spacing halves (second-order convergence), or is at most
#: MSR_EXACT_TOL at both spacings (a discrete-exact field).
MSR_RATIO_RANGE = (3.0, 5.0)
MSR_EXACT_TOL = 1e-10


def verify_superharmonic(admitted: Admitted) -> VerificationReport:
    """Pass iff the discrete Laplacian of the reconstructed u is strictly
    negative at every interior node of the window."""
    from . import graphfield

    lap = graphfield.laplacian(admitted.field)
    vals = lap.values[lap.mask]
    worst = float(np.max(vals))
    j, i = np.unravel_index(int(np.argmax(np.where(lap.mask, lap.values, -np.inf))),
                            lap.values.shape)
    window = admitted.window
    return VerificationReport(
        check_name="superharmonicity",
        passed=bool(np.all(vals < 0.0)),
        empirical_constant=worst,
        extremal_point=lap.node_xy(j, i),
        tolerance=0.0,
        grid_descriptor=f"window {window[:4]}, h={window[4]:g}",
        notes=f"max laplacian over interior = {worst:.6e} (must be < 0)",
    )


def msr_verdict(coarse, fine) -> tuple[bool, str, float]:
    """The msr rule on a field and the same window at half its spacing: a
    discrete-exact pair (both max-norm residuals at most ``MSR_EXACT_TOL``)
    passes, else the ratio coarse/fine of the residuals must lie in
    ``MSR_RATIO_RANGE``.  Returns the verdict, its note (with the ratio and
    the observed order) and the fine field's residual."""
    from .graphfield import msr_residual

    res_c, res_f = msr_residual(coarse), msr_residual(fine)
    if res_c <= MSR_EXACT_TOL and res_f <= MSR_EXACT_TOL:
        return True, "discrete-exact field (residual at rounding level at both spacings)", res_f
    ratio = res_c / res_f
    order = np.log(ratio) / np.log(coarse.spacing / fine.spacing)
    note = (
        f"max residual {res_c:.3e} (h={coarse.spacing:g}) -> {res_f:.3e} "
        f"(h={fine.spacing:g}), ratio {ratio:.3f}, observed order {order:.2f}"
    )
    lo, hi = MSR_RATIO_RANGE
    return lo <= ratio <= hi, note, res_f


def verify_msr(admitted: Admitted) -> VerificationReport:
    """PDE residual of the reconstructed u from h to h/2, judged by
    ``msr_verdict``; the h/2 field inverts only the nodes the h one lacks."""
    from . import graphfield

    x0, x1, y0, y1, h = admitted.window
    coarse = admitted.field
    fine = graphfield.reconstruct_u(admitted.pair, ((x0, x1), (y0, y1)), h / 2.0, coarse)
    passed, note, residual = msr_verdict(coarse, fine)
    gap = graphfield.nondivergence_gap(fine)
    note += f"; diagnostic |lap u + F|/(1+|grad u|^2)^1.5 max = {gap:.3e}"
    return VerificationReport(
        check_name="msr_residual",
        passed=bool(passed),
        empirical_constant=residual,
        extremal_point=None,
        tolerance=MSR_EXACT_TOL,
        grid_descriptor=f"window {admitted.window[:4]}, h={h:g} and {h / 2:g}",
        notes=note,
    )


def estimate_asymptotic_angles(pair: WeierstrassPair) -> tuple[float, float]:
    """Tangent angles (plus, minus) of the boundary curve as tau -> +/-inf,
    unrotated and in atan2's range; for lw(gamma), gamma*pi/2 and
    (2-gamma)*pi/2.

    On sigma = 0 the tangent is i*h'*(1 + k/|h'|^2), so phi = arg(i*h').
    With h'(zeta) = c*zeta**(p-1)*(1 + o(1)) (``AnalyticMap.leading``) and
    arg(i*tau) = +/-pi/2, the limits are arg(i*c) +/- (p-1)*pi/2: exact,
    with no evaluation of h.  The name is from when the limits were
    extrapolated from probes; ``perfbench/tracer.py`` wraps it by that name.
    """
    p, c = pair.h.leading()
    arg, turn = math.atan2(c.real, -c.imag), (p - 1.0) * math.pi / 2.0  # arg(i*c)
    return math.remainder(arg + turn, 2.0 * math.pi), math.remainder(arg - turn, 2.0 * math.pi)
