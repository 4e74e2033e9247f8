"""Reference computations that only the tests use.

Each recomputes a quantity the package evaluates in closed form by another
route (finite differences of the surface map, the conjugate form of the
tau-partials, the boundary's tangent angle at a finite tau, the height as an
integral of sqrt(h'g'), the Jacobian of f), so a test can compare the two.
Two builders make grid fields for tests: a synthetic field from a formula,
and a field read back from ``field.grid``.
"""

from __future__ import annotations

import numpy as np

from mingraphs.analytic import DERIVATIVE_FLOOR
from mingraphs.errors import DomainError, ParameterError, SingularityError
from mingraphs.graphfield import ScalarField2D, Window, _axis
from mingraphs.levels import HeightRecord, curvature_generic
from mingraphs.weierstrass import WeierstrassPair, _segment_integral, eval_surface, g_prime


class OracleToleranceError(RuntimeError):
    """An oracle's own error estimate exceeds the tolerance a test asked for."""


def tau_partials_conjugate_form(pair: WeierstrassPair, zeta):
    """Equivalent first partials (|h'|^2+k)*(-Im, Re) of 1/conj(h'), for cross-checks."""
    hp = pair.h.jet(zeta).d1
    inv_conj = 1.0 / np.conj(hp)
    weight = np.abs(hp) ** 2 + pair.k
    return -weight * np.imag(inv_conj), weight * np.real(inv_conj)


def curvature_fd_oracle(
    pair: WeierstrassPair,
    sigma0: float,
    tau: float,
    step: float = 1e-4,
    tol: float | None = None,
) -> float:
    """Independent curvature estimate from central differences of the surface map.

    Evaluates tau -> (x, y) at five stations tau + {-2, -1, 0, 1, 2}*step,
    forms second-order central first/second differences, and applies the
    generic curvature formula.  The same stations also yield the double-step
    estimate; the Richardson gap |kappa(step) - kappa(2*step)|/3 serves as a
    truncation-error estimate and trips OracleToleranceError when ``tol`` is set
    and exceeded.
    """
    if step <= 0.0:
        raise ParameterError("step must be positive")
    if sigma0 < 0.0:
        raise ParameterError("sigma0 must be >= 0")
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    pts = [eval_surface(pair, complex(sigma0, tau + d)) for d in offsets]
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])

    def estimate(idx_lo: int, idx_hi: int, h: float) -> float:
        xt = (x[idx_hi] - x[idx_lo]) / (2.0 * h)
        yt = (y[idx_hi] - y[idx_lo]) / (2.0 * h)
        xtt = (x[idx_hi] - 2.0 * x[2] + x[idx_lo]) / h**2
        ytt = (y[idx_hi] - 2.0 * y[2] + y[idx_lo]) / h**2
        return float(curvature_generic(xt, yt, xtt, ytt))

    kappa = estimate(1, 3, step)
    kappa_double = estimate(0, 4, 2.0 * step)
    err_est = abs(kappa - kappa_double) / 3.0
    if tol is not None and err_est > tol:
        raise OracleToleranceError(
            f"FD oracle truncation estimate {err_est:.3e} above tolerance {tol:.3e}; "
            "reduce the step"
        )
    return kappa


def boundary_angle(pair: WeierstrassPair, taus) -> np.ndarray:
    """Tangent angle phi = atan2(y_tau, x_tau) of the boundary curve sigma = 0
    at each tau, from the level parametrization's tau-partials.  As |tau|
    grows it tends to ``verify.estimate_asymptotic_angles``."""
    x_tau, y_tau, _, _ = HeightRecord.at(pair, 1j * np.asarray(taus, dtype=float)).tau_partials
    return np.arctan2(y_tau, x_tau)


def height_via_integral(pair: WeierstrassPair, zeta: complex) -> float:
    """Height recovered as 2*Re[i * integral of sqrt(h'g')] from the boundary.

    Integrates from the boundary foot i*tau to zeta along a horizontal
    segment.  Of the two square roots of h'g', the one with nonpositive
    imaginary part is the branch that keeps the height positive in H (for
    valid data sqrt(h'g') == -i*k0/2 identically); the result must equal
    k0*sigma.
    """
    zeta = complex(zeta)
    if zeta.real < 0.0:
        raise DomainError("height_via_integral requires sigma >= 0")
    z0 = complex(0.0, zeta.imag)

    def integrand(xi):
        w = pair.h.jet(xi).d1 * g_prime(pair, xi)
        return -1j * np.sqrt(-w)  # root with Im <= 0

    integral = _segment_integral(integrand, z0, zeta)
    return float(2.0 * (1j * integral).real)


def jacobian_det(pair: WeierstrassPair, zeta):
    """Univalence margin |h'|**2 - k**2/|h'|**2; positive for valid data."""
    hp = pair.h.jet(zeta).d1
    mag2 = np.abs(hp) ** 2
    if not np.all(mag2 > DERIVATIVE_FLOOR):
        raise SingularityError("|h'| at derivative floor")
    return mag2 - pair.k**2 / mag2


def field_from_function(fn, window: Window, spacing: float) -> ScalarField2D:
    """Synthetic field: evaluate fn(x, y) on the full grid (all masked-in)."""
    xs, ys = _axis(window[0], spacing), _axis(window[1], spacing)
    values = np.asarray(fn(xs[None, :], ys[:, None]), dtype=float)
    values = np.broadcast_to(values, (len(ys), len(xs))).copy()
    return ScalarField2D(
        origin=(float(xs[0]), float(ys[0])), spacing=float(spacing),
        nx=len(xs), ny=len(ys), values=values,
        mask=np.ones((len(ys), len(xs)), dtype=bool),
    )


def field_from_grid_text(text: str) -> ScalarField2D:
    """Read a ``field.grid`` text back; nan nodes are masked out."""
    lines = [line for line in text.strip().split("\n") if line.strip()]
    x0, y0, h, nx, ny = lines[0].split()
    nx, ny = int(nx), int(ny)
    values = np.array([[float(v) for v in line.split()] for line in lines[1:ny + 1]])
    if values.shape != (ny, nx):
        raise ParameterError("grid body does not match header dimensions")
    mask = np.isfinite(values)
    return ScalarField2D(origin=(float(x0), float(y0)), spacing=float(h),
                         nx=nx, ny=ny, values=values, mask=mask)
