"""Level curves of the height function and their curvature.

Because the height is u = k0*sigma, the locus u = C is the image of the
vertical line sigma_0 = C/k0 under f = h + conj(g), parametrized by tau.
With g' = -k/h' the tau-partials of that parametrization are

    x_tau    = -Im(h' - k/h')          x_tautau = -Re(h'' + k h''/h'^2)
    y_tau    =  Re(h' + k/h')          y_tautau = -Im(h'' - k h''/h'^2)

and plugging them into the generic turning-rate formula

    kappa = (x_tau*y_tautau - y_tau*x_tautau) / (x_tau^2 + y_tau^2)^{3/2}

collapses to the closed form

    kappa  = |h'|/(|h'|^2 + k) * Re(h''/h').

The companion quantity kappa1 = Re(h''/h')/|h'| is the curvature of the
image of the same vertical line under h alone; the two share the factor
Re(h''/h'), so kappa = |h'|^2/(|h'|^2+k) * kappa1.

Curves are traversed with increasing tau.  With the partials above this
orientation makes kappa positive exactly when the curve bends away from
the region u > C; the sign is verified against that geometric definition
in the test suite rather than assumed.

A sampled curve is one ``LevelCurve``, with an array per export column.
The finite-difference curvature oracle that checks the closed form lives
with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .analytic import log_derivative
from .errors import ParameterError, SingularityError
from .serialize import NON_FINITE_TEXT, fmt_float, json_number
from .weierstrass import WeierstrassPair, eval_surface

#: LevelCurveSpec refuses more samples than this.  A `levelcurves` run peaks
#: at about 2.8 KiB per sample with csv, json and svg output (600 MiB at
#: 200,000 samples), so the cap is about 3 GiB.
MAX_LEVEL_SAMPLES = 2**20


@dataclass(frozen=True)
class LevelCurveSpec:
    """Sampling request for one level u = c (c = 0 is the boundary curve)."""

    c: float
    tau_min: float
    tau_max: float
    n_samples: int

    def __post_init__(self):
        if self.c < 0.0 or not np.isfinite(self.c):
            raise ParameterError(f"level must be >= 0, got {self.c}")
        if not (np.isfinite(self.tau_min) and np.isfinite(self.tau_max)
                and self.tau_min < self.tau_max):
            raise ParameterError(
                f"tau window [{self.tau_min:g}, {self.tau_max:g}] must be finite, min below max")
        if self.n_samples < 2:
            raise ParameterError("need at least 2 samples")
        if self.n_samples > MAX_LEVEL_SAMPLES:
            raise ParameterError(
                f"{self.n_samples} samples exceed the limit of {MAX_LEVEL_SAMPLES}"
            )

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_samples)


@dataclass(frozen=True, eq=False)
class LevelCurve:
    """One sampled level curve: an array per column, samples in tau order.

    The field order is the CSV/JSON column order (``SAMPLE_COLUMNS``).
    """

    tau: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_tau: np.ndarray
    y_tau: np.ndarray
    x_tautau: np.ndarray
    y_tautau: np.ndarray
    phi: np.ndarray
    s: np.ndarray
    kappa: np.ndarray
    kappa1: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)


#: Column order for CSV/JSON export of sampled curves (fixed, do not reorder).
SAMPLE_COLUMNS = tuple(f.name for f in fields(LevelCurve))


def sigma_for_level(pair: WeierstrassPair, c: float) -> float:
    """The vertical line sigma_0 = c/k0 carrying the level u = c."""
    if c < 0.0:
        raise ParameterError(f"level must be >= 0, got {c}")
    return c / pair.k0


def tau_partials(pair: WeierstrassPair, zeta):
    """(x_tau, y_tau, x_tautau, y_tautau) of the level parametrization at zeta."""
    jet = pair.h.jet(zeta)
    ratio = log_derivative(jet)  # h''/h', also enforces the derivative floor
    hp = jet.d1
    hpp = jet.d2
    k = pair.k
    x_tau = -np.imag(hp - k / hp)
    y_tau = np.real(hp + k / hp)
    x_tautau = -np.real(hpp + k * ratio / hp)
    y_tautau = -np.imag(hpp - k * ratio / hp)
    return x_tau, y_tau, x_tautau, y_tautau


def curvature_generic(x_tau, y_tau, x_tautau, y_tautau):
    """Turning rate d(phi)/ds from first and second parameter derivatives."""
    speed_sq = x_tau * x_tau + y_tau * y_tau
    if not np.all(speed_sq > 1e-300):
        raise SingularityError("degenerate tangent: x_tau^2 + y_tau^2 underflows")
    return (x_tau * y_tautau - y_tau * x_tautau) / speed_sq**1.5


def curvature_closed_form(pair: WeierstrassPair, zeta):
    """kappa = |h'|/(|h'|^2+k) * Re(h''/h') at zeta (sign: positive bending away
    from the set u > C)."""
    jet = pair.h.jet(zeta)
    ratio = log_derivative(jet)
    mag = np.abs(jet.d1)
    return mag / (mag * mag + pair.k) * np.real(ratio)


def curvature_h_image(pair: WeierstrassPair, zeta):
    """Curvature of the image of the vertical line under h alone: Re(h''/h')/|h'|."""
    jet = pair.h.jet(zeta)
    ratio = log_derivative(jet)
    return np.real(ratio) / np.abs(jet.d1)


def sample_level_curve(pair: WeierstrassPair, spec: LevelCurveSpec) -> LevelCurve:
    """Sample the level u = spec.c at n uniformly spaced tau values.

    Arc length s accumulates by the trapezoid rule on the analytic speed
    sqrt(x_tau^2 + y_tau^2) (O(dtau^2), diagnostic rather than load-bearing).
    A tau window so wide that any step overflows float64 is a ParameterError.
    """
    try:
        with np.errstate(over="raise"):
            return _sample(pair, spec)
    except FloatingPointError:
        raise ParameterError(
            f"level u = {spec.c:g} overflows float64 on the tau window "
            f"[{spec.tau_min:g}, {spec.tau_max:g}]"
        ) from None


def _sample(pair: WeierstrassPair, spec: LevelCurveSpec) -> LevelCurve:
    sigma0 = sigma_for_level(pair, spec.c)
    taus = spec.taus()
    zetas = sigma0 + 1j * taus
    pts = eval_surface(pair, zetas)
    x_tau, y_tau, x_tautau, y_tautau = tau_partials(pair, zetas)
    kappa = curvature_generic(x_tau, y_tau, x_tautau, y_tautau)
    kappa_closed = curvature_closed_form(pair, zetas)
    speed = np.sqrt(x_tau**2 + y_tau**2)
    ds = 0.5 * (speed[1:] + speed[:-1]) * np.diff(taus)
    # closed form is the stored kappa; the generic route must agree and acts
    # as a free consistency check on every sample
    if not np.allclose(kappa, kappa_closed, rtol=0.0, atol=1e-9 * (1.0 + np.abs(kappa_closed).max())):
        raise SingularityError("curvature routes disagree; data likely degenerate")
    return LevelCurve(
        tau=taus, x=pts.x, y=pts.y,
        x_tau=x_tau, y_tau=y_tau, x_tautau=x_tautau, y_tautau=y_tautau,
        phi=np.arctan2(y_tau, x_tau),
        s=np.concatenate([[0.0], np.cumsum(ds)]),
        kappa=kappa_closed,
        kappa1=curvature_h_image(pair, zetas),
    )


def boundary_trace(pair: WeierstrassPair, spec: LevelCurveSpec) -> LevelCurve:
    """Trace the boundary curve f(i*tau), the level c = 0."""
    if spec.c != 0.0:
        raise ParameterError("boundary_trace requires a spec with c = 0")
    return sample_level_curve(pair, spec)


def sample_rows(curve: LevelCurve) -> list[tuple[str, ...]]:
    """Each sample's fields as 17-significant-digit strings, in SAMPLE_COLUMNS
    order: formatted once, then written by rows_to_csv and rows_to_json."""
    columns = [map(fmt_float, getattr(curve, name).tolist()) for name in SAMPLE_COLUMNS]
    return list(zip(*columns))


def rows_to_csv(rows: list[tuple[str, ...]]) -> str:
    """CSV text with the fixed column schema."""
    lines = [",".join(SAMPLE_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


#: One JSON record, keys in the fixed column order (serialize.to_json's layout).
_JSON_RECORD = "{" + ", ".join(f'"{name}": %s' for name in SAMPLE_COLUMNS) + "}"


def rows_to_json(rows: list[tuple[str, ...]]) -> str:
    """JSON array of sample records, the text serialize.to_json writes for them."""
    records = []
    for row in rows:
        if not NON_FINITE_TEXT.isdisjoint(row):
            row = [json_number(text) for text in row]
        records.append(_JSON_RECORD % tuple(row))
    return "[" + ", ".join(records) + "]\n"

