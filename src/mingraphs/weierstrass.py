"""Minimal graphs over the right half-plane from Weierstrass data.

A solution u > 0 of the minimal surface equation over a domain bounded by
an unbounded arc, with u = 0 on the boundary, is carried here in parametric
form: a univalent harmonic map

    f(zeta) = h(zeta) + conj(g(zeta)),   zeta = sigma + i*tau in H,

whose analytic part h determines everything else.  The height is forced to
be linear in sigma,

    u = k0 * sigma        (k0 > 0),

and the companion function is coupled to h through

    g'(zeta) = -k / h'(zeta),      k = k0**2 / 4,

so a pair (h, k0) fixes the whole surface up to a translation of the image
domain.  Valid data satisfies |h'| >= sqrt(k) with |h'| > |g'| (the map is
sense-preserving); the Jacobian |h'|**2 - k**2/|h'|**2 quantifies the
univalence margin and vanishes exactly where the data degenerates.

WeierstrassPair instances are immutable; all operations are pure functions
and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytic import AffineMap, AnalyticMap, PowerAffineMap, ScaledMap
from .analytic import gauss_legendre, require_above_floor
from .errors import DomainError, ParameterError

#: Probe points used to sanity-check a closed-form g against g' = -k/h'.
_DILATATION_PROBES = (0.5 + 0.0j, 1.0 + 1.0j, 2.0 - 1.5j, 0.25 + 3.0j, 4.0 + 0.5j)


@dataclass(frozen=True)
class SurfacePoint:
    """One point of the graph: domain coordinates (x, y) and the height u >= 0."""

    x: float
    y: float
    u: float


@dataclass(frozen=True)
class WeierstrassPair:
    """Analytic map h plus the height slope k0 (and an evaluation path for g).

    Exactly one of ``g`` (closed form) or ``g_anchor`` (a point zeta_a with the
    value g(zeta_a), from which g is continued by integrating -k/h' along
    straight segments with the package's one Gauss-Legendre rule,
    ``analytic.gauss_legendre``) must be provided.
    """

    h: AnalyticMap
    k0: float
    g: AnalyticMap | None = None
    g_anchor: tuple[complex, complex] | None = None
    gamma: float | None = None
    label: str = "pair"

    def __post_init__(self):
        if not (np.isfinite(self.k0) and self.k0 > 0.0):
            raise ParameterError(f"k0 must be positive, got {self.k0}")
        if not 0.0 < self.k < np.inf:  # k0**2/4 overflows or underflows
            raise ParameterError(f"k0 = {self.k0} makes k = k0**2/4 = {self.k}, not in (0, inf)")
        if (self.g is None) == (self.g_anchor is None):
            raise ParameterError("exactly one of g (closed form) or g_anchor is required")
        if self.g_anchor is not None:
            zeta_a, value_a = map(complex, self.g_anchor)
            if not (np.isfinite(zeta_a) and np.isfinite(value_a)):
                raise ParameterError(f"g_anchor must be finite, got {zeta_a}:{value_a}")
            if zeta_a.real < 0.0:
                raise ParameterError("g anchor must lie in the closed half-plane")
        if self.g is not None:
            self._probe_dilatation()

    @property
    def k(self) -> float:
        """The coupling constant k = k0**2/4 of g' = -k/h'."""
        return self.k0 * self.k0 / 4.0

    def _probe_dilatation(self) -> None:
        # g' * h' must equal -k identically; a handful of probes catches
        # mis-specified closed forms at construction time.  A product that
        # overflows to inf or nan fails too ("not <=" refuses nan), and
        # without a numpy warning.
        for zeta in _DILATATION_PROBES:
            try:
                with np.errstate(all="ignore"):
                    hp = self.h.jet(zeta).d1
                    gp = self.g.jet(zeta).d1
                    product = gp * hp
            except DomainError:
                continue
            if not abs(product + self.k) <= 1e-8 * max(self.k, 1.0):
                raise ParameterError(
                    f"closed-form g violates g'h' = -k at zeta={zeta}: got {product}"
                )


def g_prime(pair: WeierstrassPair, zeta):
    """g'(zeta) = -k/h'(zeta), exact wherever h' is above the derivative floor."""
    hp = pair.h.jet(zeta).d1
    require_above_floor(hp, "h'")
    return -pair.k / hp


def _segment_integral(fn, z0, z1):
    """Integral of fn along the straight segments [z0, z1] (broadcast together),
    one Gauss-Legendre rule for the whole batch."""
    half = (np.asarray(z1, dtype=complex) - z0) / 2.0
    mid = z0 + half

    def integrand(x):
        return fn(mid[..., None] + half[..., None] * x) * half[..., None]

    return gauss_legendre(integrand)[0]


def g_value(pair: WeierstrassPair, zeta):
    """g(zeta), from the closed form or by integrating g' = -k/h' (``g_prime``,
    which refuses h' at the derivative floor) from the anchor.

    The anchored integral runs along the straight segment from zeta_a, which
    stays inside the (convex) closed half-plane, so the value is
    path-independent.  All targets share one jet call per rule size.
    """
    if pair.g is not None:
        return pair.g.jet(zeta).v
    zeta_a, value_a = pair.g_anchor
    return value_a + _segment_integral(lambda xi: g_prime(pair, xi), complex(zeta_a), zeta)


def eval_surface(pair: WeierstrassPair, zeta) -> SurfacePoint:
    """Map zeta in the closed half-plane to (x, y, u) on the graph.

    (x, y) = f(zeta) = h(zeta) + conj(g(zeta)) and u = k0 * Re(zeta); at
    sigma = 0 this lands on the boundary curve, where u vanishes exactly.
    """
    zeta = np.asarray(zeta, dtype=complex)[()]
    if not np.all(zeta.real >= 0.0):
        raise DomainError("eval_surface requires sigma >= 0")
    f = pair.h.jet(zeta).v + np.conj(g_value(pair, zeta))
    return SurfacePoint(x=f.real, y=f.imag, u=pair.k0 * zeta.real)


def lw_family(gamma: float) -> WeierstrassPair:
    """The one-parameter catalog family with concave domains.

    h(zeta) = (zeta+1)**gamma and g(zeta) = -(zeta+1)**(2-gamma)/(gamma*(2-gamma))
    with k0 = 2 (so k = 1), defined for 1 < gamma < 2.  The endpoints are
    refused: at gamma = 1 the dilatation loses strict inequality, and at
    gamma = 2 the coefficient of g blows up.
    """
    if not np.isfinite(gamma):
        raise ParameterError("gamma must be finite")
    if not 1.0 < gamma < 2.0:
        raise ParameterError(f"gamma = {gamma} outside (1, 2)")
    h = PowerAffineMap(offset=1.0, exponent=float(gamma))
    g = PowerAffineMap(
        offset=1.0, exponent=float(2.0 - gamma), coeff=-1.0 / (gamma * (2.0 - gamma))
    )
    return WeierstrassPair(h=h, k0=2.0, g=g, gamma=float(gamma), label=f"lw(gamma={gamma:g})")


def planar_pair(a: float, k0: float = 2.0) -> WeierstrassPair:
    """The planar solution: h = a*zeta, g = -(k/a)*zeta, a linear graph with
    straight level lines (curvature identically zero)."""
    k = k0 * k0 / 4.0
    if not (np.isfinite(a) and a > np.sqrt(k)):
        raise ParameterError(f"planar pair needs a > sqrt(k) = {np.sqrt(k):g}, got {a}")
    return WeierstrassPair(
        h=AffineMap(complex(a)), k0=float(k0), g=AffineMap(complex(-k / a)),
        label=f"planar(a={a:g}, k0={k0:g})",
    )


def scale_solution(pair: WeierstrassPair, c: float) -> WeierstrassPair:
    """Rescale the solution: u(x, y) -> c*u(x/c, y/c).

    In parametric data this is h -> c*h and k0 -> c*k0 (hence k -> c**2*k and
    g' -> c*g' automatically); the same zeta then maps to the spatially
    scaled point with height c*u.
    """
    if not (np.isfinite(c) and c > 0.0):
        raise ParameterError(f"scale factor must be positive, got {c}")
    if c == 1.0:
        return pair
    scaled_g = None if pair.g is None else ScaledMap(float(c), pair.g)
    scaled_anchor = None
    if pair.g_anchor is not None:
        zeta_a, value_a = pair.g_anchor
        scaled_anchor = (zeta_a, c * value_a)
    return replace(
        pair, h=ScaledMap(float(c), pair.h), k0=c * pair.k0,
        g=scaled_g, g_anchor=scaled_anchor, label=f"scale({c:g})*{pair.label}",
    )
