"""Second-order jets of analytic maps on the right half-plane.

Evaluation points live in H = {zeta = sigma + i*tau : sigma > 0} and are
represented as plain complex numbers (sigma = Re zeta, tau = Im zeta);
sigma = 0 is admitted only where an operation explicitly works with
boundary traces.  Every catalog map returns the exact triple
(value, first derivative, second derivative) from differentiation rules,
so no numeric differentiation enters the main evaluation path.

All powers use the principal branch.  This is the unique smooth choice on
the shifted half-plane Re(zeta + offset) > 0, where no cut is crossed.

Evaluators are numpy-transparent: a complex scalar yields scalar jets, a
complex ndarray yields arraywise jets of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, QuadratureError, SingularityError

#: Magnitudes of the first derivative below this floor raise SingularityError
#: instead of silently producing Inf in downstream curvature formulas.
DERIVATIVE_FLOOR = 1e-300

#: Gauss-Legendre rule sizes double from the first to the last; a target is
#: accepted once |I_n - I_2n| <= QUAD_TOL * (1 + |I_2n|).
QUAD_FIRST_NODES = 64
QUAD_MAX_NODES = 4096
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class Jet2:
    """Value and first two complex derivatives of an analytic map at a point."""

    v: complex
    d1: complex
    d2: complex

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.v))
            and np.all(np.isfinite(self.d1))
            and np.all(np.isfinite(self.d2))
        )


def _check_finite(*values) -> None:
    for value in values:
        if not np.all(np.isfinite(value)):
            raise DomainError("non-finite evaluation input")


def jet_affine(slope: complex, intercept: complex, zeta) -> Jet2:
    """Jet of the affine map zeta -> slope*zeta + intercept."""
    zeta = np.asarray(zeta, dtype=complex)[()]
    _check_finite(slope, intercept, zeta)
    return Jet2(slope * zeta + intercept, slope * np.ones_like(zeta), np.zeros_like(zeta))


def jet_pow_affine(offset: complex, exponent: float, zeta) -> Jet2:
    """Jet of the principal-branch power zeta -> (zeta + offset)**exponent.

    Requires Re(zeta + offset) > 0 so the shifted point stays in the open
    right half-plane where the principal branch is single-valued.
    """
    zeta = np.asarray(zeta, dtype=complex)[()]
    _check_finite(offset, exponent, zeta)
    base = zeta + offset
    if not np.all(base.real > 0.0):
        raise DomainError(
            f"(zeta + {offset}) leaves the right half-plane; principal branch undefined"
        )
    p = float(exponent)
    v = base**p
    d1 = p * base ** (p - 1.0)
    d2 = p * (p - 1.0) * base ** (p - 2.0)
    return Jet2(v, d1, d2)


def log_derivative(jet: Jet2, floor: float = DERIVATIVE_FLOOR) -> complex:
    """Ratio d2/d1 of a jet (the logarithmic derivative of the first derivative).

    Raises SingularityError when |d1| falls below ``floor``: the harmonic-map
    representation degenerates at such points and any curvature built on the
    ratio would be garbage.
    """
    mag = np.abs(jet.d1)
    if not np.all(mag > floor):
        raise SingularityError(f"|d1| <= {floor:g}: critical point of the representation")
    return jet.d2 / jet.d1


_legendre_rule = lru_cache(maxsize=None)(leggauss)


def gauss_legendre(integrand):
    """Integrals over [-1, 1] of a batch of integrands, with an error estimate.

    ``integrand`` maps the node array x, shape (n,), to values of shape
    batch + (n,).  Rule sizes double from QUAD_FIRST_NODES; each target keeps
    I_2n for the smallest n whose I_n and I_2n agree, so its value does not
    depend on the rest of the batch.  Returns (I_2n, |I_n - I_2n|) and raises
    QuadratureError when a target is still unsettled at QUAD_MAX_NODES.
    """
    def rule(n: int) -> np.ndarray:
        x, w = _legendre_rule(n)
        total = np.sum(integrand(x) * w, axis=-1)  # row by row: no BLAS blocking
        if not np.all(np.isfinite(total)):
            raise QuadratureError(f"non-finite integrand at {n} Gauss-Legendre nodes")
        return total

    coarse = rule(QUAD_FIRST_NODES)
    value = np.full_like(coarse, np.nan)
    error = np.full(coarse.shape, np.inf)
    pending = np.ones(coarse.shape, dtype=bool)
    n = 2 * QUAD_FIRST_NODES
    while n <= QUAD_MAX_NODES:
        fine = rule(n)
        diff = np.abs(fine - coarse)
        done = pending & (diff <= QUAD_TOL * (1.0 + np.abs(fine)))
        value = np.where(done, fine, value)
        error = np.where(pending, diff, error)
        pending &= ~done
        if not pending.any():
            return value[()], error[()]
        coarse, n = fine, 2 * n
    raise QuadratureError(
        f"Gauss-Legendre rule not settled at {QUAD_MAX_NODES} nodes: "
        f"n-vs-2n difference {float(np.max(error)):.3e}"
    )


class AnalyticMap:
    """An analytic function on H with exact first and second derivatives.

    Subclasses implement ``jet``; evaluation must be deterministic
    (identical inputs give bit-identical outputs) and is pure, so instances
    are safe to share between threads.
    """

    name: str = "analytic map"

    def jet(self, zeta) -> Jet2:
        raise NotImplementedError

    def __call__(self, zeta) -> complex:
        return self.jet(zeta).v

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True, repr=False)
class AffineMap(AnalyticMap):
    """slope*zeta + intercept."""

    slope: complex
    intercept: complex = 0.0

    @property
    def name(self) -> str:
        return f"affine({self.slope}, {self.intercept})"

    def jet(self, zeta) -> Jet2:
        return jet_affine(self.slope, self.intercept, zeta)


@dataclass(frozen=True, repr=False)
class PowerAffineMap(AnalyticMap):
    """coeff * (zeta + offset)**exponent, principal branch."""

    offset: complex
    exponent: float
    coeff: complex = 1.0

    @property
    def name(self) -> str:
        return f"power({self.coeff}*(zeta+{self.offset})^{self.exponent})"

    def jet(self, zeta) -> Jet2:
        base = jet_pow_affine(self.offset, self.exponent, zeta)
        if self.coeff == 1.0:
            return base
        c = complex(self.coeff)
        return Jet2(c * base.v, c * base.d1, c * base.d2)


@dataclass(frozen=True, repr=False)
class ScaledMap(AnalyticMap):
    """factor * inner(zeta); used to rescale whole solutions."""

    factor: complex
    inner: AnalyticMap

    @property
    def name(self) -> str:
        return f"{self.factor}*{self.inner.name}"

    def jet(self, zeta) -> Jet2:
        inner = self.inner.jet(zeta)
        c = complex(self.factor)
        return Jet2(c * inner.v, c * inner.d1, c * inner.d2)


@dataclass(frozen=True, repr=False)
class SumMap(AnalyticMap):
    """Pointwise sum of analytic maps."""

    parts: tuple[AnalyticMap, ...]

    @property
    def name(self) -> str:
        return " + ".join(part.name for part in self.parts)

    def jet(self, zeta) -> Jet2:
        jets = [part.jet(zeta) for part in self.parts]
        return Jet2(
            sum(j.v for j in jets),
            sum(j.d1 for j in jets),
            sum(j.d2 for j in jets),
        )
