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

The catalog maps check their point and branch domain when ``jet`` is
called, and compute each part of the jet on its first read, from the same
expression and so with the same bits as an eager evaluation.  A caller that
reads only the value and the first derivative (Newton inversion, g' = -k/h')
pays for those complex powers alone.  Map constants are checked once, when
the map is built.

``gauss_legendre`` is the one quadrature of the package (Poisson kernels,
anchored g).  Its rules come from Newton's method on
the Legendre three-term recurrence, in O(n) memory and without an
eigen-solve, and are kept for the life of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, QuadratureError, SingularityError

#: Magnitudes of the first derivative below this floor raise SingularityError
#: instead of silently producing Inf in downstream curvature formulas.
DERIVATIVE_FLOOR = 1e-300

#: Gauss-Legendre rule sizes double from the first to the last; a target is
#: accepted once |I_n - I_2n| <= QUAD_TOL * (1 + |I_2n|).
QUAD_FIRST_NODES = 64
QUAD_MAX_NODES = 4096
QUAD_TOL = 1e-10

#: Newton steps allowed per Gauss-Legendre rule; every n up to QUAD_MAX_NODES
#: needs at most four.
_NEWTON_STEPS = 8


_PENDING = object()


def _part(slot: str, index: int) -> property:
    def read(self):
        value = getattr(self, slot)
        if value is _PENDING:
            value = self._make[index]()
            setattr(self, slot, value)
        return value

    return property(read)


class Jet2:
    """Value and first two complex derivatives of an analytic map at a point.

    ``Jet2(v, d1, d2)`` holds the parts as given.  ``Jet2.deferred`` takes a
    zero-argument function per part instead; each is called on the first
    read of its part and the result is kept, so a caller pays only for the
    parts it reads and gets the same bits as an eager evaluation.  The parts
    are read-only.
    """

    __slots__ = ("_v", "_d1", "_d2", "_make")

    def __init__(self, v, d1, d2):
        self._v, self._d1, self._d2 = v, d1, d2

    @classmethod
    def deferred(cls, v, d1, d2) -> "Jet2":
        jet = cls(_PENDING, _PENDING, _PENDING)
        jet._make = (v, d1, d2)
        return jet

    v = _part("_v", 0)
    d1 = _part("_d1", 1)
    d2 = _part("_d2", 2)

    def __repr__(self) -> str:
        return f"Jet2(v={self.v!r}, d1={self.d1!r}, d2={self.d2!r})"


def _check_finite(*values) -> None:
    for value in values:
        if not np.isfinite(value).all():  # .all() skips np.all's Python dispatch
            raise DomainError("non-finite evaluation input")


def _check_constants(kind: str, **constants) -> None:
    for name, value in constants.items():
        if not np.isfinite(value):
            raise ParameterError(f"{kind} {name} must be finite, got {value}")


def _power_jet(offset: complex, p: float, zeta) -> Jet2:
    """Deferred jet of (zeta + offset)**p; checks zeta and the branch domain.
    A scalar zeta is powered as a 0-d array, so it gets the bits an array would."""
    zeta = np.asarray(zeta, dtype=complex)
    _check_finite(zeta)
    base = zeta.copy()  # a new array: later changes to zeta do not reach the parts
    base += offset  # in place, so a 0-d base stays an array
    if not (base.real > 0.0).all():
        raise DomainError(
            f"(zeta + {offset}) leaves the right half-plane; principal branch undefined"
        )
    return Jet2.deferred(
        lambda: base**p,
        lambda: p * base ** (p - 1.0),
        lambda: p * (p - 1.0) * base ** (p - 2.0),
    )


def _scaled(c: complex, jet: Jet2) -> Jet2:
    return Jet2.deferred(lambda: c * jet.v, lambda: c * jet.d1, lambda: c * jet.d2)


def require_above_floor(d1, name: str = "d1") -> None:
    """Raise SingularityError unless |d1| > DERIVATIVE_FLOOR everywhere: the
    harmonic-map representation degenerates at such points and anything
    built on 1/d1 would be garbage.  A non-finite d1 is a float64 overflow,
    and raises DomainError saying so."""
    magnitude = np.abs(d1)
    if not np.isfinite(magnitude).all():
        raise DomainError(f"|{name}| is not finite: the representation overflows float64")
    if not (magnitude > DERIVATIVE_FLOOR).all():
        raise SingularityError(
            f"|{name}| <= {DERIVATIVE_FLOOR:g}: critical point of the representation"
        )


def log_derivative(jet: Jet2) -> complex:
    """Ratio d2/d1 of a jet (the logarithmic derivative of the first
    derivative), refused where |d1| is at the derivative floor."""
    require_above_floor(jet.d1)
    return jet.d2 / jet.d1


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        # j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}
        xp = x * p1
        p0, p1 = p1, xp + (1.0 - 1.0 / j) * (xp - p0)
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, exactly symmetric) and weights of the n-point rule.

    Newton on P_n from Tricomi's initial guesses for the nodes in [0, 1)
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652-A674), then
    mirrored: O(n) memory and O(n^2) work, where an eigen-solve of the
    Jacobi matrix needs O(n^2) memory and O(n^3) work.  From these guesses
    Newton settles within four steps at every n up to QUAD_MAX_NODES.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = np.cos(theta) * (
        1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre_pair(n, x)
        step = p / dp
        root = x - step
        if np.abs(step).max() <= 1e-15:
            break
        x = root
    # 2/((1 - x^2) P_n'(x)^2) at the last iterate x, carried to the root to
    # first order: d(log w)/dx = -2x/(1 - x^2) at a root, by Legendre's equation
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * step / one_minus_x2)
    half = n // 2
    return np.concatenate((-root[:half], root[::-1])), np.concatenate((w[:half], w[::-1]))


def gauss_legendre(integrand):
    """Integrals over [-1, 1] of a batch of integrands, with an error estimate.

    ``integrand`` maps the node array x, shape (n,), to values of shape
    batch + (n,).  Rule sizes double from QUAD_FIRST_NODES; each target keeps
    I_2n for the smallest n whose I_n and I_2n agree, so its value does not
    depend on the rest of the batch.  Returns (I_2n, |I_n - I_2n|) and raises
    QuadratureError when a target is still unsettled at QUAD_MAX_NODES.
    Each rule is built once per process (``_legendre_rule``), in O(n) memory:
    4096 nodes take about 0.1 s and 0.2 MiB.
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

    def jet(self, zeta) -> Jet2:
        raise NotImplementedError

    def leading(self) -> tuple[float, complex]:
        """(p, c) with m'(zeta) = c * zeta**(p - 1) * (1 + o(1)) as |zeta| -> inf."""
        raise NotImplementedError


@dataclass(frozen=True)
class AffineMap(AnalyticMap):
    """slope*zeta + intercept (the config term ``affine``)."""

    slope: complex = 1 + 0j
    intercept: complex = 0j

    def __post_init__(self):
        _check_constants("affine", slope=self.slope, intercept=self.intercept)

    def jet(self, zeta) -> Jet2:
        zeta = np.asarray(zeta, dtype=complex)[()]
        _check_finite(zeta)
        return Jet2(
            self.slope * zeta + self.intercept, self.slope * np.ones_like(zeta),
            np.zeros_like(zeta),
        )

    def leading(self) -> tuple[float, complex]:
        return 1.0, complex(self.slope)


@dataclass(frozen=True)
class PowerAffineMap(AnalyticMap):
    """coeff * (zeta + offset)**exponent, principal branch (config term ``power-affine``)."""

    offset: complex = 0j
    exponent: float = 1.0
    coeff: complex = 1 + 0j

    def __post_init__(self):
        _check_constants(
            "power-affine", offset=self.offset, exponent=self.exponent, coeff=self.coeff
        )

    def jet(self, zeta) -> Jet2:
        base = _power_jet(self.offset, float(self.exponent), zeta)
        if self.coeff == 1.0:
            return base
        return _scaled(complex(self.coeff), base)

    def leading(self) -> tuple[float, complex]:
        p = float(self.exponent)
        return p, complex(self.coeff) * p


@dataclass(frozen=True)
class ScaledMap(AnalyticMap):
    """factor * inner(zeta); used to rescale whole solutions."""

    factor: complex
    inner: AnalyticMap

    def __post_init__(self):
        _check_constants("scaled map", factor=self.factor)

    def jet(self, zeta) -> Jet2:
        return _scaled(complex(self.factor), self.inner.jet(zeta))

    def leading(self) -> tuple[float, complex]:
        p, c = self.inner.leading()
        return p, complex(self.factor) * c


@dataclass(frozen=True)
class SumMap(AnalyticMap):
    """Pointwise sum of analytic maps."""

    parts: tuple[AnalyticMap, ...]

    def jet(self, zeta) -> Jet2:
        jets = [part.jet(zeta) for part in self.parts]
        return Jet2.deferred(
            lambda: sum(j.v for j in jets),
            lambda: sum(j.d1 for j in jets),
            lambda: sum(j.d2 for j in jets),
        )

    def leading(self) -> tuple[float, complex]:
        """The largest exponent among parts with c != 0, c summed over it; a sum
        of 0 is refused, as the limit then rests on the terms this form drops."""
        sums: dict[float, complex] = {}
        for p, c in (part.leading() for part in self.parts):
            if c != 0:
                sums[p] = sums.get(p, 0j) + c
        p = max(sums, default=1.0)
        if sums.get(p, 0j) == 0:
            raise DomainError(f"leading terms cancel at exponent {p:g}: lower terms set the limit")
        return p, sums[p]
