"""Deferred jet parts: same bits as eager evaluation, and only read parts cost.

``EagerPowerMap`` is a test-only reference that computes all three parts of
coeff*(zeta + offset)**exponent up front, with the expressions the catalog
maps use.  Pairs built from it must give bit-identical results to the
catalog pairs, and a power counter pins how many complex powers the Newton
inversion and the anchored quadrature pay for.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from mingraphs import analytic, graphfield
from mingraphs.analytic import AffineMap, AnalyticMap, Jet2, PowerAffineMap, ScaledMap, SumMap
from mingraphs.errors import DomainError, ParameterError
from mingraphs.graphfield import _newton_batch, reconstruct_u
from mingraphs.levels import SAMPLE_COLUMNS, LevelCurveSpec, sample_level_curve
from mingraphs.weierstrass import WeierstrassPair, g_value, lw_family

WINDOW = ((0.5, 3.0), (-2.0, 2.0))
ANCHOR_ZERO = (0j, -1.3333333333333333)


@dataclass(frozen=True, repr=False)
class EagerPowerMap(AnalyticMap):
    """coeff*(zeta + offset)**exponent with every jet part computed at once."""

    offset: complex
    exponent: float
    coeff: complex = 1.0

    def jet(self, zeta) -> Jet2:
        zeta = np.asarray(zeta, dtype=complex)[()]
        if not np.all(np.isfinite(zeta)):
            raise DomainError("non-finite evaluation input")
        base = zeta + self.offset
        if not np.all(base.real > 0.0):
            raise DomainError("leaves the right half-plane")
        p = float(self.exponent)
        parts = (base**p, p * base ** (p - 1.0), p * (p - 1.0) * base ** (p - 2.0))
        if self.coeff != 1.0:
            parts = tuple(complex(self.coeff) * part for part in parts)
        return Jet2(*parts)


def eager_lw(gamma: float) -> WeierstrassPair:
    g = EagerPowerMap(1.0, float(2.0 - gamma), -1.0 / (gamma * (2.0 - gamma)))
    return WeierstrassPair(h=EagerPowerMap(1.0, float(gamma)), k0=2.0, g=g, gamma=gamma)


def anchored(h: AnalyticMap) -> WeierstrassPair:
    return WeierstrassPair(h=h, k0=2.0, g_anchor=ANCHOR_ZERO)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSameBitsAsEager:
    @pytest.mark.parametrize("window, spacing, make", [
        (WINDOW, 1.0 / 32.0, lambda eager: eager_lw(1.5) if eager else lw_family(1.5)),
        (((-3.0, 3.0), (-2.0, 2.0)), 1.0 / 32.0,
         lambda eager: eager_lw(1.5) if eager else lw_family(1.5)),
        (WINDOW, 1.0 / 8.0, lambda eager: anchored(
            EagerPowerMap(1.0, 1.5) if eager else PowerAffineMap(offset=1.0, exponent=1.5))),
    ], ids=["lw15-default", "lw15-masked", "anchor-zero"])
    def test_reconstruct_u(self, window, spacing, make):
        want = reconstruct_u(make(True), window, spacing)
        got = reconstruct_u(make(False), window, spacing)
        assert same_bits(got.mask, want.mask)
        assert same_bits(got.values, want.values)
        assert got.stats == want.stats

    def test_masked_window_has_masked_nodes(self):
        field = reconstruct_u(lw_family(1.5), ((-3.0, 3.0), (-2.0, 2.0)), 1.0 / 32.0)
        assert 0 < field.stats.failed < field.stats.attempted

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_level_curve_columns(self, c):
        spec = LevelCurveSpec(c=c, tau_min=-20.0, tau_max=20.0, n_samples=101)
        want = sample_level_curve(eager_lw(1.5), spec)
        got = sample_level_curve(lw_family(1.5), spec)
        for column in SAMPLE_COLUMNS:
            assert same_bits(getattr(got, column), getattr(want, column)), column

    def test_anchored_g_value(self):
        zetas = np.array([0.0, 0.5 - 2.0j, 1.0 + 1.0j, 3.0 + 0.25j, 0.1 + 7.0j])
        want = g_value(anchored(EagerPowerMap(1.0, 1.5)), zetas)
        got = g_value(anchored(PowerAffineMap(offset=1.0, exponent=1.5)), zetas)
        assert same_bits(got, want)


class _PowerCount(np.ndarray):
    """ndarray view that counts each ``**`` taken of a complex array."""

    calls = 0
    points = 0

    def __pow__(self, other):
        if np.iscomplexobj(self):
            _PowerCount.calls += 1
            _PowerCount.points += self.size
        return super().__pow__(other)


class _CountingNumpy:
    """numpy for the analytic module, with every evaluation point counted."""

    jet_points = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, *args, **kwargs):
        out = np.asarray(*args, **kwargs).view(_PowerCount)
        _CountingNumpy.jet_points += out.size
        return out


@pytest.fixture
def power_count(monkeypatch):
    monkeypatch.setattr(analytic, "np", _CountingNumpy())
    monkeypatch.setattr(_PowerCount, "calls", 0)
    monkeypatch.setattr(_PowerCount, "points", 0)
    monkeypatch.setattr(_CountingNumpy, "jet_points", 0)
    return _PowerCount


class TestPowerCount:
    # lw15, a session fixture, is built before the counter starts: building a
    # pair with closed-form g probes g'h' = -k, powers these tests do not count.
    def test_newton_node_iteration_takes_three_powers(self, lw15, power_count, monkeypatch):
        pair = lw15
        xs = np.linspace(0.6, 2.9, 7)
        targets = (xs[None, :] + 1j * np.linspace(-1.9, 1.9, 9)[:, None]).ravel()
        monkeypatch.setattr(graphfield, "NEWTON_MAX_ITER", 1)
        _newton_batch(pair, targets, np.full(targets.size, 1.0 + 0.5j))
        assert power_count.calls == 3  # h, h' and g; never h'', g', g''
        assert power_count.points == 3 * targets.size

    def test_anchored_quadrature_node_takes_one_power(self, power_count):
        pair = anchored(PowerAffineMap(offset=1.0, exponent=1.5))
        g_value(pair, np.array([0.5 - 2.0j, 1.0 + 1.0j, 3.0 + 0.25j]))
        assert _CountingNumpy.jet_points > 0
        assert power_count.points == _CountingNumpy.jet_points  # h' only

    def test_counter_sees_every_part(self, lw15, power_count):
        jet = lw15.h.jet(np.array([1.0 + 1.0j, 2.0 - 0.5j]))
        assert power_count.calls == 0
        parts = [jet.v, jet.d1, jet.d2, jet.v, jet.d1, jet.d2]
        assert power_count.calls == 3 and power_count.points == 6
        assert same_bits(parts[0], parts[3])


class TestDeferredParts:
    def test_each_part_computed_once(self):
        calls = []

        def part(name, value):
            def make():
                calls.append(name)
                return value
            return make

        jet = Jet2.deferred(part("v", 1.0), part("d1", 2.0), part("d2", 3.0))
        assert calls == []
        assert (jet.d1, jet.d1, jet.v) == (2.0, 2.0, 1.0)
        assert calls == ["d1", "v"]
        assert (jet.v, jet.d1, jet.d2) == (1.0, 2.0, 3.0)
        assert calls == ["d1", "v", "d2"]

    def test_plain_values(self):
        jet = Jet2(1.0 + 1.0j, 2.0, 0.0)
        assert (jet.v, jet.d1, jet.d2) == (1.0 + 1.0j, 2.0, 0.0)
        with pytest.raises(AttributeError):
            jet.v = 0.0

    @pytest.mark.parametrize("amap", [
        PowerAffineMap(offset=1.0, exponent=1.5, coeff=-2.0),
        ScaledMap(3.0, PowerAffineMap(offset=1.0, exponent=0.5)),
        SumMap((PowerAffineMap(offset=1.0, exponent=2.0, coeff=0.5), AffineMap(-5.0))),
    ], ids=["power", "scaled", "sum"])
    def test_parts_do_not_alias_zeta(self, amap):
        zeta = np.array([0.5 + 1.0j, 2.0 - 3.0j])
        fresh = amap.jet(zeta.copy())
        want = (fresh.v, fresh.d1, fresh.d2)
        jet = amap.jet(zeta)
        zeta[:] = 7.0 + 7.0j
        for got, expected in zip((jet.v, jet.d1, jet.d2), want):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("zeta", [np.array([1.0, np.nan + 0j]), np.array([1.0, -2.0 + 0j])],
                             ids=["non-finite", "off-branch"])
    def test_domain_errors_raise_at_the_call(self, zeta):
        for amap in (PowerAffineMap(offset=1.0, exponent=1.5),
                     ScaledMap(2.0, PowerAffineMap(offset=1.0, exponent=1.5)),
                     SumMap((PowerAffineMap(offset=1.0, exponent=1.5), AffineMap(1.0)))):
            with pytest.raises(DomainError):
                amap.jet(zeta)

    @pytest.mark.parametrize("make, named", [
        (lambda: PowerAffineMap(offset=np.nan, exponent=1.5), "offset"),
        (lambda: PowerAffineMap(offset=1.0, exponent=np.inf), "exponent"),
        (lambda: PowerAffineMap(offset=1.0, exponent=1.5, coeff=complex(0.0, np.nan)), "coeff"),
        (lambda: ScaledMap(np.inf, PowerAffineMap(offset=1.0, exponent=1.5)), "factor"),
    ], ids=["offset", "exponent", "coeff", "factor"])
    def test_map_constants_checked_when_built(self, make, named):
        with pytest.raises(ParameterError, match=named):
            make()
