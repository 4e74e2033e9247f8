"""Jet evaluation: exact derivative rules, branches, and FD consistency."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from mingraphs.analytic import QUAD_TOL, _legendre_rule, gauss_legendre, require_above_floor
from mingraphs.errors import QuadratureError
from hypothesis import given, settings
from hypothesis import strategies as st

from mingraphs import (
    AffineMap,
    DomainError,
    Jet2,
    ParameterError,
    PowerAffineMap,
    ScaledMap,
    SingularityError,
    SumMap,
    log_derivative,
)


class TestPowAffine:
    def test_power_three_halves_at_one(self):
        jet = PowerAffineMap(1.0, 1.5).jet(1.0 + 0j)
        assert jet.v == pytest.approx(2.0**1.5, rel=1e-14)
        assert jet.d1 == pytest.approx(1.5 * 2.0**0.5, rel=1e-14)
        assert jet.d2 == pytest.approx(0.75 * 2.0**-0.5, rel=1e-14)

    def test_identity_power(self):
        jet = PowerAffineMap(1.0, 1.0).jet(0.7 + 2.3j)
        assert jet.v == pytest.approx(1.7 + 2.3j)
        assert jet.d1 == 1.0
        assert jet.d2 == 0.0

    def test_half_power_at_i(self):
        jet = PowerAffineMap(1.0, 0.5).jet(1j)
        expected = 2.0**0.25 * np.exp(1j * np.pi / 8)
        assert jet.v == pytest.approx(expected, rel=1e-14)
        assert jet.v**2 == pytest.approx(1.0 + 1.0j, rel=1e-14)

    def test_branch_domain_error(self):
        with pytest.raises(DomainError):
            PowerAffineMap(1.0, 1.5).jet(-1.0 + 2j)  # Re(zeta+1) = 0
        with pytest.raises(DomainError):
            PowerAffineMap(0.0, 0.5).jet(-0.5 + 0j)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(DomainError):
            PowerAffineMap(1.0, 1.5).jet(complex(np.nan, 0.0))
        with pytest.raises(ParameterError):
            PowerAffineMap(np.inf, 1.5)

    def test_vertical_line_continuity(self):
        # principal branch must not jump anywhere on sigma = const > 0
        for sigma in (0.1, 1.0, 10.0):
            for p in (0.5, 1.5, 1.9):
                taus = np.linspace(-40.0, 40.0, 4001)
                jets = PowerAffineMap(1.0, p).jet(sigma + 1j * taus)
                dv = np.abs(np.diff(jets.v))
                step_bound = np.abs(jets.d1)[:-1] * (taus[1] - taus[0])
                assert np.all(dv <= 1.5 * step_bound + 1e-12)


class TestAffine:
    def test_linear(self):
        jet = AffineMap(2.0, 0.0).jet(1.0 + 1.0j)
        assert (jet.v, jet.d1, jet.d2) == (2.0 + 2.0j, 2.0, 0.0)

    def test_constant(self):
        jet = AffineMap(0.0, 5.0).jet(3.0 + 0j)
        assert (jet.v, jet.d1, jet.d2) == (5.0, 0.0, 0.0)

    def test_complex_slope(self):
        jet = AffineMap(1.0 - 1.0j, 2.0).jet(1.0 + 0j)
        assert jet.v == pytest.approx(3.0 - 1.0j)
        assert jet.d1 == pytest.approx(1.0 - 1.0j)
        assert jet.d2 == 0.0


class TestLogDerivative:
    def test_power_closed_form(self):
        jet = PowerAffineMap(1.0, 1.5).jet(1.0 + 0j)
        assert log_derivative(jet) == pytest.approx(0.25, rel=1e-13)

    def test_affine_is_zero(self):
        assert log_derivative(AffineMap(3.0, 1.0).jet(2.0 + 0j)) == 0.0

    def test_power_19_at_i(self):
        jet = PowerAffineMap(1.0, 1.9).jet(1j)
        assert log_derivative(jet) == pytest.approx(0.45 - 0.45j, rel=1e-13)

    def test_floor_raises(self):
        with pytest.raises(SingularityError):
            log_derivative(Jet2(1.0, 0.0, 1.0))

    def test_floor_is_strict(self):
        require_above_floor(np.array([1.0, 2e-300]))
        with pytest.raises(SingularityError, match=r"\|h'\| <= 1e-300"):
            require_above_floor(np.array([1.0, 1e-300]), "h'")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, np.inf)])
    def test_non_finite_is_an_overflow(self, bad):
        # nan fails |d1| > floor too, but it is no critical point
        with pytest.raises(DomainError, match=r"\|h'\| is not finite: .* overflows float64"):
            require_above_floor(np.array([1.0, bad]), "h'")


def _catalog_maps():
    lw_h = PowerAffineMap(offset=1.0, exponent=1.5)
    lw_g = PowerAffineMap(offset=1.0, exponent=0.5, coeff=-4.0 / 3.0)
    return [
        lw_h,
        lw_g,
        AffineMap(2.0),
        ScaledMap(2.0, lw_h),
        SumMap((PowerAffineMap(offset=1.0, exponent=2.0, coeff=0.5), AffineMap(-5.0))),
    ]


def test_finite_difference_consistency(rng):
    """Central differences of v reproduce d1 (and of d1 reproduce d2) at
    order >= 1.9 over 120 random interior points, for every catalog map."""
    zetas = rng.uniform(0.1, 5.0, 120) + 1j * rng.uniform(-5.0, 5.0, 120)
    for amap in _catalog_maps():
        center = amap.jet(zetas)

        def fd_errors(eps):
            plus, minus = amap.jet(zetas + eps), amap.jet(zetas - eps)
            return (
                np.max(np.abs((plus.v - minus.v) / (2 * eps) - center.d1)),
                np.max(np.abs((plus.d1 - minus.d1) / (2 * eps) - center.d2)),
            )

        coarse = fd_errors(1e-3)
        fine = fd_errors(5e-4)
        for c_err, f_err, key in zip(coarse, fine, ("d1", "d2")):
            if c_err < 1e-11:
                assert f_err < 1e-11  # exact up to difference roundoff (affine map)
            else:
                order = np.log2(c_err / f_err)
                assert order >= 1.9, f"{amap!r} {key}: observed order {order:.3f}"


def test_determinism():
    z = 0.37 + 1.41j
    first = PowerAffineMap(1.0, 1.7).jet(z)
    second = PowerAffineMap(1.0, 1.7).jet(z)
    assert first.v == second.v and first.d1 == second.d1 and first.d2 == second.d2


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(0.25, 3.0),
    sigma=st.floats(1e-3, 50.0),
    tau=st.floats(-50.0, 50.0),
)
def test_log_derivative_matches_power_rule(p, sigma, tau):
    zeta = complex(sigma, tau)
    got = log_derivative(PowerAffineMap(1.0, p).jet(zeta))
    want = (p - 1.0) / (zeta + 1.0)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(1e-3, 20.0),
    tau=st.floats(-20.0, 20.0),
    c=st.floats(0.1, 10.0),
)
def test_scaled_map_scales_all_jet_entries(sigma, tau, c):
    inner = PowerAffineMap(offset=1.0, exponent=1.5)
    scaled = ScaledMap(c, inner)
    zeta = complex(sigma, tau)
    base, got = inner.jet(zeta), scaled.jet(zeta)
    assert got.v == pytest.approx(c * base.v, rel=1e-14)
    assert got.d1 == pytest.approx(c * base.d1, rel=1e-14)
    assert got.d2 == pytest.approx(c * base.d2, rel=1e-14)


class TestGaussLegendre:
    def test_batch_of_exponentials(self):
        c = np.array([0.5, 1.0, 3.0])
        value, err = gauss_legendre(lambda x: np.exp(c[:, None] * x))
        assert np.allclose(value, 2.0 * np.sinh(c) / c, rtol=1e-13, atol=0.0)
        assert np.all(err <= QUAD_TOL)

    def test_scalar_target(self):
        value, err = gauss_legendre(lambda x: x**6)
        assert value == pytest.approx(2.0 / 7.0, rel=1e-14)
        assert np.ndim(value) == 0 and err <= QUAD_TOL

    def test_value_independent_of_batch(self):
        # the second target needs many more nodes than the first
        alone, _ = gauss_legendre(lambda x: np.cos(x)[None, :])
        both, _ = gauss_legendre(lambda x: np.stack([np.cos(x), 1.0 / (1.01 - x)]))
        assert both[0] == alone[0]

    def test_kink_cannot_settle(self):
        with pytest.raises(QuadratureError, match="n-vs-2n difference"):
            gauss_legendre(lambda x: np.abs(x - 0.3))

    def test_nonfinite_integrand(self):
        with pytest.raises(QuadratureError):
            gauss_legendre(lambda x: np.full_like(x, np.nan))


def _polished_node(n: int, x0: float):
    """Root of P_n next to x0 > 0 and its Gauss weight, by 40-digit Newton
    on mpmath.legendre; P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(2):  # from a double node, one step leaves an error near 1e-26
            p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            dp = n * (x * p - q) / (x * x - 1)
            x -= p / dp
        return x, 2 / ((1 - x * x) * dp * dp)


class TestLegendreRule:
    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_against_mpmath(self, n):
        x, w = _legendre_rule(n)
        assert np.array_equal(x, -x[::-1])
        assert np.all(np.diff(x) > 0.0)
        assert abs(w.sum() - 2.0) <= 4e-16 * n
        # the top end, a quarter and the middle node; the bottom end mirrors the top
        for i, sign in [(n - 1, 1), (0, -1), (3 * n // 4, 1), (n // 2, 1)]:
            node, weight = _polished_node(n, sign * x[i])
            with mpmath.workdps(40):
                assert abs(sign * x[i] - node) <= 2.5e-16, i
                assert abs(w[i] / weight - 1) <= 1e-10, i

    def test_memory_is_linear(self):
        tracemalloc.start()
        try:
            _legendre_rule.__wrapped__(1024)  # past the cache: build the rule again
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20
