"""Weierstrass pairs: catalog, coupling identities, height, scaling."""

import warnings

import numpy as np
import pytest

from mingraphs import (
    AffineMap,
    ParameterError,
    PowerAffineMap,
    QuadratureError,
    SingularityError,
    WeierstrassPair,
    g_prime,
    g_value,
    lw_family,
    planar_pair,
    scale_solution,
)
from mingraphs.config import build_pair
from mingraphs.graphfield import _f_values
from oracles import height_via_integral, jacobian_det


class TestCatalog:
    def test_lw_family_basics(self):
        pair = lw_family(1.5)
        assert pair.k0 == 2.0 and pair.k == 1.0
        assert pair.h.jet(0j).d1 == pytest.approx(1.5)
        assert pair.g.jet(0j).d1 == pytest.approx(-2.0 / 3.0)
        assert abs(pair.h.jet(0j).d1) > abs(pair.g.jet(0j).d1)

    def test_lw_range_guard(self):
        with pytest.raises(ParameterError):
            lw_family(2.5)
        with pytest.raises(ParameterError):
            lw_family(1.0)
        with pytest.raises(ParameterError, match=r"^gamma = 2\.0 outside \(1, 2\)$"):
            lw_family(2.0)
        with pytest.raises(ParameterError, match="^gamma must be finite$"):
            lw_family(float("nan"))

    def test_lw_19_log_ratio(self):
        pair = lw_family(1.9)
        assert pair.k0 == 2.0
        jet = pair.h.jet(1.0 + 0j)
        assert np.real(jet.d2 / jet.d1) == pytest.approx(0.9 * 0.5, rel=1e-13)

    def test_planar_basics(self):
        pair = planar_pair(2.0, 2.0)
        f, u = _f_values(pair, 1.0 + 1.0j), pair.k0 * 1.0
        assert (f.real, f.imag, u) == (pytest.approx(1.5), pytest.approx(2.5), pytest.approx(2.0))
        # u = (4/3) x on the planar graph
        assert u == pytest.approx(4.0 / 3.0 * f.real)

    def test_planar_margin_guard(self):
        with pytest.raises(ParameterError):
            planar_pair(1.0, 2.0)  # a = sqrt(k) exactly
        with pytest.raises(ParameterError):
            planar_pair(0.5, 2.0)

    def test_planar_a3(self):
        pair = planar_pair(3.0, 2.0)
        f = _f_values(pair, 1.0 + 0j)
        assert f.real == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert f.imag == 0.0 and pair.k0 * 1.0 == pytest.approx(2.0)


class TestConstructor:
    def test_exactly_one_g_path(self):
        with pytest.raises(ParameterError):
            WeierstrassPair(h=AffineMap(2.0), k0=2.0)
        with pytest.raises(ParameterError):
            WeierstrassPair(h=AffineMap(2.0), k0=2.0, g=AffineMap(-0.5),
                            g_anchor=(0j, 0j))

    def test_bad_closed_form_g_rejected(self):
        # g'h' = -1.4 != -k = -1
        with pytest.raises(ParameterError):
            WeierstrassPair(h=AffineMap(2.0), k0=2.0, g=AffineMap(-0.7))

    def test_overflowing_closed_form_g_rejected(self):
        # g'h' overflows to nan at every probe; "not <= tol" refuses it quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="violates g'h' = -k"):
                WeierstrassPair(h=PowerAffineMap(offset=1.0, exponent=1e300), k0=2.0,
                                g=AffineMap(1e300))

    def test_bad_k0(self):
        with pytest.raises(ParameterError):
            WeierstrassPair(h=AffineMap(2.0), k0=-2.0, g=AffineMap(-0.5))


class TestGPrime:
    def test_lw15_at_one(self):
        pair = lw_family(1.5)
        got = g_prime(pair, 1.0 + 0j)
        assert got == pytest.approx(-1.0 / (1.5 * 2.0**0.5), rel=1e-13)
        closed = -(1.0 / 1.5) * (2.0 + 0j) ** (1.0 - 1.5)
        assert got == pytest.approx(closed, rel=1e-13)

    def test_planar_constant(self):
        pair = planar_pair(2.0, 2.0)
        for zeta in (0.3 + 0j, 1j, 4.0 - 2.0j):
            assert g_prime(pair, zeta) == pytest.approx(-0.5)

    def test_lw19_modulus_identity(self):
        pair = lw_family(1.9)
        hp = pair.h.jet(1j).d1
        assert abs(g_prime(pair, 1j)) * abs(hp) == pytest.approx(pair.k, rel=1e-12)

    def test_critical_point_raises(self):
        # h' = zeta - 4 vanishes at zeta = 4, the same floor as log_derivative
        pair = build_pair({"kind": "custom", "k0": "2", "g_anchor": "1:0",
                           "h": "power-affine offset=1 exponent=2 coeff=0.5 + affine slope=-5"})
        with pytest.raises(SingularityError, match=r"\|h'\| <= 1e-300"):
            g_prime(pair, 4.0 + 0j)

    def test_anchored_g_value_enforces_floor(self):
        # the anchored integrand is g_prime itself, so |h'| = 1e-310 is refused
        pair = WeierstrassPair(h=AffineMap(1e-310), k0=2.0, g_anchor=(0j, 0j))
        with pytest.raises(SingularityError, match=r"\|h'\| <= 1e-300"):
            g_value(pair, 1 + 0j)


class TestEvalSurface:
    """f = h + conj(g) at single points, by ``graphfield._f_values``, the map
    that ``reconstruct`` inverts; the height is u = k0*sigma."""

    def test_lw15_at_one(self, lw15):
        f = _f_values(lw15, 1.0 + 0j)
        assert f.real == pytest.approx(2.0**1.5 - (4.0 / 3.0) * 2.0**0.5, rel=1e-14)
        assert f.imag == pytest.approx(0.0, abs=1e-15)
        assert lw15.k0 * 1.0 == pytest.approx(2.0)

    def test_lw15_boundary(self, lw15):
        f = _f_values(lw15, 1j)
        expected_x = ((1 + 1j) ** 1.5).real - (4.0 / 3.0) * ((1 + 1j) ** 0.5).real
        assert f.real == pytest.approx(expected_x, rel=1e-13)

    def test_origin_image(self, lw15):
        f = _f_values(lw15, 0j)
        assert f.real == pytest.approx(-1.0 / 3.0, rel=1e-13)
        assert f.imag == pytest.approx(0.0, abs=1e-15)


class TestHeightIntegral:
    def test_boundary_zero(self, lw15):
        assert height_via_integral(lw15, 1j) == pytest.approx(0.0, abs=1e-12)

    def test_lw15(self, lw15):
        assert height_via_integral(lw15, 1.0 + 0j) == pytest.approx(2.0, abs=1e-10)

    def test_planar(self, planar22):
        assert height_via_integral(planar22, 3.0 + 5.0j) == pytest.approx(6.0, abs=1e-10)

    def test_grid_consistency(self, lw15):
        sigmas = np.linspace(0.05, 6.0, 20)
        taus = np.linspace(-6.0, 6.0, 20)
        for sigma in sigmas:
            for tau in taus:
                zeta = complex(sigma, tau)
                assert height_via_integral(lw15, zeta) == pytest.approx(
                    lw15.k0 * sigma, abs=1e-10
                )


class TestScaling:
    def test_identity(self, lw15):
        assert scale_solution(lw15, 1.0) is lw15

    def test_doubling(self, lw15):
        scaled = scale_solution(lw15, 2.0)
        assert scaled.k0 == 4.0 and scaled.k == 4.0
        assert _f_values(scaled, 1.0 + 0j).real == pytest.approx(
            2.0 * 0.9428090415820634, rel=1e-13)
        assert scaled.k0 * 1.0 == pytest.approx(4.0)
        assert scaled.gamma == lw15.gamma

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_componentwise(self, lw15, c):
        scaled = scale_solution(lw15, c)
        for zeta in (0.2 + 0j, 1.0 + 1.0j, 3.0 - 2.0j):
            base, big = _f_values(lw15, zeta), _f_values(scaled, zeta)
            assert big.real == pytest.approx(c * base.real, rel=1e-12, abs=1e-12)
            assert big.imag == pytest.approx(c * base.imag, rel=1e-12, abs=1e-12)
            assert scaled.k0 * zeta.real == pytest.approx(c * lw15.k0 * zeta.real,
                                                          rel=1e-12, abs=1e-12)

    def test_anchored_pair_scales(self, lw15):
        anchored = WeierstrassPair(h=lw15.h, k0=2.0, g_anchor=(0j, complex(-4.0 / 3.0)))
        scaled = scale_solution(anchored, 2.0)
        assert _f_values(scaled, 1.0 + 0j).real == pytest.approx(
            2.0 * 0.9428090415820634, rel=1e-9)

    def test_bad_factor(self, lw15):
        with pytest.raises(ParameterError):
            scale_solution(lw15, 0.0)


class TestJacobian:
    def test_lw15_at_one(self, lw15):
        assert jacobian_det(lw15, 1.0 + 0j) == pytest.approx(4.5 - 1.0 / 4.5, rel=1e-13)

    def test_planar_constant(self, planar22):
        for zeta in (0.1 + 0j, 2.0 + 3.0j):
            assert jacobian_det(planar22, zeta) == pytest.approx(3.75)


class TestInvariants:
    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    def test_dilatation_identity(self, gamma):
        pair = lw_family(gamma)
        zetas = (np.linspace(0.0, 8.0, 9)[:, None]
                 + 1j * np.linspace(-8.0, 8.0, 9)[None, :]).ravel()
        hp = pair.h.jet(zetas).d1
        gp = pair.g.jet(zetas).d1
        assert np.max(np.abs(np.abs(gp) * np.abs(hp) - pair.k)) <= 1e-12 * pair.k

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    def test_hprime_lower_bound(self, gamma):
        pair = lw_family(gamma)
        zetas = (np.linspace(0.0, 10.0, 15)[:, None]
                 + 1j * np.linspace(-10.0, 10.0, 15)[None, :]).ravel()
        margin = np.abs(pair.h.jet(zetas).d1) - np.sqrt(pair.k)
        assert margin.min() > 0.0  # strict for the open family range

    def test_planar_lower_bound(self, planar22):
        assert abs(planar22.h.jet(1j).d1) - np.sqrt(planar22.k) == pytest.approx(1.0)

    def test_anchored_at_origin_along_level(self, lw15):
        anchored = WeierstrassPair(h=lw15.h, k0=2.0, g_anchor=(0j, complex(-4.0 / 3.0)))
        zetas = 0.5 + 1j * np.linspace(-20.0, 20.0, 401)
        got = g_value(anchored, zetas)
        assert got.shape == zetas.shape
        assert np.max(np.abs(got - g_value(lw15, zetas))) <= 1e-12

    def test_anchored_far_along_boundary(self, lw15):
        anchored = WeierstrassPair(h=lw15.h, k0=2.0, g_anchor=(0j, complex(-4.0 / 3.0)))
        zetas = 1j * np.linspace(-1000.0, 1000.0, 81)
        assert np.max(np.abs(g_value(anchored, zetas) - g_value(lw15, zetas))) <= 1e-11

    def test_anchored_value_independent_of_batch(self, lw15):
        anchored = WeierstrassPair(h=lw15.h, k0=2.0, g_anchor=(0j, complex(-4.0 / 3.0)))
        alone = g_value(anchored, 1.0 + 1.0j)
        batched = g_value(anchored, np.array([1.0 + 1.0j, 0.01 + 900.0j]))
        assert batched[0] == alone

    def test_anchored_nonconvergent_raises(self):
        # g' ~ zeta**-0.5 near the anchor: the rule cannot settle by the cap
        pair = WeierstrassPair(h=PowerAffineMap(offset=1e-12, exponent=1.5), k0=2.0,
                               g_anchor=(0j, 0j))
        with pytest.raises(QuadratureError):
            g_value(pair, 0.5 + 1.0j)

    def test_anchored_matches_closed_form(self, lw15):
        anchored = WeierstrassPair(h=lw15.h, k0=2.0, g_anchor=(0j, complex(-4.0 / 3.0)))
        for zeta in (0.5 + 0j, 1.0 + 1.0j, 2.0 - 3.0j):
            assert g_value(anchored, zeta) == pytest.approx(
                g_value(lw15, zeta), rel=1e-9, abs=1e-9
            )
            got = _f_values(anchored, zeta)
            want = _f_values(lw15, zeta)
            assert got.real == pytest.approx(want.real, abs=1e-9)
            assert got.imag == pytest.approx(want.imag, abs=1e-9)
