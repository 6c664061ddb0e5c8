import numpy as np
import pytest

from madpde import grf, oracles
from madpde.grf import BURGERS_GRF, GrfSample, GrfSpec


def pointwise_std(spec: GrfSpec) -> float:
    """Stddev of the field value at any fixed point (stationarity: cos^2 +
    sin^2 = 1 makes it location-independent)."""
    var = grf.mode_variances(spec)
    return float(np.sqrt(var.sum()))


class TestModeVariances:
    def test_burgers_constant_mode(self):
        var = grf.mode_variances(BURGERS_GRF)
        assert var[0] == pytest.approx(1000.0 / 9.0 ** 3, rel=1e-12)

    def test_burgers_first_mode(self):
        var = grf.mode_variances(BURGERS_GRF)
        expected = 1000.0 * ((2 * np.pi) ** 2 + 9.0) ** -3
        assert var[1] == pytest.approx(expected, rel=1e-12)
        assert var[1] == pytest.approx(8.78e-3, rel=1e-2)

    def test_circle_eigenvalues(self):
        spec = GrfSpec(scale=2.0, shift=5.0, power=2, n_modes=4, domain="unit_circle")
        var = grf.mode_variances(spec)
        np.testing.assert_allclose(var, 2.0 * (np.arange(5) ** 2 + 5.0) ** -2.0)

    def test_empirical_spectrum(self):
        rng = np.random.default_rng(123)
        n = 2000
        cos = np.empty((n, BURGERS_GRF.n_modes + 1))
        sin = np.empty((n, BURGERS_GRF.n_modes))
        for i in range(n):
            s = grf.sample_grf(BURGERS_GRF, rng)
            cos[i] = s.cos_coeffs
            sin[i] = s.sin_coeffs
        var = grf.mode_variances(BURGERS_GRF)
        for k in range(9):
            assert abs(cos[:, k].var() - var[k]) / var[k] < 0.15
            if k >= 1:
                assert abs(sin[:, k - 1].var() - var[k]) / var[k] < 0.15


class TestEvaluate:
    def test_zero_coefficients(self):
        s = GrfSample(np.zeros(5), np.zeros(4), "unit_interval_periodic")
        np.testing.assert_array_equal(grf.evaluate_grf(s, np.linspace(0, 1, 11)), 0.0)

    def test_single_cos_mode(self):
        s = GrfSample(np.array([0.0, 1.0]), np.array([0.0]), "unit_interval_periodic")
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(grf.evaluate_grf(s, x), np.cos(2 * np.pi * x),
                                   atol=1e-15)
        assert grf.evaluate_grf(s, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_circle_series_is_the_disk_solution_at_radius_one(self):
        # a harmonic extension equals its boundary data on the boundary
        s = grf.sample_grf(grf.LAPLACE_GRF, np.random.default_rng(3))
        theta = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
        np.testing.assert_allclose(grf.evaluate_grf(s, theta),
                                   oracles.laplace_disk_solution(s, 1.0, theta),
                                   rtol=1e-12, atol=1e-15)

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        s = grf.sample_grf(BURGERS_GRF, rng)
        a = grf.evaluate_grf(s, np.array([0.0]))
        b = grf.evaluate_grf(s, np.array([1.0]))
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_sample_mean_bound(self):
        rng = np.random.default_rng(99)
        pts = np.array([0.0, 0.21, 0.5, 0.83])
        acc = np.zeros_like(pts)
        n = 2000
        for _ in range(n):
            acc += grf.evaluate_grf(grf.sample_grf(BURGERS_GRF, rng), pts)
        mean = acc / n
        bound = 3.0 * pointwise_std(BURGERS_GRF) / np.sqrt(n)
        assert np.all(np.abs(mean) <= bound)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        spec = GrfSpec(scale=1000.0, shift=9.0, power=3, n_modes=64)
        s = grf.sample_grf(spec, rng)
        x = np.arange(1024) / 1024.0
        ms = np.mean(grf.evaluate_grf(s, x) ** 2)
        analytic = (s.cos_coeffs[0] ** 2
                    + 0.5 * (np.sum(s.cos_coeffs[1:] ** 2) + np.sum(s.sin_coeffs ** 2)))
        assert ms == pytest.approx(analytic, rel=1e-2)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(3)
        s = grf.sample_grf(grf.LAPLACE_GRF, rng)
        s2 = GrfSample.from_json(s.to_json())
        np.testing.assert_array_equal(s.cos_coeffs, s2.cos_coeffs)
        np.testing.assert_array_equal(s.sin_coeffs, s2.sin_coeffs)
        assert s.domain == s2.domain
