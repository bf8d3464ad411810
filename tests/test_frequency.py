import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from sgmor import FrequencyRule


class TestConstruction:
    def test_gauss_properties(self):
        rule = FrequencyRule.gauss(64)
        omegas, weights = rule.half()
        assert rule.n_nodes == 64
        assert omegas.size == weights.size == 32
        assert np.all(omegas > 0)
        assert np.all(np.diff(omegas) > 0)
        assert np.all(weights > 0)

    def test_omega_scale(self):
        om1, w1 = FrequencyRule.gauss(16, omega_scale=1.0).half()
        om2, w2 = FrequencyRule.gauss(16, omega_scale=100.0).half()
        assert_allclose(om2, 100.0 * om1, rtol=1e-13)
        assert_allclose(w2, 100.0 * w1, rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyRule.gauss(1)
        with pytest.raises(ValueError):
            FrequencyRule.gauss(8, omega_scale=-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            FrequencyRule(omegas=np.array([-0.1, 0.2]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            FrequencyRule(omegas=np.array([0.1, 0.2]), weights=np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            FrequencyRule(omegas=np.array([0.1, 0.2]), weights=np.array([0.5]))
        with pytest.raises(ValueError, match="nonempty"):
            FrequencyRule(omegas=np.array([]), weights=np.array([]))


class TestIntegration:
    def test_lorentzian_integral(self):
        # (1/2pi) int 1 / (1 + omega^2) d omega = 1/2
        om, w = FrequencyRule.gauss(40).half()
        val = (w / (1.0 + om ** 2)).sum() / (2 * np.pi)
        assert_allclose(val, 0.5, rtol=1e-12)

    def test_scaled_lorentzian(self):
        # width-a Lorentzian integrates best when omega_scale matches a
        a = 1.0e4
        om, w = FrequencyRule.gauss(40, omega_scale=a).half()
        val = (w / (a ** 2 + om ** 2)).sum() / (2 * np.pi)
        assert_allclose(val, 0.5 / a, rtol=1e-12)

    def test_gauss_matches_folded_full_line_rule(self):
        # the full-line Gauss rule in theta, omega = s tan(theta), folded by
        # hand: every downstream number depends on these exact floats
        for n in (24, 25):
            for s in (1.0, 3.0):
                x, gw = leggauss(n)
                theta, theta_w = np.pi / 2 * x, np.pi / 2 * gw
                keep = theta > 1e-14
                tan_t = np.tan(theta[keep])
                om = s * tan_t
                w = (2.0 * theta_w[keep]) * (s * (1.0 + tan_t ** 2))
                if n % 2:
                    om = np.concatenate(([0.0], om))
                    w = np.concatenate(([theta_w[n // 2] * s], w))
                got_om, got_w = FrequencyRule.gauss(n, omega_scale=s).half()
                assert np.array_equal(got_om, om)
                assert np.array_equal(got_w, w)

    def test_half_node_count(self):
        # an odd rule keeps its node at zero once; n_nodes counts the whole line
        even, odd = FrequencyRule.gauss(24), FrequencyRule.gauss(25)
        assert even.half()[0].size == 12 and even.n_nodes == 24
        assert odd.half()[0].size == 13 and odd.n_nodes == 25
        assert odd.half()[0][0] == 0.0
        assert FrequencyRule.gauss(3).n_nodes == 3
