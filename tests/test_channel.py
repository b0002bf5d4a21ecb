import math

import numpy as np
import pytest

from ftnsim.channel import colored_noise, phi_diag, sample_channel, transmit_fast
from ftnsim.core import complex_gaussian, dft, idft, make_rng
from ftnsim.waveform import build_isi_circulant
from oracles import circulant_dense, colored_noise_td, receive_td, transmit_exact


# waveform of the transmit-closure tests
WAVE64 = dict(tau=0.8, beta=0.5, nu=10, N=64)


def transmit_td(x, lambda_h, lambda_g, noise=None):
    """Time-domain block idft(y~) of the spectrum transmit_fast forms from x."""
    return idft(transmit_fast(dft(x), lambda_h, lambda_g, noise=noise))


class TestSampleChannel:
    def test_single_tap_unit_modulus(self):
        h, _ = sample_channel(1, 16, make_rng(0))
        assert abs(np.abs(h[0]) - 1.0) < 1e-12

    def test_exact_normalization(self):
        for seed in range(20):
            h, _ = sample_channel(8, 128, make_rng(seed))
            assert abs(np.sum(np.abs(h) ** 2) - 1.0) < 1e-12

    def test_taps_match_linalg_norm_form(self):
        for seed in range(20):
            taps, _ = sample_channel(8, 128, make_rng(seed))
            h = complex_gaussian(8, 1 / 8, make_rng(seed))
            np.testing.assert_array_equal(taps, h / np.linalg.norm(h))

    def test_per_tap_mean_power(self):
        rng = make_rng(42)
        powers = np.zeros(8)
        n = 100_000
        for _ in range(n // 1000):
            h = complex_gaussian((1000, 8), 1 / 8, rng)
            h /= np.linalg.norm(h, axis=1, keepdims=True)
            powers += np.sum(np.abs(h) ** 2, axis=0)
        powers /= n
        assert np.all(powers > 0.1225) and np.all(powers < 0.1275)

    def test_lambda_h_matches_dense(self):
        h, lambda_h = sample_channel(4, 32, make_rng(3))
        col = np.zeros(32, complex)
        col[:4] = h
        dense_eigs = np.fft.fft(col)
        np.testing.assert_allclose(lambda_h, dense_eigs, atol=1e-12)


class TestColoredNoise:
    def test_zero_variance(self, small_lambda_g):
        np.testing.assert_array_equal(
            colored_noise(np.sqrt(phi_diag(small_lambda_g)), 0.0, make_rng(1)), 0.0)

    def test_sample_covariance(self):
        col, lambda_g = build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=16)
        sigma_v2 = 0.7
        eta = idft(colored_noise(np.sqrt(phi_diag(lambda_g)), sigma_v2, make_rng(5),
                                 trials=100_000))
        cov = eta.conj().T @ eta / len(eta)
        g_dense = circulant_dense(col)
        assert np.abs(cov - sigma_v2 * g_dense).max() < 0.05 * sigma_v2

    def test_nyquist_is_white(self):
        _, lambda_g = build_isi_circulant(tau=1.0, beta=0.5, nu=4, N=16)
        eta = idft(colored_noise(np.sqrt(phi_diag(lambda_g)), 1.0, make_rng(6), trials=50_000))
        cov = eta.conj().T @ eta / len(eta)
        assert np.abs(cov - np.eye(16)).max() < 0.05

    def test_fd_covariance_diagonal_is_phi(self):
        # E[eta~ eta~^H] = sigma_v2 diag(lambda_g) for the circulant model
        _, lambda_g = build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=16)
        eta_fd = colored_noise(np.sqrt(phi_diag(lambda_g)), 1.0, make_rng(7), trials=100_000)
        var = np.mean(np.abs(eta_fd) ** 2, axis=0)
        np.testing.assert_allclose(var, phi_diag(lambda_g), atol=0.06)

    def test_negative_variance_rejected(self, small_lambda_g):
        with pytest.raises(ValueError):
            colored_noise(np.sqrt(phi_diag(small_lambda_g)), -1.0, make_rng(0))

    @pytest.mark.parametrize("sigma_v2", [math.nan, math.inf, -1.0])
    def test_nan_infinite_or_negative_variance_rejected(self, small_lambda_g, sigma_v2):
        # NaN noise would reach the slicer, which maps it to +a without an error;
        # an all-zero noise factor times inf would be NaN too
        for factor in (np.sqrt(phi_diag(small_lambda_g)), np.zeros(len(small_lambda_g))):
            with pytest.raises(ValueError, match="0 <= sigma_v2 < inf"):
                colored_noise(factor, sigma_v2, make_rng(0))

    def test_spectrum_of_time_domain_noise(self, default_lambda_g):
        b = np.sqrt(phi_diag(default_lambda_g))
        for trials in (None, 5):
            eta_fd = colored_noise(b, 0.3, make_rng(21), trials=trials)
            ref = dft(colored_noise_td(b, 0.3, make_rng(21), trials=trials))
            assert np.abs(eta_fd - ref).max() / np.abs(ref).max() < 1e-13


class TestTransmit:
    def test_identity_chain(self):
        x = complex_gaussian(16, 1.0, make_rng(1))
        y = transmit_exact(x, np.array([1.0 + 0j]), tau=1.0, beta=0.5, nu=4, N=16)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_exact_equals_fast_in_safe_guard_regime(self):
        _, lambda_g = build_isi_circulant(**WAVE64)
        for L in (1, 4, 8):
            h, lambda_h = sample_channel(L, 64, make_rng(L))
            x = complex_gaussian(64, 1.0, make_rng(100 + L))
            ye = transmit_exact(x, h, **WAVE64, guard=WAVE64["nu"] + L - 1)
            yf = transmit_td(x, lambda_h, lambda_g)
            assert np.abs(ye - yf).max() < 1e-10

    def test_exact_equals_fast_single_tap_default_guard(self):
        _, lambda_g = build_isi_circulant(**WAVE64)
        h, lambda_h = sample_channel(1, 64, make_rng(2))
        x = complex_gaussian(64, 1.0, make_rng(3))
        assert np.abs(transmit_exact(x, h, **WAVE64)
                      - transmit_td(x, lambda_h, lambda_g)).max() < 1e-10

    def test_default_guard_mismatch_is_confined_to_block_edges(self):
        # with guard = nu and L > 1 the circulant claim breaks only on the
        # first ~L-1 samples, by the truncation tail of g
        _, lambda_g = build_isi_circulant(**WAVE64)
        h, lambda_h = sample_channel(8, 64, make_rng(4))
        x = complex_gaussian(64, 1.0, make_rng(5))
        diff = np.abs(transmit_exact(x, h, **WAVE64) - transmit_td(x, lambda_h, lambda_g))
        assert diff[8:-8].max() < 1e-10
        assert diff.max() < 0.05

    def test_fast_matches_dense_circulant(self):
        col, lambda_g = build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=32)
        h, lambda_h = sample_channel(4, 32, make_rng(8))
        g = circulant_dense(col)
        hcol = np.zeros(32, complex)
        hcol[:4] = h
        theta = g @ circulant_dense(hcol)
        x = complex_gaussian(32, 1.0, make_rng(9))
        assert np.abs(transmit_td(x, lambda_h, lambda_g) - theta @ x).max() < 1e-10

    def test_delta_channel_reduces_to_isi_only(self):
        col, lambda_g = build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=32)
        x = complex_gaussian(32, 1.0, make_rng(11))
        g = circulant_dense(col)
        y = transmit_td(x, np.ones(32, complex), lambda_g)
        assert np.abs(y - g @ x).max() < 1e-10

    def test_matches_time_domain_receive_oracle(self, default_lambda_g):
        # same channel, data and noise draw w through both chains
        b = np.sqrt(phi_diag(default_lambda_g))
        for trials in (None, 4):
            shape = (128,) if trials is None else (trials, 128)
            _, lambda_h = sample_channel(8, 128, make_rng(30))
            x = complex_gaussian(shape, 1.0, make_rng(31))
            y_fd = transmit_fast(dft(x), lambda_h, default_lambda_g,
                                 noise=colored_noise(b, 0.2, make_rng(32), trials=trials))
            ref = receive_td(x, lambda_h, default_lambda_g,
                             colored_noise_td(b, 0.2, make_rng(32), trials=trials))
            assert np.abs(y_fd - ref).max() / np.abs(ref).max() < 1e-13

    def test_noise_wider_than_block_broadcasts(self, default_lambda_g):
        # one block received under a stack of noise draws
        _, lambda_h = sample_channel(8, 128, make_rng(33))
        x_fd = dft(complex_gaussian(128, 1.0, make_rng(34)))
        noise = colored_noise(np.sqrt(phi_diag(default_lambda_g)), 0.2, make_rng(35), trials=3)
        y = transmit_fast(x_fd, lambda_h, default_lambda_g, noise=noise)
        assert y.shape == (3, 128)
        np.testing.assert_array_equal(
            y, transmit_fast(x_fd, lambda_h, default_lambda_g) + noise)

    def test_noise_of_other_length_rejected(self, default_lambda_g):
        x_fd = dft(complex_gaussian(128, 1.0, make_rng(36)))
        with pytest.raises(ValueError, match="broadcast"):
            transmit_fast(x_fd, np.ones(128, complex), default_lambda_g,
                          noise=np.zeros(64, complex))

    def test_gh_commutation(self):
        _, lambda_g = build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=32)
        _, lambda_h = sample_channel(4, 32, make_rng(12))
        x = complex_gaussian(32, 1.0, make_rng(13))
        gh = np.fft.ifft(lambda_g * lambda_h * np.fft.fft(x))
        hg = np.fft.ifft(lambda_h * lambda_g * np.fft.fft(x))
        assert np.abs(gh - hg).max() < 1e-10

    def test_noise_only_covariance(self):
        col, lambda_g = build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=16)
        _, lambda_h = sample_channel(4, 16, make_rng(14))
        rng = make_rng(15)
        eta = colored_noise(np.sqrt(phi_diag(lambda_g)), 1.0, rng, trials=50_000)
        y = transmit_td(np.zeros((50_000, 16), complex), lambda_h, lambda_g, noise=eta)
        cov = y.conj().T @ y / len(y)
        g_dense = circulant_dense(col)
        assert np.abs(cov - g_dense).max() < 0.06
