import numpy as np
import pytest

from ftnsim.channel import ColoredNoiseGen, colored_noise, sample_channel, transmit_fast
from ftnsim.core import complex_gaussian, make_rng
from ftnsim.waveform import FtnParams, build_isi_circulant, make_isi_kernel
from oracles import circulant_dense, transmit_exact


class TestSampleChannel:
    def test_single_tap_unit_modulus(self):
        chan = sample_channel(1, 16, make_rng(0))
        assert abs(np.abs(chan.h[0]) - 1.0) < 1e-12

    def test_exact_normalization(self):
        for seed in range(20):
            chan = sample_channel(8, 128, make_rng(seed))
            assert abs(np.sum(np.abs(chan.h) ** 2) - 1.0) < 1e-12

    def test_per_tap_mean_power(self):
        rng = make_rng(42)
        powers = np.zeros(8)
        n = 100_000
        for _ in range(n // 1000):
            h = complex_gaussian(8, 1 / 8, rng, shape=(1000, 8))
            h /= np.linalg.norm(h, axis=1, keepdims=True)
            powers += np.sum(np.abs(h) ** 2, axis=0)
        powers /= n
        assert np.all(powers > 0.1225) and np.all(powers < 0.1275)

    def test_lambda_h_matches_dense(self):
        chan = sample_channel(4, 32, make_rng(3))
        col = np.zeros(32, complex)
        col[:4] = chan.h
        dense_eigs = np.fft.fft(col)
        np.testing.assert_allclose(chan.lambda_h, dense_eigs, atol=1e-12)

    def test_l_exceeding_nu_rejected(self):
        with pytest.raises(ValueError):
            sample_channel(8, 32, make_rng(0), nu=4)


class TestColoredNoise:
    def test_zero_variance(self, small_kernel):
        gen = ColoredNoiseGen.from_kernel(small_kernel, 0.0)
        np.testing.assert_array_equal(colored_noise(gen, make_rng(1)), 0.0)

    def test_sample_covariance(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=4, N=16))
        sigma_v2 = 0.7
        gen = ColoredNoiseGen.from_kernel(kernel, sigma_v2)
        eta = colored_noise(gen, make_rng(5), trials=100_000)
        cov = eta.conj().T @ eta / len(eta)
        g_dense = circulant_dense(build_isi_circulant(kernel.params)[0])
        assert np.abs(cov - sigma_v2 * g_dense).max() < 0.05 * sigma_v2

    def test_nyquist_is_white(self):
        kernel = make_isi_kernel(FtnParams(tau=1.0, beta=0.5, nu=4, N=16))
        gen = ColoredNoiseGen.from_kernel(kernel, 1.0)
        eta = colored_noise(gen, make_rng(6), trials=50_000)
        cov = eta.conj().T @ eta / len(eta)
        assert np.abs(cov - np.eye(16)).max() < 0.05

    def test_fd_covariance_diagonal_is_phi(self):
        # E[eta~ eta~^H] = sigma_v2 diag(lambda_g) for the circulant model
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=4, N=16))
        gen = ColoredNoiseGen.from_kernel(kernel, 1.0)
        eta = colored_noise(gen, make_rng(7), trials=100_000)
        eta_fd = np.fft.fft(eta, axis=1) / 4.0
        var = np.mean(np.abs(eta_fd) ** 2, axis=0)
        np.testing.assert_allclose(var, kernel.phi_diag(), atol=0.06)

    def test_negative_variance_rejected(self, small_kernel):
        with pytest.raises(ValueError):
            ColoredNoiseGen.from_kernel(small_kernel, -1.0)


class TestTransmit:
    def test_identity_chain(self):
        kernel = make_isi_kernel(FtnParams(tau=1.0, beta=0.5, nu=4, N=16))
        chan = sample_channel(1, 16, make_rng(0))
        chan = type(chan)(h=np.array([1.0 + 0j]), lambda_h=np.ones(16))
        x = complex_gaussian(16, 1.0, make_rng(1))
        np.testing.assert_allclose(transmit_exact(x, chan, kernel), x, atol=1e-12)

    def test_exact_equals_fast_in_safe_guard_regime(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=10, N=64))
        for L in (1, 4, 8):
            chan = sample_channel(L, 64, make_rng(L))
            x = complex_gaussian(64, 1.0, make_rng(100 + L))
            ye = transmit_exact(x, chan, kernel, guard=kernel.params.nu + L - 1)
            yf = transmit_fast(x, chan, kernel)
            assert np.abs(ye - yf).max() < 1e-10

    def test_exact_equals_fast_single_tap_default_guard(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=10, N=64))
        chan = sample_channel(1, 64, make_rng(2))
        x = complex_gaussian(64, 1.0, make_rng(3))
        assert np.abs(transmit_exact(x, chan, kernel)
                      - transmit_fast(x, chan, kernel)).max() < 1e-10

    def test_default_guard_mismatch_is_confined_to_block_edges(self):
        # with guard = nu and L > 1 the circulant claim breaks only on the
        # first ~L-1 samples, by the truncation tail of g
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=10, N=64))
        chan = sample_channel(8, 64, make_rng(4))
        x = complex_gaussian(64, 1.0, make_rng(5))
        diff = np.abs(transmit_exact(x, chan, kernel) - transmit_fast(x, chan, kernel))
        assert diff[8:-8].max() < 1e-10
        assert diff.max() < 0.05

    def test_fast_matches_dense_circulant(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=4, N=32))
        chan = sample_channel(4, 32, make_rng(8))
        g = circulant_dense(build_isi_circulant(kernel.params)[0])
        hcol = np.zeros(32, complex)
        hcol[:4] = chan.h
        theta = g @ circulant_dense(hcol)
        x = complex_gaussian(32, 1.0, make_rng(9))
        assert np.abs(transmit_fast(x, chan, kernel) - theta @ x).max() < 1e-10

    def test_delta_channel_reduces_to_isi_only(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=4, N=32))
        chan = sample_channel(4, 32, make_rng(10))
        chan = type(chan)(h=np.array([1.0, 0, 0, 0], complex),
                          lambda_h=np.ones(32, complex))
        x = complex_gaussian(32, 1.0, make_rng(11))
        g = circulant_dense(build_isi_circulant(kernel.params)[0])
        assert np.abs(transmit_fast(x, chan, kernel) - g @ x).max() < 1e-10

    def test_gh_commutation(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=4, N=32))
        chan = sample_channel(4, 32, make_rng(12))
        x = complex_gaussian(32, 1.0, make_rng(13))
        gh = np.fft.ifft(kernel.lambda_g * chan.lambda_h * np.fft.fft(x))
        hg = np.fft.ifft(chan.lambda_h * kernel.lambda_g * np.fft.fft(x))
        assert np.abs(gh - hg).max() < 1e-10

    def test_noise_only_covariance(self):
        kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=4, N=16))
        chan = sample_channel(4, 16, make_rng(14))
        gen = ColoredNoiseGen.from_kernel(kernel, 1.0)
        rng = make_rng(15)
        eta = colored_noise(gen, rng, trials=50_000)
        y = transmit_fast(np.zeros((50_000, 16), complex), chan, kernel, noise=eta)
        cov = y.conj().T @ y / len(y)
        g_dense = circulant_dense(build_isi_circulant(kernel.params)[0])
        assert np.abs(cov - g_dense).max() < 0.06
