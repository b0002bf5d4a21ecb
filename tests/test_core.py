import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnsim.core import circulant_eigenvalues, complex_gaussian, dft, idft, make_rng
from ftnsim.waveform import FtnParams
from oracles import NotPSDError, build_isi_toeplitz, circulant_dense, psd_factor


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDft:
    def test_first_column(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), 0.5 * np.ones(4), atol=1e-15)

    def test_round_trip(self, rng):
        for n in [1, 2, 7, 64, 4096]:
            x = random_complex(rng, n)
            assert np.abs(idft(dft(x)) - x).max() < 1e-12

    def test_parseval(self, rng):
        x = random_complex(rng, 129)
        assert np.linalg.norm(dft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft(np.array([]))


class TestCirculantEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(circulant_eigenvalues([1, 0, 0, 0]),
                                   np.ones(4), atol=1e-15)

    def test_cyclic_shift(self):
        n = 8
        lam = circulant_eigenvalues(np.eye(n)[1])
        expected = np.exp(-2j * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(lam, expected, atol=1e-14)

    def test_dense_oracle_n8(self, rng):
        c = random_complex(rng, 8)
        lam = circulant_eigenvalues(c)
        f = np.fft.fft(np.eye(8)) / np.sqrt(8)
        reconstructed = f.conj().T @ np.diag(lam) @ f
        assert np.abs(reconstructed - circulant_dense(c)).max() < 1e-10

    def test_dense_oracle_many_sizes(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 65))
            c = random_complex(rng, n)
            lam = circulant_eigenvalues(c)
            f = np.fft.fft(np.eye(n)) / np.sqrt(n)
            rec = f.conj().T @ np.diag(lam) @ f
            assert np.abs(rec - circulant_dense(c)).max() < 1e-10


class TestPsdFactor:
    def test_identity(self):
        b, clipped = psd_factor(np.eye(4))
        np.testing.assert_allclose(b @ b.conj().T, np.eye(4), atol=1e-12)
        assert clipped == 0

    def test_isi_matrix(self):
        g = build_isi_toeplitz(FtnParams(tau=0.8, beta=0.5, nu=10, N=32))
        b, _ = psd_factor(g.astype(complex))
        assert np.abs(b @ b.conj().T - g).max() < 1e-8

    def test_indefinite_rejected(self):
        m = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPSDError):
            psd_factor(m)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError):
            psd_factor(rng.standard_normal((3, 3)) + np.eye(3) * 5)

    def test_reconstruction_without_clipping(self, rng):
        a = random_complex(rng, 6 * 6).reshape(6, 6)
        m = a @ a.conj().T + np.eye(6)
        b, clipped = psd_factor(m)
        assert clipped == 0
        rel = np.linalg.norm(b @ b.conj().T - m) / np.linalg.norm(m)
        assert rel < 1e-8


class TestComplexGaussian:
    def test_zero_variance(self):
        np.testing.assert_array_equal(complex_gaussian(5, 0.0, make_rng(1)),
                                      np.zeros(5))

    def test_sample_variance(self):
        z = complex_gaussian(100_000, 2.0, make_rng(99))
        assert 1.96 < np.mean(np.abs(z) ** 2) < 2.04

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            complex_gaussian(4, -1.0, make_rng(1))

    def test_deterministic_repeat(self):
        a = complex_gaussian(32, 1.0, make_rng(7, 3))
        b = complex_gaussian(32, 1.0, make_rng(7, 3))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = complex_gaussian(32, 1.0, make_rng(7, 0))
        b = complex_gaussian(32, 1.0, make_rng(7, 1))
        assert not np.allclose(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=256), st.integers(min_value=0))
def test_dft_round_trip_property(n, seed):
    x = np.random.default_rng(seed % 2**32).standard_normal(n) * 1j
    assert np.abs(idft(dft(x)) - x).max() < 1e-12
