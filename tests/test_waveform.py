import numpy as np
import pytest
from scipy.integrate import simpson

from ftnsim.waveform import FtnParams, build_isi_circulant, isi_taps, rc_autocorrelation
from oracles import build_isi_toeplitz, circulant_dense

# frozen quadrature oracle output (Simpson, step T0/512, support +-32 T0)
G1_TAU08_BETA05 = 0.20075170968351677


def rrc_impulse(t, beta):
    """Textbook RRC impulse response, independent of the closed form under test."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    for i, x in enumerate(t):
        if abs(x) < 1e-12:
            out[i] = 1 - beta + 4 * beta / np.pi
        elif beta > 0 and abs(abs(x) - 1 / (4 * beta)) < 1e-12:
            out[i] = beta / np.sqrt(2) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta)))
        else:
            num = (np.sin(np.pi * x * (1 - beta))
                   + 4 * beta * x * np.cos(np.pi * x * (1 + beta)))
            out[i] = num / (np.pi * x * (1 - (4 * beta * x) ** 2))
    return out


def quadrature_autocorrelation(t, beta, step=1 / 512, support=32):
    """Numerical self-convolution of the RRC pulse, normalized to 1 at lag 0."""
    xi = np.arange(-support, support + step, step)
    q = rrc_impulse(xi, beta)
    energy = simpson(q * q, x=xi)
    return simpson(q * rrc_impulse(xi - t, beta), x=xi) / energy


class TestAutocorrelation:
    def test_lag_zero(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=10, N=128)
        assert rc_autocorrelation(p, 0) == 1.0

    def test_nyquist_zero_isi(self):
        for beta in (0.0, 0.3, 0.5, 1.0):
            p = FtnParams(tau=1.0, beta=beta, nu=5, N=32)
            for n in range(1, 6):
                assert abs(rc_autocorrelation(p, n)) < 1e-12

    def test_quadrature_oracle_frozen(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=10, N=128)
        assert rc_autocorrelation(p, 1) == pytest.approx(G1_TAU08_BETA05, abs=1e-6)

    def test_quadrature_oracle_live(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=10, N=128)
        for n in range(1, 6):
            expected = quadrature_autocorrelation(n * 0.8, 0.5)
            assert rc_autocorrelation(p, n) == pytest.approx(expected, abs=1e-6)

    def test_removable_singularity(self):
        # 2*beta*tau*n = 1 at beta=0.5, tau=0.5, n=2
        p = FtnParams(tau=0.5, beta=0.5, nu=4, N=32)
        val = rc_autocorrelation(p, 2)
        assert np.isfinite(val)
        assert val == pytest.approx(quadrature_autocorrelation(1.0, 0.5), abs=1e-6)

    def test_symmetry(self):
        p = FtnParams(tau=0.7, beta=0.35, nu=6, N=64)
        for n in range(1, 7):
            assert rc_autocorrelation(p, n) == rc_autocorrelation(p, -n)

    def test_out_of_band_rejected(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=3, N=32)
        with pytest.raises(ValueError):
            rc_autocorrelation(p, 4)


class TestToeplitz:
    def test_nyquist_identity(self):
        g = build_isi_toeplitz(FtnParams(tau=1.0, beta=0.5, nu=4, N=16))
        np.testing.assert_allclose(g, np.eye(16), atol=1e-12)

    def test_band_structure(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=2, N=6)
        g = build_isi_toeplitz(p)
        assert g[0, 2] == g[2, 0] == rc_autocorrelation(p, 2)
        assert g[0, 3] == 0.0

    def test_summation_oracle(self, rng):
        # y_n = sum_k s_k g((n-k)T) evaluated directly from the sampled model
        p = FtnParams(tau=0.8, beta=0.5, nu=5, N=24)
        g = build_isi_toeplitz(p)
        s = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        taps = isi_taps(p)

        def g_at(m):
            return taps[abs(m)] if abs(m) <= p.nu else 0.0

        y_direct = np.array([sum(s[k] * g_at(n - k) for k in range(24))
                             for n in range(24)])
        assert np.abs(g @ s - y_direct).max() < 1e-10


class TestCirculant:
    def test_nyquist(self):
        col, lam = build_isi_circulant(FtnParams(tau=1.0, beta=0.5, nu=4, N=16))
        np.testing.assert_allclose(col, np.eye(16)[0], atol=1e-12)
        np.testing.assert_allclose(lam, np.ones(16), atol=1e-12)

    def test_interior_rows_match_toeplitz(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=4, N=32)
        col, _ = build_isi_circulant(p)
        circ = circulant_dense(col)
        toep = build_isi_toeplitz(p)
        np.testing.assert_allclose(circ[p.nu:p.N - p.nu], toep[p.nu:p.N - p.nu],
                                   atol=1e-15)

    def test_dense_reconstruction(self):
        p = FtnParams(tau=0.8, beta=0.5, nu=4, N=32)
        col, lam = build_isi_circulant(p)
        f = np.fft.fft(np.eye(32)) / np.sqrt(32)
        rec = f.conj().T @ np.diag(lam) @ f
        assert np.abs(rec - circulant_dense(col)).max() < 1e-10


class TestKernelProperties:
    def test_eigenvalue_realness(self, default_kernel):
        assert np.abs(default_kernel.lambda_g.imag).max() < 1e-10

    def test_monotone_isi_severity(self):
        sev = []
        for tau in (0.7, 0.8, 0.9, 1.0):
            taps = isi_taps(FtnParams(tau=tau, beta=0.5, nu=10, N=128))
            sev.append(2 * np.sum(taps[1:] ** 2))
        assert all(a >= b - 1e-12 for a, b in zip(sev, sev[1:]))

    def test_phi_diag_nonnegative(self, default_kernel):
        assert default_kernel.phi_diag().min() >= 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FtnParams(tau=0.0, beta=0.5, nu=4, N=32)
        with pytest.raises(ValueError):
            FtnParams(tau=0.8, beta=1.5, nu=4, N=32)
        with pytest.raises(ValueError):
            FtnParams(tau=0.8, beta=0.5, nu=16, N=32)
