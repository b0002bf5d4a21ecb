import math
from fractions import Fraction

import numpy as np
import pytest

from ftnsim import chanest
from ftnsim.chanest import (IllConditionedCombError, build_comb_tables, ce_mmse,
                            ce_weights, estimate_channel, extract_comb, fd_to_td,
                            mmse_weights, theoretical_mse_ls, theoretical_mse_mmse)
from ftnsim.channel import colored_noise, sample_channel, tap_power, transmit_fast
from ftnsim.config import FtnConfig
from ftnsim.core import dft, make_rng
from ftnsim.harness import build_cell, build_scenario, ebn0_to_sigma_v2, simulate_ce_mse
from ftnsim.pilot import chu_pilot, compose_tx
from ftnsim.waveform import build_isi_circulant


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(FtnConfig())


def received_fd(scenario, lambda_h, rng, sigma_v2=0.0):
    a = np.sqrt(0.5)
    s = a * (rng.choice([-1, 1], 128) + 1j * rng.choice([-1, 1], 128))
    x = compose_tx(s, scenario.x_p, scenario.cfg.Q, scenario.cfg.sia)
    noise = None
    if sigma_v2 > 0:
        noise = colored_noise(scenario.noise_factor, sigma_v2, rng)
    return transmit_fast(dft(x), lambda_h, scenario.lambda_g, noise=noise)


def ls_weights(tables, L=8):
    return ce_weights(tables, 0.1, L, "ls")


class TestExtractComb:
    def test_identity_comb(self):
        v = np.arange(8) + 0j
        np.testing.assert_array_equal(extract_comb(v, 1), v)

    def test_delta(self):
        v = np.zeros(32)
        v[4] = 1.0
        out = extract_comb(v, 4)
        np.testing.assert_array_equal(out, np.eye(8)[1])

    def test_index_arithmetic_oracle(self, rng):
        v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        out = extract_comb(v, 16)
        expected = np.array([v[i * 16] for i in range(8)])
        np.testing.assert_array_equal(out, expected)

    def test_dimension_mismatch(self):
        for n, Q in [(100, 16), (128, 0)]:
            with pytest.raises(ValueError):
                extract_comb(np.zeros(n), Q)


class TestLs:
    def test_noise_free_exact(self, scenario):
        _, lambda_h = sample_channel(8, 128, make_rng(1))
        y_fd = received_fd(scenario, lambda_h, make_rng(2))
        d_hat = ce_mmse(extract_comb(y_fd, 16), ls_weights(scenario.tables))
        np.testing.assert_allclose(d_hat, lambda_h[::16], atol=1e-10)

    def test_flat_channel(self, scenario):
        y_fd = received_fd(scenario, np.ones(128, complex), make_rng(4))
        d_hat = ce_mmse(extract_comb(y_fd, 16), ls_weights(scenario.tables))
        np.testing.assert_allclose(d_hat, np.ones(8), atol=1e-10)

    def test_full_chain_recovery(self, scenario):
        h, lambda_h = sample_channel(8, 128, make_rng(5))
        y_fd = received_fd(scenario, lambda_h, make_rng(6))
        h_hat, _ = estimate_channel(y_fd, scenario.tables, 8, ls_weights(scenario.tables))
        assert np.linalg.norm(h_hat - h) < 1e-9

    def test_null_comb_rejected(self):
        tables = chanest.CombTables(Q=4, gamma=np.array([1, 1, 1e-9, 1.0]),
                                    phi_prime=np.ones(4))
        with pytest.raises(IllConditionedCombError):
            ls_weights(tables, L=4)
        # MMSE weighs the same comb, and is not rejected
        assert np.isfinite(ce_weights(tables, 0.1, 4, "mmse")).all()

    def test_unknown_criterion_rejected(self, scenario):
        for crit in ("perfect", "lss"):
            with pytest.raises(ValueError, match="unknown CE criterion"):
                ce_weights(scenario.tables, 0.1, 8, crit)

    def test_ls_cell_on_null_comb_raises_at_set_up(self):
        # tau=0.5, beta=1.0 puts a comb bin on the FTN spectral null: an LS
        # cell raises when it is built, an MMSE cell weighs the bin 0
        scenario = build_scenario(FtnConfig(tau=0.5, beta=1.0, ce_criterion="ls"))
        with pytest.raises(IllConditionedCombError):
            build_cell(scenario, 0.1)
        cell = build_cell(build_scenario(FtnConfig(tau=0.5, beta=1.0)), 0.1)
        assert cell.ce_w[4] == 0.0 and np.isfinite(cell.ce_w).all()

    def test_monte_carlo_ls_rejects_null_comb(self):
        # tau=0.5, beta=1.0 puts a comb bin on the FTN spectral null
        cfg = FtnConfig(tau=0.5, beta=1.0)
        with pytest.raises(IllConditionedCombError):
            simulate_ce_mse(cfg, 0.5, 0.1, 100, criteria=("ls",))

    def test_bad_bins_counts_the_null_comb_bin(self, scenario):
        assert scenario.tables.bad_bins == 0
        assert build_scenario(FtnConfig(tau=0.5, beta=1.0)).tables.bad_bins == 1


class TestMmse:
    @pytest.mark.parametrize("sigma_v2", [math.nan, math.inf, -1.0])
    def test_nan_infinite_or_negative_noise_rejected(self, scenario, sigma_v2):
        # NaN or inf would turn the weights NaN on every bin, or where phi' = 0
        with pytest.raises(ValueError, match="0 <= sigma_v2 < inf"):
            mmse_weights(scenario.tables, sigma_v2, 1 / 8)

    def test_default_prior_is_per_tap_power(self, scenario):
        # a sweep cell's MMSE weights use the prior 1/L, as theoretical_mse_mmse
        # does; an LS cell carries the zero-noise weights, and perfect CSI none
        sv2 = ebn0_to_sigma_v2(scenario.cfg, 8.0)
        cell = build_cell(scenario, sv2)
        np.testing.assert_array_equal(cell.ce_w, mmse_weights(scenario.tables, sv2, 1 / 8))
        ls_cell = build_cell(build_scenario(FtnConfig(ce_criterion="ls")), sv2)
        np.testing.assert_array_equal(ls_cell.ce_w, mmse_weights(scenario.tables, 0.0, 1 / 8))
        assert build_cell(build_scenario(FtnConfig(ce_criterion="perfect")), sv2).ce_w is None
        _, lambda_h = sample_channel(8, 128, make_rng(7))
        y_fd = received_fd(scenario, lambda_h, make_rng(8), sigma_v2=sv2)
        y_prime = extract_comb(y_fd, 16)
        for w in (cell.ce_w, ls_cell.ce_w):
            h_hat, _ = estimate_channel(y_fd, scenario.tables, 8, w)
            np.testing.assert_array_equal(h_hat, fd_to_td(w * y_prime, 8))

    def test_zero_noise_coincides_with_ls(self):
        # LS's Gamma^{-1} is the Wiener weight conj(gamma) / (|gamma|^2 + 0 phi')
        for tau in np.linspace(0.5, 1.0, 11):
            for beta in (0.2, 0.5):
                tables = build_scenario(FtnConfig(tau=tau, beta=beta)).tables
                inv = 1.0 / tables.gamma
                rel = np.abs(ls_weights(tables) - inv) / np.abs(inv)
                assert rel.max() <= 1e-15, (tau, beta, rel.max())

    def test_infinite_noise_shrinks_to_zero(self, scenario):
        y_prime = np.ones(8, complex)
        mm = ce_mmse(y_prime, mmse_weights(scenario.tables, 1e12, 1 / 8))
        assert np.abs(mm).max() < 1e-6

    def test_mmse_beats_ls(self):
        cfg = FtnConfig()
        sv2 = ebn0_to_sigma_v2(cfg, 6.0)
        res = simulate_ce_mse(cfg, 0.8, sv2, 10_000, seed=100)
        assert res["mmse"][0] <= res["ls"][0]

    def test_null_comb_bin_is_finite_and_matches_theory(self):
        # tau=0.5, beta=1.0 puts comb bin 4 on the FTN spectral null, where
        # gamma = phi' = 0: its weight is 0 and its tap error the prior's
        cfg = FtnConfig(tau=0.5, beta=1.0)
        tables = build_scenario(cfg).tables
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        assert mmse_weights(tables, sv2, 1 / 8)[4] == 0.0
        theory = theoretical_mse_mmse(tables, 8, sv2)
        mean, se = simulate_ce_mse(cfg, 0.5, sv2, 2000, criteria=("mmse",))["mmse"]
        assert np.isfinite(theory) and np.isfinite(mean) and se > 0
        assert abs(mean - theory) < 4 * se


class TestFdToTd:
    def test_flat_spectrum_is_delta(self):
        h = fd_to_td(np.ones(8, complex), 8)
        np.testing.assert_allclose(h, np.eye(8)[0], atol=1e-12)

    def test_round_trip(self, rng):
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = np.fft.fft(np.eye(8)) / np.sqrt(8)
        d = np.sqrt(8) * f[:, :5] @ h
        np.testing.assert_allclose(fd_to_td(d, 5), h, atol=1e-12)

    def test_full_idft_dense_oracle(self, rng):
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = np.fft.fft(np.eye(8)) / np.sqrt(8)
        expected = f.conj().T @ d / np.sqrt(8)
        np.testing.assert_allclose(fd_to_td(d, 8), expected, atol=1e-12)

    def test_p_below_l_rejected(self):
        with pytest.raises(ValueError):
            fd_to_td(np.ones(4), 6)

    def test_interpolation(self, rng):
        # the full-band response estimate_channel hands the FDE
        tables = chanest.CombTables(Q=4, gamma=np.ones(8, complex),
                                    phi_prime=np.ones(8))
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        h, lam = estimate_channel(y, tables, 4, ls_weights(tables, L=4))
        k = 5
        expected = np.sum(h * np.exp(-2j * np.pi * k * np.arange(4) / 32))
        assert lam[k] == pytest.approx(expected, abs=1e-12)


class TestTheoreticalMse:
    def test_ls_zero_noise(self, scenario):
        assert theoretical_mse_ls(scenario.tables, 8, 0.0) == 0.0

    def test_ls_linear_in_noise(self, scenario):
        a = theoretical_mse_ls(scenario.tables, 8, 0.01)
        b = theoretical_mse_ls(scenario.tables, 8, 0.02)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_ls_scalar_consistency(self, scenario):
        # trace formula vs explicit per-bin accumulation
        t = scenario.tables
        sv2 = 0.05
        per_bin = sum(sv2 * t.phi_prime[i] / abs(t.gamma[i]) ** 2 for i in range(8))
        assert theoretical_mse_ls(t, 8, sv2) == pytest.approx(
            8 / 64 * per_bin, rel=1e-12)

    def test_ls_rejects_null_comb(self):
        # the LS trace would divide phi' / |gamma|^2 = 0/0 on the null bin
        tables = build_scenario(FtnConfig(tau=0.5, beta=1.0)).tables
        with pytest.raises(IllConditionedCombError):
            theoretical_mse_ls(tables, 8, 0.1)

    def test_mmse_zero_noise(self, scenario):
        assert theoretical_mse_mmse(scenario.tables, 8, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ebn0", [120.0, 140.0])
    def test_mmse_exact_at_high_snr(self, scenario, ebn0):
        # the same formula on the same float inputs, evaluated in exact rationals;
        # its expansion r (1 - 2 Re(w g)) + |w g|^2 r cancelled to 2.6e-3 and 18% here
        L = scenario.cfg.L
        sv2 = ebn0_to_sigma_v2(scenario.cfg, ebn0)
        tables = scenario.tables
        r = Fraction(tap_power(L) * tables.P)
        exact = Fraction(0)
        for w, g, phi in zip(mmse_weights(tables, sv2, tap_power(L)), tables.gamma,
                             tables.phi_prime):
            wr, wi, gr, gi = map(Fraction, (w.real, w.imag, g.real, g.imag))
            bias_re, bias_im = 1 - (wr * gr - wi * gi), wr * gi + wi * gr
            exact += (r * (bias_re**2 + bias_im**2)
                      + (wr**2 + wi**2) * Fraction(sv2) * Fraction(float(phi)))
        exact *= Fraction(L, tables.P**2)
        got = theoretical_mse_mmse(tables, L, sv2)
        assert abs(Fraction(got) - exact) <= 1e-14 * exact

    def test_mmse_below_ls_on_grid(self, scenario):
        cfg = FtnConfig()
        for ebn0 in cfg.ebn0_grid_db:
            sv2 = ebn0_to_sigma_v2(cfg, ebn0)
            assert (theoretical_mse_mmse(scenario.tables, 8, sv2)
                    <= theoretical_mse_ls(scenario.tables, 8, sv2))

    def test_ls_monte_carlo_agreement(self, scenario):
        cfg = FtnConfig()
        sv2 = ebn0_to_sigma_v2(cfg, 10.0)
        sim, se = simulate_ce_mse(cfg, 0.8, sv2, 30_000, criteria=("ls",),
                                  seed=11)["ls"]
        assert abs(sim - theoretical_mse_ls(scenario.tables, 8, sv2)) < 3 * se

    def test_mmse_monte_carlo_agreement(self, scenario):
        cfg = FtnConfig()
        sv2 = ebn0_to_sigma_v2(cfg, 10.0)
        sim, se = simulate_ce_mse(cfg, 0.8, sv2, 30_000, criteria=("mmse",),
                                  seed=12)["mmse"]
        assert abs(sim - theoretical_mse_mmse(scenario.tables, 8, sv2)) < 3 * se


class TestInterferenceProperties:
    def test_mse_invariant_to_data_power_with_alignment(self):
        cfg = FtnConfig()
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        results = [simulate_ce_mse(cfg, 0.8, sv2, 5_000, criteria=("ls",),
                                   sigma_s2=ss, seed=13)["ls"][0]
                   for ss in (0.0, 1.0, 4.0)]
        assert max(results) - min(results) < 1e-15

    def test_no_alignment_mse_grows_with_data_power(self):
        cfg = FtnConfig(sia=False)
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        results = [simulate_ce_mse(cfg, 0.8, sv2, 5_000, criteria=("ls",),
                                   sigma_s2=ss, seed=13)["ls"][0]
                   for ss in (0.0, 1.0, 4.0)]
        assert results[0] < results[1] < results[2]

    def test_unbiased_noise_free_chain(self):
        # exact recovery for any L <= P
        _, lambda_g = build_isi_circulant(tau=0.9, beta=0.5, nu=8, N=64)
        x_p = chu_pilot(8, 8)
        tables = build_comb_tables(lambda_g, x_p, 8)
        for L in (1, 3, 8):
            h, lambda_h = sample_channel(L, 64, make_rng(20 + L))
            x = compose_tx(np.zeros(64, complex), x_p, 8, sia=True)
            y_fd = transmit_fast(dft(x), lambda_h, lambda_g)
            h_hat, _ = estimate_channel(y_fd, tables, L, ls_weights(tables, L))
            assert np.linalg.norm(h_hat - h) < 1e-9
