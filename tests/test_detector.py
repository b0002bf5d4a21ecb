import math

import numpy as np
import pytest

from ftnsim.channel import phi_diag, sample_channel, transmit_fast
from ftnsim.config import FtnConfig
from ftnsim.core import dft, make_rng
from ftnsim.detector import (demap_bits, equalize, fde_weights, ista_detect,
                             map_bits, project_nearest, zero_pilot_bins)
from ftnsim.harness import build_scenario
from ftnsim.pilot import apply_projector, compose_tx
from oracles import demap_reference, ista_reference, slice_reference


def qpsk_points():
    """The four QPSK points in bit-pattern order 00, 01, 10, 11."""
    return map_bits([0, 0, 0, 1, 1, 0, 1, 1])


class TestConstellation:
    def test_power(self):
        np.testing.assert_allclose(np.abs(qpsk_points()) ** 2, 1.0, rtol=1e-15)

    def test_gray_adjacency(self):
        points = qpsk_points()
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                if abs(abs(p - q) - np.sqrt(2)) < 1e-9:  # nearest neighbors
                    assert bin(i ^ j).count("1") == 1

    def test_convention_fixture(self):
        a = np.sqrt(0.5)
        sym = np.array([a + 1j * a])
        np.testing.assert_array_equal(demap_bits(sym), [0, 0])

    def test_map_demap_round_trip(self):
        np.testing.assert_array_equal(
            demap_bits(qpsk_points()), [0, 0, 0, 1, 1, 0, 1, 1])

    def test_odd_bit_count_rejected(self):
        for bits in ([1], [0, 1, 1]):
            with pytest.raises(ValueError):
                map_bits(bits)

    def test_random_round_trip(self):
        rng = make_rng(1)
        for _ in range(100):
            bits = rng.integers(0, 2, 200)
            np.testing.assert_array_equal(demap_bits(map_bits(bits)), bits)

    def test_sign_slicer_matches_nearest_point_search(self, rng):
        # +-0 ties every point; the search breaks ties to label 0, as must the slicer
        v = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        v[:4] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        points = qpsk_points()
        nearest = points[np.argmin(np.abs(v[:, None] - points), axis=1)]
        np.testing.assert_array_equal(project_nearest(v), nearest)

    def test_nan_slices_to_label_zero(self):
        sym = project_nearest(np.array([complex(np.nan, np.nan)]))
        np.testing.assert_array_equal(sym, qpsk_points()[:1])

    def test_float_view_forms_match_per_component_forms(self, rng):
        z = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
        z[0, :6] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
                    complex(np.nan, -1.0), complex(-1.0, np.nan)]
        cases = [z, z[0], z[:, ::3], z.T, z[::2, 1::2], z.real, z.real[::2], z[1, 1]]
        for v in cases:
            sym = project_nearest(v)
            assert sym.shape == v.shape
            np.testing.assert_array_equal(sym, slice_reference(v))
            np.testing.assert_array_equal(demap_bits(v), demap_reference(v))


class TestFdeWeights:
    def test_zero_noise_mmse_is_zero_forcing(self, rng):
        gamma_h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = fde_weights(gamma_h, np.ones(16), np.ones(16), 0.0)
        np.testing.assert_allclose(w, 1 / gamma_h, atol=1e-12)

    def test_flat_nyquist_passthrough(self):
        w = fde_weights(np.ones(16), np.ones(16), np.ones(16), 0.0)
        np.testing.assert_allclose(w, np.ones(16), atol=1e-12)

    def test_dense_matrix_oracle(self, rng):
        n = 16
        lam_h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam_g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = rng.uniform(0.1, 2.0, n)
        s2, v2 = 0.9, 0.3
        w = fde_weights(lam_h, lam_g, phi, v2 / s2)
        gamma = np.diag(lam_h * lam_g)
        dense = gamma.conj().T @ np.linalg.inv(
            gamma @ gamma.conj().T + v2 / s2 * np.diag(phi))
        np.testing.assert_allclose(np.diag(dense), w, atol=1e-12)

    def test_mmse_never_exceeds_zero_forcing(self, rng):
        lam_h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        lam_g = rng.uniform(0.1, 2, 32)
        w = fde_weights(lam_h, lam_g, np.ones(32), 0.5)
        assert np.all(np.abs(w) <= 1 / np.abs(lam_h * lam_g) + 1e-12)

    def test_mmse_zero_over_zero_bin_gets_zero_weight(self, rng):
        lam_h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        lam_g = rng.uniform(0.1, 2.0, 16)
        phi = rng.uniform(0.1, 2.0, 16)
        lam_g[5] = phi[5] = 0.0   # no signal and no noise on bin 5
        w = fde_weights(lam_h, lam_g, phi, 0.3)
        keep = np.arange(16) != 5
        gamma = (lam_h * lam_g)[keep]
        assert w[5] == 0.0
        np.testing.assert_array_equal(
            w[keep], np.conj(gamma) / (np.abs(gamma) ** 2 + 0.3 * phi[keep]))

    def test_fast_path_bits_match_masked_divide(self):
        # reference config, no zero bin: the plain divide is the masked one
        scenario = build_scenario(FtnConfig())
        phi = phi_diag(scenario.lambda_g)
        for seed in range(5):
            _, lambda_h = sample_channel(8, 128, make_rng(seed))
            w = fde_weights(lambda_h, scenario.lambda_g, phi, 0.05 / 0.9375)
            gamma = lambda_h * scenario.lambda_g
            num = np.conj(gamma)
            den = np.abs(gamma) ** 2 + 0.05 / 0.9375 * phi
            assert den.all()
            np.testing.assert_array_equal(
                w, np.divide(num, den, out=np.zeros_like(num), where=den != 0))

    @pytest.mark.parametrize("rho", [-1e-3, math.nan])
    def test_rejects_negative_or_nan_rho(self, rho):
        with pytest.raises(ValueError, match="rho"):
            fde_weights(np.ones(4), np.ones(4), np.ones(4), rho)

    def test_zero_rho_gives_null_bin_zero_weight(self):
        lam = np.array([1.0, 1.0, 0.0, 1.0])
        w = fde_weights(lam, np.ones(4), np.ones(4), 0.0)
        assert np.count_nonzero(w == 0) == 1
        assert w[2] == 0.0


class TestZeroPilotBins:
    def test_small_example(self):
        out = zero_pilot_bins(np.ones(4), 2)
        np.testing.assert_array_equal(out, [0, 1, 0, 1])

    def test_energy_accounting(self, rng):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = zero_pilot_bins(v, 4)
        removed = np.sum(np.abs(v) ** 2) - np.sum(np.abs(out) ** 2)
        assert removed == pytest.approx(np.sum(np.abs(v[::4]) ** 2), rel=1e-12)

    def test_idempotent(self, rng):
        v = rng.standard_normal(32) * (1 + 1j)
        once = zero_pilot_bins(v, 4)
        np.testing.assert_array_equal(zero_pilot_bins(once, 4), once)

    def test_dimension_mismatch(self):
        for n, Q in [(100, 16), (128, 0)]:
            with pytest.raises(ValueError):
                zero_pilot_bins(np.zeros(n), Q)

    def test_no_data_energy_lost_with_alignment(self):
        # transmitted data spectrum is exactly zero on the comb, so the
        # removed energy is pilot-only in the noise-free case
        scenario = build_scenario(FtnConfig())
        rng = make_rng(2)
        s = map_bits(rng.integers(0, 2, 256))
        x = compose_tx(s, scenario.x_p, scenario.cfg.Q, scenario.cfg.sia)
        fd = dft(x)
        pilot_fd = dft(scenario.x_p)
        removed = np.abs(fd[::16]) ** 2
        np.testing.assert_allclose(removed, np.abs(pilot_fd[::16]) ** 2,
                                   atol=1e-12)


class TestEqualize:
    def test_zero_input(self):
        w = fde_weights(np.ones(8), np.ones(8), np.ones(8), 0)
        np.testing.assert_array_equal(equalize(np.zeros(8), w), np.zeros(8))

    def test_unit_weights_are_idft(self, rng):
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = fde_weights(np.ones(16), np.ones(16), np.ones(16), 0)
        np.testing.assert_allclose(equalize(z, w),
                                   np.fft.ifft(z) * 4, atol=1e-12)

    def test_noise_free_chain_recovers_projected_data(self):
        scenario = build_scenario(FtnConfig())
        rng = make_rng(3)
        _, lambda_h = sample_channel(8, 128, rng)
        s = map_bits(rng.integers(0, 2, 256))
        x = compose_tx(s, scenario.x_p, scenario.cfg.Q, scenario.cfg.sia)
        y_fd = transmit_fast(dft(x), lambda_h, scenario.lambda_g)
        w = fde_weights(lambda_h, scenario.lambda_g,
                        phi_diag(scenario.lambda_g), 0.0)
        u = equalize(zero_pilot_bins(y_fd, 16), w)
        psi_s = apply_projector(s, scenario.cfg.Q)
        mask = np.ones(128, bool)
        mask[::16] = False
        assert np.linalg.norm(dft(u)[mask] - dft(psi_s)[mask]) < 1e-8

    def test_perfect_csi_inverse_of_fast_transmit(self):
        # no pilot, no alignment, no noise: dft -> weights -> equalize
        # inverts the circulant channel exactly
        scenario = build_scenario(FtnConfig())
        rng = make_rng(4)
        _, lambda_h = sample_channel(8, 128, rng)
        s = map_bits(rng.integers(0, 2, 256))
        y_fd = transmit_fast(dft(s), lambda_h, scenario.lambda_g)
        w = fde_weights(lambda_h, scenario.lambda_g,
                        phi_diag(scenario.lambda_g), 0.0)
        s_hat = equalize(y_fd, w)
        assert np.abs(s_hat - s).max() < 1e-8


class TestIstaDetect:
    def test_zero_iterations_is_projected_init(self):
        rng = make_rng(5)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)   # P = 2, Q = 4
        sym, _ = ista_detect(u, 4, n_iter=0)
        np.testing.assert_array_equal(sym, project_nearest(apply_projector(u, 4)))

    def test_recovers_clean_blocks(self):
        rng = make_rng(6)
        ok = 0
        for _ in range(200):
            bits = rng.integers(0, 2, 256)
            s = map_bits(bits)
            u = apply_projector(s, 16)   # P = 8, Q = 16
            _, bits_hat = ista_detect(u, 16, 3)
            ok += np.array_equal(bits, bits_hat)
        assert ok >= 198  # residue-class sign ambiguity is rare at Q=16

    def test_fixed_point(self):
        rng = make_rng(7)
        s = map_bits(rng.integers(0, 2, 64))   # P = 4, Q = 8
        u = apply_projector(s, 8)
        sym3, _ = ista_detect(u, 8, 3)
        sym9, _ = ista_detect(u, 8, 9)
        np.testing.assert_array_equal(sym3, sym9)

    def test_outputs_are_constellation_points(self):
        rng = make_rng(8)
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)   # P = 4, Q = 8
        sym, _ = ista_detect(u, 8, 3)
        d = np.abs(sym[:, None] - qpsk_points()[None, :]).min(axis=1)
        assert d.max() < 1e-12

    @pytest.mark.parametrize("n_iter", range(5))
    def test_matches_two_projection_reference(self, n_iter):
        rng = make_rng(10, n_iter)
        s = map_bits(rng.integers(0, 2, 4 * 256)).reshape(4, 128)   # P = 8, Q = 16
        noisy = apply_projector(s, 16) + 0.4 * (rng.standard_normal((4, 128))
                                                  + 1j * rng.standard_normal((4, 128)))
        wide = rng.standard_normal((3, 256)) + 1j * rng.standard_normal((3, 256))
        for u in [noisy, noisy[1], wide[:, ::2], noisy.real, wide.real[0, ::2]]:
            sym, bits = ista_detect(u, 16, n_iter)
            ref = slice_reference(ista_reference(u, 16, n_iter)[-1])
            np.testing.assert_array_equal(sym, ref)
            np.testing.assert_array_equal(bits, demap_reference(ref))

    def test_residual_nonincreasing(self):
        rng = make_rng(9)
        good = 0
        trials = 200
        for _ in range(trials):
            s = map_bits(rng.integers(0, 2, 256))
            u = apply_projector(s, 16)   # P = 8, Q = 16
            res = [np.linalg.norm(u - apply_projector(s_hat, 16))
                   for s_hat in ista_reference(u, 16, 3)]
            good += all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
        assert good >= 0.99 * trials
