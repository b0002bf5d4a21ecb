import concurrent.futures
import csv
import json
import math
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from ftnsim import chanest, cli, config, harness
from ftnsim.channel import colored_noise
from ftnsim.config import (ConfigError, FtnConfig, apply_overrides, dump_config,
                           load_config, scenario_hash)
from ftnsim.core import dft, idft, make_rng
from ftnsim.harness import (build_cell, build_scenario, ebn0_to_sigma_v2,
                            emit_results, run_sweep, run_trial, simulate_ce_mse,
                            spectral_efficiency)
from ftnsim.pilot import apply_projector
from oracles import ce_mse_reference, qpsk_block_from_words, reference_trial

FAST = dict(min_trials=20, max_trials=20, target_bit_errors=10**9,
            ebn0_grid_db=(8.0,))


class TestConfig:
    def test_defaults_valid(self):
        FtnConfig().validate()

    def test_reference_defaults(self):
        cfg = FtnConfig()
        assert (cfg.L, cfg.P, cfg.Q, cfg.N, cfg.nu) == (8, 8, 16, 128, 10)
        assert cfg.beta == 0.5 and cfg.n_ista == 3

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            replace(FtnConfig(), L=9).validate()
        with pytest.raises(ConfigError):
            replace(FtnConfig(), nu=7).validate()
        with pytest.raises(ConfigError):
            replace(FtnConfig(), nu=70).validate()
        with pytest.raises(ConfigError):
            replace(FtnConfig(), seed=-1).validate()
        for bad in (dict(L=0), dict(L=-1), dict(L=0, nu=0),
                    dict(ebn0_grid_db=(0.0, math.nan)), dict(ebn0_grid_db=(math.inf,)),
                    dict(ebn0_grid_db=(-math.inf, 4.0)), dict(ebn0_grid_db=()),
                    dict(max_trials=2**32 // 6 + 1)):
            with pytest.raises(ConfigError):
                replace(FtnConfig(), **bad).validate()
        # the default grid's 6 cells key streams up to 6 max_trials - 1 < 2**32
        replace(FtnConfig(), max_trials=2**32 // 6).validate()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        # 1.0000001 has no exact 6-digit :g form
        for grid in [(2.0, 4.0), (0.0, 1.0000001)]:
            cfg = replace(FtnConfig(), tau=0.9, seed=777, sia=False, ebn0_grid_db=grid)
            path.write_text(dump_config(cfg))
            assert load_config(path) == cfg
        # N is P Q, not a key; QPSK is the only modulation, so it is no key either
        text = dump_config(FtnConfig(P=4, Q=8, L=4))
        assert not {"N", "modulation"} & {line.split(" = ")[0] for line in text.splitlines()}
        path.write_text(text)
        assert load_config(path).N == 32

    def test_overrides(self):
        cfg = apply_overrides(FtnConfig(), ["tau=0.7", "seed=9", "sia=off"])
        assert cfg.tau == 0.7 and cfg.seed == 9 and cfg.sia is False

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(FtnConfig(), ["nonsense=1"])
        with pytest.raises(ConfigError):
            apply_overrides(FtnConfig(), ["tau"])
        # N and modulation are derived; the equalizer is always MMSE; the data
        # power is 1; perfect CSI is ce_criterion=perfect
        for removed in ("N=64", "modulation=qpsk", "eq_criterion=ls", "sigma_s2=1",
                        "csi=perfect"):
            with pytest.raises(ConfigError, match="unknown config key"):
                apply_overrides(FtnConfig(), [removed])

    @pytest.mark.parametrize("body", [
        "[waveform]\nwat = 1\n",
        "[sim]\nebn0_grid_db = 1, two\n",
        "tau = 0.8\n",
        "[waveform]\ntau = 0.8\ntau = 0.9\n",
    ], ids=["unknown_key", "unparseable_grid", "no_section_header", "duplicate_key"])
    def test_unknown_key_in_file(self, tmp_path, body):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_sections_list_every_field_once(self):
        # a field missing here would drop out of dump_config and scenario_hash
        keys = [key for keys in config._SECTIONS.values() for key in keys]
        assert sorted(keys) == sorted(f.name for f in fields(FtnConfig))

    def test_hash_tracks_content(self):
        a = scenario_hash(FtnConfig())
        assert a == scenario_hash(FtnConfig()) == "a2e100a035ef"
        assert a != scenario_hash(replace(FtnConfig(), seed=1))
        grid = replace(FtnConfig(), ebn0_grid_db=(0.0, 1.0))
        assert scenario_hash(grid) != scenario_hash(
            replace(grid, ebn0_grid_db=(0.0, 1.0000001)))


class TestSpectralEfficiency:
    def test_nyquist_no_overhead_baseline(self):
        cfg = replace(FtnConfig(), tau=1.0, nu=0, se_convention="paper_all_n")
        # bits * N / (N * 1) = bits_per_symbol
        assert spectral_efficiency(cfg) == pytest.approx(2.0)

    def test_default_value(self):
        cfg = FtnConfig()
        assert spectral_efficiency(cfg) == pytest.approx(2 * 120 / (148 * 0.8))

    def test_all_n_convention(self):
        cfg = replace(FtnConfig(), se_convention="paper_all_n")
        assert spectral_efficiency(cfg) == pytest.approx(2 * 128 / (148 * 0.8))

    def test_increases_as_tau_shrinks(self):
        cfg = FtnConfig()
        ses = [spectral_efficiency(cfg, tau) for tau in (1.0, 0.9, 0.8, 0.7)]
        assert all(b > a for a, b in zip(ses, ses[1:]))

    def test_snr_conversion(self):
        cfg = FtnConfig()
        se = spectral_efficiency(cfg)
        sv2 = ebn0_to_sigma_v2(cfg, 10.0)
        assert 10 * np.log10(1.0 / sv2) == pytest.approx(
            10.0 + 10 * np.log10(se))


class TestRunTrial:
    def test_deterministic(self):
        cell = build_cell(build_scenario(FtnConfig()), 0.1)
        a = run_trial(cell, 5)
        b = run_trial(cell, 5)
        assert (a.bit_errors, a.sq_err, a.tx_power) == (b.bit_errors, b.sq_err,
                                                        b.tx_power)

    def test_fft_budget(self, monkeypatch):
        # the spectrum is formed per bin: one FFT each for the noise and the
        # transmit block, one IFFT to equalize; the short transforms are products
        scenario = build_scenario(FtnConfig())
        cell = build_cell(scenario, ebn0_to_sigma_v2(scenario.cfg, 8.0))
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        run_trial(cell, 0)
        assert len(calls) <= 3, calls

    def test_noise_free_perfect_csi_error_free(self):
        cell = build_cell(build_scenario(replace(FtnConfig(), ce_criterion="perfect")), 0.0)
        errors = sum(run_trial(cell, i).bit_errors for i in range(20))
        assert errors == 0

    def test_negative_noise_variance_rejected(self):
        with pytest.raises(ValueError):
            run_trial(build_cell(build_scenario(FtnConfig()), -1.0), 0)

    @pytest.mark.parametrize("sigma_v2", [math.nan, math.inf])
    def test_nan_or_infinite_noise_variance_rejected(self, sigma_v2):
        for cfg in (FtnConfig(), replace(FtnConfig(), ce_criterion="perfect")):
            with pytest.raises(ValueError, match="0 <= sigma_v2 < inf"):
                run_trial(build_cell(build_scenario(cfg), sigma_v2), 0)

    def test_null_comb_bin_gives_finite_estimate(self):
        scenario = build_scenario(replace(FtnConfig(), tau=0.5, beta=1.0))
        res = run_trial(build_cell(scenario, 0.1), 0)
        assert scenario.tables.bad_bins and np.isfinite(res.sq_err)

    def test_noise_factor_is_sqrt_of_phi(self):
        # one clip: the noise draws sigma_v2 * phi_diag, as the FDE and the
        # closed forms assume, also on clipped bins and at an exact null
        for cfg in (FtnConfig(tau=0.5), FtnConfig(tau=0.5, beta=1.0)):
            scenario = build_scenario(cfg)
            phi = scenario.phi_diag
            assert np.count_nonzero(scenario.lambda_g.real <= 0.0) > 0
            np.testing.assert_allclose(scenario.noise_factor ** 2, phi, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(scenario.noise_factor[phi == 0.0], 0.0)

    def test_cell_constants_are_read_only(self):
        # a write into a constant shared by every trial of the cell raises
        # instead of changing the later trials
        cell = build_cell(build_scenario(FtnConfig()), 0.1)
        before = run_trial(cell, 3)
        scenario = cell.scenario
        for name, arr in (("lambda_g", scenario.lambda_g), ("x_p", scenario.x_p),
                          ("noise_factor", scenario.noise_factor),
                          ("phi_diag", scenario.phi_diag), ("mmse_w", cell.mmse_w),
                          ("gamma", scenario.tables.gamma),
                          ("phi_prime", scenario.tables.phi_prime)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0
            assert not arr.flags.writeable, name
        assert run_trial(cell, 3) == before

    def test_perfect_csi_zero_mse(self):
        cell = build_cell(build_scenario(replace(FtnConfig(), ce_criterion="perfect")), 0.1)
        assert run_trial(cell, 0).sq_err == 0.0

    def test_perfect_csi_dominates_estimated(self):
        cfg = FtnConfig()
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        est = build_cell(build_scenario(cfg), sv2)
        per = build_cell(build_scenario(replace(cfg, ce_criterion="perfect")), sv2)
        n = 1000
        e_est = sum(run_trial(est, i).bit_errors for i in range(n))
        e_per = sum(run_trial(per, i).bit_errors for i in range(n))
        assert e_per <= e_est


_CHAIN_CONFIGS = {"default": {}, "ls": {"ce_criterion": "ls"},
                  "perfect": {"ce_criterion": "perfect"},
                  "sia_off": {"sia": False}, "tau_0.9": {"tau": 0.9}}


class TestTrialChain:
    """run_trial against ``reference_trial``, its chain with the original numpy calls."""

    @pytest.mark.parametrize("name", _CHAIN_CONFIGS)
    def test_results_bit_identical_to_reference(self, name):
        # trials 230-289 of cell 0 take stream 256 from default_rng and the
        # rest from the make_rng memo
        for seed in (12345, 2**32 + 7):
            cfg = replace(FtnConfig(), seed=seed, **_CHAIN_CONFIGS[name])
            scenario = build_scenario(cfg)
            for cell_index, ebn0 in enumerate((0.0, 8.0, 16.0)):
                cell = build_cell(scenario, ebn0_to_sigma_v2(cfg, ebn0), cell_index)
                for i in range(230, 290):
                    got, want = run_trial(cell, i), reference_trial(cell, i)
                    assert ((got.bit_errors, got.sq_err, got.tx_power)
                            == (want.bit_errors, want.sq_err, want.tx_power)), (seed, ebn0, i)

    @pytest.mark.parametrize("name", ["default", "perfect", "ls", "tau_0.9"])
    def test_post_fde_mse_matches_conditional_mean(self, name):
        # With alignment on, u - Psi s has the spectrum (w g - 1) s~ + w eta~
        # off the comb and 0 on it, g = lambda_h lambda_g with the true
        # channel.  The estimate reads only the comb noise, independent of the
        # off-comb data and noise, so given the channel and w its mean is
        # sum_{k off the comb} |w_k g_k - 1|^2 + |w_k|^2 sigma_v2 phi_k at unit data power,
        # for any weights w.  Bound, fixed in advance: 4.5 standard errors of
        # the paired per-trial difference, the benchmark's MSE gate.
        cfg = replace(FtnConfig(), seed=4242, **_CHAIN_CONFIGS[name])
        scenario = build_scenario(cfg)
        off = np.ones(cfg.N, bool)
        off[::cfg.Q] = False
        n = 400
        for cell_index, ebn0 in enumerate((0.0, 8.0, 16.0)):
            cell = build_cell(scenario, ebn0_to_sigma_v2(cfg, ebn0), cell_index)
            diff = np.empty(n)
            for i in range(n):
                t = reference_trial(cell, i)
                sim = np.sum(np.abs(t.u - apply_projector(t.s, cfg.Q)) ** 2)
                w, g = t.w[off], (t.lambda_h * scenario.lambda_g)[off]
                cond = np.sum(np.abs(w * g - 1.0) ** 2
                              + np.abs(w) ** 2 * cell.sigma_v2 * scenario.phi_diag[off])
                diff[i] = sim - cond
            z = diff.mean() / (diff.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 4.5, (ebn0, z)

    @pytest.mark.parametrize("name", _CHAIN_CONFIGS)
    def test_bit_errors_match_conditional_expectation(self, name):
        # Given the channel, the data and the comb noise, w is fixed and the
        # equalizer output is u = m + n, with m = idft(w zero_comb(g dft(x))),
        # g = lambda_h lambda_g.  n comes from the off-comb noise only: circular
        # Gaussian with variance v = (1/N) sum_{k off the comb} |w_k|^2 sigma_v2
        # phi_k per sample.  A single slice (alignment off, or n_ista = 0; with
        # alignment on Psi u = u) errs on real component c with probability
        # Phi(-sign(s_c) m_c / sqrt(v / 2)), the quasi-analytic estimate of
        # Jeruchim, Balaban & Shanmugan, "Simulation of Communication Systems",
        # ch. 11.  Bound, fixed in advance: 4.5 standard errors of the paired
        # per-trial difference between the bit errors and their expectation.
        cfg = replace(FtnConfig(), seed=777, n_ista=0, **_CHAIN_CONFIGS[name])
        scenario = build_scenario(cfg)
        off = np.ones(cfg.N, bool)
        off[::cfg.Q] = False
        n = 500
        for cell_index, ebn0 in enumerate((0.0, 8.0)):
            cell = build_cell(scenario, ebn0_to_sigma_v2(cfg, ebn0), cell_index)
            diff = np.empty(n)
            for i in range(n):
                t = reference_trial(cell, i)
                m = idft(np.where(off, t.w * t.lambda_h * scenario.lambda_g * dft(t.x), 0.0))
                v = np.sum(np.abs(t.w[off]) ** 2 * cell.sigma_v2 * scenario.phi_diag[off]) / cfg.N
                margin = np.sign(t.s.view(np.float64)) * m.view(np.float64)
                diff[i] = t.bit_errors - np.sum(ndtr(-margin / math.sqrt(v / 2)))
            z = diff.mean() / (diff.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 4.5, (ebn0, z)


# stream 256 k goes through default_rng, stream 256 k + 1 through the make_rng memo
_STREAMS = (st.builds(lambda k, r: 256 * k + r, st.integers(0, 2**24 - 1), st.sampled_from([0, 1]))
            | st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1), _STREAMS, st.integers(1, 300))
def test_qpsk_bits_same_as_integers_property(seed, stream, n_symbols):
    got = harness._qpsk_bits(make_rng(seed, stream, harness._SUB_DATA), n_symbols)
    want = make_rng(seed, stream, harness._SUB_DATA).integers(0, 2, 2 * n_symbols)
    assert np.array_equal(got, want)


@st.composite
def any_config(draw):
    """Configs over the parameter box, valid or not; N = P Q and nu >= L always."""
    P, Q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    L = draw(st.integers(1, P))
    return FtnConfig(
        P=P, Q=Q, L=L, nu=draw(st.integers(L, max(L, P * Q // 2))),
        tau=draw(st.floats(0.2, 1.0)), beta=draw(st.floats(0.0, 1.0)),
        sia=draw(st.booleans()), ce_criterion=draw(st.sampled_from(["ls", "mmse", "perfect"])),
        n_ista=draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(any_config())
def test_accepted_config_gives_finite_trials_or_documented_error(cfg):
    # validate() rejects it, or every trial and closed form is finite, or
    # the comb is ill-conditioned (exit 4); RuntimeWarnings fail the test
    try:
        cfg.validate()
    except ConfigError:
        return
    scenario = build_scenario(cfg)
    try:
        for ebn0 in (-10.0, 0.0, 30.0, 200.0):
            sv2 = ebn0_to_sigma_v2(cfg, ebn0)
            res = run_trial(build_cell(scenario, sv2), 0)
            assert np.isfinite([res.bit_errors, res.sq_err, res.tx_power]).all(), res
            theory = harness._theory_mse(scenario, sv2)
            assert theory is None or np.isfinite(theory)
    except chanest.IllConditionedCombError:
        assert scenario.tables.bad_bins


class TestSimulateCeMse:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulate_ce_mse drew before checking its arguments")
        monkeypatch.setattr(harness, "make_rng", refuse)

    @pytest.mark.parametrize("sia", [True, False])
    @pytest.mark.parametrize("sigma_s2", [0.0, 1.0, 4.0])   # 0 is valid: criterion 3 uses it
    def test_matches_full_band_reference(self, monkeypatch, sia, sigma_s2):
        # 700 trials in chunks of 300, 300 and 100
        monkeypatch.setattr(harness, "_CE_CHUNK", 300)
        cfg = replace(FtnConfig(), sia=sia)
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        got = simulate_ce_mse(cfg, 0.8, sv2, 700, sigma_s2=sigma_s2, seed=5)
        want = ce_mse_reference(cfg, 0.8, sv2, 700, sigma_s2=sigma_s2, seed=5)
        assert got.keys() == want.keys() == {"ls", "mmse"}
        for crit in want:
            np.testing.assert_allclose(got[crit], want[crit], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sia", [True, False])
    def test_matches_full_band_reference_past_one_word(self, sia):
        # Q = 65 takes two data words per (component, position), the second masked
        cfg = FtnConfig(P=2, Q=65, L=2, sia=sia)
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        got = simulate_ce_mse(cfg, 0.8, sv2, 300, seed=5)
        want = ce_mse_reference(cfg, 0.8, sv2, 300, seed=5)
        for crit in want:
            np.testing.assert_allclose(got[crit], want[crit], rtol=1e-13, atol=0)

    def test_aligned_chunk_draws_no_data(self, monkeypatch):
        # 250 trials in chunks of 100, 100 and 50
        monkeypatch.setattr(harness, "_CE_CHUNK", 100)
        cfg = FtnConfig()
        aligned = {s2: simulate_ce_mse(cfg, 0.8, 0.1, 250, sigma_s2=s2)
                   for s2 in (0.0, 1.0, 4.0)}
        calls = []
        real_fold = harness._qpsk_fold

        def refuse(*args):
            raise AssertionError("the aligned chain drew data")

        def counted(*args):
            calls.append(args[1])
            return real_fold(*args)

        monkeypatch.setattr(harness, "_qpsk_fold", refuse)
        for s2 in (0.0, 1.0, 4.0):
            assert simulate_ce_mse(cfg, 0.8, 0.1, 250, sigma_s2=s2) == aligned[s2]
        assert aligned[0.0] == aligned[1.0] == aligned[4.0]
        monkeypatch.setattr(harness, "_qpsk_fold", counted)
        simulate_ce_mse(replace(cfg, sia=False), 0.8, 0.1, 250)
        assert calls == [100, 100, 50]

    @pytest.mark.parametrize("Q", [2, 16, 64, 65, 128])
    def test_qpsk_fold_is_the_fold_of_the_drawn_block(self, Q):
        P, b = 4, 50
        fold = harness._qpsk_fold(make_rng(3, Q), b, P, Q, 3.0)
        words = make_rng(3, Q).integers(0, 2**64, size=(b, 2, P, -(-Q // 64)),
                                        dtype=np.uint64)
        block = qpsk_block_from_words(words, Q, 3.0)
        np.testing.assert_allclose(fold, block.reshape(b, Q, P).sum(axis=1),
                                   rtol=1e-13, atol=1e-13 * Q)

    @pytest.mark.parametrize("Q", [2, 16, 64, 65, 128])
    def test_qpsk_fold_moments_and_support(self, Q):
        # each component is a (Q - 2 Binomial(Q, 1/2)): mean 0, variance
        # Q sigma_s2 / 2 = Q a^2, fourth moment a^4 (3 Q^2 - 2 Q)
        sigma_s2, b, P = 3.0, 20_000, 8
        a = math.sqrt(sigma_s2 / 2)
        fold = harness._qpsk_fold(make_rng(11, Q), b, P, Q, sigma_s2)
        comps = fold.view(np.float64).ravel() / a
        levels = np.rint(comps)
        np.testing.assert_allclose(comps, levels, rtol=0, atol=1e-12 * Q)
        assert np.abs(levels).max() <= Q and np.all((levels + Q) % 2 == 0)
        n = comps.size
        assert abs(comps.mean()) < 5 * math.sqrt(Q / n)
        assert abs(np.mean(comps**2) - Q) < 5 * math.sqrt((2 * Q**2 - 2 * Q) / n)

    def test_no_full_length_transform_per_chunk(self, monkeypatch):
        # the whole chain, noise included, is on the P comb bins;
        # build_scenario's 1-d transforms are not counted
        monkeypatch.setattr(harness, "_CE_CHUNK", 100)
        cfg = FtnConfig()
        widths = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                if np.ndim(a) == 2:
                    widths.append(np.shape(a)[-1])
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        simulate_ce_mse(cfg, 0.8, 0.1, 250)     # 3 chunks
        assert widths and widths.count(cfg.N) == 0, widths

    @pytest.mark.parametrize("tau", [0.8, 0.9])
    def test_comb_noise_covariance_matches_full_band_comb(self, tau):
        # the comb-only draw simulate_ce_mse makes and the comb of the
        # full-band noise spectrum both have covariance
        # sigma_v2 * diag(noise_factor[::Q]**2); entry (i, j) of a sample
        # covariance of n draws has standard error sqrt(var_i var_j / n)
        cfg = FtnConfig()
        P, Q = cfg.P, cfg.Q
        nf = build_scenario(cfg, tau).noise_factor
        sv2 = ebn0_to_sigma_v2(cfg, 8.0, tau)
        var = sv2 * nf[::Q] ** 2
        draws = {
            "comb only": lambda rng, b: colored_noise(
                chanest.extract_comb(nf, Q), sv2, rng, trials=b),
            "full band": lambda rng, b: chanest.extract_comb(
                colored_noise(nf, sv2, rng, trials=b), Q),
        }
        chunks, b = 5, 20_000
        n = chunks * b
        se = np.sqrt(np.outer(var, var) / n)
        for name, draw in draws.items():
            cov = np.zeros((P, P), complex)
            for k in range(chunks):
                z = draw(make_rng(17, k), b)
                cov += z.T @ z.conj()
            cov /= n
            dev = np.abs(cov - np.diag(var)) / se
            assert dev.max() < 5.0, (name, dev.round(2))

    def test_unknown_criterion_rejected(self, no_draws):
        with pytest.raises(ValueError, match="lss"):
            simulate_ce_mse(FtnConfig(), 0.8, 0.1, 10, criteria=("lss",))

    @pytest.mark.parametrize("n_trials", [0, -5])
    def test_no_trials_rejected(self, no_draws, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            simulate_ce_mse(FtnConfig(), 0.8, 0.1, n_trials)

    @pytest.mark.parametrize("sigma_s2", [-1.0, math.inf, math.nan])
    def test_bad_data_power_rejected(self, no_draws, sigma_s2):
        with pytest.raises(ValueError, match="sigma_s2"):
            simulate_ce_mse(FtnConfig(), 0.8, 0.1, 10, sigma_s2=sigma_s2)

    @pytest.mark.parametrize("sigma_v2", [-1.0, math.inf, math.nan])
    def test_bad_noise_variance_rejected(self, no_draws, sigma_v2):
        with pytest.raises(ValueError, match="sigma_v2"):
            simulate_ce_mse(FtnConfig(), 0.8, sigma_v2, 10)


class TestRunSweep:
    def test_empty_grid(self):
        # an empty grid would yield a header-only result, so validate() rejects it
        with pytest.raises(ConfigError, match="ebn0_grid_db is empty"):
            run_sweep(replace(FtnConfig(), ebn0_grid_db=()))

    def test_bookkeeping_identity(self):
        cfg = replace(FtnConfig(), **FAST)
        row = run_sweep(cfg).rows[0]
        assert row.ber == pytest.approx(row.bit_errors / (row.trials * 128 * 2))

    def test_stopping_rule(self):
        cfg = replace(FtnConfig(), min_trials=5, max_trials=50,
                      target_bit_errors=1, ebn0_grid_db=(0.0,))
        row = run_sweep(cfg).rows[0]
        assert row.trials <= 50
        assert row.bit_errors >= 1 or row.trials == 50

    def test_theory_column_rules(self):
        cfg = replace(FtnConfig(), **FAST)
        assert run_sweep(cfg).rows[0].mse_theory is not None
        assert run_sweep(replace(cfg, sia=False)).rows[0].mse_theory is None
        assert run_sweep(replace(cfg, ce_criterion="perfect")).rows[0].mse_theory is None

    def test_measured_power_reported(self):
        cfg = replace(FtnConfig(), **FAST)
        row = run_sweep(cfg).rows[0]
        assert row.measured_tx_power == pytest.approx(2 * (1 - 1 / 16), rel=0.05)

    def test_golden_counts(self):
        # (trials, bit_errors) exactly, (mse_sim, measured_tx_power) to
        # rel 1e-12, which allows last-ulp float differences across
        # platforms; a change that alters the simulated numbers updates them
        golden = {101: [(10, 224, 0.014486666829849898, 1.8818359375),
                        (43, 120, 0.003956738209569547, 1.8727970566860468),
                        (150, 3, 0.0009732328472217823, 1.8789973958333333)],
                  202: [(10, 202, 0.016210693722549706, 1.87666015625),
                        (27, 105, 0.0042773127808855916, 1.8720703125),
                        (150, 7, 0.0010539801890272601, 1.8745572916666666)]}
        for seed, expected in golden.items():
            cfg = replace(FtnConfig(), seed=seed, ebn0_grid_db=(4.0, 10.0, 16.0),
                          min_trials=10, max_trials=150, target_bit_errors=100)
            rows = run_sweep(cfg).rows
            assert [(r.trials, r.bit_errors) for r in rows] == [e[:2] for e in expected]
            for r, (_, _, mse, power) in zip(rows, expected):
                assert r.mse_sim == pytest.approx(mse, rel=1e-12)
                assert r.measured_tx_power == pytest.approx(power, rel=1e-12)

    def test_ber_ci95_from_per_trial_error_counts(self):
        # errors cluster within a block, so the interval is that of the mean
        # per-trial error count, not the binomial one of independent bits
        cfg = replace(FtnConfig(), **dict(FAST, ebn0_grid_db=(4.0,)))
        row = run_sweep(cfg).rows[0]
        cell = build_cell(build_scenario(cfg), ebn0_to_sigma_v2(cfg, 4.0))
        errors = [run_trial(cell, i).bit_errors for i in range(row.trials)]
        assert sum(errors) == row.bit_errors
        want = 1.96 * np.std(errors) / math.sqrt(row.trials) / (cfg.N * 2)
        assert row.ber_ci95 == pytest.approx(want, rel=1e-9)

    def test_pool_no_larger_than_grid(self, monkeypatch):
        # a fork pool starts all max_workers processes at the first submit,
        # so the recorder stands in for the pool and runs the cells inline
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = replace(FtnConfig(), **dict(FAST, ebn0_grid_db=(4.0, 8.0)))
        assert len(run_sweep(cfg, workers=64).rows) == 2
        assert sizes == [2]

    def test_flagged_trials_count_the_null_comb(self):
        cfg = replace(FtnConfig(), **FAST)
        assert [r.flagged_trials for r in run_sweep(cfg).rows] == [0]
        rows = run_sweep(replace(cfg, tau=0.5, beta=1.0)).rows
        assert [r.flagged_trials for r in rows] == [r.trials for r in rows] == [20]
        # with perfect CSI no trial reads the comb
        rows = run_sweep(replace(cfg, tau=0.5, beta=1.0, ce_criterion="perfect")).rows
        assert [r.flagged_trials for r in rows] == [0]


class TestEmitResults:
    def test_csv_round_trip_byte_identical(self, tmp_path):
        cfg = replace(FtnConfig(), **FAST)
        table = run_sweep(cfg)
        p1 = emit_results(table, "csv", str(tmp_path / "a"))[0]
        p2 = emit_results(table, "csv", str(tmp_path / "b"))[0]
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_json_contains_resolved_config(self, tmp_path):
        cfg = replace(FtnConfig(), **FAST)
        path = emit_results(run_sweep(cfg), "json", str(tmp_path / "r"))[0]
        doc = json.load(open(path))
        assert doc["config"] == json.loads(json.dumps(asdict(cfg)))
        assert doc["rows"][0]["trials"] == 20

    def test_missing_directory_raises_with_path(self, tmp_path):
        table = run_sweep(replace(FtnConfig(), **FAST))
        with pytest.raises(IOError, match="no/such"):
            emit_results(table, "csv", str(tmp_path / "no" / "such" / "r"))

    def test_both_formats(self, tmp_path):
        table = run_sweep(replace(FtnConfig(), **FAST))
        files = emit_results(table, "both", str(tmp_path / "r"))
        assert len(files) == 2


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ftnsim.cli", *args],
                          capture_output=True, text=True)


class TestCli:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        cfg = replace(FtnConfig(), **FAST)
        path = tmp_path / "scenario.cfg"
        path.write_text(dump_config(cfg))
        return str(path)

    def test_validate_ok(self, cfg_file):
        proc = run_cli("validate", "--config", cfg_file)
        assert proc.returncode == 0
        assert "config OK" in proc.stdout

    def test_validate_bad_config(self, cfg_file, tmp_path):
        proc = run_cli("validate", "--config", cfg_file, "--override", "L=9")
        assert proc.returncode == 2
        # N follows from P and Q, so a file cannot set it
        sets_n = tmp_path / "sets_n.cfg"
        sets_n.write_text("[sim]\nN = 128\n")
        proc = run_cli("validate", "--config", str(sets_n))
        assert proc.returncode == 2
        assert "unknown config key 'N'" in proc.stderr
        # the equalizer is always MMSE, so eq_criterion is no key
        sets_eq = tmp_path / "sets_eq.cfg"
        sets_eq.write_text("[receiver]\neq_criterion = mmse\n")
        proc = run_cli("validate", "--config", str(sets_eq))
        assert proc.returncode == 2
        assert "unknown config key 'eq_criterion'" in proc.stderr

    def test_run_negative_seed_is_config_error(self, cfg_file, tmp_path):
        proc = run_cli("run", "--config", cfg_file, "--out", str(tmp_path),
                       "--override", "seed=-1")
        assert proc.returncode == 2
        assert "seed=-1" in proc.stderr

    def test_run_zero_taps_is_config_error(self, cfg_file, tmp_path):
        proc = run_cli("run", "--config", cfg_file, "--out", str(tmp_path),
                       "--override", "L=0")
        assert proc.returncode == 2
        assert "L=0 < 1" in proc.stderr

    @pytest.mark.parametrize("override", ["ebn0_grid_db=0 inf", "ebn0_grid_db=nan"])
    def test_run_non_finite_is_config_error(self, cfg_file, tmp_path, override):
        proc = run_cli("run", "--config", cfg_file, "--out", str(tmp_path),
                       "--override", override)
        assert proc.returncode == 2
        assert "finite" in proc.stderr

    def test_run_writes_csv(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        proc = run_cli("run", "--config", cfg_file, "--out", str(out))
        assert proc.returncode == 0
        assert (out / "results.csv").exists()

    def test_run_missing_out_dir(self, cfg_file, tmp_path):
        proc = run_cli("run", "--config", cfg_file, "--out",
                       str(tmp_path / "nope"))
        assert proc.returncode == 3

    @pytest.mark.parametrize("command", ["run", "mse-theory"])
    def test_missing_out_dir_fails_before_any_work(self, cfg_file, tmp_path, monkeypatch,
                                                   capsys, command):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(harness, "run_sweep", forbidden)
        monkeypatch.setattr(harness, "build_scenario", forbidden)
        missing = tmp_path / "missing"
        assert cli.main([command, "--config", cfg_file, "--out", str(missing)]) == 3
        assert f"output directory does not exist: {missing}" in capsys.readouterr().err
        regular = tmp_path / "file"
        regular.write_text("")
        assert cli.main([command, "--config", cfg_file, "--out", str(regular)]) == 3
        assert f"output path is not a directory: {regular}" in capsys.readouterr().err

    def test_mse_theory(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        proc = run_cli("mse-theory", "--config", cfg_file, "--out", str(out))
        assert proc.returncode == 0
        body = (out / "mse_theory.csv").read_text()
        assert body.startswith("tau,ebn0_db,sigma_v2,mse_ls,mse_mmse")

    def test_run_null_comb_exits_numerical(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        null = ["--override", "tau=0.5", "--override", "beta=1.0"]
        proc = run_cli("run", "--config", cfg_file, "--out", str(out), *null)
        assert proc.returncode == 4
        assert (out / "results.csv").exists()
        assert "20/20 trials" in proc.stderr
        proc = run_cli("run", "--config", cfg_file, "--out", str(out), *null,
                       "--override", "ce_criterion=ls")
        assert proc.returncode == 4
        # perfect CSI never reads the comb, so nothing is flagged
        proc = run_cli("run", "--config", cfg_file, "--out", str(out), *null,
                       "--override", "ce_criterion=perfect")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("flagged, code", [(10, 0), (11, 4)])
    def test_run_exits_numerical_past_one_percent(self, cfg_file, tmp_path, monkeypatch,
                                                  capsys, flagged, code):
        # exit 4 needs more than 1% of all trials flagged: 10 of 1000 is not
        def sweep(cfg, workers=1):
            rows = [harness.SweepRow("h", 0.8, 8.0, 0.0, 500, 0, 0.0, 0.0, 0.0, 0.0, None,
                                     1.0, 0.0, flagged_trials=f) for f in (0, flagged)]
            return harness.SweepTable(cfg=cfg, rows=rows)

        monkeypatch.setattr(harness, "run_sweep", sweep)
        assert cli.main(["run", "--config", cfg_file, "--out", str(tmp_path)]) == code
        assert (f"{flagged}/1000 trials" in capsys.readouterr().err) == (code == 4)

    def test_mse_theory_null_comb_exits_numerical(self, cfg_file, tmp_path):
        proc = run_cli("mse-theory", "--config", cfg_file, "--out", str(tmp_path),
                       "--override", "tau=0.5", "--override", "beta=1.0")
        assert proc.returncode == 4
        with open(tmp_path / "mse_theory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert row["mse_ls"] == ""
            assert np.isfinite(float(row["mse_mmse"]))

    def test_mse_theory_alignment_off_leaves_columns_empty(self, cfg_file, tmp_path):
        # the closed forms assume no data on the comb, which needs alignment
        proc = run_cli("mse-theory", "--config", cfg_file, "--out", str(tmp_path),
                       "--override", "sia=off", "--override", "ebn0_grid_db=4")
        assert proc.returncode == 0
        assert "alignment off" in proc.stderr
        with open(tmp_path / "mse_theory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["ebn0_db"], row["mse_ls"], row["mse_mmse"]) for row in rows] == [
            ("4", "", "")]

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("validate", "--config", str(tmp_path / "none.cfg"))
        assert proc.returncode == 3
