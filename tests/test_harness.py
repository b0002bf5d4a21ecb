import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ftnsim.config import (ConfigError, FtnConfig, apply_overrides, as_dict,
                           dump_config, load_config, scenario_hash)
from ftnsim.harness import (build_scenario, ebn0_to_sigma_v2, emit_results,
                            run_sweep, run_trial, spectral_efficiency)

FAST = dict(min_trials=20, max_trials=20, target_bit_errors=10**9,
            ebn0_grid_db=(8.0,))


class TestConfig:
    def test_defaults_valid(self):
        FtnConfig().validate()

    def test_reference_defaults(self):
        cfg = FtnConfig()
        assert (cfg.L, cfg.P, cfg.Q, cfg.N, cfg.nu) == (8, 8, 16, 128, 10)
        assert cfg.beta == 0.5 and cfg.n_ista == 3 and cfg.modulation == "qpsk"

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            replace(FtnConfig(), N=120).validate()
        with pytest.raises(ConfigError):
            replace(FtnConfig(), L=9).validate()
        with pytest.raises(ConfigError):
            replace(FtnConfig(), nu=7).validate()
        with pytest.raises(ConfigError):
            replace(FtnConfig(), nu=70).validate()

    def test_file_round_trip(self, tmp_path):
        cfg = replace(FtnConfig(), tau=0.9, seed=777, sia=False,
                      ebn0_grid_db=(2.0, 4.0))
        path = tmp_path / "scenario.cfg"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg

    def test_overrides(self):
        cfg = apply_overrides(FtnConfig(), ["tau=0.7", "seed=9", "sia=off"])
        assert cfg.tau == 0.7 and cfg.seed == 9 and cfg.sia is False

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(FtnConfig(), ["nonsense=1"])
        with pytest.raises(ConfigError):
            apply_overrides(FtnConfig(), ["tau"])

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[waveform]\nwat = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_tracks_content(self):
        a = scenario_hash(FtnConfig())
        assert a == scenario_hash(FtnConfig())
        assert a != scenario_hash(replace(FtnConfig(), seed=1))


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
        assert 10 * np.log10(cfg.sigma_s2 / sv2) == pytest.approx(
            10.0 + 10 * np.log10(se))


class TestRunTrial:
    def test_deterministic(self):
        scenario = build_scenario(FtnConfig())
        a = run_trial(scenario, 0.1, 5)
        b = run_trial(scenario, 0.1, 5)
        assert (a.bit_errors, a.sq_err, a.tx_power) == (b.bit_errors, b.sq_err,
                                                        b.tx_power)

    def test_noise_free_perfect_csi_error_free(self):
        scenario = build_scenario(replace(FtnConfig(), csi="perfect"))
        errors = sum(run_trial(scenario, 0.0, i).bit_errors for i in range(20))
        assert errors == 0

    def test_negative_noise_variance_rejected(self):
        with pytest.raises(ValueError):
            run_trial(build_scenario(FtnConfig()), -1.0, 0)

    def test_null_comb_bin_gives_finite_estimate(self):
        scenario = build_scenario(replace(FtnConfig(), tau=0.5, beta=1.0))
        res = run_trial(scenario, 0.1, 0)
        assert res.flagged and np.isfinite(res.sq_err)

    def test_perfect_csi_zero_mse(self):
        scenario = build_scenario(replace(FtnConfig(), csi="perfect"))
        assert run_trial(scenario, 0.1, 0).sq_err == 0.0

    def test_perfect_csi_dominates_estimated(self):
        cfg = FtnConfig()
        sv2 = ebn0_to_sigma_v2(cfg, 8.0)
        est = build_scenario(cfg)
        per = build_scenario(replace(cfg, csi="perfect"))
        n = 1000
        e_est = sum(run_trial(est, sv2, i).bit_errors for i in range(n))
        e_per = sum(run_trial(per, sv2, i).bit_errors for i in range(n))
        assert e_per <= e_est


class TestRunSweep:
    def test_empty_grid(self):
        table = run_sweep(replace(FtnConfig(), ebn0_grid_db=()))
        assert table.rows == []

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
        assert run_sweep(replace(cfg, csi="perfect")).rows[0].mse_theory is None

    def test_measured_power_reported(self):
        cfg = replace(FtnConfig(), **FAST)
        row = run_sweep(cfg).rows[0]
        assert row.measured_tx_power == pytest.approx(2 * (1 - 1 / 16), rel=0.05)

    def test_golden_counts(self):
        # integer columns are immune to last-ulp float differences across
        # platforms; a change that alters the simulated numbers updates them
        golden = {101: [(10, 224), (43, 120), (150, 3)],
                  202: [(10, 202), (27, 105), (150, 7)]}
        for seed, counts in golden.items():
            cfg = replace(FtnConfig(), seed=seed, ebn0_grid_db=(4.0, 10.0, 16.0),
                          min_trials=10, max_trials=150, target_bit_errors=100)
            assert [(r.trials, r.bit_errors) for r in run_sweep(cfg).rows] == counts


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
        assert doc["config"] == as_dict(cfg)
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

    def test_validate_bad_config(self, cfg_file):
        proc = run_cli("validate", "--config", cfg_file, "--override", "L=9")
        assert proc.returncode == 2

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

    def test_mse_theory(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        proc = run_cli("mse-theory", "--config", cfg_file, "--out", str(out))
        assert proc.returncode == 0
        body = (out / "mse_theory.csv").read_text()
        assert body.startswith("tau,ebn0_db,sigma_v2,mse_ls,mse_mmse")

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("validate", "--config", str(tmp_path / "none.cfg"))
        assert proc.returncode == 3
