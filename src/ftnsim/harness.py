"""Seeded Monte Carlo execution over (tau, Eb/N0) grids with BER/MSE aggregation.

A sweep cell runs trials sequentially until the target error count or the
trial cap; cells are independent and may run on worker processes.  Every
random draw is keyed by (seed, cell, trial, substream), so results are
bit-identical regardless of worker count, and channel / data / noise draws
can be matched independently across scenarios.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import chanest, detector, pilot
from .channel import (ColoredNoiseGen, colored_noise, noise_factor, sample_channel,
                      transmit_fast)
from .config import FtnConfig, as_dict, scenario_hash
from .core import circulant_matvec, complex_gaussian, dft, make_rng
from .waveform import FtnParams, make_isi_kernel

# substream tags within one trial
_SUB_CHANNEL, _SUB_DATA, _SUB_NOISE = 0, 1, 2

_BITS_PER_SYMBOL = 2  # QPSK, the only modulation the config accepts

# trials per vectorized block (and per RNG key) in simulate_ce_mse
_CE_CHUNK = 20_000


def spectral_efficiency(cfg: FtnConfig, tau: float | None = None) -> float:
    """Spectrum efficiency in bits per Nyquist-symbol time.

    ``info_dims`` counts the N - P complex dimensions that survive the
    alignment projector; ``paper_all_n`` counts all N symbols.  Both divide
    by the guard-extended block duration (N + 2 nu) * tau.
    """
    if tau is None:
        tau = cfg.tau
    dims = cfg.N - cfg.P if cfg.se_convention == "info_dims" else cfg.N
    return _BITS_PER_SYMBOL * dims / ((cfg.N + 2 * cfg.nu) * tau)


def ebn0_to_sigma_v2(cfg: FtnConfig, ebn0_db: float, tau: float | None = None) -> float:
    """sigma_s2/sigma_v2 (dB) = Eb/N0 (dB) + 10 log10(SE)."""
    snr_db = ebn0_db + 10.0 * np.log10(spectral_efficiency(cfg, tau))
    return cfg.sigma_s2 / 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class Scenario:
    """Everything per (config, tau) that is constant across trials."""

    cfg: FtnConfig
    tau: float
    kernel: object = field(repr=False)
    pilot_cfg: pilot.PilotConfig = field(repr=False)
    x_p: np.ndarray = field(repr=False)
    tables: chanest.CombTables = field(repr=False)
    proj: pilot.SiaProjector = field(repr=False)
    noise_factor: np.ndarray = field(repr=False)   # clipped sqrt(lambda_g)
    phi_diag: np.ndarray = field(repr=False)
    comb_flagged: bool = False


def build_scenario(cfg: FtnConfig, tau: float | None = None) -> Scenario:
    cfg.validate()
    if tau is None:
        tau = cfg.tau
    kernel = make_isi_kernel(FtnParams(tau=tau, beta=cfg.beta, nu=cfg.nu, N=cfg.N))
    sigma_p2 = pilot.sia_pilot_power(cfg.sigma_s2, cfg.Q)
    pcfg = pilot.PilotConfig(P=cfg.P, Q=cfg.Q, sigma_p2=sigma_p2, sia_enabled=cfg.sia)
    tables = chanest.build_comb_tables(kernel, pcfg)
    flagged = False
    try:
        tables.check_conditioning()
    except chanest.IllConditionedCombError:
        flagged = True
    return Scenario(cfg=cfg, tau=tau, kernel=kernel, pilot_cfg=pcfg,
                    x_p=pilot.chu_pilot(pcfg), tables=tables,
                    proj=pilot.SiaProjector(cfg.P, cfg.Q),
                    noise_factor=noise_factor(kernel), phi_diag=kernel.phi_diag(),
                    comb_flagged=flagged)


@dataclass
class TrialResult:
    bit_errors: int
    n_bits: int
    sq_err: float
    tx_power: float
    flagged: bool = False


def run_trial(scenario: Scenario, sigma_v2: float, trial_index: int,
              cell_index: int = 0) -> TrialResult:
    """One full tx -> channel -> CE -> FDE -> detection trial."""
    cfg = scenario.cfg
    stream = cell_index * cfg.max_trials + trial_index
    rng_ch = make_rng(cfg.seed, stream, _SUB_CHANNEL)
    rng_data = make_rng(cfg.seed, stream, _SUB_DATA)
    rng_noise = make_rng(cfg.seed, stream, _SUB_NOISE)

    chan = sample_channel(cfg.L, cfg.N, rng_ch, nu=cfg.nu)
    bits = rng_data.integers(0, 2, cfg.N * _BITS_PER_SYMBOL)
    s = detector.map_bits(bits, cfg.sigma_s2)
    x = pilot.compose_tx(s, scenario.x_p, scenario.pilot_cfg)

    gen = ColoredNoiseGen(scenario.noise_factor, sigma_v2)
    y = transmit_fast(x, chan, scenario.kernel, noise=colored_noise(gen, rng_noise))
    y_tilde = dft(y)

    flagged = scenario.comb_flagged
    if cfg.csi == "perfect":
        lambda_eq = chan.lambda_h
        sq_err = 0.0
    else:
        est = chanest.estimate_channel(
            y_tilde, scenario.tables, cfg.L, cfg.N,
            criterion=cfg.ce_criterion, sigma_v2=sigma_v2, sigma_h2=1.0 / cfg.L)
        lambda_eq = est.lambda_eq
        sq_err = float(np.sum(np.abs(chan.h - est.h_hat) ** 2))

    scale = (1.0 - 1.0 / cfg.Q) if cfg.sia else 1.0
    weights = detector.fde_weights(
        lambda_eq, scenario.kernel.lambda_g, scenario.phi_diag,
        sigma_s2_eff=scale * cfg.sigma_s2, sigma_v2_eff=scale * sigma_v2,
        criterion=cfg.eq_criterion)
    z_tilde = detector.zero_pilot_bins(y_tilde, cfg.P, cfg.Q)
    u = detector.equalize(z_tilde, weights)

    if cfg.sia:
        _, bits_hat = detector.ista_detect(u, scenario.proj, cfg.sigma_s2, cfg.n_ista)
    else:
        hard = detector.project_nearest(u, cfg.sigma_s2)
        bits_hat = detector.demap_bits(hard)

    return TrialResult(
        bit_errors=int(np.count_nonzero(bits != bits_hat)),
        n_bits=len(bits),
        sq_err=sq_err,
        tx_power=float(np.mean(np.abs(x) ** 2)),
        flagged=flagged,
    )


@dataclass
class SweepRow:
    scenario_hash: str
    tau: float
    ebn0_db: float
    snr_db: float
    trials: int
    bit_errors: int
    ber: float
    ber_ci95: float
    mse_sim: float
    mse_ci95: float
    mse_theory: float | None
    measured_tx_power: float
    wall_s: float
    flagged_trials: int = 0


@dataclass
class SweepTable:
    cfg: FtnConfig
    rows: list


def _theory_mse(scenario: Scenario, sigma_v2: float):
    """Closed-form CE MSE where the interference-free derivation applies."""
    cfg = scenario.cfg
    if not cfg.sia or cfg.csi == "perfect":
        return None
    if cfg.ce_criterion == "ls":
        return chanest.theoretical_mse_ls(scenario.tables, cfg.L, sigma_v2)
    return chanest.theoretical_mse_mmse(scenario.tables, cfg.L, sigma_v2, 1.0 / cfg.L)


def run_cell(cfg: FtnConfig, tau: float, ebn0_db: float, cell_index: int) -> SweepRow:
    """Run trials for one (tau, Eb/N0) cell until the stopping rule fires."""
    t0 = time.perf_counter()
    scenario = build_scenario(cfg, tau)
    sigma_v2 = ebn0_to_sigma_v2(cfg, ebn0_db, tau)
    snr_db = ebn0_db + 10.0 * np.log10(spectral_efficiency(cfg, tau))

    bit_errors = 0
    n_bits = 0
    trials = 0
    flagged = 0
    sq_sum = 0.0
    sq_sumsq = 0.0
    power_sum = 0.0
    while trials < cfg.max_trials:
        res = run_trial(scenario, sigma_v2, trials, cell_index)
        trials += 1
        bit_errors += res.bit_errors
        n_bits += res.n_bits
        sq_sum += res.sq_err
        sq_sumsq += res.sq_err**2
        power_sum += res.tx_power
        flagged += int(res.flagged)
        if trials >= cfg.min_trials and bit_errors >= cfg.target_bit_errors:
            break

    ber = bit_errors / n_bits
    ber_ci95 = 1.96 * np.sqrt(max(ber * (1.0 - ber), 0.0) / n_bits)
    mse = sq_sum / trials
    var = max(sq_sumsq / trials - mse**2, 0.0)
    mse_ci95 = 1.96 * np.sqrt(var / trials)
    return SweepRow(
        scenario_hash=scenario_hash(cfg), tau=tau, ebn0_db=ebn0_db,
        snr_db=float(snr_db), trials=trials, bit_errors=bit_errors,
        ber=ber, ber_ci95=float(ber_ci95), mse_sim=mse, mse_ci95=float(mse_ci95),
        mse_theory=_theory_mse(scenario, sigma_v2),
        measured_tx_power=power_sum / trials,
        wall_s=time.perf_counter() - t0,
        flagged_trials=flagged,
    )


def run_sweep(cfg: FtnConfig, workers: int = 1) -> SweepTable:
    """Run every (tau, Eb/N0) cell; cells execute concurrently on worker processes."""
    cfg.validate()
    cells = [(tau, ebn0) for tau in cfg.taus() for ebn0 in cfg.ebn0_grid_db]
    if workers <= 1 or len(cells) <= 1:
        rows = [run_cell(cfg, tau, ebn0, i) for i, (tau, ebn0) in enumerate(cells)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, cfg, tau, ebn0, i)
                       for i, (tau, ebn0) in enumerate(cells)]
            rows = [f.result() for f in futures]
    return SweepTable(cfg=cfg, rows=rows)


CSV_COLUMNS = ["scenario_hash", "tau", "ebn0_db", "snr_db", "trials", "bit_errors",
               "ber", "ber_ci95", "mse_sim", "mse_ci95", "mse_theory",
               "measured_tx_power", "wall_s"]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_results(table: SweepTable, fmt: str = "csv", path: str = "results",
                 include_timing: bool = False) -> list:
    """Write results to <path>.csv / <path>.json; returns the files written.

    ``wall_s`` is zeroed unless timing output is requested, so that a fixed
    config + seed yields byte-identical files regardless of worker count.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    written = []
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise IOError(f"output directory does not exist: {directory}")

    def row_values(row):
        vals = {c: getattr(row, c) for c in CSV_COLUMNS}
        if not include_timing:
            vals["wall_s"] = 0.0
        return vals

    if fmt in ("csv", "both"):
        fname = path + ".csv"
        with open(fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in table.rows:
                vals = row_values(row)
                writer.writerow([_fmt(vals[c]) for c in CSV_COLUMNS])
        written.append(fname)
    if fmt in ("json", "both"):
        fname = path + ".json"
        doc = {
            "config": as_dict(table.cfg),
            "scenario_hash": scenario_hash(table.cfg),
            "rows": [row_values(r) for r in table.rows],
        }
        with open(fname, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        written.append(fname)
    return written


def simulate_ce_mse(cfg: FtnConfig, tau: float, sigma_v2: float, n_trials: int,
                    criteria=("ls", "mmse"), sigma_s2: float | None = None,
                    seed: int | None = None):
    """Vectorized CE-only Monte Carlo through the full transmit chain.

    Runs every requested estimator on the same channel / data / noise
    realizations and returns {criterion: (mse_mean, mse_stderr)}.  Channel,
    data, and noise use independent substreams per chunk, so the noise (and
    channel) realizations are matched across different ``sigma_s2`` values.
    """
    if sigma_s2 is None:
        sigma_s2 = cfg.sigma_s2
    if seed is None:
        seed = cfg.seed
    scenario = build_scenario(cfg, tau)
    kernel = scenario.kernel
    n, L, Q = cfg.N, cfg.L, cfg.Q
    # pilot power follows the configured (not the swept) data power
    gen = ColoredNoiseGen(scenario.noise_factor, sigma_v2)

    sums = {c: 0.0 for c in criteria}
    sumsqs = {c: 0.0 for c in criteria}
    done = 0
    chunk_idx = 0
    while done < n_trials:
        b = min(_CE_CHUNK, n_trials - done)
        rng_h = make_rng(seed, chunk_idx, _SUB_CHANNEL)
        rng_s = make_rng(seed, chunk_idx, _SUB_DATA)
        rng_w = make_rng(seed, chunk_idx, _SUB_NOISE)

        h = complex_gaussian(L, 1.0 / L, rng_h, shape=(b, L))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        lam_h = np.fft.fft(h, n=n, axis=-1)

        idx = rng_s.integers(0, 4, size=(b, n))
        s = detector.qpsk_symbols(idx, sigma_s2)
        x = pilot.compose_tx(s, scenario.x_p, scenario.pilot_cfg)

        eta = colored_noise(gen, rng_w, trials=b)
        y = circulant_matvec(kernel.lambda_g * lam_h, x) + eta
        comb = chanest.extract_comb(dft(y), cfg.P, Q)

        for crit in criteria:
            if crit == "ls":
                d_hat = chanest.ce_ls(comb, scenario.tables)
            else:
                d_hat = chanest.ce_mmse(comb, scenario.tables, sigma_v2, 1.0 / L)
            h_hat = chanest.fd_to_td(d_hat, cfg.P, L)
            errs = np.sum(np.abs(h - h_hat) ** 2, axis=1)
            sums[crit] += float(errs.sum())
            sumsqs[crit] += float(np.sum(errs**2))
        done += b
        chunk_idx += 1

    out = {}
    for crit in criteria:
        mean = sums[crit] / n_trials
        var = max(sumsqs[crit] / n_trials - mean**2, 0.0)
        out[crit] = (mean, float(np.sqrt(var / n_trials)))
    return out
