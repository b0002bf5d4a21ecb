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
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import chanest, detector, pilot
from .channel import colored_noise, phi_diag, sample_channel, tap_power, transmit_fast
from .config import FtnConfig, scenario_hash
from .core import circulant_matvec, complex_gaussian, dft, dft_rows, make_rng, read_only
from .waveform import build_isi_circulant

# substream tags within one trial
_SUB_CHANNEL, _SUB_DATA, _SUB_NOISE = 0, 1, 2

_BITS_PER_SYMBOL = 2  # QPSK, the only modulation the config accepts

# trials per vectorized block (and per RNG key) in simulate_ce_mse
_CE_CHUNK = 20_000
# QPSK symbols drawn at a time by an unaligned simulate_ce_mse chunk
_DATA_SLICE = 2**17


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


def _snr_db(cfg: FtnConfig, ebn0_db: float, tau: float | None):
    """1/sigma_v2 (dB), the SNR at unit data power, = Eb/N0 (dB) + 10 log10(SE)."""
    return ebn0_db + 10.0 * np.log10(spectral_efficiency(cfg, tau))


def ebn0_to_sigma_v2(cfg: FtnConfig, ebn0_db: float, tau: float | None = None) -> float:
    return 1.0 / 10.0 ** (_snr_db(cfg, ebn0_db, tau) / 10.0)


@dataclass(frozen=True)
class Scenario:
    """Everything per (config, tau) that is constant across trials; its arrays are read-only."""

    cfg: FtnConfig
    tau: float
    lambda_g: np.ndarray = field(repr=False)       # ISI eigenvalues at this tau
    x_p: np.ndarray = field(repr=False)
    tables: chanest.CombTables = field(repr=False)
    noise_factor: np.ndarray = field(repr=False)   # sqrt(phi_diag)
    phi_diag: np.ndarray = field(repr=False)


def build_scenario(cfg: FtnConfig, tau: float | None = None) -> Scenario:
    if tau is None:
        tau = cfg.tau
    # a tau off the config's grid (simulate_ce_mse) is checked like one on it
    replace(cfg, tau=tau).validate()
    _, lambda_g = build_isi_circulant(tau, cfg.beta, cfg.nu, cfg.N)
    x_p = pilot.chu_pilot(cfg.P, cfg.Q)
    phi = phi_diag(lambda_g)
    return Scenario(cfg=cfg, tau=tau, lambda_g=read_only(lambda_g), x_p=read_only(x_p),
                    tables=chanest.build_comb_tables(lambda_g, x_p, cfg.Q),
                    noise_factor=read_only(np.sqrt(phi)), phi_diag=read_only(phi))


@dataclass(frozen=True)
class Cell:
    """Everything per (tau, Eb/N0) sweep cell that is constant across its trials; read-only."""

    scenario: Scenario
    sigma_v2: float
    first_stream: int                               # RNG stream of trial 0
    ce_w: np.ndarray | None = field(repr=False)     # CE comb weights; None for perfect CSI


def build_cell(scenario: Scenario, sigma_v2: float, cell_index: int = 0) -> Cell:
    """The cell at ``sigma_v2``; trial i draws from stream ``cell_index * max_trials + i``.

    An LS cell on an ill-conditioned comb raises IllConditionedCombError here.
    """
    cfg = scenario.cfg
    ce_w = (None if cfg.ce_criterion == "perfect" else
            read_only(chanest.ce_weights(scenario.tables, sigma_v2, cfg.L, cfg.ce_criterion)))
    return Cell(scenario, sigma_v2, cell_index * cfg.max_trials, ce_w)


def _qpsk_bits(rng, n_symbols: int) -> np.ndarray:
    """``rng.integers(0, 2, 2 * n_symbols)`` of a fresh PCG64 ``rng``, as uint32.

    At range 2 Lemire's method keeps the top bit of each 32-bit draw, and
    PCG64 splits a word low half first, as numpy's little-endian view does.
    """
    return rng.bit_generator.random_raw(n_symbols).view(np.uint32) >> 31


@dataclass
class TrialResult:
    bit_errors: int
    sq_err: float
    tx_power: float


def run_trial(cell: Cell, trial_index: int) -> TrialResult:
    """One full tx -> channel -> CE -> FDE -> detection trial."""
    scenario, sigma_v2 = cell.scenario, cell.sigma_v2
    cfg = scenario.cfg
    stream = cell.first_stream + trial_index
    rng_ch = make_rng(cfg.seed, stream, _SUB_CHANNEL)
    rng_data = make_rng(cfg.seed, stream, _SUB_DATA)
    rng_noise = make_rng(cfg.seed, stream, _SUB_NOISE)

    h, lambda_h = sample_channel(cfg.L, cfg.N, rng_ch)
    bits = _qpsk_bits(rng_data, cfg.N)
    s = detector.map_bits(bits)
    x = pilot.compose_tx(s, scenario.x_p, cfg.Q, cfg.sia)

    # the receiver reads only the spectrum, so it is formed per bin
    y_tilde = transmit_fast(dft(x), lambda_h, scenario.lambda_g,
                            noise=colored_noise(scenario.noise_factor, sigma_v2, rng_noise))

    if cfg.ce_criterion == "perfect":
        lambda_eq = lambda_h
        sq_err = 0.0
    else:
        h_hat, lambda_eq = chanest.estimate_channel(y_tilde, scenario.tables, cfg.L, cell.ce_w)
        sq_err = float(np.add.reduce(np.abs(h - h_hat) ** 2))

    # the noise-to-signal ratio at unit data power; alignment scales both
    # powers by (1 - 1/Q), which cancels in their ratio
    w = detector.fde_weights(lambda_eq, scenario.lambda_g, scenario.phi_diag, sigma_v2)
    z_tilde = detector.zero_pilot_bins(y_tilde, cfg.Q)
    u = detector.equalize(z_tilde, w)

    # unaligned, the slice of u is the whole detector: ista_detect at 0 iterations
    _, bits_hat = detector.ista_detect(u, cfg.Q, cfg.n_ista if cfg.sia else 0)

    # np.add.reduce and the divide are the ufunc calls np.sum / np.mean make
    power = np.abs(x) ** 2
    return TrialResult(
        bit_errors=int(np.count_nonzero(bits != bits_hat)),
        sq_err=sq_err,
        tx_power=float(np.add.reduce(power) / power.size),
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
    ber_ci95: float   # from the per-trial error counts: errors cluster within a block
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


def theory_mse(scenario: Scenario, sigma_v2: float, criterion: str):
    """Closed-form CE MSE of ``criterion``; None for perfect CSI and with alignment off."""
    cfg = scenario.cfg
    if not cfg.sia or criterion == "perfect":
        return None
    if criterion == "ls":
        return chanest.theoretical_mse_ls(scenario.tables, cfg.L, sigma_v2)
    return chanest.theoretical_mse_mmse(scenario.tables, cfg.L, sigma_v2)


def _mean_se(total: float, total_sq: float, n: int):
    """Sample mean of n values and its standard error, from their sum and sum of squares."""
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0)
    return mean, float(np.sqrt(var / n))


def run_cell(cfg: FtnConfig, tau: float, ebn0_db: float, cell_index: int) -> SweepRow:
    """Run trials for one (tau, Eb/N0) cell until the stopping rule fires."""
    t0 = time.perf_counter()
    scenario = build_scenario(cfg, tau)
    cell = build_cell(scenario, ebn0_to_sigma_v2(cfg, ebn0_db, tau), cell_index)

    bit_errors = 0
    err_sumsq = 0
    trials = 0
    sq_sum = 0.0
    sq_sumsq = 0.0
    power_sum = 0.0
    while trials < cfg.max_trials:
        res = run_trial(cell, trials)
        trials += 1
        bit_errors += res.bit_errors
        err_sumsq += res.bit_errors**2
        sq_sum += res.sq_err
        sq_sumsq += res.sq_err**2
        power_sum += res.tx_power
        if trials >= cfg.min_trials and bit_errors >= cfg.target_bit_errors:
            break

    bits_per_trial = cfg.N * _BITS_PER_SYMBOL
    ber = bit_errors / (trials * bits_per_trial)
    _, errors_se = _mean_se(bit_errors, err_sumsq, trials)
    mse, mse_se = _mean_se(sq_sum, sq_sumsq, trials)
    return SweepRow(
        scenario_hash=scenario_hash(cfg), tau=tau, ebn0_db=ebn0_db,
        snr_db=float(_snr_db(cfg, ebn0_db, tau)), trials=trials, bit_errors=bit_errors,
        ber=ber, ber_ci95=1.96 * errors_se / bits_per_trial, mse_sim=mse,
        mse_ci95=1.96 * mse_se,
        mse_theory=theory_mse(scenario, cell.sigma_v2, cfg.ce_criterion),
        measured_tx_power=power_sum / trials,
        wall_s=time.perf_counter() - t0,
        # only a cell that estimates the channel reads the comb
        flagged_trials=trials if cfg.ce_criterion != "perfect" and scenario.tables.bad_bins else 0,
    )


def run_sweep(cfg: FtnConfig, workers: int = 1) -> SweepTable:
    """Run every (tau, Eb/N0) cell; cells execute concurrently on worker processes."""
    cfg.validate()
    cells = [(tau, ebn0) for tau in cfg.taus() for ebn0 in cfg.ebn0_grid_db]
    if workers <= 1 or len(cells) <= 1:
        rows = [run_cell(cfg, tau, ebn0, i) for i, (tau, ebn0) in enumerate(cells)]
    else:
        # imported here: the pool machinery adds ~10 ms to every import of ftnsim
        from concurrent.futures import ProcessPoolExecutor
        # the cells with the fewest errors per trial run the most trials, so
        # the highest Eb/N0 goes first (longest job first); the sort is stable,
        # so ties keep grid order.  Each cell keeps its index, and so its streams.
        order = sorted(range(len(cells)), key=lambda i: cells[i][1], reverse=True)
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            futures = {i: pool.submit(run_cell, cfg, *cells[i], i) for i in order}
            rows = [futures[i].result() for i in range(len(cells))]
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
            "config": asdict(table.cfg),
            "scenario_hash": scenario_hash(table.cfg),
            "rows": [row_values(r) for r in table.rows],
        }
        with open(fname, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        written.append(fname)
    return written


def simulate_ce_mse(cfg: FtnConfig, tau: float, sigma_v2: float, n_trials: int,
                    criteria=("ls", "mmse"), sigma_s2: float = 1.0,
                    seed: int | None = None):
    """Vectorized CE-only Monte Carlo through the transmit chain, formed on the comb only.

    Runs every requested estimator, each named once, on the same channel /
    data / noise realizations and returns {criterion: (mse_mean, mse_stderr)}.
    Channel, data, and noise use independent substreams per chunk, so the
    noise (and channel) realizations are matched across different data
    powers ``sigma_s2``; the pilot keeps the config's power 1 - 1/Q at each.

    CE reads only the P comb bins k = iQ, so only those are formed.  The
    comb of the unitary N-point spectrum is the unitary P-point DFT of the
    block's Q-fold segment sum, over sqrt(Q); the fold of Theta x is the
    P-point circulant product of Theta's comb eigenvalues with the fold of
    x; and since L <= P, lambda_h on the comb is the P-point DFT of the
    taps.  The fold of the transmit block is composed from the folds of
    the data and the pilot, fold_Q(compose_tx(s, x_p, Q)) =
    compose_tx(fold_Q s, fold_Q x_p, 1), because the fold of Psi s is 0.
    With alignment on the data term is exactly 0, so no data is drawn: the
    data substream is keyed but unused, and the results do not depend on
    ``sigma_s2``.  With alignment off the (b, N) unit-power QPSK blocks are
    drawn as ``run_trial`` draws them, ``_DATA_SLICE`` symbols at a time, and
    folded, then scaled to ``sigma_s2``.
    The noise is drawn on the comb only: the unitary DFT
    of white CN(0, I) noise is white CN(0, I), so a (b, P) draw scaled by
    the comb's noise factor has exactly the distribution of the full-band
    noise spectrum's comb.  The channel and data draws are those of the
    full-band chain; the noise draws are not, so results match it in
    distribution only.
    """
    # a repeated criterion would pool its errors twice
    if not criteria or len(set(criteria)) != len(criteria):
        raise ValueError(f"need distinct CE criteria, got {tuple(criteria)!r}")
    if n_trials < 1:
        raise ValueError(f"need n_trials >= 1, got {n_trials}")
    # the comparisons are False for NaN, so it is rejected too
    if not 0.0 <= sigma_s2 < math.inf:
        raise ValueError(f"need 0 <= sigma_s2 < inf, got {sigma_s2}")
    if not 0.0 <= sigma_v2 < math.inf:
        raise ValueError(f"need 0 <= sigma_v2 < inf, got {sigma_v2}")
    if seed is None:
        seed = cfg.seed
    scenario = build_scenario(cfg, tau)
    L, P, Q = cfg.L, cfg.P, cfg.Q
    x_p_fold = np.add.reduce(scenario.x_p.reshape(Q, P), axis=0)
    noise_comb = chanest.extract_comb(scenario.noise_factor, Q)

    # one (criteria, 1, P) stack weighs the comb for every criterion in one
    # product; LS raises on an ill-conditioned comb here, before any draw
    weights = np.stack([chanest.ce_weights(scenario.tables, sigma_v2, L, c)
                        for c in criteria])[:, None]
    sums = {c: 0.0 for c in criteria}
    sumsqs = {c: 0.0 for c in criteria}
    done = 0
    chunk_idx = 0
    while done < n_trials:
        b = min(_CE_CHUNK, n_trials - done)
        rng_h = make_rng(seed, chunk_idx, _SUB_CHANNEL)
        rng_s = make_rng(seed, chunk_idx, _SUB_DATA)
        rng_w = make_rng(seed, chunk_idx, _SUB_NOISE)

        h = complex_gaussian((b, L), tap_power(L), rng_h)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        lam = h @ dft_rows(L, P)      # comb eigenvalues of Theta: lambda_g * lambda_h
        lam *= scenario.lambda_g[::Q]

        # aligned, the data's fold is annihilated, so none is drawn; the
        # (b, P) broadcast keeps the FFTs on their 2-d path, bit for bit.
        # Unaligned, the blocks are drawn a slice of trials at a time: PCG64's
        # raw words run on across calls, so the draws are those of one call
        if cfg.sia:
            s_fold = np.zeros(P)
        else:
            s_fold = np.empty((b, P), complex)
            step = max(1, _DATA_SLICE // cfg.N)
            for lo in range(0, b, step):
                n = min(step, b - lo)
                s = detector.map_bits(_qpsk_bits(rng_s, n * cfg.N)).reshape(n, Q, P)
                np.add.reduce(s, axis=1, out=s_fold[lo:lo + n])
            s_fold *= math.sqrt(sigma_s2)
        x_fold = np.broadcast_to(pilot.compose_tx(s_fold, x_p_fold, 1, cfg.sia), (b, P))
        comb = dft(circulant_matvec(lam, x_fold))
        comb /= math.sqrt(Q)
        comb += colored_noise(noise_comb, sigma_v2, rng_w, trials=b)

        d_hat = chanest.ce_mmse(comb, weights)
        for k, crit in enumerate(criteria):
            h_hat = chanest.fd_to_td(d_hat[k], L)
            errs = np.sum(np.abs(h - h_hat) ** 2, axis=1)
            sums[crit] += float(errs.sum())
            sumsqs[crit] += float(np.sum(errs**2))
        done += b
        chunk_idx += 1

    return {crit: _mean_se(sums[crit], sumsqs[crit], n_trials) for crit in criteria}
