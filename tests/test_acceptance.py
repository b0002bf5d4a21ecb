"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing capture) so the run log
doubles as an acceptance report.  Criteria 1-4 are statistical and use
fixed seeds; 5-7 are exact closures, an exhaustive toy oracle, and a
byte-level determinism check.
"""

from dataclasses import replace

import numpy as np
import pytest

from ftnsim.channel import sample_channel, transmit_fast
from ftnsim.chanest import (estimate_channel, theoretical_mse_ls,
                            theoretical_mse_mmse)
from ftnsim.config import FtnConfig
from ftnsim.core import circulant_matvec, complex_gaussian, dft, make_rng
from ftnsim.detector import ista_detect, map_bits
from ftnsim.harness import (build_scenario, ebn0_to_sigma_v2, emit_results,
                            run_sweep, run_trial, simulate_ce_mse)
from ftnsim.pilot import SiaProjector, apply_projector, compose_tx
from ftnsim.waveform import FtnParams, make_isi_kernel
from oracles import circulant_dense, projector_dense, transmit_exact

EBN0_GRID = (4.0, 8.0, 12.0, 16.0)
TAUS = (0.8, 0.9)
MSE_TRIALS = 100_000


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        with capsys.disabled():
            print(f"\n[acceptance] criterion {num}: "
                  f"{'PASS' if ok else 'FAIL'} -- {detail}")
        assert ok, detail
    return _report


@pytest.fixture(scope="module")
def mse_grid():
    """Simulated and theoretical CE MSE over tau x Eb/N0 x criterion.

    Shared by the agreement and ordering criteria; LS and MMSE see the
    same channel/data/noise realizations inside simulate_ce_mse.
    """
    cfg = FtnConfig(ebn0_grid_db=EBN0_GRID)
    grid = {}
    for tau in TAUS:
        scenario = build_scenario(cfg, tau)
        for ebn0 in EBN0_GRID:
            sv2 = ebn0_to_sigma_v2(cfg, ebn0, tau=tau)
            sim = simulate_ce_mse(cfg, tau, sv2, MSE_TRIALS, seed=2026)
            theory = {
                "ls": theoretical_mse_ls(scenario.tables, cfg.L, sv2),
                "mmse": theoretical_mse_mmse(scenario.tables, cfg.L, sv2),
            }
            grid[(tau, ebn0)] = (sim, theory)
    return grid


def test_criterion_1_theory_simulation_mse_agreement(mse_grid, report):
    worst = 0.0
    for (tau, ebn0), (sim, theory) in mse_grid.items():
        for crit in ("ls", "mmse"):
            mean, se = sim[crit]
            dev = abs(mean - theory[crit]) / se
            worst = max(worst, dev)
    report(1, worst < 3.0,
           f"CE MSE within 3 combined std errors of theory on "
           f"tau x Eb/N0 x {{LS,MMSE}} grid ({MSE_TRIALS} trials/point, "
           f"worst deviation {worst:.2f} se)")


def test_criterion_2_mmse_beats_ls_with_shrinking_gap(mse_grid, report):
    ordered = all(sim["mmse"][0] <= sim["ls"][0]
                  for sim, _ in mse_grid.values())
    monotone = True
    checked = 0
    for tau in TAUS:
        gaps = []
        for ebn0 in EBN0_GRID:
            sim, _ = mse_grid[(tau, ebn0)]
            gap = sim["ls"][0] - sim["mmse"][0]
            # paired trials: the variance of the gap estimate is far below
            # the individual std errors, so use the conservative combination
            gap_se = np.hypot(sim["ls"][1], sim["mmse"][1])
            gaps.append((gap, gap_se))
        for (g0, s0), (g1, s1) in zip(gaps, gaps[1:]):
            if abs(g0 - g1) > 1.96 * np.hypot(s0, s1):
                checked += 1
                monotone &= g1 < g0
    report(2, ordered and monotone and checked > 0,
           f"simulated MSE(MMSE) <= MSE(LS) at every grid point; gap "
           f"decreases with SNR on all {checked} CI-separated consecutive "
           f"pairs")


def test_criterion_3_alignment_removes_data_interference(report):
    cfg = FtnConfig()
    sv2 = ebn0_to_sigma_v2(cfg, 12.0)
    powers = (0.0, 1.0, 4.0)
    with_sia = [simulate_ce_mse(cfg, 0.8, sv2, 20_000, criteria=("ls",),
                                sigma_s2=p, seed=7)["ls"] for p in powers]
    spread = max(m for m, _ in with_sia) - min(m for m, _ in with_sia)
    ci = 1.96 * max(se for _, se in with_sia)
    invariant = spread < ci  # matched noise seeds: spread is ~1e-16

    cfg_off = replace(cfg, sia=False)
    without = [simulate_ce_mse(cfg_off, 0.8, sv2, 20_000, criteria=("ls",),
                               sigma_s2=p, seed=7)["ls"][0] for p in powers]
    grows = without[0] < without[1] < without[2]
    report(3, invariant and grows,
           f"aligned CE MSE invariant to data power (spread {spread:.2e} "
           f"within CI {ci:.2e}); unaligned MSE grows "
           f"{without[0]:.4f} < {without[1]:.4f} < {without[2]:.4f}")


def _ber(cfg, sigma_v2, n_trials):
    scenario = build_scenario(cfg)
    errors = sum(run_trial(scenario, sigma_v2, i).bit_errors
                 for i in range(n_trials))
    bits = n_trials * cfg.N * 2
    p = errors / bits
    return p, np.sqrt(p * (1 - p) / bits)


def _separated(lo, hi):
    return hi[0] - lo[0] > 1.96 * np.hypot(lo[1], hi[1])


def test_criterion_4_ber_orderings(report):
    # the all-N convention keeps sigma_v2 identical across receiver
    # configurations, so the noise realizations are matched
    cfg = FtnConfig(se_convention="paper_all_n")
    sv2 = ebn0_to_sigma_v2(cfg, 10.0)
    n = 2000
    perfect = _ber(replace(cfg, csi="perfect"), sv2, n)
    aligned = _ber(cfg, sv2, n)
    unaligned = _ber(replace(cfg, sia=False, ce_criterion="ls"), sv2, n)
    chain = _separated(perfect, aligned) and _separated(aligned, unaligned)

    fast = _ber(replace(cfg, tau=0.7), ebn0_to_sigma_v2(cfg, 10.0, tau=0.7), n)
    slow = _ber(replace(cfg, tau=0.9), ebn0_to_sigma_v2(cfg, 10.0, tau=0.9), n)
    degrades = _separated(slow, fast)
    report(4, chain and degrades,
           f"BER {perfect[0]:.4f} (perfect) < {aligned[0]:.4f} (aligned+MMSE) "
           f"< {unaligned[0]:.4f} (superimposed, no alignment), each beyond "
           f"95% CI; tau=0.7 BER {fast[0]:.4f} > tau=0.9 BER {slow[0]:.4f}")


def test_criterion_5_exact_chain_closures(report):
    checks = []

    kernel = make_isi_kernel(FtnParams(tau=0.8, beta=0.5, nu=10, N=64))
    chan = sample_channel(8, 64, make_rng(50))
    x = complex_gaussian(64, 1.0, make_rng(51))
    ye = transmit_exact(x, chan, kernel, guard=kernel.params.nu + 7)
    checks.append(("transmit closure", np.abs(ye - transmit_fast(x, chan, kernel)).max(), 1e-10))

    scenario = build_scenario(FtnConfig())
    chan = sample_channel(8, 128, make_rng(52))
    x = compose_tx(np.zeros(128, complex), scenario.x_p, scenario.pilot_cfg)
    y_fd = dft(transmit_fast(x, chan, scenario.kernel))
    est = estimate_channel(y_fd, scenario.tables, 8, 128, "ls")
    checks.append(("CE recovery", float(np.linalg.norm(est.h_hat - chan.h)), 1e-9))

    rng = make_rng(53)
    s = map_bits(rng.integers(0, 2, 256), scenario.cfg.sigma_s2)
    fd = dft(apply_projector(s, scenario.proj))
    checks.append(("spectral zeroing", float(np.abs(fd[::16]).max()), 1e-12))

    psi = projector_dense(P=4, Q=8)
    checks.append(("projector idempotence", float(np.abs(psi @ psi - psi).max()), 1e-12))
    checks.append(("projector pseudo-inverse", float(np.abs(np.linalg.pinv(psi) - psi).max()), 1e-12))

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 65))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst = max(worst, float(np.abs(circulant_matvec(np.fft.fft(c), v)
                                        - circulant_dense(c) @ v).max()))
    checks.append(("circulant vs dense (N<=64)", worst, 1e-10))

    ok = all(err < tol for _, err, tol in checks)
    detail = "; ".join(f"{name} {err:.1e}<{tol:.0e}" for name, err, tol in checks)
    report(5, ok, detail)


def test_criterion_6_exhaustive_toy_detection(report):
    # N=8, (P,Q)=(2,4): the projector decouples the two residue classes,
    # so the exact nearest-codeword search is a per-class table lookup
    proj = SiaProjector(P=2, Q=4)
    points = map_bits([0, 0, 0, 1, 1, 0, 1, 1], 1.0)

    digits = (np.arange(4 ** 8)[:, None] // 4 ** np.arange(8)[None, :]) % 4
    s_all = points[digits]                 # all 65536 data blocks
    u_all = apply_projector(s_all, proj)   # noise-free detector input

    cand = points[(np.arange(256)[:, None] // 4 ** np.arange(4)[None, :]) % 4]
    cand_proj = cand - cand.mean(axis=1, keepdims=True)
    cand_energy = np.sum(np.abs(cand_proj) ** 2, axis=1)

    s_bf = np.empty_like(s_all)
    unique = np.ones(len(s_all), bool)
    for cls in range(2):
        u_cls = u_all[:, cls::2]
        d = (np.sum(np.abs(u_cls) ** 2, axis=1)[:, None]
             - 2 * (u_cls @ cand_proj.conj().T).real + cand_energy[None, :])
        order = np.sort(d, axis=1)
        unique &= order[:, 1] - order[:, 0] > 1e-9
        s_bf[:, cls::2] = cand[np.argmin(d, axis=1)]

    s_ista, _ = ista_detect(u_all, proj, 1.0, n_iter=3)
    agree = np.abs(s_ista[unique] - s_bf[unique]).max() < 1e-12
    report(6, agree and unique.sum() > 0,
           f"ista_detect matches brute-force nearest-codeword search on all "
           f"{int(unique.sum())}/{len(s_all)} uniquely decodable blocks")


def test_criterion_7_determinism_across_workers(tmp_path, report):
    cfg = FtnConfig(ebn0_grid_db=(0.0, 6.0, 10.0), min_trials=25,
                    max_trials=25, target_bit_errors=10 ** 9)
    p1 = emit_results(run_sweep(cfg, workers=1), "csv", str(tmp_path / "w1"))[0]
    p3 = emit_results(run_sweep(cfg, workers=3), "csv", str(tmp_path / "w3"))[0]
    same = open(p1, "rb").read() == open(p3, "rb").read()
    report(7, same, "identical config + seed give byte-identical CSV with "
                    "1 and 3 workers")
