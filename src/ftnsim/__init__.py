"""Faster-than-Nyquist link simulator with superimposed-pilot channel estimation."""

from .channel import (ChannelRealization, ColoredNoiseGen, colored_noise,
                      sample_channel, transmit_fast)
from .chanest import (CombTables, build_comb_tables, ce_ls, ce_mmse,
                      estimate_channel, extract_comb, fd_to_td,
                      theoretical_mse_ls, theoretical_mse_mmse)
from .config import ConfigError, FtnConfig, load_config, scenario_hash
from .core import circulant_eigenvalues, complex_gaussian, dft, idft, make_rng
from .detector import (demap_bits, equalize, fde_weights, ista_detect,
                       map_bits, zero_pilot_bins)
from .harness import (Scenario, SweepRow, SweepTable, build_scenario,
                      ebn0_to_sigma_v2, emit_results, run_cell, run_sweep,
                      run_trial, simulate_ce_mse, spectral_efficiency)
from .pilot import (PilotConfig, SiaProjector, apply_projector, chu_pilot,
                    compose_tx, sia_pilot_power)
from .waveform import (FtnParams, IsiKernel, build_isi_circulant,
                       make_isi_kernel, rc_autocorrelation)

__version__ = "0.1.0"
