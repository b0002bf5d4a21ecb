"""Faster-than-Nyquist link simulator with superimposed-pilot channel estimation."""

from .config import ConfigError, FtnConfig, load_config
from .harness import (build_cell, build_scenario, ebn0_to_sigma_v2, emit_results,
                      run_sweep, run_trial, simulate_ce_mse)

__version__ = "0.1.0"
