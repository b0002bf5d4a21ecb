"""What spectral interference alignment does to the transmit spectrum.

The repeated Chu pilot concentrates all of its energy on the comb bins
k = iQ.  Random QPSK data spills energy everywhere -- including the comb,
where it would corrupt channel estimation.  Subtracting the data's cyclic
mean (the projector Psi = I - J) zeroes the data spectrum on exactly those
bins while leaving every other bin untouched.

Run:  python3 demos/sia_spectrum.py
"""

import numpy as np

from ftnsim.config import FtnConfig
from ftnsim.core import dft, make_rng
from ftnsim.detector import map_bits
from ftnsim.harness import build_scenario
from ftnsim.pilot import apply_projector


def band(label, fd, comb):
    on = np.sum(np.abs(fd[comb]) ** 2)
    off = np.sum(np.abs(fd) ** 2) - on
    print(f"  {label:<28} comb energy {on:10.3e}   off-comb {off:10.3e}")


def main():
    cfg = FtnConfig()
    scenario = build_scenario(cfg)
    rng = make_rng(cfg.seed)
    comb = np.zeros(cfg.N, bool)
    comb[:: cfg.Q] = True

    s = map_bits(rng.integers(0, 2, cfg.N * 2), cfg.sigma_s2)
    print(f"N = {cfg.N}, pilot comb = every {cfg.Q}-th bin ({cfg.P} bins)\n")
    band("pilot alone", dft(scenario.x_p), comb)
    band("raw QPSK data", dft(s), comb)
    band("data after alignment", dft(apply_projector(s, scenario.proj)), comb)

    fd_s = dft(s)
    fd_t = dft(apply_projector(s, scenario.proj))
    moved = np.abs(fd_t[~comb] - fd_s[~comb]).max()
    print(f"\n  largest off-comb change from the projector: {moved:.2e}")
    print("\nAfter alignment the comb carries pilot energy only, so the")
    print("estimator sees an interference-free channel observation.")


if __name__ == "__main__":
    main()
