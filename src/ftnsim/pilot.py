"""Superimposed Chu pilot and the spectral-alignment projector.

The pilot is one length-P Chu sequence repeated Q times, so its spectrum
lives only on the comb bins k = i*Q.  The alignment step subtracts the
cyclic mean of the data (projector Psi = I - J with J = (1/Q) 1_Q (x) I_P),
which zeroes the data spectrum on exactly those bins.  Psi is idempotent,
symmetric, and its own pseudo-inverse; both J and Psi are applied in O(N)
without ever being materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PilotConfig:
    """Comb geometry and pilot power.

    With ``sia_enabled`` the pilot power follows the rebalancing rule
    sigma_p^2 = (1 - 1/Q) sigma_s^2; pass the resulting value explicitly.
    """

    P: int
    Q: int
    sigma_p2: float
    sia_enabled: bool = True

    def __post_init__(self):
        if self.P < 1 or self.Q < 1:
            raise ValueError("P and Q must be positive")
        if self.sia_enabled and self.Q < 2:
            raise ValueError("alignment needs Q >= 2 (Q = 1 would annihilate all data)")
        if self.sigma_p2 < 0:
            raise ValueError("sigma_p2 must be non-negative")

    @property
    def N(self) -> int:
        return self.P * self.Q


def sia_pilot_power(sigma_s2: float, Q: int) -> float:
    """Rebalanced pilot power per symbol under alignment: (1 - 1/Q) sigma_s2."""
    return (1.0 - 1.0 / Q) * sigma_s2


def chu_sequence(P: int) -> np.ndarray:
    """Unit-modulus root-1 Chu sequence of length P (flat DFT magnitude)."""
    n = np.arange(P)
    if P % 2 == 0:
        phase = np.pi * n**2 / P
    else:
        phase = np.pi * n * (n + 1) / P
    return np.exp(1j * phase)


def chu_pilot(cfg: PilotConfig) -> np.ndarray:
    """Q-fold repetition of one Chu sequence, scaled to per-symbol power sigma_p2."""
    c = np.sqrt(cfg.sigma_p2) * chu_sequence(cfg.P)
    return np.tile(c, cfg.Q)


@dataclass(frozen=True)
class SiaProjector:
    """Implicit Psi = I - J acting on length P*Q blocks."""

    P: int
    Q: int

    @property
    def N(self) -> int:
        return self.P * self.Q


def cyclic_mean(v, proj: SiaProjector):
    """J v: per-residue-class mean over the Q period-P segments, tiled back.

    The sum and the in-place divide are the ufunc calls ``np.mean`` makes,
    so the bits match it without its dispatch cost; ``repeat`` tiles in C,
    where ``broadcast_to`` costs more than the mean itself.
    """
    v = np.asarray(v)
    if v.shape[-1] != proj.N:
        raise ValueError(f"length {v.shape[-1]} != P*Q = {proj.N}")
    if v.dtype.kind in "biu":   # np.mean sums integers and booleans in float64
        v = v.astype(np.float64)
    segs = v.reshape(*v.shape[:-1], proj.Q, proj.P)
    mean = np.add.reduce(segs, axis=-2, keepdims=True)
    mean /= proj.Q
    return mean.repeat(proj.Q, axis=-2).reshape(v.shape)


def apply_projector(v, proj: SiaProjector):
    """Psi v = v - J v in O(N); on data it zeroes the spectrum on bins k = iQ."""
    return np.asarray(v) - cyclic_mean(v, proj)


def compose_tx(s, x_p, cfg: PilotConfig):
    """Transmit block: (I - J) s + x_p with alignment on, s + x_p otherwise."""
    s = np.asarray(s)
    if cfg.sia_enabled:
        s = apply_projector(s, SiaProjector(cfg.P, cfg.Q))
    return s + np.asarray(x_p)
