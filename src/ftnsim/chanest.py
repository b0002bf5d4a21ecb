"""Comb-bin channel estimation (LS / MMSE) and its closed-form error predictions.

The estimator sees the P comb bins k = iQ of the received spectrum, where
the known quantity gamma_i = lambda_g[iQ] * pilot_fd[iQ] multiplies the
unknown FD channel response d_i = lambda_h[iQ].  Taps are recovered by a
scaled partial IDFT, and the full-band response for equalization by a
zero-padded DFT of the taps.

With alignment active the data contributes exactly nothing on the comb, so
the closed forms below are exact for the circulant noise model (the comb
noise covariance is exactly diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import dft
from .pilot import PilotConfig, chu_pilot
from .waveform import IsiKernel


class IllConditionedCombError(RuntimeError):
    """A comb bin fell into a deep FTN spectral null; LS would blow up."""


# comb bins with |gamma| below this fraction of max |gamma| are ill-conditioned
_GAMMA_FLOOR = 1e-6


@dataclass(frozen=True)
class CombTables:
    """Scenario-constant comb quantities, computed once per (beta, tau, nu, N, pilot)."""

    P: int
    Q: int
    gamma: np.ndarray = field(repr=False)       # lambda_g' * pilot_fd'
    phi_prime: np.ndarray = field(repr=False)   # FD noise variance at comb bins

    def check_conditioning(self):
        floor = _GAMMA_FLOOR * np.abs(self.gamma).max()
        bad = np.abs(self.gamma) < floor
        if np.any(bad):
            raise IllConditionedCombError(
                f"{int(bad.sum())} comb bin(s) below the conditioning floor "
                f"{floor:.3e} (deep FTN spectral null)"
            )


def build_comb_tables(kernel: IsiKernel, cfg: PilotConfig) -> CombTables:
    if cfg.N != kernel.N:
        raise ValueError(f"pilot N={cfg.N} != kernel N={kernel.N}")
    x_p_fd = dft(chu_pilot(cfg))
    comb = slice(0, kernel.N, cfg.Q)
    gamma = kernel.lambda_g[comb] * x_p_fd[comb]
    phi_prime = kernel.phi_diag()[comb]
    return CombTables(P=cfg.P, Q=cfg.Q, gamma=gamma, phi_prime=phi_prime)


@dataclass(frozen=True)
class ChannelEstimate:
    h_hat: np.ndarray = field(repr=False)     # recovered taps
    lambda_eq: np.ndarray = field(repr=False) # full-band FD response for FDE


def extract_comb(y_tilde, P: int, Q: int):
    """Take the P received FD samples on the comb bins k = iQ."""
    y_tilde = np.asarray(y_tilde)
    if y_tilde.shape[-1] != P * Q:
        raise ValueError(f"length {y_tilde.shape[-1]} != P*Q = {P * Q}")
    return y_tilde[..., ::Q]


def ce_ls(y_prime, tables: CombTables):
    """Least-squares comb estimate d_hat = Gamma^{-1} y'."""
    tables.check_conditioning()
    return np.asarray(y_prime) / tables.gamma


def mmse_weights(tables: CombTables, sigma_v2: float, sigma_h2: float) -> np.ndarray:
    """Diagonal MMSE weights for the comb estimate.

    Derived from the prior R_d = sigma_h2 * P * I, which gives the
    regularizer sigma_v2 / (sigma_h2 * P); note the published simplified
    form drops the P.
    """
    if sigma_v2 < 0 or sigma_h2 <= 0:
        raise ValueError("need sigma_v2 >= 0 and sigma_h2 > 0")
    g = tables.gamma
    rho = sigma_v2 / (sigma_h2 * tables.P)
    num = np.conj(g)
    den = np.abs(g) ** 2 + rho * tables.phi_prime
    # a comb bin in an exact spectral null (gamma = phi' = 0) gets weight 0
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def ce_mmse(y_prime, tables: CombTables, sigma_v2: float, sigma_h2: float):
    """MMSE comb estimate; coincides with LS as sigma_v2 -> 0."""
    return mmse_weights(tables, sigma_v2, sigma_h2) * np.asarray(y_prime)


def fd_to_td(d_hat, P: int, L: int):
    """Recover the L taps: h_hat = (1/sqrt(P)) F_{P,L}^H d_hat."""
    d_hat = np.asarray(d_hat)
    if d_hat.shape[-1] != P:
        raise ValueError(f"d_hat length {d_hat.shape[-1]} != P = {P}")
    if P < L:
        raise ValueError(f"need P >= L, got P={P}, L={L}")
    # (1/sqrt(P)) F_{P}^H restricted to the first L rows == sqrt(P)*ifft, truncated
    return np.fft.ifft(d_hat, axis=-1)[..., :L]


def interpolate_response(h_hat, N: int):
    """Full-band FD response lambda_eq[k] = sum_l h_hat_l e^{-j 2 pi k l / N}."""
    return np.fft.fft(np.asarray(h_hat), n=N, axis=-1)


def estimate_channel(y_tilde, tables: CombTables, L: int, N: int,
                     criterion: str = "mmse", sigma_v2: float = 0.0,
                     sigma_h2: float = 1.0) -> ChannelEstimate:
    """Full chain: comb extraction -> LS/MMSE weights -> taps -> full-band response."""
    y_prime = extract_comb(y_tilde, tables.P, tables.Q)
    if criterion == "ls":
        d_hat = ce_ls(y_prime, tables)
    elif criterion == "mmse":
        d_hat = ce_mmse(y_prime, tables, sigma_v2, sigma_h2)
    else:
        raise ValueError(f"unknown CE criterion {criterion!r}")
    h_hat = fd_to_td(d_hat, tables.P, L)
    return ChannelEstimate(h_hat=h_hat, lambda_eq=interpolate_response(h_hat, N))


def theoretical_mse_ls(tables: CombTables, L: int, sigma_v2: float) -> float:
    """Closed-form tap MSE of the LS comb estimator (alignment active).

    (L sigma_v2 / P^2) * Tr{Gamma^{-1} Phi' Gamma^{-H}}.
    """
    p = tables.P
    return float(L * sigma_v2 / p**2
                 * np.sum(tables.phi_prime / np.abs(tables.gamma) ** 2))


def theoretical_mse_mmse(tables: CombTables, L: int, sigma_v2: float,
                         sigma_h2: float | None = None) -> float:
    """Closed-form tap MSE of the MMSE comb estimator (alignment active).

    Evaluates (L/P^2) Tr{R_d - 2 Re(W Gamma R_d) + W (Gamma R_d Gamma^H
    + sigma_v2 Phi') W^H} at the diagonal MMSE weights, with the prior
    R_d = sigma_h2 * P * I.  Exact for L = P; for L < P the white prior
    is an approximation.  A bin in an exact spectral null has weight 0 and
    so counts at its prior error r.
    """
    if sigma_h2 is None:
        sigma_h2 = 1.0 / L
    p = tables.P
    r = sigma_h2 * p
    w = mmse_weights(tables, sigma_v2, sigma_h2)
    g = tables.gamma
    per_bin = (r * (1.0 - 2.0 * np.real(w * g))
               + np.abs(w) ** 2 * (np.abs(g) ** 2 * r + sigma_v2 * tables.phi_prime))
    return float(L / p**2 * np.sum(per_bin))
