"""Comb-bin channel estimation (LS / MMSE) and its closed-form error predictions.

The estimator sees the P comb bins k = iQ of the received spectrum, where
the known quantity gamma_i = lambda_g[iQ] * pilot_fd[iQ] multiplies the
unknown FD channel response d_i = lambda_h[iQ].  Taps are recovered by a
scaled partial IDFT, and the full-band response for equalization by a
zero-padded DFT of the taps; both are small DFT-matrix products.

With alignment active the data contributes exactly nothing on the comb, so
the closed forms below are exact for the circulant noise model (the comb
noise covariance is exactly diagonal).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import phi_diag, tap_power
from .core import dft, dft_rows, idft_cols, read_only, wiener_weights


class IllConditionedCombError(RuntimeError):
    """A comb bin fell into a deep FTN spectral null; LS would blow up."""


# comb bins with |gamma| below this fraction of max |gamma| are ill-conditioned
_GAMMA_FLOOR = 1e-6


@dataclass(frozen=True)
class CombTables:
    """Scenario-constant comb quantities, computed once per (beta, tau, nu, N, pilot); read-only."""

    Q: int
    gamma: np.ndarray = field(repr=False)       # lambda_g' * pilot_fd'
    phi_prime: np.ndarray = field(repr=False)   # FD noise variance at comb bins

    @property
    def P(self) -> int:
        return len(self.gamma)

    @functools.cached_property
    def bad_bins(self) -> int:
        """Number of comb bins below the conditioning floor."""
        mag = np.abs(self.gamma)
        return int(np.count_nonzero(mag < _GAMMA_FLOOR * mag.max()))

    def check_conditioning(self):
        if self.bad_bins:
            raise IllConditionedCombError(
                f"{self.bad_bins} comb bin(s) below the conditioning floor "
                f"{_GAMMA_FLOOR:.0e} * max|gamma| (deep FTN spectral null)"
            )


def build_comb_tables(lambda_g, x_p, Q: int) -> CombTables:
    """Comb tables of the ISI eigenvalues ``lambda_g`` and the time-domain pilot ``x_p``."""
    n = len(lambda_g)
    if len(x_p) != n:
        raise ValueError(f"pilot length {len(x_p)} != len(lambda_g) = {n}")
    x_p_fd = dft(x_p)
    comb = slice(0, n, Q)
    gamma = lambda_g[comb] * x_p_fd[comb]
    phi_prime = phi_diag(lambda_g)[comb]
    return CombTables(Q=Q, gamma=read_only(gamma), phi_prime=read_only(phi_prime))


def extract_comb(y_tilde, Q: int):
    """Take the N / Q received FD samples on the comb bins k = iQ."""
    y_tilde = np.asarray(y_tilde)
    if Q < 1 or y_tilde.shape[-1] % Q:
        raise ValueError(f"need Q >= 1 dividing the length, got length {y_tilde.shape[-1]}, Q={Q}")
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
    # the comparisons are False for NaN, so it is rejected too
    if not (0.0 <= sigma_v2 < math.inf and sigma_h2 > 0):
        raise ValueError(f"need 0 <= sigma_v2 < inf and sigma_h2 > 0, got {sigma_v2}, {sigma_h2}")
    rho = sigma_v2 / (sigma_h2 * tables.P)
    return wiener_weights(tables.gamma, rho, tables.phi_prime)


def ce_mmse(y_prime, weights):
    """MMSE comb estimate with a cell's ``mmse_weights``; LS in the limit sigma_v2 -> 0."""
    return weights * np.asarray(y_prime)


def fd_to_td(d_hat, L: int):
    """Recover the L taps from the P comb samples: h_hat = (1/sqrt(P)) F_{P,L}^H d_hat."""
    d_hat = np.asarray(d_hat)
    # (1/sqrt(P)) F_{P}^H restricted to the first L rows == ifft, truncated
    return d_hat @ idft_cols(d_hat.shape[-1], L)


def estimate_channel(y_tilde, tables: CombTables, L: int, mmse_w=None):
    """Full chain: comb extraction -> LS (no ``mmse_w``) or MMSE weights -> taps -> full band.

    Returns (h_hat, lambda_eq): the L recovered taps and the FD response
    lambda_eq[k] = sum_l h_hat_l e^{-j 2 pi k l / N} that the FDE uses.
    """
    y_prime = extract_comb(y_tilde, tables.Q)
    d_hat = ce_ls(y_prime, tables) if mmse_w is None else ce_mmse(y_prime, mmse_w)
    h_hat = fd_to_td(d_hat, L)
    return h_hat, h_hat @ dft_rows(L, np.shape(y_tilde)[-1])


def theoretical_mse_ls(tables: CombTables, L: int, sigma_v2: float) -> float:
    """Closed-form tap MSE of the LS comb estimator (alignment active).

    (L sigma_v2 / P^2) * Tr{Gamma^{-1} Phi' Gamma^{-H}}.  Like ``ce_ls``, it
    raises IllConditionedCombError on a comb bin in a deep spectral null.
    """
    tables.check_conditioning()
    p = tables.P
    return float(L * sigma_v2 / p**2
                 * np.sum(tables.phi_prime / np.abs(tables.gamma) ** 2))


def theoretical_mse_mmse(tables: CombTables, L: int, sigma_v2: float,
                         sigma_h2: float | None = None) -> float:
    """Closed-form tap MSE of the MMSE comb estimator (alignment active).

    Evaluates (L/P^2) Tr{(I - W Gamma) R_d (I - W Gamma)^H + sigma_v2 W Phi'
    W^H} at the diagonal MMSE weights, with the prior R_d = sigma_h2 * P * I.
    Exact for L = P; for L < P the white prior is an approximation.  The
    factored bias term does not cancel as W Gamma -> I at high SNR, as its
    expansion would.  A bin in an exact spectral null has weight 0 and so
    counts at its prior error r.  ``sigma_h2`` defaults to the per-tap power
    ``tap_power(L)``.
    """
    if sigma_h2 is None:
        sigma_h2 = tap_power(L)
    p = tables.P
    r = sigma_h2 * p
    w = mmse_weights(tables, sigma_v2, sigma_h2)
    per_bin = r * np.abs(1.0 - w * tables.gamma) ** 2 + np.abs(w) ** 2 * sigma_v2 * tables.phi_prime
    return float(L / p**2 * np.sum(per_bin))
