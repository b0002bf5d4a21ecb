"""FTN ISI kernel construction.

The matched-filter autocorrelation of an RRC pulse is the raised-cosine
pulse; sampling it at the compressed interval tau*T0 yields the ISI taps
g(nT).  From those we build the circulant ISI matrix with eigenvalues
lambda_g (the CP/CS-assisted model that the frequency-domain receiver
relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import circulant_eigenvalues


@dataclass(frozen=True)
class FtnParams:
    """Waveform parameters: packing ratio, roll-off, ISI truncation, block length."""

    tau: float
    beta: float
    nu: int
    N: int

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        if 2 * self.nu + 1 > self.N:
            raise ValueError(f"need 2*nu+1 <= N, got nu={self.nu}, N={self.N}")


def rc_autocorrelation(params: FtnParams, n: int) -> float:
    """ISI tap g(nT): raised-cosine pulse at t = n*tau*T0, normalized to g(0)=1.

    The removable singularity at 2*beta*tau*n = +/-1 is replaced by its
    analytic limit (pi/4)*sinc(1/(2*beta)).
    """
    if abs(n) > params.nu:
        raise ValueError(f"|n| must be <= nu={params.nu}, got {n}")
    u = params.tau * n  # time in units of T0
    beta = params.beta
    if n == 0:
        return 1.0
    denom = 1.0 - (2.0 * beta * u) ** 2
    if abs(denom) < 1e-12:
        # limit of sinc(u) cos(pi beta u) / (1 - (2 beta u)^2) at u = 1/(2 beta)
        return float(np.pi / 4.0 * np.sinc(1.0 / (2.0 * beta)))
    return float(np.sinc(u) * np.cos(np.pi * beta * u) / denom)


def isi_taps(params: FtnParams) -> np.ndarray:
    """g(nT) for n = 0..nu."""
    return np.array([rc_autocorrelation(params, n) for n in range(params.nu + 1)])


@dataclass(frozen=True)
class IsiKernel:
    """Eigenvalues of the circulant ISI matrix for one waveform."""

    params: FtnParams
    lambda_g: np.ndarray = field(repr=False)

    @property
    def N(self) -> int:
        return self.params.N

    def phi_diag(self) -> np.ndarray:
        """Diagonal of the FD colored-noise covariance, clipped to >= 0.

        For the circulant model F G F^H is exactly diag(lambda_g); tiny
        negative values only arise from kernel truncation at small tau.
        """
        return np.maximum(self.lambda_g.real, 0.0)


def make_isi_kernel(params: FtnParams) -> IsiKernel:
    _, lam = build_isi_circulant(params)
    return IsiKernel(params=params, lambda_g=lam)


def build_isi_circulant(params: FtnParams):
    """Circulant ISI matrix as (first_column, eigenvalues).

    First column is [g(0),...,g(nu T), 0,...,0, g(nu T),...,g(T)]; the
    symmetric wrap-around makes the eigenvalues real.
    """
    g = isi_taps(params)
    col = np.zeros(params.N)
    col[: params.nu + 1] = g
    col[params.N - params.nu :] = g[1:][::-1]
    return col, circulant_eigenvalues(col)
