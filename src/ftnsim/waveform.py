"""FTN ISI kernel construction.

The matched-filter autocorrelation of an RRC pulse is the raised-cosine
pulse; sampling it at the compressed interval tau*T0 yields the ISI taps
g(nT).  From those we build the circulant ISI matrix with eigenvalues
lambda_g (the CP/CS-assisted model that the frequency-domain receiver
relies on).  ``FtnConfig.validate`` checks tau, beta, nu and N.
"""

from __future__ import annotations

import numpy as np


def rc_autocorrelation(tau: float, beta: float, n: int) -> float:
    """ISI tap g(nT): raised-cosine pulse at t = n*tau*T0, normalized to g(0)=1.

    The removable singularity at 2*beta*tau*n = +/-1 is replaced by its
    analytic limit (pi/4)*sinc(1/(2*beta)).
    """
    u = tau * n  # time in units of T0
    if n == 0:
        return 1.0
    denom = 1.0 - (2.0 * beta * u) ** 2
    if abs(denom) < 1e-12:
        # limit of sinc(u) cos(pi beta u) / (1 - (2 beta u)^2) at u = 1/(2 beta)
        return float(np.pi / 4.0 * np.sinc(1.0 / (2.0 * beta)))
    return float(np.sinc(u) * np.cos(np.pi * beta * u) / denom)


def isi_taps(tau: float, beta: float, nu: int) -> np.ndarray:
    """g(nT) for n = 0..nu."""
    return np.array([rc_autocorrelation(tau, beta, n) for n in range(nu + 1)])


def build_isi_circulant(tau: float, beta: float, nu: int, N: int):
    """Circulant ISI matrix as (first_column, eigenvalues lambda_g).

    First column is [g(0),...,g(nu T), 0,...,0, g(nu T),...,g(T)]; the
    symmetric wrap-around makes the eigenvalues real.
    """
    g = isi_taps(tau, beta, nu)
    col = np.zeros(N)
    col[: nu + 1] = g
    col[N - nu :] = g[1:][::-1]
    return col, np.fft.fft(col)
