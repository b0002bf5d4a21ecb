"""Frequency-selective Rayleigh channel, colored noise, and the transmit operator.

The CP/CS guard makes the ISI and multipath matrices circulant, so both
are diagonal in the DFT basis.  The receiver reads only the unitary
spectrum y~ = dft(y), so the channel works on spectra (the per-bin model
of Sugiura, IEEE WCL 2013):

    y~ = lambda_g * lambda_h * x~ + eta~,   x~ = dft(x),

where the noise spectrum eta~ = dft(eta) of the matched-filter noise
eta ~ CN(0, sigma_v^2 G) is drawn directly from the circulant factor
sqrt(lambda_g).  The time-domain chain lives in the tests as an oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .core import complex_gaussian, dft_rows


def tap_power(L: int) -> float:
    """Mean power 1/L of each of the L unit-norm taps: their draw's variance and the MMSE prior."""
    return 1.0 / L


def sample_channel(L: int, N: int, rng):
    """Draw i.i.d. CN(0, 1/L) taps and rescale so sum |h_l|^2 = 1 exactly.

    Returns (h, lambda_h): the L taps and their length-N FD response.

    The norm is written out as ``np.linalg.norm`` computes it for a complex
    vector, without its dispatch cost.
    """
    h = complex_gaussian(L, tap_power(L), rng)
    h /= math.sqrt(h.real.dot(h.real) + h.imag.dot(h.imag))
    return h, h @ dft_rows(L, N)


def phi_diag(lambda_g) -> np.ndarray:
    """Diagonal of the FD colored-noise covariance, clipped to >= 0.

    For the circulant model F G F^H is exactly diag(lambda_g).  Negative
    values come from truncating the kernel to +-nu taps, and they need not
    be tiny: at beta <= 0.25 they reach -11% of the largest eigenvalue at
    tau = 0.8 and -16.8% at tau = 0.9 (beta = 0; see the README).  This is
    the only clip: the noise factor sqrt(phi_diag), the FDE weights and the
    closed-form MSE all use it.
    """
    return np.maximum(lambda_g.real, 0.0)


def colored_noise(sqrt_lambda_g, sigma_v2: float, rng,
                  trials: int | None = None) -> np.ndarray:
    """Noise spectrum dft(eta) = sqrt(sigma_v2 / N) * sqrt_lambda_g * fft(w), w ~ CN(0, I).

    This is the unitary DFT of eta = sqrt(sigma_v2) * B w with B B^H = G,
    B = F^H diag(sqrt_lambda_g) F, so its covariance is
    sigma_v2 * diag(sqrt_lambda_g**2) per trial.  ``sqrt_lambda_g`` is
    ``sqrt(phi_diag(lambda_g))``, a scenario's ``noise_factor``; optional
    leading trials axis.
    """
    # the comparisons are False for NaN, so it is rejected too
    if not 0.0 <= sigma_v2 < math.inf:
        raise ValueError(f"need 0 <= sigma_v2 < inf, got {sigma_v2}")
    n = len(sqrt_lambda_g)
    shape = (n,) if trials is None else (trials, n)
    # w is private to this call, so it is transformed in place
    w = complex_gaussian(shape, 1.0, rng)
    eta_fd = np.fft.fft(w, axis=-1, out=w)
    eta_fd *= math.sqrt(sigma_v2 / n) * sqrt_lambda_g
    return eta_fd


def transmit_fast(x_tilde, lambda_h, lambda_g, noise=None):
    """Received spectrum y~ = lambda_g * lambda_h * x~ + noise, per bin.

    ``x_tilde`` is the unitary spectrum dft(x) of the transmit block and
    ``noise`` a noise spectrum from ``colored_noise``; then y~ = dft(Theta x
    + eta) with Theta = F^H diag(lambda_g lambda_h) F.
    """
    x_tilde = np.asarray(x_tilde)
    if x_tilde.shape[-1] != len(lambda_g):
        raise ValueError(f"block length {x_tilde.shape[-1]} != N={len(lambda_g)}")
    y_tilde = lambda_g * lambda_h * x_tilde
    if noise is None:
        return y_tilde
    return y_tilde + noise
