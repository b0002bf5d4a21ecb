"""Frequency-selective Rayleigh channel, colored noise, and the transmit operator.

The CP/CS guard makes the ISI and multipath matrices circulant, so the
transmit operator is a product of eigenvalues via FFT.  Noise at the
matched-filter output is colored with covariance sigma_v^2 * G, generated
directly from the circulant factor sqrt(lambda_g).
"""

from __future__ import annotations

import math

import numpy as np

from .core import circulant_matvec, complex_gaussian


def sample_channel(L: int, N: int, rng):
    """Draw i.i.d. CN(0, 1/L) taps and rescale so sum |h_l|^2 = 1 exactly.

    Returns (h, lambda_h): the L taps and their length-N FD response.

    The norm is written out as ``np.linalg.norm`` computes it for a complex
    vector, without its dispatch cost.
    """
    h = complex_gaussian(L, 1.0 / L, rng)
    h = h / math.sqrt(h.real.dot(h.real) + h.imag.dot(h.imag))
    return h, np.fft.fft(h, n=N)


# eigenvalues of G below this fraction of the largest are raised to it
_CLIP_EPS = 1e-10


def noise_factor(lambda_g) -> np.ndarray:
    """sqrt(lambda_g), the circulant factor B of G = B B^H, with clipped eigenvalues."""
    lam = lambda_g.real
    floor = _CLIP_EPS * max(float(lam.max()), 0.0)
    return np.sqrt(np.maximum(lam, floor))


def phi_diag(lambda_g) -> np.ndarray:
    """Diagonal of the FD colored-noise covariance, clipped to >= 0.

    For the circulant model F G F^H is exactly diag(lambda_g); tiny
    negative values only arise from kernel truncation at small tau.
    """
    return np.maximum(lambda_g.real, 0.0)


def colored_noise(sqrt_lambda_g, sigma_v2: float, rng,
                  trials: int | None = None) -> np.ndarray:
    """eta = sqrt(sigma_v2) * B w with B B^H = G, B = F^H diag(sqrt_lambda_g) F.

    ``sqrt_lambda_g`` is ``noise_factor(lambda_g)``; optional leading trials axis.
    """
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be non-negative")
    n = len(sqrt_lambda_g)
    shape = (n,) if trials is None else (trials, n)
    w = complex_gaussian(n, 1.0, rng, shape=shape)
    eta = np.fft.ifft(sqrt_lambda_g * np.fft.fft(w, axis=-1), axis=-1)
    return math.sqrt(sigma_v2) * eta


def transmit_fast(x, lambda_h, lambda_g, noise=None):
    """y = Theta x + eta with Theta = F^H diag(lambda_g lambda_h) F."""
    x = np.asarray(x)
    if x.shape[-1] != len(lambda_g):
        raise ValueError(f"block length {x.shape[-1]} != N={len(lambda_g)}")
    y = circulant_matvec(lambda_g * lambda_h, x)
    if noise is not None:
        y = y + noise
    return y
