"""Frequency-selective Rayleigh channel, colored noise, and the transmit operator.

The CP/CS guard makes the ISI and multipath matrices circulant, so the
transmit operator is a product of eigenvalues via FFT.  Noise at the
matched-filter output is colored with covariance sigma_v^2 * G, generated
directly from the circulant factor sqrt(lambda_g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import circulant_matvec, complex_gaussian
from .waveform import IsiKernel


@dataclass(frozen=True)
class ChannelRealization:
    """L Rayleigh taps normalized to unit total power, plus their FD response."""

    h: np.ndarray = field(repr=False)
    lambda_h: np.ndarray = field(repr=False)


def sample_channel(L: int, N: int, rng) -> ChannelRealization:
    """Draw i.i.d. CN(0, 1/L) taps and rescale so sum |h_l|^2 = 1 exactly.

    The norm is written out as ``np.linalg.norm`` computes it for a complex
    vector, without its dispatch cost.
    """
    h = complex_gaussian(L, 1.0 / L, rng)
    h = h / math.sqrt(h.real.dot(h.real) + h.imag.dot(h.imag))
    return ChannelRealization(h=h, lambda_h=np.fft.fft(h, n=N))


# eigenvalues of G below this fraction of the largest are raised to it
_CLIP_EPS = 1e-10


def noise_factor(kernel: IsiKernel) -> np.ndarray:
    """sqrt(lambda_g), the circulant factor B of G = B B^H, with clipped eigenvalues."""
    lam = kernel.lambda_g.real
    floor = _CLIP_EPS * max(float(lam.max()), 0.0)
    return np.sqrt(np.maximum(lam, floor))


def colored_noise(sqrt_lambda_g, sigma_v2: float, rng,
                  trials: int | None = None) -> np.ndarray:
    """eta = sqrt(sigma_v2) * B w with B B^H = G, B = F^H diag(sqrt_lambda_g) F.

    ``sqrt_lambda_g`` is ``noise_factor(kernel)``; optional leading trials axis.
    """
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be non-negative")
    n = len(sqrt_lambda_g)
    shape = (n,) if trials is None else (trials, n)
    w = complex_gaussian(n, 1.0, rng, shape=shape)
    eta = np.fft.ifft(sqrt_lambda_g * np.fft.fft(w, axis=-1), axis=-1)
    return math.sqrt(sigma_v2) * eta


def transmit_fast(x, chan: ChannelRealization, kernel: IsiKernel, noise=None):
    """y = Theta x + eta with Theta = F^H diag(lambda_g lambda_h) F."""
    x = np.asarray(x)
    if x.shape[-1] != kernel.N:
        raise ValueError(f"block length {x.shape[-1]} != N={kernel.N}")
    y = circulant_matvec(kernel.lambda_g * chan.lambda_h, x)
    if noise is not None:
        y = y + noise
    return y
