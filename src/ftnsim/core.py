"""Shared numerical primitives: unitary DFT, circulant algebra, Gaussian draws, RNG streams.

Two DFT conventions coexist on purpose and must not be mixed up:

* ``dft``/``idft`` use the unitary 1/sqrt(N) scaling and carry symbol
  vectors between time and frequency domain.
* ``circulant_eigenvalues`` uses the unnormalized DFT of the first
  column, so that ``circulant(c) = F^H diag(lam) F`` with F unitary.

Every other module builds on exactly these two.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed, stream=0, substream=None):
    """Deterministic, independent random stream for one Monte Carlo trial.

    Identical (seed, stream, substream) gives bit-identical draws; distinct
    stream ids give statistically independent generators.  Substreams let a
    trial separate channel / data / noise draws so that, e.g., changing the
    data power does not perturb the noise realization.
    """
    key = [int(seed), int(stream)]
    if substream is not None:
        key.append(int(substream))
    return np.random.default_rng(key)


def dft(x):
    """Unitary DFT of a vector (or of each row of a 2-d array)."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("dft input must have length >= 1")
    return np.fft.fft(x, axis=-1) / np.sqrt(n)


def idft(x):
    """Exact inverse of :func:`dft`."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("idft input must have length >= 1")
    return np.fft.ifft(x, axis=-1) * np.sqrt(n)


def circulant_eigenvalues(c):
    """Eigenvalues of the circulant matrix whose first column is ``c``.

    lam_k = sum_n c_n exp(-j 2 pi k n / N), i.e. the unnormalized DFT,
    so that circulant(c) = F^H diag(lam) F with F the unitary DFT matrix.
    """
    return np.fft.fft(np.asarray(c), axis=-1)


def circulant_matvec(lam, x):
    """Apply the circulant matrix with eigenvalues ``lam`` to ``x`` in O(N log N)."""
    return np.fft.ifft(lam * np.fft.fft(x, axis=-1), axis=-1)


def complex_gaussian(n, variance, rng, shape=None):
    """Circularly symmetric complex Gaussian vector, per-entry variance ``variance``.

    Real and imaginary parts each carry variance/2.  ``shape`` overrides the
    1-d default, e.g. (trials, n) for batched draws.
    """
    if variance < 0:
        raise ValueError("variance must be non-negative")
    if shape is None:
        shape = (n,)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * np.sqrt(variance / 2.0)
