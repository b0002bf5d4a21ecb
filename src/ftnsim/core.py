"""Shared numerics: unitary DFT, circulant algebra, Wiener weights, Gaussian draws, RNG streams.

Two DFT conventions coexist on purpose and must not be mixed up:

* ``dft``/``idft`` use the unitary 1/sqrt(N) scaling and carry symbol
  vectors between time and frequency domain.
* Circulant eigenvalues are the unnormalized ``np.fft.fft`` of the first
  column, so that ``circulant(c) = F^H diag(lam) F`` with F unitary.

Every other module builds on exactly these two.  ``dft_rows`` and
``idft_cols`` are the unnormalized DFT and its inverse as matrices, for
zero-padded or truncated transforms of a few taps, where one small product
costs less than an FFT call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# keys below this fit one SeedSequence word each
_UINT32_END = 2**32


def make_rng(seed, stream=0, substream=None):
    """Deterministic, independent random stream for one Monte Carlo trial.

    Identical (seed, stream, substream) gives bit-identical draws; distinct
    stream ids give statistically independent generators.  Substreams let a
    trial separate channel / data / noise draws so that, e.g., changing the
    data power does not perturb the noise realization.

    The generator is the one ``np.random.default_rng(key)`` gives.  SeedSequence
    turns each int in [0, 2**32) into exactly one uint32 word, so such keys
    are passed as a uint32 array, which skips its per-int coercion; larger
    keys (split into several words) and negative ones (rejected) go through
    ``default_rng``.
    """
    key = [int(seed), int(stream)]
    if substream is not None:
        key.append(int(substream))
    if min(key) >= 0 and max(key) < _UINT32_END:
        return np.random.Generator(np.random.PCG64(np.array(key, dtype=np.uint32)))
    return np.random.default_rng(key)


def dft(x):
    """Unitary DFT of a vector (or of each row of a 2-d array)."""
    x = np.asarray(x)
    n = x.shape[-1]
    out = np.fft.fft(x, axis=-1)
    out /= math.sqrt(n)
    return out


def idft(x):
    """Exact inverse of :func:`dft`."""
    x = np.asarray(x)
    n = x.shape[-1]
    return np.fft.ifft(x, axis=-1) * math.sqrt(n)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a constant shared by many calls raises on a write."""
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def dft_rows(m: int, n: int) -> np.ndarray:
    """Read-only first ``m`` rows of the unnormalized ``n``-point DFT matrix.

    ``v @ dft_rows(m, n)`` equals ``np.fft.fft(v, n)`` for a length-``m``
    vector (or each row of an (..., m) array), i.e. the zero-padded DFT.
    The phase index k*j is reduced mod n before the exponential, so every
    entry is as accurate as exp(-2j pi r / n) with 0 <= r < n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    r = np.outer(np.arange(m), np.arange(n)) % n
    return read_only(np.exp(-2j * np.pi / n * r))


@functools.lru_cache(maxsize=None)
def idft_cols(n: int, m: int) -> np.ndarray:
    """Read-only first ``m`` columns of the ``n``-point inverse DFT matrix, 1/n included.

    ``v @ idft_cols(n, m)`` equals ``np.fft.ifft(v)[..., :m]`` for a
    length-``n`` vector (or each row of an (..., n) array).
    """
    return read_only(dft_rows(m, n).T.conj() / n)


def circulant_matvec(lam, x):
    """Apply the circulant matrix with eigenvalues ``lam`` to ``x`` in O(N log N).

    The product keeps the operand order ``lam * fft(x)``: numpy's complex
    multiply is not bitwise commutative.
    """
    return np.fft.ifft(lam * np.fft.fft(x, axis=-1), axis=-1)


def wiener_weights(gamma, rho, phi):
    """Per-bin MMSE weights conj(gamma) / (|gamma|^2 + rho * phi).

    A bin with neither signal nor noise (gamma = phi = 0, an exact spectral
    null) gets weight 0.
    """
    num = np.conj(gamma)
    den = np.abs(gamma) ** 2 + rho * np.asarray(phi)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def complex_gaussian(shape, variance, rng):
    """Circularly symmetric complex Gaussian array, per-entry variance ``variance``.

    Real and imaginary parts each carry variance/2.  ``shape`` is an int for
    a vector, or a tuple, e.g. (trials, n) for batched draws.
    """
    if variance < 0:
        raise ValueError("variance must be non-negative")
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(variance / 2.0)
    return z
