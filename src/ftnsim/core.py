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
# make_rng hashes the keys of this many consecutive streams in one pass
_BLOCK = 256


def _hash_steps(init, mult, n):
    """(xor, multiply) constants of ``n`` successive SeedSequence hash steps."""
    h = [np.uint32(init * mult**k % _UINT32_END) for k in range(n + 1)]
    return list(zip(h[:-1], h[1:]))


# numpy's SeedSequence (O'Neill's seed_seq_fe, pool size 4): 4 + 12 hashmix
# steps in mix_entropy, then one per uint32 word of generate_state(4, uint64)
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_OUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value, step):
    value = (value ^ step[0]) * step[1]
    return value ^ (value >> 16)


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


@functools.lru_cache(maxsize=8)
def _state_block(seed, block, substream):
    """Read-only (_BLOCK, 4) uint64: row i is ``SeedSequence([seed, t, substream])
    .generate_state(4, np.uint64)`` at stream t = block * _BLOCK + i, hashed on
    uint32 arrays, which wrap silently where numpy scalars would warn."""
    streams = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint32)
    # SeedSequence splits a seed >= 2**32 into its uint32 words, low first,
    # and hashes a zero pool word after a 3-word key
    key = [seed] if seed < _UINT32_END else [seed % _UINT32_END, seed >> 32]
    words = [np.full_like(streams, w) for w in key] + [streams, np.full_like(streams, substream)]
    words += [np.zeros_like(streams)] * (4 - len(words))
    steps = iter(_MIX_STEPS)
    pool = [_hashmix(w, next(steps)) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(steps)))
    out = [_hashmix(pool[i % 4], step) for i, step in enumerate(_OUT_STEPS)]
    # registered on first use, as importing numpy.random costs ~7 ms of set-up
    np.random.bit_generator.ISeedSequence.register(_HashedSeed)
    # uint64 word j: uint32 words 2j (low) and 2j + 1 (high), numpy's little-endian view
    lo, hi = np.array(out[0::2], dtype=np.uint64), np.array(out[1::2], dtype=np.uint64)
    return read_only(np.ascontiguousarray((lo | hi << 32).T))


class _HashedSeed:
    """``ISeedSequence`` of one ``make_rng`` key: the state row ``SeedSequence(key)`` gives."""

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # the identity test spares PCG64's own call an np.dtype construction
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only generate_state(4, np.uint64), PCG64's seeding, is precomputed")
        return self._state


def make_rng(seed, stream=0, substream=0):
    """Deterministic, independent random stream for one Monte Carlo trial.

    Identical (seed, stream, substream) gives bit-identical draws; distinct
    stream ids give statistically independent generators.  Substreams let a
    trial separate channel / data / noise draws so that, e.g., changing the
    data power does not perturb the noise realization.

    The state is the one ``np.random.default_rng([seed, stream, substream])``
    gives.  For a seed in
    [0, 2**64) and stream and substream in [0, 2**32) it comes from a memo that
    hashes 256 consecutive streams of one (seed, substream) in one array pass;
    ``bit_generator.seed_seq`` is then no ``SeedSequence``, so ``Generator.spawn``
    raises TypeError.  Stream 256 k, the first of a block, and other keys go
    through ``default_rng``, which rejects negative ones; those generators can
    spawn.  The library never spawns.  SeedSequence splits
    a seed >= 2**32 into its words, so ``make_rng(lo + 2**32 hi, t, 0)`` draws
    as ``make_rng(lo, hi, t)``: runs at those two seeds share some draws and are
    not fully independent, while each run on its own is unaffected.
    """
    seed, stream, sub = int(seed), int(stream), int(substream)
    # stream 256 k, often a key's only one, is not worth a 256-stream block hash
    if (0 <= seed < 2**64 and 0 < stream < _UINT32_END and stream % _BLOCK
            and 0 <= sub < _UINT32_END):
        row = _state_block(seed, stream // _BLOCK, sub)[stream % _BLOCK]
        return np.random.Generator(np.random.PCG64(_HashedSeed(row)))
    return np.random.default_rng([seed, stream, sub])


def dft(x):
    """Unitary DFT of a vector (or of each row of a 2-d array)."""
    x = np.asarray(x)
    # an ``out`` array skips np.fft's slower allocation path; same values
    out = np.fft.fft(x, axis=-1, out=np.empty(x.shape, complex))
    out /= math.sqrt(x.shape[-1])
    return out


def idft(x):
    """Exact inverse of :func:`dft`."""
    x = np.asarray(x)
    out = np.fft.ifft(x, axis=-1, out=np.empty(x.shape, complex))
    out *= math.sqrt(x.shape[-1])
    return out


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
    return np.divide(num, den, out=np.zeros(num.shape, num.dtype), where=den != 0)


def complex_gaussian(shape, variance, rng):
    """Circularly symmetric complex Gaussian array, per-entry variance ``variance``.

    Real and imaginary parts each carry variance/2.  ``shape`` is an int for
    a vector, or a tuple, e.g. (trials, n) for batched draws.  One draw
    fills the real parts, then the imaginary parts.
    """
    # the comparisons are False for NaN, so it is rejected too
    if not 0.0 <= variance < math.inf:
        raise ValueError(f"need 0 <= variance < inf, got {variance}")
    z = np.empty(shape, dtype=complex)
    g = rng.standard_normal((2, *z.shape))
    z.real = g[0]
    z.imag = g[1]
    z *= math.sqrt(variance / 2.0)
    return z
