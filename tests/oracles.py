"""Dense and direct-form reference implementations the tests compare against.

None of these runs in the simulator: they materialize O(N^2) matrices, run
the linear (non-circulant) chain, or spell out as written a step the
library computes in a faster form, so that the library code can be
checked against an independent construction.
"""

from __future__ import annotations

import numpy as np

from ftnsim.pilot import SiaProjector, apply_projector
from ftnsim.waveform import FtnParams, IsiKernel, isi_taps


class NotPSDError(ValueError):
    """Matrix handed to psd_factor has a significantly negative eigenvalue."""


def circulant_dense(c):
    """Dense circulant matrix from its first column."""
    c = np.asarray(c)
    n = len(c)
    return np.stack([np.roll(c, k) for k in range(n)], axis=1)


def psd_factor(m, clip_eps=1e-10):
    """Factor a Hermitian PSD matrix as B B^H, clipping tiny negative eigenvalues.

    Eigenvalues below ``clip_eps * max_eig`` are raised to that floor (the
    count of clipped ones is returned); anything below the negated threshold
    means the input is genuinely indefinite and raises :class:`NotPSDError`.

    Returns
    -------
    (B, n_clipped)
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("psd_factor expects a square matrix")
    if not np.allclose(m, m.conj().T, atol=1e-10):
        raise ValueError("psd_factor expects a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    max_eig = max(float(w.max()), 0.0)
    floor = clip_eps * max_eig
    if np.any(w < -floor):
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e} < {-floor:.3e}"
        )
    n_clipped = int(np.sum(w < floor))
    w = np.maximum(w, floor)
    b = v * np.sqrt(w)
    return b, n_clipped


def build_isi_toeplitz(params: FtnParams) -> np.ndarray:
    """Symmetric banded Toeplitz G with first column [g(0),...,g(nu T),0,...,0]."""
    g = isi_taps(params)
    n = params.N
    mat = np.zeros((n, n))
    idx = np.arange(n)
    lag = np.abs(idx[:, None] - idx[None, :])
    mask = lag <= params.nu
    mat[mask] = g[lag[mask]]
    return mat


def projector_dense(P: int, Q: int) -> np.ndarray:
    """Materialize the alignment projector Psi = I - J for length P*Q blocks."""
    j = np.kron(np.ones((Q, Q)) / Q, np.eye(P))
    return np.eye(P * Q) - j


def transmit_exact(x, chan, kernel: IsiKernel, guard: int | None = None, noise=None):
    """Exact guard-extended chain: prepend/append guard symbols, run the banded
    Toeplitz channel and ISI filters, strip the guard, add noise.

    ``guard`` defaults to the kernel's nu (the CP/CS length of the block
    design).  The output matches ``transmit_fast`` to machine precision
    whenever guard >= nu + L - 1; with guard = nu and L > 1 the first few
    samples deviate by the truncation tail of g (see tests for the measured
    regime).
    """
    x = np.asarray(x)
    n, nu = kernel.N, kernel.params.nu
    if len(x) != n:
        raise ValueError(f"block length {len(x)} != N={n}")
    if guard is None:
        guard = nu
    if guard < nu:
        raise ValueError("guard must be >= nu for the symmetric ISI span")
    g = isi_taps(kernel.params)
    s_cp = np.concatenate([x[n - guard:], x, x[:guard]])
    # causal channel filter (lower-triangular Toeplitz)
    v = np.convolve(s_cp, chan.h)[: len(s_cp)]
    # symmetric banded ISI filter: y[m] = sum_{k=-nu}^{nu} g(k) v[m+k]
    g_sym = np.concatenate([g[::-1], g[1:]])
    y_ext = np.convolve(v, g_sym)[nu : nu + len(v)]
    y = y_ext[guard : guard + n]
    if noise is not None:
        y = y + noise
    return y


def slice_reference(v, sigma_s2: float):
    """QPSK sign slicer with one np.where per component: < 0 -> -a, else +a."""
    v = np.asarray(v)
    a = np.sqrt(sigma_s2 / 2.0)
    s = np.empty(v.shape, complex)
    s.real = np.where(v.real < 0, -a, a)
    s.imag = np.where(v.imag < 0, -a, a)
    return s


def demap_reference(symbols):
    """Gray sign-bit demapper that stacks (re < 0, im < 0) per symbol."""
    symbols = np.asarray(symbols)
    bits = np.stack([symbols.real < 0, symbols.imag < 0], axis=-1).astype(np.int64)
    return bits.reshape(symbols.shape[:-1] + (-1,))


def ista_reference(u, proj: SiaProjector, sigma_s2: float, n_iter: int):
    """ISTA iterates as written, two projections per step: s + Psi (u - Psi s), sliced.

    Returns [Psi u, s_1, ..., s_n_iter]; the detector's decision is the
    slice of the last one.
    """
    s_hat = apply_projector(u, proj)
    iterates = [s_hat]
    for _ in range(n_iter):
        r = u - apply_projector(s_hat, proj)
        s_hat = slice_reference(s_hat + apply_projector(r, proj), sigma_s2)
        iterates.append(s_hat)
    return iterates
