"""FDE on the pilot-zeroed spectrum and iterative projector-based detection.

The equalizer works per frequency bin with colored-noise-aware MMSE
weights; comb bins are discarded first, which loses no data
energy when alignment is active since the data spectrum is exactly zero
there.  The equalized block estimates Psi s, and the detector inverts the
singular projector by exploiting Psi^+ = Psi plus entrywise projection
onto the QPSK alphabet, the only modulation the config accepts.
"""

from __future__ import annotations

import math

import numpy as np

from .core import idft, read_only, wiener_weights


# component amplitude of unit-power QPSK, the data power of every trial
_A = math.sqrt(0.5)

# the slicer's component values, indexed by the sign test x < 0
_SLICE = read_only(np.array([_A, -_A]))

# unit-power QPSK points in Gray label order 2 b0 + b1: b0 sets the I sign, b1 the Q sign
_GRAY = read_only(_A * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]))


def map_bits(bits):
    """Bit vector (even length) to unit-power QPSK symbol vector; bits 00 -> (+a, +a).

    One gather from the four Gray points per 2-bit label.
    """
    pairs = np.asarray(bits).reshape(-1, 2)
    return _GRAY[2 * pairs[:, 0] + pairs[:, 1]]


def demap_bits(symbols):
    """Gray demapping from the sign bits: b0 = (re < 0), b1 = (im < 0).

    The float view interleaves re, im per symbol, which is already the bit
    order b0, b1, so one comparison demaps the whole block.
    """
    symbols = np.ascontiguousarray(symbols, dtype=complex)
    return (symbols.view(np.float64) < 0).astype(np.int64)


def project_nearest(v):
    """Entrywise nearest unit-power QPSK point, slicing each component by its sign.

    ``< 0`` (not ``>= 0``) decides, so +-0 and NaN go to +a, the side of
    label 0, as in a nearest-point search that breaks ties to the lowest label.
    Both components are sliced in one pass over the float view: the boolean
    mask indexes the two-entry table as 0 or 1.
    """
    s = np.ascontiguousarray(v, dtype=complex)
    return _SLICE.take(s.view(np.float64) < 0).view(complex).reshape(np.shape(v))


def fde_weights(lambda_eq, lambda_g, phi_diag, rho: float) -> np.ndarray:
    """Per-bin MMSE equalizer weights from Gamma_eq = diag(lambda_eq * lambda_g).

    The weights whiten the colored noise through phi_diag at the
    noise-to-signal power ratio ``rho``.  At ``rho = 0`` they invert each
    bin (zero forcing), with weight 0 on an exact null.  Perfect-CSI
    operation is the same call with the true channel response.
    """
    if not rho >= 0:  # False for NaN too
        raise ValueError(f"need rho >= 0, got {rho}")
    return wiener_weights(np.asarray(lambda_eq) * np.asarray(lambda_g), rho, phi_diag)


def zero_pilot_bins(y_tilde, Q: int):
    """Copy of the spectrum with the comb bins k = iQ set to zero."""
    y_tilde = np.asarray(y_tilde)
    if Q < 1 or y_tilde.shape[-1] % Q:
        raise ValueError(f"need Q >= 1 dividing the length, got length {y_tilde.shape[-1]}, Q={Q}")
    z = y_tilde.copy()
    z[..., ::Q] = 0.0
    return z


def equalize(z_tilde, w):
    """u = IDFT(W z~) with the unitary convention."""
    return idft(w * np.asarray(z_tilde))


def ista_detect(u, Q: int, n_iter: int):
    """Iterative detection of s from u ~ Psi s.

    Precondition: ``u`` has a zero spectrum on the comb bins k = iQ, so
    ``Psi u = u``; the equalizer output meets it, as ``zero_pilot_bins``
    clears those bins before the inverse DFT.  The initialization
    Psi^+ u = Psi u is then ``u`` itself.

    Each iteration adds the projected residual gradient Psi (u - Psi s) and
    snaps entrywise to the nearest QPSK point.  Psi is idempotent, so the
    step is u + J s: one cyclic mean per iteration.  Iteration 1 starts
    from s = u, where J u = 0, so it is the plain slice of ``u``.  The final
    snap changes nothing once an iteration has run; it stays because the
    benchmark pins ``project_nearest`` at n_iter + 1 calls until it pins
    results instead (ROADMAP item 1).  O(N) per iteration.

    Returns (hard symbols, demapped bits).
    """
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    u = np.asarray(u)
    n = u.shape[-1]
    if Q < 1 or n % Q:
        raise ValueError(f"need Q >= 1 dividing the length, got length {n}, Q={Q}")
    # on the (Q, N/Q) segment view J s is one reduce broadcast over the segments
    segs = u.reshape(*u.shape[:-1], Q, n // Q)
    s_hat = segs
    if n_iter:
        s_hat = project_nearest(segs)
    for _ in range(n_iter - 1):
        mean = np.add.reduce(s_hat, axis=-2, keepdims=True)
        mean /= Q
        s_hat = project_nearest(segs + mean)
    s_hat = project_nearest(s_hat).reshape(u.shape)
    return s_hat, demap_bits(s_hat)
