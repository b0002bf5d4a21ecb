"""FDE on the pilot-zeroed spectrum and iterative projector-based detection.

The equalizer works per frequency bin with colored-noise-aware MMSE (or
plain LS) weights; comb bins are discarded first, which loses no data
energy when alignment is active since the data spectrum is exactly zero
there.  The equalized block estimates Psi s, and the detector inverts the
singular projector by exploiting Psi^+ = Psi plus entrywise projection
onto the QPSK alphabet, the only modulation the config accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pilot import SiaProjector, apply_projector


# unit QPSK points in Gray label order 2 b0 + b1: b0 sets the I sign, b1 the Q sign
_GRAY = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


def qpsk_symbols(labels, sigma_s2: float):
    """QPSK symbols of power sigma_s2 for 2-bit Gray labels; label 0 -> (+a, +a).

    A gather from the four points is one pass over the output, where sign
    arithmetic takes several; simulate_ce_mse maps 20k x N blocks at once.
    """
    return (np.sqrt(sigma_s2 / 2.0) * _GRAY)[labels]


def map_bits(bits, sigma_s2: float):
    """Bit vector (even length) to QPSK symbol vector of power sigma_s2."""
    return qpsk_symbols(np.asarray(bits).reshape(-1, 2) @ np.array([2, 1]), sigma_s2)


def demap_bits(symbols):
    """Gray demapping from the sign bits: b0 = (re < 0), b1 = (im < 0)."""
    symbols = np.asarray(symbols)
    bits = np.stack([symbols.real < 0, symbols.imag < 0], axis=-1).astype(np.int64)
    return bits.reshape(symbols.shape[:-1] + (-1,))


def project_nearest(v, sigma_s2: float):
    """Entrywise nearest QPSK point, slicing each component by its sign.

    ``< 0`` (not ``>= 0``) decides, so +-0 and NaN go to +a, the side of
    label 0, as in a nearest-point search that breaks ties to the lowest label.
    """
    v = np.asarray(v)
    a = np.sqrt(sigma_s2 / 2.0)
    s = np.empty(v.shape, complex)
    s.real = np.where(v.real < 0, -a, a)
    s.imag = np.where(v.imag < 0, -a, a)
    return s


# LS bins with |gamma| below this fraction of max(|gamma|, 1) get weight 0
_LS_FLOOR = 1e-12


@dataclass(frozen=True)
class EqualizerWeights:
    w: np.ndarray = field(repr=False)
    flagged_bins: int = 0


def fde_weights(lambda_eq, lambda_g, phi_diag, sigma_s2_eff, sigma_v2_eff,
                criterion="mmse") -> EqualizerWeights:
    """Per-bin equalizer weights from Gamma_eq = diag(lambda_eq * lambda_g).

    MMSE whitens the colored noise through phi_diag; LS inverts each bin,
    clamping (and counting) bins below the conditioning floor.  Perfect-CSI
    operation is the same call with the true channel response and unscaled
    powers.
    """
    if sigma_s2_eff < 0 or sigma_v2_eff < 0:
        raise ValueError("effective powers must be non-negative")
    gamma = np.asarray(lambda_eq) * np.asarray(lambda_g)
    if criterion == "mmse":
        if sigma_s2_eff == 0:
            raise ValueError("MMSE weights need sigma_s2_eff > 0")
        rho = sigma_v2_eff / sigma_s2_eff
        w = np.conj(gamma) / (np.abs(gamma) ** 2 + rho * np.asarray(phi_diag))
        return EqualizerWeights(w=w)
    if criterion == "ls":
        mag = np.abs(gamma)
        floor = _LS_FLOOR * max(float(mag.max()), 1.0)
        bad = mag < floor
        safe = np.where(bad, floor, gamma)
        w = np.where(bad, 0.0, 1.0 / safe)
        return EqualizerWeights(w=w, flagged_bins=int(bad.sum()))
    raise ValueError(f"unknown equalizer criterion {criterion!r}")


def zero_pilot_bins(y_tilde, P: int, Q: int):
    """Copy of the spectrum with the comb bins k = iQ set to zero."""
    y_tilde = np.asarray(y_tilde)
    if y_tilde.shape[-1] != P * Q:
        raise ValueError(f"length {y_tilde.shape[-1]} != P*Q = {P * Q}")
    z = y_tilde.copy()
    z[..., ::Q] = 0.0
    return z


def equalize(z_tilde, weights: EqualizerWeights):
    """u = IDFT(W z~) with the unitary convention."""
    z_tilde = np.asarray(z_tilde)
    n = z_tilde.shape[-1]
    return np.fft.ifft(weights.w * z_tilde, axis=-1) * np.sqrt(n)


def ista_detect(u, proj: SiaProjector, sigma_s2: float, n_iter: int = 3):
    """Iterative detection of s from u ~ Psi s.

    Initialization uses Psi^+ = Psi; each iteration adds the projected
    residual gradient Psi (u - Psi s_hat) and snaps entrywise to the
    nearest QPSK point.  O(N) per iteration.

    Returns (hard symbols, demapped bits).
    """
    u = np.asarray(u)
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    s_hat = apply_projector(u, proj)
    for _ in range(n_iter):
        r = u - apply_projector(s_hat, proj)
        s_hat = project_nearest(s_hat + apply_projector(r, proj), sigma_s2)
    s_hat = project_nearest(s_hat, sigma_s2)
    return s_hat, demap_bits(s_hat)
