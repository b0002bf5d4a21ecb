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

from .pilot import SiaProjector, apply_projector, cyclic_mean


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
    pairs = np.asarray(bits).reshape(-1, 2)
    return qpsk_symbols(2 * pairs[:, 0] + pairs[:, 1], sigma_s2)


def demap_bits(symbols):
    """Gray demapping from the sign bits: b0 = (re < 0), b1 = (im < 0).

    The float view interleaves re, im per symbol, which is already the bit
    order b0, b1, so one comparison demaps the whole block.
    """
    symbols = np.ascontiguousarray(symbols, dtype=complex)
    return (symbols.view(np.float64) < 0).astype(np.int64)


def project_nearest(v, sigma_s2: float):
    """Entrywise nearest QPSK point, slicing each component by its sign.

    ``< 0`` (not ``>= 0``) decides, so +-0 and NaN go to +a, the side of
    label 0, as in a nearest-point search that breaks ties to the lowest label.
    Both components are sliced in one pass over the float view.
    """
    s = np.ascontiguousarray(v, dtype=complex)
    a = np.sqrt(sigma_s2 / 2.0)
    return np.where(s.view(np.float64) < 0, -a, a).view(complex).reshape(np.shape(v))


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
        num = np.conj(gamma)
        den = np.abs(gamma) ** 2 + rho * np.asarray(phi_diag)
        # a bin with neither signal nor noise (0/0) gets weight 0
        w = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
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
    nearest QPSK point.  Psi is idempotent, so that step
    s + Psi (u - Psi s) equals Psi u + J s: one cyclic mean per iteration
    on top of the fixed Psi u.  O(N) per iteration.

    Returns (hard symbols, demapped bits).
    """
    if n_iter < 0:
        raise ValueError("n_iter must be >= 0")
    psi_u = apply_projector(u, proj)
    s_hat = psi_u
    for _ in range(n_iter):
        s_hat = project_nearest(psi_u + cyclic_mean(s_hat, proj), sigma_s2)
    s_hat = project_nearest(s_hat, sigma_s2)
    return s_hat, demap_bits(s_hat)
