"""Superimposed Chu pilot and the spectral-alignment projector.

The pilot is one length-P Chu sequence repeated Q times, so its spectrum
lives only on the comb bins k = i*Q.  The alignment step subtracts the
cyclic mean of the data (projector Psi = I - J with J = (1/Q) 1_Q (x) I_P),
which zeroes the data spectrum on exactly those bins.  Psi is idempotent,
symmetric, and its own pseudo-inverse; both J and Psi are applied in O(N)
without ever being materialized.
"""

from __future__ import annotations

import numpy as np


def chu_pilot(P: int, Q: int) -> np.ndarray:
    """Q-fold repetition of one length-P Chu sequence, at per-symbol power 1 - 1/Q.

    The sequence is root-1 Chu (unit modulus, flat DFT magnitude).  The power
    is the rebalancing rule under alignment for unit-power data: the pilot
    carries the power the projector leaves on the data, 1 - 1/Q.
    """
    n = np.arange(P)
    if P % 2 == 0:
        phase = np.pi * n**2 / P
    else:
        phase = np.pi * n * (n + 1) / P
    return np.tile(np.sqrt(1 - 1 / Q) * np.exp(1j * phase), Q)


def _segment_mean(v, Q: int):
    """(Q, N/Q) segment view of ``v`` and the per-residue-class mean over its segments.

    The sum and the in-place divide are the ufunc calls ``np.mean`` makes,
    so the bits match it without its dispatch cost.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    if Q < 1 or n % Q != 0:
        raise ValueError(f"need Q >= 1 dividing the length, got length {n}, Q={Q}")
    if v.dtype.kind in "biu":   # np.mean sums integers and booleans in float64
        v = v.astype(np.float64)
    segs = v.reshape(*v.shape[:-1], Q, n // Q)
    mean = np.add.reduce(segs, axis=-2, keepdims=True)
    mean /= Q
    return segs, mean


def apply_projector(v, Q: int):
    """Psi v = v - J v in O(N); on data it zeroes the spectrum on bins k = iQ.

    The mean broadcasts over the (Q, N/Q) segment view, so J v is never tiled.
    """
    segs, mean = _segment_mean(v, Q)
    return (segs - mean).reshape(np.shape(v))


def compose_tx(s, x_p, Q: int, sia: bool):
    """Transmit block: (I - J) s + x_p with alignment on, s + x_p otherwise.

    One add forms the block; it promotes real data to the pilot's dtype.
    """
    return (apply_projector(s, Q) if sia else np.asarray(s)) + x_p
