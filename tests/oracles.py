"""Dense and direct-form reference implementations the tests compare against.

None of these runs in the simulator: they materialize O(N^2) matrices, run
the linear (non-circulant) chain, or spell out as written a step the
library computes in a faster form, so that the library code can be
checked against an independent construction.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from ftnsim import chanest, detector, harness, pilot
from ftnsim.channel import colored_noise
from ftnsim.core import circulant_matvec, complex_gaussian, dft, dft_rows, make_rng
from ftnsim.pilot import _segment_mean, apply_projector
from ftnsim.waveform import isi_taps


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


def build_isi_toeplitz(tau: float, beta: float, nu: int, N: int) -> np.ndarray:
    """Symmetric banded Toeplitz G with first column [g(0),...,g(nu T),0,...,0]."""
    g = isi_taps(tau, beta, nu)
    mat = np.zeros((N, N))
    idx = np.arange(N)
    lag = np.abs(idx[:, None] - idx[None, :])
    mask = lag <= nu
    mat[mask] = g[lag[mask]]
    return mat


def projector_dense(P: int, Q: int) -> np.ndarray:
    """Materialize the alignment projector Psi = I - J for length P*Q blocks."""
    j = np.kron(np.ones((Q, Q)) / Q, np.eye(P))
    return np.eye(P * Q) - j


def transmit_exact(x, h, tau: float, beta: float, nu: int, N: int,
                   guard: int | None = None, noise=None):
    """Exact guard-extended chain: prepend/append guard symbols, run the banded
    Toeplitz channel (taps ``h``) and ISI filters, strip the guard, add noise.

    ``guard`` defaults to nu (the CP/CS length of the block design).  The
    output matches ``transmit_fast`` to machine precision whenever
    guard >= nu + L - 1; with guard = nu and L > 1 the first few samples
    deviate by the truncation tail of g (see tests for the measured regime).
    """
    x = np.asarray(x)
    if len(x) != N:
        raise ValueError(f"block length {len(x)} != N={N}")
    if guard is None:
        guard = nu
    if guard < nu:
        raise ValueError("guard must be >= nu for the symmetric ISI span")
    g = isi_taps(tau, beta, nu)
    s_cp = np.concatenate([x[N - guard:], x, x[:guard]])
    # causal channel filter (lower-triangular Toeplitz)
    v = np.convolve(s_cp, h)[: len(s_cp)]
    # symmetric banded ISI filter: y[m] = sum_{k=-nu}^{nu} g(k) v[m+k]
    g_sym = np.concatenate([g[::-1], g[1:]])
    y_ext = np.convolve(v, g_sym)[nu : nu + len(v)]
    y = y_ext[guard : guard + N]
    if noise is not None:
        y = y + noise
    return y


def cyclic_mean(v, Q: int):
    """J v: per-residue-class mean over the Q segments of length N/Q, tiled back.

    The mean is ``apply_projector``'s, so ``v - cyclic_mean(v, Q)`` is Psi v
    bit for bit; the library never tiles J v.
    """
    segs, mean = _segment_mean(v, Q)
    return mean.repeat(Q, axis=-2).reshape(np.shape(v))


def colored_noise_td(sqrt_lambda_g, sigma_v2: float, rng, trials: int | None = None):
    """Time-domain noise eta = sqrt(sigma_v2) * B w, B = F^H diag(sqrt_lambda_g) F.

    Draws the same w as ``channel.colored_noise`` from the same generator,
    so ``dft`` of this is that function's noise spectrum.
    """
    n = len(sqrt_lambda_g)
    shape = (n,) if trials is None else (trials, n)
    w = complex_gaussian(shape, 1.0, rng)
    return math.sqrt(sigma_v2) * circulant_matvec(sqrt_lambda_g, w)


def receive_td(x, lambda_h, lambda_g, eta_td):
    """Received spectrum by the time-domain chain: dft(Theta x + eta).

    Theta = F^H diag(lambda_g lambda_h) F is applied to the transmit block
    by FFT, the time-domain noise ``eta_td`` is added, and only then is the
    block taken to the frequency domain, as a receiver front end would.
    """
    return dft(circulant_matvec(lambda_g * lambda_h, x) + eta_td)


def slice_reference(v):
    """Unit-power QPSK sign slicer with one np.where per component: < 0 -> -a, else +a."""
    v = np.asarray(v)
    a = np.sqrt(1.0 / 2.0)
    s = np.empty(v.shape, complex)
    s.real = np.where(v.real < 0, -a, a)
    s.imag = np.where(v.imag < 0, -a, a)
    return s


def demap_reference(symbols):
    """Gray sign-bit demapper that stacks (re < 0, im < 0) per symbol."""
    symbols = np.asarray(symbols)
    bits = np.stack([symbols.real < 0, symbols.imag < 0], axis=-1).astype(np.int64)
    return bits.reshape(symbols.shape[:-1] + (-1,))


def ista_reference(u, Q: int, n_iter: int):
    """ISTA iterates as written, two projections per step: s + Psi (u - Psi s), sliced.

    Returns [Psi u, s_1, ..., s_n_iter]; the detector's decision is the
    slice of the last one.
    """
    s_hat = apply_projector(u, Q)
    iterates = [s_hat]
    for _ in range(n_iter):
        r = u - apply_projector(s_hat, Q)
        s_hat = slice_reference(s_hat + apply_projector(r, Q))
        iterates.append(s_hat)
    return iterates


def ista_projecting_reference(u, Q: int, n_iter: int):
    """``detector.ista_detect`` for any ``u``: projects ``u`` first and adds J s at every step.

    Iterates s = slice(Psi u + J s) from s = Psi u, then snaps the result
    once more, so the library's detector must give the same decisions
    whenever ``Psi u = u``.  Returns (hard symbols, demapped bits).
    """
    psi_u = apply_projector(u, Q)
    segs = psi_u.reshape(*psi_u.shape[:-1], Q, -1)
    s_hat = segs
    for _ in range(n_iter):
        mean = np.add.reduce(s_hat, axis=-2, keepdims=True)
        mean /= Q
        s_hat = detector.project_nearest(segs + mean)
    s_hat = detector.project_nearest(s_hat).reshape(psi_u.shape)
    return s_hat, detector.demap_bits(s_hat)


def qpsk_block_from_words(words, Q: int, sigma_s2: float):
    """The (b, P Q) QPSK blocks whose sign bits ``simulate_ce_mse`` draws as ``words``.

    ``words`` is (b, 2, P, W) uint64; bit q mod 64 of word q // 64 of
    (c, p) is the sign (1 = negative) of component c (0 real, 1 imaginary)
    of symbol q P + p.  Bits at q >= Q are ignored.
    """
    b, _, P, _ = words.shape
    bits = np.stack([(words[..., q // 64] >> np.uint64(q % 64)) & np.uint64(1)
                     for q in range(Q)], axis=1)          # (b, Q, 2, P)
    signs = 1.0 - 2.0 * bits
    a = np.sqrt(sigma_s2 / 2.0)
    return (a * (signs[:, :, 0] + 1j * signs[:, :, 1])).reshape(b, Q * P)


def ce_mse_reference(cfg, tau: float, sigma_v2: float, n_trials: int,
                     criteria=("ls", "mmse"), sigma_s2: float = 1.0,
                     seed: int | None = None):
    """``harness.simulate_ce_mse`` through the full band: all N bins, then the comb.

    Same chunks (``harness._CE_CHUNK``, read at call time), RNG keys and
    draws as the library, but the whole (b, N) QPSK block is built from the
    data words, composed with the full pilot, and its signal spectrum is
    formed on every bin as dft(Theta x) before the comb is taken.  The noise
    is drawn on the comb, as the library draws it.
    """
    seed = cfg.seed if seed is None else seed
    scenario = harness.build_scenario(cfg, tau)
    n, L, P, Q = cfg.N, cfg.L, cfg.P, cfg.Q
    errs = {c: [] for c in criteria}
    done = chunk_idx = 0
    while done < n_trials:
        b = min(harness._CE_CHUNK, n_trials - done)
        rng_h = make_rng(seed, chunk_idx, harness._SUB_CHANNEL)
        rng_s = make_rng(seed, chunk_idx, harness._SUB_DATA)
        rng_w = make_rng(seed, chunk_idx, harness._SUB_NOISE)
        h = complex_gaussian((b, L), 1.0 / L, rng_h)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        words = rng_s.integers(0, 2**64, size=(b, 2, P, -(-Q // 64)), dtype=np.uint64)
        s = qpsk_block_from_words(words, Q, sigma_s2)
        x = pilot.compose_tx(s, scenario.x_p, Q, cfg.sia)
        y_tilde = dft(circulant_matvec((h @ dft_rows(L, n)) * scenario.lambda_g, x))
        comb = y_tilde[:, ::Q] + colored_noise(scenario.noise_factor[::Q], sigma_v2,
                                               rng_w, trials=b)
        for crit in criteria:
            if crit == "ls":
                d_hat = chanest.ce_ls(comb, scenario.tables)
            else:
                w = chanest.mmse_weights(scenario.tables, sigma_v2, 1.0 / L)
                d_hat = chanest.ce_mmse(comb, w)
            h_hat = chanest.fd_to_td(d_hat, L)
            errs[crit].append(np.sum(np.abs(h - h_hat) ** 2, axis=1))
        done += b
        chunk_idx += 1
    out = {}
    for crit in criteria:
        e = np.concatenate(errs[crit])
        out[crit] = (float(e.mean()), float(e.std() / math.sqrt(n_trials)))
    return out


def _complex_gaussian_two_draws(shape, variance, rng):
    """CN(0, variance) entries from a real draw, then an imaginary draw, each of ``shape``."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(variance / 2.0)
    return z


def reference_trial(cell, trial_index: int):
    """``harness.run_trial``'s chain as first written, with its original numpy calls.

    The bits come from ``integers(0, 2, 2 N)``; each complex Gaussian from two
    ``standard_normal`` draws; the pilot is added to a promoted copy of the
    projected data; and the FFTs allocate their own outputs.  The channel
    estimator, FDE weights, comb zeroing and detector are the library's.

    Returns a namespace with the trial's ``bit_errors``, ``sq_err`` and
    ``tx_power``, and the intermediates ``s`` (data symbols), ``x`` (transmit
    block), ``u`` (equalizer output), ``w`` (FDE weights) and ``lambda_h``
    (true channel response).
    """
    scenario, sigma_v2 = cell.scenario, cell.sigma_v2
    cfg = scenario.cfg
    n, stream = cfg.N, cell.first_stream + trial_index
    rng_ch, rng_data, rng_noise = (make_rng(cfg.seed, stream, sub)
                                   for sub in (harness._SUB_CHANNEL, harness._SUB_DATA,
                                               harness._SUB_NOISE))

    h = _complex_gaussian_two_draws(cfg.L, 1.0 / cfg.L, rng_ch)
    h /= math.sqrt(h.real.dot(h.real) + h.imag.dot(h.imag))
    lambda_h = h @ dft_rows(cfg.L, n)
    bits = rng_data.integers(0, 2, 2 * n)
    pairs = bits.reshape(-1, 2)
    gray = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    s = (np.sqrt(1.0 / 2.0) * gray)[2 * pairs[:, 0] + pairs[:, 1]]
    if cfg.sia:
        x = apply_projector(s, cfg.Q).astype(np.result_type(s, scenario.x_p), copy=False)
        x += scenario.x_p
    else:
        x = s + scenario.x_p

    eta = np.fft.fft(_complex_gaussian_two_draws(n, 1.0, rng_noise), axis=-1)
    eta *= math.sqrt(sigma_v2 / n) * scenario.noise_factor
    x_tilde = np.fft.fft(x, axis=-1)
    x_tilde /= math.sqrt(n)
    y_tilde = scenario.lambda_g * lambda_h * x_tilde + eta

    if cfg.ce_criterion == "perfect":
        lambda_eq, sq_err = lambda_h, 0.0
    else:
        h_hat, lambda_eq = chanest.estimate_channel(y_tilde, scenario.tables, cfg.L, cell.mmse_w)
        sq_err = float(np.add.reduce(np.abs(h - h_hat) ** 2))
    w = detector.fde_weights(lambda_eq, scenario.lambda_g, scenario.phi_diag, sigma_v2)
    z_tilde = detector.zero_pilot_bins(y_tilde, cfg.Q)
    u = np.fft.ifft(w * z_tilde, axis=-1) * math.sqrt(n)
    if cfg.sia:
        _, bits_hat = detector.ista_detect(u, cfg.Q, cfg.n_ista)
    else:
        bits_hat = detector.demap_bits(detector.project_nearest(u))

    power = np.abs(x) ** 2
    return SimpleNamespace(bit_errors=int(np.count_nonzero(bits != bits_hat)), sq_err=sq_err,
                           tx_power=float(np.add.reduce(power) / power.size),
                           s=s, x=x, u=u, w=w, lambda_h=lambda_h)
