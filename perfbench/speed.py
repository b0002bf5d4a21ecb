"""Machine speed, measured next to the work it corrects.

The shared machine this benchmark runs on slows the same code by up to 2x,
in stretches of a second to minutes, and CPU time slows with it: the
neighbours share the cores' caches and clock, not only their time.  So a
fixed kernel that is not ftnsim code is timed right before and right after
every cell and every set-up probe, and its speed scales their wall time
to what they take on a machine running the kernel in its ``ref_s``:

    cell_s * ref_s / mean(kernel before, kernel after)

Small-array work and memory-bound work slow by different amounts, so each
kind of cell gets a kernel built like it: ``run_cell`` (and the set-up
probe) the per-trial kernel, a fresh generator, Gaussian draws, FFTs of
128 samples, a nearest-point search and Python glue; ``simulate_ce_mse``
the same draws and FFTs on one large block.

A change to ftnsim does not change the kernels, so a faster or slower
program still reads faster or slower; only the machine's speed cancels.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, NamedTuple

import numpy as np

from ftnsim import harness

KERNEL_REPS = 150
BATCH_ROWS = 8192
_TAPER = np.hanning(128) + 0.5
_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


def per_trial_kernel_s() -> float:
    """Seconds for ``KERNEL_REPS`` rounds of small-array work, like one trial each."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(KERNEL_REPS):
        rng = np.random.default_rng(i)
        z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = np.fft.ifft(np.fft.fft(z) * _TAPER)
        k = np.argmin(np.abs(y[:, None] - _POINTS) ** 2, axis=1)
        acc += float(np.real(np.vdot(y, _POINTS[k])))
    if not np.isfinite(acc):
        raise ArithmeticError("speed kernel produced a non-finite sum")
    return time.perf_counter() - t0


def batched_kernel_s() -> float:
    """Seconds for the same steps on one (BATCH_ROWS, 128) block, 16 MB per
    complex array: memory-bound like the 20k-trial chunks of simulate_ce_mse."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    z = rng.standard_normal((BATCH_ROWS, 128)) + 1j * rng.standard_normal((BATCH_ROWS, 128))
    y = np.fft.ifft(np.fft.fft(z, axis=1) * _TAPER, axis=1)
    if not np.isfinite(np.sum(np.abs(y) ** 2)):
        raise ArithmeticError("speed kernel produced a non-finite sum")
    return time.perf_counter() - t0


class Kernel(NamedTuple):
    run: Callable[[], float]
    # Seconds of one run on the 2-core x86-64 sandbox the baseline was
    # measured on, when it ran fast (Python 3.11, numpy 2.4, one BLAS
    # thread): the unit that corrected seconds are given in.
    ref_s: float


PER_TRIAL = Kernel(per_trial_kernel_s, 0.0064)
BATCHED = Kernel(batched_kernel_s, 0.056)


class Cell(NamedTuple):
    """One measured call: its wall time, the kernel time around it, the speed."""

    call_s: float
    kernel_s: float     # both kernel runs together
    speed: float        # the kernel's ref_s / its mean time; 1 at the reference speed

    @property
    def corrected_s(self) -> float:
        return self.call_s * self.speed


def around(kernel: Kernel, fn, *args, **kwargs):
    """Call ``fn`` between two kernel runs; return its result and its ``Cell``."""
    before = kernel.run()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    call_s = time.perf_counter() - t0
    after = kernel.run()
    return out, Cell(call_s, before + after, 2.0 * kernel.ref_s / (before + after))


ATTR = "_perfbench_speed"
# Each wrapped function with the kernel built like its work.
WRAPPED = {"run_cell": PER_TRIAL, "simulate_ce_mse": BATCHED}


class Speedometer:
    """Times a kernel before and after every ``run_cell`` and ``simulate_ce_mse``.

    Each call gives a ``Cell``.  Calls in this process are kept in order in
    ``records``; a ``SweepRow`` also carries its ``Cell`` as an attribute,
    which is how cells run by forked pool workers report theirs.
    The wrappers change no argument or return value.
    """

    def __init__(self):
        self.records = []
        self._saved = []

    def _wrap(self, fn, kernel):
        records = self.records

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            out, cell = around(kernel, fn, *args, **kwargs)
            if isinstance(out, harness.SweepRow):
                setattr(out, ATTR, cell)
            records.append(cell)
            return out

        return measured

    def take(self) -> list:
        """The cells recorded in this process since the last ``take``."""
        out = list(self.records)
        self.records.clear()
        return out

    def __enter__(self):
        for name, kernel in WRAPPED.items():
            fn = getattr(harness, name)
            self._saved.append((name, fn))
            setattr(harness, name, self._wrap(fn, kernel))
        return self

    def __exit__(self, *exc):
        for name, fn in reversed(self._saved):
            setattr(harness, name, fn)
        self._saved.clear()
        return False


def row_cells(rows) -> list:
    """The ``Cell`` each row of a sweep carries."""
    return [getattr(r, ATTR) for r in rows]
