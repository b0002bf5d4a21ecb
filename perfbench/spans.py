"""Outside-in tracing of ftnsim: spans around the module attributes harness calls.

The tracer replaces module attributes with wrappers that record one span per
call: (name, start_ns, end_ns, parent index).  It changes no library code
and no argument or return value, so traced results equal untraced ones.

Which attribute is replaced decides what a span covers.  Names that harness
imported from core and channel are replaced in harness's namespace, so only
harness's own calls are spans (calls from inside channel stay in the
caller's self time).  The pilot, chanest and detector functions are
replaced on their modules, so their calls to each other are spans too, e.g.
``detector.project_nearest`` inside ``detector.ista_detect``.

Pool workers are forked from the traced process and so inherit the
wrappers.  A worker ships the spans of each cell back on the returned row,
and the tracer collects them when ``collect_rows`` is called.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from ftnsim import chanest, detector, harness, pilot

# (object whose attribute is replaced, attribute, span name)
SPANS = (
    (harness, "run_sweep", "harness.run_sweep"),
    (harness, "run_cell", "harness.run_cell"),
    (harness, "build_scenario", "harness.build_scenario"),
    (harness, "run_trial", "harness.run_trial"),
    (harness, "simulate_ce_mse", "harness.simulate_ce_mse"),
    (harness, "make_rng", "core.make_rng"),
    (harness, "complex_gaussian", "core.complex_gaussian"),
    (harness, "circulant_matvec", "core.circulant_matvec"),
    (harness, "dft", "core.dft"),
    (harness, "sample_channel", "channel.sample_channel"),
    (harness, "colored_noise", "channel.colored_noise"),
    (harness, "transmit_fast", "channel.transmit_fast"),
    (pilot, "compose_tx", "pilot.compose_tx"),
    (chanest, "estimate_channel", "chanest.estimate_channel"),
    (chanest, "extract_comb", "chanest.extract_comb"),
    (chanest, "ce_mmse", "chanest.ce_mmse"),
    (chanest, "fd_to_td", "chanest.fd_to_td"),
    (detector, "map_bits", "detector.map_bits"),
    (detector, "fde_weights", "detector.fde_weights"),
    (detector, "zero_pilot_bins", "detector.zero_pilot_bins"),
    (detector, "equalize", "detector.equalize"),
    (detector, "ista_detect", "detector.ista_detect"),
    (detector, "project_nearest", "detector.project_nearest"),
    (detector, "demap_bits", "detector.demap_bits"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)

_ROW_ATTR = "_perfbench_spans"


class Tracer:
    """Installs the span wrappers and keeps the spans of this process in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []        # (name, start_ns, end_ns, parent index or -1)
        self.segments = []     # span lists from pool workers, one per cell
        self._open = []        # indices of the spans still running
        self._saved = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                open_.pop()
        return traced

    def _wrap_cell(self, fn):
        traced = self._wrap("harness.run_cell", fn)

        @functools.wraps(fn)
        def run_cell(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            # forked pool worker: start from empty lists, ship this cell's spans
            self.spans.clear()
            self._open.clear()
            row = traced(*args, **kwargs)
            setattr(row, _ROW_ATTR, list(self.spans))
            self.spans.clear()
            return row
        return run_cell

    def __enter__(self):
        for obj, attr, name in SPANS:
            fn = getattr(obj, attr)
            self._saved.append((obj, attr, fn))
            wrapper = self._wrap_cell(fn) if name == "harness.run_cell" \
                else self._wrap(name, fn)
            setattr(obj, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)
        return False

    def collect_rows(self, rows) -> int:
        """Move worker spans off ``rows``; returns how many rows carried none."""
        missing = 0
        for row in rows:
            spans = row.__dict__.pop(_ROW_ATTR, None)
            if spans is None:
                missing += 1
            else:
                self.segments.append(spans)
        return missing


class SpanStats:
    """Self time and call counts per span, and every ``run_trial`` duration,
    summed over traced sweeps."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.run_trial_ns = []

    def add(self, tracer: Tracer) -> dict:
        """Add one traced sweep; returns that sweep's call counts."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for spans in [tracer.spans, *tracer.segments]:
            if None in spans:
                raise RuntimeError("span still open when the sweep ended")
            child_ns = [0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for (name, start, end, _), child in zip(spans, child_ns):
                calls[name] += 1
                self.self_ns[name] += end - start - child
                if name == "harness.run_trial":
                    self.run_trial_ns.append(end - start)
        for name, n in calls.items():
            self.calls[name] += n
        return calls

    def run_trial_us(self, q) -> float:
        """The q-th percentile of the inclusive ``run_trial`` span; 0 without trials."""
        d = self.run_trial_ns
        return float(np.percentile(d, q)) / 1e3 if d else 0.0
