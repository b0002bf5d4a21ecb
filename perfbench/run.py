"""ftnsim benchmark: time Monte Carlo sweeps at a fixed accuracy and check their results.

    python3 perfbench/run.py --workload waterfall --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ftnsim from ``src/``.  Standard
output ends with two JSON lines: the run's environment, seeds, counts and
checks, then ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace
0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
perfbench/README.md defines every metric.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is imported; pool
# workers and set-up probes inherit it, so 2 workers do not oversubscribe
# 2 cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("waterfall", "ce_mse", "sweep_parallel")
SETUP_PROBES = 21
REFERENCE = HERE / "reference_counts.json"


def git_sha() -> str:
    """HEAD of the checkout's own .git, without searching parent directories."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over src/ftnsim/*.py, so runs of the same code match without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ftnsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def setup_probe(taus) -> float:
    """Set-up time of a fresh interpreter (import ftnsim, validate, build every
    tau), scaled by the machine speed measured around it (speed.py)."""
    from speed import PER_TRIAL, around
    proc, cell = around(
        PER_TRIAL, subprocess.run,
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(repr, taus)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) * cell.speed


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of the process that ran the cells: this one, or the largest
    child, which must then be a pool worker."""
    who = resource.RUSAGE_CHILDREN if workers > 1 else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class TracedSweeps:
    """What the traced twin of each untraced sweep adds up to."""

    def __init__(self):
        from spans import SpanStats
        self.stats = SpanStats()
        self.sweeps = 0
        self.trials = 0
        self.overhead_s = []
        self.first = None             # exact counts of the first traced sweep
        self.same_rows = True
        self.rows_without_spans = 0

    def run(self, wl, cfg, untraced, dt_untraced):
        from spans import Tracer
        with Tracer() as tracer:
            dt, res = timed(wl.run, cfg)
        if res.workers > 1:
            self.rows_without_spans += tracer.collect_rows(res.table.rows)
        calls = self.stats.add(tracer)
        if self.first is None:
            self.first = {"seed": cfg.seed, "trials": res.trials,
                          "cells_at_max_trials": res.cells_at_max_trials, "calls": calls}
        self.sweeps += 1
        self.trials += res.trials
        self.overhead_s.append(dt - dt_untraced)
        self.same_rows &= res.result_bytes() == untraced.result_bytes()


def measure(wl, seed: int, seconds: float, trace: bool):
    """Sweep the workload's config seeds round robin until ``seconds`` have passed.

    Untraced runs make at least one full pass over the seeds, so every run
    covers the same inputs, measure the machine's speed around every cell
    (speed.py), and run a set-up probe after each of the first sweeps, so
    the probes sample most of the run.  Traced runs pair each
    untraced sweep with a traced sweep of the same config.  Returns (timed
    sweeps as (seconds, result), one result per config seed, set-up probe
    seconds, peak RSS after the first sweep, traced sweeps or None, checks).
    """
    from speed import Speedometer, row_cells
    from workloads import Check

    cfgs = wl.configs(seed)
    sweeps, results, setups, rss = [], [None] * len(cfgs), [], None
    traced = TracedSweeps() if trace else None
    meter = None if trace else Speedometer()
    checks = []
    start = time.perf_counter()
    i = 0
    with meter or contextlib.nullcontext():
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (i >= len(cfgs) or (trace and i >= 1)):
                break
            k = i % len(cfgs)
            i += 1
            try:
                dt, res = timed(wl.run, cfgs[k])
                if traced is not None:
                    traced.run(wl, cfgs[k], res, dt)
            except Exception as exc:   # a raised sweep is a failed check, not a crash
                traceback.print_exc()
                checks.append(Check(f"sweep_raised[seed {cfgs[k].seed}]", False, repr(exc)))
                if i >= len(cfgs) and not sweeps:
                    break
                continue
            if meter is not None:
                res.speed_cells = meter.take()
                if res.table is not None:   # rows carry theirs, also from pool workers
                    res.speed_cells = row_cells(res.table.rows)
            sweeps.append((dt, res))
            results[k] = res
            if rss is None:
                rss = peak_rss_mb(wl.workers)   # before any set-up probe, also a child
            if not trace and len(setups) < SETUP_PROBES:
                setups.append(setup_probe(wl.taus))
    while not trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl.taus))
    return sweeps, results, setups, rss, traced, checks


def makespan(cell_seconds, workers: int) -> float:
    """Wall time of cells handed in order to whichever worker is free first,
    as ``run_sweep``'s pool does; on one worker, their sum."""
    free = [0.0] * workers
    for t in cell_seconds:
        free[free.index(min(free))] += t
    return max(free)


def corrected_sweep_s(sweeps, results) -> float:
    """Wall time of one sweep at the reference machine speed, averaged over
    the run's config seeds.

    Every cell's wall time is scaled by the machine speed measured around
    it (speed.py).  Each cell of the grid gets the median of its corrected
    time per trial over the run's sweeps; a seed's sweep is the makespan of
    its cells at those times plus the median corrected overhead of the
    run's sweeps over the makespan of their own cells and kernels (pool
    start-up, pickling, glue).
    """
    workers = results[0].workers
    cells = zip(zip(*(r.speed_cells for _, r in sweeps)), zip(*(r.cell_trials for _, r in sweeps)))
    per_trial = [statistics.median(c.corrected_s / n for c, n in zip(measured, trials))
                 for measured, trials in cells]
    overhead = statistics.median(
        max(0.0, dt - makespan([c.call_s + c.kernel_s for c in r.speed_cells], workers))
        * statistics.fmean(c.speed for c in r.speed_cells)
        for dt, r in sweeps)
    return statistics.fmean(
        makespan([n * b for n, b in zip(r.cell_trials, per_trial)], workers) + overhead
        for r in results)


def end_to_end(sweeps, results, setups, rss, passed_share):
    sweep_s = corrected_sweep_s(sweeps, results)
    return {
        "sweep_s": metric(sweep_s, "s"),
        "trials_per_s": metric(statistics.fmean(r.trials for r in results) / sweep_s, "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "passed_share": metric(passed_share, "ratio"),
    }


def per_layer(wl, sweeps, traced):
    from spans import SPAN_NAMES
    stats = traced.stats
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_us"] = metric(stats.self_ns[name] / traced.trials / 1e3, "us")
        out[f"{name}.calls"] = metric(traced.first["calls"][name], "count")
    out["harness.run_trial.us_p50"] = metric(stats.run_trial_us(50), "us")
    out["harness.run_trial.us_p99"] = metric(stats.run_trial_us(99), "us")
    out["harness.run_trial.samples"] = metric(len(stats.run_trial_ns), "count")
    builds = stats.calls["harness.build_scenario"]
    out["harness.build_scenario.us_per_call"] = metric(
        stats.self_ns["harness.build_scenario"] / builds / 1e3 if builds else 0.0, "us")
    out["harness.trials"] = metric(traced.first["trials"], "count")
    out["harness.cells_at_max_trials"] = metric(traced.first["cells_at_max_trials"], "count")

    util, crit, idle = [], [], []
    for dt, res in sweeps:
        busy = sum(res.cell_walls)
        util.append(busy / (res.workers * dt))
        crit.append(max(res.cell_walls) / dt)
        idle.append(res.workers * dt - busy)
    out["harness.pool.utilization"] = metric(statistics.median(util), "ratio")
    out["harness.pool.critical_cell_share"] = metric(statistics.median(crit), "ratio")
    out["harness.pool.idle_s"] = metric(statistics.median(idle), "s")
    out["harness.simulate_ce_mse.computed_bytes_per_trial"] = metric(
        wl.computed_bytes_per_trial(), "B")

    overhead = statistics.median(traced.overhead_s)
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.overhead_share"] = metric(
        overhead / statistics.median(dt for dt, _ in sweeps), "ratio")
    out["trace.sweeps"] = metric(traced.sweeps, "count")
    return out


def reference_drift(workload, results, traced) -> dict:
    """Compare exact counts with the committed ones for the same config seeds."""
    ref = json.loads(REFERENCE.read_text())[workload]
    compared, drift = 0, []
    for r in results:
        want = ref.get(str(r.cfg.seed))
        if want is None:
            continue
        got = {"trials": r.trials, "cells_at_max_trials": r.cells_at_max_trials}
        for key, value in got.items():
            compared += 1
            if want[key] != value:
                drift.append(f"seed {r.cfg.seed} {key}: {value} != {want[key]}")
    if traced is not None:
        want = ref.get(str(traced.first["seed"]), {}).get("calls")
        if want is not None:
            for name, value in traced.first["calls"].items():
                compared += 1
                if want.get(name) != value:
                    drift.append(f"seed {traced.first['seed']} {name}.calls: "
                                 f"{value} != {want.get(name)}")
    return {"compared": compared, "drift": drift}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ftnsim" / "__init__.py").is_file():
        print(f"perfbench: ftnsim sources not found under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    wl = workloads.make(args.workload)
    sweeps, results, setups, rss, traced, checks = measure(
        wl, args.seed, args.seconds, bool(args.trace))
    done = [r for r in results if r is not None]
    if not done:
        print("perfbench: no sweep completed", file=sys.stderr)
        return 1
    checks += wl.checks(done) + wl.determinism(done[0])
    if traced is not None:
        checks.append(workloads.Check("traced_rows_same_as_untraced", traced.same_rows,
                                      "a traced sweep wrote other rows than its untraced twin"))
    failed = [c for c in checks if not c.ok]

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {"git_sha": git_sha(), "src_sha256": source_digest(),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": workloads.nproc(), "workers": wl.workers,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "config_seeds": [c.seed for c in wl.configs(args.seed)],
        "trials_per_sweep": {r.cfg.seed: r.trials for r in done},
        "sweeps": [{"seed": res.cfg.seed, "s": dt, "cell_s": res.cell_walls,
                    "cell_speed": [c.speed for c in res.speed_cells]}
                   for dt, res in sweeps],
        "reference": reference_drift(args.workload, done, traced),
        "checks_failed": [f"{c.name}: {c.detail}" for c in failed],
    }
    if traced is None:
        info["setup_s_samples"] = setups
        metrics = end_to_end(sweeps, done, setups, rss,
                             (len(checks) - len(failed)) / len(checks))
    else:
        info["traced_trials"] = traced.trials
        info["pool_rows_without_spans"] = traced.rows_without_spans
        metrics = per_layer(wl, sweeps, traced)
    for line in info["checks_failed"]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for line in info["reference"]["drift"]:
        print(f"perfbench: count drift: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
