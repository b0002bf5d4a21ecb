"""The benchmark's workloads: what each runs, how it is seeded and how its results are checked.

Every workload is a batch job: one process runs one sweep at a time, and
the next starts when the last has finished.  A run with ``--seed n`` uses
the config seeds ``1000 n + k`` for k < ``n_seeds``; the program receives
only the resulting ``FtnConfig``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field, replace

from ftnsim import harness
from ftnsim.chanest import theoretical_mse_ls, theoretical_mse_mmse
from ftnsim.config import FtnConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EBN0_GRID = tuple(float(x) for x in range(0, 17, 2))   # 0, 2, ..., 16 dB

# A cell's simulated MSE must lie within Z_GATE pooled standard errors of
# the closed form.  A run makes up to ~20 such checks and the benchmark is
# run ~70 times per comparison, so at 3 se (0.27% false alarms per check) a
# correct program would fail a few runs each time; 4.5 se gives 7e-6 per
# check.  The se is pooled over all sweeps of the run, so the gate still
# catches a bias of about 1.6 single-sweep standard errors.
Z_GATE = 4.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def seeded(base: FtnConfig, seed: int, n_seeds: int):
    """The config seeds ``1000 seed + k``, k < n_seeds, of one run."""
    return [replace(base, seed=1000 * seed + k) for k in range(n_seeds)]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Result:
    """One sweep of a workload at one config seed."""

    cfg: FtnConfig
    cell_trials: list         # trials per cell (per point for ce_mse), in grid order
    cell_walls: list          # seconds per cell
    workers: int
    table: harness.SweepTable | None = None
    points: dict = field(default_factory=dict)   # ce_mse: (tau, ebn0) -> {crit: (mean, se)}
    speed_cells: list = field(default_factory=list)   # speed.Cell per cell, untraced runs

    @property
    def trials(self) -> int:
        return sum(self.cell_trials)

    @property
    def cells_at_max_trials(self) -> int:
        if self.table is None:
            return 0
        return sum(r.trials == self.cfg.max_trials for r in self.table.rows)

    def result_bytes(self) -> bytes:
        """The sweep's output as bytes: the CSV ``emit_results`` writes, timing off."""
        if self.table is None:
            doc = {f"{tau:g}/{ebn0:g}": {c: [repr(m), repr(s)] for c, (m, s) in v.items()}
                   for (tau, ebn0), v in self.points.items()}
            return json.dumps(doc, sort_keys=True).encode()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            path = harness.emit_results(self.table, "csv", os.path.join(tmp, "rows"))[0]
            with open(path, "rb") as fh:
                return fh.read()


def _pooled(means, ses, counts):
    """Trial-weighted mean of independent estimates and its standard error."""
    total = sum(counts)
    mean = sum(n * m for n, m in zip(counts, means)) / total
    se = math.sqrt(sum((n * s) ** 2 for n, s in zip(counts, ses))) / total
    return mean, se


def _within(name, sim, se, theory) -> Check:
    if theory is None or not (math.isfinite(sim) and se > 0):
        return Check(name, False, f"sim {sim} se {se} theory {theory}")
    z = abs(sim - theory) / se
    return Check(name, z <= Z_GATE, f"sim {sim:.6g} theory {theory:.6g} ({z:.2f} pooled se)")


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` over an Eb/N0 (x tau) grid at a fixed bit-error target."""

    base: FtnConfig
    n_seeds: int
    workers: int = 1

    def configs(self, seed: int):
        return seeded(self.base, seed, self.n_seeds)

    @property
    def taus(self):
        return self.base.taus()

    def run(self, cfg: FtnConfig) -> Result:
        table = harness.run_sweep(cfg, workers=self.workers)
        return Result(cfg=cfg, cell_trials=[r.trials for r in table.rows],
                      cell_walls=[r.wall_s for r in table.rows],
                      workers=self.workers, table=table)

    def checks(self, results) -> list:
        """Per cell: BER range and stopping rule in every sweep, MSE vs theory
        pooled over the sweeps; per tau: BER falls across CI-separated cells."""
        cfg = self.base
        cells = {}
        for res in results:
            for row in res.table.rows:
                cells.setdefault((row.tau, row.ebn0_db), []).append(row)
        out = []
        for (tau, ebn0), rows in cells.items():
            where = f"tau={tau:g},ebn0={ebn0:g}dB"
            bad = [r.ber for r in rows if not (math.isfinite(r.ber) and 0.0 <= r.ber <= 0.5)]
            out.append(Check(f"ber_in_range[{where}]", not bad, f"bad BER {bad}"))
            late = [(r.trials, r.bit_errors) for r in rows
                    if not (r.trials == cfg.max_trials
                            or (r.trials >= cfg.min_trials
                                and r.bit_errors >= cfg.target_bit_errors))]
            out.append(Check(f"stopped_by_rule[{where}]", not late,
                             f"(trials, bit_errors) not at the rule: {late}"))
            mean, se = _pooled([r.mse_sim for r in rows],
                               [r.mse_ci95 / 1.96 for r in rows],
                               [r.trials for r in rows])
            out.append(_within(f"mse_vs_theory[{where}]", mean, se, rows[0].mse_theory))
        for tau in self.taus:
            pooled = []
            for ebn0 in cfg.ebn0_grid_db:
                rows = cells[(tau, ebn0)]
                bits = sum(r.trials * cfg.N * 2 for r in rows)
                p = sum(r.bit_errors for r in rows) / bits
                pooled.append((ebn0, p, math.sqrt(p * (1 - p) / bits)))
            for (e0, p0, s0), (e1, p1, s1) in zip(pooled, pooled[1:]):
                if abs(p0 - p1) > 1.96 * math.hypot(s0, s1):
                    out.append(Check(f"ber_falls[tau={tau:g},{e0:g}->{e1:g}dB]", p1 < p0,
                                     f"BER {p0:.4g} -> {p1:.4g}"))
        return out

    def determinism(self, first: Result) -> list:
        """A multi-worker sweep must write the same CSV bytes as one worker."""
        if self.workers <= 1:
            return []
        serial = Result(cfg=first.cfg, cell_trials=[], cell_walls=[], workers=1,
                        table=harness.run_sweep(first.cfg, workers=1))
        return [Check(f"csv_same_with_1_worker[seed {first.cfg.seed}]",
                      serial.result_bytes() == first.result_bytes(),
                      f"{self.workers}-worker CSV differs from the 1-worker CSV")]

    def computed_bytes_per_trial(self) -> int:
        """The sweeps do not run the batched CE chain of ``simulate_ce_mse``."""
        return 0


@dataclass(frozen=True)
class CeMseWorkload:
    """``simulate_ce_mse`` (LS and MMSE) at fixed trial counts on a tau x Eb/N0 grid."""

    base: FtnConfig
    points: tuple
    trials_per_point: int
    n_seeds: int
    workers: int = 1

    def configs(self, seed: int):
        return seeded(self.base, seed, self.n_seeds)

    @property
    def taus(self):
        return tuple(sorted({tau for tau, _ in self.points}))

    def run(self, cfg: FtnConfig) -> Result:
        points, walls = {}, []
        for tau, ebn0 in self.points:
            t0 = time.perf_counter()
            sigma_v2 = harness.ebn0_to_sigma_v2(cfg, ebn0, tau)
            points[(tau, ebn0)] = harness.simulate_ce_mse(
                cfg, tau, sigma_v2, self.trials_per_point, seed=cfg.seed)
            walls.append(time.perf_counter() - t0)
        return Result(cfg=cfg, cell_trials=[self.trials_per_point] * len(self.points),
                      cell_walls=walls, workers=1, points=points)

    def checks(self, results) -> list:
        """Per point, pooled over the sweeps: LS and MMSE vs theory, MMSE <= LS."""
        cfg = self.base
        out = []
        for tau, ebn0 in self.points:
            where = f"tau={tau:g},ebn0={ebn0:g}dB"
            tables = harness.build_scenario(cfg, tau).tables
            sigma_v2 = harness.ebn0_to_sigma_v2(cfg, ebn0, tau)
            theory = {"ls": theoretical_mse_ls(tables, cfg.L, sigma_v2),
                      "mmse": theoretical_mse_mmse(tables, cfg.L, sigma_v2, 1.0 / cfg.L)}
            pooled = {}
            for crit in ("ls", "mmse"):
                est = [res.points[(tau, ebn0)][crit] for res in results]
                pooled[crit] = _pooled([m for m, _ in est], [s for _, s in est],
                                       [self.trials_per_point] * len(est))
                out.append(_within(f"{crit}_mse_vs_theory[{where}]", *pooled[crit],
                                   theory[crit]))
            out.append(Check(f"mmse_le_ls[{where}]", pooled["mmse"][0] <= pooled["ls"][0],
                             f"MMSE {pooled['mmse'][0]:.6g} LS {pooled['ls'][0]:.6g}"))
        return out

    def determinism(self, first: Result) -> list:
        return []

    def computed_bytes_per_trial(self) -> int:
        """Bytes of the arrays one trial of the CE chain writes, from their shapes.

        Twelve complex N-vectors (channel response, symbols, the aligned and
        the composed block, white noise, its FFT, the colored noise, the
        block's FFT, the channel product, the received block with and
        without noise, its DFT), the int64 symbol indices and the L taps;
        per criterion the comb estimate, its IDFT and the error.  Computed,
        not measured: cache misses and numpy temporaries are not counted.
        """
        cfg = self.base
        shared = 12 * cfg.N * 16 + cfg.N * 8 + cfg.L * 16
        per_criterion = 2 * cfg.P * 16 + 8
        return shared + 2 * per_criterion


def make(name: str, toy: bool = False):
    """The named workload; ``toy`` shrinks its grid and trial counts for the self-test."""
    if name == "waterfall":
        base = FtnConfig(tau=0.8, ebn0_grid_db=EBN0_GRID, target_bit_errors=200)
        if toy:
            base = replace(base, ebn0_grid_db=(0.0, 8.0), min_trials=10, target_bit_errors=20)
        return SweepWorkload(base, n_seeds=2 if toy else 8)
    if name == "sweep_parallel":
        base = FtnConfig(tau=0.8, tau_grid=(0.8, 0.9), ebn0_grid_db=EBN0_GRID,
                         target_bit_errors=200)
        if toy:
            base = replace(base, ebn0_grid_db=(0.0, 8.0), min_trials=10, target_bit_errors=20)
        return SweepWorkload(base, n_seeds=2 if toy else 8, workers=max(2, nproc()))
    if name == "ce_mse":
        points = tuple((tau, ebn0) for tau in (0.8, 0.9) for ebn0 in (4.0, 16.0))
        return CeMseWorkload(FtnConfig(), points,
                             trials_per_point=2_000 if toy else 20_000,
                             n_seeds=2 if toy else 8)
    raise ValueError(f"unknown workload {name!r}")

