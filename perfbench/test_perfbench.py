"""Self-test of the benchmark on toy grids; takes about ten seconds.

    python3 -m pytest -q perfbench

It runs all three workloads through the benchmark's own code, shows that
the correctness gate and the determinism check fail on corrupted results,
and that tracing counts calls exactly and the speed correction measures
every cell, both without changing results.
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from speed import Speedometer, row_cells  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run_checks(wl, results):
    return wl.checks(results) + wl.determinism(results[0])


@pytest.fixture
def toy(monkeypatch):
    make = workloads.make
    monkeypatch.setattr(workloads, "make", lambda name: make(name, toy=True))


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_and_passes(toy, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert info["env"]["blas_threads"] == "1"
    if trace:
        assert info["pool_rows_without_spans"] == 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_sweep_gate_fails_on_corrupted_rows():
    wl = workloads.make("waterfall", toy=True)
    res = wl.run(wl.configs(1)[0])
    assert all(c.ok for c in _run_checks(wl, [res]))
    row = len(res.table.rows) - 1
    corruptions = [
        ("ber", 0.7, "ber_in_range"),
        ("ber", float("nan"), "ber_in_range"),
        ("bit_errors", wl.base.target_bit_errors - 1, "stopped_by_rule"),
        ("mse_sim", 2 * res.table.rows[row].mse_theory, "mse_vs_theory"),
    ]
    for field, value, check in corruptions:
        bad = copy.deepcopy(res)
        setattr(bad.table.rows[row], field, value)
        failed = [c.name for c in _run_checks(wl, [bad]) if not c.ok]
        assert failed and all(n.startswith(check) for n in failed), (field, failed)


def test_ber_must_fall_between_separated_cells():
    wl = workloads.make("waterfall", toy=True)
    res = wl.run(wl.configs(1)[0])
    low, high = res.table.rows
    low.bit_errors, high.bit_errors = high.bit_errors, low.bit_errors
    low.trials, high.trials = high.trials, low.trials
    failed = [c.name for c in wl.checks([res]) if not c.ok]
    assert any(n.startswith("ber_falls") for n in failed), failed


def test_ce_gate_fails_on_corrupted_point():
    wl = workloads.make("ce_mse", toy=True)
    res = wl.run(wl.configs(1)[0])
    assert all(c.ok for c in wl.checks([res]))
    point = wl.points[0]
    ls_mean, _ = res.points[point]["ls"]
    _, se = res.points[point]["mmse"]
    res.points[point]["mmse"] = (1.5 * ls_mean, se)
    failed = {c.name for c in wl.checks([res]) if not c.ok}
    where = f"tau={point[0]:g},ebn0={point[1]:g}dB"
    assert failed == {f"mmse_mse_vs_theory[{where}]", f"mmse_le_ls[{where}]"}


def test_determinism_check_fails_when_pool_rows_differ():
    wl = workloads.make("sweep_parallel", toy=True)
    res = wl.run(wl.configs(1)[0])
    assert all(c.ok for c in wl.determinism(res))
    res.table.rows[0].ber += 1e-12
    assert not any(c.ok for c in wl.determinism(res))


@pytest.mark.parametrize("name", ["waterfall", "sweep_parallel"])
def test_trace_counts_calls_exactly_and_keeps_rows(name):
    wl = workloads.make(name, toy=True)
    cfg = wl.configs(3)[0]
    plain = wl.run(cfg)
    with Tracer() as tracer:
        traced = wl.run(cfg)
    if wl.workers > 1:
        assert tracer.collect_rows(traced.table.rows) == 0
    calls = SpanStats().add(tracer)
    assert traced.result_bytes() == plain.result_bytes()
    n = plain.trials
    assert calls["harness.run_trial"] == n
    assert calls["core.make_rng"] == 3 * n
    assert calls["detector.project_nearest"] == (cfg.n_ista + 1) * n
    assert calls["harness.run_cell"] == len(plain.table.rows)
    # the wrappers are gone afterwards
    assert workloads.harness.run_trial.__name__ == "run_trial"
    assert not hasattr(workloads.harness.run_trial, "__wrapped__")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_speedometer_measures_every_cell_and_keeps_rows(name):
    wl = workloads.make(name, toy=True)
    cfg = wl.configs(2)[0]
    plain = wl.run(cfg)
    with Speedometer() as meter:
        measured = wl.run(cfg)
    cells = row_cells(measured.table.rows) if measured.table else meter.take()
    assert len(cells) == len(plain.cell_trials)
    assert all(c.call_s > 0 and c.kernel_s > 0 and c.speed > 0 for c in cells)
    assert measured.result_bytes() == plain.result_bytes()
    assert not hasattr(workloads.harness.run_cell, "__wrapped__")


def test_self_time_never_exceeds_wall():
    wl = workloads.make("ce_mse", toy=True)
    stats = SpanStats()
    with Tracer() as tracer:
        wall, _ = run.timed(wl.run, wl.configs(1)[0])
    stats.add(tracer)
    total = sum(stats.self_ns.values()) / 1e9
    assert 0 < total <= wall
    assert all(v >= 0 for v in stats.self_ns.values())


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "waterfall", "--seed", "1", "--seconds", "1"]) != 0
