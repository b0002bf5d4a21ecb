"""Record the exact counts that runs of the benchmark are compared against.

    python3 perfbench/record_reference.py

For the development seed and the held-out seed, writes to
perfbench/reference_counts.json, per workload and config seed, the trials
of the sweep and the cells that hit ``max_trials``, plus every span's call
count for the first config seed of each run.  A run of run.py whose config
seeds appear here reports any difference as drift.  Re-record only in a
change that alters these counts on purpose, and say so in CHANGES.md.
"""

import json
import sys

import run  # pins the BLAS/OpenMP threads before numpy is imported

SEEDS = {"development": 1, "held_out": 97}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads
    from spans import SpanStats, Tracer

    doc = {"seeds": SEEDS}
    for name in run.WORKLOADS:
        wl = workloads.make(name)
        entries = doc[name] = {}
        for seed in SEEDS.values():
            for k, cfg in enumerate(wl.configs(seed)):
                with Tracer() as tracer:
                    res = wl.run(cfg)
                if res.workers > 1 and tracer.collect_rows(res.table.rows):
                    raise SystemExit("pool workers returned rows without spans")
                entry = {"trials": res.trials, "cells_at_max_trials": res.cells_at_max_trials}
                if k == 0:
                    entry["calls"] = SpanStats().add(tracer)
                entries[str(cfg.seed)] = entry
                print(name, cfg.seed, entry["trials"], file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
