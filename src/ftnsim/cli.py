"""Command-line entry points: ``ftnsim run``, ``ftnsim mse-theory``, ``ftnsim validate``.

Exit codes: 0 success, 2 config-invariant violation, 3 I/O error,
4 numerical failure (an ill-conditioned pilot comb, hit by LS estimation or
flagged in more than 1% of trials).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .chanest import IllConditionedCombError
from .config import ConfigError, dump_config, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _add_config_args(p):
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")


def build_parser():
    parser = argparse.ArgumentParser(prog="ftnsim",
                                     description="FTN link-level simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the Monte Carlo sweep")
    _add_config_args(run)
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--format", default="csv", choices=["csv", "json", "both"])
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--timing", action="store_true",
                     help="record wall time per cell (breaks byte-determinism)")

    mse = sub.add_parser("mse-theory", help="emit theoretical CE MSE curves only")
    _add_config_args(mse)
    mse.add_argument("--out", default=".", help="output directory")

    val = sub.add_parser("validate", help="check config invariants")
    _add_config_args(val)
    return parser


def _load(args):
    return load_config(args.config, args.override).validate()


def cmd_run(args):
    cfg = _load(args)
    table = harness.run_sweep(cfg, workers=args.workers)
    flagged = sum(r.flagged_trials for r in table.rows)
    total = sum(r.trials for r in table.rows)
    path = os.path.join(args.out, "results")
    files = harness.emit_results(table, fmt=args.format, path=path,
                                 include_timing=args.timing)
    for f in files:
        print(f"wrote {f}")
    if total and flagged / total > 0.01:
        print(f"numerical failure: {flagged}/{total} trials hit an "
              "ill-conditioned pilot comb", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_mse_theory(args):
    cfg = _load(args)
    path = os.path.join(args.out, "mse_theory.csv")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise IOError(f"output directory does not exist: {directory}")
    lines = ["tau,ebn0_db,sigma_v2,mse_ls,mse_mmse"]
    from .chanest import theoretical_mse_ls, theoretical_mse_mmse
    for tau in cfg.taus():
        scenario = harness.build_scenario(cfg, tau)
        for ebn0 in cfg.ebn0_grid_db:
            sv2 = harness.ebn0_to_sigma_v2(cfg, ebn0, tau)
            ls = theoretical_mse_ls(scenario.tables, cfg.L, sv2)
            mm = theoretical_mse_mmse(scenario.tables, cfg.L, sv2, 1.0 / cfg.L)
            lines.append(f"{tau:.17g},{ebn0:.17g},{sv2:.17g},{ls:.17g},{mm:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args):
    cfg = _load(args)
    print(dump_config(cfg), end="")
    print("config OK")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "mse-theory": cmd_mse_theory, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, IOError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IllConditionedCombError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
