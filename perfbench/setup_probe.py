"""Set-up time of one fresh interpreter: import ftnsim, validate a config, build every scenario.

    python3 perfbench/setup_probe.py SRC_DIR TAU [TAU ...]

Prints the seconds from before the import of ftnsim (and so of numpy) to
after the last ``build_scenario``.  Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ftnsim.config import FtnConfig  # noqa: E402
from ftnsim.harness import build_scenario  # noqa: E402

taus = tuple(float(t) for t in sys.argv[2:])
cfg = FtnConfig(tau=taus[0], tau_grid=taus).validate()
for tau in cfg.taus():
    build_scenario(cfg, tau)
print(repr(time.perf_counter() - t0))
