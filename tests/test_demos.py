"""The README quickstart and the demo scripts run against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ftnsim

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(ftnsim.__file__).resolve().parent.parent)


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README has no fenced python block"
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("script, args", [
    ("sia_spectrum.py", []),
    ("mse_theory_vs_sim.py", ["500"]),
    ("ber_sweep.py", ["10"]),
])
def test_demo_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
