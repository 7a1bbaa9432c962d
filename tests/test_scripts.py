"""Each script under `scripts/` runs at its defaults in a fresh interpreter
with the package on `PYTHONPATH`, exits 0 and prints no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("critical_scan.py", []),
    ("decay_experiment.py", ["--out", "{tmp}/decay.csv"]),
    ("mandelbrot_demo.py", []),
], ids=["critical_scan", "decay_experiment", "mandelbrot_demo"])
def test_script_runs(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
