"""Smoke test of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")
