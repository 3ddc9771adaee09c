"""Guard the benchmark against rot: its smoke run must pass on the program.

``perfbench/run.py --smoke`` runs every workload once at tiny sizes with all
of its output checks, and exits non-zero on any failed check, on a failed
operation count other than the known fault's, or on metric names that differ
from BENCHMARK.json. No timing is asserted.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
