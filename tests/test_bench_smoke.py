"""The benchmark's smoke run must pass against the library as it is.

The benchmark looks library names up by attribute (poly.det_matrix,
sim.solve_ivp, law.meta["z_init"], plan.classes and others), so a
change in src/ that breaks one of them fails here and not only when
the benchmark is next run.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    out_dir = os.path.join(ROOT, ".bench_out")
    existed = os.path.exists(out_dir)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "smoke.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
    finally:
        if not existed:
            shutil.rmtree(out_dir, ignore_errors=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
