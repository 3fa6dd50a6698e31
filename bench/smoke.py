"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

Each workload runs once untraced (a one-second loop, one law for the
quality metrics) and once traced (one query each way).  The last line
of output must be the result object, correct and without failures,
carrying exactly the metrics BENCHMARK.json names for that mode, each
with its unit.  Finally the benchmark must refuse to run, with a
non-zero status and no result, from a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def last_result(text):
    lines = text.strip().splitlines()
    assert lines, "no output"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        sorted(result)
    return result


def check_metrics(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(declared), \
        sorted(set(metrics) ^ set(declared))
    for name, unit in declared.items():
        entry = metrics[name]
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert entry["unit"] == unit, (name, entry["unit"], unit)
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (name, value)


def run_tiny(run, workload, trace):
    wl = run.load_library().WORKLOADS[workload]
    wl.sample_queries = wl.length_queries = wl.trace_queries = 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)])
    assert status == 0
    return last_result(out.getvalue())


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "canon_steer",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout


def main():
    sys.path.insert(0, HERE)
    import run

    for workload in run.load_library().WORKLOADS:
        for trace, declared in run.declared_metrics().items():
            check_metrics(run_tiny(run, workload, trace), declared)
            print("ok  %s --trace %d" % (workload, trace))
    check_refuses_without_sources()
    print("ok  refuses to run without the library sources")


if __name__ == "__main__":
    main()
