"""The benchmark's own smoke check, kept in the test suite.

The benchmark's tracer and workloads bind library names, so renaming or
deleting a public function can break the benchmark without breaking any
library test.  Running ``benchmarks/smoke.py`` here catches that.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_check_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
