"""The benchmark's self-test, run as part of this suite so that a library
change which breaks a call the benchmark makes fails here, not only when
the benchmark itself runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
