"""The benchmark harness's self-test, run as part of the test suite.

``perfbench/tracer.py`` wraps package functions by their module-level
names, so renaming or dropping one of them breaks the traced benchmark;
its self-test catches that.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
