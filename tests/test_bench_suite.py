"""The benchmark's own tests pass.

``bench/tests`` cannot join ``testpaths``: both test directories import a
module named ``conftest``, so one session would collect only one of them.
The benchmark's suite runs here in its own interpreter instead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_suite_passes():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
