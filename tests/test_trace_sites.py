"""The benchmark's tracer wraps module-level names of mildhjb by name.

A refactor that renames or drops one of them breaks every traced benchmark
run, so installing the tracer is checked here, in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_site():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import layers; layers.install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
