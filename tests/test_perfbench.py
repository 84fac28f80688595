import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_self_test_passes():
    # the benchmark's traced run rebinds named entry points of hlmax; its
    # self-test fails if one of them is deleted or renamed
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "tracer.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
