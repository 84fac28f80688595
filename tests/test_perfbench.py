import importlib
import importlib.util
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


def test_entry_points_resolve():
    # every name the traced run wraps still lives in its hlmax module
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module("hlmax." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"hlmax.{layer}.{name}"
