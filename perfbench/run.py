"""hlmax benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-decp --seed 1 --seconds 30 --trace 0

Run it from the repository root. It samples set-up time in fresh
processes, then starts one worker process (worker.py) that replays the
workload's seeded CLI requests in process and checks every output. It
prints the environment, one line per metric, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json;
- ``--trace 1``: the per-layer metrics, from spans recorded around each
  layer's entry points, plus the tracing overhead.

Exits non-zero, printing no result, when the checkout has no hlmax source.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 4  # fresh-process imports per run; the worker's own is one
WORKER_TIMEOUT = 150.0
PROBE_TIMEOUT = 60.0

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(Exception):
    pass


def _spawn(extra_flags: list[str], worker_args: list[str], stderr=None):
    return subprocess.Popen(
        [sys.executable, *extra_flags, WORKER, *worker_args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )


def _await_ready(proc, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (said {line.strip()!r})")
    return time.perf_counter() - t0


def probe_setup() -> float:
    """Seconds from spawning a fresh interpreter to hlmax.cli imported."""
    t0 = time.perf_counter()
    proc = _spawn([], ["--probe"])
    try:
        elapsed = _await_ready(proc, t0)
        proc.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def probe_importtime() -> dict[str, float]:
    """Start-up import seconds of hlmax.oracle and of scipy.integrate, from
    ``-X importtime`` (0 when a module is not imported at start-up).

    ``from scipy import integrate`` goes through scipy's lazy loader, which
    ``-X importtime`` does not log, so scipy.integrate is taken as the sum
    of the cumulative times of scipy modules imported directly by an hlmax
    module (scipy itself and the pieces of scipy.integrate).
    """
    proc = _spawn(["-X", "importtime"], ["--probe"], stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=PROBE_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"import-time probe exited with {proc.returncode}")
    oracle = scipy = 0.0
    pending = []  # (depth, name, cumulative s) awaiting their parent line
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip(" "))
        cumulative = int(parts[1]) / 1e6
        children = [c for c in pending if c[0] > depth]
        pending = [c for c in pending if c[0] <= depth]
        if name == "hlmax.oracle":
            oracle = cumulative
        if name.split(".")[0] == "hlmax":
            scipy += sum(c[2] for c in children if c[1].split(".")[0] == "scipy")
        pending.append((depth, name, cumulative))
    return {"setup.import_oracle_s": oracle, "setup.import_scipy_integrate_s": scipy}


def run_worker(args) -> tuple[float, dict]:
    t0 = time.perf_counter()
    proc = _spawn(
        [],
        [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ],
    )
    try:
        setup = _await_ready(proc, t0)
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} and no result")
    return setup, json.loads(lines[-1][len("RESULT "):])


def environment() -> dict:
    from importlib import metadata

    env = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            env[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            env[package] = "absent"
    return env


def main() -> int:
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hlmax", "cli.py")):
        print(f"no hlmax source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        setups = [probe_setup() for _ in range(SETUP_SAMPLES - 1)]
        worker_setup, res = run_worker(args)
        setups.append(worker_setup)
        if args.trace:
            res["metrics"].update(probe_importtime())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} requests/pass={res['requests_per_pass']} "
        f"attempted={res['attempted']} failed={res['failed']} "
        f"mismatched={res['mismatched']} "
        f"fail_frac={res['failed'] / res['attempted']:.4f}"
    )
    for problem, count in sorted(res["problems"].items()):
        print(f"  {count:5d} x {problem}")
    probe = res.get("probe")
    if probe:
        print(
            f"high-d probe (untimed, d in {list(workloads.HIGHD_PROBE_DS)}): "
            f"{probe['failed']} of {probe['attempted']} requests failed, "
            f"{probe['mismatched']} of them answered wrongly"
        )
        for problem, count in sorted(probe["problems"].items()):
            print(f"  {count:5d} x {problem}")
    print(
        f"passes={len(res['pass_walls'])} pass walls (s): "
        + " ".join(f"{w:.3f}" for w in res["pass_walls"])
    )
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(
            f"tracer self-check: pass; {res['spans']} spans in {res['spans_file']}; "
            f"tracing overhead {metrics['trace.overhead_s']:.4f} s/pass (traced "
            f"wall {res['traced_wall_s']:.4f} s, untraced {res['untraced_wall_s']:.4f} s)"
        )
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics["setup_s"] = statistics.median(setups)
        print("setup samples (s): " + " ".join(f"{s:.3f}" for s in setups))
        print(
            f"req_tail_ms is p{res['tail_pct']:g} of {res['samples']} request "
            f"latencies (the highest of p50/75/90/95/99/99.9 with at least 10 "
            f"beyond it in two passes); req_p50_ms is their median"
        )
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": res["mismatched"] == 0
                and (probe or {}).get("mismatched", 0) == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
