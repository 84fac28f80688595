#!/usr/bin/env python3
"""Check that a change keeps every benchmark request's output: replay the
request lists of ``perfbench/workloads.py`` on a parent commit and on the
working tree, and list each request whose exit code, stdout or stderr
differs. A fixed list of malformed and ``--help`` invocations
(``INVOCATIONS``) is replayed too, with argparse's ``SystemExit`` caught and
its code recorded, so a change to the parser is checked on its error paths.

    python3 scripts/check_records.py [--parent REV] [--seeds 1,2,3]

Run it from the repository root. The parent (default HEAD) is exported with
``scripts/bench.py``'s ``export_commit``. Each side runs in a process of its
own, which imports that side's ``hlmax`` and calls ``hlmax.cli.main`` on
every request of every workload and seed in turn, as perfbench's worker
does. The request lists come from the working tree's ``perfbench``, which
this script only imports. Exits 0 when no request differs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS, build_requests  # noqa: E402
from scripts.bench import export_commit  # noqa: E402


# spelled out: the parent's cli need not have a table of its subcommands
_SUBCOMMANDS = ("certify", "scan", "oracle", "caps", "critical-p")
INVOCATIONS = [
    [], ["--help"], ["-h"], ["bogus"], ["-x"], ["-x", "certify"],
    *([name, flag] for name in _SUBCOMMANDS for flag in ("--help", "-h")),
    ["certify", "--family", "lebesgue", "--d", "x", "--p", "1"],
    ["certify", "--construction", "nope", "--d", "3", "--p", "1"],
    ["certify", "--construction", "nope"],
    ["certify", "--family", "lebesgue", "--p", "1"],
    ["certify", "--construction", "lebesgue-ball", "--d", "3", "--p", "1", "extra"],
    ["scan", "--d-range", "10:20:10"],
    ["oracle", "--family", "lebesgue", "--d", "3", "--grid", "x"],
    ["caps", "--d", "3", "--s", "x"],
    ["critical-p", "--base", "nope"],
]


def _call(main, argv: list[str]) -> list:
    """Exit code, stdout and stderr of one ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's --help
            rc = exc.code
    return [rc, out.getvalue(), err.getvalue()]


def replay(seeds: list[int]) -> dict:
    """Exit code, stdout and stderr of every request, keyed "workload seed
    index", and of every invocation, keyed "invocations index"."""
    from hlmax.cli import main

    out = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for req in build_requests(workload, seed):
                out[f"{workload} {seed} {req['index']}"] = _call(main, req["argv"])
    for i, argv in enumerate(INVOCATIONS):
        out[f"invocations {i}"] = _call(main, argv)
    return out


def run_side(checkout: str, seeds: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    argv = [sys.executable, os.path.abspath(__file__), "--replay",
            "--seeds", ",".join(map(str, seeds))]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"replay in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    ap.add_argument("--replay", action="store_true",
                    help="replay this process's hlmax and print the outputs as JSON")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.replay:
        json.dump(replay(seeds), sys.stdout)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        export_commit(args.parent, tmp)
        parent = run_side(os.path.join(tmp, "parent"), seeds)
    change = run_side(ROOT, seeds)
    differ = [key for key in parent if parent[key] != change.get(key)]
    for key in differ:
        print(f"differs: {key} (exit {parent[key][0]} -> {change[key][0]})")
    for workload in WORKLOADS:
        n = sum(key.startswith(workload + " ") for key in parent)
        bad = sum(key.startswith(workload + " ") for key in differ)
        print(f"{workload}: {n} requests, seeds {args.seeds}, {bad} differ")
    bad = sum(key.startswith("invocations ") for key in differ)
    print(f"invocations: {len(INVOCATIONS)}, {bad} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
