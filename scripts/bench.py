#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit; write BENCH_<N>.json.

    python3 scripts/bench.py --number N --claim "what the change claims"

Run it from the repository root. The parent commit (``--parent``, default
HEAD, the commit an uncommitted change goes on) is exported with
``git archive`` into a temporary directory; the working tree is the change.
For each of the three workloads, pair k = 1..10 runs ``perfbench/run.py
--seed k`` once on each side for BENCHMARK.json's ``run_seconds``, the
parent first on odd k and the change first on even k, so a drift of the
host falls on both sides alike (about 45 minutes in all). A side's figure
is its median over the pairs. The file also lists every run's value of
each end-to-end metric and every run's passes, for every end-to-end metric
the pairs the change wins and the parent's quartiles (see ``pair_stats``),
the change against the parent, a verdict per end-to-end metric (see
``verdict``; any but ``ok`` is also printed to stderr), the per-layer
metrics of one traced run a side (seed 1), and each side against the
change side of the previous BENCH_*.json. perfbench itself is only run,
never changed.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("scan-decp", "certify-highd", "oracle-lowd")
PAIRS = 10  # the least number of pairs a claimed gain rests on
RUN_TIMEOUT = 600.0


def export_commit(rev: str, dest: str) -> None:
    archive = os.path.join(dest, "parent.tar")
    subprocess.run(["git", "archive", "-o", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "parent"), filter="data")
    os.remove(archive)


def run_once(
    checkout: str, workload: str, seed: int, seconds: int, trace: int = 0
) -> tuple[dict, int]:
    """One perfbench run; returns its end-to-end metrics, or with ``trace``
    its per-layer metrics, and the number of passes it made."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} in {checkout} answered wrongly")
    passes = int(re.search(r"^passes=(\d+)", proc.stdout, re.M).group(1))
    return {name: m["value"] for name, m in result["metrics"].items()}, passes


def environment() -> str:
    mods = {}
    for name in ("numpy", "scipy", "mpmath"):
        try:
            mods[name] = __import__(name).__version__
        except ImportError:
            mods[name] = "absent"
    py = ".".join(map(str, sys.version_info[:3]))
    return f"nproc={os.cpu_count()} python={py} " + " ".join(
        f"{k}={v}" for k, v in mods.items()
    )


def percent(new: float, old: float) -> str:
    return f"{100.0 * (new - old) / old:+.1f} %" if old else "n/a"


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One end-to-end metric's verdict from the runs of both sides.

    ``better`` if every change run beats every parent run; otherwise
    ``unresolved`` if the parent's quartile spread exceeds ``bound`` times
    its median; otherwise ``worse`` if the change's median is worse than the
    parent's by more than ``bound`` of the parent's; otherwise ``ok``.
    ``better`` names the direction that is better, "lower" or "higher".
    """
    if better == "higher":  # negate, so that lower is better below
        parent, change = [-x for x in parent], [-x for x in change]
    if max(change) < min(parent):
        return "better"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    median = statistics.median(parent)
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    if statistics.median(change) - median > bound * abs(median):
        return "worse"
    return "ok"


def pair_stats(parent: list[float], change: list[float], better: str) -> dict:
    """How one end-to-end metric's pairs read: ``change_wins``, the pairs
    (runs of the same seed) in which the change is better in the direction
    ``better`` ("lower" or "higher"); the parent's quartiles; and
    ``gain_shown``, whether a claimed gain holds: the change wins all but at
    most one pair in ten, and its median is better than the parent's by more
    than the parent's quartile spread."""
    sign = -1.0 if better == "higher" else 1.0  # lower is better below
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    return {
        "change_wins": wins,
        "parent_quartiles": [float(f"{q1:.4g}"), float(f"{q3:.4g}")],
        "gain_shown": 10 * wins >= 9 * len(parent) and gain > q3 - q1,
    }


def medians(runs: list[dict]) -> dict:
    return {name: float(f"{statistics.median(r[name] for r in runs):.4g}") for name in runs[0]}


def previous_bench(number: int) -> tuple[str, dict] | None:
    found = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and int(match.group(1)) < number:
            found.append((int(match.group(1)), path))
    if not found:
        return None
    n, path = max(found)
    with open(path) as fh:
        return f"bench_{n}", json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True, help="N in BENCH_<N>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent")
    ap.add_argument("--claim", default="none")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    prev = previous_bench(args.number)

    out = {
        "environment": environment(),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds}",
        "pairs": (
            f"{PAIRS} per workload, seeds 1-{PAIRS}; parent ran first "
            "on odd seeds, change first on even seeds"
        ),
        "statistic": f"median over the {PAIRS} runs of each side",
        "claim": args.claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        export_commit(args.parent, tmp)
        sides = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        for w in WORKLOADS:
            runs = {"parent": [], "change": []}
            passes = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    metrics, n = run_once(sides[side], w, seed, seconds)
                    runs[side].append(metrics)
                    passes[side].append(n)
                    print(f"{w} seed {seed} {side}: wall_s {runs[side][-1]['wall_s']:.4g}",
                          file=sys.stderr)
            entry = {side: medians(runs[side]) for side in runs}
            entry["runs"] = {
                name: {side: [r[name] for r in runs[side]] for side in runs}
                for name in runs["parent"][0]
            }
            # peak RSS grows with the passes a run keeps, so they are listed
            # run by run too
            entry["passes_runs"] = passes
            entry["pair_stats"] = {
                m["name"]: pair_stats(**entry["runs"][m["name"]], better=m["better"])
                for m in bench["end_to_end"]
            }
            entry["change_vs_parent"] = {
                k: percent(entry["change"][k], entry["parent"][k]) for k in entry["parent"]
            }
            entry["verdicts"] = {
                m["name"]: verdict(**entry["runs"][m["name"]], better=m["better"],
                                   bound=m["bound"])
                for m in bench["end_to_end"]
            }
            for name, v in entry["verdicts"].items():
                if v != "ok":
                    print(f"{w} {name}: {v}", file=sys.stderr)
            # one traced run a side shows in which layer the time moved
            entry["per_layer_seed_1"] = {
                side: {k: float(f"{v:.4g}") for k, v in
                       run_once(sides[side], w, 1, seconds, trace=1)[0].items()}
                for side in ("parent", "change")
            }
            if prev and w in prev[1]["workloads"]:
                # the parent runs the code the previous file calls change,
                # so their difference is the host's drift
                tag, old = prev[0], prev[1]["workloads"][w]["change"]
                for side in ("parent", "change"):
                    entry[f"{side}_vs_{tag}_change"] = {
                        k: percent(entry[side][k], old[k]) for k in entry[side] if k in old
                    }
            out["workloads"][w] = entry
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
