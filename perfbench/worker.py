"""Benchmark worker: one fresh process that runs one workload.

It imports ``hlmax.cli`` from the checkout's ``src`` and prints ``READY``
(the parent times set-up up to that line), then replays the workload's
seeded request list through ``hlmax.cli.main`` in process: one client, a
closed loop, each request issued when the previous one has returned.
Whole passes of the list run until the time budget is used. Outputs are
checked after the timed loop; ``certify-highd`` then runs its high-d probe
once, untimed. The last stdout line is ``RESULT <json>``.

``--probe`` stops after ``READY``; the parent uses it to sample set-up time.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
SPANS_DIR = os.path.join(HERE, "out")
MIN_PASSES = 2
# percentiles req_tail_ms may report; a percentile between these would sit on
# the repetitions of one or two costly requests and jump from seed to seed
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def run_pass(main, requests, caches, mass_cache, tracer=None, first_id=0) -> dict:
    """One pass over the request list. Every request starts with empty
    program caches, as a fresh CLI process would; ``mass_cache`` (the radial
    mass lru_cache, or None) is read after each request for its hit count."""
    outcomes, latencies = [], []
    hits = lookups = 0
    t_pass = time.perf_counter()
    for i, req in enumerate(requests):
        for cache in caches:
            cache.cache_clear()
        buf = io.StringIO()
        rc, exc = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = main(req["argv"])
                else:
                    rc = tracer.run_request(first_id + i, main, req["argv"])
        except Exception as err:  # a failed request; the loop carries on
            exc = f"{type(err).__name__}: {err}"
        latencies.append(time.perf_counter() - t0)
        if mass_cache is not None:
            info = mass_cache.cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
        outcomes.append({"rc": rc, "out": buf.getvalue(), "exc": exc})
    return {
        "wall": time.perf_counter() - t_pass,
        "latencies": latencies,
        "outcomes": outcomes,
        "cache_hits": hits,
        "cache_lookups": lookups,
    }


def run_passes(
    main, requests, caches, mass_cache, budget=None, count=None, tracer=None
) -> list[dict]:
    """Run ``count`` passes, or whole passes until ``budget`` seconds would be
    overrun by more than half a pass (at least MIN_PASSES)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(
            run_pass(
                main, requests, caches, mass_cache, tracer,
                first_id=len(passes) * len(requests),
            )
        )
        if count is not None:
            if len(passes) >= count:
                return passes
            continue
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(passes) >= budget:
            return passes


def classify(requests, passes, refs) -> dict:
    """Check pass 1 against references and invariants; later passes must
    repeat pass 1 byte for byte (the CLI promises identical output for
    identical input)."""
    import checks

    first = [checks.check(req, out, refs) for req, out in zip(requests, passes[0]["outcomes"])]
    attempted = failed = mismatched = records = 0
    problems: dict[str, int] = {}
    for n, p in enumerate(passes):
        for req, out, (status, detail, n_rec) in zip(requests, p["outcomes"], first):
            if n and out != passes[0]["outcomes"][req["index"]]:
                status, detail = "mismatch", "output differs from the first pass"
            attempted += 1
            if status == "ok":
                records += n_rec
                continue
            failed += 1
            mismatched += status == "mismatch"
            key = f"{status}: {detail[:160]}"
            problems[key] = problems.get(key, 0) + 1
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "records": records,
        "problems": problems,
    }


def list_seconds(passes: list[dict]) -> float:
    """Time to finish the request list: the sum over requests of each one's
    median latency across passes. Every pass repeats the same work; the
    per-request median drops requests that a busy moment of the machine
    slowed, where a median of whole passes keeps a pass slowed throughout."""
    return sum(statistics.median(col) for col in zip(*(p["latencies"] for p in passes)))


def tail_percentile(lat: list[float], per_pass: int) -> tuple[float, float]:
    """(percentile, value) of the sorted latencies ``lat``, nearest rank.

    The percentile is the highest of TAIL_LADDER with at least 10 samples
    beyond it in MIN_PASSES passes of ``per_pass`` requests, so a workload
    reports the same percentile however many passes a run makes."""
    n_min = per_pass * MIN_PASSES
    pct = next(
        (q for q in reversed(TAIL_LADDER) if n_min - math.ceil(q / 100.0 * n_min) >= 10),
        TAIL_LADDER[0],
    )
    return pct, lat[max(math.ceil(pct / 100.0 * len(lat)), 1) - 1]


def timing_metrics(passes: list[dict], counts: dict) -> tuple[dict, dict]:
    """End-to-end timing metrics, and what the printout says about them."""
    lat = sorted(x for p in passes for x in p["latencies"])
    pct, tail = tail_percentile(lat, len(passes[0]["latencies"]))
    wall = list_seconds(passes)
    metrics = {
        "wall_s": wall,
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_tail_ms": tail * 1e3,
        "records_per_s": counts["records"] / len(passes) / wall,
        "ok_frac": 1.0 - counts["failed"] / counts["attempted"],
    }
    info = {
        "tail_pct": pct,
        "samples": len(lat),
        "pass_walls": [p["wall"] for p in passes],
    }
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import hlmax.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"hlmax imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    print("READY", flush=True)
    if args.probe:
        return 0

    import tracer as tr
    import workloads

    requests = workloads.build_requests(args.workload, args.seed)
    caches = [
        v
        for m in tr.hlmax_modules()
        for v in vars(m).values()
        if hasattr(v, "cache_clear") and hasattr(v, "cache_info")
    ]
    caches = list({id(c): c for c in caches}.values())
    mass_cache = getattr(sys.modules["hlmax.radial"], "_log_radial_mass", None)
    if not hasattr(mass_cache, "cache_info"):
        mass_cache = None
    with open(REFS) as fh:
        refs = json.load(fh)

    result = {"workload": args.workload, "seed": args.seed, "requests_per_pass": len(requests)}
    if not args.trace:
        passes = run_passes(cli.main, requests, caches, mass_cache, budget=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts = classify(requests, passes, refs)
        metrics, info = timing_metrics(passes, counts)
        metrics["peak_rss_mb"] = rss_mb
        result.update(info)
    else:
        problems = tr.selftest()
        if problems:
            print("tracer self-test failed: " + "; ".join(problems), file=sys.stderr)
            return 4
        plain = run_passes(cli.main, requests, caches, mass_cache, budget=args.seconds / 2)
        tracer = tr.Tracer()
        tracer.install()
        traced = run_passes(
            cli.main, requests, caches, mass_cache, count=len(plain), tracer=tracer
        )
        leftover = tracer.unwrapped_refs()
        tracer.uninstall()
        if leftover or tracer.missing:
            print(
                f"tracer self-check failed: unwrapped {leftover}, missing {tracer.missing}",
                file=sys.stderr,
            )
            return 4
        counts = classify(requests, plain + traced, refs)
        metrics = tr.layer_metrics(tracer.spans, len(traced))
        hits = sum(p["cache_hits"] for p in traced)
        lookups = sum(p["cache_lookups"] for p in traced)
        metrics["radial.mass_calls"] = lookups / len(traced)
        metrics["radial.mass_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["cli.out_bytes"] = sum(
            len(o["out"].encode()) for p in traced for o in p["outcomes"]
        ) / len(traced)
        plain_wall = list_seconds(plain)
        traced_wall = list_seconds(traced)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        result.update(
            {
                "untraced_wall_s": plain_wall,
                "traced_wall_s": traced_wall,
                "pass_walls": [p["wall"] for p in traced],
                "spans": len(tracer.spans),
            }
        )
        spans_path = os.path.join(SPANS_DIR, f"spans-{args.workload}.tsv")
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    # certify-highd's failing high-d cells: once, untimed, untraced; failures
    # are reported apart from the timed requests, wrong answers still count
    probe = workloads.highd_probe() if args.workload == "certify-highd" else []
    if probe:
        result["probe"] = classify(probe, [run_pass(cli.main, probe, caches, None)], refs)
    if args.trace:
        metrics["specfun.highd_probe_errors"] = result.get("probe", {}).get("failed", 0)
    result.update({"metrics": metrics, **counts})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
