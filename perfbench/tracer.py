"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: ``install`` replaces each
layer entry point listed in ENTRY_POINTS by a wrapper, in every ``hlmax.*``
module attribute that refers to it. hlmax binds names with ``from ...
import``, so the same function sits in several modules (``radial`` holds
``log_cap_fraction``, ``cli`` holds the certificate builders, the package
holds nearly everything); a wrapper bound in one module only would leave
the others uncounted. ``unwrapped_refs`` is the self-check for that.

A span is (id, name, start, end, parent, request, thread, extra, error).
Spans stay in memory until ``write``. A span that starts on a thread with
no open span takes the current request's root span as parent, which links
scan pool threads to their request.

Run this file directly to self-test the tracer on one small request:

    python3 perfbench/tracer.py
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time

import numpy as np

# the entry points the workloads pass through and the metrics read; the
# traced run fails when one is gone, so a rename cannot turn a count into 0
ENTRY_POINTS = {
    "specfun": ("log_cap_fraction", "cap_area_exact"),
    "quadrature": ("log_integrate_batch",),
    # the thin ball wrappers around these (log_ball_at_origin, ...) and the
    # radial mass cache (counted from its cache_info) get no span: at tens of
    # thousands of calls per pass they would dominate the tracing overhead
    "radial": ("_offcenter_logs", "_mass_quad", "growth_h"),
    "certificate": (
        "lemma_certificate",
        "decp_certificate",
        "lebesgue_ball_certificate",
        "_check_hypothesis_and_pick_r1",
    ),
    "oracle": ("run_oracle", "maximal_at_point", "empirical_weak_ratio"),
}
# spans whose outermost occurrence is one certificate
CERT_BUILDERS = frozenset(
    "certificate." + n
    for n in ENTRY_POINTS["certificate"]
    if n != "_check_hypothesis_and_pick_r1"
)
ROOT_SPAN = "cli.main"
INTEGRAND_SPAN = "radial.integrand"

ID, NAME, START, END, PARENT, REQ, THREAD, EXTRA, ERROR = range(9)


def hlmax_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "hlmax" or name.startswith("hlmax."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1
        self.root = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: dict[int, object] = {}  # id(original) -> wrapper
        self._bound: list[tuple] = []  # (module, attr, original)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else self.root
        rec = [
            next(self._ids), name, time.perf_counter(), None, parent,
            self.request, threading.get_ident(), None, False,
        ]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()
        if isinstance(rec[EXTRA], list):
            rec[EXTRA] = tuple(rec[EXTRA])
        # a tuple of scalars drops out of the cyclic GC's tracking
        self.spans.append(tuple(rec))

    def run_request(self, request_id: int, fn, *args):
        """Call fn(*args) under the root span of one request."""
        self.request = request_id
        rec = self.begin(ROOT_SPAN)
        self.root = rec[ID]
        try:
            return fn(*args)
        except Exception:
            rec[ERROR] = True
            raise
        finally:
            self.end(rec)
            self.root = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[ERROR] = True
                raise
            finally:
                tracer.end(rec)

        return traced

    def _wrap_cap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            rec[EXTRA] = int(np.size(args[1] if len(args) > 1 else kwargs["s"]))
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[ERROR] = True
                raise
            finally:
                tracer.end(rec)

        return traced

    def _wrap_quadrature(self, name: str, fn):
        """Count node evaluations and integrand rounds by wrapping the
        integrand; its time becomes a child span, so the quadrature span's
        self time excludes it."""
        tracer = self

        @functools.wraps(fn)
        def traced(logf, *args, **kwargs):
            rec = tracer.begin(name)
            counts = rec[EXTRA] = [0, 0]  # node evaluations, integrand calls

            def counted(x, tags):
                counts[0] += int(np.size(x))
                counts[1] += 1
                inner = tracer.begin(INTEGRAND_SPAN)
                try:
                    return logf(x, tags)
                finally:
                    tracer.end(inner)

            try:
                return fn(counted, *args, **kwargs)
            except Exception:
                rec[ERROR] = True
                raise
            finally:
                tracer.end(rec)

        return traced

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every hlmax.* attribute that holds a traced entry point."""
        import importlib

        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module("hlmax." + layer)
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"hlmax.{layer}.{attr}")
                    continue
                name = f"{layer}.{attr}"
                if name == "specfun.log_cap_fraction":
                    wrapper = self._wrap_cap(name, fn)
                elif name == "quadrature.log_integrate_batch":
                    wrapper = self._wrap_quadrature(name, fn)
                else:
                    wrapper = self._wrap(name, fn)
                self._originals[id(fn)] = (fn, wrapper)
        for module in hlmax_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._bound.append((module, attr, value))

    def unwrapped_refs(self) -> list[str]:
        """hlmax.* attributes that still refer to an unwrapped entry point."""
        out = []
        for module in hlmax_modules():
            for attr, value in vars(module).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    out.append(f"{module.__name__}.{attr}")
        return out

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def write(self, path: str) -> None:
        """Write spans as tab-separated lines (times in ns from the first)."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\tthread\terror\n")
            for s in self.spans:
                fh.write(
                    f"{s[ID]}\t{s[NAME]}\t{round((s[START] - t0) * 1e9)}\t"
                    f"{round((s[END] - t0) * 1e9)}\t{s[PARENT] or 0}\t{s[REQ]}\t"
                    f"{s[THREAD]}\t{int(s[ERROR])}\n"
                )


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children on one thread nest; children on pool threads may overlap each
    other, so the covered part is the length of the union of intervals.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (hi - lo) - covered
    return out


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the request list (see NOTES.md)."""
    by_id = {s[ID]: s for s in spans}
    self_s = self_times(spans)

    def ancestors(s):
        p = s[PARENT]
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p][PARENT]

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total_self(pred):
        return sum(self_s[s[ID]] for s in spans if pred(s[NAME]))

    def inclusive(items):
        return sum(s[END] - s[START] for s in items)

    def under(items, name):
        return sum(1 for s in items if any(a[NAME] == name for a in ancestors(s)))

    caps = named("specfun.log_cap_fraction")
    cap_nodes = sum(s[EXTRA] for s in caps)
    cap_self = sum(self_s[s[ID]] for s in caps)
    exact = named("specfun.cap_area_exact")
    quads = named("quadrature.log_integrate_batch")
    quad_nodes = sum(s[EXTRA][0] for s in quads)
    quad_rounds = sum(s[EXTRA][1] for s in quads)
    hyps = named("certificate._check_hypothesis_and_pick_r1")
    growth = named("radial.growth_h")
    points = named("oracle.maximal_at_point")
    certs = [
        s
        for s in spans
        if s[NAME] in CERT_BUILDERS
        and not any(a[NAME] in CERT_BUILDERS for a in ancestors(s))
    ]
    roots = named(ROOT_SPAN)
    n = float(passes)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "specfun.cap_calls": len(caps) / n,
        "specfun.cap_nodes": cap_nodes / n,
        "specfun.cap_self_s": cap_self / n,
        "specfun.cap_ns_per_node": ratio(cap_self * 1e9, cap_nodes),
        "specfun.cap_errors": sum(s[ERROR] for s in caps) / n,
        "specfun.exact_calls": len(exact) / n,
        "specfun.exact_self_s": sum(self_s[s[ID]] for s in exact) / n,
        "quadrature.calls": len(quads) / n,
        "quadrature.node_evals": quad_nodes / n,
        "quadrature.rounds": quad_rounds / n,
        "quadrature.nodes_per_call": ratio(quad_nodes, len(quads)),
        "quadrature.self_s": total_self(lambda m: m.startswith("quadrature.")) / n,
        "quadrature.errors": sum(s[ERROR] for s in quads) / n,
        "radial.offcenter_calls": len(named("radial._offcenter_logs")) / n,
        "radial.offcenter_self_s": sum(
            self_s[s[ID]] for s in named("radial._offcenter_logs")
        ) / n,
        "radial.mass_quad_calls": len(named("radial._mass_quad")) / n,
        "radial.growth_h_calls": len(growth) / n,
        "certificate.certs": len(certs) / n,
        "certificate.h_evals_per_cert": ratio(
            under(growth, "certificate._check_hypothesis_and_pick_r1"), len(hyps)
        ),
        "certificate.hyp_search_s": inclusive(hyps) / n,
        "certificate.self_s": total_self(lambda m: m.startswith("certificate.")) / n,
        "oracle.points": len(points) / n,
        "oracle.ms_per_point": ratio(inclusive(points) * 1e3, len(points)),
        "oracle.quad_calls_per_point": ratio(
            under(quads, "oracle.maximal_at_point"), len(points)
        ),
        "oracle.quadpack_s": inclusive(named("oracle.empirical_weak_ratio")) / n,
        "cli.self_s": sum(self_s[s[ID]] for s in roots) / n,
    }


def selftest() -> list[str]:
    """Install, run one small request of every command shape, and report
    problems: missing entry points, unwrapped references, layers that
    recorded no span."""
    import contextlib
    import io

    import hlmax.cli as cli

    tracer = Tracer()
    tracer.install()
    problems = [f"missing entry point {m}" for m in tracer.missing]
    problems += [f"unwrapped reference {r}" for r in tracer.unwrapped_refs()]
    argvs = (
        ["certify", "--construction", "decp", "--family", "log-singularity", "--d", "20", "--p", "1"],
        ["caps", "--d", "50", "--s", "0.3"],
        ["oracle", "--family", "lebesgue", "--d", "3", "--samples", "1"],
    )
    try:
        for i, argv in enumerate(argvs):
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.run_request(i, cli.main, argv)
    finally:
        tracer.uninstall()
    seen = {s[NAME].split(".")[0] for s in tracer.spans}
    for layer in ("cli",) + tuple(ENTRY_POINTS):
        if layer not in seen:
            problems.append(f"layer {layer} recorded no span")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    found = selftest()
    for line in found:
        print("tracer self-test:", line)
    print("tracer self-test:", "FAIL" if found else "pass")
    raise SystemExit(1 if found else 0)
