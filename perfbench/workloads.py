"""Seeded request lists for the three benchmark workloads.

A request list is a pure function of (workload, seed). Each list is one
*pass*: the worker replays the same pass until its time is up, so every pass
does identical work. A pass is made of blocks; every block has the same
stratified composition, with seeded draws inside each stratum, so the cost
of a pass barely depends on the seed.

Every request is a dict with ``argv`` (the CLI arguments given to
``hlmax.cli.main``) and ``meta`` (what the output checks need to know).
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("scan-decp", "certify-highd", "oracle-lowd")

# decp grids stay below critical_p("decp") = 6 ln 2 / ln 55 = 1.03782...
DECP_P_MAX = 1.037
# per block, per family: the number of p values of each request (each grid
# has 2 d values). The quadrature families (about 250 ms a request) outnumber
# the closed-form ones (about 20 ms) three to one, so the latency median falls
# mid-way into the costly mode rather than on its cheapest, most seed-dependent
# requests; the fixed p counts keep the records per pass the same for every
# seed.
SCAN_FAMILIES = (
    ("log-singularity", (2, 3, 4)),
    ("piecewise", (2, 3, 4)),
    ("restricted-lebesgue", (3,)),
    ("truncated-power", (3,)),
)
# each pass uses a seeded choice of these, without repeats
PIECEWISE_SEGMENTS = ("0.5:1,1:0.5", "0.25:2,1:1", "0.3:3,0.7:1,1:0.5", "1:1:0.5")
SCAN_T = (0.3, 0.5, 0.7)

# certify-highd draws d from a fixed pool so mpmath references can be stored:
# HIGHD_STRATA log-uniform strata of [HIGHD_MIN, HIGHD_MAX], HIGHD_PER_STRATUM
# candidates in each. Timed requests must not fail, and at d >= 4751 some
# cells raise in specfun._betacf, so the timed pool stops below that; the
# failing range is run once per run, untimed, by highd_probe().
HIGHD_MIN = 300
HIGHD_MAX = 4_500
HIGHD_STRATA = 12
HIGHD_PER_STRATUM = 4
POWER_T = (0.25, 0.5, 0.75)
LEMMA_FAMILIES = ("restricted-lebesgue", "power", "log-singularity")
CAPS_GRIDS = ("0.05:0.95:0.05", "0.1:0.9:0.1", "0.02:0.62:0.04")
# the high-d probe: every certify construction at these d, p = HIGHD_PROBE_P
HIGHD_PROBE_DS = (4_996, 6_220, 7_744, 10_000)
HIGHD_PROBE_P = 1.1
HIGHD_PROBE_T = 0.5

ORACLE_FAMILIES = ("lebesgue", "restricted-lebesgue", "power", "truncated-power")
ORACLE_DIMS = (2, 3, 4)
ORACLE_P = (1.0, 1.2)
# one power exponent and few level-set samples: the sampled radii, drawn by
# the program from --seed, are what makes a request's cost vary
ORACLE_T = 0.5
ORACLE_SAMPLES = 2


def highd_pool() -> list[list[int]]:
    """Candidate dimensions for each certify-highd stratum (seed-free)."""
    lo, hi = math.log(HIGHD_MIN), math.log(HIGHD_MAX)
    width = (hi - lo) / HIGHD_STRATA
    return [
        [
            round(math.exp(lo + width * (k + (j + 0.5) / HIGHD_PER_STRATUM)))
            for j in range(HIGHD_PER_STRATUM)
        ]
        for k in range(HIGHD_STRATA)
    ]


def _certify_request(construction: str, d: int, p: float, t: float | None) -> dict:
    """A certify request for ``lebesgue-ball`` or a ``lemma`` family."""
    if construction == "lebesgue-ball":
        argv = ["certify", "--construction", "lebesgue-ball"]
        meta = {"family": "restricted-lebesgue", "t": None}
    else:
        argv = ["certify", "--construction", "lemma", "--family", construction]
        meta = {"family": construction, "t": t}
        if t is not None:
            argv += ["--t", repr(t)]
    argv += ["--d", str(d), "--p", repr(p)]
    meta.update({"d": d, "p": p})
    return {"argv": argv, "meta": meta}


def highd_probe() -> list[dict]:
    """The untimed high-d probe of certify-highd (seed-free): each certify
    construction at each of HIGHD_PROBE_DS."""
    reqs = [
        _certify_request(
            construction, d, HIGHD_PROBE_P, HIGHD_PROBE_T if construction == "power" else None
        )
        for d in HIGHD_PROBE_DS
        for construction in ("lebesgue-ball",) + LEMMA_FAMILIES
    ]
    for i, req in enumerate(reqs):
        req["kind"] = "certify"
        req["index"] = i
    return reqs


def range_values(spec: str) -> list[float]:
    """The values the CLI expands 'start:stop:step' into (same float steps)."""
    start, stop, step = (float(x) for x in spec.split(":"))
    out = []
    x = start
    while x <= stop + 0.5 * step:
        out.append(x)
        x += step
    return out


def _scan_decp(rng: random.Random) -> list[dict]:
    reqs = []
    for family, n_ps in SCAN_FAMILIES:
        params = {
            "piecewise": ["--segments", PIECEWISE_SEGMENTS],
            "truncated-power": ["--t", [repr(t) for t in SCAN_T]],
        }.get(family)
        choices = rng.sample(params[1], len(n_ps)) if params else [None] * len(n_ps)
        for n_p, choice in zip(n_ps, choices):
            start = rng.randint(10, 200)
            step = rng.randint(10, 100)
            ps = set()
            while len(ps) < n_p:
                ps.add(round(rng.uniform(1.0, DECP_P_MAX), 4))
            ps = sorted(ps)
            # one pool thread: a second one would contend with the first for
            # the interpreter lock and measure the scheduler of a shared host
            argv = ["scan", "--construction", "decp", "--family", family, "--jobs", "1"]
            if params:
                argv += [params[0], choice]
            argv += [
                "--d-range", f"{start}:{start + step}:{step}",
                "--p-list", ",".join(repr(p) for p in ps),
            ]
            meta = {"ds": [start, start + step], "ps": ps}
            reqs.append({"argv": argv, "meta": meta})
    rng.shuffle(reqs)
    return reqs


def _certify_highd(rng: random.Random) -> list[dict]:
    pool = highd_pool()
    reqs = []
    for stratum in pool:
        for construction in ("lebesgue-ball",) + LEMMA_FAMILIES:
            d = rng.choice(stratum)
            p = round(rng.uniform(1.0, 1.12), 3)
            t = rng.choice(POWER_T) if construction == "power" else None
            reqs.append(_certify_request(construction, d, p, t))
    # one caps request per grid, in evenly spaced strata, so every pass
    # emits the same number of cap rows
    spacing = HIGHD_STRATA // len(CAPS_GRIDS)
    offset = rng.randrange(spacing)
    grids = rng.sample(CAPS_GRIDS, len(CAPS_GRIDS))
    for k, grid in zip(range(offset, HIGHD_STRATA, spacing), grids):
        d = rng.choice(pool[k])
        reqs.append(
            {
                "argv": ["caps", "--d", str(d), "--s-grid", grid],
                "meta": {"d": d, "grid": grid},
            }
        )
    rng.shuffle(reqs)
    return reqs


def _oracle_lowd(rng: random.Random) -> list[dict]:
    reqs = []
    for family in ORACLE_FAMILIES:
        for d in ORACLE_DIMS:
            p = rng.choice(ORACLE_P)
            argv = ["oracle", "--family", family]
            if family in ("power", "truncated-power"):
                argv += ["--t", repr(ORACLE_T)]
            argv += [
                "--d", str(d), "--p", repr(p),
                "--seed", str(rng.randrange(10**6)),
                "--samples", str(ORACLE_SAMPLES),
            ]
            reqs.append({"argv": argv, "meta": {"d": d, "p": p}})
    rng.shuffle(reqs)
    return reqs


# Blocks per pass. A pass repeats, so without several blocks the few
# costliest requests of one block would fill the latency tail and a seed's
# draw inside the strata would set the pass time; each block is a few seconds.
BLOCKS = {"scan-decp": 3, "certify-highd": 4, "oracle-lowd": 2}
_BUILDERS = {
    "scan-decp": _scan_decp,
    "certify-highd": _certify_highd,
    "oracle-lowd": _oracle_lowd,
}


def build_requests(workload: str, seed: int) -> list[dict]:
    """One pass of ``workload`` for ``seed``: BLOCKS[workload] independently
    drawn stratified blocks. Identical arguments give an identical list."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = [req for _ in range(BLOCKS[workload]) for req in _BUILDERS[workload](rng)]
    for i, req in enumerate(reqs):
        req["kind"] = req["argv"][0]
        req["index"] = i
    return reqs
