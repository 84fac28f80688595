"""Command-line front end: certify, scan, oracle, caps, critical-p.

Exit codes: 0 success, 1 usage/domain error, 2 growth-hypothesis violation,
3 oracle soundness failure, 4 numerical failure (a kernel could not reach
its accuracy target). Identical invocations (including seeds) produce
byte-identical output; all bounds are printed both as natural logs and as
per-dimension rates.

A density flag its family does not take is an error. certify and scan
share one construction table and its flags; scan prepares the
p-independent terms once per d, then assembles each p (``--jobs`` is
accepted and ignored). Scan rows name their construction and the family
it certified (doubling: power; lebesgue-ball: restricted-lebesgue;
whatever ``--family`` says); a failed row carries its error, and its
log_lower and rate_per_dim are null (JSON) or empty (CSV).

Each invocation builds the parser of its own subcommand only (argparse
spends about a millisecond on the flags of all five); an argv that names
none, such as no arguments, ``--help`` or an unknown command, gets every
subcommand. Help and error texts are the same either way. This paragraph
is left out of the parser's description.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Callable

from .certificate import (
    DecpTerms,
    DoublingTerms,
    GeneralizedDecpTerms,
    LebesgueBallTerms,
    WitnessTerms,
    besicovitch_upper,
    critical_p,
)
from .errors import DomainError, HypothesisViolationError, NumericalError
from .oracle import MAX_GRID, MAX_ORACLE_DIM, run_oracle
from .radial import RadialDensity, parse_kv, parse_segments
from .specfun import cap_area_bounds, log_cap_fraction

OUTPUT_DIR_ENV = "HLMAX_OUTPUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _range_spec(text: str, flag: str) -> list[float]:
    """Parse the value 'start:stop:step' of ``flag`` (inclusive stop, within
    half a step)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise UsageError(
            f"{flag} must be three numbers start:stop:step, got {text!r}"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise UsageError(f"bad range {text!r}")
    out = []
    x = start
    while x <= stop + 0.5 * step:
        out.append(x)
        x += step
    return out


def _build_density(args, d: int) -> RadialDensity:
    if not args.family:
        raise UsageError("--family is required")
    segments = None if args.segments is None else parse_segments(args.segments)
    return RadialDensity(args.family, d, t=args.t, segments=segments)


def _emit(records: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = "\n".join(json.dumps(r) for r in records) + "\n"
    else:
        scalar_keys = [
            k for k in records[0] if not isinstance(records[0][k], (dict, list, tuple))
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(scalar_keys)
        for rec in records:
            writer.writerow([_csv_cell(rec.get(k)) for k in scalar_keys])
        text = buf.getvalue()
    if output:
        out_dir = os.environ.get(OUTPUT_DIR_ENV)
        if out_dir and not os.path.isabs(output):
            output = os.path.join(out_dir, output)
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


# -- constructions -----------------------------------------------------------


@dataclass(frozen=True)
class Construction:
    """One certificate construction, shared by certify and scan."""

    required: tuple[str, ...]  # flags without a default that it needs
    prepare: Callable  # (args, d) -> the p-independent terms for one d
    record: Callable  # (terms, args, p) -> the certify record at p
    family: str = ""  # the family it always certifies, whatever --family says


def _record(res, **extra) -> dict:
    """The certify record of a construction result: its certificate, then its
    other fields in declaration order (``floor_log`` as the four floor
    fields, nested reports as dicts), then ``extra``."""
    rec = res.certificate.to_record()
    for field in fields(res):
        value = getattr(res, field.name)
        if field.name == "floor_log":
            rec["floor_log_lower_bound"] = value
            rec["floor_rate_per_dim"] = value / rec["d"]
            rec["floor_provenance"] = "floor"
            rec["exact_dominates_floor"] = rec["log_lower_bound"] >= value - 1e-9
        elif field.name != "certificate":
            rec[field.name] = asdict(value) if is_dataclass(value) else value
    rec.update(extra)
    return rec


def _result_record(terms, args, p: float) -> dict:
    return _record(terms.result(p))


def _doubling_record(terms: DoublingTerms, args, p: float) -> dict:
    budget = args.p0_budget if args.p0_budget is not None else p
    return _record(terms.result(p, budget, args.c), c=args.c, p0_budget=budget)


CONSTRUCTIONS = {
    "lemma": Construction(
        ("family",),
        lambda args, d: WitnessTerms.prepare(_build_density(args, d), args.v, args.R),
        lambda terms, args, p: terms.certificate(p).to_record(),
    ),
    "decp": Construction(
        ("family",),
        lambda args, d: DecpTerms.prepare(_build_density(args, d), args.epsilon),
        _result_record,
    ),
    "decp-generalized": Construction(
        ("family", "t0", "t1"),
        lambda args, d: GeneralizedDecpTerms.prepare(
            _build_density(args, d), args.t0, args.t1, args.epsilon
        ),
        _result_record,
    ),
    "doubling": Construction(
        ("t", "c"),
        lambda args, d: DoublingTerms.prepare(args.t, d),
        _doubling_record,
        family="power",
    ),
    "lebesgue-ball": Construction(
        (),
        lambda args, d: LebesgueBallTerms.prepare(d),
        _result_record,
        family="restricted-lebesgue",
    ),
}


def _construction(args) -> Construction:
    entry = CONSTRUCTIONS[args.construction]
    if any(getattr(args, flag) is None for flag in entry.required):
        flags = " and ".join("--" + flag for flag in entry.required)
        raise UsageError(f"{args.construction} needs {flags}")
    return entry


def cmd_certify(args) -> int:
    entry = _construction(args)
    rec = entry.record(entry.prepare(args, args.d), args, args.p)
    _emit([rec], args.format, args.output)
    return 0


def cmd_scan(args) -> int:
    ds = _range_spec(args.d_range, "--d-range")
    for x in ds:
        if not x.is_integer():
            raise UsageError(f"--d-range values must be integers, got {x!r}")
    ds = [int(x) for x in ds]
    try:
        ps = [float(x) for x in args.p_list.split(",") if x.strip()]
    except ValueError:
        raise UsageError(
            f"--p-list must be comma-separated numbers, got {args.p_list!r}"
        ) from None
    if not ds or not ps:
        raise UsageError("empty d-range or p-list")
    if any(d < 1 for d in ds) or not all(1 <= p < math.inf for p in ps):
        raise UsageError("need every d >= 1 and every p in [1, inf)")
    entry = _construction(args)
    family = entry.family or args.family.replace("_", "-")
    params = ""
    if args.t is not None:
        params = f"t={args.t!r}"
    if args.segments:
        params = f"segments={args.segments}"

    def row(terms, error: str, d: int, p: float) -> dict:
        upper = besicovitch_upper(d, p)
        low = None
        if not error:
            try:
                low = entry.record(terms, args, p)["log_lower_bound"]
                if low > upper:
                    raise DomainError(
                        f"lower bound exp({low}) exceeds the universal upper "
                        f"bound exp({upper}) at d={d}, p={p}"
                    )
            except Exception as exc:  # recorded per row; scan carries on
                low, error = None, f"{type(exc).__name__}: {exc}"
        return {
            "construction": args.construction,
            "family": family,
            "params": params,
            "d": d,
            "p": p,
            "log_lower": low,
            "rate_per_dim": None if low is None else low / d,
            "upper_log": upper,
            "error": error,
        }

    records = []
    for d in ds:
        try:  # a failure here is p-independent: every row of this d carries it
            terms, error = entry.prepare(args, d), ""
        except Exception as exc:
            terms, error = None, f"{type(exc).__name__}: {exc}"
        records.extend(row(terms, error, d, p) for p in ps)
    records.sort(key=lambda r: (r["d"], r["p"]))
    _emit(records, args.format, args.output)
    return 0 if any(not r["error"] for r in records) else 1


# -- oracle --------------------------------------------------------------------


def cmd_oracle(args) -> int:
    if args.d > MAX_ORACLE_DIM:
        raise UsageError(
            f"d = {args.d} > {MAX_ORACLE_DIM}: direct maximal-function evaluation "
            "needs one two-dimensional quadrature per radius and becomes intractable"
        )
    if args.seed < 0:
        raise UsageError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.grid > MAX_GRID:
        raise UsageError(f"--grid must be at most {MAX_GRID}, got {args.grid}")
    density = _build_density(args, args.d)
    report = run_oracle(
        density,
        args.p,
        args.v,
        args.R,
        seed=args.seed,
        samples=args.samples,
        grid=args.grid,
    )
    _emit([report.to_record()], args.format, args.output)
    return 0 if report.sound() else 3


# -- caps ----------------------------------------------------------------------


def cmd_caps(args) -> int:
    if args.s is None and not args.s_grid:
        raise UsageError("caps needs --s or --s-grid")
    svals = [args.s] if args.s is not None else _range_spec(args.s_grid, "--s-grid")
    for s in svals:
        if not (0.0 <= s < 1.0):
            raise UsageError(f"s must lie in [0, 1), got {s}")
    if args.d < 2:
        raise DomainError(f"cap area formulas need integer dim >= 2, got {args.d}")
    # the whole grid in one kernel call, with the bits of one call per s
    records = []
    for s, exact in zip(svals, log_cap_fraction(args.d, svals).tolist()):
        if s > 0.0:
            lo, hi = cap_area_bounds(args.d, s)
            ok = lo - 1e-10 <= exact <= hi + 1e-10
        else:
            lo = hi = None
            ok = True
        records.append(
            {
                "d": args.d,
                "s": s,
                "t": math.sqrt((1.0 - s) * (1.0 + s)),
                "log_exact": exact,
                "log_lower": lo,
                "log_upper": hi,
                "sandwich_ok": ok,
            }
        )
    _emit(records, args.format, args.output)
    return 0


def cmd_critical_p(args) -> int:
    tags = [args.base] if args.base else ["decp", "lebesgue_ball"]
    records = [{"base": tag, "p0": critical_p(tag)} for tag in tags]
    _emit(records, args.format, args.output)
    return 0


# -- parser --------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", default=None, help="output path (stdout if omitted)")
    sp.add_argument("--config", default=None, help="key=value defaults file")


def _add_density_flags(sp) -> None:
    sp.add_argument(
        "--family",
        default=None,
        help="lebesgue, restricted-lebesgue, power, truncated-power, "
        "log-singularity or piecewise",
    )
    sp.add_argument("--t", type=float, default=None, help="power-family exponent fraction")
    sp.add_argument(
        "--segments", default=None, help="piecewise segments: end:coef[:exp],..."
    )


def _add_construction_flags(sp) -> None:
    sp.add_argument("--construction", choices=tuple(CONSTRUCTIONS), default="lemma")
    sp.add_argument("--v", type=float, default=0.5)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--t0", type=float, default=None)
    sp.add_argument("--t1", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--p0-budget", dest="p0_budget", type=float, default=None)


def _certify_flags(sp) -> None:
    _add_density_flags(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    _add_construction_flags(sp)


def _scan_flags(sp) -> None:
    _add_density_flags(sp)
    sp.add_argument("--d-range", dest="d_range", required=True, help="start:stop:step")
    sp.add_argument("--p-list", dest="p_list", required=True, help="comma-separated")
    _add_construction_flags(sp)
    sp.add_argument("--jobs", type=int, help="ignored: cells run in order")


def _oracle_flags(sp) -> None:
    _add_density_flags(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--v", type=float, default=0.5)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--grid", type=int, default=128, help=f"radii, 64 to {MAX_GRID}")


def _caps_flags(sp) -> None:
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--s-grid", dest="s_grid", default=None, help="start:stop:step")


def _critical_p_flags(sp) -> None:
    sp.add_argument("--base", choices=("decp", "lebesgue_ball"), default=None)


# name: (help line, the flags before the common ones, the command)
SUBCOMMANDS = {
    "certify": ("one certificate at a single (d, p)", _certify_flags, cmd_certify),
    "scan": ("certificates over a (d, p) grid", _scan_flags, cmd_scan),
    "oracle": ("brute-force check of one configuration", _oracle_flags, cmd_oracle),
    "caps": ("exact cap areas against the two-sided bounds", _caps_flags, cmd_caps),
    "critical-p": ("closed-form critical exponents", _critical_p_flags, cmd_critical_p),
}


def build_parser(command: str | None = None) -> _Parser:
    """The hlmax parser: with only ``command``'s subparser when it names
    one, with every subparser otherwise."""
    parser = _Parser(prog="hlmax", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in SUBCOMMANDS else SUBCOMMANDS:
        help_line, add_flags, cmd = SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=help_line)
        add_flags(sp)
        _add_common(sp)
        sp.set_defaults(func=cmd)
    return parser


def _inject_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise UsageError("--config needs a file path")
    with open(argv[idx + 1]) as fh:
        cfg = parse_kv(fh.read())
    injected = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in argv:
            injected.extend([flag, value])
    return argv[:1] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and not argv[0].startswith("-"):
            argv = _inject_config(argv)
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if getattr(args, "d", None) is not None and args.d < 1:
            raise UsageError(f"d must be a positive integer, got {args.d}")
        if getattr(args, "p", None) is not None and not 1 <= args.p < math.inf:
            raise UsageError(f"p must lie in [1, inf), got {args.p}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolationError as exc:
        print(f"hypothesis violation ({exc.failed}): {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
