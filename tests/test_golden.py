"""Golden records: fixed invocations whose output must not change.

``golden/cli.jsonl`` holds one case per line. A CLI case stores its argv,
exit code and exact stdout; a Python case stores the ``repr`` of a library
call named in PY_CASES. Every case is replayed and compared byte for byte.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py --write
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import warnings

import pytest

from hlmax import RadialDensity
from hlmax.certificate import DecpTerms
from hlmax.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.jsonl")

CLI_CASES = (
    "certify --family log-singularity --d 20 --p 1.5 --construction lemma --v 0.4 --R 0.7",
    "certify --family restricted-lebesgue --d 100 --p 1.03 --construction decp",
    "certify --family log-singularity --d 30 --p 1 --construction decp --format csv",
    "certify --family power --t 0.88 --d 25 --p 1 --construction decp-generalized"
    " --t0 0.08 --t1 0.15",
    "certify --family power --t 0.99 --d 50 --p 2 --construction doubling --c 1.2",
    "certify --construction lebesgue-ball --d 50 --p 1.05",
    "scan --construction decp --family log-singularity --d-range 20:40:20"
    " --p-list 1,1.02 --jobs 1",
    "scan --construction decp --family piecewise --segments 0.5:2,1:1"
    " --d-range 20:40:20 --p-list 1,1.02",
    "scan --construction lebesgue-ball --d-range 10:30:10 --p-list 1,1.05 --format csv",
    "scan --construction doubling --t 0.99 --c 1.2 --d-range 50:100:50 --p-list 1.5,2",
    "scan --construction lemma --family power --t 0.5 --d-range 5:10:5"
    " --p-list 1,2 --v 0.4 --R 2",
    "caps --d 500 --s-grid 0.05:0.95:0.3",
    "critical-p",
    "oracle --family lebesgue --d 3 --samples 2",
    "certify --construction lebesgue-ball --d 10000 --p 1",
    "oracle --family lebesgue --d 8 --samples 2",
    "certify --family piecewise --segments 1:1,inf:1:13 --d 10 --p 1 --construction lemma"
    " --v 0.5 --R 3",
)

PY_CASES = {
    "decp r1 log-singularity d=40 p=1": lambda: DecpTerms.prepare(
        RadialDensity.log_singularity(40)
    ).result(1.0).r1,
    "decp r1 piecewise d=30 p=1.02": lambda: DecpTerms.prepare(
        RadialDensity.piecewise(30, [(0.5, 2.0), (1.0, 1.0)])
    ).result(1.02).r1,
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(list(argv))
    return code, buf.getvalue()


def run_py(name: str) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return repr(PY_CASES[name]())


def _load() -> list[dict]:
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh if line.strip()]


CASES = _load() if os.path.exists(GOLDEN) else []


def _case_id(case: dict) -> str:
    return " ".join(case["argv"]) if "argv" in case else case["python"]


def test_golden_covers_every_case():
    assert [_case_id(c) for c in CASES] == list(CLI_CASES) + list(PY_CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden(case):
    if "argv" in case:
        code, out = run_cli(case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]
    else:
        assert run_py(case["python"]) == case["repr"]


def write() -> None:
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        for line in CLI_CASES:
            argv = line.split()
            code, out = run_cli(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out}) + "\n")
        for name in PY_CASES:
            fh.write(json.dumps({"python": name, "repr": run_py(name)}) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write()
