import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import hlmax
import hlmax.certificate as certificate
import hlmax.cli as cli
import hlmax.oracle as oracle
from hlmax.certificate import critical_p, decp_explicit_constant
from hlmax.cli import main
from hlmax.errors import NumericalError, QuadraturePrecisionError
from hlmax.specfun import cap_area_exact


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate costs about 0.65 s of start-up and scipy.special a
    # share of it; only the oracle's QUADPACK functions need them, and they
    # import them themselves
    src = os.path.dirname(os.path.dirname(os.path.abspath(hlmax.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, hlmax.cli; "
        "sys.exit(int('scipy.integrate' in sys.modules or 'scipy.special' in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_public_names_resolve():
    for name in hlmax.__all__:
        getattr(hlmax, name)
    # test-only helpers stay in their modules, off the package's list
    dropped = {
        "ScanRow", "verify_level_set", "intersect_origin_ball", "density_from_kv",
        "maximal_at_point", "decp_explicit_constant", "gamma_ratio_bounds_hold",
        "doubling_cap_x2", "CapSpec", "ConeCapParams", "DegenerateCapError",
        "sphere_ball_cap", "cap_containment_params",
    }
    assert not dropped & set(hlmax.__all__)
    assert importlib.util.find_spec("hlmax.geometry") is None


class TestCriticalP:
    def test_both_roots(self, capsys):
        code, out, _ = run_cli(capsys, "critical-p")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        by_tag = {r["base"]: r["p0"] for r in recs}
        assert by_tag["decp"] == pytest.approx(6 * math.log(2) / math.log(55), abs=1e-15)
        assert by_tag["lebesgue_ball"] == pytest.approx(critical_p("lebesgue_ball"), abs=1e-15)


class TestCertify:
    def test_decp_high_dimension_record(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--family", "restricted-lebesgue",
            "--d", "100",
            "--p", "1.03",
            "--construction", "decp",
        )
        assert code == 0
        rec = json.loads(out)
        slack = math.log(4.0 + decp_explicit_constant(100) / 10.0)
        assert rec["log_lower_bound"] >= 100 * math.log(1.005) - slack
        assert rec["exact_dominates_floor"]
        assert rec["hypothesis"]["tail_log_value"] == 0.0
        assert rec["provenance"] == "exact"
        assert rec["floor_provenance"] == "floor"

    def test_doubling_exact_dominates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--family", "power",
            "--t", "0.99",
            "--d", "50",
            "--p", "2",
            "--construction", "doubling",
            "--c", "1.2",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["log_lower_bound"] >= rec["floor_log_lower_bound"] - 1e-9

    def test_invalid_dimension_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--family", "lebesgue", "--d", "0", "--p", "1")
        assert code == 1
        assert "d must be" in err

    def test_unknown_family_lists_choices(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--family", "gaussian", "--d", "3", "--p", "1"
        )
        assert code == 1
        assert "restricted-lebesgue" in err

    @pytest.mark.parametrize(
        "argv, part",
        [
            ("--construction decp --family lebesgue --d 10", "limsup"),
            ("--construction decp --family power --t 0.95 --d 20", "sup"),
            (
                "--construction decp-generalized --family power --t 0.5 --d 40"
                " --t0 0.1 --t1 0.15",
                "limsup",
            ),
        ],
        ids=["decp-lebesgue", "decp-power", "generalized-power"],
    )
    def test_hypothesis_violation_exits_two(self, capsys, argv, part):
        code, _, err = run_cli(capsys, "certify", "--p", "1", *argv.split())
        assert code == 2
        assert f"hypothesis violation ({part})" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "--construction lemma --family lebesgue --d 5 --v 0.5 --R 1",
            "--construction decp --family restricted-lebesgue --d 20",
            "--construction decp-generalized --family power --t 0.88 --d 25"
            " --t0 0.08 --t1 0.15",
            "--construction doubling --t 0.99 --c 1.2 --d 50",
            "--construction lebesgue-ball --d 10",
        ],
        ids=["lemma", "decp", "decp-generalized", "doubling", "lebesgue-ball"],
    )
    def test_p_one_record_is_strict_json(self, capsys, argv):
        # q is infinite at p = 1; the record prints null, not an Infinity token
        def no_constant(token):
            raise ValueError(f"non-JSON token {token}")

        code, out, _ = run_cli(capsys, "certify", "--p", "1", *argv.split())
        assert code == 0
        rec = json.loads(out, parse_constant=no_constant)
        assert rec["p"] == 1.0 and rec["q"] is None

    def test_unbounded_piecewise_lemma_keeps_stderr_empty(self):
        # a numpy warning reaches stderr only outside pytest's warning
        # capture, so the CLI runs in a process of its own
        src = os.path.dirname(os.path.dirname(os.path.abspath(hlmax.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = (
            "certify --family piecewise --segments 1:1,inf:1:3 --d 10 --p 1"
            " --construction lemma --v 0.5 --R 1000"
        ).split()
        proc = subprocess.run(
            [sys.executable, "-m", "hlmax.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert math.isfinite(json.loads(proc.stdout)["log_lower_bound"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--family", "restricted-lebesgue",
            "--d", "5",
            "--p", "1",
            "--construction", "lebesgue-ball",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["d"]) == 5


class TestScan:
    def test_round_trip_and_sorted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--construction", "lebesgue-ball",
            "--d-range", "10:60:10",
            "--p-list", "1",
            "--format", "csv",
            "--jobs", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["d"]) for r in rows] == [10, 20, 30, 40, 50, 60]
        # numeric cells round-trip exactly through repr
        for row in rows:
            val = float(row["log_lower"])
            assert repr(val) == row["log_lower"]

    def test_rate_column_approaches_limit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--construction", "lebesgue-ball",
            "--d-range", "20:120:50",
            "--p-list", "1",
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        limit = math.log(2.0 ** 3 / math.sqrt(55.0))
        last = recs[-1]
        assert abs(last["rate_per_dim"] - limit) <= 3.0 * math.log(last["d"]) / last["d"]

    def test_empty_range_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--construction", "lebesgue-ball",
            "--d-range", "10:5:1", "--p-list", "1",
        )
        assert code == 1

    def test_partial_failure_rows(self, capsys):
        # d = 1 rejects the unit-ball construction but d = 2 succeeds
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--construction", "lebesgue-ball",
            "--d-range", "1:2:1",
            "--p-list", "1",
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert recs[0]["error"] != ""
        assert recs[1]["error"] == ""

    def test_scan_row_invariant(self, capsys, monkeypatch):
        # a lower bound above the covering-theorem upper bound is that row's error
        monkeypatch.setattr(cli, "besicovitch_upper", lambda d, p: -1000.0)
        code, out, _ = run_cli(
            capsys, "scan", "--construction", "lebesgue-ball",
            "--d-range", "10:10:1", "--p-list", "1",
        )
        assert code == 1
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert row["error"].startswith("DomainError: lower bound exp(")
        assert "exceeds the universal upper bound exp(-1000.0) at d=10, p=1.0" in row["error"]
        assert row["log_lower"] is None and row["rate_per_dim"] is None

    def test_error_row_is_strict_json_and_empty_csv(self, capsys):
        # the decp growth hypothesis fails for Lebesgue: the row carries no number
        argv = ("scan", "--construction", "decp", "--family", "lebesgue",
                "--d-range", "10:10:1", "--p-list", "1")

        def no_constant(token):
            raise ValueError(f"non-JSON token {token}")

        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        row = json.loads(out, parse_constant=no_constant)
        assert row["error"].startswith("HypothesisViolationError: ")
        assert row["log_lower"] is None and row["rate_per_dim"] is None
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1
        (cells,) = csv.DictReader(io.StringIO(out))
        assert cells["log_lower"] == "" and cells["rate_per_dim"] == ""
        assert cells["upper_log"] != ""


class TestScanConstructions:
    GENERALIZED = (
        "--construction", "decp-generalized", "--family", "power", "--t", "0.88",
        "--t0", "0.08", "--t1", "0.15",
    )

    def test_decp_generalized_rows_match_certify(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", *self.GENERALIZED, "--d-range", "20:25:5", "--p-list", "1,1.01"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["d"], r["p"]) for r in rows] == [(20, 1.0), (20, 1.01), (25, 1.0), (25, 1.01)]
        for row in rows:
            assert row["error"] == ""
            _, cert_out, _ = run_cli(
                capsys, "certify", *self.GENERALIZED,
                "--d", str(row["d"]), "--p", repr(row["p"]),
            )
            assert row["log_lower"] == json.loads(cert_out)["log_lower_bound"]

    def test_decp_generalized_needs_t0(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--construction", "decp-generalized", "--family", "power",
            "--t", "0.88", "--t1", "0.15", "--d-range", "20:25:5", "--p-list", "1",
        )
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--t0" in err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--construction", "doubling", "--t", "0.99",
            "--d-range", "50:100:50", "--p-list", "2",
        )
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--c" in err

    def test_p_independent_work_runs_once_per_d(self, capsys, monkeypatch):
        calls = {"search": 0, "offcenter": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            certificate, "_check_hypothesis_and_pick_r1",
            counted("search", certificate._check_hypothesis_and_pick_r1),
        )
        monkeypatch.setattr(
            certificate, "log_ball_offcenter",
            counted("offcenter", certificate.log_ball_offcenter),
        )
        code, out, _ = run_cli(
            capsys, "scan", "--construction", "decp", "--family", "restricted-lebesgue",
            "--d-range", "60:80:20", "--p-list", "1,1.01,1.02",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6
        assert calls == {"search": 2, "offcenter": 2}

    def test_prepare_failure_fills_every_p_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--construction", "decp", "--family", "lebesgue",
            "--d-range", "10:20:10", "--p-list", "1,1.01",
        )
        assert code == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 4
        for d in (10, 20):
            errors = {r["error"] for r in rows if r["d"] == d}
            assert len(errors) == 1
            assert errors.pop().startswith("HypothesisViolationError: ")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--construction", "doubling", "--family", "lebesgue", "--t", "0.99",
             "--c", "1.2", "--d-range", "50:50:1", "--p-list", "2"),
            ("--construction", "lebesgue-ball", "--family", "power",
             "--d-range", "5:10:5", "--p-list", "1,1.05"),
        ],
    )
    def test_rows_label_what_certify_certified(self, capsys, flags):
        code, out, _ = run_cli(capsys, "scan", *flags)
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        for row in rows:
            assert row["error"] == ""
            assert row["construction"] == flags[1]
            _, cert_out, _ = run_cli(
                capsys, "certify", *flags[:-4], "--d", str(row["d"]), "--p", repr(row["p"])
            )
            assert row["family"] == json.loads(cert_out)["family"]

    def test_per_p_failure_stays_in_its_row(self, capsys):
        # c = 1.3 < 2^(1/p) holds at p = 2 but not at p = 3
        code, out, _ = run_cli(
            capsys, "scan", "--construction", "doubling", "--t", "0.99", "--c", "1.3",
            "--d-range", "50:50:1", "--p-list", "2,3",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("DomainError: c must lie in")


def test_rate_scan_script_matches_scan(capsys):
    # the script builds its rows through the *Terms classes; each of its
    # lebesgue-ball and decp bounds must be the bits scan prints
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hlmax.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "rate_scan.py"),
         "--d-max", "40", "--d-step", "20"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    scans = {
        "lebesgue_ball": ("--construction", "lebesgue-ball", "--p-list",
                          f"1,1.05,{critical_p('lebesgue_ball')!r}"),
        "decp": ("--construction", "decp", "--family", "restricted-lebesgue",
                 "--p-list", "1,1.03"),
    }
    checked = 0
    for name, flags in scans.items():
        code, out, _ = run_cli(capsys, "scan", "--d-range", "20:40:20", *flags)
        assert code == 0
        want = {}
        for line in out.strip().splitlines():
            rec = json.loads(line)
            want[(str(rec["d"]), f"{rec['p']:.6f}")] = repr(rec["log_lower"])
        for row in rows:
            if row["construction"] == name:
                assert row["log_lower"] == want[(row["d"], row["p"])]
                checked += 1
    assert checked == 2 * 3 + 2 * 2


class TestNumericalFailure:
    def test_kernel_errors_are_numerical(self):
        assert issubclass(QuadraturePrecisionError, NumericalError)
        assert issubclass(NumericalError, RuntimeError)

    def test_exit_four_without_traceback(self, capsys, monkeypatch):
        def fail(args, d):
            raise NumericalError("kernel did not converge")

        entry = cli.CONSTRUCTIONS["lebesgue-ball"]
        monkeypatch.setitem(
            cli.CONSTRUCTIONS, "lebesgue-ball", cli.Construction((), fail, entry.record)
        )
        code, out, err = run_cli(
            capsys, "certify", "--construction", "lebesgue-ball", "--d", "50", "--p", "1"
        )
        assert code == 4
        assert out == ""
        assert err == "numerical error: kernel did not converge\n"


class TestHighDimension:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--construction", "lebesgue-ball", "--p", "1"),
            ("--construction", "lemma", "--family", "log-singularity", "--p", "1.1"),
        ],
        ids=["lebesgue-ball", "lemma-log-singularity"],
    )
    def test_certify_at_d_10000(self, capsys, flags):
        code, out, err = run_cli(capsys, "certify", "--d", "10000", *flags)
        assert code == 0
        assert err == ""
        rec = json.loads(out)
        assert rec["d"] == 10000
        assert math.isfinite(rec["log_lower_bound"])


class TestOracle:
    def test_planar_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--family", "lebesgue",
            "--d", "2",
            "--v", "0.5",
            "--R", "1",
            "--p", "1",
            "--seed", "42",
            "--samples", "25",
            "--grid", "64",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["sound"]
        assert rec["level_set_ok"]

    def test_power_dual_path(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--family", "power",
            "--t", "0.5",
            "--d", "3",
            "--v", "0.5",
            "--R", "1",
            "--p", "1.2",
            "--seed", "1",
            "--samples", "20",
            "--grid", "64",
        )
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["dual_path_gap"]) <= 1e-6

    def test_dimension_guard_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--family", "lebesgue", "--d", "11")
        assert code == 1
        assert "intractable" in err

    @pytest.mark.parametrize("d", ["3", "8"])
    def test_small_grid_exits_one(self, capsys, d):
        # the grid guard holds above the sampling limit (d > 6) too
        code, out, err = run_cli(
            capsys, "oracle", "--family", "lebesgue", "--d", d, "--grid", "32"
        )
        assert code == 1
        assert out == ""
        assert "at least 64 radii" in err

    def test_seeded_byte_identical(self, capsys):
        args = (
            "oracle", "--family", "truncated-power", "--t", "0.5",
            "--d", "2", "--p", "1", "--seed", "9", "--samples", "10", "--grid", "64",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestCaps:
    def test_main_cap_row(self, capsys):
        code, out, _ = run_cli(capsys, "caps", "--d", "100", "--s", "0.375")
        assert code == 0
        rec = json.loads(out)
        assert rec["sandwich_ok"]
        assert rec["t"] == pytest.approx(math.sqrt(55.0) / 8.0, abs=1e-12)

    def test_hemisphere(self, capsys):
        code, out, _ = run_cli(capsys, "caps", "--d", "2", "--s", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["log_exact"] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_grid_sweep_all_ok(self, capsys):
        code, out, _ = run_cli(capsys, "caps", "--d", "500", "--s-grid", "0.05:0.95:0.05")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 19
        assert all(r["sandwich_ok"] for r in recs)

    def test_bad_s_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "caps", "--d", "10", "--s", "1.2")
        assert code == 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 50, 300, 1000, 4500])
    def test_grid_has_the_bits_of_one_call_per_s(self, capsys, d):
        # the grid is one kernel call, and each row the value of its s alone
        code, out, _ = run_cli(capsys, "caps", "--d", str(d), "--s-grid", "0:0.99:0.03")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 34
        assert all(r["log_exact"] == cap_area_exact(d, r["s"]) for r in recs)

    def test_one_dimension_is_rejected_at_s_zero(self, capsys):
        code, _, err = run_cli(capsys, "caps", "--d", "1", "--s", "0")
        assert code == 1
        assert "cap area formulas need integer dim >= 2, got 1" in err


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("certify --family lebesgue --t 0.5 --d 3 --p 1", "takes no exponent"),
            ("certify --family lebesgue --segments 1:1 --d 3 --p 1", "takes no segments"),
            ("certify --family power --d 10 --p 1", "got t=None"),
            ("certify --family piecewise --d 10 --p 1", "needs at least one segment"),
            ("oracle --family power --d 3", "got t=None"),
            (
                "certify --family log-singularity --d 5 --p 1 --tol 0",
                "usage error: unrecognized arguments: --tol",
            ),
            ("caps --d 10 --s 0.5 --tol 0.1", "usage error: unrecognized"),
            ("oracle --family lebesgue --d 8 --samples 0", "need at least one sample"),
            (
                "scan --construction lebesgue-ball --d-range 10:11:0.5 --p-list 1",
                "usage error: --d-range values must be integers, got 10.5",
            ),
            ("caps --d 10 --s-grid 0.1:inf:0.1", "usage error: bad range"),
            (
                "caps --d 10 --s-grid a:b:c",
                "usage error: --s-grid must be three numbers start:stop:step, got 'a:b:c'",
            ),
            (
                "scan --construction lebesgue-ball --d-range 10:10:1 --p-list 1,x",
                "usage error: --p-list must be comma-separated numbers, got '1,x'",
            ),
            (
                "oracle --family lebesgue --d 3 --seed -5 --samples 2",
                "usage error: --seed must be a nonnegative integer, got -5",
            ),
            ("caps --d 1 --s 0.3", "error: cap area formulas need integer dim >= 2"),
            ("certify --construction lebesgue-ball --d 5 --p 1 --config", "usage error: --config"),
            (
                "certify --construction lebesgue-ball --d 10 --p nan",
                "usage error: p must lie in [1, inf), got nan",
            ),
            (
                "certify --construction lebesgue-ball --d 10 --p inf",
                "usage error: p must lie in [1, inf), got inf",
            ),
            (
                "scan --construction lebesgue-ball --d-range 10:10:1 --p-list 1,nan",
                "usage error: need every d >= 1 and every p in [1, inf)",
            ),
            ("certify --family lebesgue --d 3 --p 1 --R inf", "R must lie in (0, inf), got inf"),
            (
                "oracle --family lebesgue --d 3 --grid 1025",
                "usage error: --grid must be at most 1024, got 1025",
            ),
            # the linear-scale masses of B(0, 1e150) overflow: a NaN ratio
            # would print invalid JSON and pass as sound
            (
                "oracle --family lebesgue --d 3 --R 1e150 --samples 2",
                "error: degenerate configuration: a mass term is zero or overflows in linear scale",
            ),
            (
                "oracle --family lebesgue --d 2 --p nan --samples 2",
                "usage error: p must lie in [1, inf), got nan",
            ),
            (
                "certify --construction doubling --t 0.99 --c 1.2 --d 50 --p 2 "
                "--p0-budget nan",
                "p0_budget must lie in [p, inf) = [2.0, inf), got nan",
            ),
            (
                "certify --family piecewise --segments 1:1:nan --d 3 --p 1",
                "segment exponents must lie in [0, inf), got nan",
            ),
            (
                "certify --family piecewise --segments 1:1,2:1:inf --d 3 --p 1 --R 1.5",
                "segment exponents must lie in [0, inf), got inf",
            ),
            # argvs that name no subcommand get the parser of all five
            ("", "usage error: the following arguments are required: command"),
            (
                "bogus",
                "usage error: argument command: invalid choice: 'bogus' (choose from "
                "'certify', 'scan', 'oracle', 'caps', 'critical-p')",
            ),
            ("-x", "usage error: the following arguments are required: command"),
            (
                "certify --construction nope",
                "usage error: argument --construction: invalid choice: 'nope' (choose from "
                "'lemma', 'decp', 'decp-generalized', 'doubling', 'lebesgue-ball')",
            ),
        ],
    )
    def test_exits_one_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and message in err


def test_huge_r_is_rejected_before_any_quadrature(capsys):
    # H^2 overflows at R = 1e300; the quadrature would warn of an invalid
    # subtraction first, and the check of H would blame H
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *"certify --family lebesgue --d 3 --p 1.1 --R 1e300".split())
    assert code == 1
    assert out == ""
    assert err == "error: R = 1e+300 is too large: H^2 = R^2 (1 + v^2) overflows\n"


def test_overflowing_oracle_fails_before_the_sweep(capsys, monkeypatch):
    # the log terms show that the linear masses of B(0, 1e150) overflow, so
    # neither the sweep nor QUADPACK (which would warn first) runs
    def unreachable(*args):
        raise AssertionError("reached after the overflow was known")

    monkeypatch.setattr(oracle, "maximal_sweep", unreachable)
    monkeypatch.setattr(oracle, "_mass_origin_quad", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(capsys, *"oracle --family lebesgue --d 3 --R 1e150 --samples 2".split())
    assert got == (
        1, "", "error: degenerate configuration: a mass term is zero or overflows in linear scale\n"
    )


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestPerSubcommandParser:
    @pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
    def test_subparser_help_matches_the_full_parser(self, name):
        alone = _subparsers(cli.build_parser(name))
        assert list(alone) == [name]
        assert alone[name].format_help() == _subparsers(cli.build_parser())[name].format_help()

    def test_main_builds_only_the_named_subparser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def spy(*args):
            parser = build(*args)
            built.append(list(_subparsers(parser)))
            return parser

        monkeypatch.setattr(cli, "build_parser", spy)
        run_cli(capsys, "critical-p")
        run_cli(capsys, "caps", "--d", "10", "--s", "0.5")
        run_cli(capsys, "bogus")
        run_cli(capsys)
        assert built == [["critical-p"], ["caps"], list(cli.SUBCOMMANDS), list(cli.SUBCOMMANDS)]


class TestConfigAndOutput:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = restricted-lebesgue\nd = 5\np = 1\n")
        code, out, _ = run_cli(
            capsys, "certify", "--config", str(cfg), "--construction", "lebesgue-ball"
        )
        assert code == 0
        assert json.loads(out)["d"] == 5

    def test_config_tol_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-8\n")
        code, out, err = run_cli(
            capsys, "certify", "--config", str(cfg), "--construction", "lebesgue-ball",
            "--d", "5", "--p", "1",
        )
        assert code == 1
        assert out == ""
        assert err == "usage error: unrecognized arguments: --tol 1e-8\n"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = restricted-lebesgue\nd = 5\np = 1\n")
        code, out, _ = run_cli(
            capsys, "certify", "--config", str(cfg), "--d", "7",
            "--construction", "lebesgue-ball",
        )
        assert code == 0
        assert json.loads(out)["d"] == 7

    def test_output_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HLMAX_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "critical-p", "--base", "decp", "--output", "roots.json"
        )
        assert code == 0
        assert out == ""
        data = json.loads((tmp_path / "roots.json").read_text())
        assert data["base"] == "decp"
