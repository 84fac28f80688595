import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import hlmax
import hlmax.certificate as certificate
import hlmax.cli as cli
from hlmax.certificate import critical_p, decp_explicit_constant
from hlmax.cli import main
from hlmax.errors import NumericalError, QuadraturePrecisionError


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate costs about 0.65 s of start-up; only the oracle's
    # QUADPACK functions need it, and they import it themselves
    src = os.path.dirname(os.path.dirname(os.path.abspath(hlmax.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, hlmax.cli; sys.exit(int('scipy.integrate' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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
        assert rec["hypothesis"]["note"] == "verified on grid"
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

    def test_hypothesis_violation_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "certify",
            "--family", "lebesgue",
            "--d", "10",
            "--p", "1",
            "--construction", "decp",
        )
        assert code == 2
        assert "hypothesis" in err

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


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("certify --family lebesgue --t 0.5 --d 3 --p 1", "takes no exponent"),
            ("certify --family lebesgue --segments 1:1 --d 3 --p 1", "takes no segments"),
            ("certify --family power --d 10 --p 1", "got t=None"),
            ("certify --family piecewise --d 10 --p 1", "needs at least one segment"),
            ("oracle --family power --d 3", "got t=None"),
            ("certify --family log-singularity --d 5 --p 1 --tol 0", "usage error: --tol"),
            ("caps --d 10 --s 0.5 --tol 0.1", "usage error: unrecognized"),
            ("certify --construction lebesgue-ball --d 5 --p 1 --config", "usage error: --config"),
        ],
    )
    def test_exits_one_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and message in err


class TestConfigAndOutput:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = restricted-lebesgue\nd = 5\np = 1\n")
        code, out, _ = run_cli(
            capsys, "certify", "--config", str(cfg), "--construction", "lebesgue-ball"
        )
        assert code == 0
        assert json.loads(out)["d"] == 5

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
