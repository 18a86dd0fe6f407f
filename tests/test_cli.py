import json
import logging
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import bmadmm.cli as cli_module
from bmadmm import EigenEstimateError, SparseSymMatrix, write_problem
from bmadmm.cli import build_parser, main, run

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SUMMARY_KEYS = {
    "problem",
    "alg",
    "n",
    "r",
    "rho",
    "mu",
    "final_objective",
    "gap",
    "certified",
    "iterations",
    "seconds",
    "seed",
}


def triangle_path():
    return os.path.join(DATA, "triangle.txt")


def solve_args(*flags, input=None):
    """Parsed ``solve`` arguments, on the triangle unless ``input`` is given."""
    return build_parser().parse_args(["solve", "--input", input or triangle_path(), *flags])


class TestSolveCommand:
    def test_converged_run_writes_outputs(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "solve",
                "--input",
                triangle_path(),
                "--alg",
                "admm",
                "--seed",
                "7",
                "--summary",
                str(summary_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert SUMMARY_KEYS <= set(summary)
        assert summary["n"] == 3
        assert summary["final_objective"] == pytest.approx(-2.25, abs=1e-4)
        assert summary["certified"]
        header = trace_path.read_text().splitlines()[0]
        assert header == "k,objective,lagrangian,primal_res,step_tilde,step_sigma,min_gamma,seconds"
        # stdout carries the same summary for scripting
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["final_objective"] == summary["final_objective"]

    def test_unknown_algorithm_exit_3(self):
        assert run(solve_args("--alg", "newton")) == 3

    def test_missing_file_exit_3(self):
        assert run(solve_args(input="/nonexistent/g.txt")) == 3

    def test_eps_requires_admm2(self):
        assert run(solve_args("--alg", "admm", "--eps", "0.1")) == 3

    def test_mu_requires_prox(self):
        assert run(solve_args("--alg", "admm", "--mu", "1.0")) == 3

    def test_budget_seconds_rejected_for_rgd(self):
        assert run(solve_args("--alg", "rgd", "--budget-seconds", "5")) == 3

    def test_zero_block_size_exit_3(self, tmp_path):
        path = tmp_path / "d0.bin"
        write_problem(path, SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]), d=0)
        assert main(["solve", "--input", str(path)]) == 3

    def test_certificate_failure_exit_3(self, tmp_path, caplog):
        error = EigenEstimateError("budget exhausted", estimate=-1e-8, residual=1e-3, iterations=9)
        trace_path = tmp_path / "trace.csv"
        config = solve_args("--trace", str(trace_path))
        with mock.patch.object(cli_module, "dual_certificate", side_effect=error):
            with caplog.at_level(logging.ERROR, logger="bmadmm"):
                assert run(config) == 3
        assert any("budget exhausted" in rec.message for rec in caplog.records)
        # the solve's trace is written before the certificate is attempted
        assert trace_path.read_text().startswith("k,objective")

    @pytest.mark.parametrize("flag", ["--summary", "--trace"])
    def test_unwritable_output_exit_3(self, tmp_path, flag):
        out = str(tmp_path / "missing" / "out")
        assert main(["solve", "--input", triangle_path(), flag, out]) == 3

    def test_budget_exhaustion_exit_2(self):
        config = solve_args("--max-iter", "2", input=os.path.join(DATA, "k10.txt"))
        assert run(config) == 2

    def test_admm2_on_triangle(self, tmp_path):
        code = main(
            [
                "solve",
                "--input",
                triangle_path(),
                "--alg",
                "admm2",
                "--eps",
                "1e-4",
                "--seed",
                "3",
                "--summary",
                str(tmp_path / "s.json"),
                "--trace",
                str(tmp_path / "t.csv"),
                "--trace-jsonl",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["final_objective"] == pytest.approx(-2.25, abs=1e-3)
        # the JSON-lines trace holds the CSV's rows: same columns in the same
        # order and equal values, NaN as null and the counters as ints
        header, *lines = (tmp_path / "t.csv").read_text().splitlines()
        rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert len(rows) == len(lines) > 0
        columns = header.split(",")
        assert "lambda_H" in columns
        saw_null = False
        for line, row in zip(lines, rows):
            assert list(row) == columns
            for name, cell in zip(columns, line.split(",")):
                value = row[name]
                if name in ("k", "probe_performed", "escaped"):
                    assert type(value) is int and value == int(cell)
                elif cell == "nan":
                    assert value is None
                    saw_null = True
                else:
                    assert value == float(cell)
        assert saw_null

    def test_admm2_at_rank_one_is_eps_convex(self, tmp_path):
        # the tangent space at r = 1 is {0}, so the probe's random start is 0
        code = main(
            [
                "solve",
                "--input",
                os.path.join(DATA, "k10.txt"),
                "--alg",
                "admm2",
                "--r",
                "1",
                "--summary",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        assert json.loads((tmp_path / "s.json").read_text())["status"] == "eps_convex"

    @pytest.mark.parametrize("alg", ["admm", "admm2"])
    def test_rank_one_warns_on_stderr(self, alg):
        # eps_convex holds trivially at r = 1, so the run says so
        completed = subprocess.run(
            [sys.executable, "-m", "bmadmm.cli", "solve", "--input",
             os.path.join(DATA, "k10.txt"), "--alg", alg, "--r", "1"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "WARNING bmadmm: --r 1: the tangent space of the sphere is {0}" in completed.stderr
        assert json.loads(completed.stdout.strip().splitlines()[-1])["r"] == 1

    def test_rgd_baseline(self, tmp_path):
        code = main(
            [
                "solve",
                "--input",
                triangle_path(),
                "--alg",
                "rgd",
                "--summary",
                str(tmp_path / "s.json"),
                "--trace",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["final_objective"] == pytest.approx(-2.25, abs=1e-3)
        # one row per accepted step, the last one counting them all
        ks = [int(line.split(",")[0]) for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        assert summary["iterations"] == ks[-1] > 0
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_rgd_summary_has_no_penalty(self, capsys):
        config = solve_args("--alg", "rgd", input=os.path.join(DATA, "k10.txt"))
        assert run(config) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["alg"] == "rgd"
        assert summary["rho"] is None

    def test_oracle_reference_gap(self, tmp_path):
        config = solve_args("--summary", str(tmp_path / "s.json"), "--oracle", "--seed", "1")
        assert run(config) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["relative_gap"] <= 1e-4

    def test_explicit_rho_recorded(self, tmp_path):
        config = solve_args("--rho", "2.5", "--summary", str(tmp_path / "s.json"))
        assert run(config) == 0
        assert json.loads((tmp_path / "s.json").read_text())["rho"] == 2.5


class TestGenSo3Command:
    def test_generate_then_solve(self, tmp_path, caplog):
        out = tmp_path / "prob.bin"
        code = main(["gen-so3", "--q", "8", "--s", "0.4", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        summary_path = tmp_path / "s.json"
        code = main(
            [
                "solve",
                "--input",
                str(out),
                "--alg",
                "prox-admm",
                "--seed",
                "2",
                "--summary",
                str(summary_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["n"] == 24
        assert summary["mu"] > 0
        assert summary["certified"]
        # the default mu satisfies the proximal descent condition
        assert not any("not guaranteed" in rec.message for rec in caplog.records)

    def test_prox_condition_warning_logged(self, tmp_path, caplog):
        out = tmp_path / "prob.bin"
        main(["gen-so3", "--q", "6", "--s", "0.5", "--seed", "3", "--out", str(out)])
        config = solve_args(
            "--alg", "prox-admm", "--mu", "1e-9", "--max-iter", "500", input=str(out)
        )
        with caplog.at_level(logging.WARNING, logger="bmadmm"):
            run(config)
        assert any("not guaranteed" in rec.message for rec in caplog.records)


class TestConfigurationErrors:
    @pytest.mark.parametrize(
        "flags, fault",
        [
            (("--rho", "nan"), "rho"),
            (("--rho", "inf"), "rho"),
            (("--alg", "prox-admm", "--mu", "nan"), "mu"),
            (("--alg", "prox-admm", "--mu", "inf"), "mu"),
            (("--tol-primal", "nan"), "tolerances"),
            (("--budget-seconds", "-1"), "time_budget"),
            (("--budget-seconds", "nan"), "time_budget"),
            (("--alg", "admm2", "--eps", "nan"), "eps"),
            (("--alg", "rgd", "--max-iter", "0"), "max_iter"),
            (("--alg", "rgd", "--rho", "nan"), "--rho"),
            (("--alg", "rgd", "--rho-mode", "theory"), "--rho-mode"),
            (("--alg", "rgd", "--tol-obj", "nan"), "--tol-obj"),
            (("--alg", "rgd", "--check-invariants"), "--check-invariants"),
        ],
    )
    def test_bad_flag_value_exits_3_naming_the_fault(self, flags, fault, caplog):
        with caplog.at_level(logging.ERROR, logger="bmadmm"):
            code = main(["solve", "--input", os.path.join(DATA, "k10.txt"), *flags])
        assert code == 3
        assert any(fault in rec.message for rec in caplog.records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "--input", "g.txt", "--rho-mode", "bogus"],
            ["solve", "--input", "g.txt", "--max-iter", "abc"],
        ],
        ids=["no-input", "bad-rho-mode", "bad-max-iter"],
    )
    def test_usage_error_exits_3(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--help"])
        assert info.value.code == 0
        assert "--input" in capsys.readouterr().out


class TestDeterminism:
    def test_trace_csv_identical_apart_from_wall_clock(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            trace_path = tmp_path / f"{tag}.csv"
            code = main(
                [
                    "solve",
                    "--input",
                    os.path.join(DATA, "k10.txt"),
                    "--seed",
                    "5",
                    "--trace",
                    str(trace_path),
                ]
            )
            assert code == 0
            paths.append(trace_path)

        def strip_seconds(path):
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            keep = [i for i, name in enumerate(header) if name != "seconds"]
            return ["," .join(np.array(line.split(","))[keep]) for line in lines]

        assert strip_seconds(paths[0]) == strip_seconds(paths[1])
