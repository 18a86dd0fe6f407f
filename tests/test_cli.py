import json
import logging
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import bmadmm.cli as cli_module
from bmadmm import native
from bmadmm import (
    EigenEstimateError,
    SparseSymMatrix,
    dual_certificate,
    serialize_gset,
    write_problem,
)
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
    "polar_kernel",
    "step_kernel",
    "spmm_kernel",
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
        # one step of the gradient baseline: its state is not due for a
        # slack test, so the run carries no certificate and the summary's
        # comes from dual_certificate
        error = EigenEstimateError("budget exhausted", estimate=-1e-8, residual=1e-3, iterations=9)
        trace_path = tmp_path / "trace.csv"
        config = solve_args("--alg", "rgd", "--max-iter", "1", "--trace", str(trace_path))
        with mock.patch.object(cli_module, "dual_certificate", side_effect=error):
            with caplog.at_level(logging.ERROR, logger="bmadmm"):
                assert run(config) == 3
        assert any("budget exhausted" in rec.message for rec in caplog.records)
        # the solve's trace is written before the certificate is attempted
        assert trace_path.read_text().startswith("k,objective")

    def test_certified_run_reports_the_certificate_it_carries(self, tmp_path, capsys):
        # the certificate that stopped the solve is the summary's: no
        # second eigen-solve, and the numbers of dual_certificate.  The
        # admm2 run meets its residual stop at k = 14, where the stop's
        # slack test ends it eps_convex; the rgd run stops on the slack
        # test as the admm run does
        from test_solver import g1_density_graph

        graph = tmp_path / "g30.txt"
        graph.write_text(serialize_gset(g1_density_graph(30, 6)))
        loose = ("--eps", "1e-2", "--tol-primal", "1e-2", "--tol-obj", "1e-2", "--seed", "6")
        for path, flags, status in (
            (os.path.join(DATA, "k10.txt"), (), "certified"),
            (os.path.join(DATA, "k10.txt"), ("--alg", "rgd"), "certified"),
            (str(graph), ("--alg", "admm2", *loose), "eps_convex"),
        ):
            with mock.patch.object(
                cli_module, "_report", wraps=cli_module._report
            ) as report, mock.patch.object(
                cli_module, "dual_certificate", wraps=dual_certificate
            ) as spy:
                assert run(solve_args(*flags, input=path)) == 0
            assert spy.call_count == 0
            summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert summary["status"] == status
            result = report.call_args.args[3]
            cert = dual_certificate(result.state.problem.cost, result.state.sigma_tilde)
            keys = ("gap", "certified", "slack_min_eig", "certified_lower_bound")
            assert [summary[key] for key in keys] == [
                cert.duality_gap,
                cert.certified,
                cert.slack_min_eig,
                cert.lower_bound(),
            ]

    def test_input_too_large_to_allocate_exit_3(self, tmp_path, caplog):
        # the cost's first array (728 TiB) exceeds the 47-bit address space,
        # so the allocation fails at once instead of being granted lazily
        path = tmp_path / "big.txt"
        path.write_text("100000000000000 0\n")
        with caplog.at_level(logging.ERROR, logger="bmadmm"):
            assert main(["solve", "--input", str(path)]) == 3
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("Unable to allocate 728. TiB")

    @pytest.mark.parametrize("flag", ["--summary", "--trace"])
    def test_unwritable_output_exit_3(self, tmp_path, flag):
        out = str(tmp_path / "missing" / "out")
        assert main(["solve", "--input", triangle_path(), flag, out]) == 3

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_outputs_take_the_mode_that_the_umask_gives(self, tmp_path, capsys, umask, mode):
        # the mode open gives a new file, 0o666 less the umask, and no
        # temp file left behind
        paths = [tmp_path / name for name in ("p.bin", "s.json", "t.csv", "t.jsonl")]
        previous = os.umask(umask)
        try:
            assert main(["gen-so3", "--q", "4", "--s", "0.5", "--out", str(paths[0])]) == 0
            flags = ("--summary", "--trace", "--trace-jsonl")
            outputs = [str(part) for pair in zip(flags, paths[1:]) for part in pair]
            assert main(["solve", "--input", str(paths[0]), "--alg", "prox-admm", *outputs]) == 0
        finally:
            os.umask(previous)
        assert [path.stat().st_mode & 0o777 for path in paths] == [mode] * 4
        assert sorted(tmp_path.iterdir()) == sorted(paths)

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

    def test_certified_stop_exits_0(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        code = main(["solve", "--input", triangle_path(), "--summary", str(summary_path)])
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["status"] == "certified"
        assert summary["certified"]

    def test_constant_block_objective_exits_0(self, tmp_path):
        # every feasible point of I_9 over 3 x 3 blocks is optimal; the
        # start state certifies, where the residual stop never came
        path = tmp_path / "eye9.bin"
        write_problem(path, SparseSymMatrix.identity(9), d=3)
        summary_path = tmp_path / "summary.json"
        code = main(
            ["solve", "--input", str(path), "--alg", "admm", "--max-iter", "2000",
             "--summary", str(summary_path)]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert (summary["status"], summary["iterations"]) == ("certified", 0)
        assert summary["certified"]

    def test_edge_free_graph_exits_0(self, tmp_path, capsys):
        # no edges: the zero cost, which the default penalty certifies
        path = tmp_path / "empty.txt"
        path.write_text("5 0\n")
        assert run(solve_args(input=str(path))) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["status"], summary["iterations"], summary["rho"]) == ("certified", 0, 1.0)

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

    @pytest.mark.parametrize("alg", ["admm", "admm2", "prox-admm", "rgd"])
    def test_summary_names_the_step_kernel(self, alg, capsys, monkeypatch):
        # "c" only where the compiled row work ran the iterations
        config = solve_args("--alg", alg, input=os.path.join(DATA, "k10.txt"))
        named = []
        for loaded in (True, False):
            if not loaded:
                monkeypatch.setattr(native, "kernel", lambda name: None)
            assert run(config) == 0
            named.append(json.loads(capsys.readouterr().out)["step_kernel"])
        if named[0] == "numpy":
            pytest.skip("the C step kernel is unavailable")
        assert named == ["c", "numpy"]

    def test_summary_names_the_sparse_product(self, tmp_path, capsys, monkeypatch):
        # a 40-cycle's cost is below DENSE_FILL, k10's keeps a dense copy
        cycle = tmp_path / "cycle40.txt"
        cycle.write_text("40 40\n" + "".join(f"{i} {i % 40 + 1} 1\n" for i in range(1, 41)))
        assert run(solve_args(input=os.path.join(DATA, "k10.txt"))) == 0
        assert json.loads(capsys.readouterr().out)["spmm_kernel"] == "dense"
        named = []
        for loaded in (True, False):
            if not loaded:
                monkeypatch.setattr(native, "kernel", lambda name: None)
            assert run(solve_args(input=str(cycle))) == 0
            named.append(json.loads(capsys.readouterr().out)["spmm_kernel"])
        if named[0] == "scipy":
            pytest.skip("the C spmm kernel is unavailable")
        assert named == ["c", "scipy"]

    def test_rgd_on_blocks_names_the_numpy_step(self, tmp_path, capsys, loaded):
        # rgd's compiled row work serves d = 1 only: an SO(3) problem runs
        # the numpy form even with the library loaded
        loaded("step")
        out = tmp_path / "prob.bin"
        main(["gen-so3", "--q", "6", "--s", "0.5", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert run(solve_args("--alg", "rgd", input=str(out))) == 0
        assert json.loads(capsys.readouterr().out)["step_kernel"] == "numpy"


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

    def test_admm2_on_a_block_problem_exits_3(self, tmp_path, caplog):
        # solve_with_curvature refuses d = 3 before its first iteration
        out = tmp_path / "prob.bin"
        assert main(["gen-so3", "--q", "4", "--s", "0.5", "--out", str(out)]) == 0
        with caplog.at_level(logging.ERROR, logger="bmadmm"):
            assert main(["solve", "--input", str(out), "--alg", "admm2"]) == 3
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert "d = 1" in messages[0]

    def test_too_many_blocks_to_allocate_exit_3(self, tmp_path, caplog):
        # the block-pair grid (8.88 PiB) exceeds the 47-bit address space
        out = tmp_path / "big.bin"
        with caplog.at_level(logging.ERROR, logger="bmadmm"):
            assert main(["gen-so3", "--q", "100000000", "--s", "0", "--out", str(out)]) == 3
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("Unable to allocate 8.88 PiB")
        assert not out.exists()

    def test_zero_density_solves_and_exits_0(self, tmp_path, capsys, caplog):
        out = tmp_path / "zero.bin"
        assert main(["gen-so3", "--q", "4", "--s", "0", "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="bmadmm"):
            assert run(solve_args("--alg", "prox-admm", input=str(out))) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["status"], summary["rho"], summary["mu"]) == ("certified", 1.0, 0.0)
        assert summary["certified"]
        assert not caplog.records

    def test_prox_condition_warning_logged(self, tmp_path, caplog):
        out = tmp_path / "prob.bin"
        main(["gen-so3", "--q", "6", "--s", "0.5", "--seed", "3", "--out", str(out)])
        config = solve_args(
            "--alg", "prox-admm", "--mu", "1e-9", "--max-iter", "500", input=str(out)
        )
        with caplog.at_level(logging.WARNING, logger="bmadmm"):
            run(config)
        assert any("not guaranteed" in rec.message for rec in caplog.records)

    def test_explicit_zero_mu_runs_at_zero(self, tmp_path, capsys):
        # only an absent --mu takes default_mu: --mu 0 is the plain method
        out = tmp_path / "prob.bin"
        main(["gen-so3", "--q", "6", "--s", "0.5", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        summaries = {}
        for alg, flags in (("prox-admm", ("--mu", "0")), ("admm", ())):
            assert run(solve_args("--alg", alg, *flags, input=str(out))) == 0
            summaries[alg] = json.loads(capsys.readouterr().out)
            del summaries[alg]["alg"], summaries[alg]["seconds"]
        assert summaries["prox-admm"]["mu"] == 0.0
        assert summaries["prox-admm"] == summaries["admm"]

    def test_summary_names_the_polar_kernel(self, tmp_path, capsys, monkeypatch):
        # "c" only where the compiled kernel took the d = 3 projections
        out = tmp_path / "prob.bin"
        main(["gen-so3", "--q", "6", "--s", "0.5", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        summaries = []
        for loaded in (True, False):
            if not loaded:
                monkeypatch.setattr(native, "kernel", lambda name: None)
            assert run(solve_args("--alg", "prox-admm", input=str(out))) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        if summaries[0]["polar_kernel"] == "numpy":
            pytest.skip("the C polar kernel is unavailable")
        assert [s["polar_kernel"] for s in summaries] == ["c", "numpy"]
        # a d = 1 problem reports null, without loading the d = 3 kernel
        def refuse_polar3(name):
            assert name != "polar3", "the d = 3 kernel was loaded"

        monkeypatch.setattr(native, "kernel", refuse_polar3)
        assert run(solve_args()) == 0
        assert json.loads(capsys.readouterr().out)["polar_kernel"] is None


class TestConfigurationErrors:
    @pytest.mark.parametrize(
        "flags, fault",
        [
            (("--rho", "nan"), "rho"),
            (("--rho", "inf"), "rho"),
            (("--alg", "prox-admm", "--rho", "0"), "rho"),
            (("--alg", "prox-admm", "--mu", "nan"), "mu"),
            (("--alg", "prox-admm", "--mu", "inf"), "mu"),
            (("--tol-primal", "nan"), "tol_primal"),
            (("--tol-obj", "inf"), "tol_obj"),
            (("--alg", "rgd", "--tol-primal", "inf"), "grad_tol"),
            (("--budget-seconds", "-1"), "time_budget"),
            (("--budget-seconds", "nan"), "time_budget"),
            (("--budget-seconds", "inf"), "time_budget"),
            (("--alg", "admm2", "--eps", "nan"), "eps"),
            (("--alg", "admm2", "--eps", "inf"), "eps"),
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

    def test_oracle_beyond_its_limit_exits_3_before_the_solve(self, tmp_path, caplog):
        # a path on 501 vertices, one more than oracle_sdp accepts
        path = tmp_path / "path501.txt"
        path.write_text("501 500\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, 501)))
        with mock.patch.object(cli_module, "solve") as solved, caplog.at_level(
            logging.ERROR, logger="bmadmm"
        ):
            code = main(["solve", "--input", str(path), "--oracle", "--max-iter", "50"])
        assert code == 3
        assert not solved.called
        assert any("--oracle" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "--input", "g.txt", "--rho-mode", "bogus"],
            ["solve", "--input", "g.txt", "--max-iter", "abc"],
            ["solve", "--input", "g.txt", "--rho", "3", "--rho-mode", "theory"],
        ],
        ids=["no-input", "bad-rho-mode", "bad-max-iter", "rho-and-rho-mode"],
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
