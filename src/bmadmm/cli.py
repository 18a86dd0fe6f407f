"""Command line front end.

Two subcommands:

    bmadmm solve   --input problem.{txt,bin} --alg {admm,admm2,prox-admm,rgd}
                   [--rho-mode {theory,practice} | --rho VALUE] [--mu MU]
                   [--eps EPS] [--r auto|R] [--seed N] [--check-invariants]
                   [--trace out.csv] [--trace-jsonl out.jsonl]
                   [--summary out.json] [--oracle] [--budget-seconds S]
    bmadmm gen-so3 --q Q --s S --seed N --out problem.bin

Exit codes: 0 when the run converged, certified its factor optimal or
certified an approximately convex point, 2 when an iteration or time
budget ran out or the run stalled (an ``admm2`` curvature test, or an
``rgd`` line search that found no decrease or reached the rounding
floor), 3 on configuration or I/O errors, including usage errors,
non-finite or out-of-range flag values (NaN or infinite ``--rho``,
``--mu``, ``--eps``, tolerances and ``--budget-seconds`` among them; the
logged line names the option field, ``grad_tol`` for ``rgd``'s
``--tol-primal``), a flag given to an algorithm it does not apply to
(see ``FLAG_ALGORITHMS``), an input too large to allocate, and a
certificate, oracle or output file that failed after the solve.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace

from .certify import dual_certificate, relative_gap
from .curvature import solve_with_curvature
from .errors import BmadmmError
from .manifold import ProblemSpec, polar_kernel
from .problems import (
    generate_so3,
    load_gset,
    maxcut_cost,
    read_problem,
    write_problem,
)
from .rgd import RgdOptions, rgd_solve, rgd_step_kernel
from .solver import ORACLE_MAX_N, SolverOptions, Status, default_mu, oracle_sdp, solve, step_kernel
from .sparse import spmm_kernel, two_norm_estimate
from .trace import atomic_write

logger = logging.getLogger("bmadmm")

ALGORITHMS = ("admm", "admm2", "prox-admm", "rgd")
ADMM_ALGORITHMS = ("admm", "admm2", "prox-admm")
# the algorithms that each algorithm-specific flag applies to, by argparse
# destination; a flag that was not given parses to None
FLAG_ALGORITHMS = {
    "rho": ADMM_ALGORITHMS,
    "rho_mode": ADMM_ALGORITHMS,
    "mu": ("prox-admm",),
    "eps": ("admm2",),
    "tol_obj": ADMM_ALGORITHMS,
    "check_invariants": ADMM_ALGORITHMS,
    "budget_seconds": ADMM_ALGORITHMS,
}


def _load_problem(config):
    path = config.input
    if path.endswith(".bin"):
        C, d = read_problem(path)
        name = path
    else:
        graph = load_gset(path)
        C = maxcut_cost(graph)
        d = 1
        name = graph.name or path
    r = None if config.r == "auto" else int(config.r)
    return ProblemSpec.stiefel(C, d, r), name


def _validate(config, problem):
    if config.alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.alg!r}; expected one of {ALGORITHMS}")
    for dest, algorithms in FLAG_ALGORITHMS.items():
        if getattr(config, dest) is not None and config.alg not in algorithms:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --alg {config.alg}")
    if config.oracle and problem.cost.n > ORACLE_MAX_N:
        raise ValueError(f"--oracle is limited to n <= {ORACLE_MAX_N}, got n = {problem.cost.n}")


def run(config):
    """Execute one solve configured by the parsed ``solve`` arguments;
    returns the process exit code.  A configuration, I/O or allocation
    error anywhere in the run exits 3 with one logged line, which says
    whether the solve failed or ran and how many iterations it took."""
    stage = ""  # the prefix of an error's line: how far the run got
    try:
        problem, name = _load_problem(config)
        _validate(config, problem)
        if problem.manifold.r == 1:
            logger.warning(
                "--r 1: the tangent space of the sphere is {0}, so a converged or "
                "eps_convex result proves nothing about its quality"
            )
        rho = config.rho if config.rho is not None else config.rho_mode or SolverOptions.rho
        stage = "solve failed: "
        started = time.perf_counter()
        if config.alg == "rgd":
            options = RgdOptions(
                max_iter=config.max_iter,
                grad_tol=config.tol_primal,
                seed=config.seed,
            )
            result = rgd_solve(problem, options)
        else:
            options = SolverOptions(
                rho=rho,
                mu=0.0 if config.mu is None else config.mu,
                max_iter=config.max_iter,
                tol_primal=config.tol_primal,
                tol_obj=config.tol_obj if config.tol_obj is not None else SolverOptions.tol_obj,
                seed=config.seed,
                check_invariants=bool(config.check_invariants),
                time_budget=config.budget_seconds,
            )
            if config.mu is None and config.alg == "prox-admm":
                # default_mu divides by rho, so it runs after SolverOptions checked rho
                options = replace(options, mu=default_mu(problem.cost, rho))
            if config.alg == "admm2":
                eps = config.eps if config.eps is not None else 1e-2
                result = solve_with_curvature(problem, options, eps=eps)
            else:
                result = solve(problem, options)
        seconds = time.perf_counter() - started
        stage = f"after {result.state.k} solver iterations: "
        return _report(config, problem, name, result, seconds)
    except (OSError, ValueError, MemoryError, BmadmmError) as exc:
        logger.error("%s%s", stage, exc)
        return 3


def _report(config, problem, name, result, seconds):
    """Write the traces, certify the final factor and emit the summary;
    returns the exit code of the solve's status.  The certificate is the
    one the final state carries where the solve computed it, else
    ``dual_certificate`` of the factor, which gives the same numbers.
    The traces go first, so they survive a certificate that raises."""
    if config.trace:
        result.trace.to_csv(config.trace)
    if config.trace_jsonl:
        result.trace.to_jsonl(config.trace_jsonl)
    certificate = result.state.certificate or dual_certificate(
        problem.cost, result.state.sigma_tilde, d=problem.manifold.d
    )
    summary = {
        "problem": name,
        "alg": config.alg,
        "n": problem.cost.n,
        "r": problem.manifold.r,
        # the gradient baseline has no penalty
        "rho": None if config.alg == "rgd" else result.state.rho,
        "mu": result.state.mu,
        "final_objective": result.state.last_objective,
        "gap": certificate.duality_gap,
        "certified": certificate.certified,
        "iterations": result.state.k,
        "seconds": seconds,
        "seed": config.seed,
        "status": result.status.value,
        "slack_min_eig": certificate.slack_min_eig,
        "certified_lower_bound": certificate.lower_bound(),
        "polar_kernel": polar_kernel(problem.manifold.d),
        "step_kernel": (
            rgd_step_kernel(problem.manifold) if config.alg == "rgd" else step_kernel()
        ),
        "spmm_kernel": spmm_kernel(problem.cost),
    }
    if config.oracle:
        oracle = oracle_sdp(problem.cost, d=problem.manifold.d, seed=config.seed)
        summary["oracle_value"] = oracle.value
        summary["oracle_certified"] = oracle.certificate.certified
        if oracle.value != 0.0:
            summary["relative_gap"] = relative_gap(
                problem.cost, result.state.sigma_tilde, oracle.value
            )
    if config.summary:
        atomic_write(config.summary, json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    if result.status in (Status.CONVERGED, Status.CERTIFIED, Status.EPS_CONVEX):
        return 0
    if result.status in (Status.MAX_ITER, Status.TIME_BUDGET, Status.STALLED):
        return 2
    return 3


def gen_so3_command(args):
    try:
        problem = generate_so3(args.q, args.s, args.seed)
        write_problem(args.out, problem.cost, d=problem.manifold.d)
        print(
            json.dumps(
                {
                    "out": args.out,
                    "n": problem.cost.n,
                    "nnz": problem.cost.nnz,
                    "d": problem.manifold.d,
                    "norm_two": two_norm_estimate(problem.cost),
                    "seed": args.seed,
                }
            )
        )
    except (OSError, ValueError, MemoryError, BmadmmError) as exc:
        logger.error("%s", exc)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3, that of every
    configuration error, instead of 2, which means a budget ran out.
    Subparsers inherit the class; --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="bmadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem from a file")
    ps.add_argument("--input", required=True, help="Gset edge list (.txt) or binary problem (.bin)")
    ps.add_argument("--alg", default="admm", help="admm | admm2 | prox-admm | rgd")
    ps.add_argument("--r", default="auto", help="factor rank, or 'auto'")
    penalty = ps.add_mutually_exclusive_group()
    penalty.add_argument("--rho-mode", choices=("theory", "practice"))
    penalty.add_argument("--rho", type=float, help="explicit penalty value")
    ps.add_argument("--mu", type=float, help="proximal weight (prox-admm)")
    ps.add_argument("--eps", type=float, help="curvature tolerance (admm2)")
    ps.add_argument("--tol-primal", type=float, default=1e-8)
    ps.add_argument("--tol-obj", type=float)
    ps.add_argument("--max-iter", type=int, default=100_000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--check-invariants", action="store_true", default=None)
    ps.add_argument("--trace", help="write the iterate trace as CSV")
    ps.add_argument("--trace-jsonl", help="write the trace as JSON lines")
    ps.add_argument("--summary", help="write the summary JSON")
    ps.add_argument("--budget-seconds", type=float)
    ps.add_argument("--oracle", action="store_true", help="also compute the reference oracle value")

    pg = sub.add_parser("gen-so3", help="generate a synthetic block-sparse problem")
    pg.add_argument("--q", type=int, required=True, help="number of 3x3 blocks")
    pg.add_argument("--s", type=float, required=True, help="block pair density in [0, 1]")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True, help="output .bin path")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "gen-so3":
        return gen_so3_command(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
