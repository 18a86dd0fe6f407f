"""Projected Riemannian gradient descent baseline with Armijo backtracking.

Works uniformly on sphere and block products: the descent direction is the
tangent projection of -2 C s and the retraction is the blockwise nearest
point on the manifold.  Traces share the CSV schema of the splitting solver
with the ``lagrangian`` column equal to the objective, ``primal_res``
holding the gradient norm and ``min_gamma`` unused (NaN).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .manifold import project, random_point, tangent_project
from .solver import SolveResult, Status
from .sparse import spmm, two_norm_estimate
from .trace import BASE_COLUMNS, Trace, TraceRecord


@dataclass
class RgdOptions:
    """Backtracking line-search constants; initial_step defaults to
    1 / ||C||_2 when left unset."""

    initial_step: float | None = None
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    max_iter: int = 20_000
    grad_tol: float = 1e-8
    seed: int = 0
    trace_every: int = 1
    max_halvings: int = 60

    def __post_init__(self):
        if self.initial_step is not None and self.initial_step <= 0:
            raise ValueError("initial_step must be > 0")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtracking factor must be in (0, 1)")
        if self.sufficient_decrease <= 0 or self.grad_tol <= 0:
            raise ValueError("constants must be > 0")


def _value_and_grad(C, spec, sigma):
    Cs = spmm(C, sigma)
    return Cs, float(np.vdot(Cs, sigma)), tangent_project(spec, sigma, 2.0 * Cs)


def _line_search(C, spec, sigma, value, grad, grad_sq, t, options):
    """Armijo backtracking from step t.  Returns (candidate, C candidate,
    candidate value) for the first step that passes the sufficient-decrease
    test, or None after ``max_halvings`` halvings."""
    for _ in range(options.max_halvings):
        candidate = project(spec, sigma - t * grad)
        cost_candidate = spmm(C, candidate)
        cand_value = float(np.vdot(cost_candidate, candidate))
        if cand_value <= value - options.sufficient_decrease * t * grad_sq:
            return candidate, cost_candidate, cand_value
        t *= options.backtrack
    return None


def rgd_step(C, spec, sigma, options, step0=None):
    """One Armijo-backtracked descent step.

    Returns (sigma_new, stalled): ``stalled`` is True when no step of the
    geometric schedule passed the sufficient-decrease test after
    ``max_halvings`` halvings, in which case sigma is returned unchanged.
    The accepted step never increases the objective.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    _, value, grad = _value_and_grad(C, spec, sigma)
    grad_sq = float(np.vdot(grad, grad))
    if grad_sq == 0.0:
        return sigma, False
    if step0 is None:
        norm_two = two_norm_estimate(C, seed=options.seed)
        step0 = options.initial_step or 1.0 / max(norm_two, np.finfo(float).tiny)
    accepted = _line_search(C, spec, sigma, value, grad, grad_sq, step0, options)
    if accepted is None:
        return sigma, True
    return accepted[0], False


def rgd_solve(problem, options=None, sigma0=None):
    """Iterate until ||grad||_F <= grad_tol * (1 + ||C||_2) or the budget
    runs out.  Returns a SolveResult whose state carries the final factor
    in both sigma_tilde and sigma.

    The accepted candidate's product C s and value carry over to the next
    iteration, so an iteration costs one sparse product per line-search
    trial and none besides.
    """
    options = options if options is not None else RgdOptions()
    C = problem.cost
    spec = problem.manifold
    norm_two = two_norm_estimate(C, seed=options.seed)
    step0 = options.initial_step or 1.0 / max(norm_two, np.finfo(float).tiny)
    sigma = (
        random_point(spec, options.seed)
        if sigma0 is None
        else np.array(sigma0, dtype=np.float64)
    )
    trace = Trace(BASE_COLUMNS)
    start = time.perf_counter()
    status = Status.MAX_ITER
    prev_sigma = sigma
    Cs, value, grad = _value_and_grad(C, spec, sigma)
    for k in range(1, options.max_iter + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= options.grad_tol * (1.0 + norm_two):
            status = Status.CONVERGED
            _rgd_record(trace, k - 1, value, grad_norm, sigma, prev_sigma, start)
            break
        grad_sq = grad_norm**2
        accepted = _line_search(C, spec, sigma, value, grad, grad_sq, step0, options)
        if accepted is None:
            status = Status.STALLED
            _rgd_record(trace, k - 1, value, grad_norm, sigma, prev_sigma, start)
            break
        prev_sigma = sigma
        sigma, Cs, value = accepted
        grad = tangent_project(spec, sigma, 2.0 * Cs)
        if k % options.trace_every == 0:
            _rgd_record(trace, k, value, grad_norm, sigma, prev_sigma, start)
    else:
        _rgd_record(trace, options.max_iter, value, float(np.linalg.norm(grad)), sigma, prev_sigma, start)
    state = _final_state(problem, sigma, Cs, value, norm_two)
    return SolveResult(state=state, trace=trace, status=status)


def _rgd_record(trace, k, value, grad_norm, sigma, prev_sigma, start):
    delta = float(np.linalg.norm(sigma - prev_sigma))
    trace.append(
        TraceRecord(
            k=k,
            objective=value,
            lagrangian=value,
            primal_res=grad_norm,
            step_tilde=delta,
            step_sigma=delta,
            min_gamma=math.nan,
            seconds=time.perf_counter() - start,
        )
    )


def _final_state(problem, sigma, Cs, value, norm_two):
    """State holding the final factor in both blocks, with y = C s and
    zero residual norms."""
    from .solver import SolverState
    from .sparse import inf_norm

    return SolverState(
        problem=problem,
        sigma_tilde=sigma,
        sigma=sigma.copy(),
        y=Cs.copy(),
        rho=max(norm_two, np.finfo(float).tiny),
        mu=0.0,
        k=0,
        norm_two=norm_two,
        norm_inf=inf_norm(problem.cost),
        last_G=value,
        last_objective=value,
        cost_sigma_tilde=Cs,
    )
