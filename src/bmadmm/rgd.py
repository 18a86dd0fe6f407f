"""Projected Riemannian gradient descent baseline with Armijo backtracking.

Works uniformly on sphere and block products: the descent direction is the
tangent projection of -2 C s and the retraction is the blockwise nearest
point on the manifold.  Traces share the CSV schema of the splitting solver
with the ``lagrangian`` column equal to the objective, ``primal_res``
holding the gradient norm at the row's iterate and ``min_gamma`` unused
(NaN).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .manifold import block_tangent, project, sphere_tangent, start_point, tangent_project
from .solver import Status, drive, manifold_state, require_finite, require_integer
from .sparse import spmm, two_norm_estimate

# Armijo line search: each iteration tries the step 1 / ||C||_2 first and
# multiplies it by BACKTRACK after every trial that misses the decrease
# SUFFICIENT_DECREASE * t * ||grad||^2, for at most MAX_TRIALS trials.
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_TRIALS = 60
# Accepted steps in a row that leave the objective bit-for-bit unchanged
# before the run ends STALLED: the Armijo test passes wherever its
# decrease rounds away, so at the rounding floor steps stop moving the
# objective and a run could grind on to max_iter.  Over run seeds 1-119
# of perfbench's rgd_baseline (238 runs), the longest such streak in a
# run that did not reach the floor was 46; runs caught there had streaks
# above 1,000.
FLOOR_STEPS = 200


@dataclass
class RgdOptions:
    """Iteration cap (an integer >= 1), gradient tolerance (finite and
    > 0) and start seed (an integer >= 0) of ``rgd_solve``; any other
    value raises ValueError naming the field.  The line-search constants
    are the module constants BACKTRACK, SUFFICIENT_DECREASE and
    MAX_TRIALS."""

    max_iter: int = 20_000
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        require_integer("max_iter", self.max_iter, 1)
        require_integer("seed", self.seed, 0)
        require_finite("grad_tol", self.grad_tol)


def _line_search(C, spec, sigma, value, grad, grad_sq, t):
    """Armijo backtracking from step t.  Returns (candidate, C candidate)
    for the first step that passes the sufficient-decrease test, or None
    after ``MAX_TRIALS`` trials."""
    for _ in range(MAX_TRIALS):
        candidate = project(spec, sigma - t * grad)
        cost_candidate = spmm(C, candidate)
        cand_value = float(np.vdot(cost_candidate, candidate))
        if cand_value <= value - SUFFICIENT_DECREASE * t * grad_sq:
            return candidate, cost_candidate
        t *= BACKTRACK
    return None


def rgd_solve(problem, options=None, sigma0=None):
    """Iterate until ||grad||_F <= grad_tol * (1 + ||C||_2) or the budget
    runs out.  Returns a SolveResult whose state carries the factor in both
    sigma_tilde and sigma, C s in ``y``, the gradient norm
    in ``primal_res`` and the number of accepted steps in k.  The status is
    STALLED when none of the ``MAX_TRIALS`` steps of the geometric
    schedule passed the sufficient-decrease test, or at the rounding
    floor: when ``FLOOR_STEPS`` accepted steps in a row left the
    objective unchanged, at the last of them.

    The accepted candidate's product C s carries over to the next
    iteration, so an iteration costs one sparse product per line-search
    trial and none besides.

    A warm start ``sigma0`` is checked as ``solve`` checks it: it must
    have the problem's shape (n, r) and lie on the manifold to 1e-8, or
    the call raises DimensionMismatch or OffManifold.
    """
    options = options if options is not None else RgdOptions()
    C = problem.cost
    spec = problem.manifold
    norm_two = two_norm_estimate(C)
    step0 = 1.0 / max(norm_two, np.finfo(float).tiny)
    tol = options.grad_tol * (1.0 + norm_two)
    sigma = start_point(spec, options.seed, sigma0)
    Cs = spmm(C, sigma)
    grad = tangent_project(spec, sigma, 2.0 * Cs)
    # the loop's iterates come from project: skip tangent_project's re-check
    tangent = sphere_tangent if spec.d == 1 else partial(block_tangent, d=spec.d)
    state = manifold_state(
        sigma,
        Cs,
        problem=problem,
        rho=max(norm_two, np.finfo(float).tiny),
        mu=0.0,
        primal_res=float(np.linalg.norm(grad)),
    )
    flat = 0  # accepted steps in a row that left the objective unchanged

    def advance(state):
        nonlocal grad, flat
        if state.primal_res <= tol:
            return state, None, Status.CONVERGED
        accepted = _line_search(
            C,
            spec,
            state.sigma_tilde,
            state.last_objective,
            grad,
            state.primal_res**2,
            step0,
        )
        if accepted is None:
            return state, None, Status.STALLED
        sigma, Cs = accepted
        grad = tangent(sigma, 2.0 * Cs)
        new = manifold_state(sigma, Cs, state, primal_res=float(np.linalg.norm(grad)))
        flat = flat + 1 if new.last_objective == state.last_objective else 0
        return new, {}, Status.STALLED if flat >= FLOOR_STEPS else None

    return drive(state, advance, options.max_iter)
