"""Projected Riemannian gradient descent baseline with Armijo backtracking
from Barzilai-Borwein trial steps.

Works uniformly on sphere and block products: the descent direction is the
tangent projection of -2 C s and the retraction is the blockwise nearest
point on the manifold.  The first iteration tries the step 1 / ||C||_2;
every later one starts its backtracking from a Barzilai-Borwein step of
the last accepted move (Wen & Yin, Math. Program. 2013; Iannazzo &
Porcelli, IMA J. Numer. Anal. 2018), under the same monotone Armijo test.
The dual slack is tested by the schedule of the splitting solver
(``solver.slack_tests``), and a run ends CERTIFIED at the first state
whose certificate proves it optimal, as ``solve`` does.
Traces share the CSV schema of the splitting solver with the
``lagrangian`` column equal to the objective, ``primal_res`` holding the
gradient norm at the row's iterate and ``min_gamma`` unused (NaN).

An iteration costs one sparse product per line-search trial.  At d = 1
the row work around those products runs in two compiled calls of the
step library (step.c, built by ``native.kernel("step")``):
``trial_point`` forms and normalizes each trial point, and
``tangent_step`` the tangent gradient at the accepted point and the moves
that the Barzilai-Borwein step reads.  Their results are bit-identical to
the numpy form, which runs where the library cannot be built, at d > 1
and for arrays the library cannot take, and which is the tests'
reference.  The inner products that decide a trial or a step stay numpy
calls, so both routes take the same decisions.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import native
from .manifold import (
    NORM_RANGE,
    block_tangent,
    project,
    sphere_tangent,
    start_point,
    tangent_project,
)
from .solver import (
    Status,
    drive,
    frobenius,
    manifold_state,
    require_finite,
    require_integer,
    slack_tests,
)
from .sparse import spmm, two_norm_estimate

# Armijo line search: each iteration tries its first step (see _bb_step)
# and multiplies it by BACKTRACK after every trial that misses the decrease
# SUFFICIENT_DECREASE * t * ||grad||^2, for at most MAX_TRIALS trials.
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_TRIALS = 60
# Accepted steps in a row that leave the objective bit-for-bit unchanged
# before the run ends STALLED: the Armijo test passes wherever its
# decrease rounds away, so at the rounding floor steps stop moving the
# objective and a run could grind on to max_iter.  Over run seeds 1-119
# of perfbench's rgd_baseline (238 runs), the longest such streak was 16
# at its grad_tol 1e-7 and 190 at 1e-9, in a run that then converged; no
# run reached 200.  Runs on small Gaussian costs at grad_tol 1e-15 do.
FLOOR_STEPS = 200
# The Barzilai-Borwein first trial is kept within
# [BB_MIN * t0, BB_MAX * t0] of the fixed step t0 = 1 / ||C||_2.  Neither
# bound clipped a measured run: the quotients lay within [0.03, 44] t0 on
# rgd_baseline's runs above, and reached 2,300 t0 on max-cut costs, whose
# ||C||_2 far exceeds the curvature along the manifold.
BB_MIN = 1e-4
BB_MAX = 1e4
_DOUBLE = ctypes.c_double


@dataclass
class RgdOptions:
    """Iteration cap (an integer >= 1), gradient tolerance (finite and
    > 0) and start seed (an integer >= 0) of ``rgd_solve``; any other
    value raises ValueError naming the field.  The line-search constants
    are the module constants BACKTRACK, SUFFICIENT_DECREASE, MAX_TRIALS
    and the Barzilai-Borwein range BB_MIN, BB_MAX; the step rule has no
    option, and neither has the certificate stop, which ends a run
    CERTIFIED wherever its test proves a state optimal, as in ``solve``."""

    max_iter: int = 20_000
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        require_integer("max_iter", self.max_iter, 1)
        require_integer("seed", self.seed, 0)
        require_finite("grad_tol", self.grad_tol)


def rgd_step_kernel(spec):
    """What runs ``rgd_solve``'s row work on ``spec``: "c" at d = 1 where
    the compiled library (``native.kernel("step")``) is loaded, else
    "numpy"."""
    return "numpy" if _library(spec) is None else "c"


def _library(spec):
    """The step library where it takes ``rgd_solve``'s row work on
    ``spec``: at d = 1, where it is loaded.  None elsewhere."""
    return native.kernel("step") if spec.d == 1 else None


def _trial(spec, sigma, grad, t):
    """The trial of step t from sigma along -grad: the candidate
    ``project(spec, sigma - t grad)`` and whether the point sigma - t grad
    equals sigma entry for entry.  The library's ``trial_point`` forms
    both where it can take the arrays; where it finds a row norm outside
    ``NORM_RANGE``, ``project`` takes over from its unnormalized point,
    with its result."""
    library = _library(spec)
    inputs = None if library is None else native.views((spec.n, spec.r), sigma, grad)
    if inputs is None:
        point = sigma - t * grad
    else:
        point = np.empty((spec.n, spec.r))
        same = library.trial_point(
            _DOUBLE.from_buffer(point), *inputs, spec.n, spec.r, t, *NORM_RANGE
        )
        if same >= 0:
            return point, bool(same)
    return project(spec, point), np.array_equal(point, sigma)


def _tangent_step(spec, sigma, cost_sigma, previous, grad):
    """The tangent gradient at the accepted point sigma, whose product
    C sigma is ``cost_sigma``, and the moves from the last iterate
    ``previous`` with gradient ``grad``: (new gradient, sigma - previous,
    new gradient - grad).  The library's ``tangent_step`` forms all three
    at d = 1 where it can take the arrays."""
    library = _library(spec)
    shape = (spec.n, spec.r)
    inputs = None if library is None else native.views(shape, sigma, cost_sigma, previous, grad)
    if inputs is None:
        # the loop's iterates come from project: skip tangent_project's re-check
        if spec.d == 1:
            new_grad = sphere_tangent(sigma, 2.0 * cost_sigma)
        else:
            new_grad = block_tangent(sigma, 2.0 * cost_sigma, spec.d)
        return new_grad, sigma - previous, new_grad - grad
    out = [np.empty(shape) for _ in range(3)]
    library.tangent_step(*inputs, *map(_DOUBLE.from_buffer, out), spec.n, spec.r)
    return out


def _line_search(C, spec, sigma, value, grad, grad_sq, t):
    """Armijo backtracking from step t.  Returns (candidate, C candidate,
    its objective) for the first step that passes the sufficient-decrease
    test, or None after ``MAX_TRIALS`` trials, or sooner at the rounding
    floor: after a failed trial whose point sigma - t grad rounds to sigma
    and whose required value rounds to ``value``.  Rounding is monotone,
    so every smaller step repeats that trial bit for bit, and fails.  Each
    trial (``_trial``) costs one sparse product."""
    for _ in range(MAX_TRIALS):
        required = value - SUFFICIENT_DECREASE * t * grad_sq
        candidate, unmoved = _trial(spec, sigma, grad, t)
        cost_candidate = spmm(C, candidate)
        objective = float(np.vdot(cost_candidate, candidate))
        if objective <= required:
            return candidate, cost_candidate, objective
        if required == value and unmoved:
            return None
        t *= BACKTRACK
    return None


def _bb_step(dx, dg, dx_sq, k, step0):
    """First trial step after the k-th accepted move: a Barzilai-Borwein
    quotient of that move dx = x_k - x_{k-1}, with <dx, dx> given as
    ``dx_sq``, and of the change of the tangent gradient
    dg = g_k - g_{k-1}, both Euclidean differences as in Wen & Yin.
    BB1 <dx, dx> / <dx, dg> for odd k and BB2 <dx, dg> / <dg, dg> for
    even k, clipped to [BB_MIN * step0, BB_MAX * step0]; ``step0`` itself
    where <dx, dg> <= 0 or the quotient is not finite."""
    sy = np.vdot(dx, dg)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = dx_sq / sy if k % 2 else sy / np.vdot(dg, dg)
    if not (sy > 0.0 and np.isfinite(t)):
        return step0
    return min(max(float(t), BB_MIN * step0), BB_MAX * step0)


def rgd_solve(problem, options=None, sigma0=None):
    """Iterate until the dual certificate proves the iterate optimal,
    ||grad||_F <= grad_tol * (1 + ||C||_2) or the budget runs out.
    Returns a SolveResult whose state carries the factor in both
    sigma_tilde and sigma, C s in ``y``, the gradient norm
    in ``primal_res`` and the number of accepted steps in k.

    The slack is tested as ``solve`` tests it (``solver.slack_tests``,
    slack_tol = CERT_TOL ||C||_2, the Cholesky screen first): on the
    start, on accepted states an interval apart once the gradient norm is
    at most 10 slack_tol sqrt(n), and on the state that meets the gradient
    tolerance.  A test reads C s from the state, so it costs no sparse
    product.  The status is CERTIFIED at the first tested state whose
    certificate ``proves_optimal``, and CONVERGED at the gradient
    tolerance otherwise; a tested final state carries its certificate.
    The status is STALLED when no step of the geometric schedule passed
    the sufficient-decrease test, in ``MAX_TRIALS`` trials or before a
    failed trial that every smaller step would repeat bit for bit, or at
    the rounding floor: when ``FLOOR_STEPS`` accepted steps in a row left
    the objective unchanged, at the last of them.

    The first line search starts from 1 / ||C||_2 and each later one from
    the Barzilai-Borwein step of the last accepted move (``_bb_step``), so
    an iteration depends on the run's history, not on its iterate alone.
    Every accepted step passes the same Armijo test, so the objective
    column never rises, and a run is deterministic for a fixed seed and
    BLAS thread count.  The accepted candidate's product C s carries over
    to the next iteration, so an iteration costs one sparse product per
    line-search trial and none besides.  At d = 1 the row work around
    those products (each trial point and its normalization, the tangent
    gradient and the moves) runs in the compiled step library where it is
    loaded, with the bits of its numpy form (see the module docstring);
    the state takes the objective and the step norm that the iteration
    already holds.

    A warm start ``sigma0`` begins again at 1 / ||C||_2 with no history:
    a run of k1 steps continued by a warm-started run of k2 steps does not
    repeat the steps of one run of k1 + k2.  It is checked as ``solve``
    checks it: it must have the problem's shape (n, r) and lie on the
    manifold to 1e-8, or the call raises DimensionMismatch or OffManifold.
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
    state = manifold_state(
        sigma,
        Cs,
        problem=problem,
        rho=max(norm_two, np.finfo(float).tiny),
        mu=0.0,
        primal_res=frobenius(grad),
    )
    trial = step0  # first trial step of the next line search
    flat = 0  # accepted steps in a row that left the objective unchanged
    test = slack_tests(problem)  # solve's test, by solve's schedule

    def advance(state):
        nonlocal grad, trial, flat
        accepted = _line_search(
            C,
            spec,
            state.sigma_tilde,
            state.last_objective,
            grad,
            state.primal_res**2,
            trial,
        )
        if accepted is None:
            return state, None, Status.STALLED
        sigma, Cs, objective = accepted
        new_grad, dx, dg = _tangent_step(spec, sigma, Cs, state.sigma_tilde, grad)
        dx_sq = np.vdot(dx, dx)
        new = manifold_state(
            sigma,
            Cs,
            state,
            objective=objective,
            step_tilde=math.sqrt(dx_sq),
            primal_res=frobenius(new_grad),
        )
        trial = _bb_step(dx, dg, dx_sq, new.k, step0)
        grad = new_grad
        flat = flat + 1 if new.last_objective == state.last_objective else 0
        # the slack test where due, then the residual and floor stops
        at_stop = new.primal_res <= tol
        new, cells, stop = test(new, new.primal_res, at_stop)
        if stop is None and (at_stop or flat >= FLOOR_STEPS):
            stop = Status.CONVERGED if at_stop else Status.STALLED
        return new, cells, stop

    state, cells, stop = test(state)
    if stop is None and state.primal_res <= tol:
        stop = Status.CONVERGED
    if stop is not None:
        return drive(state, lambda state: (state, cells, stop), 1)
    return drive(state, advance, options.max_iter)
