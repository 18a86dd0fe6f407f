"""Splitting solver for low-rank factorized SDPs with diagonal or
block-diagonal constraints.

The problem ``min <C, X>`` over unit-diagonal (or identity-block-diagonal)
positive semidefinite X is handled through the factorization X = st @ s.T
with the coupling constraint st = s, where only st is kept on the manifold.
One iteration kernel covers both the plain method (mu = 0, unit rows) and
the proximally regularized one (mu > 0, orthonormal blocks):

    gamma  = (mu * st + rho * s - (y + C s)) / (rho + mu)
    st'    = blockwise projection of gamma onto the manifold
    s'     = st' + (y - C st') / rho
    y'     = C st'

The method's multiplier update y + rho (st' - s') equals C st' by the
s-update, so the kernel stores the product it already holds.  Started
from s = st on the manifold and y = C st, every state the kernel returns
carries C st as its y.  Each iteration costs exactly two sparse
products.  The O(nr) row work around them runs in two compiled calls,
one on each side of the second product (``step``; ``native.kernel``
builds them from step.c).  The numpy form of the same work
(``_numpy_step``) is the fallback where the library cannot be built and
the tests' reference.

``solve`` accelerates this fixed-point iteration with safeguarded type-II
Anderson acceleration (Walker & Ni 2011) on z = (s, y/rho), or
(st, s, y/rho) when mu > 0: each iteration evaluates the kernel once, at
an extrapolation from the last ``AA_MEMORY`` differences of iterates
(``AA_BLOCK_MEMORY`` on block problems, d > 1), and keeps the result
only if it does not raise the merit value (the safeguard of Zhang, Peng,
Ouyang & Deng 2019).  A rejected evaluation still costs its products and
counts as an iteration.  ``solve_with_curvature`` runs the same loop
through ``_solve``, with a curvature test at a residual stop that the
slack test did not end.

Both solvers also stop on the dual certificate.  With the block
multipliers Lam_i = sym((C st)_i st_i^T), the scalars
lam_i = <(C st)_i, st_i> on the sphere product (d = 1), the duality gap
of a feasible st is zero by construction, so a positive semidefinite
slack C - blkdiag(Lam) proves st optimal at any iterate, converged or not
(Boumal, Voroninski & Bandeira 2016; SE-Sync, Rosen et al. 2019 verify
SO(d) synchronization and stop the same way).  The test reads C st, the
y of an accepted state, so it costs no sparse product: a Cholesky
screen of the slack, and one eigen-solve where the screen passes.
``slack_tests`` holds the one schedule of the test, which ``_solve`` and
``rgd.rgd_solve`` share: the start, then states an interval apart once
the residual is small, and the state of every residual stop; block
problems (d > 1) test only below the primal residual
``BLOCK_STOP_PRIMAL``.  A state whose slack was solved carries its
certificate, and ``certify.dual_certificate`` of the same factor and
product returns it, so no caller solves it again.  ``solve`` ends
CERTIFIED where the slack and gap tests of
``certify.Certificate.proves_optimal`` first hold.

``oracle_sdp``, the desk-scale reference value that stands in for an
external SDP solver, is a few residual-stopped ``_solve`` runs and lives
here with them.
"""

from __future__ import annotations

import ctypes
import logging
import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dposv

from . import native
from .certify import CERT_TOL, Certificate, dual_certificate, slack_certificate, slack_screen
from .errors import AssumptionViolated, DegenerateProjection, InvariantViolation
from .manifold import NORM_RANGE, ProblemSpec, project, require_on_manifold, start_point
from .sparse import inf_norm, spmm, spmm_flops, two_norm_estimate
from .trace import BASE_COLUMNS, Trace, TraceRecord

logger = logging.getLogger("bmadmm")

# Residual differences kept by the Anderson acceleration of ``_solve``, on
# the sphere product (d = 1) and on block problems (d > 1).  On 15
# generate_so3 costs (q = 50-200) every depth from 6 to 12 took about half
# the iterations of 5, at mu = ||C||_2 and at the CLI's default mu, and
# 10 took the fewest of 6, 7, 8 and 10 at both.  The depth was chosen on
# perfbench's so3 pass (q = 50, mu = ||C||_2): 522 iterations against 554
# at 8 and 581 at 7, and faster than 7 in every timed pair.  On the larger
# costs 6 and 7 took 3% (mu = ||C||_2) and 14% (CLI mu) less time than 10,
# since each iteration reads fewer buffer rows; no depth was ahead on
# every cost.
# At d = 1 a depth of 8 saved 5% of perfbench's max-cut iterations and
# cost 5% more time: each iteration reads three more rows of the memory's
# buffers.
AA_MEMORY = 5
AA_BLOCK_MEMORY = 10
# Multiples of ||C||_inf and ||C||_2 in the "theory" penalty
# max(ALPHA ||C||_inf, BETA ||C||_2), and the constants of its decrease
# bound: kappa_constant(ALPHA, BETA) = 0.08 > 0.
ALPHA, BETA = 10.0, 2.0
# Block problems (d > 1) test the certificate only at primal residuals
# ||st - s||_F strictly below this floor: acceptance criterion 7 asks for
# a primal residual under 1e-6 jointly with the gap, and SO(3) runs
# (generate_so3, q = 10 and 50) stopped on the slack test alone
# certified at residuals up to 5e-5.
BLOCK_STOP_PRIMAL = 1e-6
ORACLE_MAX_N = 500  # largest dimension oracle_sdp accepts


class Status(str, Enum):
    CONVERGED = "converged"
    CERTIFIED = "certified"
    MAX_ITER = "max_iter"
    TIME_BUDGET = "time_budget"
    ASSUMPTION_VIOLATED = "assumption_violated"
    EPS_CONVEX = "eps_convex"
    STALLED = "stalled"


@dataclass
class SolverOptions:
    """Knobs of the splitting solver.

    Parameters
    ----------
    rho : float or {"theory", "practice"}
        Penalty parameter, finite and > 0.  "theory" picks
        max(ALPHA ||C||_inf, BETA ||C||_2) with the module constants
        ALPHA = 10 and BETA = 2, the regime with provable monotone
        decrease; "practice" picks ||C||_2, the fast setting used for
        benchmarks.
    mu : float
        Proximal weight on the manifold update, finite and >= 0.  Required
        > ||C||^2/rho for the proximal descent guarantee; a violation is
        only logged.
    tol_primal : float
        Stop when ||st - s||_F <= tol_primal * sqrt(n) ...
    tol_obj : float
        ... and the merit value changes by <= tol_obj * (1 + |merit|).
        Both tolerances are finite and > 0.
    check_invariants : bool
        Verify the runtime descent and floor invariants each iteration.
        Violations abort with diagnostics under a "theory" rho and are
        logged otherwise.
    max_iter : int
        Iteration budget, an integer >= 1; past it the status is MAX_ITER.
    seed : int
        Seed of the random start, an integer >= 0; ``solve_with_curvature``
        also seeds its curvature probes from it.
    time_budget : float, optional
        Stop with status TIME_BUDGET after the first iteration that ends
        more than this many seconds (finite and >= 0) after the
        iterations began.

    Every float field must be finite (NaN fails as well); a value out of
    range raises ValueError naming the field.
    """

    rho: float | str = "practice"
    mu: float = 0.0
    max_iter: int = 100_000
    tol_primal: float = 1e-8
    tol_obj: float = 1e-10
    seed: int = 0
    check_invariants: bool = False
    time_budget: float | None = None

    def __post_init__(self):
        if isinstance(self.rho, str):
            if self.rho not in ("theory", "practice"):
                raise ValueError(f"unknown rho mode {self.rho!r}")
        else:
            require_finite("rho", self.rho)
        require_finite("mu", self.mu, zero_ok=True)
        require_finite("tol_primal", self.tol_primal)
        require_finite("tol_obj", self.tol_obj)
        require_integer("max_iter", self.max_iter, 1)
        require_integer("seed", self.seed, 0)
        if self.time_budget is not None:
            require_finite("time_budget", self.time_budget, zero_ok=True)


def require_integer(name, value, least):
    """Raise ValueError naming the option ``name`` unless ``value`` is an
    integer (numpy integers included, booleans not) and at least
    ``least``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def require_finite(name, value, zero_ok=False):
    """Raise ValueError naming the option ``name`` unless ``value`` is a
    finite number > 0, or >= 0 where ``zero_ok`` is set (NaN and
    booleans fail)."""
    low, positive = (">=", value >= 0.0) if zero_ok else (">", value > 0.0)
    if isinstance(value, (bool, np.bool_)) or not (positive and value < math.inf):
        raise ValueError(f"{name} must be finite and {low} 0, got {value}")


@dataclass
class SolverState:
    """Full iterate of the solver at iteration k.

    ``y`` is the multiplier.  On every state that ``step`` or
    ``manifold_state`` returns it is the product C @ sigma_tilde itself,
    so the certificate tests read C st from it.  ``primal_res`` is
    ||sigma_tilde - sigma||_F, and
    ``step_tilde`` and ``step_sigma`` are the Frobenius norms of the moves
    of sigma_tilde and sigma from the previous iterate; all three are set
    by whatever builds the state and are zero at a start with
    sigma = sigma_tilde and no previous iterate.  ``certificate`` is the
    dual certificate of sigma_tilde where ``_solve``'s slack test computed
    one, else None; ``step``, ``manifold_state`` and the Anderson
    extrapolation build states without one, so no state carries the
    certificate of another factor.
    """

    problem: ProblemSpec
    sigma_tilde: np.ndarray
    sigma: np.ndarray
    y: np.ndarray
    rho: float
    mu: float
    k: int = 0
    last_G: float = 0.0
    last_objective: float = 0.0
    last_min_gamma: float = math.nan
    primal_res: float = 0.0
    step_tilde: float = 0.0
    step_sigma: float = 0.0
    certificate: Certificate | None = None


@dataclass
class SolveResult:
    state: SolverState
    trace: Trace
    status: Status


def default_rho(C, mode):
    """Penalty parameter for a cost matrix.

    mode "theory" -> max(ALPHA ||C||_inf, BETA ||C||_2); mode "practice"
    -> ||C||_2.  Where that is 0, so C = 0, the penalty is 1.0: every
    product with a zero C is zero, so any positive penalty gives the same
    iterates.
    """
    if mode == "theory":
        rho = max(ALPHA * inf_norm(C), BETA * two_norm_estimate(C))
    elif mode == "practice":
        rho = two_norm_estimate(C)
    else:
        raise ValueError(f"unknown rho mode {mode!r}")
    return float(rho) if rho > 0.0 else 1.0


def default_mu(C, rho):
    """Proximal weight 1.01 ||C||_2^2 / rho when none was given: just
    above the bound mu > ||C||_2^2 / rho of the proximal descent
    condition, for a penalty mode or an explicit penalty alike."""
    if isinstance(rho, str):
        rho = default_rho(C, rho)
    return 1.01 * two_norm_estimate(C) ** 2 / rho


def init_state(problem, options, sigma0=None):
    """Initial state: st = s at ``start_point`` (seeded random unless a
    warm start is given) and y = C st.  Warm starts must have the shape
    (n, r) and lie on the manifold; y is always C st, the product that
    every later state carries as its y too."""
    C = problem.cost
    rho = default_rho(C, options.rho) if isinstance(options.rho, str) else float(options.rho)
    mu = float(options.mu)
    norm_two = two_norm_estimate(C)
    if mu > 0.0 and mu - norm_two**2 / rho <= 0.0:
        logger.warning(
            "proximal descent condition mu - ||C||^2/rho > 0 fails "
            "(mu=%g, rho=%g, ||C||=%g); convergence is not guaranteed",
            mu,
            rho,
            norm_two,
        )
    st = start_point(problem.manifold, options.seed, sigma0)
    return manifold_state(st, spmm(C, st), problem=problem, rho=rho, mu=mu)


def manifold_state(st, cost_st, previous=None, objective=None, step_tilde=None, **fields):
    """State at a point st of the manifold with sigma = st and y = C st,
    given as ``cost_st``; its merit value is the objective <C st, st>,
    which a caller that holds it passes as ``objective``.  sigma and y
    are the arrays st and cost_st themselves: no iterate is ever changed
    in place.

    After ``previous`` the state takes that iterate's problem and
    parameters, counts one iteration more and measures the step norms
    from it, or takes ||st - previous st||_F as ``step_tilde`` where the
    caller holds it; without one, ``fields`` give the problem and
    parameters and k = 0.  ``fields`` override either way.
    """
    if previous is not None:
        if step_tilde is None:
            step_tilde = frobenius(st - previous.sigma_tilde)
        if previous.sigma is not previous.sigma_tilde:
            step_sigma = frobenius(st - previous.sigma)
        else:  # previous iterate on the manifold too: s moved as st did
            step_sigma = step_tilde
        fields = {
            "problem": previous.problem,
            "rho": previous.rho,
            "mu": previous.mu,
            "k": previous.k + 1,
            "step_tilde": step_tilde,
            "step_sigma": step_sigma,
            **fields,
        }
    if objective is None:
        objective = float(np.vdot(cost_st, st))
    return SolverState(
        sigma_tilde=st,
        sigma=st,
        y=cost_st,
        last_G=objective,
        last_objective=objective,
        **fields,
    )


def gamma(state, C_sigma):
    """Pre-projection update point of the manifold block, formed in place
    in the array ``C_sigma`` that holds the product C s, and returned.

    With mu = 0 this is s - (y + C s) / rho; with mu > 0 the proximal form
    (mu st + rho s - (y + C s)) / (rho + mu).  The two coincide at mu = 0.
    """
    mu = state.mu
    np.add(state.y, C_sigma, out=C_sigma)
    if mu == 0.0:
        np.divide(C_sigma, state.rho, out=C_sigma)
        return np.subtract(state.sigma, C_sigma, out=C_sigma)
    prox = mu * state.sigma_tilde
    prox += state.rho * state.sigma
    np.subtract(prox, C_sigma, out=C_sigma)
    return np.divide(C_sigma, state.rho + mu, out=C_sigma)


def step(state, options, previous=None):
    """One iteration of the splitting kernel; returns the new state.

    Exactly two sparse products: C s, in whose array the update point is
    formed (and, for d = 1, normalized), and C st', which enters the
    s-update and is the new y.  A collapsed gamma block raises
    AssumptionViolated naming the block and the iteration.  The norms that
    ``residuals`` reports are computed here and stored on the new state;
    the step norms are the moves from ``previous``, by default ``state``
    itself.

    The row work around the products runs in two compiled calls of the
    ``native.kernel("step")`` library where it is loaded and every array
    the step reads is a writable C-contiguous float64 (n, r) array:
    ``update_point`` before the second product, ``finish`` after it.
    Elsewhere ``_numpy_step`` runs it, the fallback and the tests' oracle.
    Both give the same bits for the update point, st', s' and the smallest
    row norm; the objective and the norms, summed in another order, agree
    to rounding.
    """
    previous = state if previous is None else previous
    library = native.kernel("step")
    inputs = None if library is None else _kernel_inputs(state, previous)
    if inputs is None:
        new_state = _numpy_step(state, previous)
    else:
        new_state = _compiled_step(library, state, *inputs)
    if options.check_invariants:
        _check_invariants(state, new_state, options.rho == "theory")
    return new_state


def step_kernel():
    """What runs ``step``'s row work: "c" where the compiled library
    (``native.kernel("step")``) is loaded, else "numpy"."""
    return "numpy" if native.kernel("step") is None else "c"


def _numpy_step(state, previous):
    """``step`` in numpy."""
    problem = state.problem
    rho = state.rho
    gam = gamma(state, spmm(problem.cost, state.sigma))
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled by project
        gamma_norms = np.linalg.norm(gam, axis=1)
    min_gamma = float(gamma_norms.min())
    sigma_tilde_new = _project_update(state, gam, gamma_norms)
    cost_st_new = spmm(problem.cost, sigma_tilde_new)
    sigma_new = np.subtract(state.y, cost_st_new)
    np.divide(sigma_new, rho, out=sigma_new)
    np.add(sigma_tilde_new, sigma_new, out=sigma_new)
    objective_new = float(np.vdot(cost_st_new, sigma_tilde_new))
    scratch = np.subtract(sigma_tilde_new, sigma_new)
    diff_sq = float(np.vdot(scratch, scratch))
    step_tilde = frobenius(np.subtract(sigma_tilde_new, previous.sigma_tilde, out=scratch))
    step_sigma = frobenius(np.subtract(sigma_new, previous.sigma, out=scratch))
    return _next_state(
        state, sigma_tilde_new, sigma_new, cost_st_new, objective_new, diff_sq, min_gamma,
        step_tilde, step_sigma,
    )


_DOUBLE = ctypes.c_double
_SUMS = ctypes.c_double * 4  # the four sums that ``finish`` returns


def _kernel_inputs(state, previous):
    """ctypes views (``native.views``) of the arrays that the compiled step
    reads: y, s, st (None at mu = 0, where the update does not read it)
    and the previous st and s.  None unless each is a writable
    C-contiguous float64 array of the manifold's shape (n, r)."""
    return native.views(
        (state.problem.manifold.n, state.problem.manifold.r),
        state.y,
        state.sigma,
        state.sigma_tilde if state.mu > 0.0 else None,
        previous.sigma_tilde,
        previous.sigma,
    )


def _compiled_step(library, state, y, sigma, sigma_tilde, previous_tilde, previous_sigma):
    """``step`` with its row work in ``library``, on the ctypes views of
    ``_kernel_inputs``.  ``update_point`` forms the update point in the
    array of C s, with its smallest row norm, and normalizes the rows at
    d = 1.  Where it finds a row norm outside ``NORM_RANGE`` it leaves the
    rows unnormalized and the numpy step's projection takes over, with its
    result; at d > 1 ``project`` runs as in the numpy step."""
    problem = state.problem
    man = problem.manifold
    gam = spmm(problem.cost, state.sigma)
    min_gamma = library.update_point(
        _DOUBLE.from_buffer(gam), y, sigma, sigma_tilde, man.n, man.r, man.d,
        state.rho, state.mu, *NORM_RANGE,
    )
    if math.isnan(min_gamma):
        with np.errstate(over="ignore"):  # an overflowed norm is rescaled by project
            gamma_norms = np.linalg.norm(gam, axis=1)
        min_gamma = float(gamma_norms.min())
        sigma_tilde_new = _project_update(state, gam, gamma_norms)
    elif man.d > 1:
        sigma_tilde_new = _project_update(state, gam, None)
    else:
        sigma_tilde_new = gam
    cost_st_new = spmm(problem.cost, sigma_tilde_new)
    sigma_new = np.empty_like(cost_st_new)
    sums = _SUMS()
    library.finish(
        _DOUBLE.from_buffer(sigma_tilde_new), _DOUBLE.from_buffer(cost_st_new), y,
        previous_tilde, previous_sigma, _DOUBLE.from_buffer(sigma_new), sigma_new.size,
        state.rho, sums,
    )
    objective_new, diff_sq, tilde_sq, sigma_sq = sums
    return _next_state(
        state, sigma_tilde_new, sigma_new, cost_st_new, objective_new, diff_sq, min_gamma,
        math.sqrt(tilde_sq), math.sqrt(sigma_sq),
    )


def _project_update(state, gam, gamma_norms):
    """The update point ``gam`` projected onto the manifold, in place at
    d = 1; a collapsed block raises AssumptionViolated naming the block
    and the iteration."""
    try:
        return project(state.problem.manifold, gam, gamma_norms, out=gam)
    except DegenerateProjection as exc:
        raise AssumptionViolated(
            f"degenerate update block {exc.block} at iteration {state.k}",
            block=exc.block,
            iteration=state.k,
        ) from None


def _next_state(
    state, sigma_tilde, sigma, cost_st, objective, diff_sq, min_gamma, step_tilde, step_sigma
):
    """The state after ``state`` at (st', s', C st'), with the merit value,
    the residual and the step norms these give."""
    return SolverState(
        problem=state.problem,
        sigma_tilde=sigma_tilde,
        sigma=sigma,
        y=cost_st,
        rho=state.rho,
        mu=state.mu,
        k=state.k + 1,
        last_G=objective + 0.5 * state.rho * diff_sq,
        last_objective=objective,
        last_min_gamma=min_gamma,
        primal_res=math.sqrt(diff_sq),
        step_tilde=step_tilde,
        step_sigma=step_sigma,
    )


def frobenius(X):
    """||X||_F, bit-identical to np.linalg.norm(X) for a contiguous array."""
    return math.sqrt(float(np.vdot(X, X)))


def merit_value(state):
    """Merit value <C st, st> + (rho/2) ||st - s||_F^2, the augmented
    Lagrangian with the multiplier eliminated through y = C st, from a
    fresh product C st rather than the state's y.  Errors if st is off the
    manifold."""
    require_on_manifold(state.problem.manifold, state.sigma_tilde, "sigma_tilde")
    Cst = spmm(state.problem.cost, state.sigma_tilde)
    diff = state.sigma_tilde - state.sigma
    return float(np.vdot(Cst, state.sigma_tilde)) + 0.5 * state.rho * float(
        np.vdot(diff, diff)
    )


def residuals(state):
    """(primal, step_tilde, step_sigma) Frobenius norms stored on the
    state: ||st - s||, and the moves of st and s from the previous
    iterate (zero when the state has none)."""
    return state.primal_res, state.step_tilde, state.step_sigma


def kappa_constant(alpha, beta):
    """Decrease-rate constant (alpha^2 - 4 alpha - 2) beta / (2 alpha^2)
    - 1/beta of the monotonicity bound; positive only for valid (alpha,
    beta) pairs, e.g. 0.08 at (ALPHA, BETA) = (10, 2)."""
    return (alpha**2 - 4.0 * alpha - 2.0) * beta / (2.0 * alpha**2) - 1.0 / beta


def _check_invariants(old, new, theory):
    """Runtime invariants of the iteration, checked from the indices where
    they provably hold: the merit floor, monotone merit, the decrease
    bound and, for d = 1, the row-norm floor of the update point.  With
    mu = 0 the bounds take alpha = rho / ||C||_inf and beta = rho / ||C||_2
    of the penalty in force, which a theory-mode penalty makes at least
    (ALPHA, BETA).  Raise under a theory-mode penalty (``theory`` True),
    log otherwise.  The norms of C are cached lookups."""
    problem = new.problem
    n = problem.manifold.n
    norm_two = two_norm_estimate(problem.cost)
    norm_inf_ = inf_norm(problem.cost)
    diag = {"k": new.k}
    failures = []

    # merit floor (every iterate >= 1)
    floor = -n * norm_inf_
    if new.last_G < floor - 1e-9 * (1.0 + abs(floor)):
        failures.append(f"merit {new.last_G:.6e} below floor {floor:.6e}")

    if old.k >= 2:
        dec = old.last_G - new.last_G
        if dec < -1e-9 * (1.0 + abs(old.last_G)):
            failures.append(f"merit increased by {-dec:.3e}")
        d_tilde = new.step_tilde
        d_sigma = new.step_sigma
        bound = None
        if new.mu > 0.0:
            coeff = new.mu - norm_two**2 / new.rho
            if coeff > 0.0:
                bound = coeff * d_tilde**2 + 0.5 * new.rho * d_sigma**2
        else:
            alpha_eff = new.rho / norm_inf_ if norm_inf_ > 0 else math.inf
            beta_eff = new.rho / norm_two if norm_two > 0 else math.inf
            kap = kappa_constant(alpha_eff, beta_eff)
            if kap > 0.0 and math.isfinite(kap):
                bound = kap * norm_two * d_tilde**2 + 0.5 * new.rho * d_sigma**2
            # row-norm floor of the update point, valid in the same regime
            gamma_floor = 1.0 - 4.0 / alpha_eff - 2.0 / alpha_eff**2
            if problem.manifold.d == 1 and gamma_floor > 0.0:
                if new.last_min_gamma < gamma_floor - 1e-9:
                    failures.append(
                        f"min gamma row norm {new.last_min_gamma:.6f} below "
                        f"floor {gamma_floor:.6f}"
                    )
        if bound is not None and dec < bound - 1e-9:
            failures.append(f"merit decrease {dec:.3e} below bound {bound:.3e}")

    if failures:
        diag["failures"] = failures
        message = f"iteration {new.k}: " + "; ".join(failures)
        if theory:
            raise InvariantViolation(message, diagnostics=diag)
        logger.warning("invariant check: %s", message)


def _record(state, seconds, **extra):
    primal, step_tilde, step_sigma = residuals(state)
    return TraceRecord(
        k=state.k,
        objective=state.last_objective,
        lagrangian=state.last_G,
        primal_res=primal,
        step_tilde=step_tilde,
        step_sigma=step_sigma,
        min_gamma=state.last_min_gamma,
        seconds=seconds,
        **extra,
    )


def drive(state, advance, max_iter, time_budget=None, columns=BASE_COLUMNS):
    """The driver loop shared by every solver: call ``advance`` on the
    current state at most ``max_iter`` times, or until ``time_budget``
    seconds have passed.

    ``advance(state)`` returns ``(state, cells, status)``: the next state;
    the extra trace cells of its row, or None when no new row is due (the
    state did not move); and a terminal Status, or None to go on.  One
    row is recorded for every state that brings cells, which is every
    accepted state, and the final state always has a row.

    Returns a SolveResult whose status is the terminal one, MAX_ITER when
    the iteration budget ran out, or TIME_BUDGET when the time budget did.
    """
    trace = Trace(columns)
    start = time.perf_counter()
    status = Status.MAX_ITER
    for _ in range(max_iter):
        state, cells, stop = advance(state)
        if cells is not None:
            trace.append(_record(state, time.perf_counter() - start, **cells))
        if stop is not None:
            status = stop
            break
        if time_budget is not None and time.perf_counter() - start > time_budget:
            status = Status.TIME_BUDGET
            break
    if not trace.records or trace.records[-1].k != state.k:
        trace.append(_record(state, time.perf_counter() - start))
    return SolveResult(state=state, trace=trace, status=status)


class _Anderson:
    """Type-II Anderson acceleration of the fixed-point map of ``step``.

    The fixed-point variable is z = (s, y/rho), or (st, s, y/rho) when
    mu > 0.  The memory stores z unscaled, as (s, y) or (st, s, y), and
    scales the y block of the residual f = T(z) - z by 1/rho, which gives
    the same extrapolation.  It holds the last ``depth`` differences dF of
    f in a ring buffer, their Gram matrix and their inner products with
    the current f, both updated by one matrix product per new difference,
    and, in a second ring, the last ``depth + 1`` map values g = T(z) that
    the differences come from.  Everything is allocated once.
    """

    def __init__(self, state, depth):
        self.depth = depth
        self.blocks = 3 if state.mu > 0.0 else 2
        self.shape = state.sigma.shape
        self.y_part = slice((self.blocks - 1) * state.sigma.size, None)
        self.scale = 1.0 / state.rho
        size = self.blocks * state.sigma.size
        self.G = np.zeros((depth + 1, size))
        # rows 0..depth-1: the dF ring; the last two in turn hold the
        # current f and the next point, which becomes the next f
        self.F = np.empty((depth + 2, size))
        self.gram = np.empty((depth, depth))
        self.rhs = None  # inner products of the stored dF with the current f
        # G slots of the later and the earlier end of each difference
        self.later = [0] * depth
        self.earlier = [0] * depth
        self.count = 0  # differences stored
        self.head = 0  # ring slot of the next difference
        self.updates = 0
        self.current = 0  # G slot of the current point
        self.pack(state, 0)

    def pack(self, state, slot):
        parts = self.G[slot].reshape(self.blocks, *self.shape)
        if self.blocks == 3:
            np.copyto(parts[0], state.sigma_tilde)
        np.copyto(parts[-2], state.sigma)
        np.copyto(parts[-1], state.y)

    def unpack(self, z, state):
        """The state ``step`` takes at z.  Its arrays are views of z; with
        mu = 0 its st, which the update does not read, is that of
        ``state``."""
        parts = z.reshape(self.blocks, *self.shape)
        return SolverState(
            problem=state.problem,
            sigma_tilde=parts[0] if self.blocks == 3 else state.sigma_tilde,
            sigma=parts[-2],
            y=parts[-1],
            rho=state.rho,
            mu=state.mu,
            k=state.k,
        )

    def reset(self):
        """Forget every difference; the current point and f stay."""
        self.count = 0
        self.head = 0

    def point(self):
        """The current point."""
        return self.G[self.current]

    def update(self, z, state):
        """Make ``state``, which ``step`` returned at z, the current point.
        z may be the buffer ``extrapolate`` returned; ``step`` never returns
        its input arrays, so the buffer is free again."""
        F, depth = self.F, self.depth
        slot = (self.current + 1) % (depth + 1)
        self.pack(state, slot)
        fresh = depth + self.updates % 2
        f = F[fresh]
        np.subtract(self.G[slot], z, out=f)
        f[self.y_part] *= self.scale
        if self.updates:
            j = self.head
            np.subtract(f, F[2 * depth + 1 - fresh], out=F[j])
            self.later[j] = slot
            self.earlier[j] = self.current
            self.head = (j + 1) % depth
            self.count = m = min(self.count + 1, depth)
            # rows j and fresh of F, as one strided view
            products = F[:m] @ F[j : fresh + 1 : fresh - j].T
            self.gram[j, :m] = self.gram[:m, j] = products[:, 0]
            self.rhs = products[:, 1]
        self.current = slot
        self.updates += 1

    def extrapolate(self):
        """g - dG gamma for the gamma that minimizes ||f - dF gamma||,
        solved through the Cholesky factor of the Gram matrix and written
        into a buffer that the next ``update`` reuses; None when no
        difference is stored.  A Gram matrix that is not numerically
        positive definite, or gives a non-finite gamma, clears the memory
        and gives None too."""
        m = self.count
        if m == 0:
            return None
        _, coef, info = dposv(self.gram[:m, :m], self.rhs)
        coef = coef.tolist()
        if info != 0 or not math.isfinite(sum(coef)):
            self.reset()
            return None
        weights = [0.0] * (self.depth + 1)
        weights[self.current] = 1.0
        for c, later, earlier in zip(coef, self.later, self.earlier):
            weights[later] -= c
            weights[earlier] += c
        return np.dot(weights, self.G, out=self.F[self.depth + self.updates % 2])


def solve(problem, options=None, sigma0=None):
    """Run the splitting solver until the dual certificate proves the
    iterate optimal, the primal residual and the merit change
    fall under their tolerances, the iteration or time budget runs out, or
    an update block degenerates.

    Each iteration is one ``step``, taken at a type-II Anderson
    extrapolation (memory ``AA_MEMORY``, or ``AA_BLOCK_MEMORY`` when
    d > 1) of the fixed-point variable
    z = (s, y/rho), or (st, s, y/rho) when mu > 0.  The extrapolated z is
    only ever the input of ``step``: every returned and traced state is a
    ``step`` output, with st on the manifold and y = C st.  The result of
    an extrapolation is accepted only if its merit value is no larger
    than the last accepted state's.  Otherwise, or if its update block
    degenerates, it is discarded, the memory is cleared and the state
    stays as it was, with k one larger, zero step norms and no trace row.
    With an empty memory (at the start, after a rejection, or when the
    least-squares system of the extrapolation is singular) the step is
    the plain one from the last accepted state and is always accepted;
    under a "practice" penalty it may raise the merit value, as the
    plain iteration may.  k counts ``step`` evaluations, rejected ones
    included, and each costs two sparse products (one, if its update
    block degenerates).  The step norms of an accepted state are
    measured from the last accepted state.  With ``check_invariants``
    there is no extrapolation: the run is the plain iteration, whose
    step the descent bound is about.

    ``_solve`` tests the dual certificate, with the d x d block
    multipliers of the problem, at slack_tol = CERT_TOL ||C||_2 on the
    states that its schedule names.  A state whose slack eigenvalue is
    >= -CERT_TOL ||C||_2 and whose relative gap is <= CERT_TOL
    (``proves_optimal``) ends the run CERTIFIED; such a state need not
    be first-order stationary to ``tol_primal``.  The state where the run
    meets the residual tolerances is tested too (on a block problem only
    below ``BLOCK_STOP_PRIMAL``), and ends the run CONVERGED where that
    test does not prove it optimal.  A final state whose slack was
    solved carries its certificate as ``state.certificate``, else None;
    ``certify.dual_certificate`` of the factor gives the same numbers.

    Parameters
    ----------
    problem : ProblemSpec
    options : SolverOptions, optional
    sigma0 : ndarray, optional
        Warm start on the manifold; the multiplier is reset to C sigma0.

    Returns
    -------
    SolveResult
        Final state, trace (one row per accepted state, plus the final
        iterate) and a Status.
        Deterministic for a fixed seed and thread count.
    """
    return _solve(problem, options, sigma0, certified_stop)


def certified_stop(cert):
    """The check of ``solve`` and ``rgd_solve``: end the run CERTIFIED
    where the certificate proves its state optimal."""
    return {}, Status.CERTIFIED if cert.proves_optimal() else None


def iteration_flops(problem):
    """Floating-point operations of one iteration, the unit of
    ``_solve``'s test interval: two products with C (``spmm_flops``) plus
    4 n r of row-wise work on the n x r factors."""
    n, r = problem.manifold.n, problem.manifold.r
    return 2 * spmm_flops(problem.cost, r) + 4 * n * r


def slack_tests(problem, check=certified_stop, slack_tol=None):
    """The one schedule of the solvers' dual slack tests, as a function
    ``test(state, residual=0.0, at_stop=False)`` that returns
    ``(state, cells, status)``.  ``check`` and ``slack_tol`` default to
    those of ``solve``: ``certified_stop`` at CERT_TOL ||C||_2.

    A call tests its state where ``at_stop`` is set (the solver's
    residual stop), or where ``residual``, the state's residual in the
    units of C s, is at or below 10 slack_tol sqrt(n) and k lies at
    least ``interval`` past the last test.  So the first call, with the
    start state alone, tests the start.  interval = ceil(n^3 / (3 ``iteration_flops``)) prices a
    failed test as a Cholesky factorization, n^3 / 3 flops; where it is
    longer than the run, the start and the residual stop are the only
    tests.  The rule is the same at every size and for every solver.

    A test reads C st from the state's ``y``, so it costs no sparse
    product: ``certify.slack_screen`` first, a Cholesky factorization
    that skips the state where it proves the slack eigenvalue below
    -slack_tol, then ``certify.slack_certificate`` on the states that
    pass, which are returned carrying it.  ``check(certificate)`` returns
    ``(cells, status)``: the cells of the state's row, and a terminal
    Status that ends the run at that state, or None to go on.  A call
    that tests nothing, or whose screen fails, returns
    ``(state, {}, None)``.
    """
    C, n, d = problem.cost, problem.manifold.n, problem.manifold.d
    if slack_tol is None:
        slack_tol = CERT_TOL * two_norm_estimate(C)
    ceiling = 10.0 * slack_tol * math.sqrt(n)
    interval = math.ceil(n**3 / (3 * iteration_flops(problem)))
    tested = -math.inf  # k of the last state whose slack was tested

    def test(state, residual=0.0, at_stop=False):
        nonlocal tested
        if not (at_stop or residual <= ceiling and state.k >= tested + interval):
            return state, {}, None
        tested = state.k
        if not slack_screen(C, state.sigma_tilde, state.y, d, slack_tol):
            return state, {}, None
        state = replace(state, certificate=slack_certificate(C, state.sigma_tilde, state.y, d))
        return state, *check(state.certificate)

    return test


def _solve(
    problem,
    options=None,
    sigma0=None,
    check=None,
    slack_tol=None,
    at_rest=None,
    columns=BASE_COLUMNS,
):
    """``solve``'s loop, with two hooks on accepted states.

    ``drive`` calls one closure, ``advance``, once per iteration.  It
    evaluates ``step`` once, at the Anderson extrapolation of the last
    accepted state or, when the memory is empty or ``check_invariants``
    leaves none, at that state itself.  The memory keeps ``AA_MEMORY``
    differences on the sphere product (d = 1) and ``AA_BLOCK_MEMORY`` on
    block problems.  An extrapolated evaluation that
    degenerates or raises the merit value is rejected as ``solve``
    describes; a plain one that degenerates ends the run
    ASSUMPTION_VIOLATED.  An accepted state updates the memory, meets the
    slack test if one is due, and then, at the residual stop, ``at_rest``
    if the test gave no status.

    With a ``check``, ``_solve`` tests the dual slack to the tolerance
    ``slack_tol`` by the schedule of ``slack_tests``, which it gives the
    residual ||C||_2 primal_res (a product, so that ||C||_2 = 0 does not
    divide).  The start is tested, and after it every accepted state with
    primal_res strictly below the floor, ``BLOCK_STOP_PRIMAL`` on a block
    problem (d > 1) and none at d = 1, that meets the residual stop or is
    due.  A rejected evaluation keeps the state and so its certificate.
    A status from the test ends the run wherever it comes.  A state at
    the residual stop that the test did not end ends the run CONVERGED,
    or meets ``at_rest`` where one is given.  Runs without a ``check``
    stop on the residuals alone.

    ``at_rest(state)`` runs after the test, not instead of it, on the
    states at the residual stop that the test did not end, and returns
    ``(state, cells, status)`` as ``advance`` does: a terminal Status ends
    the run at that state, and None goes on from it with a fresh Anderson
    memory (an escape).  ``columns`` is the trace schema of the hooks'
    cells."""
    options = options if options is not None else SolverOptions()
    state = init_state(problem, options, sigma0)
    C, n, d = problem.cost, problem.manifold.n, problem.manifold.d
    primal_tol = options.tol_primal * math.sqrt(n)
    norm_two = two_norm_estimate(C)
    floor = BLOCK_STOP_PRIMAL if d > 1 else math.inf
    depth = AA_BLOCK_MEMORY if d > 1 else AA_MEMORY
    memory = None if options.check_invariants else _Anderson(state, depth)
    test = None if check is None else slack_tests(problem, check, slack_tol)

    def advance(state):
        nonlocal memory
        z = None if memory is None else memory.extrapolate()
        try:
            new = step(state if z is None else memory.unpack(z, state), options, state)
        except AssumptionViolated as exc:
            if z is None:
                logger.warning("solve aborted: %s", exc)
                return state, None, Status.ASSUMPTION_VIOLATED
            new = None
        if new is None or (z is not None and not new.last_G <= state.last_G):
            memory.reset()
            return replace(state, k=state.k + 1, step_tilde=0.0, step_sigma=0.0), None, None
        if memory is not None:
            memory.update(memory.point() if z is None else z, new)
        at_stop = new.primal_res <= primal_tol and abs(new.last_G - state.last_G) <= (
            options.tol_obj * (1.0 + abs(new.last_G))
        )
        cells, stop = {}, None
        if test is not None and new.primal_res < floor:
            new, cells, stop = test(new, new.primal_res * norm_two, at_stop)
        if stop is not None or not at_stop:
            return new, cells, stop
        if at_rest is None:
            return new, cells, Status.CONVERGED
        new, cells, stop = at_rest(new)
        if stop is None and memory is not None:
            memory = _Anderson(new, depth)
        return new, cells, stop

    if test is not None:
        state, cells, stop = test(state)
        if stop is not None:
            return drive(state, lambda state: (state, cells, stop), 1, None, columns)
    return drive(state, advance, options.max_iter, options.time_budget, columns)


@dataclass
class OracleResult:
    value: float
    sigma: np.ndarray
    certificate: Certificate


def oracle_sdp(C, d=1, restarts=5, seed=0):
    """Desk-scale reference value for the SDP optimum, in place of an
    external solver.

    Solves at the nearly full rank min(n, ceil(sqrt(2 n)) + 2) from
    ``restarts`` (an integer >= 1) seeds, each with ``_solve`` to the
    residual tolerances tol_primal = 1e-10 and tol_obj = 1e-13 rather than
    to the first certificate, 50,000 iterations at most, and keeps the best
    certified result (ties broken by the lowest seed); if no restart
    certifies, the best value is returned with certificate.certified False
    rather than hidden.  Restart landscape
    guarantees are generic, not universal, hence the multiple starts.
    """
    n = C.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}, got n = {n}")
    require_integer("restarts", restarts, 1)
    r_full = min(n, math.ceil(math.sqrt(2 * n)) + 2)
    r_full = max(r_full, d + 1) if d > 1 else r_full
    problem = ProblemSpec.stiefel(C, d, r_full)
    results = []
    for t in range(restarts):
        options = SolverOptions(
            rho="practice",
            mu=0.0 if d == 1 else default_mu(C, "practice"),
            tol_primal=1e-10,
            tol_obj=1e-13,
            max_iter=50_000,
            seed=seed + t,
        )
        result = _solve(problem, options)
        cert = dual_certificate(C, result.state.sigma_tilde, d=d)
        results.append(
            OracleResult(value=cert.objective, sigma=result.state.sigma_tilde, certificate=cert)
        )
    # certified before uncertified, then the lowest value; min keeps the
    # first of equal keys, so ties go to the lowest seed
    return min(results, key=lambda res: (not res.certificate.certified, res.value))
