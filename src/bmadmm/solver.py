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
    y'     = y + rho * (st' - s')

started from s = st on the manifold and y = C st, which keeps y = C st
at every iterate.  Each iteration costs exactly two sparse products.

``solve`` accelerates this fixed-point iteration with safeguarded type-II
Anderson acceleration (Walker & Ni 2011) on z = (s, y/rho), or
(st, s, y/rho) when mu > 0: each iteration evaluates the kernel once, at
an extrapolation of the last ``AA_MEMORY`` iterates, and keeps the result
only if it does not raise the merit value (the safeguard of Zhang, Peng,
Ouyang & Deng 2019).  A rejected evaluation still costs its products and
counts as an iteration.  ``solve_with_curvature`` runs the same loop
through ``_solve``, with a curvature test where it converges.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import (
    AssumptionViolated,
    DegenerateProjection,
    DimensionMismatch,
    InvariantViolation,
    OffManifold,
)
from .manifold import ManifoldSpec, manifold_violation, project, random_point
from .sparse import SparseSymMatrix, inf_norm, spmm, two_norm_estimate
from .trace import BASE_COLUMNS, Trace, TraceRecord

logger = logging.getLogger("bmadmm")

AA_MEMORY = 5  # residual differences kept by the Anderson acceleration of solve
# Multiples of ||C||_inf and ||C||_2 in the "theory" penalty
# max(ALPHA ||C||_inf, BETA ||C||_2), and the constants of its decrease
# bound: kappa_constant(ALPHA, BETA) = 0.08 > 0.
ALPHA, BETA = 10.0, 2.0


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    TIME_BUDGET = "time_budget"
    ASSUMPTION_VIOLATED = "assumption_violated"
    EPS_CONVEX = "eps_convex"
    STALLED = "stalled"


@dataclass(frozen=True)
class ProblemSpec:
    """Cost matrix plus the block structure and rank of the factorization."""

    cost: SparseSymMatrix
    manifold: ManifoldSpec

    def __post_init__(self):
        if self.cost.n != self.manifold.n:
            raise DimensionMismatch(
                f"cost matrix dimension {self.cost.n} does not match "
                f"manifold dimension {self.manifold.n}"
            )

    @classmethod
    def sphere(cls, cost, r=None):
        return cls(cost, ManifoldSpec.sphere(cost.n, r))

    @classmethod
    def stiefel(cls, cost, d, r=None):
        if cost.n % d:
            raise DimensionMismatch(f"dimension {cost.n} is not a multiple of d={d}")
        return cls(cost, ManifoldSpec.stiefel(cost.n // d, d, r))


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
    check_invariants : bool
        Verify the runtime descent/floor/link invariants each iteration.
        Violations abort with diagnostics under a "theory" rho and are
        logged otherwise.
    time_budget : float, optional
        Stop with status TIME_BUDGET after the first iteration that ends
        more than this many seconds (>= 0) after the iterations began.
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
        # each test is written so that NaN fails it
        if isinstance(self.rho, str):
            if self.rho not in ("theory", "practice"):
                raise ValueError(f"unknown rho mode {self.rho!r}")
        elif not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not (self.tol_primal > 0 and self.tol_obj > 0):
            raise ValueError(f"tolerances must be > 0, got {self.tol_primal}, {self.tol_obj}")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time_budget must be >= 0, got {self.time_budget}")


@dataclass
class SolverState:
    """Full iterate of the solver at iteration k.

    ``cost_sigma_tilde`` caches C @ sigma_tilde from the step that produced
    the iterate.  ``primal_res`` is ||sigma_tilde - sigma||_F, and
    ``step_tilde`` and ``step_sigma`` are the Frobenius norms of the moves
    of sigma_tilde and sigma from the previous iterate; all three are set
    by whatever builds the state and are zero at a start with
    sigma = sigma_tilde and no previous iterate.
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
    cost_sigma_tilde: np.ndarray | None = None
    primal_res: float = 0.0
    step_tilde: float = 0.0
    step_sigma: float = 0.0


@dataclass
class SolveResult:
    state: SolverState
    trace: Trace
    status: Status


def default_rho(C, mode):
    """Penalty parameter for a cost matrix.

    mode "theory" -> max(ALPHA ||C||_inf, BETA ||C||_2); mode "practice"
    -> ||C||_2.  A zero cost matrix is rejected (the penalty must be > 0).
    """
    norm_two = two_norm_estimate(C)
    norm_inf_ = inf_norm(C)
    if norm_two <= 0.0 or norm_inf_ <= 0.0:
        raise ValueError("cost matrix is zero; the penalty must be positive")
    if mode == "theory":
        return float(max(ALPHA * norm_inf_, BETA * norm_two))
    if mode == "practice":
        return float(norm_two)
    raise ValueError(f"unknown rho mode {mode!r}")


def default_mu(C, rho):
    """Proximal weight 1.01 ||C||_2^2 / rho when none was given: just
    above the bound mu > ||C||_2^2 / rho of the proximal descent
    condition, for a penalty mode or an explicit penalty alike."""
    if isinstance(rho, str):
        rho = default_rho(C, rho)
    return 1.01 * two_norm_estimate(C) ** 2 / rho


def init_state(problem, options, sigma0=None):
    """Initial state: st = s on the manifold (seeded random unless a warm
    start is given) and y = C st.  Warm starts must lie on the manifold;
    y is always reset to C st to preserve the dual link."""
    C = problem.cost
    man = problem.manifold
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
    if sigma0 is None:
        st = random_point(man, options.seed)
    else:
        st = np.array(sigma0, dtype=np.float64)
        if st.shape != (man.n, man.r):
            raise DimensionMismatch(
                f"warm start shape {st.shape} does not match ({man.n}, {man.r})"
            )
        err = manifold_violation(man, st)
        if err > 1e-8:
            raise OffManifold(f"warm start is off the manifold by {err:.3e}")
    return manifold_state(st, spmm(C, st), problem=problem, rho=rho, mu=mu)


def manifold_state(st, cost_st, previous=None, **fields):
    """State at a point st of the manifold with sigma = st and y = C st,
    given as ``cost_st``; its merit value is the objective <C st, st>.
    sigma and y are the arrays st and cost_st themselves: no iterate is
    ever changed in place.

    After ``previous`` the state takes that iterate's problem and
    parameters, counts one iteration more and measures the step norms
    from it; without one, ``fields`` give the problem and parameters and
    k = 0.  ``fields`` override either way.
    """
    if previous is not None:
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
    objective = float(np.vdot(cost_st, st))
    return SolverState(
        sigma_tilde=st,
        sigma=st,
        y=cost_st,
        last_G=objective,
        last_objective=objective,
        cost_sigma_tilde=cost_st,
        **fields,
    )


def gamma(state, C_sigma):
    """Pre-projection update point of the manifold block, given the
    product C s.

    With mu = 0 this is s - (y + C s) / rho; with mu > 0 the proximal form
    (mu st + rho s - (y + C s)) / (rho + mu).  The two coincide at mu = 0.
    """
    mu = state.mu
    if mu == 0.0:
        return state.sigma - (state.y + C_sigma) / state.rho
    return (mu * state.sigma_tilde + state.rho * state.sigma - (state.y + C_sigma)) / (
        state.rho + mu
    )


def step(state, options):
    """One iteration of the splitting kernel; returns the new state.

    Exactly two sparse products: C s for the update point and C st' for the
    s- and y-updates.  A collapsed gamma block raises AssumptionViolated
    naming the block and the iteration.  The norms that ``residuals``
    reports are computed here and stored on the new state.
    """
    problem = state.problem
    man = problem.manifold
    rho = state.rho
    C_sigma = spmm(problem.cost, state.sigma)
    gam = gamma(state, C_sigma)
    gamma_norms = np.linalg.norm(gam, axis=1)
    min_gamma = float(gamma_norms.min())
    try:
        sigma_tilde_new = project(man, gam, gamma_norms)
    except DegenerateProjection as exc:
        raise AssumptionViolated(
            f"degenerate update block {exc.block} at iteration {state.k}",
            block=exc.block,
            iteration=state.k,
        ) from None
    cost_st_new = spmm(problem.cost, sigma_tilde_new)
    sigma_new = sigma_tilde_new + (state.y - cost_st_new) / rho
    diff = sigma_tilde_new - sigma_new
    y_new = state.y + rho * diff
    objective_new = float(np.vdot(cost_st_new, sigma_tilde_new))
    diff_sq = float(np.vdot(diff, diff))
    G_new = objective_new + 0.5 * rho * diff_sq
    new_state = SolverState(
        problem=problem,
        sigma_tilde=sigma_tilde_new,
        sigma=sigma_new,
        y=y_new,
        rho=rho,
        mu=state.mu,
        k=state.k + 1,
        last_G=G_new,
        last_objective=objective_new,
        last_min_gamma=min_gamma,
        cost_sigma_tilde=cost_st_new,
        primal_res=math.sqrt(diff_sq),
        step_tilde=frobenius(sigma_tilde_new - state.sigma_tilde),
        step_sigma=frobenius(sigma_new - state.sigma),
    )
    if options.check_invariants:
        _check_invariants(state, new_state, options.rho == "theory")
    return new_state


def frobenius(X):
    """||X||_F, bit-identical to np.linalg.norm(X) for a contiguous array."""
    return math.sqrt(float(np.vdot(X, X)))


def merit_value(state):
    """Merit value <C st, st> + (rho/2) ||st - s||_F^2, the augmented
    Lagrangian with the multiplier eliminated through y = C st.  Errors if
    st is off the manifold."""
    err = manifold_violation(state.problem.manifold, state.sigma_tilde)
    if err > 1e-8:
        raise OffManifold(f"sigma_tilde is off the manifold by {err:.3e}")
    if state.cost_sigma_tilde is not None:
        Cst = state.cost_sigma_tilde
    else:
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
    they provably hold.  Raise under a theory-mode penalty (``theory``
    True), log otherwise.  The norms of C are cached lookups."""
    problem = new.problem
    n = problem.manifold.n
    norm_two = two_norm_estimate(problem.cost)
    norm_inf_ = inf_norm(problem.cost)
    diag = {"k": new.k}
    failures = []

    # dual link y = C st (every iterate >= 1)
    link_err = float(np.linalg.norm(new.y - new.cost_sigma_tilde))
    link_tol = 1e-10 * norm_two * math.sqrt(n)
    if link_err > link_tol:
        failures.append(f"dual link ||y - C st|| = {link_err:.3e} > {link_tol:.3e}")

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
            if theory:
                alpha_eff, beta_eff = ALPHA, BETA
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
    the same extrapolation.  It holds the last ``AA_MEMORY`` differences dF
    of f in a ring buffer, their Gram matrix and their inner products with
    the current f, both updated by one matrix product per new difference,
    and, in a second ring, the last ``AA_MEMORY + 1`` map values g = T(z)
    that the differences come from.  Everything is allocated once.
    """

    def __init__(self, state):
        self.blocks = 3 if state.mu > 0.0 else 2
        self.shape = state.sigma.shape
        self.y_part = slice((self.blocks - 1) * state.sigma.size, None)
        self.scale = 1.0 / state.rho
        size = self.blocks * state.sigma.size
        self.G = np.zeros((AA_MEMORY + 1, size))
        # rows 0..AA_MEMORY-1: the dF ring; the last two in turn hold the
        # current f and the next point, which becomes the next f
        self.F = np.empty((AA_MEMORY + 2, size))
        self.gram = np.empty((AA_MEMORY, AA_MEMORY))
        self.rhs = None  # inner products of the stored dF with the current f
        self.scratch = np.empty(self.shape)
        # G slots of the later and the earlier end of each difference
        self.later = [0] * AA_MEMORY
        self.earlier = [0] * AA_MEMORY
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

    def distance(self, a, b):
        """||a - b||_F, as ``frobenius`` computes it."""
        np.subtract(a, b, out=self.scratch)
        return frobenius(self.scratch)

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
        F = self.F
        slot = (self.current + 1) % (AA_MEMORY + 1)
        self.pack(state, slot)
        fresh = AA_MEMORY + self.updates % 2
        f = F[fresh]
        np.subtract(self.G[slot], z, out=f)
        f[self.y_part] *= self.scale
        if self.updates:
            j = self.head
            np.subtract(f, F[2 * AA_MEMORY + 1 - fresh], out=F[j])
            self.later[j] = slot
            self.earlier[j] = self.current
            self.head = (j + 1) % AA_MEMORY
            self.count = m = min(self.count + 1, AA_MEMORY)
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
        weights = [0.0] * (AA_MEMORY + 1)
        weights[self.current] = 1.0
        for c, later, earlier in zip(coef, self.later, self.earlier):
            weights[later] -= c
            weights[earlier] += c
        return np.dot(weights, self.G, out=self.F[AA_MEMORY + self.updates % 2])


def solve(problem, options=None, sigma0=None):
    """Run the splitting solver until the primal residual and the merit
    change fall under their tolerances, the iteration or time budget runs
    out, or an update block degenerates.

    Each iteration is one ``step``, taken at a type-II Anderson
    extrapolation (memory ``AA_MEMORY``) of the fixed-point variable
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
    return _solve(problem, options, sigma0)


def _solve(problem, options=None, sigma0=None, at_rest=None, columns=BASE_COLUMNS):
    """``solve``, with a hook on the states where it would return
    CONVERGED.  ``at_rest(state)`` returns ``(state, cells, status)`` as a
    step of ``drive`` does: a terminal Status ends the run at that state,
    and None goes on from it with a fresh Anderson memory.  ``columns``
    is the trace schema of the hook's cells."""
    options = options if options is not None else SolverOptions()
    state = init_state(problem, options, sigma0)
    primal_tol = options.tol_primal * math.sqrt(problem.manifold.n)

    def stopped(new, old):
        return new.primal_res <= primal_tol and abs(new.last_G - old.last_G) <= (
            options.tol_obj * (1.0 + abs(new.last_G))
        )

    def advance(state):
        try:
            new = step(state, options)
        except AssumptionViolated as exc:
            logger.warning("solve aborted: %s", exc)
            return state, None, Status.ASSUMPTION_VIOLATED
        return new, {}, Status.CONVERGED if stopped(new, state) else None

    memory = None if options.check_invariants else _Anderson(state)

    def rejected(state):
        memory.reset()
        return replace(state, k=state.k + 1, step_tilde=0.0, step_sigma=0.0), None, None

    def accelerated(state):
        z = memory.extrapolate()
        if z is None:
            new, cells, stop = advance(state)
            if cells is not None:
                memory.update(memory.point(), new)
            return new, cells, stop
        try:
            new = step(memory.unpack(z, state), options)
        except AssumptionViolated:
            return rejected(state)
        if not new.last_G <= state.last_G:
            return rejected(state)
        if memory.blocks == 3:
            new.step_tilde = memory.distance(new.sigma_tilde, state.sigma_tilde)
        new.step_sigma = memory.distance(new.sigma, state.sigma)
        memory.update(z, new)
        return new, {}, Status.CONVERGED if stopped(new, state) else None

    iterate = advance if memory is None else accelerated

    def resting(state):
        nonlocal memory
        new, cells, stop = iterate(state)
        if stop is Status.CONVERGED and at_rest is not None:
            new, cells, stop = at_rest(new)
            if stop is None and memory is not None:
                memory = _Anderson(new)
        return new, cells, stop

    return drive(state, resting, options.max_iter, options.time_budget, columns)
