"""First- and second-order geometry of f(s) = <C, s s^T> on the sphere
product, and the solver variant that escapes saddle points along directions
of negative curvature.

With lam_i = <(C s)_i, s_i>, the tangent gradient and the Hessian quadratic
form used here are

    grad_i  = 2 [ (C s)_i - lam_i s_i ]
    <u, H u> = 2 <u, C u> - 2 sum_i lam_i ||u_i||^2

for tangent u.  Neither ever forms an n x n product.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import OffManifold, UnsupportedManifold
from .manifold import (
    ManifoldSpec,
    geodesic_step,
    manifold_violation,
    sphere_tangent,
    tangent_project,
)
from .solver import (
    Status,
    drive,
    init_state,
    kappa_constant,
    manifold_state,
    residuals,  # noqa: F401 - perfbench wraps layer functions in each caller's namespace
    step,
)
from .sparse import inf_norm, spmm, two_norm_estimate
from .trace import CURVATURE_COLUMNS

logger = logging.getLogger("bmadmm")

PROBE_FAILURE_PROB = 1e-3  # delta of the high-probability probe guarantee


@dataclass
class CurvatureReport:
    """Outcome of one negative-curvature probe.

    lambda_H is the Rayleigh quotient <u, Hess[u]> of the returned unit
    tangent direction u; it decreases monotonically toward the smallest
    Hessian eigenvalue as the probe iterates.  status is one of
    "negative_curvature", "eps_convex" or "inconclusive".
    """

    lambda_H: float
    u: np.ndarray
    lambda_min_estimate: float
    certified_eps_convex: bool
    probe_iterations: int
    eps: float
    status: str


def objective(C, sigma):
    """Cost value <C s, s> of a factor."""
    sigma = np.asarray(sigma, dtype=np.float64)
    return float(np.vdot(spmm(C, sigma), sigma))


def _row_dots(A, B):
    return np.sum(A * B, axis=1)


def riemannian_grad(C, sigma):
    """Tangent gradient of the cost on the sphere product (rows
    2 [(C s)_i - <(C s)_i, s_i> s_i]); requires unit rows."""
    sigma = np.asarray(sigma, dtype=np.float64)
    spec = ManifoldSpec.sphere(sigma.shape[0], sigma.shape[1])
    err = manifold_violation(spec, sigma)
    if err > 1e-8:
        raise OffManifold(f"factor is off the manifold by {err:.3e}")
    Cs = spmm(C, sigma)
    lam = _row_dots(Cs, sigma)
    return 2.0 * (Cs - lam[:, None] * sigma)


def hess_quadform(C, sigma, u):
    """Hessian quadratic form <u, Hess f(s)[u]> for a tangent direction u."""
    sigma = np.asarray(sigma, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    spec = ManifoldSpec.sphere(sigma.shape[0], sigma.shape[1])
    err = manifold_violation(spec, sigma)
    if err > 1e-8:
        raise OffManifold(f"factor is off the manifold by {err:.3e}")
    _require_tangent(sigma, u)
    Cs = spmm(C, sigma)
    lam = _row_dots(Cs, sigma)
    Cu = spmm(C, u)
    return 2.0 * float(np.vdot(u, Cu)) - 2.0 * float(
        lam @ (np.linalg.norm(u, axis=1) ** 2)
    )


def _require_tangent(sigma, u):
    viol = np.abs(_row_dots(sigma, u)) / np.maximum(1.0, np.linalg.norm(u, axis=1))
    worst = float(viol.max()) if viol.size else 0.0
    if worst > 1e-8:
        raise OffManifold(f"direction is not tangent (violation {worst:.3e})")


def negative_curvature_direction(
    C,
    sigma,
    eps,
    seed,
    max_iter=5000,
):
    """Probe the Hessian at a point of the sphere product for curvature
    below -eps.

    Runs a tangent-space power method on the shifted operator c I - Hess
    with c = 2 ||C||_2 + 2 ||C||_inf (an upper bound on the Hessian
    spectrum), re-projecting onto the tangent space each iteration.  The
    Rayleigh quotient lambda_H decreases monotonically; iteration stops at
    the theoretical budget O(log(n r / delta) / eps') or once progress
    stalls at rounding scale.  The sign of u is flipped so that
    <u, grad f> <= 0.

    Returns a CurvatureReport whose status is "negative_curvature" when
    lambda_H < -eps/2 (u is then a usable escape direction),
    "eps_convex" when the converged Rayleigh quotient certifies
    lambda_min >= -eps with probability >= 1 - 1e-3, and "inconclusive"
    when the budget ran out without either outcome.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    sigma = np.asarray(sigma, dtype=np.float64)
    n, r = sigma.shape
    spec = ManifoldSpec.sphere(n, r)
    err = manifold_violation(spec, sigma)
    if err > 1e-8:
        raise OffManifold(f"factor is off the manifold by {err:.3e}")
    c = 2.0 * two_norm_estimate(C) + 2.0 * inf_norm(C)

    Cs = spmm(C, sigma)
    lam = _row_dots(Cs, sigma)
    grad = 2.0 * (Cs - lam[:, None] * sigma)

    def hess_apply(u):
        Cu = spmm(C, u)
        return 2.0 * Cu - 2.0 * _row_dots(sigma, Cu)[:, None] * sigma - 2.0 * lam[
            :, None
        ] * u

    if c == 0.0:
        # zero cost: the Hessian vanishes identically
        u = tangent_project(spec, sigma, np.random.default_rng(seed).standard_normal((n, r)))
        u /= max(np.linalg.norm(u), np.finfo(float).tiny)
        return CurvatureReport(0.0, u, 0.0, True, 0, eps, "eps_convex")

    budget = min(
        max_iter,
        max(32, math.ceil(4.0 * c / eps * math.log(n * r / PROBE_FAILURE_PROB))),
    )
    rng = np.random.default_rng(seed)
    u = tangent_project(spec, sigma, rng.standard_normal((n, r)))
    u /= np.linalg.norm(u)
    Hu = hess_apply(u)
    lam_H = float(np.vdot(u, Hu))
    history = [lam_H]
    # the Rayleigh quotient is monotone; declare convergence once a window
    # of iterations moves it by less than a small fraction of eps
    stall_window = 12
    stall_tol = max(1e-12 * c, 1e-3 * eps)
    min_iterations = 48
    stalled = False
    iterations = 0
    for iterations in range(1, budget + 1):
        # sigma was checked on entry; skip tangent_project's re-check
        w = sphere_tangent(sigma, c * u - Hu)
        norm_w = float(np.linalg.norm(w))
        if norm_w <= 1e-300:
            stalled = True  # u spans an exact eigenvector of the shifted operator
            break
        u = w / norm_w
        Hu = hess_apply(u)
        lam_H = float(np.vdot(u, Hu))
        history.append(lam_H)
        if (
            iterations >= min_iterations
            and history[-1 - stall_window] - lam_H <= stall_tol
        ):
            stalled = True
            break

    if float(np.vdot(u, grad)) > 0.0:
        u = -u
    if lam_H < -eps / 2.0:
        status = "negative_curvature"
    elif stalled:
        status = "eps_convex"
    else:
        status = "inconclusive"
    return CurvatureReport(
        lambda_H=lam_H,
        u=u,
        lambda_min_estimate=lam_H,
        certified_eps_convex=status == "eps_convex",
        probe_iterations=iterations,
        eps=eps,
        status=status,
    )


def escape_step(C, sigma, report, check=False):
    """Geodesic move along a certified negative-curvature direction.

    Uses the adaptive step t = -2 lambda_H / (15 ||C||_1) (> 0), which
    guarantees a cost decrease of at least -2 lambda_H^3 / (675 ||C||_1^2);
    the guarantee is asserted when ``check`` is on.  Requires
    report.lambda_H < -eps/2.
    """
    if not report.lambda_H < -report.eps / 2.0:
        raise ValueError(
            f"escape requires lambda_H < -eps/2, got lambda_H={report.lambda_H}"
            f" with eps={report.eps}"
        )
    sigma = np.asarray(sigma, dtype=np.float64)
    norm_one = inf_norm(C)
    if norm_one <= 0:
        raise ValueError("zero cost matrix has no curvature to exploit")
    t = -2.0 * report.lambda_H / (15.0 * norm_one)
    spec = ManifoldSpec.sphere(sigma.shape[0], sigma.shape[1])
    sigma_new = geodesic_step(spec, sigma, report.u, t)
    if check:
        drop = objective(C, sigma) - objective(C, sigma_new)
        guaranteed = -2.0 * report.lambda_H**3 / (675.0 * norm_one**2)
        if drop < guaranteed - 1e-9:
            from .errors import InvariantViolation

            raise InvariantViolation(
                f"escape decrease {drop:.3e} below guarantee {guaranteed:.3e}",
                diagnostics={"lambda_H": report.lambda_H, "t": t},
            )
    return sigma_new


def solve_with_curvature(problem, options=None, eps=1e-2, sigma0=None, delta=None):
    """Splitting solver interleaved with negative-curvature escapes.

    Takes ordinary solver steps while the merit value drops by at least
    ``delta`` per iteration.  When progress stalls, probes the Hessian at
    the current manifold iterate: a direction with lambda_H < -eps/2
    triggers a geodesic escape (after which s and y are reset to the moved
    point and its cost product), otherwise the point is returned as
    eps-approximately convex.  Inconclusive probes fall back to plain
    iteration.  The iteration count is capped by the two-phase budget
    T1 + T2 derived from the decrease guarantees (and by max_iter), and
    the run by ``options.time_budget``.

    Only defined on the sphere product (d = 1).  Returns a SolveResult with
    status EPS_CONVEX or MAX_ITER and the last probe report attached.
    """
    from .solver import SolverOptions

    options = options if options is not None else SolverOptions()
    if problem.manifold.d != 1:
        raise UnsupportedManifold("curvature exploitation is defined for d = 1 only")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    state = init_state(problem, options, sigma0)
    C = problem.cost
    n = problem.manifold.n

    kappa_eff = _effective_kappa(state, options)
    if delta is None:
        delta = kappa_eff * eps * eps
    # two-phase iteration budget; the merit floor makes the first term safe
    # even for negative starting costs
    t1_float = (state.last_objective + n * state.norm_inf) / (kappa_eff * eps * eps)
    t1 = max(1, math.ceil(t1_float)) if math.isfinite(t1_float) else options.max_iter
    t2 = math.ceil(675.0 * state.norm_inf**2 * n / eps**2)
    budget = min(options.max_iter, t1 + t2)

    report = None
    probe_cooldown = 0  # plain iterations forced after an inconclusive probe

    def advance(previous):
        nonlocal report, probe_cooldown
        candidate = step(previous, options)
        if previous.last_G - candidate.last_G >= delta or probe_cooldown > 0:
            probe_cooldown = max(0, probe_cooldown - 1)
            return candidate, {}, None
        probe_seed = int(
            np.random.SeedSequence((options.seed, previous.k)).generate_state(1)[0]
        )
        report = negative_curvature_direction(C, previous.sigma_tilde, eps, probe_seed)
        cells = {"probe_performed": 1, "lambda_H": report.lambda_H}
        if report.status == "negative_curvature":
            moved = escape_step(
                C, previous.sigma_tilde, report, check=options.check_invariants
            )
            escaped = manifold_state(moved, spmm(C, moved), previous)
            return escaped, {**cells, "escaped": 1}, None
        if report.status == "eps_convex":
            return previous, cells, Status.EPS_CONVEX
        logger.info(
            "inconclusive curvature probe at k=%d (lambda_H=%.3e); "
            "continuing plain iteration",
            previous.k,
            report.lambda_H,
        )
        probe_cooldown = 25
        return candidate, cells, None

    result = drive(
        state, advance, budget, options.trace_every, options.time_budget, CURVATURE_COLUMNS
    )
    result.report = report
    return result


def _effective_kappa(state, options):
    """min(kappa ||C||_2, rho/2) with kappa from the constants valid at the
    actual penalty; falls back to the default-constant value when the
    penalty sits below the provable regime."""
    if state.norm_inf > 0 and state.norm_two > 0:
        alpha_eff = state.rho / state.norm_inf
        beta_eff = state.rho / state.norm_two
        kap = kappa_constant(alpha_eff, beta_eff)
    else:
        kap = 0.0
    if kap <= 0.0:
        kap = kappa_constant(options.alpha, options.beta)
    kappa_eff = min(kap * state.norm_two, state.rho / 2.0)
    return max(kappa_eff, np.finfo(float).tiny)

