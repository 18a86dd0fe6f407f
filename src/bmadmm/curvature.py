"""First- and second-order geometry of f(s) = <C, s s^T> on the sphere
product, and the solver variant that escapes saddle points along directions
of negative curvature.

With lam_i = <(C s)_i, s_i> and the dual slack S = C - Diag(lam), the
tangent gradient and the Hessian quadratic form used here are

    grad_i  = 2 [ (C s)_i - lam_i s_i ]
    <u, H u> = 2 <u, C u> - 2 sum_i lam_i ||u_i||^2 = 2 <u, S u>

for tangent u; neither forms an n x n product.  So lambda_min(S) >= -eps/2
proves eps-convexity, and S's negative eigenvectors paired with the null
space of a rank-deficient factor give escape directions (Journee, Bach,
Absil & Sepulchre, SIAM J. Optim. 2010).
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
from .certify import slack_matrix
from .solver import SolverOptions, Status, _solve, manifold_state
# perfbench wraps layer functions in each caller's namespace
from .solver import init_state, residuals, step  # noqa: F401
from .sparse import bottom_eigenpairs, inf_norm, spmm, two_norm_estimate
from .trace import CURVATURE_COLUMNS

logger = logging.getLogger("bmadmm")

PROBE_FAILURE_PROB = 1e-3  # delta of the high-probability probe guarantee
MAX_HALVINGS = 60  # step halvings an escape tries after t = 1


@dataclass
class CurvatureReport:
    """Outcome of one curvature test, by the power probe or from the slack.

    lambda_H is the Rayleigh quotient <u, Hess[u]> of the returned unit
    tangent direction u (for the probe it decreases monotonically toward
    the smallest Hessian eigenvalue as the probe iterates), or the bound
    2 lambda_min(S) of a slack certificate.  status is one of
    "negative_curvature", "eps_convex" or "inconclusive".
    """

    lambda_H: float
    u: np.ndarray
    probe_iterations: int
    eps: float
    status: str


def objective(C, sigma):
    """Cost value <C s, s> of a factor."""
    sigma = np.asarray(sigma, dtype=np.float64)
    return float(np.vdot(spmm(C, sigma), sigma))


def _sphere_point(sigma):
    """A factor as a float array with its sphere-product spec; raises
    OffManifold unless its rows are unit to 1e-8."""
    sigma = np.asarray(sigma, dtype=np.float64)
    spec = ManifoldSpec.sphere(*sigma.shape)
    err = manifold_violation(spec, sigma)
    if err > 1e-8:
        raise OffManifold(f"factor is off the manifold by {err:.3e}")
    return sigma, spec


def _row_dots(A, B):
    return np.sum(A * B, axis=1)


def riemannian_grad(C, sigma):
    """Tangent gradient of the cost on the sphere product (rows
    2 [(C s)_i - <(C s)_i, s_i> s_i]); requires unit rows."""
    sigma, _ = _sphere_point(sigma)
    Cs = spmm(C, sigma)
    lam = _row_dots(Cs, sigma)
    return 2.0 * (Cs - lam[:, None] * sigma)


def hess_quadform(C, sigma, u):
    """Hessian quadratic form <u, Hess f(s)[u]> for a tangent direction u."""
    sigma, _ = _sphere_point(sigma)
    u = np.asarray(u, dtype=np.float64)
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


def negative_curvature_direction(C, sigma, eps, seed):
    """Probe the Hessian at a point of the sphere product for curvature
    below -eps.

    Runs a tangent-space power method on the shifted operator c I - Hess
    with c = 2 ||C||_2 + 2 ||C||_inf (an upper bound on the Hessian
    spectrum), re-projecting onto the tangent space each iteration.  The
    Rayleigh quotient lambda_H decreases monotonically; iteration stops at
    the theoretical budget O(log(n r / delta) / eps'), capped at 5,000
    iterations, or once progress stalls at rounding scale.  The sign of u
    is flipped so that <u, grad f> <= 0.

    Returns a CurvatureReport whose status is "negative_curvature" when
    lambda_H < -eps/2 (u is then a usable escape direction),
    "eps_convex" when the Rayleigh quotient stalled above -eps/2, and
    "inconclusive" when the budget ran out without either outcome.  A
    stall is not a proof: the power method can stall far above the
    smallest eigenvalue.  ``solve_with_curvature`` trusts this verdict only
    at a full-rank factor, where the dual slack gives no escape direction.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    sigma, spec = _sphere_point(sigma)
    n, r = sigma.shape
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
        return CurvatureReport(0.0, u, 0, eps, "eps_convex")

    budget = min(
        5_000,
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
        probe_iterations=iterations,
        eps=eps,
        status=status,
    )


def escape_step(C, sigma, report):
    """Geodesic move along a negative-curvature direction.

    Takes the step t = 1 along report.u and halves t while the cost misses
    the decrease f(t) < f(0) + lambda_H t^2 / 4, at most ``MAX_HALVINGS``
    times.  The test is strict, so a step too short to change f in
    floating point never passes.  Requires report.lambda_H < -eps/2.
    Returns the moved factor, its cost product C s and t, or None when no
    step passes.
    """
    if not report.lambda_H < -report.eps / 2.0:
        raise ValueError(
            f"escape requires lambda_H < -eps/2, got lambda_H={report.lambda_H}"
            f" with eps={report.eps}"
        )
    sigma, spec = _sphere_point(sigma)
    f0 = objective(C, sigma)
    t = 1.0
    for _ in range(MAX_HALVINGS + 1):
        moved = geodesic_step(spec, sigma, report.u, t)
        cost_moved = spmm(C, moved)
        if float(np.vdot(cost_moved, moved)) < f0 + 0.25 * report.lambda_H * t * t:
            return moved, cost_moved, t
        t *= 0.5
    return None


def slack_direction(C, sigma, cost_sigma, eps):
    """Curvature test of a point s of the sphere product from the dual
    slack S, given C s.  lambda_min(S) >= -eps/2 gives status "eps_convex"
    with lambda_H = 2 lambda_min(S).  Otherwise u is the unit tangent part
    of V W^T, turned against the gradient: V holds the m eigenvectors of S
    below -eps/2 and W the right singular vectors of s for its m smallest
    singular values.  At a rank-deficient s, V W^T is tangent already and
    lambda_H = <u, Hess u> is the mean of those eigenvalues, doubled; at
    full rank it may be ">= -eps/2", and the status is "inconclusive".
    """
    n, r = sigma.shape
    lam = _row_dots(cost_sigma, sigma)
    slack = slack_matrix(C, lam)
    values, vectors = bottom_eigenpairs(slack, min(r, n))
    if values[0] >= -eps / 2.0:
        lam_H = 2.0 * float(values[0])
        return CurvatureReport(lam_H, np.zeros_like(sigma), 0, eps, "eps_convex")
    m = int(np.count_nonzero(values < -eps / 2.0))
    W = np.linalg.eigh(sigma.T @ sigma)[1][:, :m]
    spec = ManifoldSpec.sphere(n, r)
    u = tangent_project(spec, sigma, vectors[:, :m] @ W.T)
    u /= max(np.linalg.norm(u), np.finfo(float).tiny)
    if float(np.vdot(u, cost_sigma - lam[:, None] * sigma)) > 0.0:
        u = -u
    lam_H = 2.0 * float(np.vdot(u, spmm(slack, u)))
    status = "negative_curvature" if lam_H < -eps / 2.0 else "inconclusive"
    return CurvatureReport(lam_H, u, 0, eps, status)


def solve_with_curvature(problem, options=None, eps=1e-2, sigma0=None):
    """``solve`` with ``slack_direction`` run wherever it would return
    CONVERGED: an eps-convex point ends the run, and a direction with
    lambda_H < -eps/2 is taken by ``escape_step``, after which the loop
    goes on from the moved point with y = C s and a fresh Anderson memory.
    An inconclusive slack test (full rank) falls back to the power probe
    ``negative_curvature_direction``.  ``options.max_iter`` and
    ``options.time_budget`` bound the solve phases and escapes together.

    Only defined on the sphere product (d = 1).  The status is EPS_CONVEX,
    STALLED (an inconclusive probe, or an escape step that found no
    decrease), MAX_ITER or ASSUMPTION_VIOLATED.
    """
    options = options if options is not None else SolverOptions()
    if problem.manifold.d != 1:
        raise UnsupportedManifold("curvature exploitation is defined for d = 1 only")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    C = problem.cost

    def at_rest(state):
        sigma = state.sigma_tilde
        report = slack_direction(C, sigma, state.cost_sigma_tilde, eps)
        if report.status == "inconclusive":
            probe_seed = int(
                np.random.SeedSequence((options.seed, state.k)).generate_state(1)[0]
            )
            report = negative_curvature_direction(C, sigma, eps, probe_seed)
        cells = {"probe_performed": 1, "lambda_H": report.lambda_H}
        if report.status == "eps_convex":
            return state, cells, Status.EPS_CONVEX
        if report.status == "negative_curvature":
            escaped = escape_step(C, sigma, report)
            if escaped is not None:
                moved, cost_moved, _ = escaped
                return manifold_state(moved, cost_moved, state), {**cells, "escaped": 1}, None
        logger.info("curvature test stalled at k=%d (lambda_H=%.3e)", state.k, report.lambda_H)
        return state, cells, Status.STALLED

    return _solve(problem, options, sigma0, at_rest, CURVATURE_COLUMNS)
