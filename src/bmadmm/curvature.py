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
Absil & Sepulchre, SIAM J. Optim. 2010).  At a full-rank factor, where the
slack gives no direction, one LOBPCG solve on the tangent-projected
Hessian probes the curvature instead.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OffManifold, UnsupportedManifold
from .manifold import (
    ON_MANIFOLD_TOL,
    factor_point,
    geodesic_step,
    sphere_tangent,
    tangent_project,
)
from .certify import dense_slack, multipliers, objective
from .solver import SolverOptions, Status, _solve, manifold_state, require_finite
from .sparse import bottom_eigenpairs, spmm
# perfbench wraps layer functions in each caller's namespace
from .solver import init_state, residuals, step  # noqa: F401
from .sparse import two_norm_estimate  # noqa: F401
from .trace import CURVATURE_COLUMNS

logger = logging.getLogger("bmadmm")

PROBE_MAXITER = 500  # LOBPCG iterations of one curvature probe
MAX_HALVINGS = 60  # step halvings an escape tries after t = 1


@dataclass
class CurvatureReport:
    """Outcome of one curvature test, by the LOBPCG probe or from the slack.

    lambda_H is the Rayleigh quotient <u, Hess[u]> of the returned unit
    tangent direction u (for the probe, a Ritz value of the smallest
    Hessian eigenvalue), or 0 where u is 0.  probe_iterations counts the
    probe's Hessian products (0 for a slack direction).  status is one of
    "negative_curvature", "eps_convex" (from the probe only) or
    "inconclusive".
    """

    lambda_H: float
    u: np.ndarray
    probe_iterations: int
    eps: float
    status: str


def riemannian_grad(C, sigma):
    """Tangent gradient of the cost on the sphere product (rows
    2 [(C s)_i - <(C s)_i, s_i> s_i]); requires unit rows."""
    sigma, _ = factor_point(C, sigma)
    return 2.0 * sphere_tangent(sigma, spmm(C, sigma))


def hess_quadform(C, sigma, u):
    """Hessian quadratic form <u, Hess f(s)[u]> for a tangent direction u."""
    sigma, _ = factor_point(C, sigma)
    u = np.asarray(u, dtype=np.float64)
    _require_tangent(sigma, u)
    Cs = spmm(C, sigma)
    lam, _ = multipliers(sigma, Cs)
    Cu = spmm(C, u)
    return 2.0 * float(np.vdot(u, Cu)) - 2.0 * float(
        lam @ (np.linalg.norm(u, axis=1) ** 2)
    )


def _require_tangent(sigma, u):
    viol = np.abs(np.sum(sigma * u, axis=1)) / np.maximum(1.0, np.linalg.norm(u, axis=1))
    worst = float(viol.max()) if viol.size else 0.0
    if not worst <= ON_MANIFOLD_TOL:
        raise OffManifold(f"direction is not tangent (violation {worst:.3e})")


def negative_curvature_direction(C, sigma, eps, seed):
    """Probe the Hessian at a point of the sphere product for curvature
    below -eps.

    One LOBPCG solve (Knyazev 2001) for the smallest eigenpair of the
    tangent-projected Hessian x -> 2 P(C P x - lam P x), from a seeded
    random tangent start, to tolerance eps/8 in at most ``PROBE_MAXITER``
    iterations.  lambda_H = <u, Hess u> and the residual
    ||Hess u - lambda_H u|| of the unit tangent result u are recomputed
    here, and u is turned so that <u, grad f> <= 0.  The status is
    "negative_curvature" when lambda_H < -eps/2 (u is an escape
    direction), "eps_convex" when the residual is <= eps/4 (a Hessian
    eigenvalue lies within eps/4 of lambda_H >= -eps/2), and
    "inconclusive" otherwise.  lambda_H is a converged Ritz value from a
    random start, not a certificate: a start nearly orthogonal to the
    bottom eigenvector can converge to a higher one.
    ``solve_with_curvature`` runs the probe only at a full-rank factor,
    where the dual slack gives no escape direction.  probe_iterations
    counts Hessian products.  eps must be finite and > 0; any other value
    raises ValueError.
    """
    # imported here: scipy.sparse.linalg adds about 2 MB to every process
    # that imports bmadmm, and only full-rank curvature tests need it
    from scipy.sparse.linalg import LinearOperator, lobpcg

    require_finite("eps", eps)
    sigma, spec = factor_point(C, sigma)
    n, r = sigma.shape
    if r == 1:
        # the tangent space is {0}: there is no curvature to probe
        return CurvatureReport(0.0, np.zeros_like(sigma), 0, eps, "eps_convex")

    Cs = spmm(C, sigma)
    lam, _ = multipliers(sigma, Cs)
    products = 0

    def hess_apply(x):
        nonlocal products
        products += 1
        # sigma was checked on entry; skip tangent_project's re-check
        u = sphere_tangent(sigma, x.reshape(n, r))
        return sphere_tangent(sigma, 2.0 * (spmm(C, u) - lam[:, None] * u))

    hessian = LinearOperator(
        (n * r, n * r), matvec=lambda x: hess_apply(x).ravel(), dtype=np.float64
    )
    start = tangent_project(spec, sigma, np.random.default_rng(seed).standard_normal((n, r)))
    with warnings.catch_warnings():
        # a missed tolerance shows in the residual checked below
        warnings.simplefilter("ignore", UserWarning)
        _, vectors = lobpcg(
            hessian, start.reshape(-1, 1), tol=eps / 8.0, maxiter=PROBE_MAXITER, largest=False
        )
    u = sphere_tangent(sigma, vectors[:, 0].reshape(n, r))
    norm_u = float(np.linalg.norm(u))
    if norm_u <= 1e-8:
        # tiny problems get a dense solve, whose bottom eigenvector can be
        # normal at eigenvalue 0: no tangent direction lies below 0
        return CurvatureReport(0.0, np.zeros_like(sigma), products, eps, "eps_convex")
    u /= norm_u
    Hu = hess_apply(u)
    lam_H = float(np.vdot(u, Hu))
    residual = float(np.linalg.norm(Hu - lam_H * u))

    # half the gradient: the sign of <u, grad f> without the factor 2
    if float(np.vdot(u, Cs - lam[:, None] * sigma)) > 0.0:
        u = -u
    if lam_H < -eps / 2.0:
        status = "negative_curvature"
    elif residual <= eps / 4.0:
        status = "eps_convex"
    else:
        status = "inconclusive"
    return CurvatureReport(lam_H, u, products, eps, status)


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
    sigma, spec = factor_point(C, sigma)
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
    """Escape direction at a point s of the sphere product from the dual
    slack S, given C s, for a point whose slack test failed: it decides no
    eps-convexity.  u is the unit tangent part of V W^T, turned against
    the gradient: V holds the m eigenvectors of S below -eps/2 and W the
    right singular vectors of s for its m smallest singular values.  At a
    rank-deficient s, V W^T is tangent already and lambda_H = <u, Hess u>
    is the mean of those eigenvalues, doubled; at full rank it may be
    ">= -eps/2", and the status is "inconclusive".  With no eigenvalue
    below -eps/2 (m = 0, inside the rounding allowance of the slack
    screen) u and lambda_H are 0 and the status is "inconclusive" too.
    """
    n, r = sigma.shape
    lam, _ = multipliers(sigma, cost_sigma)
    slack = dense_slack(C, lam)
    values, vectors = bottom_eigenpairs(slack, min(r, n))
    m = int(np.count_nonzero(values < -eps / 2.0))
    W = np.linalg.eigh(sigma.T @ sigma)[1][:, :m]
    u = sphere_tangent(sigma, vectors[:, :m] @ W.T)
    u /= max(np.linalg.norm(u), np.finfo(float).tiny)
    if float(np.vdot(u, cost_sigma - lam[:, None] * sigma)) > 0.0:
        u = -u
    lam_H = 2.0 * float(np.vdot(u, slack @ u))
    status = "negative_curvature" if lam_H < -eps / 2.0 else "inconclusive"
    return CurvatureReport(lam_H, u, 0, eps, status)


def solve_with_curvature(problem, options=None, eps=1e-2, sigma0=None):
    """``solve`` with a curvature test on the dual slack S.

    ``_solve`` tests the slack at slack_tol = eps/2 by the one rule that
    it states, which tests every residual stop too, and this solver's
    ``check`` decides on each certificate: lambda_min(S) >= -eps/2.
    Wherever that test holds, the run ends EPS_CONVEX carrying the
    certificate: the objective is then within n eps / 2 of the SDP
    optimum, because weak duality bounds the optimum below by
    sum(lam) + n lambda_min(S) and sum(lam) is the objective.  A state
    that ends the run early need not be first-order stationary, and its
    gap is of the order of that bound, not of a converged point's.  The
    earlier a run stops, the larger its gap: at eps = 1e-2 the 92
    operations of a perfbench ``curvature_escape`` pass end 2.8e-4 to
    2.4e-3 (relative) above their certified lower bound, 0.48 to
    1.0 n eps / 2, where running on to convergence gives 4e-10 to 3e-8.

    A failed test before the residual stop changes nothing.  At a
    residual stop whose test failed, the ``at_rest`` hook runs:
    ``slack_direction`` gives the escape direction, ``escape_step`` takes
    it when lambda_H < -eps/2, and the loop goes on from the moved point
    with y = C s and a fresh Anderson memory.  An inconclusive slack
    direction (full rank) falls back to the LOBPCG probe
    ``negative_curvature_direction``, whose "eps_convex" verdict also ends
    the run EPS_CONVEX.  That verdict says the Hessian is >= -eps/2, an
    eps-second-order point in the paper's O(1 - 1/r) regime; it does not
    give the n eps / 2 slack bound, and the last row's lambda_H is then
    the probe's Rayleigh quotient.  The certificate the run carries, or
    the one ``certify.dual_certificate`` computes where it carries none,
    reports the slack eigenvalue, which failed the test.
    ``options.max_iter`` and ``options.time_budget`` bound the solve
    phases and escapes together.

    Only defined on the sphere product (d = 1), and eps must be finite
    and > 0 (any other value raises ValueError).  The status is
    EPS_CONVEX, STALLED (an inconclusive probe, or an escape step that
    found no decrease), MAX_ITER, TIME_BUDGET or ASSUMPTION_VIOLATED.
    """
    options = options if options is not None else SolverOptions()
    if problem.manifold.d != 1:
        raise UnsupportedManifold("curvature exploitation is defined for d = 1 only")
    require_finite("eps", eps)
    C = problem.cost

    def check(cert):
        if not cert.slack_min_eig >= -eps / 2.0:
            return {}, None
        return {"probe_performed": 1, "lambda_H": 2.0 * cert.slack_min_eig}, Status.EPS_CONVEX

    def at_rest(state):
        sigma = state.sigma_tilde
        report = slack_direction(C, sigma, state.y, eps)
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

    return _solve(problem, options, sigma0, check, eps / 2.0, at_rest, CURVATURE_COLUMNS)
