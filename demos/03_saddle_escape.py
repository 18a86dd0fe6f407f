#!/usr/bin/env python3
"""Escaping a saddle point with negative curvature.

Started exactly at the maximizer of the two-row instance (both rows equal),
the splitting iteration is stuck: the update point stays aligned with the
current rows, so nothing moves and the solver reports convergence.  The
curvature-aware variant runs the same solver and tests the dual slack
S = C - Diag(lam) where it converges.  At the saddle S has eigenvalue -2;
its eigenvector, paired with the direction the rank-one factor does not
use, gives a tangent direction of curvature 2 * (-2) = -4, and a geodesic
step along it (t = 1 passes the decrease test) breaks the symmetry.  The
run then descends to the global optimum -2, where the slack test
certifies approximate convexity.
"""

import numpy as np

from bmadmm import (
    ProblemSpec,
    SolverOptions,
    SparseSymMatrix,
    solve,
    solve_with_curvature,
)
from bmadmm.curvature import slack_direction

C = SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
saddle = np.array([[1.0, 0.0], [1.0, 0.0]])
problem = ProblemSpec.sphere(C, r=2)

# the splitting solver from the saddle: it is a fixed point, so the run
# "converges" immediately to the worst possible objective +2
stuck = solve(
    problem, SolverOptions(rho="theory", seed=0, max_iter=200), sigma0=saddle
)
print("splitting solver from the saddle:", stuck.status.value,
      "objective", stuck.state.last_objective)

# what the slack test sees at the saddle
report = slack_direction(C, saddle, C @ saddle, eps=1e-6)
print("slack test: lambda_H =", report.lambda_H, "status =", report.status)
print("escape direction:")
print(np.round(report.u, 4))

# the curvature-aware run escapes and reaches the optimum
escaped = solve_with_curvature(
    problem, SolverOptions(rho="theory", seed=0), eps=1e-6, sigma0=saddle
)
print("curvature-aware solver:", escaped.status.value,
      "objective", escaped.state.last_objective)
tests = sum(escaped.trace.column("probe_performed"))
escapes = sum(escaped.trace.column("escaped"))
print(f"{escaped.state.k} iterations, {tests} curvature tests, {escapes} escape step(s)")
print("certifying lambda_H = 2 lambda_min(S) =", escaped.trace.records[-1].lambda_H)
