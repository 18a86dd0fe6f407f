#!/usr/bin/env python3
"""Splitting solver versus projected Riemannian gradient descent.

Both are run on the same seeded sparse instance (n = 200 at the default
rank 20), measured against the certified optimal value.  Iteration counts
and wall-clock are printed for information only; which one is faster is
hardware- and instance-dependent.
"""

import time

import numpy as np

from bmadmm import (
    ProblemSpec,
    RgdOptions,
    SolverOptions,
    SparseSymMatrix,
    dual_certificate,
    relative_gap,
    rgd_solve,
    solve,
)


def sparse_gauss(n, seed, density):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return SparseSymMatrix.from_dense((A + A.T) / 2)


C = sparse_gauss(200, 6000, 0.05)
problem = ProblemSpec.sphere(C)
print(f"instance: n=200, nnz={C.nnz}, rank r={problem.manifold.r}")

t0 = time.time()
admm = solve(problem, SolverOptions(seed=0))
t_admm = time.time() - t0
cert = dual_certificate(C, admm.state.sigma_tilde)
reference = cert.lower_bound()
print(f"\ncertified reference value: {reference:.6f} (certified={cert.certified})")

print(
    f"splitting solver: {admm.state.k:5d} iterations {t_admm:6.2f}s  "
    f"objective {admm.state.last_objective:.6f}  "
    f"relative gap {relative_gap(C, admm.state.sigma_tilde, reference):.2e}"
)

t0 = time.time()
rgd = rgd_solve(problem, RgdOptions(seed=0, grad_tol=1e-9, max_iter=30_000))
t_rgd = time.time() - t0
print(
    f"gradient descent: {rgd.state.k:5d} iterations {t_rgd:6.2f}s  "
    f"objective {rgd.state.last_objective:.6f}  "
    f"relative gap {relative_gap(C, rgd.state.sigma_tilde, reference):.2e}"
)

# convergence profile: objective along the traces
print("\nobjective along the run (every 100 trace rows):")
for label, trace in (("splitting", admm.trace), ("rgd", rgd.trace)):
    ks = trace.column("k")
    objs = trace.column("objective")
    samples = [f"{objs[i]:.3f}" for i in range(0, len(ks), 100)]
    print(f"  {label:10s} {' -> '.join(samples[:8])}")
