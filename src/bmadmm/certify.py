"""Global-optimality certification through the SDP dual, plus the desk-scale
reference oracles (exhaustive max-cut, multi-restart certified solve) that
stand in for an external solver.

For a feasible factor s the block multipliers Lam_i = sym((C s)_i s_i^T)
(scalars <(C s)_i, s_i> in the unit-row case) reproduce the stationarity
identity C s = Lam s at critical points.  If the slack C - blkdiag(Lam) is
positive semidefinite, weak duality makes sum tr(Lam_i) a lower bound on the
SDP optimum and certifies s s^T as globally optimal; a slightly negative
slack eigenvalue still yields the valid bound
sum tr(Lam_i) + n * min(0, eig_min).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import OffManifold
from .manifold import ManifoldSpec, manifold_violation, random_point
from .solver import ProblemSpec, SolverOptions, default_mu, solve
from .sparse import SparseSymMatrix, min_eig_estimate, spmm, two_norm_estimate


@dataclass
class Certificate:
    """Dual multipliers and the positive-semidefiniteness test of the slack.

    certified is True iff slack_min_eig >= -tol_cert * ||C||_2.  The slack
    eigenvalue comes from a dense solve and is exact up to LAPACK's backward
    error O(n eps ||S||_2), far below tol_cert * ||C||_2.  duality_gap =
    objective - sum tr(Lam_i) is reported but not tested: sum tr(Lam_i) =
    <C s, s> for every feasible factor, so it is zero up to rounding.
    """

    objective: float
    lam: np.ndarray
    duality_gap: float
    slack_min_eig: float
    certified: bool
    block_count: int
    n: int
    tol_cert: float
    norm_two: float
    skew_norm: float = 0.0

    def lower_bound(self):
        """Certified lower bound on the SDP optimum (exact when the slack
        eigenvalue is nonnegative, shifted otherwise)."""
        return self.objective - self.duality_gap + self.n * min(0.0, self.slack_min_eig)

    def relative_gap(self):
        """|objective - lower_bound| / |lower_bound|."""
        lb = self.lower_bound()
        if lb == 0.0:
            raise ValueError("zero lower bound; use an absolute gap instead")
        return abs((self.objective - lb) / lb)

    def to_json(self):
        return json.dumps(
            {
                "objective": self.objective,
                "gap": self.duality_gap,
                "slack_min_eig": self.slack_min_eig,
                "certified": self.certified,
                "block_count": self.block_count,
            }
        )


def slack_matrix(C, lam):
    """The slack C - blkdiag(Lam) as a SparseSymMatrix, for multipliers
    given as scalars (shape (n,), the unit-row case) or as d x d blocks
    (shape (q, d, d))."""
    if lam.ndim == 1:
        slack = C._csr - sp.diags(lam, format="csr")
    else:
        slack = C._csr - sp.block_diag(lam, format="csr")
    slack.sum_duplicates()
    slack.sort_indices()
    return SparseSymMatrix(C.n, slack.indptr, slack.indices, slack.data, validate=False)


def dual_certificate(C, sigma, d=1, tol_cert=1e-6, seed=0):
    """Build the dual certificate of a feasible factor.

    Parameters
    ----------
    C : SparseSymMatrix
    sigma : ndarray
        Factor on the manifold (unit rows for d = 1, orthonormal-row blocks
        for d > 1).
    d : int
        Block size of the constraint structure.
    tol_cert : float
        Relative certification tolerance.
    seed : int
        Accepted for older callers and unused.

    Returns
    -------
    Certificate
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    n = C.n
    spec = ManifoldSpec(q=n // d, d=d, r=sigma.shape[1])
    err = manifold_violation(spec, sigma)
    if err > 1e-8:
        raise OffManifold(f"factor is off the manifold by {err:.3e}")
    Cs = spmm(C, sigma)
    objective = float(np.vdot(Cs, sigma))
    skew_norm = 0.0
    if d == 1:
        lam = np.sum(Cs * sigma, axis=1)
        trace_sum = float(lam.sum())
    else:
        A = Cs.reshape(spec.q, d, -1) @ sigma.reshape(spec.q, d, -1).transpose(0, 2, 1)
        lam = 0.5 * (A + A.transpose(0, 2, 1))
        skew_norm = float(np.linalg.norm(A - A.transpose(0, 2, 1), axis=(1, 2)).max())
        trace_sum = float(np.trace(lam.sum(axis=0)))
    gap = objective - trace_sum
    slack_min_eig, _ = min_eig_estimate(slack_matrix(C, lam))
    norm_two = two_norm_estimate(C)
    certified = slack_min_eig >= -tol_cert * norm_two
    return Certificate(
        objective=objective,
        lam=lam,
        duality_gap=gap,
        slack_min_eig=float(slack_min_eig),
        certified=bool(certified),
        block_count=spec.q,
        n=n,
        tol_cert=tol_cert,
        norm_two=norm_two,
        skew_norm=skew_norm,
    )


def relative_gap(C, sigma, reference_value):
    """Relative optimality gap |(<s, C s> - ref) / ref| of a factor against
    a reference optimal value.  A zero reference is rejected; use an
    absolute gap there instead."""
    if reference_value == 0.0:
        raise ValueError("zero reference value; use an absolute gap instead")
    sigma = np.asarray(sigma, dtype=np.float64)
    value = float(np.vdot(spmm(C, sigma), sigma))
    return abs((value - reference_value) / reference_value)


def brute_force_maxcut(graph, limit=24):
    """Exact maximum cut by enumerating all 2^(n-1) sign assignments.

    Returns (best_cut_value, assignment) with assignment a +-1 vector whose
    last vertex is fixed to +1 (the global sign symmetry).  Refuses graphs
    with more than ``limit`` (default 24) vertices.
    """
    n = graph.n
    if n > limit:
        raise ValueError(f"brute force limited to n <= {limit}, got n = {n}")
    if n < 1:
        raise ValueError("empty graph")
    edges = [(i - 1, j - 1, float(w)) for (i, j, w) in graph.edges]
    total = 1 << max(n - 1, 0)
    best_value = -math.inf
    best_code = 0
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        codes = np.arange(lo, hi, dtype=np.uint64)
        cut = np.zeros(hi - lo)
        for i, j, w in edges:
            side_i = (codes >> np.uint64(i)) & np.uint64(1) if i < n - 1 else np.uint64(0)
            side_j = (codes >> np.uint64(j)) & np.uint64(1) if j < n - 1 else np.uint64(0)
            cut += w * (side_i != side_j)
        arg = int(np.argmax(cut))
        if cut[arg] > best_value:
            best_value = float(cut[arg])
            best_code = lo + arg
    assignment = np.ones(n, dtype=np.int64)
    for v in range(n - 1):
        if (best_code >> v) & 1:
            assignment[v] = -1
    return best_value, assignment


@dataclass
class OracleResult:
    value: float
    sigma: np.ndarray
    certificate: Certificate


def oracle_sdp(C, d=1, restarts=5, seed=0, tol_cert=1e-6, max_iter=50_000):
    """Desk-scale reference value for the SDP optimum.

    Solves at the nearly full rank min(n, ceil(sqrt(2 n)) + 2) from
    ``restarts`` seeds and keeps the best certified result (ties broken by
    the lowest seed); if no restart certifies, the best value is returned
    with certificate.certified False rather than hidden.  Restart landscape
    guarantees are generic, not universal, hence the multiple starts.
    """
    n = C.n
    if n > 500:
        raise ValueError(f"oracle limited to n <= 500, got n = {n}")
    if n % d:
        raise ValueError(f"n = {n} is not a multiple of d = {d}")
    norm_two = two_norm_estimate(C)
    r_full = min(n, math.ceil(math.sqrt(2 * n)) + 2)
    r_full = max(r_full, d + 1) if d > 1 else r_full
    man = ManifoldSpec(q=n // d, d=d, r=r_full)
    if norm_two == 0.0:
        sigma = random_point(man, seed)
        cert = dual_certificate(C, sigma, d=d, tol_cert=tol_cert)
        return OracleResult(value=0.0, sigma=sigma, certificate=cert)
    problem = ProblemSpec(C, man)
    best = None
    best_uncertified = None
    for t in range(restarts):
        options = SolverOptions(
            rho="practice",
            mu=0.0 if d == 1 else default_mu(C, "practice"),
            tol_primal=1e-10,
            tol_obj=1e-13,
            max_iter=max_iter,
            seed=seed + t,
        )
        result = solve(problem, options)
        cert = dual_certificate(C, result.state.sigma_tilde, d=d, tol_cert=tol_cert)
        candidate = OracleResult(
            value=cert.objective, sigma=result.state.sigma_tilde, certificate=cert
        )
        if cert.certified:
            if best is None or candidate.value < best.value:
                best = candidate
        elif best_uncertified is None or candidate.value < best_uncertified.value:
            best_uncertified = candidate
    return best if best is not None else best_uncertified
