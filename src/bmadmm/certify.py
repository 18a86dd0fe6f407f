"""Global-optimality certification through the SDP dual, plus the exhaustive
max-cut reference for small graphs.

The certificate proves a factor optimal whatever produced it, so this
module imports no solver; the multi-restart reference ``oracle_sdp`` runs
the solver and lives in ``solver``.

For a feasible factor s the block multipliers Lam_i = sym((C s)_i s_i^T)
(scalars <(C s)_i, s_i> in the unit-row case) reproduce the stationarity
identity C s = Lam s at critical points.  If the slack C - blkdiag(Lam) is
positive semidefinite, weak duality makes sum tr(Lam_i) a lower bound on the
SDP optimum and certifies s s^T as globally optimal; a slightly negative
slack eigenvalue still yields the valid bound
sum tr(Lam_i) + n * min(0, eig_min).

``solver._solve``'s early tests call ``slack_screen`` before
``slack_certificate``: a Cholesky factorization of the shifted slack,
about n^3 / 3 flops, that proves the slack eigenvalue below the test's
tolerance without the eigen-solve.  It only ever skips a state; every
certificate comes from ``slack_certificate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import factor_point
from .sparse import inf_norm, min_eig_estimate, positive_definite, spmm, two_norm_estimate

CERT_TOL = 1e-6  # relative tolerance of the slack test, in units of ||C||_2


@dataclass(frozen=True)
class Certificate:
    """Dual multipliers and the positive-semidefiniteness test of the slack.

    certified is True iff slack_min_eig >= -CERT_TOL * ||C||_2.  The slack
    S is built as one dense array (``dense_slack``) and slack_min_eig is
    its smallest eigenvalue alone, from one LAPACK solve that computes no
    eigenvector (``sparse.min_eig_estimate``).  It is exact up to LAPACK's
    backward error O(n eps ||S||_2), far below CERT_TOL * ||C||_2, and
    never raises on finite input.  duality_gap = objective - sum tr(Lam_i)
    is reported but not tested: sum tr(Lam_i) = <C s, s> for every
    feasible factor, so it is zero up to rounding.  Certificates are
    frozen and their ``lam`` is read-only, so the one that a state carries
    and ``dual_certificate`` returns may be the same object.
    """

    objective: float
    lam: np.ndarray
    duality_gap: float
    slack_min_eig: float
    certified: bool
    block_count: int
    n: int
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

    def proves_optimal(self):
        """True iff the slack test passes and the gap to the lower bound is
        at most ``CERT_TOL``: relative to the bound, or, where the bound is
        zero and has no relative gap, absolute against n ||C||_2, the
        largest magnitude any objective value can have."""
        if not self.certified:
            return False
        lb = self.lower_bound()
        if lb != 0.0:
            return self.relative_gap() <= CERT_TOL
        return abs(self.objective - lb) <= CERT_TOL * self.n * self.norm_two


def dense_slack(C, lam):
    """The slack C - blkdiag(Lam) as a fresh dense array, for multipliers
    given as scalars (shape (n,), the unit-row case) or as d x d blocks
    (shape (q, d, d)): ``C.to_dense()`` with the blocks subtracted from
    its diagonal in place."""
    slack = C.to_dense()
    if lam.ndim == 1:
        slack.reshape(-1)[:: C.n + 1] -= lam
    else:
        q, d, _ = lam.shape
        blocks = np.arange(q)
        slack.reshape(q, d, q, d)[blocks, :, blocks, :] -= lam
    return slack


def multipliers(sigma, cost_sigma, d=1):
    """The dual multipliers of a factor, given its product C s as
    ``cost_sigma``: the scalars lam_i = <(C s)_i, s_i> for d = 1 (shape
    (n,)), else the symmetrized d x d blocks sym((C s)_i s_i^T) (shape
    (q, d, d)), and the largest Frobenius norm of the skew parts that the
    symmetrization drops (0.0 for d = 1)."""
    if d == 1:
        return np.sum(cost_sigma * sigma, axis=1), 0.0
    q = sigma.shape[0] // d
    A = cost_sigma.reshape(q, d, -1) @ sigma.reshape(q, d, -1).transpose(0, 2, 1)
    skew_norm = float(np.linalg.norm(A - A.transpose(0, 2, 1), axis=(1, 2)).max())
    return 0.5 * (A + A.transpose(0, 2, 1)), skew_norm


def slack_screen(C, sigma, cost_sigma, d, tol):
    """A cheap necessary condition for the slack test at tolerance ``tol``:
    False only where S + (tol + a) I has no Cholesky factor
    (``sparse.positive_definite``), which proves lambda_min(S) < -tol up
    to rounding, so that ``slack_certificate``'s eigenvalue would fail a
    test at ``tol`` too.  True decides nothing.

    The allowance a = 2 n eps ||C||_inf covers the rounding of the
    factorization and of the eigen-solve, both of order n eps ||S||_2: on
    the sphere product ||S||_2 <= ||C||_2 + max |lam_i| <= 2 ||C||_inf,
    since a symmetric C has ||C||_2 <= ||C||_inf and each |lam_i| is at
    most a row sum of |C|.  A factorization needs S + (tol + a) I
    strictly positive definite, where the eigen test accepts
    lambda_min(S) = -tol, so at tol <= 0 (``solve``'s tolerance for the
    zero cost) the screen passes without factoring.
    The solvers' early tests run the screen first and the eigen-solve
    only on states that pass it: the slack is the same array, built from
    the same ``multipliers``, so the screen never rejects a state that
    the eigen test accepts.
    """
    if not tol > 0.0:
        return True
    allowance = 2.0 * C.n * np.finfo(float).eps * inf_norm(C)
    lam, _ = multipliers(sigma, cost_sigma, d)
    return positive_definite(dense_slack(C, lam), tol + allowance)


def slack_certificate(C, sigma, cost_sigma, d=1):
    """The dual certificate of a factor on the manifold, given its product
    C s as ``cost_sigma``: multipliers, slack eigenvalue and the slack
    test, with no product with C.  ``dual_certificate`` and the solvers'
    early stopping tests both call it, so they cannot disagree about the
    same factor.

    It is a pure function of its inputs, so the matrix keeps its last
    result in ``C._last_certificate``, keyed by d and copies of the
    bytes (with dtype and shape) of sigma and cost_sigma.  A call whose
    inputs are bit for bit those of the key returns that certificate
    without a second eigen-solve; any other call, a caller that changed
    its array since included, computes afresh.  The entry is replaced as
    one tuple, so a stale entry, or one that another thread wrote, can
    only cause a miss.  A certificate is frozen, with a read-only
    ``lam``, so sharing it changes nothing for its holders.
    """
    key = (d, _bits(sigma), _bits(cost_sigma))
    last = C._last_certificate
    if last is not None and last[0] == key:
        return last[1]
    n = C.n
    objective = float(np.vdot(cost_sigma, sigma))
    lam, skew_norm = multipliers(sigma, cost_sigma, d)
    trace_sum = float(lam.sum()) if d == 1 else float(np.trace(lam.sum(axis=0)))
    slack_min_eig = min_eig_estimate(dense_slack(C, lam))
    norm_two = two_norm_estimate(C)
    lam.flags.writeable = False
    cert = Certificate(
        objective=objective,
        lam=lam,
        duality_gap=objective - trace_sum,
        slack_min_eig=slack_min_eig,
        certified=bool(slack_min_eig >= -CERT_TOL * norm_two),
        block_count=n // d,
        n=n,
        norm_two=norm_two,
        skew_norm=skew_norm,
    )
    C._last_certificate = (key, cert)
    return cert


def _bits(a):
    """An array's exact identity: its dtype, shape and a copy of its bytes."""
    return a.dtype.str, a.shape, a.tobytes()


def dual_certificate(C, sigma, d=1, seed=0):
    """Build the dual certificate of a feasible factor from a fresh
    product C s.

    The factor is checked and C s formed afresh on every call; the rest
    is ``slack_certificate``, so where a solver's slack test computed the
    certificate of the same factor on the same matrix, and the fresh
    product matches the solver's bit for bit, that certificate is
    returned without a second eigen-solve.

    Parameters
    ----------
    C : SparseSymMatrix
    sigma : ndarray
        Factor on the manifold (unit rows for d = 1, orthonormal-row blocks
        for d > 1).
    d : int
        Block size of the constraint structure.
    seed : int
        Accepted for older callers and unused.

    Returns
    -------
    Certificate

    Raises
    ------
    DimensionMismatch, OffManifold
        If sigma is not an (n, r) array with r >= d, d does not divide n,
        or sigma is off the manifold by more than 1e-8
        (``manifold.factor_point``).
    """
    sigma, _ = factor_point(C, sigma, d)
    return slack_certificate(C, sigma, spmm(C, sigma), d)


def relative_gap(C, sigma, reference_value):
    """Relative optimality gap |(<s, C s> - ref) / ref| of a factor against
    a reference optimal value.  A zero reference is rejected; use an
    absolute gap there instead."""
    if reference_value == 0.0:
        raise ValueError("zero reference value; use an absolute gap instead")
    value = objective(C, sigma)
    return abs((value - reference_value) / reference_value)


def objective(C, sigma):
    """Cost value <C s, s> of a factor."""
    sigma = np.asarray(sigma, dtype=np.float64)
    return float(np.vdot(spmm(C, sigma), sigma))


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
