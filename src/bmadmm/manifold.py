"""Factor geometry: the product manifold of unit-norm rows (d = 1) or of
d x r blocks with orthonormal rows (d > 1), the projection, tangent and
geodesic operations on it, and the problem a cost matrix poses on it.

Factor matrices are plain (n, r) float arrays, read as q stacked d-row
blocks.  Not every factor lies on the manifold; only the projected iterate
does.  Every factor given to the library comes in through
``require_on_manifold``: as a solver's start (``start_point``) or as a
factor whose rank it takes (``factor_point``).  All operations here are
pure; the first d = 3 projection of a process may build and load the
compiled closed form (``native.kernel("polar3")``), which changes no
result beyond rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import native
from .errors import DegenerateProjection, DimensionMismatch, OffManifold, UnsupportedManifold
from .sparse import SparseSymMatrix

ON_MANIFOLD_TOL = 1e-8  # largest manifold_violation of a factor given to the library
RANK_EPS = 1e-12  # relative singular-value cutoff for degenerate blocks
# Gram eigenvalues carry an absolute error of about eps lambda_1, so their
# square roots resolve singular values only down to about sqrt(eps) s_1 =
# 1.5e-8 s_1.  A block whose Gram spectrum puts s_min below GRAM_RESOLVED
# s_max is decided by an SVD instead.
GRAM_RESOLVED = 1e-6
# Row norms that normalize_rows divides by as they are: within this range
# no square in a norm overflows, and the subnormal ones cost less than
# rounding.
NORM_RANGE = (2.0**-500, 2.0**500)


@dataclass(frozen=True)
class ManifoldSpec:
    """Block structure of the constraint set.

    q blocks of d rows each (n = q * d) with r columns; d = 1 is the sphere
    case where every row has unit norm, d > 1 requires each d x r block B to
    satisfy B @ B.T = I_d.
    """

    q: int
    d: int
    r: int

    def __post_init__(self):
        if self.q < 1 or self.d < 1:
            raise DimensionMismatch(f"need q >= 1 and d >= 1, got q={self.q}, d={self.d}")
        if self.r < self.d:
            raise DimensionMismatch(f"rank r={self.r} must be >= block size d={self.d}")

    @property
    def n(self):
        return self.q * self.d

    @staticmethod
    def default_rank(n, d=1):
        """ceil(sqrt(2 n)), floored at d + 1 for block problems."""
        r = math.ceil(math.sqrt(2 * n))
        return max(r, d + 1) if d > 1 else r

    @classmethod
    def sphere(cls, n, r=None):
        return cls(q=n, d=1, r=r if r is not None else cls.default_rank(n))

    @classmethod
    def stiefel(cls, q, d, r=None):
        return cls(q=q, d=d, r=r if r is not None else cls.default_rank(q * d, d))


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
        if d < 1 or cost.n % d:
            raise DimensionMismatch(f"n={cost.n} must be a multiple of a block size d={d} >= 1")
        return cls(cost, ManifoldSpec.stiefel(cost.n // d, d, r))


@functools.lru_cache(maxsize=None)
def _identity(d):
    """The d x d identity, built once per d and read-only."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def manifold_violation(spec, X):
    """Max deviation from the manifold: |row norm - 1| for d = 1, entrywise
    max of |B B^T - I| over blocks otherwise."""
    X = np.asarray(X)
    if spec.d == 1:
        return float(np.abs(np.linalg.norm(X, axis=1) - 1.0).max())
    B = X.reshape(spec.q, spec.d, spec.r)
    gram = B @ B.transpose(0, 2, 1)
    return float(np.abs(gram - _identity(spec.d)).max())


def require_on_manifold(spec, X, what="factor"):
    """X as a float array, checked to have shape (n, r) and to lie on the
    manifold to ``ON_MANIFOLD_TOL``; a NaN or infinite entry fails.  The
    one test of every factor given to the library.

    Raises
    ------
    DimensionMismatch
        If X is not (n, r).
    OffManifold
        If ``manifold_violation`` is not <= ``ON_MANIFOLD_TOL``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (spec.n, spec.r):
        raise DimensionMismatch(f"{what} shape {X.shape} does not match ({spec.n}, {spec.r})")
    err = manifold_violation(spec, X)
    if not err <= ON_MANIFOLD_TOL:
        raise OffManifold(f"{what} is off the manifold by {err:.3e} (tol {ON_MANIFOLD_TOL:.1e})")
    return X


def normalize_rows(G, norms=None, out=None):
    """Scale each row to unit Euclidean norm.

    ``norms`` may pass the row norms ``np.linalg.norm(G, axis=1)`` when the
    caller already holds them, and ``out`` an array to write the result to,
    G itself included; it is written only when no row raises.  Where some
    norm lies outside ``NORM_RANGE`` (an overflowed, subnormal or NaN
    one), the rows are first scaled exactly by powers of two
    (``_scaled``) and their norms recomputed; rows in range keep the bits
    of a plain division by their norms.

    Raises
    ------
    DegenerateProjection
        If some row has zero norm or a NaN or infinite entry; the message
        names the first such row.
    """
    G = np.asarray(G, dtype=np.float64)
    if norms is None:
        with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
            norms = np.linalg.norm(G, axis=1)
    if not (norms.min() >= NORM_RANGE[0] and norms.max() <= NORM_RANGE[1]):
        G = _scaled(G[:, None, :])[:, 0, :]
        norms = np.linalg.norm(G, axis=1)
        bad = np.flatnonzero(norms <= 0.0)
        if bad.size:
            raise DegenerateProjection(f"cannot normalize zero row {bad[0]}", block=int(bad[0]))
    return np.divide(G, norms[:, None], out=out)


def project_block(G):
    """Nearest matrix with orthonormal rows to a d x r block (d <= r).

    Computes the orthogonal polar factor (G G^T)^{-1/2} G: in closed form
    for d = 3, through the eigendecomposition of the d x d Gram matrix
    G G^T otherwise; the result B satisfies B @ B.T = I_d to 1e-12 and
    minimizes the Frobenius distance to G.

    Raises
    ------
    DegenerateProjection
        If G has a NaN or infinite entry, or if the smallest singular value
        of G is <= 1e-12 times the largest, as an SVD computes it.
    """
    G = np.asarray(G, dtype=np.float64)
    return _polar_rows_batched(G[None])[0]


def _polar_rows_batched(G):
    """Polar factors (G G^T)^{-1/2} G of a (q, d, r) stack, with one
    corrective pass when ill conditioning degrades orthonormality."""
    B, err = _polar_pass(G)
    if err > 1e-13:
        B, _ = _polar_pass(B)
    return B


def polar_kernel(d):
    """What projects d-row blocks: None for d = 1 (``normalize_rows``),
    "c" for d = 3 when the compiled closed form (``native.kernel("polar3")``)
    is loaded, "numpy" otherwise."""
    if d == 1:
        return None
    return "c" if d == 3 and native.kernel("polar3") is not None else "numpy"


def _polar_pass(G):
    """Polar factors of a (q, d, r) stack and the largest entry of
    |B B^T - I| over it.

    d = 3 takes the closed form: compiled where ``polar_kernel`` says "c",
    else ``_polar3``.  Other d, and d = 3 stacks whose Gram spectrum the
    closed form flags, take the eigendecomposition of ``_gram_polar``,
    which also raises for degenerate blocks.

    Raises
    ------
    DegenerateProjection
        For a block with a NaN or infinite entry, or one that
        ``_gram_polar`` finds degenerate.
    """
    d = G.shape[1]
    library = native.kernel("polar3") if d == 3 else None
    if library is not None:
        G = np.ascontiguousarray(G, dtype=np.float64)
        B = np.empty_like(G)
        err = library.polar3(G.ctypes.data, B.ctypes.data, G.shape[0], G.shape[2])
        if err >= 0.0:
            return B, err
    polar = _polar3 if d == 3 and library is None else _gram_polar
    B = polar(_scaled(G))
    return B, np.abs(B @ B.transpose(0, 2, 1) - _identity(d)).max()


def _scaled(G):
    """G with each block scaled by the power of two that brings its largest
    entry into [0.5, 1).  The scaling is exact and leaves the polar factor
    unchanged, but keeps the Gram matrix of a block of extreme scale from
    overflowing or going subnormal.

    Raises
    ------
    DegenerateProjection
        If a block has a NaN or infinite entry; the first such block is
        named.
    """
    top = np.abs(G).max(axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(top))
    if bad.size:
        raise DegenerateProjection("non-finite projection input", block=int(bad[0]))
    return np.ldexp(G, -np.frexp(top)[1][:, None, None])


# Phase offsets of the largest, middle and smallest root in the
# trigonometric eigenvalue formula.
_ROOT_PHASES = np.array([0.0, 4.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])
# Ratios lambda_2 / lambda_1 and lambda_3 / lambda_1 of the Gram eigenvalues
# of a block above which _polar3 takes it.  Its polynomial has coefficients
# of order 1 / (s2 s3 (s2 + s3)) in the singular values s = sqrt(lambda) of
# G / s1, so its error grows with lambda_1 / lambda_2 against that of the
# eigendecomposition: up to 5x at lambda_2 = 1e-2 lambda_1, 1e5x at 1e-6.
_POLAR3_MIN_RATIOS = np.array([1e-2, 1e-8])


def _polar3(G):
    """Polar factors of a (q, 3, r) stack without a LAPACK call.

    With A = G G^T scaled to mean eigenvalue 1, the eigenvalues come from
    the trigonometric formula for symmetric 3 x 3 matrices, and
    A^{-1/2} is a quadratic in A with coefficients from the invariants I1,
    I2, I3 of U = A^{1/2} (Franca 1989): U = (-A^2 + (I1^2 - I2) A +
    I1 I3) / D and U^{-1} = (A - I1 U + I2) / I3, with D = I1 I2 - I3 =
    (s1 + s2)(s2 + s3)(s3 + s1) > 0.  No difference of eigenvalues is
    divided by, so repeated eigenvalues are harmless.  A stack with a
    zero or non-finite Gram trace, or with a block below either ratio of
    ``_POLAR3_MIN_RATIOS``, goes to ``_gram_polar`` whole.
    """
    eye = _identity(3)
    A = G @ G.transpose(0, 2, 1)
    m = np.einsum("qii->q", A) / 3.0
    if not (m.min() > 0.0 and m.max() < math.inf):
        return _gram_polar(G)
    K = A / m[:, None, None] - eye  # traceless, with the spectrum of A / m - 1
    K2 = K @ K
    p6 = np.einsum("qii->q", K2)  # tr K^2 = 6 p, with 2 sqrt(p) the eigenvalue spread
    q6 = np.einsum("qij,qji->q", K2, K)  # tr K^3 = 3 det K; |q6| <= p6^1.5 / sqrt(6)
    cos3 = q6 * math.sqrt(6.0) / np.maximum(p6, 1e-30) ** 1.5
    phase = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
    spread = np.sqrt(p6) * (2.0 / math.sqrt(6.0))
    lam = 1.0 + spread[:, None] * np.cos(phase[:, None] + _ROOT_PHASES)
    if not (lam[:, 1:] > _POLAR3_MIN_RATIOS * lam[:, :1]).all():
        return _gram_polar(G)
    s = np.sqrt(lam)
    i1 = s.sum(axis=1)
    i2 = s[:, 0] * s[:, 1] + s[:, 1] * s[:, 2] + s[:, 2] * s[:, 0]
    i3 = s.prod(axis=1)
    D = i1 * i2 - i3
    # D I3 (A/m)^{-1/2} = i1 (A/m)^2 + c1 (A/m) + c0, rewritten in K = A/m - I
    c1 = D - i1**3 + i1 * i2
    c0 = i2 * D - i1**2 * i3
    w = 1.0 / (D * i3 * np.sqrt(m))
    inv_root = (
        (w * i1)[:, None, None] * K2
        + (w * (2.0 * i1 + c1))[:, None, None] * K
        + (w * (i1 + c1 + c0))[:, None, None] * eye
    )
    return inv_root @ G


def _gram_polar(G):
    """Polar factors of a (q, d, r) stack through the eigendecomposition of
    its Gram stack.  Blocks that it cannot resolve (``GRAM_RESOLVED``) get
    U V^T from a batched SVD, whose singular values are accurate to about
    eps s_1, and raise only where those show s_min <= RANK_EPS s_max."""
    w, Q = np.linalg.eigh(G @ G.transpose(0, 2, 1))
    w = np.maximum(w, 0.0)
    smax = np.sqrt(w[:, -1])
    smin = np.sqrt(w[:, 0])
    flagged = np.flatnonzero((smax == 0.0) | (smin <= GRAM_RESOLVED * smax))
    w[flagged] = 1.0  # placeholders: these blocks are replaced below
    B = (Q / np.sqrt(w)[:, None, :]) @ Q.transpose(0, 2, 1) @ G
    if flagged.size:
        U, s, Vt = np.linalg.svd(G[flagged], full_matrices=False)
        bad = np.flatnonzero((s[:, 0] == 0.0) | (s[:, -1] <= RANK_EPS * s[:, 0]))
        if bad.size:
            raise DegenerateProjection(
                "degenerate projection input", block=int(flagged[bad[0]])
            )
        B[flagged] = U @ Vt
    return B


def project(spec, G, row_norms=None, out=None):
    """Project a full factor onto the manifold block by block.

    For d = 1, ``row_norms`` may pass the row norms of G and ``out`` an
    array for the result (see normalize_rows); both are ignored for d > 1.
    """
    G = np.asarray(G, dtype=np.float64)
    if spec.d == 1:
        return normalize_rows(G, row_norms, out)
    stacked = G.reshape(spec.q, spec.d, spec.r)
    return _polar_rows_batched(stacked).reshape(spec.n, spec.r)


def tangent_project(spec, sigma, G):
    """Orthogonal projection of G onto the tangent space at sigma.

    Sphere rows: u_i = G_i - <sigma_i, G_i> sigma_i.  Blocks: with the d x r
    slices B_i of sigma, u_i = G_i - sym(G_i B_i^T) B_i.  Idempotent; the
    result satisfies the tangency conditions to 1e-12.
    """
    G = np.asarray(G, dtype=np.float64)
    sigma = require_on_manifold(spec, sigma, "tangent_project base point")
    if spec.d == 1:
        return sphere_tangent(sigma, G)
    return block_tangent(sigma, G, spec.d)


def sphere_tangent(sigma, G):
    """Row-wise tangent projection G_i - <sigma_i, G_i> sigma_i at a point
    of the sphere product, without re-checking that sigma lies on it."""
    coeff = np.sum(sigma * G, axis=1, keepdims=True)
    return G - coeff * sigma


def block_tangent(sigma, G, d):
    """Blockwise tangent projection G_i - sym(G_i B_i^T) B_i at a point of
    the product of d x r Stiefel blocks B_i, without re-checking that
    sigma lies on it."""
    n, r = sigma.shape
    B = sigma.reshape(n // d, d, r)
    Gb = G.reshape(n // d, d, r)
    A = Gb @ B.transpose(0, 2, 1)
    out = Gb - 0.5 * (A + A.transpose(0, 2, 1)) @ B
    return out.reshape(n, r)


def geodesic_step(spec, sigma, u, t):
    """Move along the great circles of the sphere product.

    Each row becomes sigma_i cos(||u_i|| t) + (u_i / ||u_i||) sin(||u_i|| t);
    rows with u_i = 0 are returned unchanged (the limit of the formula).
    Requires d = 1 and a tangent u; the result has unit rows to 1e-12.
    """
    if spec.d != 1:
        raise UnsupportedManifold("geodesic_step is defined for d = 1 only")
    sigma = np.asarray(sigma, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    moving = norms > 0.0
    angles = norms * t
    direction = np.divide(u, norms, out=np.zeros_like(u), where=moving)
    return np.where(moving, sigma * np.cos(angles) + direction * np.sin(angles), sigma)


def random_point(spec, seed):
    """Seeded random factor on the manifold: entries i.i.d. uniform [0, 1),
    then projected block by block.  Deterministic for a fixed seed; on the
    (measure-zero) chance of a degenerate block, resamples with an
    incremented seed, at most 8 attempts."""
    for attempt in range(8):
        rng = np.random.default_rng(seed + attempt)
        G = rng.random((spec.n, spec.r))
        try:
            return project(spec, G)
        except DegenerateProjection:
            continue
    raise DegenerateProjection(
        f"random_point: 8 consecutive degenerate samples from seed {seed}"
    )


def start_point(spec, seed, sigma0):
    """The start factor of a solver: ``random_point(spec, seed)``, or a
    copy of the warm start ``sigma0`` that ``require_on_manifold`` has
    checked."""
    if sigma0 is None:
        return random_point(spec, seed)
    return require_on_manifold(spec, np.array(sigma0, dtype=np.float64), "warm start")


def factor_point(cost, sigma, d=1):
    """A factor checked by ``require_on_manifold`` against cost's d-row
    blocks at the factor's own rank, with that spec: the way in for entry
    points that take the rank from the factor.

    Raises
    ------
    DimensionMismatch
        If sigma is not 2-D, d is not a block size of cost or the rank is
        below d.
    """
    shape = np.shape(sigma)
    if len(shape) != 2:
        raise DimensionMismatch(f"factor must be an (n, r) array, got shape {shape}")
    spec = ProblemSpec.stiefel(cost, d, shape[1]).manifold
    return require_on_manifold(spec, sigma), spec
