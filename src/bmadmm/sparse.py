"""Symmetric sparse matrices in CSR form plus the norm and extreme-eigenvalue
estimators every other module consumes.

Both triangles of the matrix are stored explicitly.  A matrix whose fill
nnz / n^2 is at least ``DENSE_FILL`` also keeps a read-only dense copy, and
its products with a dense factor are one BLAS ``gemm``; every other matrix
multiplies by a CSR row scan.  Either way a product is bit-reproducible for
a fixed build and BLAS thread count.  Matrices are immutable after
construction and safe to share between threads.

The spectral norm and the slack eigen-solves of the dual certificate and
the curvature solver each come from one dense LAPACK solve: O(n^2) memory
and O(n^3) time.  The bottom eigenpair takes about 35 ms at n = 800; the
full spectrum behind the norm takes about 83 ms at n = 800 and 1.1 s at
n = 2000, and is computed once per matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DimensionMismatch

# A matrix with nnz >= DENSE_FILL * n^2 also keeps a dense copy for its
# products.  Dense gemm against scipy's CSR product, one BLAS thread on a
# 2-vCPU Xeon guest, at fill 1.0: 1.1 against 5.4 us (n = 20, r = 7) and
# 28 against 282 us (n = 200, r = 20).  Below a crossover fill CSR wins:
# near 0.05 at n = 100, 0.08 at n = 200, 0.15 at n = 400 and 0.15-0.19 at
# n = 1,000-2,000; for n <= 60 dense won at every fill tried.  A quarter
# keeps sparse graphs (G1-density max-cut at n = 200: fill 0.07) on CSR.
DENSE_FILL = 0.25


class SparseSymMatrix:
    """Immutable symmetric matrix in canonical CSR layout.

    Attributes
    ----------
    n : int
        Matrix dimension (n >= 1).
    row_ptr, col_idx, values : ndarray
        Canonical CSR arrays.  Every stored entry (i, j, v) has a stored
        mirror (j, i, v) with the identical value; column indices are
        strictly increasing within each row and there are no duplicates.

    A matrix with ``nnz >= DENSE_FILL * n**2`` also holds the read-only
    dense array ``_dense`` (None otherwise), which ``spmm`` multiplies.
    """

    __slots__ = ("n", "row_ptr", "col_idx", "values", "_csr", "_dense", "_norm_cache")

    def __init__(self, n, row_ptr, col_idx, values, validate=True):
        n = int(n)
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if validate:
            _validate_csr(n, row_ptr, col_idx, values)
        self.n = n
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self._csr = sp.csr_matrix((values, col_idx, row_ptr), shape=(n, n))
        self._dense = None
        if values.size >= DENSE_FILL * n * n:
            self._dense = self._csr.toarray()
            self._dense.flags.writeable = False
        self._norm_cache = {}
        if validate:
            _validate_symmetry(self._csr)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from COO triplets.  Duplicates are summed; the triplets must
        describe a symmetric matrix (both triangles present)."""
        coo = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        csr = coo.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(n, csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
        csr = sp.csr_matrix(A)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(A.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def identity(cls, n):
        return cls.from_dense(np.eye(n))

    @classmethod
    def zeros(cls, n):
        n = int(n)
        return cls(n, np.zeros(n + 1, dtype=np.int64), [], [])

    # -- basic queries ------------------------------------------------

    @property
    def nnz(self):
        return int(self.values.size)

    def to_dense(self):
        """A fresh, writable dense copy of the matrix."""
        if self._dense is None:
            return self._csr.toarray()
        return self._dense.copy()

    def scaled(self, c):
        """Return c * C as a new matrix (same pattern)."""
        return SparseSymMatrix(
            self.n, self.row_ptr, self.col_idx, c * self.values, validate=False
        )

    def __matmul__(self, V):
        return spmm(self, V)

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


def _validate_csr(n, row_ptr, col_idx, values):
    if n < 1:
        raise DimensionMismatch(f"matrix dimension must be >= 1, got {n}")
    if row_ptr.shape != (n + 1,):
        raise DimensionMismatch(
            f"row_ptr must have length n+1={n + 1}, got {row_ptr.shape[0]}"
        )
    if row_ptr[0] != 0 or np.any(np.diff(row_ptr) < 0):
        raise ValueError("row_ptr must start at 0 and be monotone nondecreasing")
    if row_ptr[-1] != col_idx.size or col_idx.size != values.size:
        raise DimensionMismatch(
            f"row_ptr[-1]={row_ptr[-1]} inconsistent with nnz arrays "
            f"({col_idx.size} indices, {values.size} values)"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix values must be finite (found NaN or inf)")
    if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= n):
        raise ValueError("column index out of range")
    # strictly increasing columns inside each row (no duplicates)
    if col_idx.size > 1:
        diffs = np.diff(col_idx)
        boundary = np.zeros(col_idx.size + 1, dtype=bool)
        boundary[row_ptr] = True  # positions where a new row begins
        same_row = ~boundary[1 : col_idx.size]
        if np.any(diffs[same_row] <= 0):
            raise ValueError("column indices must be strictly increasing per row")


def _validate_symmetry(csr):
    diff = (csr - csr.T).tocoo()
    if diff.nnz and np.any(diff.data != 0.0):
        raise ValueError("matrix is not symmetric: mirrored entries disagree")


def spmm(C, V):
    """Product C @ V of a SparseSymMatrix with a dense factor.

    A matrix that keeps a dense copy (fill >= ``DENSE_FILL``) multiplies it
    by BLAS; any other runs the CSR row scan over stored entries in
    ascending column order.  Results are bit-reproducible for a fixed build
    and BLAS thread count.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.shape[0] != C.n:
        raise DimensionMismatch(
            f"factor has {V.shape[0]} rows but matrix dimension is {C.n}"
        )
    dense = C._dense
    return C._csr @ V if dense is None else dense @ V


def inf_norm(C):
    """Maximum absolute row sum.  For symmetric C this also equals the
    maximum absolute column sum."""
    cached = C._norm_cache.get("inf")
    if cached is not None:
        return cached
    if C.nnz == 0:
        out = 0.0
    else:
        lengths = np.diff(C.row_ptr)
        rows = np.repeat(np.arange(C.n), lengths)
        out = float(np.bincount(rows, weights=np.abs(C.values), minlength=C.n).max())
    C._norm_cache["inf"] = out
    return out


def two_norm_estimate(C, seed=None):
    """Spectral norm of a symmetric matrix: max(|lambda_min|, |lambda_max|)
    from one dense eigenvalue solve, cached on the matrix.

    The dense solve is exact up to LAPACK's backward error and costs
    O(n^2) memory and O(n^3) time: 3 ms or less at n <= 200, about 83 ms
    at n = 800 and 1.1 s at n = 2000.  A power iteration on C^2 that
    converges is faster at the larger sizes (16 ms and 0.19 s), but on
    near-tied extreme magnitudes it does not converge at all; the dense
    cost is of the order of the dual certificate's slack eigen-solve.

    ``seed`` is accepted for older callers and unused.
    """
    cached = C._norm_cache.get("two")
    if cached is None:
        evals = np.linalg.eigvalsh(C.to_dense())
        cached = C._norm_cache["two"] = float(max(abs(evals[0]), abs(evals[-1])))
    return cached


def bottom_eigenpairs(S, k):
    """The ``k`` smallest eigenvalues of a symmetric matrix, ascending, and
    their orthonormal eigenvectors as columns.

    One dense LAPACK solve restricted to those eigenpairs
    (``scipy.linalg.eigh(..., subset_by_index=[0, k - 1])``).  It is exact
    up to LAPACK's backward error O(n eps ||S||_2) and cannot fail on finite
    input, at O(n^2) memory and O(n^3) time (about 35 ms at n = 800).
    """
    return scipy.linalg.eigh(S.to_dense(), subset_by_index=[0, k - 1])


def min_eig_estimate(S):
    """Smallest eigenvalue and eigenvector of a symmetric matrix, from
    ``bottom_eigenpairs``.

    Returns
    -------
    (float, ndarray)
        The eigenvalue and a unit eigenvector (sign fixed so its
        largest-magnitude entry is positive).
    """
    vals, vecs = bottom_eigenpairs(S, 1)
    return float(vals[0]), _fix_sign(vecs[:, 0])


def _fix_sign(v):
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v
