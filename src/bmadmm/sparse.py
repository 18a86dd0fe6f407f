"""Symmetric sparse matrices in CSR form plus the norm and extreme-eigenvalue
estimators every other module consumes.

Both triangles of the matrix are stored explicitly, in read-only arrays
of the matrix's own.  A matrix whose fill nnz / n^2 is at least
``DENSE_FILL`` also keeps a read-only dense copy, and its products with a
dense factor are one BLAS ``gemm``; every other matrix multiplies by a CSR
row scan: the compiled one of spmm.c (``native.kernel("spmm")``), which
forms the r entries of an output row side by side in vector registers,
or scipy's, whose bits it repeats.  Either way a product is
bit-reproducible for a fixed build and BLAS thread count.  Matrices are
immutable after construction and safe to share between threads; their
caches of norms and of the last dual certificate only ever return what a
fresh computation on the same inputs would.

The spectral norm and the slack eigen-solves of the dual certificate and
the curvature solver each come from one dense LAPACK solve: O(n^2) memory
and O(n^3) time.  The slack solves take the slack as a plain dense array.
The certificate's test needs the smallest eigenvalue only
(``min_eig_estimate``, no eigenvector: about 50 ms at n = 800 and 0.75 s
at n = 2,000); the curvature solver's escape direction takes bottom
eigenpairs (``bottom_eigenpairs``).  The full spectrum behind the norm
takes about 83 ms at n = 800 and 1.1 s at n = 2000, and is computed once
per matrix.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import native
from .errors import DimensionMismatch

# A matrix with nnz >= DENSE_FILL * n^2 also keeps a dense copy for its
# products.  Dense gemm against the compiled CSR scan, r = ceil(sqrt(2n)),
# one BLAS thread on a 2-vCPU Xeon guest: below a crossover fill the scan
# wins, near 0.07 at n = 100, 0.10-0.12 at n = 200, 0.20-0.25 at n = 400
# and 0.20-0.25 at n = 1,000 (scipy's scan: 0.05, 0.08, 0.15 and
# 0.15-0.19).  At n = 20 and n = 60 dense won at every fill tried.
# The threshold stays a quarter, where scipy's scan put it, because moving
# it would change the route, and so the bits, of the matrices near it; it
# keeps sparse graphs (G1-density max-cut at n = 200: fill 0.07) on CSR.
DENSE_FILL = 0.25


class SparseSymMatrix:
    """Immutable symmetric matrix in canonical CSR layout.

    Attributes
    ----------
    n : int
        Matrix dimension (n >= 1).
    row_ptr, col_idx, values : ndarray
        Canonical CSR arrays, read-only copies of the constructor's
        arguments.  Every stored entry (i, j, v) has a stored mirror
        (j, i, v) with the identical value; column indices are strictly
        increasing within each row and there are no duplicates.

    A matrix with ``nnz >= DENSE_FILL * n**2`` also holds the read-only
    dense array ``_dense`` (None otherwise), which ``spmm`` multiplies.
    ``_addresses`` holds the addresses of the three CSR arrays, for the
    compiled product; copies and pickles are rebuilt by the constructor,
    so each holds its own.  Two caches ride along and never change the
    matrix: ``_norm_cache`` holds its norms, and ``_last_certificate``
    the last dual certificate computed on it, with the exact inputs it
    came from (``certify.slack_certificate``).
    """

    __slots__ = (
        "n", "row_ptr", "col_idx", "values", "_csr", "_dense", "_addresses", "_norm_cache",
        "_last_certificate",
    )

    def __init__(self, n, row_ptr, col_idx, values):
        n = int(n)
        row_ptr = _read_only_copy(row_ptr, np.int64)
        col_idx = _read_only_copy(col_idx, np.int64)
        values = _read_only_copy(values, np.float64)
        _validate_csr(n, row_ptr, col_idx, values)
        self.n = n
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self._csr = sp.csr_matrix((values, col_idx, row_ptr), shape=(n, n))
        if not self._csr.has_canonical_format:
            raise ValueError("column indices must be strictly increasing per row")
        self._addresses = tuple(a.ctypes.data for a in (row_ptr, col_idx, values))
        self._dense = None
        if values.size >= DENSE_FILL * n * n:
            self._dense = self._csr.toarray()
            self._dense.flags.writeable = False
        self._norm_cache = {}
        self._last_certificate = None  # see certify.slack_certificate
        _validate_symmetry(self._csr, self._dense)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from COO triplets.  Duplicates are summed; the triplets must
        describe a symmetric matrix (both triangles present)."""
        coo = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        csr = coo.tocsr()
        return cls(n, csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
        csr = sp.csr_matrix(A)
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
        """Return c * C as a new matrix (same pattern).  A c that makes a
        value NaN or infinite raises ``ValueError``, as for any matrix."""
        return SparseSymMatrix(
            self.n, self.row_ptr, self.col_idx, c * self.values
        )

    def __matmul__(self, V):
        return spmm(self, V)

    def __reduce__(self):
        # Copies and pickles are rebuilt by the constructor, which checks the
        # arrays again and takes the addresses of its own: copied as they
        # are, they would point into the original's arrays.
        return SparseSymMatrix, (self.n, self.row_ptr, self.col_idx, self.values)

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


def _read_only_copy(array, dtype):
    """A read-only C-contiguous copy of ``array`` as ``dtype``: the compiled
    product reads the checked indices, so no caller may change them."""
    out = np.array(array, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


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


def _validate_symmetry(csr, dense):
    # the values are finite, so comparing the dense copy with its transpose
    # gives the CSR test's verdict (a stored 0.0 equals an absent mirror)
    if dense is not None:
        symmetric = np.array_equal(dense, dense.T)
    else:
        diff = (csr - csr.T).tocoo()
        symmetric = not np.any(diff.data != 0.0)
    if not symmetric:
        raise ValueError("matrix is not symmetric: mirrored entries disagree")


def spmm(C, V):
    """Product C @ V of a SparseSymMatrix with a dense factor.

    A matrix that keeps a dense copy (fill >= ``DENSE_FILL``) multiplies it
    by BLAS.  Any other scans its stored entries row by row in ascending
    column order, as scipy's CSR product does: in the compiled scan of
    ``native.kernel("spmm")`` where that library is loaded and V is a
    writable C-contiguous float64 (n, r) array, r >= 1, into a fresh
    array, else in scipy's.  Both scans give the same bits, so results are
    bit-reproducible for a fixed build and BLAS thread count whichever
    ran; ``spmm_kernel`` says which one does.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.shape[0] != C.n:
        raise DimensionMismatch(
            f"factor has {V.shape[0]} rows but matrix dimension is {C.n}"
        )
    if C._dense is not None:
        return C._dense @ V
    library = native.kernel("spmm")
    factor = None if library is None or V.ndim != 2 or V.size == 0 else native.views(V.shape, V)
    if factor is None:
        return C._csr @ V
    out = np.empty(V.shape)
    library.spmm(*C._addresses, *factor, ctypes.c_double.from_buffer(out), *V.shape)
    return out


def spmm_kernel(C):
    """Which product ``spmm(C, V)`` runs for a writable C-contiguous float64
    V: "dense" where C keeps a dense copy, else "c" where the compiled scan
    (``native.kernel("spmm")``) is loaded, else "scipy"."""
    if C._dense is not None:
        return "dense"
    return "scipy" if native.kernel("spmm") is None else "c"


def spmm_flops(C, r):
    """Floating-point operations of ``spmm(C, V)`` for V with r columns:
    2 n^2 r through the dense copy, 2 nnz r through the CSR row scan."""
    return 2 * (C.n * C.n if C._dense is not None else C.nnz) * r


def inf_norm(C):
    """Maximum absolute row sum.  For symmetric C this also equals the
    maximum absolute column sum."""
    cached = C._norm_cache.get("inf")
    if cached is not None:
        return cached
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
    """The ``k`` smallest eigenvalues of a symmetric matrix S, given as a
    dense array, ascending, and their orthonormal eigenvectors as columns.

    One dense LAPACK solve restricted to those eigenpairs
    (``scipy.linalg.eigh(S, subset_by_index=[0, k - 1])``).  It is exact
    up to LAPACK's backward error O(n eps ||S||_2) and cannot fail on finite
    input, at O(n^2) memory and O(n^3) time (about 48 ms at n = 800 for
    k = 1).  S is not modified.
    """
    return scipy.linalg.eigh(S, subset_by_index=[0, k - 1])


def min_eig_estimate(S):
    """Smallest eigenvalue of a symmetric matrix S, given as a dense array.

    One LAPACK ``dsyevr`` call for that eigenvalue alone (``jobz='N'``,
    ``range='I'``, ``il = iu = 1``): the driver and eigenvalue of
    ``bottom_eigenpairs(S, 1)``, without the eigenvector.  It is exact up
    to LAPACK's backward error O(n eps ||S||_2), at O(n^2) memory and
    O(n^3) time (about 50 ms at n = 800 and 0.75 s at n = 2,000).  Where
    ``dsyevr`` reports a failure (``info != 0``) the value comes from
    ``np.linalg.eigvalsh`` instead, so finite input always gets one.  S is
    not modified.
    """
    S = np.asarray(S, dtype=np.float64)
    work, iwork, _ = scipy.linalg.lapack.dsyevr_lwork(S.shape[0], lower=1)
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(
        S, compute_v=0, range="I", lower=1, il=1, iu=1, lwork=int(work), liwork=int(iwork)
    )
    if info != 0:
        return float(np.linalg.eigvalsh(S)[0])
    return float(w[0])


def positive_definite(S, shift):
    """Whether S + shift I, for a symmetric S given as a dense float64
    array, has a Cholesky factor: one LAPACK ``dpotrf`` call, which
    overwrites S.  A failure proves lambda_min(S) < -shift up to the
    factorization's backward error (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 10).  About n^3 / 3 flops, against the
    reduction to tridiagonal form of ``min_eig_estimate``.
    """
    S.flat[:: S.shape[0] + 1] += shift
    # S is symmetric, so its transpose is the same matrix in the column
    # order LAPACK factors in place
    _, info = scipy.linalg.lapack.dpotrf(S.T, lower=1, clean=0, overwrite_a=1)
    return info == 0
