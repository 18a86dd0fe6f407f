from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from bmadmm import (
    DimensionMismatch,
    GraphInstance,
    SparseSymMatrix,
    inf_norm,
    maxcut_cost,
    min_eig_estimate,
    spmm,
    two_norm_estimate,
)
from bmadmm.certify import dense_slack
from bmadmm.sparse import DENSE_FILL, bottom_eigenpairs, positive_definite


def random_symmetric(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if density < 1.0:
        A *= rng.random((n, n)) < density
    return (A + A.T) / 2


def identity_plus(n, extra):
    """Arguments (n, row_ptr, col_idx, values) of the n x n identity in
    CSR form plus the stored off-diagonal entries ``extra`` {(i, j): v}; at
    n = 2 the fill is >= DENSE_FILL, at n = 40 it is below."""
    entries = {(i, i): 1.0 for i in range(n)} | extra
    keys = sorted(entries)
    rows = np.array([i for i, _ in keys])
    row_ptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    assert (len(keys) >= DENSE_FILL * n * n) == (n == 2)
    return n, row_ptr, [j for _, j in keys], [entries[key] for key in keys]


class TestConstruction:
    def test_round_trip_dense(self):
        A = random_symmetric(8, 0)
        C = SparseSymMatrix.from_dense(A)
        np.testing.assert_allclose(C.to_dense(), A)

    def test_row_ptr_length_checked(self):
        with pytest.raises(DimensionMismatch):
            SparseSymMatrix(2, [0, 0], [], [])

    def test_row_ptr_monotone_checked(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_asymmetry_rejected(self):
        # stored (0,1) without its mirror
        with pytest.raises(ValueError):
            SparseSymMatrix(2, [0, 1, 1], [1], [1.0])

    def test_mismatched_mirror_values_rejected(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(2, [0, 1, 2], [1, 0], [1.0, 2.0])

    # the two cases above have fill >= DENSE_FILL and take the dense
    # symmetry test; at n = 40 these take the CSR one
    def test_asymmetry_rejected_on_the_csr_path(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(*identity_plus(40, {(0, 1): 1.0}))

    def test_mismatched_mirror_values_rejected_on_the_csr_path(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(*identity_plus(40, {(0, 1): 1.0, (1, 0): 2.0}))

    @pytest.mark.parametrize("n", [2, 40])
    def test_stored_zero_without_mirror_is_accepted(self, n):
        C = SparseSymMatrix(*identity_plus(n, {(0, 1): 0.0}))
        assert (C._dense is not None) == (n == 2)
        np.testing.assert_array_equal(C.to_dense(), np.eye(n))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(2, [0, 2, 2], [1, 1], [0.5, 0.5])

    def test_from_coo_sums_duplicates(self):
        C = SparseSymMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [0.5, 0.5, 1.0])
        np.testing.assert_allclose(C.to_dense(), [[0, 1], [1, 0]])

    def test_from_coo_gives_canonical_csr(self):
        # shuffled triplets with duplicates stored in both orientations:
        # tocsr() alone sums and sorts them, bytes equal to an explicit
        # canonicalization
        rng = np.random.default_rng(3)
        n = 30
        for _ in range(20):
            i = rng.integers(0, n, 120)
            j = rng.integers(0, n, 120)
            v = rng.integers(-50, 50, 120) / 4.0  # sums exact in any order: symmetric
            rows = np.concatenate((i, j, i[:40], j[:40]))
            cols = np.concatenate((j, i, j[:40], i[:40]))
            vals = np.concatenate((v, v, v[:40], v[:40]))
            order = rng.permutation(rows.size)
            rows, cols, vals = rows[order], cols[order], vals[order]
            C = SparseSymMatrix.from_coo(n, rows, cols, vals)
            assert C._csr.has_canonical_format
            ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
            ref.sum_duplicates()
            ref.sort_indices()
            assert C.row_ptr.tobytes() == ref.indptr.astype(np.int64).tobytes()
            assert C.col_idx.tobytes() == ref.indices.astype(np.int64).tobytes()
            assert C.values.tobytes() == ref.data.tobytes()

    def test_scaled(self):
        C = SparseSymMatrix.from_dense([[0, 2], [2, 0]])
        np.testing.assert_allclose(C.scaled(-0.5).to_dense(), [[0, -1], [-1, 0]])

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_scaled_by_a_non_finite_factor_raises(self, c):
        C = SparseSymMatrix.from_dense([[0, 2], [2, 0]])
        with pytest.raises(ValueError, match="finite"):
            C.scaled(c)


class TestSpmm:
    def test_zero_pattern_gives_zero(self):
        C = SparseSymMatrix.zeros(4)
        V = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(spmm(C, V), np.zeros((4, 2)))

    def test_identity(self):
        C = SparseSymMatrix.identity(3)
        V = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(spmm(C, V), V)

    def test_swap_matrix_against_dense_product(self):
        # oracle: dense 2x2 multiplication
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = np.eye(2)
        expected = A @ V
        np.testing.assert_array_equal(expected, [[0, 1], [1, 0]])
        C = SparseSymMatrix.from_dense(A)
        np.testing.assert_array_equal(spmm(C, V), expected)

    def test_dimension_mismatch_names_both(self):
        C = SparseSymMatrix.identity(3)
        with pytest.raises(DimensionMismatch, match="2.*3"):
            spmm(C, np.ones((2, 2)))

    def test_linearity(self):
        C = SparseSymMatrix.from_dense(random_symmetric(20, 1))
        rng = np.random.default_rng(2)
        U, V = rng.standard_normal((2, 20, 4))
        a, b = 0.7, -1.3
        lhs = spmm(C, a * U + b * V)
        rhs = a * spmm(C, U) + b * spmm(C, V)
        assert np.abs(lhs - rhs).max() < 1e-12 * inf_norm(C) * 10

    def test_self_adjointness(self):
        for seed in range(5):
            C = SparseSymMatrix.from_dense(random_symmetric(15, seed))
            rng = np.random.default_rng(100 + seed)
            U, V = rng.standard_normal((2, 15, 3))
            lhs = np.vdot(U, spmm(C, V))
            rhs = np.vdot(spmm(C, U), V)
            scale = (
                two_norm_estimate(C)
                * np.linalg.norm(U)
                * np.linalg.norm(V)
            )
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_matches_dense_oracle_random(self):
        for seed in range(4):
            A = random_symmetric(12, seed, density=0.4)
            C = SparseSymMatrix.from_dense(A)
            V = np.random.default_rng(seed).standard_normal((12, 5))
            np.testing.assert_allclose(spmm(C, V), A @ V, atol=1e-13)


def with_nnz(n, nnz, seed):
    """A random symmetric n x n matrix with exactly ``nnz`` stored entries:
    n or n - 1 diagonal ones (matching the parity of nnz) and the rest in
    mirrored off-diagonal pairs."""
    rng = np.random.default_rng(seed)
    diagonal = n if (nnz - n) % 2 == 0 else n - 1
    rows, cols = np.triu_indices(n, k=1)
    pick = rng.choice(rows.size, size=(nnz - diagonal) // 2, replace=False)
    A = np.diag(np.r_[1.0 + rng.random(diagonal), np.zeros(n - diagonal)])
    A[rows[pick], cols[pick]] = 1.0 + rng.random(pick.size)
    C = SparseSymMatrix.from_dense(np.triu(A) + np.triu(A, 1).T)
    assert C.nnz == nnz
    return C


def g1_density_maxcut(n, seed):
    """Max-cut cost of an Erdos-Renyi graph with G1's edge density (19,176
    edges on 800 vertices)."""
    pairs = n * (n - 1) // 2
    m = round(19_176 / (800 * 799 / 2) * pairs)
    rows, cols = np.triu_indices(n, k=1)
    pick = np.sort(np.random.default_rng(seed).choice(pairs, size=m, replace=False))
    edges = [(int(i) + 1, int(j) + 1, 1.0) for i, j in zip(rows[pick], cols[pick])]
    return maxcut_cost(GraphInstance(n=n, edges=edges))


class TestDenseStorage:
    def test_dense_gaussian_matches_the_csr_product(self):
        C = SparseSymMatrix.from_dense(random_symmetric(92, 0))
        assert C._dense is not None
        V = np.random.default_rng(1).standard_normal((92, 14))
        expected = C._csr @ V
        out = spmm(C, V)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)
        for _ in range(3):
            np.testing.assert_array_equal(spmm(C, V), out)

    def test_g1_density_graph_keeps_the_csr_product(self):
        C = g1_density_maxcut(200, 1)
        assert C.nnz < DENSE_FILL * C.n**2
        assert C._dense is None
        V = np.random.default_rng(2).standard_normal((200, 20))
        np.testing.assert_array_equal(spmm(C, V), C._csr @ V)

    def test_fill_just_under_the_threshold_keeps_the_csr_product(self):
        C = with_nnz(40, 399, 3)
        assert 4 * C.nnz == 40 * 40 - 4
        assert C._dense is None
        V = np.random.default_rng(4).standard_normal((40, 6))
        np.testing.assert_array_equal(spmm(C, V), C._csr @ V)

    def test_fill_at_the_threshold_is_dense(self):
        C = with_nnz(40, 400, 5)
        assert 4 * C.nnz == 40 * 40
        assert C._dense is not None
        np.testing.assert_array_equal(C._dense, C._csr.toarray())
        V = np.random.default_rng(6).standard_normal((40, 6))
        np.testing.assert_array_equal(spmm(C, V), C._dense @ V)

    def test_scaled_and_slack_of_a_dense_matrix_are_dense(self):
        A = random_symmetric(30, 7)
        C = SparseSymMatrix.from_dense(A)
        scaled = C.scaled(-0.5)
        assert scaled._dense is not None
        np.testing.assert_array_equal(scaled._dense, -0.5 * C._dense)
        lam = np.random.default_rng(8).standard_normal(30)
        slack = dense_slack(C, lam)
        assert type(slack) is np.ndarray and slack.flags.writeable
        assert not np.shares_memory(slack, C._dense)
        np.testing.assert_array_equal(slack, A - np.diag(lam))

    def test_kept_array_is_read_only_and_to_dense_copies_it(self):
        C = SparseSymMatrix.from_dense(random_symmetric(12, 9))
        assert not C._dense.flags.writeable
        with pytest.raises(ValueError):
            C._dense[0, 0] = 1.0
        first = C.to_dense()
        assert first.flags.writeable
        assert not np.shares_memory(first, C._dense)
        np.testing.assert_array_equal(first, C._dense)
        first[0, 0] += 1.0
        assert C.to_dense()[0, 0] == C._dense[0, 0] != first[0, 0]


def block_multipliers(q, d, seed):
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((q, d, d))
    return 0.5 * (lam + lam.transpose(0, 2, 1))


class TestDenseSlack:
    def test_csr_cost(self):
        C = g1_density_maxcut(200, 1)
        assert C._dense is None
        lam = np.random.default_rng(2).standard_normal(200)
        expected = C.to_dense() - np.diag(lam)
        assert dense_slack(C, lam).tobytes() == expected.tobytes()

    def test_cost_with_a_dense_copy(self):
        C = SparseSymMatrix.from_dense(random_symmetric(60, 3))
        assert C._dense is not None
        lam = np.random.default_rng(4).standard_normal(60)
        expected = C.to_dense() - np.diag(lam)
        assert dense_slack(C, lam).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("density", [0.05, 1.0])
    def test_blocks_of_three(self, density):
        C = SparseSymMatrix.from_dense(random_symmetric(60, 5, density))
        assert (C._dense is not None) == (density == 1.0)
        lam = block_multipliers(20, 3, 6)
        expected = C.to_dense() - scipy.linalg.block_diag(*lam)
        assert dense_slack(C, lam).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lam", [np.ones(30), block_multipliers(10, 3, 7)], ids=["d1", "d3"])
    def test_never_writes_into_the_kept_array(self, lam):
        C = SparseSymMatrix.from_dense(random_symmetric(30, 8))
        before = C._dense.copy()
        slack = dense_slack(C, lam)
        slack += 1.0
        assert not np.shares_memory(slack, C._dense)
        assert not C._dense.flags.writeable
        np.testing.assert_array_equal(C._dense, before)


class TestInfNorm:
    def test_zero(self):
        assert inf_norm(SparseSymMatrix.zeros(3)) == 0.0

    def test_swap(self):
        # row sums are 1 and 1
        assert inf_norm(SparseSymMatrix.from_dense([[0, 1], [1, 0]])) == 1.0

    def test_absolute_values(self):
        assert inf_norm(SparseSymMatrix.from_dense([[0, -2], [-2, 0]])) == 2.0

    def test_against_dense_oracle(self):
        for seed in range(6):
            A = random_symmetric(25, seed, density=0.5)
            expected = np.abs(A).sum(axis=1).max()
            assert inf_norm(SparseSymMatrix.from_dense(A)) == pytest.approx(
                expected, rel=1e-14
            )


def norm_and_dense_solves(C, calls=3):
    """Repeated ``two_norm_estimate(C)`` values, checked equal, and the
    number of dense eigenvalue solves they took."""
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solves:
        values = {two_norm_estimate(C) for _ in range(calls)}
    assert len(values) == 1
    return values.pop(), solves.call_count


def dense_norm(C):
    return float(np.abs(np.linalg.eigvalsh(C.to_dense())).max())


class TestTwoNorm:
    def test_identity(self):
        C = SparseSymMatrix.identity(5)
        assert norm_and_dense_solves(C) == (dense_norm(C), 1)
        assert dense_norm(C) == 1.0

    def test_swap_eigenvalues_pm_one(self):
        C = SparseSymMatrix.from_dense([[0, 1], [1, 0]])
        assert norm_and_dense_solves(C) == (dense_norm(C), 1)

    def test_zero_matrix(self):
        assert norm_and_dense_solves(SparseSymMatrix.zeros(4)) == (0.0, 1)

    def test_against_dense_oracle(self):
        for seed in range(8):
            C = SparseSymMatrix.from_dense(random_symmetric(28, seed))
            assert norm_and_dense_solves(C) == (dense_norm(C), 1)

    def test_deterministic(self):
        A = random_symmetric(30, 3)
        first, second = SparseSymMatrix.from_dense(A), SparseSymMatrix.from_dense(A)
        assert norm_and_dense_solves(first) == norm_and_dense_solves(second)

    def test_tied_extreme_magnitudes(self):
        # |lambda_min| nearly equal to lambda_max: a power iteration on C^2
        # cannot tell the two ends apart, the dense solve reads both off
        rng = np.random.default_rng(12)
        Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        evals = np.linspace(-1.0, 1.0 - 2e-9, 40)
        A = (Q * evals) @ Q.T
        A = (A + A.T) / 2
        C = SparseSymMatrix.from_dense(A)
        assert norm_and_dense_solves(C) == (dense_norm(C), 1)
        assert dense_norm(C) == pytest.approx(1.0, rel=1e-12)


class TestMinEig:
    def test_identity(self):
        val = min_eig_estimate(np.eye(4))
        assert val == pytest.approx(1.0, abs=1e-9)
        _, vecs = bottom_eigenpairs(np.eye(4), 1)
        assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0)

    def test_swap(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        val = min_eig_estimate(A)
        assert val == pytest.approx(-1.0, abs=1e-9)
        vec = bottom_eigenpairs(A, 1)[1][:, 0]
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert min(
            np.linalg.norm(vec - target), np.linalg.norm(vec + target)
        ) < 1e-7

    def test_diagonal(self):
        A = np.diag([3.0, -2.0, 5.0])
        val = min_eig_estimate(A)
        assert val == pytest.approx(-2.0, abs=1e-9)
        vec = bottom_eigenpairs(A, 1)[1][:, 0]
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-7)

    def test_residual_postcondition(self):
        for seed in range(4):
            A = random_symmetric(30, seed)
            val = min_eig_estimate(A)
            vals, vecs = bottom_eigenpairs(A, 1)
            # the same LAPACK driver and eigenvalue, with and without vectors
            assert val == vals[0]
            vec = vecs[:, 0]
            resid = np.linalg.norm(A @ vec - val * vec)
            assert resid <= 1e-8 * np.abs(np.linalg.eigvalsh(A)).max() * 1.01

    def test_matches_dense_oracle_at_n120(self):
        A = random_symmetric(120, 9)
        expected = np.linalg.eigvalsh(A)[0]
        val = min_eig_estimate(A)
        assert val == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_clustered_bottom_of_a_converged_slack(self):
        # the bottom of a G1-sized max-cut slack: 14 eigenvalues within
        # 7.6e-8 of zero below a gap to 0.013
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((200, 200)))[0]
        evals = np.concatenate(
            [np.sort(-7.6e-8 * rng.random(14)), 0.013 + 30 * rng.random(186) ** 2]
        )
        A = (Q * evals) @ Q.T
        A = (A + A.T) / 2
        expected = np.linalg.eigvalsh(A)
        val = min_eig_estimate(A)
        scale = np.abs(expected).max()
        assert abs(val - expected[0]) <= 1e-12 * scale
        vals, vecs = bottom_eigenpairs(A, 1)
        assert vals[0] == val
        assert np.linalg.norm(A @ vecs[:, 0] - val * vecs[:, 0]) <= 1e-12 * scale

    def test_zero_matrix(self):
        assert min_eig_estimate(np.zeros((6, 6))) == 0.0

    def test_deterministic(self):
        A = random_symmetric(40, 5)
        assert min_eig_estimate(A) == min_eig_estimate(A)

    def test_input_unchanged(self):
        A = random_symmetric(40, 6)
        before = A.copy()
        assert isinstance(min_eig_estimate(A), float)
        np.testing.assert_array_equal(A, before)

    def test_lapack_failure_falls_back_to_eigvalsh(self, monkeypatch):
        def failing(a, **kwargs):
            n = a.shape[0]
            return np.full(n, np.nan), np.empty((0, 0)), 0, np.empty(0, np.int32), n + 1

        A = random_symmetric(25, 7)
        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
        assert min_eig_estimate(A) == np.linalg.eigvalsh(A)[0]


class TestPositiveDefinite:
    def test_shift_decides(self):
        A = np.diag([3.0, -2.0, 5.0])
        assert not positive_definite(A.copy(), 1.5)
        assert positive_definite(A.copy(), 2.5)
        # a factorization needs strict definiteness: a zero pivot fails
        assert not positive_definite(A.copy(), 2.0)

    def test_overwrites_its_argument(self):
        A = random_symmetric(12, 3)
        B = A.copy()
        assert positive_definite(B, 1.0 - np.linalg.eigvalsh(A)[0])
        assert not np.array_equal(A, B)

    def test_agrees_with_the_dense_spectrum(self):
        for seed in range(6):
            A = random_symmetric(30, seed)
            bottom = np.linalg.eigvalsh(A)[0]
            assert not positive_definite(A.copy(), -bottom - 1e-6)
            assert positive_definite(A.copy(), -bottom + 1e-6)
