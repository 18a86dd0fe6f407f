from unittest import mock

import numpy as np
import pytest

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
from bmadmm.certify import slack_matrix
from bmadmm.sparse import DENSE_FILL


def random_symmetric(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if density < 1.0:
        A *= rng.random((n, n)) < density
    return (A + A.T) / 2


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

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(2, [0, 2, 2], [1, 1], [0.5, 0.5])

    def test_from_coo_sums_duplicates(self):
        C = SparseSymMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [0.5, 0.5, 1.0])
        np.testing.assert_allclose(C.to_dense(), [[0, 1], [1, 0]])

    def test_scaled(self):
        C = SparseSymMatrix.from_dense([[0, 2], [2, 0]])
        np.testing.assert_allclose(C.scaled(-0.5).to_dense(), [[0, -1], [-1, 0]])


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
        slack = slack_matrix(C, lam)
        assert slack._dense is not None
        np.testing.assert_array_equal(slack._dense, slack._csr.toarray())
        np.testing.assert_array_equal(slack.to_dense(), A - np.diag(lam))

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
        val, vec = min_eig_estimate(SparseSymMatrix.identity(4))
        assert val == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_swap(self):
        val, vec = min_eig_estimate(SparseSymMatrix.from_dense([[0, 1], [1, 0]]))
        assert val == pytest.approx(-1.0, abs=1e-9)
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert min(
            np.linalg.norm(vec - target), np.linalg.norm(vec + target)
        ) < 1e-7

    def test_diagonal(self):
        val, vec = min_eig_estimate(SparseSymMatrix.from_dense(np.diag([3.0, -2.0, 5.0])))
        assert val == pytest.approx(-2.0, abs=1e-9)
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-7)

    def test_residual_postcondition(self):
        for seed in range(4):
            A = random_symmetric(30, seed)
            C = SparseSymMatrix.from_dense(A)
            val, vec = min_eig_estimate(C)
            resid = np.linalg.norm(A @ vec - val * vec)
            assert resid <= 1e-8 * np.abs(np.linalg.eigvalsh(A)).max() * 1.01

    def test_matches_dense_oracle_at_n120(self):
        A = random_symmetric(120, 9)
        expected = np.linalg.eigvalsh(A)[0]
        val, _ = min_eig_estimate(SparseSymMatrix.from_dense(A))
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
        val, vec = min_eig_estimate(SparseSymMatrix.from_dense(A))
        scale = np.abs(expected).max()
        assert abs(val - expected[0]) <= 1e-12 * scale
        assert np.linalg.norm(A @ vec - val * vec) <= 1e-12 * scale

    def test_zero_matrix(self):
        val, _ = min_eig_estimate(SparseSymMatrix.zeros(6))
        assert val == 0.0

    def test_deterministic(self):
        C = SparseSymMatrix.from_dense(random_symmetric(40, 5))
        v1 = min_eig_estimate(C)
        v2 = min_eig_estimate(C)
        assert v1[0] == v2[0]
        np.testing.assert_array_equal(v1[1], v2[1])
