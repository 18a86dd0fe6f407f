import copy
import gc
import pickle
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bmadmm import native
from bmadmm.certify import dense_slack
from bmadmm.sparse import DENSE_FILL, bottom_eigenpairs, positive_definite, spmm_kernel


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

    def test_keeps_read_only_copies_of_its_arrays(self):
        # the compiled product reads the indices that were checked here
        n, row_ptr, col_idx, values = identity_plus(40, {(0, 1): 2.0, (1, 0): 2.0})
        given = [
            np.asarray(row_ptr, dtype=np.int64),
            np.asarray(col_idx, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        ]
        C = SparseSymMatrix(n, *given)
        for kept, array in zip((C.row_ptr, C.col_idx, C.values), given):
            assert not kept.flags.writeable and kept.flags.c_contiguous
            assert not np.shares_memory(kept, array)
            assert array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            C.col_idx[0] = n - 1
        given[1][0] = n - 1
        assert C.col_idx[0] == 0

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


R_VALUES = (1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 64)


def scan_case(n, r, seed, mode):
    """A symmetric n x n matrix and an (n, r) factor.  About a third of
    the rows are empty, and a tenth of the stored values are zeros of
    either sign.  ``mode`` "specials" puts NaN, +-inf and -0.0 into a fifth
    of the factor's entries, and "negative zero" makes every entry -0.0."""
    rng = np.random.default_rng(seed)
    active = rng.random(n) < 0.7
    pattern = np.triu(rng.random((n, n)) < 0.3) & active[:, None] & active[None, :]
    pattern |= pattern.T
    W = rng.standard_normal((n, n))
    W[rng.random((n, n)) < 0.1] = rng.choice([0.0, -0.0])
    W = np.where(np.triu(np.ones((n, n), dtype=bool)), W, W.T)
    rows, cols = np.nonzero(pattern)
    row_ptr = np.r_[0, np.cumsum(pattern.sum(axis=1))]
    C = SparseSymMatrix(n, row_ptr, cols, W[rows, cols])
    V = rng.standard_normal((n, r))
    if mode == "specials":
        mask = rng.random((n, r)) < 0.2
        V[mask] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=int(mask.sum()))
    elif mode == "negative zero":
        V[:] = -0.0
    return C, V


MODES = ("plain", "specials", "negative zero")
SCAN = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def scan_cases(draw):
    return scan_case(
        draw(st.integers(1, 24)),
        draw(st.sampled_from(R_VALUES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(MODES)),
    )


def assert_same_values(out, expected):
    """Equal entry for entry, NaN where NaN, and zeros of the same sign.
    The payload of a NaN is not compared."""
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert np.array_equal(out, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(out[numbers]), np.signbit(expected[numbers]))


def compiled_scan(library, C, V):
    """C @ V by the scan of ``library`` (``native.kernel("spmm")``),
    whichever product ``spmm`` takes for C."""
    out = np.empty_like(V)
    library.spmm(
        C.row_ptr.ctypes.data, C.col_idx.ctypes.data, C.values.ctypes.data,
        *native.views(V.shape, V, out), *V.shape,
    )
    return out


class TestCompiledScan:
    @SCAN
    @given(scan_cases())
    def test_repeats_the_scipy_bits(self, case):
        library = native.kernel("spmm")
        if library is None:
            pytest.skip("the C spmm kernel is unavailable")
        C, V = case
        expected = C._csr @ V
        assert_same_values(compiled_scan(library, C, V), expected)
        if C._dense is None:
            assert_same_values(spmm(C, V), expected)

    def test_repeats_the_scipy_bits_at_every_width(self, loaded):
        # every block, pair and single-column stage, whatever the draws
        library = loaded("spmm")
        for n in (1, 9, 24):
            for r in R_VALUES:
                for mode in MODES:
                    C, V = scan_case(n, r, 1000 * n + r, mode)
                    assert_same_values(compiled_scan(library, C, V), C._csr @ V)

    def test_a_row_of_negative_zero_products_sums_to_zero(self, loaded):
        # scipy's sums start from 0.0, and 0.0 + -0.0 is 0.0
        library = loaded("spmm")
        C = g1_density_maxcut(60, 1)
        V = np.full((60, 7), -0.0)
        out = compiled_scan(library, C, V)
        assert_same_values(out, C._csr @ V)
        assert not np.signbit(out).any()

    def test_every_other_factor_takes_scipy_with_the_same_bits(self, loaded, monkeypatch):
        library = loaded("spmm")
        calls = []

        def spy(*args):
            calls.append(args[-1])
            return library.spmm(*args)

        kernel = native.kernel
        monkeypatch.setattr(
            native, "kernel", lambda name: SimpleNamespace(spmm=spy) if name == "spmm" else kernel(name)
        )
        C = g1_density_maxcut(60, 3)
        assert spmm_kernel(C) == "c"
        V = np.random.default_rng(4).standard_normal((60, 7))
        expected = spmm(C, V)
        assert calls == [7]
        assert_same_values(expected, C._csr @ V)
        read_only = V.copy()
        read_only.flags.writeable = False
        for factor, want in (
            (np.asfortranarray(V), expected),
            (read_only, expected),
            (V[:, 2], expected[:, 2]),
            (np.zeros((60, 0)), np.zeros((60, 0))),
        ):
            assert_same_values(spmm(C, factor), want)
        assert calls == [7]
        # a float32 factor is converted to a fresh float64 array first
        single = V.astype(np.float32)
        assert_same_values(spmm(C, single), C._csr @ single.astype(np.float64))
        assert calls == [7, 7]

    def test_copies_and_pickles_scan_their_own_arrays(self, loaded):
        loaded("spmm")
        C = g1_density_maxcut(60, 3)
        V = np.random.default_rng(7).standard_normal((60, 7))
        expected = C._csr @ V
        assert_same_values(spmm(C, V), expected)
        copies = [copy.copy(C), copy.deepcopy(C), pickle.loads(pickle.dumps(C))]
        del C
        gc.collect()
        for other in copies:
            assert other._addresses == tuple(
                a.ctypes.data for a in (other.row_ptr, other.col_idx, other.values)
            )
            assert not any(a.flags.writeable for a in (other.row_ptr, other.col_idx, other.values))
            assert_same_values(spmm(other, V), expected)

    def test_a_failed_build_gives_the_scipy_bits(self, failed_build, caplog):
        C = g1_density_maxcut(60, 3)
        V = np.random.default_rng(5).standard_normal((60, 7))
        expected = C._csr @ V
        with caplog.at_level("INFO", logger="bmadmm.native"):
            for _ in range(2):
                assert_same_values(spmm(C, V), expected)
        assert native.kernel("spmm") is None
        assert spmm_kernel(C) == "scipy"
        assert [rec.levelname for rec in caplog.records] == ["INFO"]

    def test_names_the_product_on_each_path(self, kernel_path):
        C = g1_density_maxcut(200, 1)
        V = np.random.default_rng(6).standard_normal((200, 20))
        assert spmm_kernel(C) == {"c": "c", "numpy": "scipy"}[kernel_path]
        assert_same_values(spmm(C, V), C._csr @ V)
        dense = SparseSymMatrix.from_dense(random_symmetric(20, 7))
        assert spmm_kernel(dense) == "dense"


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
