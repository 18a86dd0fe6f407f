import numpy as np
import pytest

from bmadmm import (
    GsetFormatError,
    ManifoldSpec,
    SparseSymMatrix,
    generate_so3,
    maxcut_cost,
    parse_gset,
    read_problem,
    serialize_gset,
    two_norm_estimate,
    write_problem,
)


class TestParseGset:
    def test_minimal_file(self):
        g = parse_gset("2 1\n1 2 1\n")
        assert g.n == 2
        assert g.edges == [(1, 2, 1.0)]

    def test_triangle(self):
        g = parse_gset("3 3\n1 2 1\n2 3 1\n1 3 1\n")
        assert g.n == 3
        assert g.edges == [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]

    def test_self_loop_dropped_with_count(self):
        g = parse_gset("2 2\n1 1 5\n1 2 1\n")
        assert g.dropped_self_loops == 1
        assert g.edges == [(1, 2, 1.0)]

    def test_duplicate_edges_summed_both_orientations(self):
        g = parse_gset("3 3\n1 2 1\n2 1 2\n1 3 1\n")
        assert g.edges == [(1, 2, 3.0), (1, 3, 1.0)]

    def test_malformed_line_number(self):
        with pytest.raises(GsetFormatError) as info:
            parse_gset("2 1\n1 2\n")
        assert info.value.line_no == 2

    def test_index_out_of_range(self):
        with pytest.raises(GsetFormatError, match="out of range"):
            parse_gset("2 1\n1 3 1\n")

    def test_bad_header(self):
        with pytest.raises(GsetFormatError):
            parse_gset("banana\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GsetFormatError, match="declared 2"):
            parse_gset("3 2\n1 2 1\n")

    def test_empty_input(self):
        with pytest.raises(GsetFormatError):
            parse_gset("")

    def test_round_trip_identical(self):
        text = "4 5\n2 1 1\n1 2 1\n3 4 -2.5\n1 4 3\n2 3 1\n"
        g1 = parse_gset(text)
        ser = serialize_gset(g1)
        g2 = parse_gset(ser)
        assert g1.n == g2.n
        assert g1.edges == g2.edges
        assert serialize_gset(g2) == ser


class TestMaxcutCost:
    def test_single_edge_matrix(self):
        C = maxcut_cost(parse_gset("2 1\n1 2 1\n"))
        np.testing.assert_allclose(
            C.to_dense(), [[-0.25, 0.25], [0.25, -0.25]]
        )

    def test_single_edge_minimum_is_minus_cut(self):
        # <C, X> = -(1/4)(2 - 2 X12), minimized at X12 = -1 giving -1
        x12 = np.linspace(-1, 1, 10_001)
        values = -(2 - 2 * x12) / 4
        assert values.min() == pytest.approx(-1.0)

    def test_triangle_value(self):
        from bmadmm import ProblemSpec, SolverOptions, solve

        C = maxcut_cost(parse_gset("3 3\n1 2 1\n2 3 1\n1 3 1\n"))
        result = solve(ProblemSpec.sphere(C), SolverOptions(seed=0))
        assert result.state.last_objective == pytest.approx(-2.25, abs=1e-4)

    def test_laplacian_rows_sum_to_zero(self):
        g = parse_gset("4 4\n1 2 2\n2 3 1\n3 4 5\n1 4 1\n")
        L = -4.0 * maxcut_cost(g).to_dense()
        degrees = np.abs(L).sum(axis=1) / 2
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12 * degrees.max())

    def test_weighted_degrees(self):
        g = parse_gset("3 2\n1 2 2\n2 3 3\n")
        C = maxcut_cost(g)
        np.testing.assert_allclose(np.diag(C.to_dense()), [-0.5, -1.25, -0.75])


class TestGenerateSo3:
    def test_single_pair_at_full_density(self):
        prob = generate_so3(2, 1.0, seed=0)
        C = prob.cost
        assert C.n == 6
        assert C.nnz == 18  # one 3x3 block and its mirror
        dense = C.to_dense()
        np.testing.assert_array_equal(dense[:3, :3], np.zeros((3, 3)))
        np.testing.assert_array_equal(dense[3:, 3:], np.zeros((3, 3)))

    def test_bit_equal_symmetry(self):
        prob = generate_so3(10, 0.4, seed=1)
        dense = prob.cost.to_dense()
        assert np.array_equal(dense, dense.T)  # exact, not approximate

    def test_zero_density_rejected_by_solver(self):
        from bmadmm import SolverOptions, solve

        prob = generate_so3(3, 0.0, seed=0)
        assert prob.cost.nnz == 0
        with pytest.raises(ValueError, match="zero"):
            solve(prob, SolverOptions(rho="practice"))

    def test_block_pair_count_binomial(self):
        q, s = 100, 0.02
        pairs = q * (q - 1) // 2
        prob = generate_so3(q, s, seed=7)
        populated = prob.cost.nnz // 18
        mean = pairs * s
        sd = np.sqrt(pairs * s * (1 - s))
        assert abs(populated - mean) <= 3 * sd

    def test_deterministic(self):
        a = generate_so3(8, 0.3, seed=9)
        b = generate_so3(8, 0.3, seed=9)
        np.testing.assert_array_equal(a.cost.values, b.cost.values)
        np.testing.assert_array_equal(a.cost.col_idx, b.cost.col_idx)

    def test_manifold_defaults(self):
        prob = generate_so3(5, 0.5, seed=2)
        assert prob.manifold.d == 3
        assert prob.manifold.q == 5
        assert prob.manifold.r == ManifoldSpec.default_rank(15, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_so3(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_so3(4, 1.5, seed=0)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        prob = generate_so3(6, 0.5, seed=3)
        path = tmp_path / "prob.bin"
        write_problem(path, prob.cost, d=3)
        C, d = read_problem(path)
        assert d == 3
        assert C.n == prob.cost.n
        np.testing.assert_array_equal(C.row_ptr, prob.cost.row_ptr)
        np.testing.assert_array_equal(C.col_idx, prob.cost.col_idx)
        np.testing.assert_array_equal(C.values, prob.cost.values)

    def test_layout_documented_header(self, tmp_path):
        C = SparseSymMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]])
        path = tmp_path / "tiny.bin"
        write_problem(path, C, d=1)
        raw = path.read_bytes()
        header = np.frombuffer(raw[:24], dtype="<u8")
        np.testing.assert_array_equal(header, [2, 2, 1])
        row_ptr = np.frombuffer(raw[24 : 24 + 3 * 8], dtype="<i8")
        np.testing.assert_array_equal(row_ptr, [0, 1, 2])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            read_problem(path)

    def test_zero_block_size_rejected(self, tmp_path):
        C = SparseSymMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]])
        path = tmp_path / "d0.bin"
        write_problem(path, C, d=0)
        with pytest.raises(ValueError, match="d0.bin.*d=0"):
            read_problem(path)

    def test_norm_matches_after_round_trip(self, tmp_path):
        prob = generate_so3(12, 0.2, seed=5)
        path = tmp_path / "p.bin"
        write_problem(path, prob.cost, d=3)
        C, _ = read_problem(path)
        assert two_norm_estimate(C) == two_norm_estimate(prob.cost)
