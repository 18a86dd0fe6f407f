import hashlib
from pathlib import Path

import numpy as np
import pytest

from bmadmm import (
    GraphInstance,
    GsetFormatError,
    ManifoldSpec,
    SparseSymMatrix,
    generate_so3,
    maxcut_cost,
    parse_gset,
    load_gset,
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

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_its_line(self, weight):
        with pytest.raises(GsetFormatError, match="finite") as info:
            parse_gset(f"3 2\n1 2 {weight}\n2 3 1\n")
        assert info.value.line_no == 2

    def test_overflowing_duplicate_sum_names_its_line(self):
        with pytest.raises(GsetFormatError, match="overflows") as info:
            parse_gset("2 2\n1 2 1e308\n2 1 1e308\n")
        assert info.value.line_no == 3

    def test_bad_header(self):
        with pytest.raises(GsetFormatError):
            parse_gset("banana\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GsetFormatError, match="declared 2"):
            parse_gset("3 2\n1 2 1\n")

    def test_empty_input(self):
        with pytest.raises(GsetFormatError):
            parse_gset("")

    @pytest.mark.parametrize(
        "text, message, line_no",
        [
            # blank lines before the header and between edges keep their numbers
            ("\n  \n3\n", "line 3: header must be 'n m', got '3'", 3),
            ("\n3 x\n", "line 2: header must hold two integers, got '3 x'", 2),
            ("\n\n0 1\n", "line 3: invalid header values n=0, m=1", 3),
            ("\n3 2\n\n1 2\n", "line 4: edge lines must be 'i j w', got '1 2'", 4),
            ("\n3 2\n1 2 1\n\n1 x 1\n", "line 5: could not parse edge '1 x 1'", 5),
            ("\n3 2\n\n1 4 1\n", "line 4: vertex index out of range 1..3 in '1 4 1'", 4),
            ("\n3 2\n1 2 1\n\n2 3 nan\n", "line 5: edge weight must be finite, got '2 3 nan'", 5),
            ("\n3 1\n1 2 1\n\n2 3 1\n", "line 5: more than the declared 1 edges", 5),
            ("\n2 2\n1 2 1e308\n\n2 1 1e308\n", "line 5: summed weight of edge 1 2 overflows", 5),
            ("", "empty input: missing 'n m' header", 1),
            (" \n\t\n", "empty input: missing 'n m' header", 1),
            ("\n3 2\n1 2 1\n\n", "declared 2 edges but found 1", None),
        ],
    )
    def test_error_message_and_line(self, text, message, line_no):
        with pytest.raises(GsetFormatError) as info:
            parse_gset(text)
        assert str(info.value) == message
        assert info.value.line_no == line_no

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

    def test_overflowing_degree_names_its_vertex(self):
        g = parse_gset("3 2\n1 2 1e308\n1 3 1e308\n")
        with pytest.raises(GsetFormatError, match=r"^vertex 1: weighted degree overflows$"):
            maxcut_cost(g)

    @pytest.mark.parametrize("bad", [0, 4, 1.5, np.nan, np.inf])
    def test_endpoint_outside_1_to_n_rejected(self, bad):
        """An endpoint that is not an integer in 1..n raises GsetFormatError
        naming the edge; 1.5 is never truncated to vertex 1."""
        g = GraphInstance(n=3, edges=[(1, 2, 1.0), (bad, 3, 2.0)])
        with pytest.raises(GsetFormatError, match=r"1\.\.3"):
            maxcut_cost(g)
        g = GraphInstance(n=3, edges=[(1, 2, 1.0), (3, bad, 2.0)])
        with pytest.raises(GsetFormatError, match=r"1\.\.3"):
            maxcut_cost(g)


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

    def test_zero_density_certified_by_solver(self):
        from bmadmm import SolverOptions, Status, dual_certificate, solve

        prob = generate_so3(3, 0.0, seed=0)
        assert prob.cost.nnz == 0
        result = solve(prob, SolverOptions(rho="practice"))
        assert (result.status, result.state.k) == (Status.CERTIFIED, 0)
        assert dual_certificate(prob.cost, result.state.sigma_tilde, d=3).proves_optimal()

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
        for s in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                generate_so3(4, s, seed=0)


def _csr_digest(C):
    h = hashlib.sha256()
    for a in (C.row_ptr, C.col_idx, C.values):
        h.update(a.tobytes())
    return h.hexdigest()


DATA = Path(__file__).parent / "data"
# A repeated edge in both orientations and two self-loops: from_coo sums
# duplicates in triplet order, so these bytes pin that order too.
LOOPS = GraphInstance(
    n=4, edges=[(1, 2, 0.1), (2, 2, 0.3), (2, 1, 0.2), (3, 4, 0.7), (1, 2, 0.7), (4, 4, -1.5)]
)
# sha256 over the row_ptr, col_idx and values bytes of each cost, recorded
# from the per-edge and per-block loop builders these replaced.
BUILDER_DIGESTS = {
    "so3-50-0.08-0": (
        lambda: generate_so3(50, 0.08, 0).cost,
        "14ecf3dff230edab4970f361ded8132d7142dbab72325e2f8e1c83784bb8eaa3",
    ),
    "so3-50-0.08-1": (
        lambda: generate_so3(50, 0.08, 1).cost,
        "c905397671dc1a655d27765b5ac181866d432537bdb24417647e305a4ad8d5b4",
    ),
    "so3-50-0.08-2": (
        lambda: generate_so3(50, 0.08, 2).cost,
        "92c72094a1e7c74d832e0777d70d0831375511bb07f0aba805f8e0cb0be191f8",
    ),
    "so3-50-0.08-3": (
        lambda: generate_so3(50, 0.08, 3).cost,
        "2ad5a8d13431288145c72a976f56e565bc0a77e7a542498b7e2891db12a3588e",
    ),
    "so3-6-0.5-0": (
        lambda: generate_so3(6, 0.5, 0).cost,
        "c3a08b5803861b5a791b9e8b196dfe7ec2ad6735ef8c1e5e6191fe2839d65817",
    ),
    "so3-2-1.0-0": (
        lambda: generate_so3(2, 1.0, 0).cost,
        "8b12e477ad7ebb646c22cc1b53127a3550a30e4ecd18a0c9edc3837e67a1ca61",
    ),
    "so3-5-0.0-0": (
        lambda: generate_so3(5, 0.0, 0).cost,
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
    ),
    "cycle4": (
        lambda: maxcut_cost(load_gset(DATA / "cycle4.txt")),
        "4b8dd5df01d0d4ea6b2f0d8ae42af8b7e4f8a8791459339b518710b3e29c5469",
    ),
    "edge": (
        lambda: maxcut_cost(load_gset(DATA / "edge.txt")),
        "b6bac7156b3e9e825cb3280d38415d1a68d3d201ae81e15c483874aa390709ff",
    ),
    "k10": (
        lambda: maxcut_cost(load_gset(DATA / "k10.txt")),
        "1a48c2577253eb07f5904b43441265fd6da70d1cb57a21bccbd75e57e06d1810",
    ),
    "triangle": (
        lambda: maxcut_cost(load_gset(DATA / "triangle.txt")),
        "c6ff98cf5982c63782d7440865cd96dfa029c0fda9fa97c92a1e5b266db973f6",
    ),
    "empty": (
        lambda: maxcut_cost(GraphInstance(n=3)),
        "045c063ed189ba675905cace357f04cfb06e65d6246147bb2ae7bca945ca0b46",
    ),
    "loops": (
        lambda: maxcut_cost(LOOPS),
        "9a67f8e95fbe5d78fb3280663097a72167a3a918ebd9db2834b0716133209dd5",
    ),
}


@pytest.mark.parametrize("name", BUILDER_DIGESTS)
def test_builder_bytes_are_pinned(name):
    """The CSR arrays of every builder input are byte-identical to the
    recorded ones: the seeded benchmark instances never change."""
    build, expected = BUILDER_DIGESTS[name]
    assert _csr_digest(build()) == expected


def _maxcut_cost_loop(graph):
    """The per-edge loop that ``maxcut_cost`` replaced, as the reference."""
    degree = np.zeros(graph.n)
    rows, cols, vals = [], [], []
    for i, j, w in graph.edges:
        a, b = i - 1, j - 1
        degree[a] += w
        degree[b] += w
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((w / 4.0, w / 4.0))
    rows.extend(range(graph.n))
    cols.extend(range(graph.n))
    vals.extend(-degree / 4.0)
    return SparseSymMatrix.from_coo(graph.n, rows, cols, vals)


def _generate_so3_loop(q, s, seed):
    """The per-block loop that ``generate_so3`` replaced, as the reference."""
    rng = np.random.default_rng(seed)
    pair_i, pair_j = np.triu_indices(q, k=1)
    mask = rng.random(pair_i.size) < s
    blocks = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(mask), 3, 3))
    a, b = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    rows, cols, vals = [], [], []
    for t, (i, j) in enumerate(zip(pair_i[mask], pair_j[mask])):
        # the block, then its mirror
        rows += [(3 * i + a).ravel(), (3 * j + b).ravel()]
        cols += [(3 * j + b).ravel(), (3 * i + a).ravel()]
        vals += [blocks[t].ravel()] * 2
    if not rows:
        return SparseSymMatrix.zeros(3 * q)
    return SparseSymMatrix.from_coo(
        3 * q, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def _same_bytes(A, B):
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip((A.row_ptr, A.col_idx, A.values), (B.row_ptr, B.col_idx, B.values))
    )


@pytest.mark.parametrize("seed", range(6))
def test_builders_match_their_loops(seed):
    """Random multigraphs, with repeated edges in both orientations and
    self-loops, and SO(3) draws give the loops' bytes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    m = int(rng.integers(0, 4 * n))
    ends = rng.integers(1, n + 1, size=(m, 2))
    weights = rng.standard_normal(m) / 10
    graph = GraphInstance(n, [(int(i), int(j), float(w)) for (i, j), w in zip(ends, weights)])
    assert _same_bytes(maxcut_cost(graph), _maxcut_cost_loop(graph))
    q, s = int(rng.integers(2, 12)), float(rng.random())
    assert _same_bytes(generate_so3(q, s, seed).cost, _generate_so3_loop(q, s, seed))


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
