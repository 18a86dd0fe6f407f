import json
import logging

import numpy as np
import pytest

from bmadmm import (
    ManifoldSpec,
    OffManifold,
    ProblemSpec,
    SolverOptions,
    SparseSymMatrix,
    brute_force_maxcut,
    dual_certificate,
    maxcut_cost,
    oracle_sdp,
    parse_gset,
    random_point,
    relative_gap,
    solve,
)


def edge_cost():
    return SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def random_cost(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return SparseSymMatrix.from_dense((A + A.T) / 2)


def make_graph(text):
    return parse_gset(text)


class TestDualCertificate:
    def test_zero_cost(self):
        spec = ManifoldSpec.sphere(3, 2)
        cert = dual_certificate(SparseSymMatrix.zeros(3), random_point(spec, 0))
        assert cert.certified
        assert cert.duality_gap == 0.0
        assert cert.slack_min_eig == 0.0
        np.testing.assert_array_equal(cert.lam, np.zeros(3))

    def test_edge_minimizer_certified(self):
        # 2x2 arithmetic oracle: lam = (-1, -1), slack [[1,1],[1,1]],
        # eigenvalues {0, 2}
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        A = edge_cost().to_dense()
        lam_expected = np.sum((A @ sigma) * sigma, axis=1)
        np.testing.assert_array_equal(lam_expected, [-1.0, -1.0])
        slack_expected = A - np.diag(lam_expected)
        np.testing.assert_array_equal(slack_expected, [[1.0, 1.0], [1.0, 1.0]])
        assert np.linalg.eigvalsh(slack_expected).min() == pytest.approx(0.0)

        cert = dual_certificate(edge_cost(), sigma)
        np.testing.assert_allclose(cert.lam, [-1.0, -1.0])
        assert cert.duality_gap == pytest.approx(0.0, abs=1e-12)
        assert cert.slack_min_eig == pytest.approx(0.0, abs=1e-9)
        assert cert.certified

    def test_edge_maximizer_not_certified(self):
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])
        A = edge_cost().to_dense()
        slack_expected = A - np.eye(2)
        assert np.linalg.eigvalsh(slack_expected).min() == pytest.approx(-2.0)

        cert = dual_certificate(edge_cost(), sigma)
        np.testing.assert_allclose(cert.lam, [1.0, 1.0])
        assert cert.slack_min_eig == pytest.approx(-2.0, abs=1e-8)
        assert not cert.certified

    def test_off_manifold_rejected(self):
        with pytest.raises(OffManifold):
            dual_certificate(edge_cost(), 2.0 * np.eye(2))

    def test_weak_duality_gap_sign(self):
        for seed in range(6):
            n = 12
            C = random_cost(n, seed)
            sigma = random_point(ManifoldSpec.sphere(n, 4), seed)
            cert = dual_certificate(C, sigma)
            assert cert.duality_gap >= -1e-9 * (1 + abs(cert.objective))

    @pytest.mark.parametrize("d", [1, 3])
    def test_gap_is_rounding_at_random_feasible_points(self, d):
        # sum tr(Lam_i) = <C s, s> anywhere on the manifold, so the gap
        # carries no information about optimality
        for seed in range(5):
            C = random_cost(24, seed)
            sigma = random_point(ManifoldSpec(q=24 // d, d=d, r=6), seed)
            cert = dual_certificate(C, sigma, d=d)
            assert abs(cert.duality_gap) <= 1e-12 * (1 + abs(cert.objective))

    def test_certified_bound_dominates_random_points(self):
        C = random_cost(20, 3)
        result = solve(ProblemSpec.sphere(C), SolverOptions(seed=0))
        cert = dual_certificate(C, result.state.sigma_tilde)
        assert cert.certified
        floor = cert.objective - cert.duality_gap - 1e-6
        spec = ManifoldSpec.sphere(20, 6)
        rng_seeds = range(1000)
        values = []
        for s in rng_seeds:
            sigma = random_point(spec, s)
            values.append(float(np.vdot(C._csr @ sigma, sigma)))
        assert min(values) >= floor

    def test_stationary_gap_vanishes(self):
        from bmadmm import riemannian_grad

        C = random_cost(16, 5)
        options = SolverOptions(seed=2)
        result = solve(ProblemSpec.sphere(C), options)
        grad = np.linalg.norm(riemannian_grad(C, result.state.sigma_tilde))
        cert = dual_certificate(C, result.state.sigma_tilde)
        assert abs(cert.duality_gap) <= 10 * options.tol_primal * (1 + abs(cert.objective))
        assert grad < 1e-5

    def test_block_certificate(self):
        from bmadmm import generate_so3, two_norm_estimate

        prob = generate_so3(6, 0.5, seed=4)
        nt = two_norm_estimate(prob.cost)
        result = solve(prob, SolverOptions(rho=nt, mu=nt, seed=1, max_iter=30000))
        cert = dual_certificate(prob.cost, result.state.sigma_tilde, d=3)
        assert cert.lam.shape == (6, 3, 3)
        assert cert.block_count == 6
        # multipliers are symmetric blocks; skew part is a stationarity
        # diagnostic and must be tiny at convergence
        for i in range(6):
            np.testing.assert_allclose(cert.lam[i], cert.lam[i].T)
        assert cert.skew_norm < 1e-6
        assert cert.duality_gap == pytest.approx(0.0, abs=1e-9)

    def test_json_fields(self):
        cert = dual_certificate(edge_cost(), np.array([[1.0, 0.0], [-1.0, 0.0]]))
        payload = json.loads(cert.to_json())
        assert set(payload) == {
            "objective",
            "gap",
            "slack_min_eig",
            "certified",
            "block_count",
        }


class TestRelativeGap:
    def test_at_reference(self):
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert relative_gap(edge_cost(), sigma, -2.0) == pytest.approx(0.0, abs=1e-15)

    def test_arithmetic(self):
        # objective -1.8 against reference -2 -> 0.1
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        value = -2.0
        assert abs((-1.8 - value) / value) == pytest.approx(0.1)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="absolute"):
            relative_gap(edge_cost(), np.eye(2), 0.0)


class TestBruteForceMaxcut:
    def test_single_edge(self):
        value, assignment = brute_force_maxcut(make_graph("2 1\n1 2 1\n"))
        assert value == 1.0
        assert assignment[0] != assignment[1]

    def test_triangle(self):
        # enumeration oracle over the 4 distinct partitions
        cuts = []
        for code in range(4):
            s = [1 if (code >> v) & 1 else -1 for v in range(2)] + [1]
            cuts.append(sum(1 for (i, j) in [(0, 1), (1, 2), (0, 2)] if s[i] != s[j]))
        assert max(cuts) == 2

        value, _ = brute_force_maxcut(make_graph("3 3\n1 2 1\n2 3 1\n1 3 1\n"))
        assert value == 2.0

    def test_four_cycle_bipartite(self):
        value, assignment = brute_force_maxcut(
            make_graph("4 4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n")
        )
        assert value == 4.0
        assert assignment[0] == assignment[2] and assignment[1] == assignment[3]

    def test_size_limit(self):
        g = make_graph("2 1\n1 2 1\n")
        g.n = 30
        with pytest.raises(ValueError, match="24"):
            brute_force_maxcut(g)

    def test_weighted(self):
        value, _ = brute_force_maxcut(make_graph("3 3\n1 2 5\n2 3 1\n1 3 1\n"))
        assert value == 6.0  # cut {2} vs {1, 3}


class TestOracleSdp:
    def test_block_oracle_meets_descent_condition(self, caplog):
        from bmadmm import generate_so3

        C = generate_so3(6, 0.5, 0).cost
        with caplog.at_level(logging.WARNING, logger="bmadmm"):
            res = oracle_sdp(C, d=3, seed=0)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert res.certificate.certified

    def test_edge(self):
        res = oracle_sdp(edge_cost(), seed=0)
        assert res.value == pytest.approx(-2.0, abs=1e-6)
        assert res.certificate.certified

    def test_triangle(self):
        C = maxcut_cost(make_graph("3 3\n1 2 1\n2 3 1\n1 3 1\n"))
        res = oracle_sdp(C, seed=0)
        assert res.value == pytest.approx(-2.25, abs=1e-6)
        assert res.certificate.certified

    def test_zero_cost(self):
        res = oracle_sdp(SparseSymMatrix.zeros(4), seed=1)
        assert res.value == 0.0
        assert res.certificate.certified

    def test_relaxation_dominates_integer_cut(self):
        # the relaxation value (negated) upper-bounds the exhaustive cut
        for name, text in (
            ("edge", "2 1\n1 2 1\n"),
            ("triangle", "3 3\n1 2 1\n2 3 1\n1 3 1\n"),
            ("cycle", "4 4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n"),
        ):
            graph = make_graph(text)
            cut, _ = brute_force_maxcut(graph)
            res = oracle_sdp(maxcut_cost(graph), seed=2)
            assert -res.value >= cut - 1e-6, name

    def test_relaxation_dominates_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            n = 8
            edges = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rng.random() < 0.5:
                        edges.append((i, j, float(rng.integers(1, 4))))
            text = f"{n} {len(edges)}\n" + "".join(
                f"{i} {j} {w}\n" for i, j, w in edges
            )
            graph = make_graph(text)
            cut, _ = brute_force_maxcut(graph)
            res = oracle_sdp(maxcut_cost(graph), seed=trial)
            assert res.certificate.certified
            assert -res.value >= cut - 1e-6

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError, match="500"):
            oracle_sdp(SparseSymMatrix.identity(501))
