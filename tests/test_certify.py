import logging
from types import SimpleNamespace

import numpy as np
import pytest

import bmadmm.solver as solver_module
from bmadmm import (
    Certificate,
    ManifoldSpec,
    OffManifold,
    ProblemSpec,
    SolverOptions,
    SparseSymMatrix,
    Status,
    brute_force_maxcut,
    dual_certificate,
    maxcut_cost,
    oracle_sdp,
    parse_gset,
    random_point,
    relative_gap,
    solve,
)
from bmadmm.certify import CERT_TOL, multipliers, slack_certificate, slack_screen
from bmadmm.solver import _solve
from bmadmm.sparse import spmm


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
        for sigma in (2.0 * np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]])):
            with pytest.raises(OffManifold):
                dual_certificate(edge_cost(), sigma)

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
        result = _solve(ProblemSpec.sphere(C), options)
        assert result.status is Status.CONVERGED
        grad = np.linalg.norm(riemannian_grad(C, result.state.sigma_tilde))
        cert = dual_certificate(C, result.state.sigma_tilde)
        assert abs(cert.duality_gap) <= 10 * options.tol_primal * (1 + abs(cert.objective))
        assert grad < 1e-5

    def test_block_certificate(self):
        from bmadmm import generate_so3, two_norm_estimate

        prob = generate_so3(6, 0.5, seed=4)
        nt = two_norm_estimate(prob.cost)
        options = SolverOptions(rho=nt, mu=nt, seed=1, max_iter=30000)
        # the residual stop, not the certificate's: solve's certified stop
        # is optimal to CERT_TOL but its skew part was 1.15e-6
        result = _solve(prob, options)
        cert = dual_certificate(prob.cost, result.state.sigma_tilde, d=3)
        assert cert.lam.shape == (6, 3, 3)
        assert cert.block_count == 6
        # multipliers are symmetric blocks; skew part is a stationarity
        # diagnostic and must be tiny at convergence
        for i in range(6):
            np.testing.assert_allclose(cert.lam[i], cert.lam[i].T)
        assert cert.skew_norm < 1e-6
        assert cert.duality_gap == pytest.approx(0.0, abs=1e-9)
        stopped = solve(prob, options).state.sigma_tilde
        assert dual_certificate(prob.cost, stopped, d=3).proves_optimal()


def certificate(objective, slack_min_eig, duality_gap=0.0, n=10, norm_two=1.0):
    return Certificate(
        objective=objective,
        lam=np.zeros(n),
        duality_gap=duality_gap,
        slack_min_eig=slack_min_eig,
        certified=slack_min_eig >= -1e-6 * norm_two,
        block_count=n,
        n=n,
        norm_two=norm_two,
    )


class TestProvesOptimal:
    def test_slack_and_relative_gap_both_hold(self):
        # lower bound -10 - 5e-6: relative gap 5e-7
        assert certificate(-10.0, -5e-7).proves_optimal()

    def test_passing_slack_with_a_wide_gap_is_not_optimal(self):
        # lower bound -2 - 5e-6: relative gap 2.5e-6
        cert = certificate(-2.0, -5e-7)
        assert cert.certified
        assert cert.relative_gap() > 1e-6
        assert not cert.proves_optimal()

    def test_failed_slack_is_not_optimal(self):
        assert not certificate(-10.0, -2e-6).proves_optimal()

    def test_zero_lower_bound_is_decided_by_the_absolute_gap(self):
        sigma = random_point(ManifoldSpec.sphere(5, 3), 0)
        cert = dual_certificate(SparseSymMatrix.zeros(5), sigma)
        assert cert.lower_bound() == 0.0
        with pytest.raises(ValueError):
            cert.relative_gap()
        assert cert.proves_optimal()
        # absolute gap 1e-3 against 1e-6 n ||C||_2 = 1e-5
        cert = certificate(1e-3, 0.0, duality_gap=1e-3)
        assert cert.lower_bound() == 0.0
        assert not cert.proves_optimal()


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

    def test_reference_runs_past_the_first_certificate(self):
        # solve's certificate stop leaves a relative gap near 2e-7 here; the
        # reference runs on to its residual tolerances
        res = oracle_sdp(random_cost(14, 500), seed=500)
        assert res.certificate.certified
        assert res.certificate.relative_gap() <= 1e-9

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

    @pytest.mark.parametrize("restarts", [0, -2, 2.5])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            oracle_sdp(edge_cost(), restarts=restarts)

    @pytest.mark.parametrize(
        "outcomes, winner",
        [
            # (value, certified) per restart seed 10, 11, ...: a certified
            # result beats a lower uncertified one
            ([(-5.0, False), (-3.0, True), (-4.0, True), (-6.0, False)], 12),
            # equal values go to the lowest seed
            ([(-2.0, False), (-4.0, True), (-4.0, True), (-4.0, True)], 11),
            # nothing certified: the lowest value wins, ties to the lowest seed
            ([(-1.0, False), (-3.0, False), (-3.0, False), (-2.0, False)], 11),
        ],
    )
    def test_selection_rule(self, monkeypatch, outcomes, winner):
        def fake_solve(problem, options):
            sigma = np.full((problem.cost.n, problem.manifold.r), float(options.seed))
            return SimpleNamespace(state=SimpleNamespace(sigma_tilde=sigma))

        def fake_certificate(C, sigma, d=1):
            value, certified = outcomes[int(sigma[0, 0]) - 10]
            return SimpleNamespace(objective=value, certified=certified)

        monkeypatch.setattr(solver_module, "_solve", fake_solve)
        monkeypatch.setattr(solver_module, "dual_certificate", fake_certificate)
        res = oracle_sdp(edge_cost(), restarts=len(outcomes), seed=10)
        assert res.sigma[0, 0] == winner
        assert (res.value, res.certificate.certified) == outcomes[winner - 10]


def placed_slack(n, d, seed, min_eig):
    """A cost C and a factor s on the manifold whose slack, up to
    rounding, is a random symmetric S with S s = 0 and smallest eigenvalue
    ``min_eig`` (exactly 0 where s leaves no complement).  S s = 0 makes
    the multipliers of C = S + blkdiag(Lam) the chosen blocks Lam."""
    rng = np.random.default_rng(seed)
    r = max(d, n // 4)
    sigma = random_point(ManifoldSpec.stiefel(n // d, d, r), seed)
    complement = np.linalg.qr(sigma, mode="complete")[0][:, r:]
    w = rng.uniform(0.0, 2.0, complement.shape[1])
    w[:1] = min_eig
    S = (complement * w) @ complement.T
    lam = rng.uniform(-1.0, 1.0, (n // d, d, d))
    lam = lam + lam.transpose(0, 2, 1)
    C = S.copy()
    C.reshape(n // d, d, n // d, d)[np.arange(n // d), :, np.arange(n // d), :] += lam
    C = SparseSymMatrix.from_dense((C + C.T) / 2)
    return C, sigma


class TestSlackScreen:
    # the eigen test of a tolerance tau accepts slack_min_eig >= -tau
    @pytest.mark.parametrize("tau", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize("d", [1, 3])
    def test_never_rejects_what_the_eigen_test_accepts(self, tau, d):
        for n in range(d, 41, d):
            for i, factor in enumerate((1.0, 1.0 - 1e-9, 1.0 + 1e-9)):
                C, sigma = placed_slack(n, d, 100 * n + i, -tau * factor)
                cost_sigma = spmm(C, sigma)
                passed = slack_screen(C, sigma, cost_sigma, d, tau)
                cert = slack_certificate(C, sigma, cost_sigma, d)
                if not passed:
                    assert cert.slack_min_eig < -tau
                    assert not cert.certified or tau < CERT_TOL * cert.norm_two
                elif tau == 1.0 and factor > 1.0:
                    # 1e-9 below -tau lies far outside the rounding
                    # allowance: only a slack with no complement (S = 0)
                    # passes
                    assert n == d

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize(
        "C", [SparseSymMatrix.zeros(6), SparseSymMatrix.identity(6).scaled(3.0)], ids=["0", "3I"]
    )
    @pytest.mark.parametrize("d", [1, 3])
    def test_constant_objectives_pass(self, C, tau, d):
        sigma = random_point(ManifoldSpec.stiefel(6 // d, d, 4), 0)
        assert slack_screen(C, sigma, spmm(C, sigma), d, tau)

    def test_clearly_indefinite_slack_is_rejected(self):
        C, sigma = placed_slack(30, 1, 0, -1e-3)
        cost_sigma = spmm(C, sigma)
        assert not slack_screen(C, sigma, cost_sigma, 1, 1e-4)
        assert slack_screen(C, sigma, cost_sigma, 1, 1e-2)
        assert slack_certificate(C, sigma, cost_sigma).slack_min_eig == pytest.approx(-1e-3)

    def test_multipliers_are_the_certificate_s(self):
        for d in (1, 3):
            C, sigma = placed_slack(12, d, 4, -0.5)
            cost_sigma = spmm(C, sigma)
            lam, skew_norm = multipliers(sigma, cost_sigma, d)
            cert = slack_certificate(C, sigma, cost_sigma, d)
            np.testing.assert_array_equal(lam, cert.lam)
            assert skew_norm == cert.skew_norm


class TestCertificateReuse:
    """``slack_certificate`` keeps its last result on the matrix and
    returns it again only for bit-identical inputs."""

    @pytest.fixture
    def solved(self, monkeypatch):
        import bmadmm.certify as certify_module

        C = random_cost(30, 12)
        result = solve(ProblemSpec.sphere(C), SolverOptions(seed=5))
        assert result.status is Status.CERTIFIED
        solves = []
        eigen = certify_module.min_eig_estimate

        def counted(S):
            solves.append(S.shape)
            return eigen(S)

        monkeypatch.setattr(certify_module, "min_eig_estimate", counted)
        return C, result.state, solves

    @staticmethod
    def same_fields(a, b):
        from dataclasses import fields

        return all(
            np.array_equal(getattr(a, f.name), getattr(b, f.name))
            if isinstance(getattr(a, f.name), np.ndarray)
            else getattr(a, f.name) == getattr(b, f.name)
            for f in fields(a)
        )

    def test_dual_certificate_after_a_solve_makes_no_eigen_solve(self, solved):
        C, state, solves = solved
        cert = dual_certificate(C, state.sigma_tilde)
        assert solves == []
        assert self.same_fields(cert, state.certificate)
        # and the certificate is what a fresh solve on a copy of C gives
        copy = SparseSymMatrix(C.n, C.row_ptr, C.col_idx, C.values)
        assert self.same_fields(cert, dual_certificate(copy, state.sigma_tilde))
        assert solves == [(30, 30)]

    @pytest.mark.parametrize("change", ["one bit of sigma", "one bit of C s", "another d"])
    def test_other_inputs_solve_afresh(self, solved, change):
        C, state, solves = solved
        sigma, cost_sigma, d = state.sigma_tilde.copy(), state.y.copy(), 1
        if change == "one bit of sigma":
            sigma.view(np.uint64)[0, 0] ^= np.uint64(1)
        elif change == "one bit of C s":
            cost_sigma.view(np.uint64)[0, 0] ^= np.uint64(1)
        else:
            d = 3
        cert = slack_certificate(C, sigma, cost_sigma, d)
        assert solves == [(30, 30)]
        assert cert is not state.certificate and cert.block_count == 30 // d
        # the same inputs again: a lookup
        assert slack_certificate(C, sigma, cost_sigma, d) is cert
        assert len(solves) == 1

    def test_an_array_changed_after_the_call_solves_afresh(self, solved):
        C, state, solves = solved
        sigma = state.sigma_tilde.copy()
        first = dual_certificate(C, sigma)
        assert solves == []
        sigma[[0, 1]] = sigma[[1, 0]]
        second = dual_certificate(C, sigma)
        assert solves == [(30, 30)]
        assert second.objective != first.objective

    def test_certificates_are_read_only(self, solved):
        from dataclasses import FrozenInstanceError

        _, state, _ = solved
        with pytest.raises(FrozenInstanceError):
            state.certificate.certified = False
        with pytest.raises(ValueError):
            state.certificate.lam[0] = 0.0
