import numpy as np
import pytest

from bmadmm import (
    CurvatureReport,
    ManifoldSpec,
    OffManifold,
    ProblemSpec,
    SolverOptions,
    SparseSymMatrix,
    Status,
    UnsupportedManifold,
    dual_certificate,
    escape_step,
    geodesic_step,
    hess_quadform,
    maxcut_cost,
    negative_curvature_direction,
    objective,
    parse_gset,
    random_point,
    riemannian_grad,
    solve_with_curvature,
    tangent_project,
)


def edge_cost():
    return SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def random_cost(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if density < 1.0:
        A *= rng.random((n, n)) < density
    return SparseSymMatrix.from_dense((A + A.T) / 2)


def random_tangent(spec, sigma, seed, unit=True):
    rng = np.random.default_rng(seed)
    u = tangent_project(spec, sigma, rng.standard_normal(sigma.shape))
    return u / np.linalg.norm(u) if unit else u


def dense_tangent_hessian(C, sigma):
    """Oracle: the Hessian quadratic form assembled on an explicit
    orthonormal basis of the tangent space."""
    n, r = sigma.shape
    spec = ManifoldSpec.sphere(n, r)
    basis = []
    for i in range(n):
        # orthonormal completion of sigma_i inside row i
        M = np.eye(r) - np.outer(sigma[i], sigma[i])
        Q = np.linalg.qr(M)[0]
        # keep the r-1 columns orthogonal to sigma_i
        cols = [q for q in Q.T if abs(q @ sigma[i]) < 1e-8]
        for q in cols[: r - 1]:
            E = np.zeros((n, r))
            E[i] = q
            basis.append(E)
    dim = len(basis)
    H = np.zeros((dim, dim))
    A = C.to_dense()
    lam = np.sum((A @ sigma) * sigma, axis=1)
    for a in range(dim):
        Ha = 2 * A @ basis[a] - 2 * lam[:, None] * basis[a]
        Ha = tangent_project(spec, sigma, Ha)
        for b in range(dim):
            H[a, b] = np.vdot(basis[b], Ha)
    return (H + H.T) / 2


class TestObjective:
    def test_zero_cost(self):
        spec = ManifoldSpec.sphere(4, 3)
        assert objective(SparseSymMatrix.zeros(4), random_point(spec, 0)) == 0.0

    def test_diagonal_cost_constant_on_manifold(self):
        C = SparseSymMatrix.from_dense(np.diag([1.0, -2.0, 3.0]))
        spec = ManifoldSpec.sphere(3, 4)
        for seed in range(3):
            val = objective(C, random_point(spec, seed))
            assert val == pytest.approx(2.0)  # trace of C

    def test_edge_minimizer(self):
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert objective(edge_cost(), sigma) == pytest.approx(-2.0)


class TestRiemannianGrad:
    def test_stationary_point(self):
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        grad = riemannian_grad(edge_cost(), sigma)
        assert np.abs(grad).max() < 1e-14

    def test_zero_cost(self):
        spec = ManifoldSpec.sphere(5, 3)
        grad = riemannian_grad(SparseSymMatrix.zeros(5), random_point(spec, 1))
        np.testing.assert_array_equal(grad, np.zeros((5, 3)))

    def test_hand_example(self):
        sigma = np.eye(2)
        grad = riemannian_grad(edge_cost(), sigma)
        np.testing.assert_allclose(grad, [[0.0, 2.0], [2.0, 0.0]], atol=1e-15)

    def test_off_manifold_rejected(self):
        with pytest.raises(OffManifold):
            riemannian_grad(edge_cost(), 2 * np.eye(2))

    def test_matches_finite_differences(self):
        # oracle: central differences of f along geodesics
        for seed in range(6):
            n = 5 + 7 * (seed % 3)
            C = random_cost(n, seed)
            spec = ManifoldSpec.sphere(n, 5)
            sigma = random_point(spec, seed)
            u = random_tangent(spec, sigma, 100 + seed)
            grad = riemannian_grad(C, sigma)
            h = 1e-5
            fd = (
                objective(C, geodesic_step(spec, sigma, u, h))
                - objective(C, geodesic_step(spec, sigma, u, -h))
            ) / (2 * h)
            assert np.vdot(grad, u) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_tangency(self):
        C = random_cost(20, 3)
        spec = ManifoldSpec.sphere(20, 6)
        sigma = random_point(spec, 4)
        grad = riemannian_grad(C, sigma)
        assert np.abs(np.sum(grad * sigma, axis=1)).max() < 1e-12


class TestHessQuadform:
    def test_zero_direction(self):
        spec = ManifoldSpec.sphere(4, 3)
        sigma = random_point(spec, 0)
        assert hess_quadform(random_cost(4, 0), sigma, np.zeros((4, 3))) == 0.0

    def test_zero_cost(self):
        spec = ManifoldSpec.sphere(6, 3)
        sigma = random_point(spec, 1)
        u = random_tangent(spec, sigma, 2)
        assert hess_quadform(SparseSymMatrix.zeros(6), sigma, u) == 0.0

    def test_non_tangent_rejected(self):
        spec = ManifoldSpec.sphere(3, 2)
        sigma = random_point(spec, 3)
        with pytest.raises(OffManifold, match="tangent"):
            hess_quadform(random_cost(3, 1), sigma, sigma.copy())

    def test_matches_second_differences(self):
        # oracle: second difference of t -> f(geodesic(sigma, u, t)) at 0,
        # sweeping h in {1e-3, 1e-4} and keeping the better match
        for seed in range(6):
            n = 6 + 5 * (seed % 3)
            C = random_cost(n, 50 + seed)
            spec = ManifoldSpec.sphere(n, 4)
            sigma = random_point(spec, seed)
            u = random_tangent(spec, sigma, 200 + seed)
            qf = hess_quadform(C, sigma, u)
            f0 = objective(C, sigma)
            errors = []
            for h in (1e-3, 1e-4):
                fp = objective(C, geodesic_step(spec, sigma, u, h))
                fm = objective(C, geodesic_step(spec, sigma, u, -h))
                fd = (fp - 2 * f0 + fm) / h**2
                errors.append(abs(qf - fd) / max(1.0, abs(fd)))
            assert min(errors) < 1e-4

    def test_matches_dense_oracle(self):
        C = random_cost(8, 9)
        spec = ManifoldSpec.sphere(8, 3)
        sigma = random_point(spec, 9)
        H = dense_tangent_hessian(C, sigma)
        # quadratic form along a basis-combination direction
        rng = np.random.default_rng(10)
        u = random_tangent(spec, sigma, 11)
        qf = hess_quadform(C, sigma, u)
        # dense apply of the same operator
        A = C.to_dense()
        lam = np.sum((A @ sigma) * sigma, axis=1)
        Hu = tangent_project(spec, sigma, 2 * A @ u - 2 * lam[:, None] * u)
        assert qf == pytest.approx(np.vdot(u, Hu), rel=1e-12)
        assert np.linalg.eigvalsh(H).min() <= qf + 1e-10


class TestNegativeCurvatureDirection:
    def test_zero_cost_certifies(self):
        spec = ManifoldSpec.sphere(4, 3)
        sigma = random_point(spec, 0)
        report = negative_curvature_direction(SparseSymMatrix.zeros(4), sigma, 0.5, seed=1)
        assert report.status == "eps_convex"

    def test_rank_one_certifies_without_products(self):
        # the tangent space at r = 1 is {0}
        sigma = random_point(ManifoldSpec.sphere(5, 1), 0)
        report = negative_curvature_direction(random_cost(5, 1), sigma, 1e-2, seed=2)
        assert report.status == "eps_convex"
        assert report.probe_iterations == 0
        assert report.lambda_H == 0.0

    def test_maximizer_has_negative_curvature(self):
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])
        # oracle: dense tangent Hessian eigendecomposition
        H = dense_tangent_hessian(edge_cost(), sigma)
        lam_min = np.linalg.eigvalsh(H).min()
        assert lam_min == pytest.approx(-4.0, abs=1e-12)
        report = negative_curvature_direction(edge_cost(), sigma, 0.1, seed=2)
        assert report.status == "negative_curvature"
        assert report.lambda_H <= lam_min / 2 + 1e-6
        assert np.vdot(report.u, riemannian_grad(edge_cost(), sigma)) <= 1e-12

    def test_minimizer_certifies(self):
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        H = dense_tangent_hessian(edge_cost(), sigma)
        assert np.linalg.eigvalsh(H).min() >= -1e-12
        report = negative_curvature_direction(edge_cost(), sigma, 0.1, seed=3)
        assert report.status == "eps_convex"

    def test_unit_tangent_direction(self):
        C = random_cost(12, 4)
        spec = ManifoldSpec.sphere(12, 5)
        sigma = random_point(spec, 5)
        report = negative_curvature_direction(C, sigma, 1e-2, seed=6)
        assert np.linalg.norm(report.u) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.sum(report.u * sigma, axis=1)).max() < 1e-10

    def test_halving_guarantee_against_dense_oracle(self):
        # whenever the true smallest eigenvalue is < -eps, the probe must
        # return lambda_H <= lambda_min / 2 (within 1e-6) in >= 99% of seeds
        eps = 1e-2
        trials = 0
        hits = 0
        for seed in range(25):
            n, r = 8, 4
            C = random_cost(n, 300 + seed)
            spec = ManifoldSpec.sphere(n, r)
            sigma = random_point(spec, seed)
            lam_min = np.linalg.eigvalsh(dense_tangent_hessian(C, sigma)).min()
            if lam_min >= -eps:
                continue
            trials += 1
            report = negative_curvature_direction(C, sigma, eps, seed=seed)
            if report.lambda_H <= lam_min / 2 + 1e-6:
                hits += 1
        assert trials > 10
        assert hits >= 0.99 * trials


class TestEscapeStep:
    def make_report(self, u, lam_h, eps=0.1):
        return CurvatureReport(
            lambda_H=lam_h,
            u=u,
            probe_iterations=1,
            eps=eps,
            status="negative_curvature",
        )

    def test_unit_step_accepted_at_edge_saddle(self):
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])
        u = np.array([[0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2)
        lam_h = hess_quadform(edge_cost(), sigma, u)
        assert lam_h == pytest.approx(-4.0)
        moved, cost_moved, t = escape_step(edge_cost(), sigma, self.make_report(u, lam_h))
        assert t == 1.0
        spec = ManifoldSpec.sphere(2, 2)
        np.testing.assert_array_equal(moved, geodesic_step(spec, sigma, u, 1.0))
        np.testing.assert_array_equal(cost_moved, edge_cost() @ moved)

    def test_halves_until_the_decrease_holds(self):
        # three times the unit direction: f(t) = 2 cos(3 sqrt(2) t) misses
        # f(0) + lambda_H t^2 / 4 at t = 1 and meets it at t = 1/2
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])
        u = 3.0 * np.array([[0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2)
        lam_h = hess_quadform(edge_cost(), sigma, u)
        moved, _, t = escape_step(edge_cost(), sigma, self.make_report(u, lam_h))
        assert t == 0.5
        drop = objective(edge_cost(), sigma) - objective(edge_cost(), moved)
        assert drop >= -0.25 * lam_h * t * t

    def test_no_passing_step_returns_none(self):
        # f(t) = 2 cos(sqrt(2) t) never drops by 3 t^2
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])
        u = np.array([[0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2)
        assert escape_step(edge_cost(), sigma, self.make_report(u, -12.0)) is None

    def test_decrease_enforced(self):
        escapes = 0
        for seed in range(8):
            C = random_cost(10, 400 + seed)
            spec = ManifoldSpec.sphere(10, 4)
            sigma = random_point(spec, seed)
            report = negative_curvature_direction(C, sigma, 1e-2, seed=seed)
            if report.status != "negative_curvature":
                continue
            escapes += 1
            moved, _, t = escape_step(C, sigma, report)
            drop = objective(C, sigma) - objective(C, moved)
            assert drop >= -0.25 * report.lambda_H * t * t
        assert escapes > 0

    def test_zero_rows_pass_through(self):
        sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
        u = np.array([[0.0, -1.0], [0.0, 0.0]])
        report = self.make_report(u, -1.0)
        moved, _, _ = escape_step(edge_cost(), sigma, report)
        np.testing.assert_array_equal(moved[1], sigma[1])

    def test_precondition_enforced(self):
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])
        report = self.make_report(np.zeros((2, 2)), -0.01, eps=0.1)
        with pytest.raises(ValueError):
            escape_step(edge_cost(), sigma, report)

    def test_never_increases_objective(self):
        for seed in range(8):
            n = 10
            C = random_cost(n, 400 + seed)
            spec = ManifoldSpec.sphere(n, 4)
            sigma = random_point(spec, seed)
            report = negative_curvature_direction(C, sigma, 1e-2, seed=seed)
            if report.status != "negative_curvature":
                continue
            moved, _, _ = escape_step(C, sigma, report)
            assert objective(C, moved) <= objective(C, sigma) + 1e-9


class TestSolveWithCurvature:
    def test_saddle_escape_reaches_optimum(self):
        saddle = np.array([[1.0, 0.0], [1.0, 0.0]])
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        result = solve_with_curvature(
            prob, SolverOptions(rho="theory", seed=0), eps=1e-6, sigma0=saddle
        )
        assert result.state.last_objective == pytest.approx(-2.0, abs=1e-6)
        assert result.status is Status.EPS_CONVEX
        assert any(result.trace.column("escaped"))

    def test_zero_cost_returns_immediately(self):
        prob = ProblemSpec.sphere(SparseSymMatrix.zeros(3), r=2)
        result = solve_with_curvature(prob, SolverOptions(rho=1.0, seed=1), eps=0.5)
        assert result.status is Status.EPS_CONVEX
        assert result.state.k <= 1

    def test_time_budget_stops_after_one_iteration(self):
        prob = ProblemSpec.sphere(random_cost(30, 5), r=8)
        result = solve_with_curvature(prob, SolverOptions(seed=0, time_budget=0.0), eps=1e-2)
        assert result.status is Status.TIME_BUDGET
        assert result.state.k == 1
        assert result.trace.column("k") == [1]

    def test_blocks_rejected(self):
        prob = ProblemSpec.stiefel(random_cost(6, 0), d=3)
        with pytest.raises(UnsupportedManifold):
            solve_with_curvature(prob, SolverOptions(rho=1.0), eps=0.1)

    def test_trace_has_probe_columns(self):
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        result = solve_with_curvature(prob, SolverOptions(seed=2), eps=1e-4)
        assert result.trace.columns[-3:] == ("probe_performed", "lambda_H", "escaped")

    def test_quality_bound_against_oracle(self):
        # the returned point must be within the rank-deficit bound of the
        # certified optimum
        from bmadmm import oracle_sdp

        eps = 1e-2
        for seed in range(3):
            n = 14
            C = random_cost(n, 500 + seed)
            prob = ProblemSpec.sphere(C)
            result = solve_with_curvature(prob, SolverOptions(seed=seed), eps=eps)
            sdp_c = oracle_sdp(C, seed=seed)
            sdp_neg = oracle_sdp(C.scaled(-1.0), seed=seed)
            assert sdp_c.certificate.certified
            assert sdp_neg.certificate.certified
            r = prob.manifold.r
            bound = (
                sdp_c.value
                - (sdp_c.value + sdp_neg.value) / (r - 1)
                + n * eps / 2
                + 1e-6
            )
            assert result.state.last_objective <= bound


def slack_min_eig(C, sigma):
    return dual_certificate(C, sigma).slack_min_eig


class TestCurvatureRegressions:
    def test_stalled_probe_is_not_a_certificate(self):
        # a stalling power probe used to report eps_convex here at
        # lambda_min(S) = -6.3e-3 < -eps/2
        eps = 1e-2
        C = random_cost(51, 103)
        result = solve_with_curvature(ProblemSpec.sphere(C), SolverOptions(seed=1), eps=eps)
        assert result.status is Status.EPS_CONVEX
        assert slack_min_eig(C, result.state.sigma_tilde) >= -eps / 2

    def test_sparse_cost_certifies(self):
        # the plain kernel never converges on this cost
        eps = 1e-2
        C = random_cost(40, 2, density=0.05)
        result = solve_with_curvature(
            ProblemSpec.sphere(C), SolverOptions(seed=2, max_iter=2_000), eps=eps
        )
        assert result.status is Status.EPS_CONVEX
        assert slack_min_eig(C, result.state.sigma_tilde) >= -eps / 2

    def test_degenerate_block_returns_status(self):
        C = SparseSymMatrix.from_dense(np.diag([1.0, 0.5, 0.2]))
        result = solve_with_curvature(ProblemSpec.sphere(C), SolverOptions(), eps=1e-2)
        assert result.status is Status.ASSUMPTION_VIOLATED

    def test_graph_saddle_certifies_quickly(self):
        # the benchmark's er_graph(60, 106, 3) from the all-equal saddle
        n, m = 60, 106
        rows, cols = np.triu_indices(n, k=1)
        pick = np.sort(np.random.default_rng(3).choice(n * (n - 1) // 2, size=m, replace=False))
        text = f"{n} {m}\n" + "".join(
            f"{i + 1} {j + 1} 1\n" for i, j in zip(rows[pick], cols[pick])
        )
        C = maxcut_cost(parse_gset(text))
        prob = ProblemSpec.sphere(C)
        saddle = np.zeros((n, prob.manifold.r))
        saddle[:, 0] = 1.0
        eps = 1e-2
        result = solve_with_curvature(
            prob, SolverOptions(seed=0, time_budget=10.0), eps=eps, sigma0=saddle
        )
        assert result.status is Status.EPS_CONVEX
        assert result.state.k <= 1_000
        assert any(result.trace.column("escaped"))
        assert slack_min_eig(C, result.state.sigma_tilde) >= -eps / 2
