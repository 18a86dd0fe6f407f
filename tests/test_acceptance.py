"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import time

import numpy as np
import pytest

from bmadmm import (
    ManifoldSpec,
    ProblemSpec,
    RgdOptions,
    SolverOptions,
    SparseSymMatrix,
    Status,
    default_rho,
    dual_certificate,
    generate_so3,
    hess_quadform,
    inf_norm,
    init_state,
    kappa_constant,
    load_gset,
    manifold_violation,
    maxcut_cost,
    objective,
    oracle_sdp,
    parse_gset,
    random_point,
    relative_gap,
    residuals,
    rgd_solve,
    riemannian_grad,
    solve,
    solve_with_curvature,
    spmm,
    step,
    tangent_project,
    two_norm_estimate,
)
from bmadmm.curvature import geodesic_step

DATA = os.path.join(os.path.dirname(__file__), "data")


def sparse_gauss(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if density < 1.0:
        A *= rng.random((n, n)) < density
    return SparseSymMatrix.from_dense((A + A.T) / 2)


def edge_cost():
    return SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def report(name, detail):
    print(f"PASS {name}: {detail}")


class TestCriterion1DescentInvariants:
    def test_descent_floor_and_link_invariants(self):
        start = time.perf_counter()
        sizes = np.linspace(20, 200, 10, dtype=int)
        checked = 0
        for i in range(20):
            n = int(sizes[i % 10])
            density = 1.0 if i < 10 else 0.05
            C = sparse_gauss(n, 5000 + i, density)
            prob = ProblemSpec.sphere(C)
            options = SolverOptions(
                rho="theory", check_invariants=True, max_iter=250, seed=i
            )
            # the solver itself asserts the merit floor, the decrease bound
            # and the row-norm floor each iteration and aborts on violation
            result = solve(prob, options)
            assert result.status in (Status.CONVERGED, Status.MAX_ITER)
            # the dual link y = C st holds exactly: y is the step's C st
            assert np.array_equal(result.state.y, spmm(C, result.state.sigma_tilde))

            norm_inf_ = inf_norm(prob.cost)
            norm_two = two_norm_estimate(prob.cost)
            rho = result.state.rho
            lagr = result.trace.column("lagrangian")
            st_norm = result.trace.column("step_tilde")
            ss_norm = result.trace.column("step_sigma")
            gammas = result.trace.column("min_gamma")
            ks = result.trace.column("k")
            assert rho == pytest.approx(10 * norm_inf_)  # theory penalty
            for idx in range(len(ks)):
                k = ks[idx]
                # (c) merit floor for every recorded iterate
                assert lagr[idx] >= -n * norm_inf_ - 1e-9 * (1 + n * norm_inf_)
                if k < 2 or idx == 0:
                    continue
                # (a) monotone decrease with its quantitative bound
                decrease = lagr[idx - 1] - lagr[idx]
                assert decrease >= -1e-9 * (1 + abs(lagr[idx - 1]))
                bound = (
                    kappa_constant(10.0, 2.0) * norm_two * st_norm[idx] ** 2
                    + 0.5 * rho * ss_norm[idx] ** 2
                )
                assert decrease >= bound - 1e-9
                # (b) update-point row-norm floor (alpha = 10)
                if k >= 3:
                    assert gammas[idx] >= 0.58 - 1e-9
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        report(
            "criterion 1",
            f"descent/floor/link invariants on 20 instances "
            f"({checked} iteration checks) in {elapsed:.1f}s",
        )


class TestCriterion2AnalyticOptima:
    def test_edge_and_triangle(self):
        start = time.perf_counter()
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        res = solve(prob, SolverOptions(seed=0))
        assert res.state.last_objective == pytest.approx(-2.0, abs=1e-6)

        C = maxcut_cost(parse_gset("3 3\n1 2 1\n2 3 1\n1 3 1\n"))
        res_tri = solve(ProblemSpec.sphere(C), SolverOptions(seed=1))
        assert res_tri.state.last_objective == pytest.approx(-2.25, abs=1e-4)
        cert = dual_certificate(C, res_tri.state.sigma_tilde)
        assert cert.duality_gap <= 1e-6
        assert cert.slack_min_eig >= -1e-6
        assert cert.certified
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(
            "criterion 2",
            f"edge -2 and triangle -2.25 with certificate in {elapsed:.2f}s",
        )


class TestCriterion3CertificationAtScale:
    def test_n200_certification(self):
        start = time.perf_counter()
        n, r = 200, 20
        assert ManifoldSpec.default_rank(n) == r
        passed = 0
        for seed in range(10):
            C = sparse_gauss(n, 1000 + seed, 0.05)
            prob = ProblemSpec.sphere(C, r=r)
            res = solve(prob, SolverOptions(seed=seed, max_iter=50_000))
            cert = dual_certificate(C, res.state.sigma_tilde, seed=seed)
            if cert.relative_gap() <= 1e-4:
                passed += 1
        elapsed = time.perf_counter() - start
        assert passed >= 9
        assert elapsed < 120.0
        report(
            "criterion 3",
            f"dual certification at n=200 passed {passed}/10 in {elapsed:.1f}s",
        )


class TestCriterion4CurvatureQualityBound:
    def test_eps_convex_output_quality(self):
        start = time.perf_counter()
        eps = 1e-2
        for i in range(10):
            n = 20 + 8 * i  # 20 .. 92
            C = sparse_gauss(n, 4000 + i)
            prob = ProblemSpec.sphere(C)
            res = solve_with_curvature(prob, SolverOptions(seed=i), eps=eps)
            upper = oracle_sdp(C, seed=i, restarts=3)
            lower = oracle_sdp(C.scaled(-1.0), seed=i, restarts=3)
            assert upper.certificate.certified
            assert lower.certificate.certified
            r = prob.manifold.r
            bound = (
                upper.value
                - (upper.value + lower.value) / (r - 1)
                + n * eps / 2
                + 1e-6
            )
            assert res.state.last_objective <= bound
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        report(
            "criterion 4",
            f"rank-deficit quality bound on 10 instances in {elapsed:.1f}s",
        )


class TestCriterion5CurvatureEscape:
    def test_saddle_start_and_generic_start(self):
        saddle = np.array([[1.0, 0.0], [1.0, 0.0]])
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        escaped = solve_with_curvature(
            prob, SolverOptions(rho="theory", seed=0), eps=1e-6, sigma0=saddle
        )
        assert escaped.state.last_objective == pytest.approx(-2.0, abs=1e-6)
        assert any(escaped.trace.column("escaped"))

        generic = solve(prob, SolverOptions(seed=3))
        assert generic.state.last_objective == pytest.approx(-2.0, abs=1e-6)
        report(
            "criterion 5",
            "saddle start escapes to -2; generic start also reaches -2",
        )


class TestCriterion6DerivativeChecks:
    def test_gradient_and_hessian_against_finite_differences(self):
        rng = np.random.default_rng(77)
        grad_errs = []
        hess_errs = []
        for probe in range(50):
            n = int(rng.integers(4, 51))
            r = int(rng.integers(2, 7))
            C = sparse_gauss(n, 7000 + probe)
            spec = ManifoldSpec.sphere(n, r)
            sigma = random_point(spec, probe)
            u = tangent_project(spec, sigma, rng.standard_normal((n, r)))
            u /= np.linalg.norm(u)

            grad = riemannian_grad(C, sigma)
            h = 1e-5
            fd1 = (
                objective(C, geodesic_step(spec, sigma, u, h))
                - objective(C, geodesic_step(spec, sigma, u, -h))
            ) / (2 * h)
            denom = max(1.0, abs(fd1))
            grad_errs.append(abs(np.vdot(grad, u) - fd1) / denom)

            qf = hess_quadform(C, sigma, u)
            f0 = objective(C, sigma)
            best = math.inf
            for hh in (1e-3, 1e-4):
                fp = objective(C, geodesic_step(spec, sigma, u, hh))
                fm = objective(C, geodesic_step(spec, sigma, u, -hh))
                fd2 = (fp - 2 * f0 + fm) / hh**2
                best = min(best, abs(qf - fd2) / max(1.0, abs(fd2)))
            hess_errs.append(best)
        assert max(grad_errs) < 1e-5
        assert max(hess_errs) < 1e-4
        report(
            "criterion 6",
            f"50 derivative probes: grad err {max(grad_errs):.2e} < 1e-5, "
            f"hessian err {max(hess_errs):.2e} < 1e-4",
        )


class TestCriterion7BlockProxSuite:
    def test_so3_instances_both_parameter_modes(self):
        # ten instances alternating q in {50, 200}; orthonormality and
        # theory-mode monotonicity must hold on every run, the primal
        # residual and certificate-gap targets jointly on >= 8/10
        start = time.perf_counter()
        joint_passes = 0
        for idx in range(10):
            q = 50 if idx % 2 == 0 else 200
            prob = generate_so3(q, 0.02, seed=idx)
            norm_two = two_norm_estimate(prob.cost)

            # theory mode: rho = mu = 2 ||C||_2 gives mu - ||C||^2/rho > 0
            theory = SolverOptions(
                rho=2 * norm_two,
                mu=2 * norm_two,
                seed=idx,
                max_iter=10_000,
                check_invariants=True,
            )
            assert theory.mu - norm_two**2 / theory.rho > 0
            res_t = solve(prob, theory)
            assert manifold_violation(prob.manifold, res_t.state.sigma_tilde) < 1e-12
            lagr = res_t.trace.column("lagrangian")
            for prev, cur in zip(lagr[1:], lagr[2:]):
                assert cur <= prev + 1e-9 * (1 + abs(prev))

            # practice mode: rho = mu = ||C||_2
            practice = SolverOptions(
                rho=norm_two, mu=norm_two, seed=idx, max_iter=10_000
            )
            res_p = solve(prob, practice)
            assert manifold_violation(prob.manifold, res_p.state.sigma_tilde) < 1e-12
            primal = residuals(res_p.state)[0]
            cert = dual_certificate(prob.cost, res_p.state.sigma_tilde, d=3, seed=idx)
            if primal < 1e-6 and cert.relative_gap() <= 1e-3:
                joint_passes += 1
        elapsed = time.perf_counter() - start
        assert joint_passes >= 8
        assert elapsed < 300.0
        report(
            "criterion 7",
            f"block suite: orthonormal+monotone on 10/10, primal+gap on "
            f"{joint_passes}/10 in {elapsed:.1f}s",
        )


class TestCriterion8Gset:
    def test_g1_norm_and_certified_gap(self):
        path = os.environ.get("BMADMM_G1", "")
        candidates = [path] if path else []
        candidates += [
            os.path.join(DATA, "G1"),
            os.path.join(os.path.dirname(__file__), "..", "data", "G1"),
        ]
        g1 = next((p for p in candidates if p and os.path.exists(p)), None)
        if g1 is None:
            pytest.skip(
                "G1 instance not present; place it at tests/data/G1 or set "
                "BMADMM_G1"
            )
        start = time.perf_counter()
        graph = load_gset(g1)
        assert graph.n == 800
        C = maxcut_cost(graph)
        norm = two_norm_estimate(C)
        assert norm == pytest.approx(12.197, abs=0.01)
        prob = ProblemSpec.sphere(C, r=40)
        res = solve(
            prob,
            SolverOptions(rho=norm, seed=0, max_iter=50_000, time_budget=55.0),
        )
        cert = dual_certificate(C, res.state.sigma_tilde, seed=0)
        gap = relative_gap(C, res.state.sigma_tilde, cert.lower_bound())
        elapsed = time.perf_counter() - start
        assert gap <= 1e-3
        assert elapsed < 60.0
        report(
            "criterion 8",
            f"G1: n=800, ||C||={norm:.3f}, certified gap {gap:.2e} "
            f"in {elapsed:.1f}s",
        )


class TestCriterion9Determinism:
    def test_bit_identical_traces_and_scale_equivariance(self, tmp_path):
        C = sparse_gauss(40, 8000, 0.3)
        prob = ProblemSpec.sphere(C)
        options = SolverOptions(seed=13, max_iter=300)
        texts = []
        for run in range(2):
            res = solve(prob, options)
            # the wall-clock column is excluded: it is the one field that
            # cannot be identical between two runs
            csv = res.trace.to_csv()
            rows = [line.split(",") for line in csv.splitlines()]
            keep = [i for i, c in enumerate(rows[0]) if c != "seconds"]
            texts.append("\n".join(",".join(row[i] for i in keep) for row in rows))
        assert texts[0] == texts[1]

        # scale equivariance at c = 3, proximal weight included
        c = 3.0
        spec = ManifoldSpec.sphere(40, prob.manifold.r)
        rho = default_rho(C, "theory")
        mu = 0.5 * rho
        opts_a = SolverOptions(rho=rho, mu=mu, seed=4)
        opts_b = SolverOptions(rho=c * rho, mu=c * mu, seed=4)
        state_a = init_state(ProblemSpec(C, spec), opts_a)
        state_b = init_state(ProblemSpec(C.scaled(c), spec), opts_b)
        for _ in range(60):
            state_a = step(state_a, opts_a)
            state_b = step(state_b, opts_b)
            assert np.abs(state_a.sigma_tilde - state_b.sigma_tilde).max() < 1e-12
            assert np.abs(state_a.sigma - state_b.sigma).max() < 1e-12
            y_scale = max(1.0, np.abs(state_b.y).max())
            assert np.abs(c * state_a.y - state_b.y).max() < 1e-12 * y_scale
        report(
            "criterion 9",
            "bit-identical traces (wall clock aside) and scale equivariance "
            "to 1e-12 over 60 iterations",
        )


class TestCriterion10BaselineComparison:
    def test_admm_and_rgd_reach_certified_value(self):
        rows = []
        for seed in range(2):
            C = sparse_gauss(200, 6000 + seed, 0.05)
            prob = ProblemSpec.sphere(C)

            t0 = time.perf_counter()
            res_admm = solve(prob, SolverOptions(seed=seed))
            t_admm = time.perf_counter() - t0
            cert = dual_certificate(C, res_admm.state.sigma_tilde, seed=seed)
            assert cert.certified
            reference = cert.lower_bound()
            gap_admm = relative_gap(C, res_admm.state.sigma_tilde, reference)

            t0 = time.perf_counter()
            res_rgd = rgd_solve(
                prob, RgdOptions(seed=seed, grad_tol=1e-9, max_iter=30_000)
            )
            t_rgd = time.perf_counter() - t0
            gap_rgd = relative_gap(C, res_rgd.state.sigma_tilde, reference)

            assert gap_admm <= 1e-3
            assert gap_rgd <= 1e-3
            rows.append(
                f"seed {seed}: admm {res_admm.state.k} iters {t_admm:.2f}s "
                f"gap {gap_admm:.1e} | rgd {res_rgd.state.k} iters "
                f"{t_rgd:.2f}s gap {gap_rgd:.1e}"
            )
        report("criterion 10", "; ".join(rows))
