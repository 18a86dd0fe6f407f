import math
from unittest import mock

import numpy as np
import pytest

import bmadmm.rgd as rgd_module
from bmadmm import (
    ManifoldSpec,
    ProblemSpec,
    RgdOptions,
    SparseSymMatrix,
    Status,
    dual_certificate,
    generate_so3,
    manifold_violation,
    maxcut_cost,
    objective,
    parse_gset,
    random_point,
    rgd_solve,
    spmm,
    tangent_project,
    two_norm_estimate,
)


def edge_cost():
    return SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def random_cost(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return SparseSymMatrix.from_dense((A + A.T) / 2)


class TestRgdStep:
    """The Armijo-backtracked step, observed through rgd_solve."""

    def test_zero_gradient_fixed(self):
        sigma = np.array([[1.0, 0.0], [-1.0, 0.0]])
        prob = ProblemSpec(edge_cost(), ManifoldSpec.sphere(2, 2))
        result = rgd_solve(prob, RgdOptions(), sigma0=sigma)
        assert result.status is Status.CONVERGED
        assert result.state.k == 0
        np.testing.assert_array_equal(result.state.sigma_tilde, sigma)
        assert result.trace.column("k") == [0]

    def test_zero_cost_fixed(self):
        spec = ManifoldSpec.sphere(4, 3)
        sigma = random_point(spec, 0)
        result = rgd_solve(ProblemSpec(SparseSymMatrix.zeros(4), spec), RgdOptions(), sigma0=sigma)
        assert result.status is Status.CONVERGED
        assert result.state.k == 0
        np.testing.assert_array_equal(result.state.sigma_tilde, sigma)

    def test_descent_on_edge_instance(self):
        prob = ProblemSpec(edge_cost(), ManifoldSpec.sphere(2, 2))
        sigma = np.eye(2)
        result = rgd_solve(prob, RgdOptions(max_iter=800), sigma0=sigma)
        assert result.status is Status.MAX_ITER
        assert result.trace.column("k") == list(range(1, 801))
        values = [objective(edge_cost(), sigma)] + result.trace.column("objective")
        # strict decrease toward the optimum; the symmetric two-row instance
        # only approaches -2 sublinearly under the projection retraction
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(-2.0, abs=1e-3)

    def test_monotone_on_random_instances(self):
        for seed in range(4):
            spec = ManifoldSpec.sphere(15, 5)
            prob = ProblemSpec(random_cost(15, seed), spec)
            result = rgd_solve(prob, RgdOptions(seed=seed, max_iter=50))
            values = result.trace.column("objective")
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            assert manifold_violation(spec, result.state.sigma_tilde) < 1e-12


class TestRgdSolve:
    def test_zero_cost_immediate(self):
        prob = ProblemSpec.sphere(SparseSymMatrix.zeros(4), r=2)
        result = rgd_solve(prob, RgdOptions(seed=1))
        assert result.status is Status.CONVERGED
        assert result.state.k == 0 or len(result.trace) >= 1

    def test_triangle(self):
        C = maxcut_cost(parse_gset("3 3\n1 2 1\n2 3 1\n1 3 1\n"))
        result = rgd_solve(ProblemSpec.sphere(C), RgdOptions(seed=2, grad_tol=1e-10))
        assert result.state.last_objective == pytest.approx(-2.25, abs=1e-4)

    def test_blocks_with_certificate(self):
        prob = generate_so3(5, 0.6, seed=3)
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-11, max_iter=50_000))
        cert = dual_certificate(prob.cost, result.state.sigma_tilde, d=3)
        assert manifold_violation(prob.manifold, result.state.sigma_tilde) < 1e-12
        assert cert.relative_gap() <= 1e-4

    def test_trace_schema(self):
        prob = ProblemSpec.sphere(random_cost(10, 4), r=4)
        result = rgd_solve(prob, RgdOptions(seed=0, max_iter=20))
        assert result.trace.columns[:3] == ("k", "objective", "lagrangian")
        rec = result.trace[-1]
        assert rec.objective == rec.lagrangian
        assert math.isnan(rec.min_gamma)

    def test_monotone_objective_column(self):
        prob = ProblemSpec.sphere(random_cost(18, 5), r=6)
        result = rgd_solve(prob, RgdOptions(seed=1, max_iter=500))
        objs = result.trace.column("objective")
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_repeated_steps_with_one_product_per_trial(self, d):
        if d == 1:
            prob = ProblemSpec.sphere(random_cost(18, 7), r=6)
        else:
            prob = generate_so3(6, 0.5, seed=2)
        options = RgdOptions(seed=1, max_iter=40)
        with mock.patch.object(rgd_module, "spmm", wraps=spmm) as products, mock.patch.object(
            rgd_module, "project", wraps=rgd_module.project
        ) as trials:
            result = rgd_solve(prob, options)
        assert result.status is Status.MAX_ITER
        assert result.state.k == result.trace[-1].k == 40
        # the accepted candidate's product carries over: C s is formed
        # once at the start and once per line-search trial
        assert products.call_count == trials.call_count + 1
        # the same steps taken as two runs, the second from the first's end
        first = rgd_solve(prob, RgdOptions(seed=1, max_iter=25))
        second = rgd_solve(prob, RgdOptions(seed=1, max_iter=15), sigma0=first.state.sigma_tilde)
        np.testing.assert_array_equal(result.state.sigma_tilde, second.state.sigma_tilde)
        assert result.trace[-1].objective == second.trace[-1].objective

    def test_rows_hold_the_gradient_norm_of_their_iterate(self):
        prob = ProblemSpec.sphere(random_cost(12, 3), r=4)
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-6))
        assert result.status is Status.CONVERGED
        ks = result.trace.column("k")
        assert ks == list(range(1, result.state.k + 1))
        sigma = result.state.sigma_tilde
        grad = tangent_project(prob.manifold, sigma, 2.0 * spmm(prob.cost, sigma))
        assert result.trace[-1].primal_res == result.state.primal_res == np.linalg.norm(grad)
        # only the last iterate passes the stopping test
        norms = result.trace.column("primal_res")
        tol = 1e-6 * (1.0 + two_norm_estimate(prob.cost))
        assert norms[-1] <= tol < min(norms[:-1])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_tol", 0.0),
            ("grad_tol", math.nan),
            ("grad_tol", math.inf),
            ("max_iter", 0),
            ("max_iter", 10.0),
            ("seed", 1.5),
            ("seed", -1),
        ],
    )
    def test_options_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            RgdOptions(**{field: value})
        # numpy integers are integers
        RgdOptions(max_iter=np.int64(10), seed=np.uint32(3))

    def test_stalls_at_the_rounding_floor(self):
        # the acceptance suite's sparse Gaussian cost, with a gradient
        # tolerance below what rounding lets the line search reach: without
        # the floor stop every step from k = 525 on leaves the objective
        # unchanged and the run goes on to max_iter
        rng = np.random.default_rng(1)
        A = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.5)
        prob = ProblemSpec.sphere(SparseSymMatrix.from_dense((A + A.T) / 2))
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-13, max_iter=5000))
        assert result.status is Status.STALLED
        assert result.state.k == 724
        values = result.trace.column("objective")
        flat = [b == a for a, b in zip(values, values[1:])]
        # the run ends on the FLOOR_STEPS-th unchanged step in a row
        assert flat[-rgd_module.FLOOR_STEPS :] == [True] * rgd_module.FLOOR_STEPS
        assert not flat[-rgd_module.FLOOR_STEPS - 1]
