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


def sparse_gauss(n, seed):
    # the acceptance suite's sparse Gaussian cost at density 0.5
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    return SparseSymMatrix.from_dense((A + A.T) / 2)


def traced_trials(prob, options, sigma0=None):
    """rgd_solve's result and, for each line search in order, the iterate,
    tangent gradient and first trial step it was called with."""
    line_search = rgd_module._line_search
    calls = []

    def spy(C, spec, sigma, value, grad, grad_sq, t):
        calls.append((sigma, grad, t))
        return line_search(C, spec, sigma, value, grad, grad_sq, t)

    with mock.patch.object(rgd_module, "_line_search", spy):
        result = rgd_solve(prob, options, sigma0=sigma0)
    return result, calls


def curvature_pair(calls, k):
    """<dx, dx>, <dx, dg>, <dg, dg> of the move into the k-th traced
    iterate."""
    (x0, g0, _), (x1, g1, _) = calls[k - 1], calls[k]
    dx, dg = x1 - x0, g1 - g0
    return np.vdot(dx, dx), np.vdot(dx, dg), np.vdot(dg, dg)


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
        # the fixed step 1 / ||C||_2 only approaches -2 sublinearly on this
        # symmetric two-row instance; the Barzilai-Borwein steps reach the
        # gradient tolerance in five
        assert result.status is Status.CONVERGED
        assert result.trace.column("k") == list(range(1, 6))
        values = [objective(edge_cost(), sigma)] + result.trace.column("objective")
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
        # an identical call repeats the run bit for bit, wall clock aside
        again = rgd_solve(prob, options)
        np.testing.assert_array_equal(result.state.sigma_tilde, again.state.sigma_tilde)
        for name in result.trace.columns:
            if name != "seconds":
                assert result.trace.column(name) == again.trace.column(name)
        # a warm start keeps no history: it tries the fixed step first, so
        # two chained runs do not repeat the steps of one
        first = rgd_solve(prob, RgdOptions(seed=1, max_iter=25))
        _, calls = traced_trials(prob, RgdOptions(seed=1, max_iter=15), first.state.sigma_tilde)
        assert calls[0][2] == 1.0 / two_norm_estimate(prob.cost)

    @pytest.mark.parametrize("d", [1, 3])
    def test_trial_steps_follow_the_barzilai_borwein_rule(self, d):
        if d == 1:
            prob = ProblemSpec.sphere(random_cost(18, 7), r=6)
        else:
            prob = generate_so3(6, 0.5, seed=2)
        _, calls = traced_trials(prob, RgdOptions(seed=1, max_iter=40))
        step0 = 1.0 / two_norm_estimate(prob.cost)
        assert len(calls) == 40
        assert calls[0][2] == step0
        # from the second iteration on: BB1 after odd k, BB2 after even k
        for k in range(1, len(calls)):
            ss, sy, yy = curvature_pair(calls, k)
            assert sy > 0.0
            expected = ss / sy if k % 2 else sy / yy
            assert rgd_module.BB_MIN * step0 < expected < rgd_module.BB_MAX * step0
            assert calls[k][2] == pytest.approx(expected, rel=1e-12)

    def test_falls_back_to_the_fixed_step_on_negative_curvature(self):
        prob = ProblemSpec.sphere(random_cost(10, 4), r=4)
        result, calls = traced_trials(prob, RgdOptions(seed=1, grad_tol=1e-8))
        assert result.status is Status.CONVERGED
        step0 = 1.0 / two_norm_estimate(prob.cost)
        # the fourth move has <dx, dg> < 0: its successor tries 1 / ||C||_2,
        # between Barzilai-Borwein steps
        assert curvature_pair(calls, 4)[1] < 0.0
        assert calls[4][2] == step0
        assert all(calls[k][2] != step0 for k in (1, 2, 3, 5))

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
            # booleans are not numbers, though bool subclasses int
            ("max_iter", True),
            ("max_iter", np.True_),
            ("seed", False),
            ("grad_tol", True),
            ("grad_tol", np.True_),
        ],
    )
    def test_options_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            RgdOptions(**{field: value})
        # numpy integers are integers
        RgdOptions(max_iter=np.int64(10), seed=np.uint32(3))

    def test_stalls_at_the_rounding_floor(self):
        # a gradient tolerance below what rounding lets the line search
        # reach: without the floor stop every step from k = 165 on leaves
        # the objective unchanged, until a line search fails at k = 1,990
        prob = ProblemSpec.sphere(sparse_gauss(40, 4))
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-15, max_iter=5000))
        assert result.status is Status.STALLED
        assert result.state.k == 364
        values = result.trace.column("objective")
        flat = [b == a for a, b in zip(values, values[1:])]
        # the run ends on the FLOOR_STEPS-th unchanged step in a row
        assert flat[-rgd_module.FLOOR_STEPS :] == [True] * rgd_module.FLOOR_STEPS
        assert not flat[-rgd_module.FLOOR_STEPS - 1]

    def test_stalls_in_the_line_search_below_the_rounding_floor(self):
        # a gradient tolerance that rounding does not let the run reach,
        # and no trial of the last line search passes the Armijo test
        prob = ProblemSpec.sphere(sparse_gauss(40, 1))
        tol = 1e-13 * (1.0 + two_norm_estimate(prob.cost))
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-13, max_iter=5000))
        assert result.status is Status.STALLED
        assert result.state.k == result.trace[-1].k == 123
        assert result.state.primal_res > tol
        values = result.trace.column("objective")
        flat = [b == a for a, b in zip(values, values[1:])]
        # the floor stop did not end it
        assert not all(flat[-rgd_module.FLOOR_STEPS :])
