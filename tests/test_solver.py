import logging
import math
import os
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import bmadmm.solver as solver_module
import bmadmm.sparse as sparse_module
from bmadmm import native
from bmadmm import (
    AssumptionViolated,
    InvariantViolation,
    ManifoldSpec,
    OffManifold,
    ProblemSpec,
    SolverOptions,
    SparseSymMatrix,
    Status,
    default_rho,
    gamma,
    inf_norm,
    init_state,
    kappa_constant,
    merit_value,
    residuals,
    solve,
    step,
    two_norm_estimate,
)
from bmadmm.certify import CERT_TOL
from bmadmm.manifold import project
from bmadmm.sparse import spmm


def edge_cost():
    return SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def random_cost(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if density < 1.0:
        A *= rng.random((n, n)) < density
    A = (A + A.T) / 2
    return SparseSymMatrix.from_dense(A)


def dense_iteration(A, sigma_tilde, sigma, y, rho, mu=0.0):
    """Independent dense re-implementation of one iteration."""
    gam = (mu * sigma_tilde + rho * sigma - (y + A @ sigma)) / (rho + mu)
    st = gam / np.linalg.norm(gam, axis=1, keepdims=True)
    s = st + (y - A @ st) / rho
    y_new = y + rho * (st - s)
    return st, s, y_new


class TestDefaultRho:
    def test_theory_maximum(self):
        # ||C||_inf = 1 and ||C||_2 = 1, so theory mode gives max(10, 2)
        assert default_rho(edge_cost(), "theory") == pytest.approx(10.0)

    def test_practice_is_two_norm(self):
        assert default_rho(edge_cost(), "practice") == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("mode", ["practice", "theory"])
    def test_zero_cost_takes_unit_penalty(self, mode):
        # every product with C = 0 is zero: any positive penalty gives the
        # same iterates, and default_mu then gives mu = 0
        C = SparseSymMatrix.zeros(3)
        assert default_rho(C, mode) == 1.0
        assert solver_module.default_mu(C, mode) == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            default_rho(edge_cost(), "bogus")


class TestSolverOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rho", 0.0),
            ("rho", math.inf),
            ("rho", "bogus"),
            ("mu", -1.0),
            ("mu", math.nan),
            ("tol_primal", 0.0),
            ("tol_primal", math.inf),
            ("tol_obj", math.nan),
            ("tol_obj", math.inf),
            ("max_iter", 0),
            ("max_iter", 10.0),
            ("seed", 1.5),
            ("seed", -1),
            ("time_budget", -1.0),
            ("time_budget", math.inf),
            # booleans are not numbers, though bool subclasses int
            ("max_iter", True),
            ("seed", False),
            ("rho", True),
            ("mu", False),
            ("tol_primal", np.True_),
            ("time_budget", True),
        ],
    )
    def test_options_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})
        # numpy integers are integers
        SolverOptions(max_iter=np.int64(10), seed=np.uint32(3))


class TestGamma:
    def test_zero_cost_collapses_to_sigma(self):
        C = SparseSymMatrix.zeros(3)
        prob = ProblemSpec.sphere(C, r=3)
        state = init_state(prob, SolverOptions(rho=5.0, seed=0))
        np.testing.assert_array_equal(gamma(state, spmm(C, state.sigma)), state.sigma)

    def test_large_mu_pins_sigma_tilde(self):
        C = edge_cost()
        prob = ProblemSpec.sphere(C, r=2)
        state = init_state(prob, SolverOptions(rho=2.0, seed=1))
        state.sigma = np.array([[0.0, 1.0], [1.0, 0.0]])
        state.mu = 1e9 * state.rho
        g = gamma(state, spmm(C, state.sigma))
        assert np.abs(g - state.sigma_tilde).max() < 1e-6

    def test_hand_example(self):
        # dense arithmetic oracle for the rho=10 identity start
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        sig = np.eye(2)
        y = A @ sig
        expected = sig - (y + A @ sig) / 10.0
        np.testing.assert_allclose(expected, [[1.0, -0.2], [-0.2, 1.0]])

        prob = ProblemSpec.sphere(edge_cost(), r=2)
        state = init_state(prob, SolverOptions(rho=10.0), sigma0=np.eye(2))
        np.testing.assert_allclose(gamma(state, spmm(prob.cost, sig)), expected, atol=1e-15)


class TestStep:
    def test_zero_cost_fixed_point(self):
        C = SparseSymMatrix.zeros(4)
        prob = ProblemSpec.sphere(C, r=3)
        options = SolverOptions(rho=1.0, seed=2)
        # rows with exactly representable unit norm make the fixed point exact
        sigma0 = np.zeros((4, 3))
        sigma0[:, 0] = 1.0
        state = init_state(prob, options, sigma0=sigma0)
        new = step(state, options)
        np.testing.assert_array_equal(new.sigma_tilde, state.sigma_tilde)
        np.testing.assert_array_equal(new.sigma, new.sigma_tilde)
        np.testing.assert_array_equal(new.y, np.zeros_like(new.y))

    def test_zero_cost_random_start_fixed_to_rounding(self):
        C = SparseSymMatrix.zeros(4)
        prob = ProblemSpec.sphere(C, r=3)
        options = SolverOptions(rho=1.0, seed=2)
        state = init_state(prob, options)
        new = step(state, options)
        assert np.abs(new.sigma_tilde - state.sigma_tilde).max() < 1e-15
        np.testing.assert_array_equal(new.sigma, new.sigma_tilde)

    def test_first_iteration_matches_dense_oracle(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        st_exp, s_exp, y_exp = dense_iteration(A, np.eye(2), np.eye(2), A @ np.eye(2), 10.0)
        # frozen values from the oracle
        np.testing.assert_allclose(
            st_exp, [[0.98058068, -0.19611614], [-0.19611614, 0.98058068]], atol=1e-8
        )
        options = SolverOptions(rho=10.0)
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        state = step(init_state(prob, options, sigma0=np.eye(2)), options)
        np.testing.assert_allclose(state.sigma_tilde, st_exp, atol=1e-14)
        np.testing.assert_allclose(state.sigma, s_exp, atol=1e-14)
        np.testing.assert_allclose(state.y, y_exp, atol=1e-14)

    def test_exactly_two_products_per_iteration(self):
        prob = ProblemSpec.sphere(random_cost(10, 0), r=5)
        options = SolverOptions(rho=3.0, seed=0)
        state = init_state(prob, options)
        with mock.patch.object(solver_module, "spmm", wraps=spmm) as counter:
            step(state, options)
        assert counter.call_count == 2

    def test_repeated_steps_reach_optimum(self):
        options = SolverOptions(rho=10.0)
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        state = init_state(prob, options, sigma0=np.eye(2))
        for _ in range(2000):
            state = step(state, options)
        # brute-force optimum of 2 cos(angle) is -2 at opposite rows
        angles = np.linspace(0, 2 * np.pi, 10_001)
        assert (2 * np.cos(angles)).min() == pytest.approx(-2.0, abs=1e-7)
        assert state.last_objective == pytest.approx(-2.0, abs=1e-8)

    def test_degenerate_gamma_block_raises(self):
        C = SparseSymMatrix.zeros(2)
        prob = ProblemSpec.sphere(C, r=2)
        options = SolverOptions(rho=2.0, seed=0)
        state = init_state(prob, options)
        state.y = 2.0 * state.sigma  # gamma = sigma - y/rho = 0
        with pytest.raises(AssumptionViolated) as info:
            step(state, options)
        assert info.value.block == 0
        assert info.value.iteration == 0

    def test_degenerate_d3_block_raises(self):
        prob = ProblemSpec.stiefel(SparseSymMatrix.zeros(9), 3, r=4)
        options = SolverOptions(rho=2.0, seed=0)
        state = init_state(prob, options)
        # zero cost and multiplier: gamma = sigma, whose block 1 has rank 2
        state.sigma = np.zeros((9, 4))
        state.sigma[:3, :3] = np.eye(3)
        state.sigma[3:6] = [
            [1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
        ]
        state.sigma[6:, 1:] = np.eye(3)
        state.y = np.zeros_like(state.sigma)
        with pytest.raises(AssumptionViolated) as info:
            step(state, options)
        assert info.value.block == 1
        assert info.value.iteration == 0

    def test_dual_link_holds(self):
        prob = ProblemSpec.sphere(random_cost(25, 4), r=7)
        options = SolverOptions(rho="theory", seed=1)
        state = init_state(prob, options)
        for _ in range(30):
            state = step(state, options)
            link = np.linalg.norm(state.y - spmm(prob.cost, state.sigma_tilde))
            assert link <= 1e-10 * two_norm_estimate(prob.cost) * np.sqrt(25)


class TestMeritValue:
    def test_equal_iterates_give_plain_objective(self):
        prob = ProblemSpec.sphere(random_cost(8, 1), r=4)
        state = init_state(prob, SolverOptions(rho=2.0, seed=3))
        assert merit_value(state) == pytest.approx(state.last_objective)

    def test_zero_cost_gives_penalty_term(self):
        C = SparseSymMatrix.zeros(3)
        prob = ProblemSpec.sphere(C, r=2)
        state = init_state(prob, SolverOptions(rho=4.0, seed=0))
        state.sigma = np.zeros_like(state.sigma)
        expected = 0.5 * 4.0 * np.linalg.norm(state.sigma_tilde) ** 2
        assert merit_value(state) == pytest.approx(expected)

    def test_floor(self):
        prob = ProblemSpec.sphere(random_cost(12, 2), r=5)
        options = SolverOptions(rho="theory", seed=5)
        state = init_state(prob, options)
        floor = -12 * inf_norm(prob.cost)
        for _ in range(50):
            state = step(state, options)
            assert merit_value(state) >= floor - 1e-9

    def test_off_manifold_rejected(self):
        prob = ProblemSpec.sphere(random_cost(5, 3), r=3)
        state = init_state(prob, SolverOptions(rho=1.0, seed=0))
        nan_row = state.sigma_tilde.copy()
        nan_row[1, 0] = np.nan
        for sigma_tilde in (2.0 * state.sigma_tilde, nan_row):
            state.sigma_tilde = sigma_tilde
            with pytest.raises(OffManifold):
                merit_value(state)


class TestResiduals:
    def test_fixed_point_all_zero(self):
        C = SparseSymMatrix.zeros(3)
        prob = ProblemSpec.sphere(C, r=2)
        options = SolverOptions(rho=1.0, seed=1)
        sigma0 = np.zeros((3, 2))
        sigma0[:, 1] = 1.0
        state = step(init_state(prob, options, sigma0=sigma0), options)
        assert residuals(state) == (0.0, 0.0, 0.0)

    def test_primal_residual_matches_dense_oracle(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        st, s, _ = dense_iteration(A, np.eye(2), np.eye(2), A.copy(), 10.0)
        expected = np.linalg.norm(st - s)
        options = SolverOptions(rho=10.0)
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        state = step(init_state(prob, options, sigma0=np.eye(2)), options)
        assert residuals(state)[0] == pytest.approx(expected, abs=1e-14)


class TestSolve:
    def test_edge_instance(self):
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        result = solve(prob, SolverOptions(seed=0))
        assert result.status is Status.CERTIFIED
        assert result.state.last_objective == pytest.approx(-2.0, abs=1e-6)

    def test_triangle_sdp_value(self):
        from bmadmm import maxcut_cost, parse_gset

        # oracle: one-dimensional minimization over the symmetric planar
        # angle parameterization f(t) = -1.5 + 0.5 (2 cos t + cos 2t)
        angles = np.linspace(0, 2 * np.pi, 200_001)
        values = -1.5 + 0.5 * (2 * np.cos(angles) + np.cos(2 * angles))
        assert values.min() == pytest.approx(-2.25, abs=1e-8)

        graph = parse_gset("3 3\n1 2 1\n2 3 1\n1 3 1\n")
        prob = ProblemSpec.sphere(maxcut_cost(graph))
        result = solve(prob, SolverOptions(seed=1))
        assert result.state.last_objective == pytest.approx(-2.25, abs=1e-4)

    def test_zero_cost_converges_fast(self):
        prob = ProblemSpec.sphere(SparseSymMatrix.zeros(5), r=3)
        result = solve(prob, SolverOptions(rho=1.0, seed=2))
        assert result.status is Status.CERTIFIED
        assert result.state.k <= 2

    def test_large_zero_cost_certifies_at_the_start(self):
        prob = ProblemSpec.sphere(SparseSymMatrix.zeros(400))
        result = solve(prob, SolverOptions())
        assert (result.status, result.state.k) == (Status.CERTIFIED, 0)

    def test_max_iter_status(self):
        prob = ProblemSpec.sphere(random_cost(30, 5), r=8)
        result = solve(prob, SolverOptions(rho="theory", max_iter=3, seed=0))
        assert result.status is Status.MAX_ITER
        assert result.state.k == 3

    def test_time_budget_stops_after_one_iteration(self):
        prob = ProblemSpec.sphere(random_cost(30, 5), r=8)
        result = solve(prob, SolverOptions(seed=0, time_budget=0.0))
        assert result.status is Status.TIME_BUDGET
        assert result.state.k == 1
        assert result.trace.column("k") == [1]

    def test_warm_start_resets_dual(self):
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        sigma0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = init_state(prob, SolverOptions(rho=4.0), sigma0=sigma0)
        np.testing.assert_allclose(state.y, spmm(prob.cost, sigma0))

    def test_warm_start_must_be_feasible(self):
        prob = ProblemSpec.sphere(edge_cost(), r=2)
        for sigma0 in (2 * np.eye(2), np.array([[1.0, 0.0], [np.nan, 1.0]])):
            with pytest.raises(OffManifold):
                init_state(prob, SolverOptions(rho=4.0), sigma0=sigma0)

    def test_trace_schema_and_stride(self):
        prob = ProblemSpec.sphere(random_cost(12, 6), r=5)
        result = solve(prob, SolverOptions(max_iter=10, seed=0))
        assert result.trace.column("k")[-1] == result.state.k
        assert result.trace.columns == (
            "k",
            "objective",
            "lagrangian",
            "primal_res",
            "step_tilde",
            "step_sigma",
            "min_gamma",
            "seconds",
        )

    def test_deterministic_iterates(self):
        prob = ProblemSpec.sphere(random_cost(20, 7), r=6)
        options = SolverOptions(seed=11, max_iter=200)
        a = solve(prob, options)
        b = solve(prob, options)
        np.testing.assert_array_equal(a.state.sigma_tilde, b.state.sigma_tilde)
        assert a.trace.column("objective") == b.trace.column("objective")


class TestTheoryModeInvariants:
    def test_monotone_merit_and_gamma_floor(self):
        for seed, density in ((0, 1.0), (1, 0.05)):
            prob = ProblemSpec.sphere(random_cost(40, seed, density), r=9)
            options = SolverOptions(
                rho="theory", check_invariants=True, max_iter=150, seed=seed
            )
            result = solve(prob, options)  # raises InvariantViolation on failure
            lagr = result.trace.column("lagrangian")
            for prev, cur in zip(lagr[1:], lagr[2:]):
                assert cur <= prev + 1e-9 * (1 + abs(prev))

    @staticmethod
    def broken(failure):
        """A step pair (old, new) of the plain iteration, with one field of
        new replaced so that exactly ``failure``'s check fails; returns the
        pair and the pattern of the failure message."""
        prob = ProblemSpec.sphere(random_cost(12, 4), r=5)
        # the increase is checked under a practice penalty, whose decrease
        # bound (kappa < 0) and row-norm floor (alpha <= 1) are vacuous and
        # so cannot fail with it; the rest under a theory penalty
        options = SolverOptions(rho="practice" if failure == "increase" else "theory", seed=0)
        old = init_state(prob, options)
        # the monotonicity checks start at old.k = 2, the merit floor at once
        for _ in range(0 if failure == "floor" else 2):
            old = step(old, options)
        new = step(old, options)
        floor = -prob.manifold.n * inf_norm(prob.cost)
        fields, pattern = {
            "floor": ({"last_G": 2.0 * floor}, r"merit \S+ below floor \S+"),
            "increase": ({"last_G": old.last_G + 1.0}, r"merit increased by \S+"),
            "gamma": ({"last_min_gamma": 0.1}, r"min gamma row norm 0\.100000 below floor \S+"),
            "bound": ({"last_G": old.last_G}, r"merit decrease 0\.000e\+00 below bound \S+"),
        }[failure]
        return old, replace(new, **fields), pattern

    @pytest.mark.parametrize("failure", ["floor", "increase", "gamma", "bound"])
    def test_each_broken_invariant_raises_under_theory(self, failure):
        old, new, pattern = self.broken(failure)
        with pytest.raises(InvariantViolation) as info:
            solver_module._check_invariants(old, new, True)
        failures = info.value.diagnostics["failures"]
        assert len(failures) == 1
        assert re.fullmatch(pattern, failures[0])

    @pytest.mark.parametrize("failure", ["floor", "increase", "gamma", "bound"])
    def test_each_broken_invariant_is_logged_under_practice(self, failure, caplog):
        old, new, pattern = self.broken(failure)
        with caplog.at_level(logging.WARNING, logger="bmadmm"):
            solver_module._check_invariants(old, new, False)
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert re.fullmatch(f"invariant check: iteration {new.k}: {pattern}", messages[0])

    def test_practice_penalty_checks_without_raising(self):
        # mu = 0 under a practice penalty takes the effective alpha and beta
        # of the decrease bound from rho; violations are only logged
        prob = ProblemSpec.sphere(random_cost(12, 4), r=5)
        options = SolverOptions(rho="practice", mu=0.0, check_invariants=True, seed=0)
        result = solve(prob, options)
        assert result.status is Status.CERTIFIED

    def test_kappa_constant_at_defaults(self):
        assert kappa_constant(10.0, 2.0) == pytest.approx(0.08)

    def test_stationarity_at_convergence(self):
        from bmadmm import riemannian_grad

        prob = ProblemSpec.sphere(random_cost(24, 9), r=7)
        options = SolverOptions(seed=3)
        result = solver_module._solve(prob, options)
        assert result.status is Status.CONVERGED
        grad_norm = np.linalg.norm(riemannian_grad(prob.cost, result.state.sigma_tilde))
        bound = 10 * options.tol_primal * result.state.rho * np.sqrt(24)
        assert grad_norm <= bound


class TestScaleEquivariance:
    def test_scaling_cost_and_parameters(self):
        c = 3.0
        C = random_cost(15, 8)
        Cc = C.scaled(c)
        spec = ManifoldSpec.sphere(15, 6)
        rho = 2.0 * default_rho(C, "theory")
        opts_a = SolverOptions(rho=rho, seed=4, max_iter=50)
        opts_b = SolverOptions(rho=c * rho, seed=4, max_iter=50)
        state_a = init_state(ProblemSpec(C, spec), opts_a)
        state_b = init_state(ProblemSpec(Cc, spec), opts_b)
        np.testing.assert_array_equal(state_a.sigma_tilde, state_b.sigma_tilde)
        for _ in range(50):
            state_a = step(state_a, opts_a)
            state_b = step(state_b, opts_b)
            assert np.abs(state_a.sigma_tilde - state_b.sigma_tilde).max() < 1e-12
            assert np.abs(state_a.sigma - state_b.sigma).max() < 1e-12
            assert np.abs(c * state_a.y - state_b.y).max() < 1e-12 * max(
                1.0, np.abs(state_b.y).max()
            )


def reference_step(problem, st, s, y, rho, mu):
    """The iteration as written before the residual norms moved into
    ``step``: every norm is np.linalg.norm of a freshly formed difference,
    and d = 1 rows are normalized by their own norms."""
    C = problem.cost
    Cs = spmm(C, s)
    if mu == 0.0:
        gam = s - (y + Cs) / rho
    else:
        gam = (mu * st + rho * s - (y + Cs)) / (rho + mu)
    min_gamma = float(np.linalg.norm(gam, axis=1).min())
    if problem.manifold.d == 1:
        st_new = gam / np.linalg.norm(gam, axis=1)[:, None]
    else:
        st_new = project(problem.manifold, gam)
    Cst = spmm(C, st_new)
    s_new = st_new + (y - Cst) / rho
    # the method's multiplier update y + rho (st' - s') is C st' up to rounding
    assert np.linalg.norm(y + rho * (st_new - s_new) - Cst) <= 1e-13 * np.linalg.norm(Cst)
    y_new = Cst
    norms = (
        float(np.linalg.norm(st_new - s_new)),
        float(np.linalg.norm(st_new - st)),
        float(np.linalg.norm(s_new - s)),
    )
    return st_new, s_new, y_new, norms, min_gamma


def assert_norms_match(actual, expected, path):
    """Norms of ``step`` against np.linalg.norm: bit for bit on the numpy
    path; to 1e-13 relative on the compiled one, whose sums run in an
    order of their own."""
    if path == "numpy":
        assert actual == expected
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=0.0)


class TestFusedNorms:
    @pytest.mark.parametrize("d", [1, 3])
    def test_step_matches_reference_bit_for_bit(self, d, kernel_path):
        if d == 1:
            prob = ProblemSpec.sphere(random_cost(40, 10, density=0.2), r=9)
            options = SolverOptions(seed=3)
        else:
            from bmadmm import generate_so3

            prob = generate_so3(8, 0.5, 4)
            options = SolverOptions(seed=3, mu=10.0)
        state = init_state(prob, options)
        assert residuals(state) == (0.0, 0.0, 0.0)
        st, s, y = state.sigma_tilde, state.sigma, state.y
        for _ in range(50):
            st, s, y, norms, min_gamma = reference_step(prob, st, s, y, state.rho, state.mu)
            state = step(state, options)
            np.testing.assert_array_equal(state.sigma_tilde, st)
            np.testing.assert_array_equal(state.sigma, s)
            np.testing.assert_array_equal(state.y, y)
            assert_norms_match(residuals(state), norms, kernel_path)
            assert state.last_min_gamma == min_gamma

    def test_escape_state_norms(self):
        import bmadmm.curvature as curvature_module
        from bmadmm import maxcut_cost, parse_gset

        stepped = {}  # every state step was called on, by k
        escapes = []  # (state escaped from, state moved to)
        manifold_state = curvature_module.manifold_state

        def recording_step(state, options, previous=None):
            stepped[state.k] = state
            return step(state, options, previous)

        def recording_escape(st, cost_st, previous):
            moved = manifold_state(st, cost_st, previous)
            escapes.append((previous, moved))
            return moved

        # started near the all-equal-rows saddle under loose tolerances,
        # this graph converges to a saddle at k = 17, where st != s, and
        # escapes from it
        edges = [
            (1, 2), (1, 4), (1, 5), (1, 11), (2, 5), (2, 7), (3, 8), (3, 12),
            (4, 5), (4, 9), (4, 11), (4, 12), (5, 7), (6, 7), (7, 9), (8, 12),
            (9, 11), (9, 12), (10, 12), (11, 12),
        ]
        text = "12 20\n" + "".join(f"{i} {j} 1\n" for i, j in edges)
        prob = ProblemSpec.sphere(maxcut_cost(parse_gset(text)))
        start = np.zeros((12, prob.manifold.r))
        start[:, 0] = 1.0
        start += 0.01 * np.random.default_rng(0).standard_normal(start.shape)
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        options = SolverOptions(seed=0, tol_primal=1e-2, tol_obj=1e-3)
        with mock.patch.object(solver_module, "step", recording_step), mock.patch.object(
            curvature_module, "manifold_state", recording_escape
        ):
            result = curvature_module.solve_with_curvature(
                prob, options, eps=1e-2, sigma0=start
            )
        assert result.status is Status.EPS_CONVEX
        assert len(escapes) >= 1
        assert any(residuals(previous)[0] > 0.0 for previous, _ in escapes)
        rows = {row.k: row for row in result.trace.records}
        for previous, new in escapes:
            # the moved state is the next one step is called on
            assert stepped[new.k] is new
            moved = new.sigma_tilde
            assert new.k == previous.k + 1
            assert residuals(new) == (
                0.0,
                float(np.linalg.norm(moved - previous.sigma_tilde)),
                float(np.linalg.norm(moved - previous.sigma)),
            )
            row = rows[new.k]
            assert row.escaped == 1 and row.probe_performed == 1
            assert (row.primal_res, row.step_tilde, row.step_sigma) == residuals(new)


def parity_problem(d, mu):
    """A problem and options for the step parity tests: a sparse Gaussian
    cost at d = 1 and 2, SO(3) synchronization at d = 3; with ``mu`` the
    proximal weight is 2 ||C||_2, else 0."""
    if d == 3:
        from bmadmm import generate_so3

        prob = generate_so3(8, 0.5, 4)
    else:
        prob = ProblemSpec.stiefel(random_cost(24, 7 + d, density=0.3), d, r=7)
    mu = 2.0 * two_norm_estimate(prob.cost) if mu else 0.0
    return prob, SolverOptions(seed=3, mu=mu)


def parity_states(prob, options):
    """Inputs of ``step`` on the two kinds of state that ``solve`` hands
    it: (state, previous) after a few plain steps, and an Anderson
    extrapolation (``_Anderson.unpack`` views) from the same run."""
    state = init_state(prob, options)
    memory = solver_module._Anderson(state, 5)
    for _ in range(6):
        z = memory.extrapolate()
        new = step(state if z is None else memory.unpack(z, state), options, state)
        memory.update(memory.point() if z is None else z, new)
        state = new
    z = memory.extrapolate()
    assert z is not None
    return {"plain": (state, state), "anderson": (memory.unpack(z, state), state)}


def numpy_step(state, options, previous=None):
    """``step`` with the step library unloaded: the numpy route.  The d = 3
    projection stays as it is, so the two routes project alike."""
    kernel = native.kernel

    def without_step(name):
        return None if name == "step" else kernel(name)

    with mock.patch.object(native, "kernel", without_step):
        return step(state, options, previous)


def assert_step_parity(compiled, reference):
    """The compiled step's state against the numpy step's: the factor and
    the smallest row norm to 1e-15, the sums to 1e-13 relative."""
    np.testing.assert_allclose(compiled.sigma_tilde, reference.sigma_tilde, rtol=0, atol=1e-15)
    assert compiled.last_min_gamma == pytest.approx(reference.last_min_gamma, rel=0, abs=1e-15)
    np.testing.assert_allclose(compiled.sigma, reference.sigma, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(compiled.y, reference.y)
    for field in ("last_objective", "last_G", "primal_res", "step_tilde", "step_sigma"):
        assert getattr(compiled, field) == pytest.approx(
            getattr(reference, field), rel=1e-13, abs=0
        ), field
    assert compiled.k == reference.k


def assert_same_step(new, reference):
    """Two states that ``step`` returned agree bit for bit."""
    for field in ("sigma_tilde", "sigma", "y"):
        np.testing.assert_array_equal(getattr(new, field), getattr(reference, field))
    for field in ("last_objective", "last_min_gamma", "primal_res", "step_tilde", "step_sigma"):
        assert getattr(new, field) == getattr(reference, field), field


class TestCompiledStep:
    """The compiled row work of ``step`` (step.c) against the numpy step."""

    @pytest.mark.parametrize("kind", ["plain", "anderson"])
    @pytest.mark.parametrize("mu", [False, True], ids=["mu0", "mu"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_numpy_step(self, d, mu, kind, loaded):
        loaded("step")
        prob, options = parity_problem(d, mu)
        state, previous = parity_states(prob, options)[kind]
        inputs = [a.copy() for a in (state.sigma_tilde, state.sigma, state.y)]
        reference = numpy_step(state, options, previous)
        compiled = step(state, options, previous)
        assert_step_parity(compiled, reference)
        # st' and s' of the compiled route repeat the numpy bits
        np.testing.assert_array_equal(compiled.sigma_tilde, reference.sigma_tilde)
        np.testing.assert_array_equal(compiled.sigma, reference.sigma)
        # the inputs are left as they were
        for before, after in zip(inputs, (state.sigma_tilde, state.sigma, state.y)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("d", [1, 3])
    def test_extreme_rows_take_the_numpy_route(self, d, scale, loaded):
        loaded("step")
        prob, options = parity_problem(d, False)
        state, _ = parity_states(prob, options)["plain"]
        state = replace(state, sigma=scale * state.sigma, y=scale * state.y)
        reference = numpy_step(state, options)
        compiled = step(state, options)
        np.testing.assert_array_equal(compiled.sigma_tilde, reference.sigma_tilde)
        assert compiled.last_min_gamma == reference.last_min_gamma
        np.testing.assert_array_equal(compiled.sigma, reference.sigma)
        for field in ("last_objective", "primal_res", "step_tilde", "step_sigma"):
            assert getattr(compiled, field) == pytest.approx(
                getattr(reference, field), rel=1e-13, abs=0
            ), field

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_nan_row_raises_as_the_numpy_step_does(self, d, loaded):
        loaded("step")
        prob, options = parity_problem(d, False)
        state, _ = parity_states(prob, options)["plain"]
        y = state.y.copy()
        y[2 * d - 1, 1] = np.nan  # the last row of block 1, and of gamma's
        state = replace(state, y=y)
        raised = []
        for run in (numpy_step, step):
            with pytest.raises(AssumptionViolated) as info:
                run(state, options)
            raised.append((info.value.block, str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == 1

    @pytest.mark.parametrize("route", ["compiled", "fallback", "numpy"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_two_products_per_step_on_every_route(self, d, route, loaded):
        prob, options = parity_problem(d, False)
        state, _ = parity_states(prob, options)["plain"]
        run = step
        if route == "fallback":  # rows out of NORM_RANGE: update_point flags them
            loaded("step")
            state = replace(state, sigma=1e200 * state.sigma, y=1e200 * state.y)
        elif route == "numpy":
            run = numpy_step
        else:
            loaded("step")
        with mock.patch.object(solver_module, "spmm", wraps=spmm) as counter:
            run(state, options)
        assert counter.call_count == 2

    @pytest.mark.parametrize("make", ["fortran", "read-only", "float32"])
    def test_arrays_the_kernel_cannot_take_give_the_numpy_bits(self, make, loaded):
        loaded("step")
        prob, options = parity_problem(1, True)
        state, _ = parity_states(prob, options)["plain"]
        if make == "fortran":
            sigma = np.asfortranarray(state.sigma)
        elif make == "read-only":
            sigma = state.sigma.copy()
            sigma.setflags(write=False)
        else:
            sigma = state.sigma.astype(np.float32)
        state = replace(state, sigma=sigma)
        assert_same_step(step(state, options), numpy_step(state, options))

    def test_a_state_of_another_rank_never_reaches_the_kernel(self, loaded):
        # the kernel would index its arrays by the manifold's rank
        loaded("step")
        prob, options = parity_problem(1, False)
        state, _ = parity_states(prob, options)["plain"]
        state = replace(
            state, **{f: getattr(state, f)[:, :-1].copy() for f in ("sigma_tilde", "sigma", "y")}
        )
        assert_same_step(step(state, options), numpy_step(state, options))

    def test_a_failed_build_gives_the_numpy_bits(self, failed_build, fresh_loader, caplog):
        prob, options = parity_problem(1, False)
        with mock.patch.object(native, "kernel", lambda name: None):
            state, previous = parity_states(prob, options)["anderson"]
        reference = numpy_step(state, options, previous)
        with caplog.at_level("INFO", logger="bmadmm.native"):
            for _ in range(2):
                assert_same_step(step(state, options, previous), reference)
        assert native.kernel("step") is None
        assert solver_module.step_kernel() == "numpy"
        assert [rec.levelname for rec in caplog.records] == ["INFO"]
        if failed_build in ("no compiler", "compile error"):
            # the temporary output is gone
            assert os.listdir(fresh_loader) == []


def recorded_solve(problem, options, run=solve):
    """``run`` (by default ``solve``) with every transition of its driver
    loop recorded as (state before, state after, trace cells, status), and
    ``spmm`` counted."""
    transitions = []
    drive = solver_module.drive

    def recording_drive(state, advance, *args, **kwargs):
        def recorded(state):
            out = advance(state)
            transitions.append((state, *out))
            return out

        return drive(state, recorded, *args, **kwargs)

    with mock.patch.object(solver_module, "drive", recording_drive), mock.patch.object(
        solver_module, "spmm", wraps=spmm
    ) as counter:
        result = run(problem, options)
    return result, transitions, counter.call_count


def theory_run(d):
    """A theory-penalty run with rejected extrapolations.  Plain steps
    decrease the merit value under this penalty, so no trace row may
    raise it."""
    if d == 1:
        return ProblemSpec.sphere(random_cost(40, 10, density=0.2)), SolverOptions(
            rho="theory", seed=10
        )
    from bmadmm import generate_so3, two_norm_estimate

    prob = generate_so3(10, 0.3, 1)
    norm = two_norm_estimate(prob.cost)
    return prob, SolverOptions(rho=2 * norm, mu=2 * norm, seed=1)


def g1_density_graph(n, seed):
    """Erdos-Renyi graph with G1's edge density (19,176 edges on 800
    vertices) and unit weights."""
    from bmadmm import GraphInstance

    pairs = n * (n - 1) // 2
    m = round(19_176 / (800 * 799 / 2) * pairs)
    rows, cols = np.triu_indices(n, k=1)
    pick = np.sort(np.random.default_rng(seed).choice(pairs, size=m, replace=False))
    edges = [(int(i) + 1, int(j) + 1, 1.0) for i, j in zip(rows[pick], cols[pick])]
    return GraphInstance(n=n, edges=edges)


class TestAcceleratedSolve:
    @pytest.mark.parametrize("d", [1, 3])
    def test_two_products_per_evaluation_with_rejections(self, d):
        prob, options = theory_run(d)
        result, transitions, products = recorded_solve(prob, options)
        # the d = 3 run reaches the certificate before the residual stop
        assert result.status is (Status.CONVERGED if d == 1 else Status.CERTIFIED)
        rejected = [t for t in transitions if t[2] is None and t[3] is None]
        assert rejected
        # one product for the initial multiplier, two per step evaluation
        assert products == 2 * result.state.k + 1
        assert len(transitions) == result.state.k

    @pytest.mark.parametrize("d", [1, 3])
    def test_rejected_evaluation_keeps_the_state(self, d, kernel_path):
        prob, options = theory_run(d)
        result, transitions, _ = recorded_solve(prob, options)
        ks = result.trace.column("k")
        rejected = 0
        for old, new, cells, stop in transitions:
            if cells is None:
                rejected += 1
                assert new.sigma_tilde is old.sigma_tilde
                assert new.sigma is old.sigma and new.y is old.y
                assert new.k == old.k + 1
                assert (new.step_tilde, new.step_sigma) == (0.0, 0.0)
                assert new.last_G == old.last_G
                if new is not result.state:
                    assert new.k not in ks
            else:
                # accepted steps move from the last accepted state
                assert_norms_match(
                    residuals(new)[1:],
                    (
                        float(np.linalg.norm(new.sigma_tilde - old.sigma_tilde)),
                        float(np.linalg.norm(new.sigma - old.sigma)),
                    ),
                    kernel_path,
                )
                assert new.k in ks
        assert rejected >= 1

    def test_degenerate_extrapolation_is_rejected_not_fatal(self, monkeypatch):
        # only a plain step's degenerate block ends the run; one at an
        # extrapolated point is rejected like a rise of the merit value
        prob, options = theory_run(1)
        rejected = []  # k of the evaluation made to degenerate

        def degenerate_once(state, options, previous=None):
            if previous is not None and previous is not state and not rejected:
                rejected.append(state.k + 1)
                raise AssumptionViolated("degenerate", block=0, iteration=state.k)
            return step(state, options, previous)

        monkeypatch.setattr(solver_module, "step", degenerate_once)
        result = solve(prob, options)
        assert rejected
        assert result.status in (Status.CONVERGED, Status.CERTIFIED)
        assert rejected[0] not in result.trace.column("k")

    @pytest.mark.parametrize("d", [1, 3])
    def test_lagrangian_never_increases(self, d):
        prob, options = theory_run(d)
        result = solve(prob, options)
        assert result.state.k > len(result.trace.records)  # rejections happened
        lagr = result.trace.column("lagrangian")
        assert all(cur <= prev for prev, cur in zip(lagr, lagr[1:]))

    def test_every_returned_state_is_a_step_output(self):
        prob, options = theory_run(3)
        _, transitions, _ = recorded_solve(prob, options)
        man = prob.manifold
        from bmadmm.manifold import manifold_violation

        for _, new, _, _ in transitions:
            assert manifold_violation(man, new.sigma_tilde) < 1e-12
            np.testing.assert_allclose(
                new.y, spmm(prob.cost, new.sigma_tilde), rtol=0, atol=1e-12
            )

    def test_slow_graph_converges_fast(self):
        # graph seed 1 at n = 200 and G1's edge density: the plain iteration
        # needs about 23,600 iterations to reach tol_primal here
        from bmadmm import dual_certificate, maxcut_cost

        C = maxcut_cost(g1_density_graph(200, 1))
        result = solve(ProblemSpec.sphere(C), SolverOptions(seed=1))
        assert result.status is Status.CERTIFIED
        assert result.state.k <= 2_000
        cert = dual_certificate(C, result.state.sigma_tilde, seed=1)
        assert cert.certified
        assert cert.relative_gap() <= 1e-6

    def test_no_products_beyond_the_iteration_on_a_fresh_matrix(self):
        # the norm cache starts empty; ||C||_2 is one dense solve, not
        # products, and the invariant check reads it from the cache.  The
        # plain kernel caps out on this cost under "practice", so the
        # checked run takes a "theory" penalty and an iteration cap.
        for options in (
            SolverOptions(seed=2),
            SolverOptions(rho="theory", seed=2, check_invariants=True, max_iter=300),
        ):
            prob = ProblemSpec.sphere(random_cost(40, 2, density=0.05))
            with mock.patch.object(
                sparse_module, "spmm", wraps=spmm
            ) as in_sparse, mock.patch.object(
                solver_module, "spmm", wraps=spmm
            ) as in_solver, mock.patch.object(
                np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh
            ) as dense_solves:
                result = solve(prob, options)
            assert in_sparse.call_count + in_solver.call_count == 2 * result.state.k + 1
            assert dense_solves.call_count == 1

    def test_sparse_gaussian_converges(self):
        # the plain iteration runs to its 100,000-iteration cap here
        prob = ProblemSpec.sphere(random_cost(40, 2, density=0.05))
        result = solve(prob, SolverOptions(seed=2))
        assert result.status is Status.CERTIFIED
        assert result.state.k <= 200

    @pytest.mark.parametrize("d", [1, 3])
    def test_checked_run_is_the_plain_iteration(self, d):
        prob, options = theory_run(d)
        options.check_invariants = True
        options.max_iter = 120
        result = solve(prob, options)
        state = init_state(prob, options)
        for _ in range(result.state.k):
            state = step(state, options)
        np.testing.assert_array_equal(result.state.sigma_tilde, state.sigma_tilde)
        np.testing.assert_array_equal(result.state.sigma, state.sigma)
        np.testing.assert_array_equal(result.state.y, state.y)
        assert result.trace.column("k") == list(range(1, result.state.k + 1))


class TestCertifiedStop:
    @pytest.mark.parametrize(
        "C",
        [
            SparseSymMatrix.identity(1),
            SparseSymMatrix.identity(3),
            SparseSymMatrix.identity(4).scaled(2.0),
            SparseSymMatrix.identity(5),
            SparseSymMatrix.zeros(5),
            SparseSymMatrix.identity(400).scaled(2.0),
        ],
        ids=["I1", "I3", "2I4", "I5", "zero5", "2I400"],
    )
    def test_constant_objective_certifies_at_the_start(self, C):
        # every feasible X has <C, X> = tr C; the plain kernel cycles on
        # C = c I under the "practice" penalty and never meets tol_primal.
        # The start is tested on every problem, at any n
        from bmadmm import dual_certificate, solve_with_curvature

        prob = ProblemSpec.sphere(C)
        options = SolverOptions(seed=0)
        result = solve(prob, options)
        assert result.status is Status.CERTIFIED
        assert result.state.k == 0
        assert result.trace.column("k") == [0]
        cert = dual_certificate(C, result.state.sigma_tilde)
        assert cert.certified and cert.proves_optimal()
        curved = solve_with_curvature(prob, options, eps=1e-2)
        assert curved.status is Status.EPS_CONVEX
        assert curved.state.k == 0
        assert curved.trace.column("probe_performed") == [1]

    def test_certified_run_counts_two_products_per_evaluation(self):
        for prob in (
            ProblemSpec.sphere(random_cost(40, 2, density=0.05)),
            ProblemSpec.sphere(SparseSymMatrix.identity(4)),
        ):
            result, transitions, products = recorded_solve(prob, SolverOptions(seed=2))
            assert result.status is Status.CERTIFIED
            assert products == 2 * result.state.k + 1
            assert transitions[-1][1] is result.state

    @staticmethod
    def certified_traces(prob, options):
        """The trace rows of two certified solves, without ``seconds``."""
        texts = []
        for _ in range(2):
            result = solve(prob, options)
            assert result.status is Status.CERTIFIED
            rows = [line.split(",") for line in result.trace.to_csv().splitlines()]
            keep = [i for i, name in enumerate(rows[0]) if name != "seconds"]
            texts.append([[row[i] for i in keep] for row in rows])
        return texts

    @pytest.mark.usefixtures("kernel_path")
    def test_certified_traces_identical_apart_from_wall_clock(self):
        prob = ProblemSpec.sphere(random_cost(30, 12))
        texts = self.certified_traces(prob, SolverOptions(seed=5))
        assert texts[0] == texts[1]

    @pytest.mark.usefixtures("kernel_path")
    def test_so3_traces_identical_apart_from_wall_clock(self):
        from bmadmm import generate_so3, two_norm_estimate

        prob = generate_so3(10, 0.3, 1)
        texts = self.certified_traces(prob, SolverOptions(mu=two_norm_estimate(prob.cost), seed=4))
        assert texts[0] == texts[1]

    def test_certified_state_agrees_with_the_certificate(self):
        from bmadmm import dual_certificate

        C = random_cost(30, 12)
        result = solve(ProblemSpec.sphere(C), SolverOptions(seed=5))
        assert result.status is Status.CERTIFIED
        cert = dual_certificate(C, result.state.sigma_tilde)
        assert cert.certified
        assert cert.relative_gap() <= 1e-6
        # the certificate recomputes C st and lands on the state's y
        np.testing.assert_array_equal(spmm(C, result.state.sigma_tilde), result.state.y)

    def test_final_state_carries_the_certificate_of_its_test(self):
        # every state that a test certifies ends the run carrying that
        # certificate, which is dual_certificate's of the same factor
        from dataclasses import fields

        from bmadmm import (
            RgdOptions,
            dual_certificate,
            generate_so3,
            maxcut_cost,
            rgd_solve,
            solve_with_curvature,
        )

        sphere = ProblemSpec.sphere(random_cost(30, 12))
        block_prob, block_options = block_run(10, 1, "theory")
        slack_tol = CERT_TOL * two_norm_estimate(sphere.cost)
        # loose tolerances: this max-cut run meets its residual stop at
        # k = 14, where the stop's slack test ends it
        rest_prob = ProblemSpec.sphere(maxcut_cost(g1_density_graph(30, 6)))
        rest_options = SolverOptions(seed=6, tol_primal=1e-2, tol_obj=1e-2)
        runs = [
            (solve(sphere, SolverOptions(seed=5)), Status.CERTIFIED),
            (solve(block_prob, block_options), Status.CERTIFIED),
            (solve_with_curvature(sphere, SolverOptions(seed=0), eps=1e-2), Status.EPS_CONVEX),
            (solve_with_curvature(rest_prob, rest_options, eps=1e-2), Status.EPS_CONVEX),
            # a check that never stops: the run is tested at its residual stop
            (
                solver_module._solve(
                    sphere, SolverOptions(seed=5), None, lambda cert: ({}, None), slack_tol
                ),
                Status.CONVERGED,
            ),
            # the gradient baseline stops on the same test, at d = 1 and 3
            (rgd_solve(sphere, RgdOptions(seed=5)), Status.CERTIFIED),
            (rgd_solve(generate_so3(6, 0.5, seed=2), RgdOptions(seed=1)), Status.CERTIFIED),
        ]
        for result, status in runs:
            assert result.status is status
            state = result.state
            d = state.problem.manifold.d
            # a copy of the cost, whose certificate is computed afresh: on
            # the run's own matrix dual_certificate would return the
            # certificate that the run computed
            C = state.problem.cost
            C = SparseSymMatrix(C.n, C.row_ptr, C.col_idx, C.values)
            fresh = dual_certificate(C, state.sigma_tilde, d=d)
            for field in fields(fresh):
                carried = getattr(state.certificate, field.name)
                expected = getattr(fresh, field.name)
                if isinstance(expected, np.ndarray):
                    assert np.array_equal(carried, expected), field.name
                else:
                    assert carried == expected, field.name
        # runs without a slack test carry none
        assert solver_module._solve(sphere, SolverOptions(seed=5)).state.certificate is None
        # the gradient baseline carries the certificate that stopped it
        assert rgd_solve(sphere).state.certificate.proves_optimal()

    def test_a_sphere_run_is_tested_at_its_residual_stop(self):
        # max-cut on perfbench's er_graph(400, 1200, 0) at r = 8.  With one
        # BLAS thread, the state tested an interval (209) after the start
        # has a relative gap of 1.03e-6, just above the target; the residual
        # stop comes 112 iterations later (k = 321), and its test proves
        # that state optimal.  The products here are large enough for BLAS
        # to thread, and the rounding of a threaded product moves the stop
        # (k = 356 with two threads), so the certified run is held to the
        # residual-stopped run's k rather than to a fixed count
        from bmadmm import GraphInstance, dual_certificate, maxcut_cost

        n, m = 400, 1200
        rows, cols = np.triu_indices(n, k=1)
        pick = np.sort(np.random.default_rng(0).choice(n * (n - 1) // 2, size=m, replace=False))
        edges = [(int(i) + 1, int(j) + 1, 1.0) for i, j in zip(rows[pick], cols[pick])]
        C = maxcut_cost(GraphInstance(n=n, edges=edges))
        prob = ProblemSpec.sphere(C, r=8)
        options = SolverOptions(seed=0)
        residual = solver_module._solve(prob, options)
        result = solve(prob, options)
        assert residual.status is Status.CONVERGED
        assert (result.status, result.state.k) == (Status.CERTIFIED, residual.state.k)
        assert result.state.last_objective == residual.state.last_objective
        assert result.state.certificate.proves_optimal()
        assert dual_certificate(C, residual.state.sigma_tilde).proves_optimal()

    def test_escapes_leave_the_schedule_alone(self):
        # from the all-equal saddle this graph escapes twice; the states
        # the early test screens are those of the one rule, replayed over
        # the rows, with each escape's rest state screened at its residual
        # stop (an escaped state's row is a move along a curvature
        # direction, and is not tested)
        from bmadmm import maxcut_cost, solve_with_curvature

        C = maxcut_cost(g1_density_graph(30, 6))
        prob = ProblemSpec.sphere(C)
        start = np.zeros((30, prob.manifold.r))
        start[:, 0] = 1.0
        eps = 1e-2
        options = SolverOptions(seed=6, tol_primal=1e-3, tol_obj=1e-4)
        run = spied_solve(
            prob, options, lambda p, o: solve_with_curvature(p, o, eps=eps, sigma0=start)
        )
        assert run.result.status is Status.EPS_CONVEX
        rows = run.result.trace.records
        escapes = [row.k for row in rows if row.escaped == 1]
        assert len(escapes) == 2
        screened = [k for k, _ in run.screened]
        assert screened == schedule(prob, rows, eps / 2.0)
        # tests fall after each escape
        assert all(any(k > e for k in screened) for e in escapes)

    def test_a_long_cycle_certifies_an_interval_after_the_start(self):
        # max-cut on the cycle C_601: the residual stop comes at k = 1,913;
        # the test schedule does not depend on n, so a state at least an
        # interval (216) past the start is screened, passes and certifies
        from bmadmm import GraphInstance, maxcut_cost

        n = 601
        edges = [(i, i % n + 1, 1.0) for i in range(1, n + 1)]
        prob = ProblemSpec.sphere(maxcut_cost(GraphInstance(n=n, edges=edges)))
        screened = []
        screen = solver_module.slack_screen

        def screen_spy(C, sigma, *args):
            screened.append((sigma, screen(C, sigma, *args)))
            return screened[-1][1]

        with mock.patch.object(solver_module, "slack_screen", screen_spy):
            result = solve(prob, SolverOptions(seed=0))
        interval = math.ceil(n**3 / (3 * solver_module.iteration_flops(prob)))
        assert result.status is Status.CERTIFIED
        assert interval <= result.state.k < 1913
        assert [passed for _, passed in screened] == [False, True]
        assert screened[-1][0] is result.state.sigma_tilde

    @pytest.mark.parametrize("case", ["sphere", "block-theory", "block-practice"])
    def test_the_certified_stop_cuts_the_residual_stop_short(self, case):
        if case == "sphere":
            prob, options = ProblemSpec.sphere(random_cost(30, 12)), SolverOptions(seed=5)
        else:
            prob, options = block_run(10, 1, case.split("-")[1])
        certified = solve(prob, options)
        residual = solver_module._solve(prob, options)
        assert certified.status is Status.CERTIFIED
        assert residual.status is Status.CONVERGED
        assert residual.state.k > certified.state.k
        # without a check the iterates are the same: the certified run's
        # rows are the first rows of the residual-stopped run
        columns = ("k", "objective", "lagrangian", "primal_res", "step_tilde", "step_sigma")
        rows = [[getattr(row, c) for c in columns] for row in residual.trace.records]
        assert rows[: len(certified.trace.records)] == [
            [getattr(row, c) for c in columns] for row in certified.trace.records
        ]


MAXCUT_RUNS = [(60, 0), (100, 2), (150, 4)]


@pytest.fixture(scope="module", params=MAXCUT_RUNS, ids=lambda run: "n%d-seed%d" % run)
def maxcut_run(request):
    """A max-cut ``solve`` through ``spied_solve``, and the same run
    without a stop: ``_solve`` with a check that never stops, also spied
    on, with ``proven`` telling for every state whose certificate it built
    whether that certificate proves the state optimal."""
    from bmadmm import maxcut_cost

    n, seed = request.param
    prob = ProblemSpec.sphere(maxcut_cost(g1_density_graph(n, seed)))
    options = SolverOptions(seed=seed)
    run = spied_solve(prob, options)
    run.tol = CERT_TOL * two_norm_estimate(prob.cost)

    def never(cert):
        return {}, None

    full = spied_solve(prob, options, lambda p, o: solver_module._solve(p, o, None, never, run.tol))
    run.full = full.result
    run.proven = {k: cert.proves_optimal() for k, (_, cert) in zip(full.tested_k, full.tested)}
    return run


class TestEarlyTestSchedule:
    def test_every_test_is_screened(self, maxcut_run):
        run = maxcut_run
        screened = [k for k, _ in run.screened]
        assert screened == schedule(run.problem, run.result.trace.records, run.tol)
        assert len(screened) >= 3
        assert run.tested_k == [k for k, passed in run.screened if passed]

    def test_tests_fall_an_interval_apart(self, maxcut_run):
        run = maxcut_run
        n = run.problem.manifold.n
        interval = math.ceil(n**3 / (3 * solver_module.iteration_flops(run.problem)))
        assert interval > 1
        screened = [k for k, _ in run.screened]
        gaps = [k - before for before, k in zip(screened, screened[1:])]
        # tests lie at least an interval apart, and exactly one interval
        # apart wherever the state an interval on is due
        assert min(gaps) >= interval
        assert interval in gaps

    def test_iterates_do_not_depend_on_the_tests(self, maxcut_run):
        run = maxcut_run
        full = run.full
        assert full.status is Status.CONVERGED
        # the certified run's rows are the first rows of the run that never
        # stops, and it stops at the first state of the schedule whose
        # certificate proves it optimal
        stop = run.result.state.k
        columns = ("k", "objective", "lagrangian", "primal_res", "step_tilde", "step_sigma")
        head = [[getattr(row, c) for c in columns] for row in full.trace.records if row.k <= stop]
        assert head == [[getattr(row, c) for c in columns] for row in run.result.trace.records]
        assert run.result.status is Status.CERTIFIED
        due = schedule(run.problem, full.trace.records, run.tol)
        assert stop == next(k for k in due if run.proven.get(k))

    def test_the_interval_prices_a_test_as_a_cholesky(self):
        # perfbench's maxcut graphs: n = 200 at G1's density, default rank;
        # a dense Gaussian cost multiplies through its dense copy
        from bmadmm import maxcut_cost

        for C, expected in (
            (maxcut_cost(g1_density_graph(200, 0)), 12),
            (random_cost(60, 0), 1),
        ):
            prob = ProblemSpec.sphere(C)
            n = prob.manifold.n
            assert math.ceil(n**3 / (3 * solver_module.iteration_flops(prob))) == expected


def block_run(q, seed, mode):
    """SO(3) synchronization under criterion 7's "theory" (rho = mu =
    2 ||C||_2) or "practice" (rho = mu = ||C||_2) parameters.  Stopped on
    the slack test alone, all but one of the runs of BLOCK_RUNS would end
    at primal residuals of 1.0e-6 to 5.4e-5."""
    from bmadmm import generate_so3

    prob = generate_so3(q, 0.1 if q == 10 else 0.02, seed)
    norm = two_norm_estimate(prob.cost) * (2.0 if mode == "theory" else 1.0)
    return prob, SolverOptions(rho=norm, mu=norm, seed=seed)


BLOCK_RUNS = [
    (q, seed, mode) for q in (10, 50) for seed in range(3) for mode in ("theory", "practice")
]


def spied_solve(prob, options, run=solve):
    """``recorded_solve`` with the early tests spied on: every screened
    state as (st, passed), and every certificate built after a passed
    screen, as (st, certificate)."""
    from types import SimpleNamespace

    screened, tested = [], []
    screen, certificate = solver_module.slack_screen, solver_module.slack_certificate

    def screen_spy(C, sigma, *args):
        passed = screen(C, sigma, *args)
        screened.append((sigma, passed))
        return passed

    def certificate_spy(C, sigma, cost_sigma, *args):
        cert = certificate(C, sigma, cost_sigma, *args)
        tested.append((sigma, cert))
        return cert

    with mock.patch.object(solver_module, "slack_screen", screen_spy), mock.patch.object(
        solver_module, "slack_certificate", certificate_spy
    ):
        result, transitions, products = recorded_solve(prob, options, run)
    k_of = {}  # k of the accepted state that holds each st
    for old, new, _, _ in transitions:
        k_of.setdefault(id(old.sigma_tilde), old.k)
        k_of.setdefault(id(new.sigma_tilde), new.k)
    # an escape leaves behind the rest state it moved from, screened at
    # the escape row's k - 1 but returned by no transition: the screens
    # that no transition explains are those states, in order
    rests = (new.k - 1 for _, new, cells, _ in transitions if cells and cells.get("escaped"))
    for sigma, _ in screened:
        if id(sigma) not in k_of:
            k_of[id(sigma)] = next(rests)
    return SimpleNamespace(
        problem=prob,
        options=options,
        result=result,
        transitions=transitions,
        products=products,
        screened=[(k_of[id(sigma)], passed) for sigma, passed in screened],
        tested=tested,
        tested_k=[k_of[id(sigma)] for sigma, _ in tested],
    )


def schedule(problem, records, slack_tol, floor=math.inf, options=None):
    """The k of every state ``_solve`` tests, replayed from trace rows by
    its one rule: the start, then each row with ||C||_2 primal_res at or
    below 10 slack_tol sqrt(n), primal_res strictly under ``floor`` and k
    at least ``interval`` past the last test.  An escape row is a move
    along a curvature direction and is not tested; the rest state it
    left, which met the residual stop and has no row, is tested at the
    row's k - 1.  On a block problem (d > 1)
    run under ``options``, a row that meets their residual stop is tested
    too where it lies under ``floor``; the merit change of a row is taken
    from the row before it, the last accepted state."""
    norm_two = two_norm_estimate(problem.cost)
    n = problem.manifold.n
    ceiling = 10.0 * slack_tol * math.sqrt(n)
    interval = math.ceil(n**3 / (3 * solver_module.iteration_flops(problem)))
    every = [0]
    last_G = None
    for row in records:
        if row.escaped == 1:
            every.append(row.k - 1)
            last_G = row.lagrangian
            continue
        at_stop = (
            options is not None
            and problem.manifold.d > 1
            and last_G is not None
            and row.primal_res <= options.tol_primal * math.sqrt(n)
            and abs(row.lagrangian - last_G) <= options.tol_obj * (1.0 + abs(row.lagrangian))
        )
        if row.primal_res < floor and (
            at_stop or (row.primal_res * norm_two <= ceiling and row.k >= every[-1] + interval)
        ):
            every.append(row.k)
        last_G = row.lagrangian
    return every


@pytest.fixture(scope="module", params=BLOCK_RUNS, ids=lambda run: "q%d-seed%d-%s" % run)
def block(request):
    """A block ``solve`` through ``spied_solve``."""
    return spied_solve(*block_run(*request.param))


class TestBlockCertifiedStop:
    @pytest.mark.parametrize(
        "C, mu",
        [
            (SparseSymMatrix.identity(9), 0.0),
            (SparseSymMatrix.identity(9), 1.0),
            (SparseSymMatrix.identity(12).scaled(2.0), 0.0),
            (SparseSymMatrix.identity(12).scaled(2.0), 2.0),
            (SparseSymMatrix.identity(402), 1.0),
        ],
        ids=["I9", "I9-mu1", "2I12", "2I12-mu2", "I402-mu1"],
    )
    def test_constant_objective_certifies_at_the_start(self, C, mu):
        # every feasible X has <C, X> = tr C.  From the start, the plain
        # block kernel stalls at primal residuals of 4.1-4.8, and with
        # mu = c the first proximal update point degenerates
        from bmadmm import dual_certificate

        result = solve(ProblemSpec.stiefel(C, 3), SolverOptions(mu=mu, seed=0, max_iter=2000))
        assert result.status is Status.CERTIFIED
        assert result.state.k == 0
        assert result.trace.column("k") == [0]
        assert dual_certificate(C, result.state.sigma_tilde, d=3).proves_optimal()

    def test_certified_stops_are_below_the_residual_floor(self, block):
        result = block.result
        assert result.status is Status.CERTIFIED
        assert result.state.primal_res < solver_module.BLOCK_STOP_PRIMAL
        assert block.tested[-1][0] is result.state.sigma_tilde

    def test_tests_fall_under_the_floor_an_interval_apart(self, block):
        # the start; then each accepted state strictly under the floor and
        # ``interval`` iterations or more past the last test.  Every test
        # is screened first, and only the states that pass the screen
        # reach the eigen-solve
        C = block.problem.cost
        due = schedule(
            block.problem,
            block.result.trace.records,
            CERT_TOL * two_norm_estimate(C),
            solver_module.BLOCK_STOP_PRIMAL,
            block.options,
        )
        assert [k for k, _ in block.screened] == due
        assert block.tested_k == [k for k, passed in block.screened if passed]
        assert len(due) >= 2

    def test_solver_certificate_is_the_dual_certificate(self, block):
        from bmadmm import dual_certificate

        C = block.problem.cost
        state = block.result.state
        # the certificate recomputes C st and lands on the state's y
        np.testing.assert_array_equal(spmm(C, state.sigma_tilde), state.y)
        cert = dual_certificate(C, state.sigma_tilde, d=3)
        assert cert.proves_optimal()
        stop = block.tested[-1][1]
        np.testing.assert_array_equal(cert.lam, stop.lam)
        fields = ("objective", "duality_gap", "slack_min_eig", "skew_norm", "block_count")
        assert [getattr(cert, f) for f in fields] == [getattr(stop, f) for f in fields]

    def test_two_products_per_evaluation(self, block):
        assert block.result.status is Status.CERTIFIED
        assert block.products == 2 * block.result.state.k + 1
        assert block.transitions[-1][1] is block.result.state

    @pytest.mark.parametrize("run", [(10, 0, "theory"), (50, 1, "practice")])
    def test_the_floor_is_strict(self, run):
        # with the floor set to the residual of the certified stop, that
        # state is not tested and the run certifies elsewhere
        prob, options = block_run(*run)
        first = solve(prob, options)
        assert first.status is Status.CERTIFIED
        with mock.patch.object(solver_module, "BLOCK_STOP_PRIMAL", first.state.primal_res):
            again = solve(prob, options)
        assert again.status is Status.CERTIFIED
        assert again.state.k != first.state.k
        assert again.state.primal_res < first.state.primal_res

    def test_the_residual_stop_is_tested(self):
        # this run meets the residual stop under the floor fewer than
        # ``interval`` iterations after its last test, and that state
        # proves itself optimal
        prob, options = block_run(50, 2, "theory")
        residual = solver_module._solve(prob, options)
        run = spied_solve(prob, options)
        assert residual.status is Status.CONVERGED
        assert run.result.status is Status.CERTIFIED
        assert run.result.state.k == residual.state.k
        assert run.tested_k[-1] == residual.state.k


def point_state(z, rho=2.0):
    """The fields of a state that the Anderson memory reads, at z = (s, y)
    with s and y one row each of half z's length."""
    from types import SimpleNamespace

    z = np.array(z, dtype=float)
    half = z.size // 2
    return SimpleNamespace(
        mu=0.0,
        rho=rho,
        sigma=z[:half].reshape(1, half),
        sigma_tilde=None,
        y=z[half:].reshape(1, half),
    )


class TestAndersonMemory:
    @pytest.mark.parametrize(
        "depth", [2, solver_module.AA_MEMORY, solver_module.AA_BLOCK_MEMORY]
    )
    def test_affine_map_reaches_its_fixed_point(self, depth):
        # with as many stored differences as dimensions, type-II Anderson
        # acceleration of an affine map lands on its fixed point after
        # depth + 1 updates.  z has an even length; at odd depths its last
        # coordinate is fixed at 0, so the map moves depth coordinates
        rng = np.random.default_rng(depth)
        size = depth + depth % 2
        A = np.zeros((size, size))
        A[:depth, :depth] = rng.standard_normal((depth, depth))
        A *= 0.9 / np.linalg.norm(A, 2)
        b = np.zeros(size)
        b[:depth] = rng.standard_normal(depth)
        fixed = np.linalg.solve(np.eye(size) - A, b)
        z = np.zeros(size)
        memory = solver_module._Anderson(point_state(z), depth)
        for updates in range(depth + 1):
            memory.update(z, point_state(A @ z + b))
            z = memory.extrapolate()
            assert (z is None) == (updates == 0)
            z = memory.point().copy() if z is None else z.copy()
        np.testing.assert_allclose(z, fixed, rtol=1e-12)

    @pytest.mark.parametrize(
        "d, depth",
        [(1, solver_module.AA_MEMORY), (3, solver_module.AA_BLOCK_MEMORY)],
    )
    def test_solve_takes_its_depth_from_the_block_size(self, d, depth):
        prob, options = theory_run(d)
        options.max_iter = 5
        with mock.patch.object(
            solver_module, "_Anderson", wraps=solver_module._Anderson
        ) as built:
            solve(prob, options)
        assert [call.args[1:] for call in built.call_args_list] == [(depth,)]

    def test_singular_gram_clears_the_memory(self):
        # a constant shift has the same residual everywhere: every stored
        # difference of residuals is zero
        z = np.array([1.0, 2.0])
        memory = solver_module._Anderson(point_state(z), solver_module.AA_MEMORY)
        for _ in range(3):
            g = z + np.array([0.5, -0.25])
            memory.update(z, point_state(g))
            z = g
        assert memory.count == 2
        assert memory.extrapolate() is None
        assert memory.count == 0
        np.testing.assert_array_equal(memory.point(), z)
