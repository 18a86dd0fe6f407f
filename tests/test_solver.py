from unittest import mock

import numpy as np
import pytest

import bmadmm.solver as solver_module
import bmadmm.sparse as sparse_module
from bmadmm import (
    AssumptionViolated,
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

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            default_rho(SparseSymMatrix.zeros(3), "practice")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            default_rho(edge_cost(), "bogus")


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
        state.sigma_tilde = 2.0 * state.sigma_tilde
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
        assert result.status is Status.CONVERGED
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
        assert result.status is Status.CONVERGED
        assert result.state.k <= 2

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
        with pytest.raises(OffManifold):
            init_state(prob, SolverOptions(rho=4.0), sigma0=2 * np.eye(2))

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

    def test_kappa_constant_at_defaults(self):
        assert kappa_constant(10.0, 2.0) == pytest.approx(0.08)

    def test_stationarity_at_convergence(self):
        from bmadmm import riemannian_grad

        prob = ProblemSpec.sphere(random_cost(24, 9), r=7)
        options = SolverOptions(seed=3)
        result = solve(prob, options)
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
    y_new = y + rho * (st_new - s_new)
    norms = (
        float(np.linalg.norm(st_new - s_new)),
        float(np.linalg.norm(st_new - st)),
        float(np.linalg.norm(s_new - s)),
    )
    return st_new, s_new, y_new, norms, min_gamma


class TestFusedNorms:
    @pytest.mark.parametrize("d", [1, 3])
    def test_step_matches_reference_bit_for_bit(self, d):
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
            assert residuals(state) == norms
            assert state.last_min_gamma == min_gamma

    def test_escape_state_norms(self):
        import bmadmm.curvature as curvature_module
        from bmadmm import maxcut_cost, parse_gset

        stepped = {}  # every state step was called on, by k
        escapes = []  # (state escaped from, state moved to)
        manifold_state = curvature_module.manifold_state

        def recording_step(state, options):
            stepped[state.k] = state
            return step(state, options)

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


def recorded_solve(problem, options):
    """``solve`` with every transition of its driver loop recorded as
    (state before, state after, trace cells, status), and ``spmm`` counted."""
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
        result = solve(problem, options)
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
        assert result.status is Status.CONVERGED
        rejected = [t for t in transitions if t[2] is None and t[3] is None]
        assert rejected
        # one product for the initial multiplier, two per step evaluation
        assert products == 2 * result.state.k + 1
        assert len(transitions) == result.state.k

    @pytest.mark.parametrize("d", [1, 3])
    def test_rejected_evaluation_keeps_the_state(self, d):
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
                assert residuals(new)[1:] == (
                    float(np.linalg.norm(new.sigma_tilde - old.sigma_tilde)),
                    float(np.linalg.norm(new.sigma - old.sigma)),
                )
                assert new.k in ks
        assert rejected >= 1

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
        assert result.status is Status.CONVERGED
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
        assert result.status is Status.CONVERGED
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


def point_state(z, rho=2.0):
    """The fields of a state that the Anderson memory reads, at z = (s, y)
    with one scalar block each."""
    from types import SimpleNamespace

    z = np.array(z, dtype=float)
    return SimpleNamespace(
        mu=0.0, rho=rho, sigma=z[:1].reshape(1, 1), sigma_tilde=None, y=z[1:].reshape(1, 1)
    )


class TestAndersonMemory:
    def test_affine_map_reaches_its_fixed_point(self):
        # with as many stored differences as dimensions, type-II Anderson
        # acceleration of an affine map lands on its fixed point
        A = np.array([[0.9, 0.2], [-0.1, 0.7]])
        b = np.array([1.0, -2.0])
        fixed = np.linalg.solve(np.eye(2) - A, b)
        z = np.array([0.0, 0.0])
        memory = solver_module._Anderson(point_state(z))
        for updates in range(3):
            memory.update(z, point_state(A @ z + b))
            z = memory.extrapolate()
            assert (z is None) == (updates == 0)
            z = memory.point().copy() if z is None else z.copy()
        np.testing.assert_allclose(z, fixed, rtol=1e-12)

    def test_singular_gram_clears_the_memory(self):
        # a constant shift has the same residual everywhere: every stored
        # difference of residuals is zero
        z = np.array([1.0, 2.0])
        memory = solver_module._Anderson(point_state(z))
        for _ in range(3):
            g = z + np.array([0.5, -0.25])
            memory.update(z, point_state(g))
            z = g
        assert memory.count == 2
        assert memory.extrapolate() is None
        assert memory.count == 0
        np.testing.assert_array_equal(memory.point(), z)
