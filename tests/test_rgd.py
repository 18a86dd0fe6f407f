import math
from functools import partial
from unittest import mock

import numpy as np
import pytest

import bmadmm.rgd as rgd_module
import bmadmm.solver as solver_module
from bmadmm import (
    DegenerateProjection,
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
from bmadmm import native
from bmadmm.certify import CERT_TOL


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
        # the start is optimal, and its slack test proves it
        assert result.status is Status.CERTIFIED
        assert result.state.k == 0
        np.testing.assert_array_equal(result.state.sigma_tilde, sigma)
        assert result.trace.column("k") == [0]

    def test_zero_cost_fixed(self):
        spec = ManifoldSpec.sphere(4, 3)
        sigma = random_point(spec, 0)
        result = rgd_solve(ProblemSpec(SparseSymMatrix.zeros(4), spec), RgdOptions(), sigma0=sigma)
        assert result.status is Status.CERTIFIED
        assert result.state.k == 0
        np.testing.assert_array_equal(result.state.sigma_tilde, sigma)

    def test_descent_on_edge_instance(self):
        prob = ProblemSpec(edge_cost(), ManifoldSpec.sphere(2, 2))
        sigma = np.eye(2)
        result = rgd_solve(prob, RgdOptions(max_iter=800), sigma0=sigma)
        # the fixed step 1 / ||C||_2 only approaches -2 sublinearly on this
        # symmetric two-row instance; the Barzilai-Borwein steps reach the
        # optimum in five, where the slack test proves it
        assert result.status is Status.CERTIFIED
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
        assert result.status is Status.CERTIFIED
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
    def test_matches_repeated_steps_with_one_product_per_trial(self, d, kernel_path):
        if d == 1:
            prob = ProblemSpec.sphere(random_cost(18, 7), r=6)
        else:
            prob = generate_so3(6, 0.5, seed=2)
        options = RgdOptions(seed=1, max_iter=40)
        with mock.patch.object(rgd_module, "spmm", wraps=spmm) as products, mock.patch.object(
            rgd_module, "_trial", wraps=rgd_module._trial
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
        # the SDP optimum of this cost has rank 3, so no factor of rank 2
        # is optimal and the slack test cannot end the run: its converged
        # factor has slack eigenvalue -0.023
        prob = ProblemSpec.sphere(random_cost(14, 7), r=2)
        result, calls = traced_trials(prob, RgdOptions(seed=1, grad_tol=1e-8))
        assert result.status is Status.CONVERGED
        step0 = 1.0 / two_norm_estimate(prob.cost)
        # the fifth move has <dx, dg> < 0: its successor tries 1 / ||C||_2,
        # between Barzilai-Borwein steps
        assert curvature_pair(calls, 5)[1] < 0.0
        assert calls[5][2] == step0
        assert all(calls[k][2] != step0 for k in (1, 2, 3, 4, 6))
        slack = dual_certificate(prob.cost, result.state.sigma_tilde).slack_min_eig
        assert slack == pytest.approx(-0.023, abs=1e-3)

    def test_rows_hold_the_gradient_norm_of_their_iterate(self):
        # rank 2, below the rank 3 of this cost's SDP optimum: the slack
        # test cannot end the run, whose last factor has slack eigenvalue
        # -0.58
        prob = ProblemSpec.sphere(random_cost(12, 0), r=2)
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
        slack = dual_certificate(prob.cost, sigma).slack_min_eig
        assert slack == pytest.approx(-0.58, abs=1e-2)

    def test_tests_the_slack_by_the_schedule_of_solve(self):
        # max-cut at rank 2, where no factor is optimal, so that every
        # screen fails: the start is tested, then states an interval
        # apart once the gradient norm is at or below 10 CERT_TOL ||C||_2
        # sqrt(n), and the residual stop, whatever its distance to the
        # last test.  ``_solve`` tests by the same helper and rule
        from test_solver import g1_density_graph

        prob = ProblemSpec.sphere(maxcut_cost(g1_density_graph(60, 0)), r=2)
        options = RgdOptions(seed=0, grad_tol=1e-10)
        screened, states = [], {}
        screen, build = solver_module.slack_screen, rgd_module.manifold_state

        def screen_spy(C, sigma, *args):
            screened.append((id(sigma), screen(C, sigma, *args)))
            return screened[-1][1]

        def state_spy(*args, **fields):
            state = build(*args, **fields)
            states[id(state.sigma_tilde)] = state  # kept alive, so ids stay unique
            return state

        with mock.patch.object(solver_module, "slack_screen", screen_spy), mock.patch.object(
            rgd_module, "manifold_state", state_spy
        ):
            result = rgd_solve(prob, options)
        assert result.status is Status.CONVERGED
        assert not any(passed for _, passed in screened)
        tested = [states[key].k for key, _ in screened]
        n = prob.manifold.n
        norm_two = two_norm_estimate(prob.cost)
        ceiling = 10.0 * CERT_TOL * norm_two * math.sqrt(n)
        interval = math.ceil(n**3 / (3 * solver_module.iteration_flops(prob)))
        tol = options.grad_tol * (1.0 + norm_two)
        due = [0]
        for row in result.trace.records:
            if row.primal_res <= tol or (
                row.primal_res <= ceiling and row.k >= due[-1] + interval
            ):
                due.append(row.k)
        assert tested == due
        gaps = [k - before for before, k in zip(tested, tested[1:-1])]
        assert len(gaps) >= 2 and min(gaps[1:]) >= interval and interval in gaps
        assert tested[-1] == result.state.k and tested[-1] - tested[-2] < interval

    def test_a_search_goes_on_while_the_required_value_moves(self):
        # a zero direction keeps every trial point at sigma, but the
        # required decrease shrinks with t: the search goes on until that
        # decrease rounds away too, where the unchanged candidate passes
        prob = ProblemSpec.sphere(random_cost(6, 0), r=2)
        sigma = random_point(prob.manifold, 0)
        candidate = rgd_module.project(prob.manifold, sigma)
        value = float(np.vdot(spmm(prob.cost, candidate), candidate))
        accepted = rgd_module._line_search(
            prob.cost, prob.manifold, sigma, value, np.zeros_like(sigma), 1e-8, 1.0
        )
        assert accepted is not None
        np.testing.assert_array_equal(accepted[0], candidate)

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

    @pytest.mark.usefixtures("kernel_path")
    def test_stalls_at_the_rounding_floor(self):
        # a gradient tolerance below what rounding lets the line search
        # reach, at rank 2, below the rank 4 of this cost's SDP optimum, so
        # that the slack test cannot end the run (its last factor has
        # slack eigenvalue -0.86): without the floor stop every step from
        # k = 121 on leaves the objective unchanged, up to max_iter
        prob = ProblemSpec.sphere(sparse_gauss(40, 1), r=2)
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-15, max_iter=5000))
        assert result.status is Status.STALLED
        assert result.state.k == 320
        slack = dual_certificate(prob.cost, result.state.sigma_tilde).slack_min_eig
        assert slack == pytest.approx(-0.86, abs=1e-2)
        values = result.trace.column("objective")
        flat = [b == a for a, b in zip(values, values[1:])]
        # the run ends on the FLOOR_STEPS-th unchanged step in a row
        assert flat[-rgd_module.FLOOR_STEPS :] == [True] * rgd_module.FLOOR_STEPS
        assert not flat[-rgd_module.FLOOR_STEPS - 1]

    def test_stalls_in_the_line_search_below_the_rounding_floor(self):
        # a gradient tolerance that rounding does not let the run reach,
        # and no trial of the last line search passes the Armijo test.
        # Rank 3 lies below the rank 4 of this cost's SDP optimum: the
        # slack test cannot end the run, whose last factor has slack
        # eigenvalue -0.11
        prob = ProblemSpec.sphere(sparse_gauss(40, 1), r=3)
        tol = 1e-13 * (1.0 + two_norm_estimate(prob.cost))
        result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-13, max_iter=5000))
        assert result.status is Status.STALLED
        assert result.state.k == result.trace[-1].k == 123
        assert result.state.primal_res > tol
        values = result.trace.column("objective")
        flat = [b == a for a, b in zip(values, values[1:])]
        # the floor stop did not end it
        assert not all(flat[-rgd_module.FLOOR_STEPS :])
        slack = dual_certificate(prob.cost, result.state.sigma_tilde).slack_min_eig
        assert slack == pytest.approx(-0.11, abs=1e-2)

    @pytest.mark.usefixtures("kernel_path")
    def test_a_failed_search_ends_where_its_trials_repeat(self):
        # the run above: its last line search halves the step until the
        # trial point rounds back to the iterate and the required value to
        # the iterate's value; every smaller step would repeat that failed
        # trial bit for bit, so the search ends there, short of MAX_TRIALS
        prob = ProblemSpec.sphere(sparse_gauss(40, 1), r=3)
        unmoved, starts = [], []
        trial, line_search = rgd_module._trial, rgd_module._line_search

        def trial_spy(spec, sigma, grad, t):
            candidate, same = trial(spec, sigma, grad, t)
            unmoved.append(same)
            return candidate, same

        def search_spy(*args):
            starts.append(len(unmoved))
            return line_search(*args)

        with mock.patch.object(rgd_module, "_trial", trial_spy), mock.patch.object(
            rgd_module, "_line_search", search_spy
        ):
            result = rgd_solve(prob, RgdOptions(seed=0, grad_tol=1e-13, max_iter=5000))
        assert result.status is Status.STALLED
        last = unmoved[starts[-1] :]
        assert 2 <= len(last) < rgd_module.MAX_TRIALS
        # the last trial point rounded to the iterate, the one before not
        assert last[-1] is True
        assert last[-2] is False


def numpy_route(function, *args):
    """``function`` of rgd with the step library unloaded: the numpy form
    of its row work."""
    with mock.patch.object(native, "kernel", lambda name: None):
        return function(*args)


def trace_text(result):
    """The CSV text of a run's trace without its ``seconds`` column."""
    rows = [line.split(",") for line in result.trace.to_csv().splitlines()]
    drop = rows[0].index("seconds")
    return "\n".join(",".join(row[:drop] + row[drop + 1 :]) for row in rows)


def row_work_inputs(n=30, r=5, seed=0):
    """An iterate on the sphere product, its product with a sparse
    Gaussian cost, the tangent gradient there and a point accepted from
    it: the arrays that ``_trial`` and ``_tangent_step`` take."""
    prob = ProblemSpec.sphere(sparse_gauss(n, seed), r=r)
    spec = prob.manifold
    sigma = random_point(spec, seed)
    grad = tangent_project(spec, sigma, 2.0 * spmm(prob.cost, sigma))
    accepted = rgd_module.project(spec, sigma - 0.01 * grad)
    return spec, sigma, grad, accepted, spmm(prob.cost, accepted)


class RefusingRowWork:
    """The step library with rgd's two functions refused: a test fails
    where either is called."""

    def __init__(self, library):
        self.library = library

    def __getattr__(self, name):
        assert name not in ("trial_point", "tangent_step"), f"{name} was called"
        return getattr(self.library, name)


class TestCompiledRowWork:
    """The compiled row work of ``rgd_solve`` (step.c's ``trial_point`` and
    ``tangent_step``) against its numpy form."""

    @pytest.mark.parametrize("r", [1, 5, 8, 20, 130])
    def test_matches_the_numpy_form(self, r, loaded):
        loaded("step")
        spec, sigma, grad, accepted, cost_accepted = row_work_inputs(r=r)
        inputs = [a.copy() for a in (sigma, grad, accepted, cost_accepted)]
        for t in (1e-2, 1.0, 1e-30, 0.0):
            compiled = rgd_module._trial(spec, sigma, grad, t)
            reference = numpy_route(rgd_module._trial, spec, sigma, grad, t)
            np.testing.assert_array_equal(compiled[0], reference[0])
            assert compiled[1] is reference[1]
        # a step that rounds away leaves the point at sigma; at r = 1 the
        # tangent gradient is zero, so every step does
        assert rgd_module._trial(spec, sigma, grad, 1e-30)[1]
        assert rgd_module._trial(spec, sigma, grad, 1e-2)[1] is (r == 1)
        args = (spec, accepted, cost_accepted, sigma, grad)
        compiled = rgd_module._tangent_step(*args)
        reference = numpy_route(rgd_module._tangent_step, *args)
        for mine, theirs in zip(compiled, reference, strict=True):
            np.testing.assert_array_equal(mine, theirs)
        # the inputs are left as they were
        for before, after in zip(inputs, (sigma, grad, accepted, cost_accepted)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("r", [3, 10])
    def test_signed_zeros_match(self, r, loaded):
        # numpy's row sum starts from 0.0, so a row of -0.0 products sums
        # to 0.0, and the gradient's zero entries keep numpy's signs
        loaded("step")
        spec = ManifoldSpec.sphere(3, r=r)
        sigma = np.zeros((3, r))
        sigma[0, 0], sigma[1, 1], sigma[2, :2] = 1.0, -1.0, (0.6, 0.8)
        cost_sigma = np.full((3, r), -0.0)
        cost_sigma[1] = 0.0
        cost_sigma[2, -1] = 1.0
        args = (spec, sigma, cost_sigma, sigma, np.zeros_like(sigma))
        compiled = rgd_module._tangent_step(*args)
        reference = numpy_route(rgd_module._tangent_step, *args)
        for mine, theirs in zip(compiled, reference, strict=True):
            np.testing.assert_array_equal(mine, theirs)
            np.testing.assert_array_equal(np.signbit(mine), np.signbit(theirs))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_rows_take_the_numpy_route(self, scale, loaded):
        # row norms outside NORM_RANGE: project rescales the unnormalized
        # trial point, with its result
        loaded("step")
        spec, sigma, grad, _, _ = row_work_inputs()
        sigma, grad = scale * sigma, scale * grad
        with mock.patch.object(rgd_module, "project", wraps=rgd_module.project) as projected:
            compiled = rgd_module._trial(spec, sigma, grad, 1e-2)
        assert projected.call_count == 1
        reference = numpy_route(rgd_module._trial, spec, sigma, grad, 1e-2)
        np.testing.assert_array_equal(compiled[0], reference[0])
        assert compiled[1] is reference[1] is False
        assert manifold_violation(spec, compiled[0]) < 1e-14

    def test_a_nan_row_raises_as_the_numpy_form_does(self, loaded):
        loaded("step")
        spec, sigma, grad, _, _ = row_work_inputs()
        grad = grad.copy()
        grad[7, 2] = np.nan
        raised = []
        for run in (rgd_module._trial, partial(numpy_route, rgd_module._trial)):
            with pytest.raises(DegenerateProjection) as info:
                run(spec, sigma, grad, 1e-2)
            raised.append((info.value.block, str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == 7

    @pytest.mark.parametrize("make", ["fortran", "read-only", "float32"])
    def test_arrays_the_kernel_cannot_take_give_the_numpy_bits(self, make, loaded):
        library = loaded("step")
        spec, sigma, grad, accepted, cost_accepted = row_work_inputs()
        if make == "fortran":
            sigma = np.asfortranarray(sigma)
        elif make == "read-only":
            sigma = sigma.copy()
            sigma.setflags(write=False)
        else:
            sigma = sigma.astype(np.float32)
        with mock.patch.object(native, "kernel", lambda name: RefusingRowWork(library)):
            compiled = rgd_module._trial(spec, sigma, grad, 1e-2)
            moved = rgd_module._tangent_step(spec, accepted, cost_accepted, sigma, grad)
        reference = numpy_route(rgd_module._trial, spec, sigma, grad, 1e-2)
        np.testing.assert_array_equal(compiled[0], reference[0])
        assert compiled[1] is reference[1]
        reference = numpy_route(
            rgd_module._tangent_step, spec, accepted, cost_accepted, sigma, grad
        )
        for mine, theirs in zip(moved, reference, strict=True):
            np.testing.assert_array_equal(mine, theirs)

    def test_blocks_never_call_the_kernel(self, loaded):
        # at d = 3 the tangent gradient and the polar projection run as
        # numpy and the d = 3 kernel compute them
        library = loaded("step")
        prob = generate_so3(6, 0.5, seed=2)
        real = native.kernel
        options = RgdOptions(seed=1, max_iter=40)

        def refusing(name):
            return RefusingRowWork(library) if name == "step" else real(name)

        with mock.patch.object(native, "kernel", refusing):
            result = rgd_solve(prob, options)
        assert result.state.k == 40
        assert rgd_module.rgd_step_kernel(prob.manifold) == "numpy"

    @pytest.mark.parametrize("cost", ["gaussian", "maxcut", "floor"])
    def test_whole_runs_repeat_the_numpy_traces(self, cost, loaded):
        loaded("step")
        from test_solver import g1_density_graph

        if cost == "gaussian":
            prob = ProblemSpec.sphere(sparse_gauss(60, 3))
            options = RgdOptions(seed=2, grad_tol=1e-9)
        elif cost == "maxcut":
            prob = ProblemSpec.sphere(maxcut_cost(g1_density_graph(60, 0)))
            options = RgdOptions(seed=0, grad_tol=1e-9)
        else:  # test_stalls_at_the_rounding_floor's run
            prob = ProblemSpec.sphere(sparse_gauss(40, 1), r=2)
            options = RgdOptions(seed=0, grad_tol=1e-15, max_iter=5000)
        assert rgd_module.rgd_step_kernel(prob.manifold) == "c"
        compiled = rgd_solve(prob, options)
        reference = numpy_route(rgd_solve, prob, options)
        assert compiled.status is reference.status
        assert trace_text(compiled) == trace_text(reference)
        assert len(compiled.trace) == compiled.state.k > 10
        np.testing.assert_array_equal(compiled.state.sigma_tilde, reference.state.sigma_tilde)
        np.testing.assert_array_equal(compiled.state.y, reference.state.y)
