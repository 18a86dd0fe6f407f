"""The smallest valid inputs of each compiled kernel: n = 1, r = 1, an
empty CSR row, a single d = 3 block (q = 1) and an Anderson memory with
one difference, stored by the fused step as ``solve`` stores it.  Each
loop of the kernels runs at its edge here, so these are the cases that a
sanitized build (``--sanitize``) checks first."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import bmadmm.rgd as rgd_module
import bmadmm.solver as solver_module
from bmadmm import (
    ManifoldSpec, ProblemSpec, SolverOptions, SparseSymMatrix, init_state, native, step,
)
from bmadmm.manifold import project
from bmadmm.sparse import spmm


def numpy_route(function, *args):
    """``function`` with every compiled library unloaded."""
    with mock.patch.object(native, "kernel", lambda name: None):
        return function(*args)


def scan(library, C, V):
    """C @ V by the CSR scan of spmm.c, whatever route ``spmm`` takes."""
    out = np.empty_like(V)
    library.spmm(*C._addresses, *native.views(V.shape, V, out), *V.shape)
    return out


class TestSpmm:
    @pytest.mark.parametrize("r", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "C",
        [
            SparseSymMatrix.from_dense(np.array([[-2.5]])),
            SparseSymMatrix.zeros(1),
            # vertex 3 has no edge: row 3 is empty
            SparseSymMatrix.from_coo(
                4, [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0], [1.5, 1.5, -0.5, -0.5, 2.0, 2.0]
            ),
        ],
        ids=["n1", "n1-empty", "empty-row"],
    )
    def test_repeats_the_scipy_bits(self, C, r, loaded):
        library = loaded("spmm")
        V = np.random.default_rng(r).standard_normal((C.n, r))
        expected = C._csr @ V
        out = scan(library, C, V)
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(spmm(C, V), expected)


class TestStep:
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_n1_r1_repeats_the_numpy_step(self, mu, loaded):
        loaded("step")
        problem = ProblemSpec.stiefel(SparseSymMatrix.from_dense(np.array([[3.0]])), 1, r=1)
        options = SolverOptions(seed=1, mu=mu)
        state = init_state(problem, options)
        state = replace(state, sigma=np.array([[0.25]]))  # st != s
        compiled, reference = step(state, options), numpy_route(step, state, options)
        for name in ("sigma_tilde", "sigma", "y"):
            assert getattr(compiled, name).tobytes() == getattr(reference, name).tobytes()
        assert compiled.last_min_gamma == reference.last_min_gamma

    def test_n1_r1_rgd_row_work(self, loaded):
        loaded("step")
        spec = ManifoldSpec(1, 1, 1)
        sigma, grad = np.array([[1.0]]), np.array([[0.5]])
        trial = rgd_module._trial(spec, sigma, grad, 0.25)
        assert repr(trial) == repr(numpy_route(rgd_module._trial, spec, sigma, grad, 0.25))
        args = spec, np.array([[-1.0]]), np.array([[2.0]]), sigma, grad
        moved = rgd_module._tangent_step(*args)
        reference = numpy_route(rgd_module._tangent_step, *args)
        for got, want in zip(moved, reference):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestPolar3:
    @pytest.mark.parametrize("r", [3, 4])
    def test_one_block(self, r, loaded):
        loaded("polar3")
        spec = ManifoldSpec(1, 3, r)
        G = np.random.default_rng(r).standard_normal((3, r))
        expected = numpy_route(project, spec, G)
        np.testing.assert_allclose(project(spec, G), expected, rtol=0, atol=1e-13)


def fused_memory_run(problem, options, memory_step):
    """Three evaluations of ``solve``'s loop through the Anderson memory
    that ``memory_step`` (``native.blas_step``, or a stand-in for a
    refused binding) gives: two plain ones, from the current G row, which
    store one difference and a 1 x 1 Gram matrix, then one at the
    extrapolated F row.  Returns the memory and the bits of the point of
    each evaluation, None for a plain one."""
    with mock.patch.object(native, "blas_step", memory_step):
        state = init_state(problem, options)
        memory = solver_module._Anderson(state, 5)
    points = []
    for _ in range(3):
        z = memory.extrapolate()
        points.append(None if z is None else z.tobytes())
        new = memory.evaluate(z, state, options)
        if isinstance(memory, solver_module._CompiledAnderson):
            assert memory.evaluated is new  # finish_update stored it
        memory.update(z, new)
        state = new
    return memory, points


class TestAndersonMemory:
    @pytest.mark.parametrize(
        "cost, d, mu",
        [
            (np.array([[3.0]]), 1, 0.0),
            (np.array([[3.0]]), 1, 0.5),
            (np.diag([2.0, -1.0, 0.5]), 3, 1.0),
        ],
        ids=["n1r1-2blocks", "n1r1-3blocks", "q1d3r3-3blocks"],
    )
    def test_one_difference_at_n1_r1(self, cost, d, mu, loaded):
        # finish_update stores from the current G row and from the
        # extrapolated F row: points of 2 and 3 blocks at n = 1, r = 1,
        # and of 3 blocks at one d = 3 block (q = 1, r = 3)
        loaded("step")
        if native.blas_step() is None:
            pytest.skip("the compiled Anderson memory is unavailable")
        problem = ProblemSpec.stiefel(SparseSymMatrix.from_dense(cost), d, r=d)
        options = SolverOptions(seed=1, mu=mu)
        compiled, points = fused_memory_run(problem, options, native.blas_step)
        reference, expected = fused_memory_run(problem, options, lambda: None)
        assert type(compiled) is solver_module._CompiledAnderson
        assert type(reference) is solver_module._Anderson
        assert compiled.blocks == reference.blocks == (3 if mu else 2)
        assert points[:2] == [None, None] and points[2] is not None
        assert points == expected
        m = reference.count
        assert compiled.count == m == 2
        for got, want in (
            (compiled.G, reference.G), (compiled.F[:m], reference.F[:m]),
            (compiled.F[5:], reference.F[5:]), (compiled.gram[:m, :m], reference.gram[:m, :m]),
            (compiled.rhs[:m], reference.rhs[:m]),
        ):
            assert got.tobytes() == want.tobytes()
