"""The smallest valid inputs of each compiled kernel: n = 1, r = 1, an
empty CSR row, a single d = 3 block (q = 1) and an Anderson memory with
one difference.  Each loop of the kernels runs at its edge here, so these
are the cases that a sanitized build (``--sanitize``) checks first."""

from dataclasses import replace
from types import SimpleNamespace
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


class TestAndersonMemory:
    @pytest.mark.parametrize("blocks", [2, 3])
    def test_one_difference_at_n1_r1(self, blocks, loaded):
        # a point of blocks doubles: one difference, a 1 x 1 Gram matrix
        loaded("step")
        if native.blas_step() is None:
            pytest.skip("the compiled Anderson memory is unavailable")

        def state_at(z):
            parts = np.array(z, dtype=float).reshape(blocks, 1, 1)
            return SimpleNamespace(
                mu=0.0 if blocks == 2 else 1.0, rho=2.0, sigma_tilde=parts[0], sigma=parts[-2],
                y=parts[-1],
            )

        points = [np.arange(1.0, blocks + 1), np.full(blocks, 0.5), np.linspace(-1, 1, blocks)]
        formed = []
        for bound in (native.blas_step, lambda: None):
            with mock.patch.object(native, "blas_step", bound):
                memory = solver_module._Anderson(state_at(points[0]), 5)
            for z, g in zip(points, points[1:]):
                memory.update(z, state_at(g))
            assert memory.count == 1
            formed.append(memory.extrapolate())
        assert formed[0] is not None
        assert formed[0].tobytes() == formed[1].tobytes()
