import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bmadmm.manifold as manifold_module
from bmadmm import native
from bmadmm import (
    CurvatureReport,
    DegenerateProjection,
    DimensionMismatch,
    ManifoldSpec,
    OffManifold,
    ProblemSpec,
    RgdOptions,
    SolverOptions,
    SparseSymMatrix,
    UnsupportedManifold,
    dual_certificate,
    escape_step,
    geodesic_step,
    hess_quadform,
    init_state,
    manifold_violation,
    merit_value,
    negative_curvature_direction,
    normalize_rows,
    project,
    project_block,
    random_point,
    rgd_solve,
    riemannian_grad,
    solve,
    solve_with_curvature,
    tangent_project,
)
from bmadmm.manifold import ON_MANIFOLD_TOL, require_on_manifold


class TestManifoldSpec:
    @pytest.mark.parametrize("q, d, r", [(0, 1, 3), (2, 0, 3), (2, 3, 2)])
    def test_validation(self, q, d, r):
        """q < 1, d < 1 and r < d raise the package's DimensionMismatch,
        which is still a ValueError."""
        with pytest.raises(DimensionMismatch):
            ManifoldSpec(q=q, d=d, r=r)
        assert issubclass(DimensionMismatch, ValueError)

    @pytest.mark.parametrize("d", [0, -3, 5])
    def test_problem_block_size_must_divide_n(self, d):
        message = f"n=12 must be a multiple of a block size d={d} >= 1"
        with pytest.raises(DimensionMismatch, match=message):
            ProblemSpec.stiefel(SparseSymMatrix.identity(12), d)

    def test_default_rank(self):
        assert ManifoldSpec.default_rank(2) == 2
        assert ManifoldSpec.default_rank(200) == 20
        assert ManifoldSpec.default_rank(800) == 40
        assert ManifoldSpec.default_rank(3, d=3) == 4  # floored at d + 1

    def test_dims(self):
        spec = ManifoldSpec.stiefel(5, 3)
        assert spec.n == 15 and spec.d == 3


class TestProjectBlock:
    def test_already_orthonormal(self):
        G = np.hstack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(project_block(G), G, atol=1e-14)

    def test_positive_scaling(self):
        G = 2.0 * np.hstack([np.eye(2), np.zeros((2, 1))])
        np.testing.assert_allclose(project_block(G), G / 2.0, atol=1e-14)

    def test_diagonal_polar_factor_vs_brute_force(self):
        # oracle: sample the 2x2 orthogonal group (rotations and
        # reflections) densely and take the closest point to G
        G = np.diag([3.0, -2.0])
        thetas = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
        c, s = np.cos(thetas), np.sin(thetas)
        rotations = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
        reflections = np.stack([c, s, s, -c], axis=1).reshape(-1, 2, 2)
        candidates = np.concatenate([rotations, reflections])
        dists = np.linalg.norm(candidates - G, axis=(1, 2))
        best = candidates[np.argmin(dists)]
        np.testing.assert_allclose(best, np.diag([1.0, -1.0]), atol=1e-4)

        B = project_block(G)
        np.testing.assert_allclose(B, np.diag([1.0, -1.0]), atol=1e-12)
        assert np.linalg.norm(B - G) <= dists.min() + 1e-8

    def test_nearest_among_samples(self):
        rng = np.random.default_rng(0)
        for d, r in ((2, 4), (3, 5)):
            G = rng.standard_normal((d, r))
            B = project_block(G)
            np.testing.assert_allclose(B @ B.T, np.eye(d), atol=1e-12)
            # random orthonormal-row samples never beat the projection
            dist = np.linalg.norm(B - G)
            for _ in range(2000):
                Q = np.linalg.qr(rng.standard_normal((r, d)))[0][:, :d].T
                assert np.linalg.norm(Q - G) >= dist - 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((3, 6))
        B = project_block(G)
        np.testing.assert_allclose(project_block(B), B, atol=1e-12)

    def test_rank_deficient_rejected(self):
        G = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateProjection, match="degenerate"):
            project_block(G)


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[0.0, 3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.6, 0.8]])

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0]])
        np.testing.assert_array_equal(normalize_rows(row), row)

    def test_scaling(self):
        np.testing.assert_allclose(normalize_rows(np.array([[2.0, 0.0]])), [[1.0, 0.0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            normalize_rows(2.5 * G), normalize_rows(G), atol=1e-15
        )

    def test_zero_row_names_index(self):
        G = np.ones((3, 2))
        G[1] = 0.0
        with pytest.raises(DegenerateProjection, match="row 1"):
            normalize_rows(G)

    def test_in_place_matches_a_fresh_result(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((6, 3))
        expected = normalize_rows(G)
        out = normalize_rows(G, out=G)
        assert out is G
        np.testing.assert_array_equal(G, expected)

    def test_zero_row_leaves_out_unwritten(self):
        G = np.ones((3, 2))
        G[1] = 0.0
        before = G.copy()
        with pytest.raises(DegenerateProjection, match="row 1"):
            normalize_rows(G, out=G)
        np.testing.assert_array_equal(G, before)

    def test_unit_norm_precision(self):
        rng = np.random.default_rng(2)
        out = normalize_rows(rng.standard_normal((50, 7)))
        assert np.abs(np.linalg.norm(out, axis=1) - 1).max() < 1e-15


class TestTangentProject:
    def spec(self, n=4, r=3):
        return ManifoldSpec.sphere(n, r)

    def test_base_point_maps_to_zero(self):
        spec = self.spec()
        sigma = random_point(spec, 0)
        u = tangent_project(spec, sigma, sigma)
        assert np.abs(u).max() < 1e-14

    def test_already_tangent(self):
        spec = ManifoldSpec.sphere(1, 2)
        sigma = np.array([[1.0, 0.0]])
        g = np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(tangent_project(spec, sigma, g), g)

    def test_projection_of_diagonal_direction(self):
        spec = ManifoldSpec.sphere(1, 2)
        sigma = np.array([[1.0, 0.0]])
        g = np.array([[1.0, 1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(
            tangent_project(spec, sigma, g), [[0.0, 1.0 / np.sqrt(2)]], atol=1e-15
        )

    @pytest.mark.parametrize("d", [1, 3])
    def test_idempotent_and_orthogonal(self, d):
        spec = ManifoldSpec(q=4, d=d, r=5)
        sigma = random_point(spec, 7)
        rng = np.random.default_rng(8)
        G = rng.standard_normal((spec.n, spec.r))
        u = tangent_project(spec, sigma, G)
        np.testing.assert_allclose(tangent_project(spec, sigma, u), u, atol=1e-12)
        # the removed part is orthogonal to the kept part
        assert abs(np.vdot(G - u, u)) <= 1e-10 * np.linalg.norm(G) ** 2

    def test_tangency_conditions(self):
        spec = ManifoldSpec(q=3, d=3, r=4)
        sigma = random_point(spec, 5)
        rng = np.random.default_rng(6)
        u = tangent_project(spec, sigma, rng.standard_normal((spec.n, spec.r)))
        for i in range(spec.q):
            sl = slice(i * 3, (i + 1) * 3)
            skew = u[sl] @ sigma[sl].T + sigma[sl] @ u[sl].T
            assert np.abs(skew).max() < 1e-12

    def test_off_manifold_rejected(self):
        spec = self.spec()
        sigma = random_point(spec, 0)
        nan_entry = sigma.copy()
        nan_entry[0, 0] = np.nan
        for base in (1.5 * sigma, nan_entry):
            with pytest.raises(OffManifold):
                tangent_project(spec, base, sigma)


class TestGeodesicStep:
    def test_zero_time(self):
        spec = ManifoldSpec.sphere(3, 2)
        sigma = random_point(spec, 1)
        u = tangent_project(spec, sigma, np.ones_like(sigma))
        np.testing.assert_array_equal(geodesic_step(spec, sigma, u, 0.0), sigma)

    def test_quarter_circle(self):
        spec = ManifoldSpec.sphere(1, 2)
        sigma = np.array([[1.0, 0.0]])
        u = np.array([[0.0, 1.0]])
        out = geodesic_step(spec, sigma, u, np.pi / 2)
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-15)

    def test_zero_rows_unchanged(self):
        spec = ManifoldSpec.sphere(2, 2)
        sigma = np.array([[1.0, 0.0], [-0.0, 1.0]])
        u = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = geodesic_step(spec, sigma, u, 0.3)
        # bit for bit: the formula would turn the -0.0 into +0.0
        assert out[1].tobytes() == sigma[1].tobytes()
        assert out is not sigma

    def test_stays_on_manifold(self):
        spec = ManifoldSpec.sphere(20, 5)
        sigma = random_point(spec, 2)
        rng = np.random.default_rng(3)
        u = tangent_project(spec, sigma, rng.standard_normal(sigma.shape))
        for t in (1e-3, 0.1, 2.0, 17.0):
            out = geodesic_step(spec, sigma, u, t)
            assert manifold_violation(spec, out) < 1e-12

    def test_blocks_unsupported(self):
        spec = ManifoldSpec(q=2, d=2, r=3)
        with pytest.raises(UnsupportedManifold):
            geodesic_step(spec, np.zeros((4, 3)), np.zeros((4, 3)), 0.1)


class TestRandomPoint:
    def test_sphere_rows_unit(self):
        spec = ManifoldSpec.sphere(30, 6)
        sigma = random_point(spec, 0)
        assert np.abs(np.linalg.norm(sigma, axis=1) - 1).max() < 1e-15

    def test_blocks_orthonormal(self):
        spec = ManifoldSpec(q=7, d=3, r=5)
        sigma = random_point(spec, 1)
        assert manifold_violation(spec, sigma) < 1e-12

    def test_deterministic(self):
        spec = ManifoldSpec.sphere(10, 4)
        np.testing.assert_array_equal(random_point(spec, 9), random_point(spec, 9))


class TestProject:
    def test_dispatches_per_block(self):
        spec = ManifoldSpec(q=2, d=2, r=3)
        rng = np.random.default_rng(4)
        G = rng.standard_normal((4, 3))
        out = project(spec, G)
        assert manifold_violation(spec, out) < 1e-12

    def test_degenerate_block_indexed(self):
        spec = ManifoldSpec(q=2, d=2, r=2)
        G = np.ones((4, 2))
        G[:2] = np.eye(2)
        with pytest.raises(DegenerateProjection) as info:
            project(spec, G)
        assert info.value.block == 1

    @pytest.mark.parametrize("rank", [2, 0])
    def test_degenerate_d3_block_indexed(self, rank):
        # blocks 0 and 2 have orthonormal rows; block 1 has rank 2 (its
        # second row is twice its first) or is zero
        G = np.zeros((9, 4))
        G[:3, :3] = np.eye(3)
        if rank == 2:
            G[3:6] = [[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        G[6:, 1:] = np.eye(3)
        with pytest.raises(DegenerateProjection) as info:
            project(ManifoldSpec(q=3, d=3, r=4), G)
        assert info.value.block == 1


def conditioned_stack(q, r, singular_values, seed):
    """(q, 3, r) stack U diag(s) V^T with random orthogonal U and
    orthonormal-column V, one row of ``singular_values`` per block; returns
    the stack and its polar factors U V^T."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((q, 3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((q, r, 3)))[0]
    polar = U @ V.transpose(0, 2, 1)
    return (U * singular_values[:, None, :]) @ V.transpose(0, 2, 1), polar


def disable_eigh(monkeypatch):
    """Make any LAPACK eigendecomposition fail, so that a d = 3 projection
    must take the closed form."""

    def eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", eigh)


@pytest.fixture
def no_eigh(monkeypatch):
    disable_eigh(monkeypatch)


@pytest.mark.usefixtures("kernel_path")
class TestClosedFormPolar:
    """d = 3 projections take a closed form (no eigendecomposition) unless
    a block is near degenerate."""

    @pytest.mark.parametrize("r", [3, 4, 18, 35])
    @pytest.mark.parametrize("q", [1, 50, 200])
    def test_agrees_with_eigendecomposition(self, q, r, monkeypatch):
        rng = np.random.default_rng(q * r)
        G, _ = conditioned_stack(q, r, rng.uniform(0.2, 1.0, (q, 3)), seed=q + r)
        reference = manifold_module._gram_polar(G)
        disable_eigh(monkeypatch)
        B = project(ManifoldSpec(q, 3, r), G.reshape(3 * q, r))
        np.testing.assert_allclose(B, reference.reshape(3 * q, r), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scale", [1e-100, 0.5, 1.0, 3.0, 1e100])
    def test_scaled_orthonormal_blocks(self, scale, no_eigh):
        # exact [I 0] blocks: all Gram eigenvalues equal, spread p = 0
        exact = np.tile(np.eye(3, 5), (4, 1))
        np.testing.assert_array_equal(
            project(ManifoldSpec(4, 3, 5), scale * exact), exact
        )
        # rounded orthonormal rows: eigenvalues equal to rounding
        _, Q = conditioned_stack(6, 5, np.ones((6, 3)), seed=1)
        B = project(ManifoldSpec(6, 3, 5), scale * Q.reshape(18, 5))
        np.testing.assert_allclose(B, Q.reshape(18, 5), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("ratio", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_ill_conditioned_blocks(self, ratio):
        spec = ManifoldSpec(20, 3, 6)
        # graded rows: the Gram matrix resolves every ratio
        rng = np.random.default_rng(7)
        V = np.linalg.qr(rng.standard_normal((20, 6, 3)))[0].transpose(0, 2, 1)
        G = np.array([1.0, 0.5, ratio])[:, None] * V
        B = project(spec, G.reshape(60, 6))
        assert manifold_violation(spec, B) < 1e-12
        np.testing.assert_allclose(B, V.reshape(60, 6), rtol=0, atol=1e-12)
        if ratio >= 1e-6:
            # rotated blocks, with one or two small singular values: the
            # polar factor is accurate to about eps / ratio
            for middle in (0.5, ratio):
                sv = np.tile([1.0, middle, ratio], (20, 1))
                G, polar = conditioned_stack(20, 6, sv, seed=8)
                B = project(spec, G.reshape(60, 6))
                assert manifold_violation(spec, B) < 1e-12
                np.testing.assert_allclose(
                    B, polar.reshape(60, 6), rtol=0, atol=1e-13 / ratio
                )

    def test_no_eigendecomposition_on_well_conditioned_input(self, no_eigh):
        G, polar = conditioned_stack(50, 18, np.full((50, 3), 0.7), seed=3)
        np.testing.assert_allclose(
            project(ManifoldSpec(50, 3, 18), G.reshape(150, 18)),
            polar.reshape(150, 18),
            rtol=0,
            atol=1e-13,
        )
        # one small singular value keeps the closed form
        G, polar = conditioned_stack(50, 18, np.tile([1.0, 0.5, 1e-3], (50, 1)), seed=4)
        np.testing.assert_allclose(
            project(ManifoldSpec(50, 3, 18), G.reshape(150, 18)),
            polar.reshape(150, 18),
            rtol=0,
            atol=1e-11,
        )
        spec = ManifoldSpec.stiefel(50, 3)
        assert manifold_violation(spec, random_point(spec, 0)) < 1e-12


@pytest.mark.usefixtures("kernel_path")
class TestNearDegenerateBlocks:
    """Gram eigenvalues carry an absolute error of about eps lambda_1, so the
    degeneracy test of the eigendecomposition path is decided again by an
    SVD, whose singular values are accurate to about eps s_1."""

    @staticmethod
    def block(d, r, t, seed):
        """U diag(1, 0.5, ..., 0.5, t) V^T with random orthogonal U and
        orthonormal-column V."""
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((d, d)))[0]
        V = np.linalg.qr(rng.standard_normal((r, d)))[0]
        sv = np.full(d, 0.5)
        sv[0], sv[-1] = 1.0, t
        return (U * sv) @ V.T

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_small_singular_value_projects(self, d):
        for seed in range(20):
            B = project_block(self.block(d, d + 3, 1e-10, seed))
            np.testing.assert_allclose(B @ B.T, np.eye(d), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_singular_value_raises_with_block_index(self, d):
        r = d + 3
        for seed in range(20):
            G = np.concatenate(
                [self.block(d, r, 1.0, seed), self.block(d, r, 0.0, seed), np.eye(d, r)]
            )
            with pytest.raises(DegenerateProjection) as info:
                project(ManifoldSpec(q=3, d=d, r=r), G)
            assert info.value.block == 1


@pytest.mark.usefixtures("kernel_path")
class TestExtremeScale:
    """The projection is scale invariant, and a block is scaled by a power
    of two before its Gram matrix (or, for d = 1, a row before its norm)
    is formed, so that it neither overflows nor goes subnormal."""

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_polar_factor_of_a_scaled_stack(self, d, scale):
        spec = ManifoldSpec(2, d, 5)
        G = np.random.default_rng(0).standard_normal((2 * d, 5))
        np.testing.assert_allclose(project(spec, scale * G), project(spec, G), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_entry_raises_with_block_index(self, d, bad):
        G = np.random.default_rng(0).standard_normal((3 * d, 5))
        G[2 * d - 1, 2] = bad  # the last row of block 1
        with pytest.raises(DegenerateProjection) as info:
            project(ManifoldSpec(3, d, 5), G)
        assert info.value.block == 1


def scaled_stack(q, r, seed):
    """Well-conditioned (q, 3, r) stack with block scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    G, _ = conditioned_stack(q, r, rng.uniform(0.2, 1.0, (q, 3)), seed=seed + 1)
    return G * 10.0 ** rng.integers(-3, 4, q)[:, None, None]


class TestCompiledPolar:
    """The compiled d = 3 closed form (polar3.c) against the numpy path."""

    @pytest.mark.parametrize("r", [3, 18, 35])
    @pytest.mark.parametrize("q", [1, 50, 200])
    def test_matches_the_numpy_path(self, q, r, loaded, monkeypatch):
        loaded("polar3")
        G = scaled_stack(q, r, seed=q * r)
        B = manifold_module._polar_rows_batched(G)
        monkeypatch.setattr(native, "kernel", lambda name: None)
        np.testing.assert_allclose(
            B, manifold_module._polar_rows_batched(G), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize(
        "eigenvalues, flagged",
        [
            ((1.0, 0.5, 0.25), False),
            ((1.0, 1.0, 1.0), False),
            ((1.0, 0.98e-2, 0.5e-2), True),
            ((1.0, 1.02e-2, 0.5e-2), False),
            ((1.0, 0.5, 0.98e-8), True),
            ((1.0, 0.5, 1.02e-8), False),
            ((1.0, 0.0, 0.0), True),
            ((0.0, 0.0, 0.0), True),
            ("nan", True),
            ("inf", True),
        ],
    )
    def test_flags_the_stacks_the_closed_form_flags(
        self, eigenvalues, flagged, loaded, monkeypatch
    ):
        # block 1 of three has the Gram spectrum under test, or a NaN or
        # infinite entry; the kernel returns -1 exactly where _polar3 sends
        # the stack to _gram_polar
        kernel = loaded("polar3").polar3
        sv = np.full((3, 3), 0.7)
        if isinstance(eigenvalues, tuple):
            sv[1] = np.sqrt(eigenvalues)
        G, _ = conditioned_stack(3, 5, sv, seed=2)
        if isinstance(eigenvalues, str):
            G[1, 2, 3] = float(eigenvalues)
        sent = []
        monkeypatch.setattr(
            manifold_module, "_gram_polar", lambda stack: sent.append(stack) or stack
        )
        manifold_module._polar3(G)
        assert bool(sent) == flagged
        assert (kernel(G.ctypes.data, np.empty_like(G).ctypes.data, 3, 5) < 0.0) == flagged

    def test_a_failed_build_falls_back_to_numpy(
        self, failed_build, fresh_loader, monkeypatch, caplog
    ):
        spec = ManifoldSpec(50, 3, 18)
        G = scaled_stack(50, 18, seed=5).reshape(150, 18)
        with monkeypatch.context() as numpy_only:
            numpy_only.setattr(native, "kernel", lambda name: None)
            expected = project(spec, G)
        with caplog.at_level("INFO", logger="bmadmm.native"):
            for _ in range(2):
                np.testing.assert_array_equal(project(spec, G), expected)
        assert native.kernel("polar3") is None
        assert [rec.levelname for rec in caplog.records] == ["INFO"]
        if failed_build in ("no compiler", "compile error"):
            # the temporary output is gone
            assert os.listdir(fresh_loader) == []

    @pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
    def test_cache_defaults_to_the_home_cache(self, xdg, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        assert native.cache_dir() == str(tmp_path / ".cache" / "bmadmm")

    def test_a_warm_cache_runs_no_compiler(self, tmp_path):
        # a fresh process on an empty cache compiles each library once, on
        # a d = 3 projection and a d = 1 step with a cost below DENSE_FILL;
        # the next one starts no child process at all
        script = (
            "import subprocess\n"
            "children = []\n"
            "class Spy(subprocess.Popen):\n"
            "    def __init__(self, args, *rest, **kwargs):\n"
            "        children.append(args)\n"
            "        super().__init__(args, *rest, **kwargs)\n"
            "subprocess.Popen = Spy\n"
            "import numpy as np\n"
            "from bmadmm import ManifoldSpec, ProblemSpec, SolverOptions, SparseSymMatrix\n"
            "from bmadmm import init_state, native, project, step\n"
            "project(ManifoldSpec(2, 3, 5), np.random.default_rng(0).standard_normal((6, 5)))\n"
            "options = SolverOptions()\n"
            "step(init_state(ProblemSpec.sphere(SparseSymMatrix.identity(8)), options), options)\n"
            "print(len(children), all(native.kernel(name) for name in native.PROTOTYPES))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            ).stdout.split()
            for _ in range(2)
        ]
        if runs[0][1] == "False":
            pytest.skip("a C kernel is unavailable")
        assert runs == [["3", "True"], ["0", "True"]]

    def test_sphere_problems_never_load_the_kernel(self, monkeypatch):
        kernel = native.kernel

        def refuse(name):
            if name == "polar3":
                raise AssertionError("the d = 3 kernel was loaded")
            return kernel(name)

        monkeypatch.setattr(native, "kernel", refuse)
        prob = ProblemSpec.sphere(_gauss_cost(12, 0), r=4)
        for result in (
            solve(prob, SolverOptions(seed=1)),
            solve_with_curvature(prob, SolverOptions(seed=1)),
            rgd_solve(prob, RgdOptions(seed=1)),
        ):
            dual_certificate(prob.cost, result.state.sigma_tilde)
        assert manifold_module.polar_kernel(1) is None


class TestRequireOnManifold:
    def test_returns_the_factor_as_floats(self):
        spec = ManifoldSpec.sphere(3, 2)
        X = require_on_manifold(spec, [[1, 0], [0, 1], [0, -1]])
        assert X.dtype == np.float64
        np.testing.assert_array_equal(X, [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def test_tolerance_is_inclusive(self):
        spec = ManifoldSpec.sphere(2, 2)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        X[0, 0] += 0.5 * ON_MANIFOLD_TOL
        require_on_manifold(spec, X)
        X[0, 0] += 2.0 * ON_MANIFOLD_TOL
        with pytest.raises(OffManifold, match="warm start"):
            require_on_manifold(spec, X, "warm start")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_fails(self, bad):
        for spec in (ManifoldSpec.sphere(6, 3), ManifoldSpec.stiefel(2, 3, 4)):
            X = random_point(spec, 0)
            X[1, 2] = bad
            with pytest.raises(OffManifold):
                require_on_manifold(spec, X)

    def test_wrong_shape_fails(self):
        spec = ManifoldSpec.stiefel(4, 3, 5)
        for shape in ((9, 5), (12, 6), (12,), (1, 12, 5)):
            with pytest.raises(DimensionMismatch, match="shape"):
                require_on_manifold(spec, np.ones(shape))


def _gauss_cost(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return SparseSymMatrix.from_dense((A + A.T) / 2)


def _merit_value(problem, sigma):
    state = init_state(problem, SolverOptions(seed=0))
    return merit_value(replace(state, sigma_tilde=sigma))


def _escape_step(problem, sigma):
    report = CurvatureReport(-1.0, np.zeros(sigma.shape), 0, 0.1, "negative_curvature")
    return escape_step(problem.cost, sigma, report)


# Every entry point that takes a factor, and the block sizes it accepts.
# Each is called with a bad factor for a problem with cost n = 10, r = 4
# (d = 1) or n = 12, r = 5 (d = 3).
FACTOR_ENTRY_POINTS = {
    "solve": (lambda p, s: solve(p, SolverOptions(max_iter=50), sigma0=s), (1, 3)),
    "solve_with_curvature": (
        lambda p, s: solve_with_curvature(p, SolverOptions(max_iter=50), sigma0=s),
        (1,),
    ),
    "rgd_solve": (lambda p, s: rgd_solve(p, RgdOptions(max_iter=50), sigma0=s), (1, 3)),
    "dual_certificate": (lambda p, s: dual_certificate(p.cost, s, d=p.manifold.d), (1, 3)),
    "riemannian_grad": (lambda p, s: riemannian_grad(p.cost, s), (1,)),
    "hess_quadform": (lambda p, s: hess_quadform(p.cost, s, np.zeros(s.shape)), (1,)),
    "negative_curvature_direction": (
        lambda p, s: negative_curvature_direction(p.cost, s, 1e-2, 0),
        (1,),
    ),
    "escape_step": (_escape_step, (1,)),
    "tangent_project": (lambda p, s: tangent_project(p.manifold, s, s), (1, 3)),
    "merit_value": (_merit_value, (1, 3)),
}
# Entry points whose rank comes from the problem, not from the factor.
FIXED_RANK = {"solve", "solve_with_curvature", "rgd_solve", "tangent_project", "merit_value"}


def _bad_factor_cases():
    for name, (_, blocks) in FACTOR_ENTRY_POINTS.items():
        for d in blocks:
            kinds = ["nan", "rows"] + (["rank"] if name in FIXED_RANK else ["flat", "thin"])
            for kind in kinds:
                yield pytest.param(name, d, kind, id=f"{name}-d{d}-{kind}")


@pytest.mark.parametrize("name, d, kind", list(_bad_factor_cases()))
def test_every_entry_point_rejects_a_bad_factor(name, d, kind):
    """A NaN entry, a factor with one block of rows too few (for d = 3 a
    (9, 5) factor of a 12-row cost) or with two columns too many raises
    a package error at every entry point: never a LinAlgError, a NaN
    result or a run at another rank.  Where the rank comes from the
    factor, so does a 1-D factor ("flat") and one of rank d - 1
    ("thin"): never an IndexError or a plain ValueError."""
    if d == 1:
        problem = ProblemSpec.sphere(_gauss_cost(10, 1), r=4)
    else:
        problem = ProblemSpec.stiefel(_gauss_cost(12, 2), 3, r=5)
    man = problem.manifold
    sigma = random_point(man, 3)
    error = DimensionMismatch
    if kind == "nan":
        sigma[2, 1] = np.nan
        error = OffManifold
    elif kind == "rows":
        sigma = random_point(ManifoldSpec(man.q - 1, d, man.r), 3)
    elif kind == "rank":
        sigma = random_point(ManifoldSpec(man.q, d, man.r + 2), 3)
    elif kind == "flat":
        sigma = sigma[:, 0]
    else:
        sigma = sigma[:, : d - 1]
    call, _ = FACTOR_ENTRY_POINTS[name]
    with pytest.raises(error):
        call(problem, sigma)


@pytest.mark.parametrize("d", [0, 5])
def test_dual_certificate_rejects_a_bad_block_size(d):
    """d = 0 and a d that does not divide n = 12 raise DimensionMismatch
    naming d: never a ZeroDivisionError or a shape message for n = 10."""
    C = _gauss_cost(12, 2)
    sigma = random_point(ManifoldSpec.sphere(12, 6), 3)
    with pytest.raises(DimensionMismatch, match=f"d={d}"):
        dual_certificate(C, sigma, d=d)
