"""Property-based fuzzing of the input paths: the edge-list parser, the
binary container and the ``solve`` command.  Every input either loads or
fails with a package error, and the CLI ends in a documented exit code
(0, 2 or 3) instead of a traceback.  Also the spectral norm on small
symmetric matrices, and the certified stop of ``solve`` on them."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmadmm import (
    GsetFormatError,
    ProblemSpec,
    SolverOptions,
    SparseSymMatrix,
    Status,
    dual_certificate,
    inf_norm,
    maxcut_cost,
    parse_gset,
    read_problem,
    solve,
    two_norm_estimate,
    write_problem,
)
from bmadmm.cli import main

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# mostly moderate weights, so that many inputs reach the solver, with
# non-finite and overflowing ones mixed in
weights = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]),
    st.floats(),
)


@st.composite
def gset_texts(draw):
    """Tiny edge lists of any float weight; sometimes with an index one
    past n or a declared edge count that is off by one."""
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), weights), max_size=8))
    if draw(st.integers(0, 4)) == 0:
        edges.append((n + 1, 1, 1.0))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    lines = [f"{n} {m}"] + [f"{i} {j} {w!r}" for i, j, w in edges]
    return "\n".join(lines) + "\n"


@st.composite
def binary_problems(draw):
    """Tiny binary containers: a valid CSR layout of any symmetric or
    asymmetric values, with a block size that need not divide n, and
    sometimes a header that does not match the payload."""
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from([1, 1, 1, 2, 3, 0]))
    dense = np.zeros((n, n))
    for i, j, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights), max_size=6)):
        dense[i, j] = dense[j, i] = w
    if draw(st.integers(0, 3)) == 0:
        dense[0, n - 1] += 1.0  # breaks symmetry unless n == 1
    rows, cols = np.nonzero(dense != 0)
    row_ptr = np.searchsorted(rows, np.arange(n + 1))
    header = [n, rows.size, d]
    header[draw(st.integers(0, 2))] += draw(st.sampled_from([0, 0, 0, 0, 1, 2**40]))
    return (
        np.array(header, dtype="<u8").tobytes()
        + row_ptr.astype("<i8").tobytes()
        + cols.astype("<i8").tobytes()
        + dense[rows, cols].astype("<f8").tobytes()
    )


@FUZZ
@given(gset_texts())
def test_parse_gset_and_cost_fail_only_with_package_errors(text):
    try:
        graph = parse_gset(text)
    except GsetFormatError:
        return
    finite = all(np.isfinite(w) for _, _, w in graph.edges)
    try:
        C = maxcut_cost(graph)
    except ValueError as exc:
        assert "finite" in str(exc)
        return
    assert np.all(np.isfinite(C.values))
    assert finite


@FUZZ
@given(binary_problems())
def test_read_problem_fails_only_with_value_errors(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.bin")
        with open(path, "wb") as fh:
            fh.write(payload)
        try:
            C, d = read_problem(path)
        except ValueError:
            return
    assert d >= 1
    assert np.all(np.isfinite(C.values))
    np.testing.assert_array_equal(C.to_dense(), C.to_dense().T)


@FUZZ
@given(
    st.one_of(gset_texts().map(lambda t: ("g.txt", t.encode())), binary_problems().map(lambda b: ("p.bin", b))),
    st.sampled_from(["admm", "admm2", "prox-admm", "rgd"]),
    st.sampled_from(["auto", "1", "3"]),
)
def test_solve_command_ends_in_a_documented_exit_code(source, alg, rank):
    name, payload = source
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(payload)
        code = main(["solve", "--input", path, "--alg", alg, "--r", rank, "--max-iter", "20"])
    assert code in (0, 2, 3)


@st.composite
def symmetric_matrices(draw):
    """Small symmetric matrices of moderate entries, often sparse."""
    n = draw(st.integers(1, 8))
    dense = np.zeros((n, n))
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(-1e3, 1e3))
    for i, j, w in draw(st.lists(entries, max_size=2 * n * n)):
        dense[i, j] = dense[j, i] = w
    return dense


@FUZZ
@given(symmetric_matrices())
def test_two_norm_is_the_largest_eigenvalue_magnitude(dense):
    C = SparseSymMatrix.from_dense(dense)
    norm = two_norm_estimate(C)
    assert norm == float(np.abs(np.linalg.eigvalsh(C.to_dense())).max())
    assert two_norm_estimate(C) == norm
    assert np.abs(dense).max() * (1 - 1e-12) <= norm <= inf_norm(C) * (1 + 1e-12)


@FUZZ
@given(symmetric_matrices(), st.integers(1, 4), st.integers(0, 3))
def test_certified_stop_is_certified(dense, r, seed):
    C = SparseSymMatrix.from_dense(dense)
    assume(C.nnz > 0)
    result = solve(ProblemSpec.sphere(C, r), SolverOptions(seed=seed, max_iter=2_000))
    if result.status is not Status.CERTIFIED:
        return
    cert = dual_certificate(C, result.state.sigma_tilde)
    assert cert.certified
    assert cert.proves_optimal()
    if cert.lower_bound() != 0.0:
        assert cert.relative_gap() <= 1e-6


def test_non_finite_values_named():
    with pytest.raises(ValueError, match="finite"):
        SparseSymMatrix.from_dense([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        SparseSymMatrix.from_dense([[np.inf, 0.0], [0.0, 1.0]])


def test_nan_weight_exits_3_naming_the_fault(tmp_path, caplog):
    path = tmp_path / "nan.txt"
    path.write_text("3 2\n1 2 nan\n2 3 1\n")
    assert main(["solve", "--input", str(path)]) == 3
    assert any("finite" in rec.message for rec in caplog.records)


def test_block_size_not_dividing_n_exits_3(tmp_path, caplog):
    path = tmp_path / "d3.bin"
    write_problem(path, SparseSymMatrix.from_dense(np.ones((4, 4))), d=3)
    assert main(["solve", "--input", str(path)]) == 3
    assert any("multiple" in rec.message or "match" in rec.message for rec in caplog.records)
