"""Problem ingestion and generation: weighted edge lists in the Gset text
layout, the max-cut cost matrix, a synthetic block-sparse rotation-
synchronization generator, and a bit-exact binary container for problems.

Text format: a header line "n m" followed by m lines "i j w" with 1-based
vertex indices.  Parsing sums duplicate edges (either orientation), drops
self-loops with a warning count, and keeps edges in canonical (i < j)
sorted order, so parse -> serialize -> parse round-trips identically.

Binary format (little endian): header of three uint64 (n, nnz, d), then the
CSR arrays of the symmetric cost matrix: row_ptr as (n + 1) int64, col_idx
as nnz int64, values as nnz float64.  d records the block size of the
intended constraint structure (1 = unit diagonal).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GsetFormatError
from .manifold import ManifoldSpec
from .solver import ProblemSpec
from .sparse import SparseSymMatrix
from .trace import atomic_write


@dataclass
class GraphInstance:
    """Weighted undirected graph with 1-based vertices, canonical edges."""

    n: int
    edges: list = field(default_factory=list)  # (i, j, w), i < j, sorted
    name: str = ""
    dropped_self_loops: int = 0


def parse_gset(text, name=""):
    """Parse the "n m" / "i j w" edge-list layout.

    Raises GsetFormatError carrying the 1-based line number on malformed
    lines, out-of-range indices, or an edge-count mismatch.
    """
    header = None
    expected_edges = 0
    accum = {}
    dropped = 0
    seen_edges = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if header is None:
            if len(tokens) != 2:
                raise GsetFormatError(
                    f"line {line_no}: header must be 'n m', got {raw!r}",
                    line_no=line_no,
                )
            try:
                n, expected_edges = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GsetFormatError(
                    f"line {line_no}: header must hold two integers, got {raw!r}",
                    line_no=line_no,
                ) from None
            if n < 1 or expected_edges < 0:
                raise GsetFormatError(
                    f"line {line_no}: invalid header values n={n}, m={expected_edges}",
                    line_no=line_no,
                )
            header = (n, expected_edges)
            continue
        if len(tokens) != 3:
            raise GsetFormatError(
                f"line {line_no}: edge lines must be 'i j w', got {raw!r}",
                line_no=line_no,
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise GsetFormatError(
                f"line {line_no}: could not parse edge {raw!r}", line_no=line_no
            ) from None
        n = header[0]
        if not (1 <= i <= n and 1 <= j <= n):
            raise GsetFormatError(
                f"line {line_no}: vertex index out of range 1..{n} in {raw!r}",
                line_no=line_no,
            )
        seen_edges += 1
        if seen_edges > expected_edges:
            raise GsetFormatError(
                f"line {line_no}: more than the declared {expected_edges} edges",
                line_no=line_no,
            )
        if i == j:
            dropped += 1
            continue
        key = (i, j) if i < j else (j, i)
        accum[key] = accum.get(key, 0.0) + w
    if header is None:
        raise GsetFormatError("empty input: missing 'n m' header", line_no=1)
    if seen_edges != expected_edges:
        raise GsetFormatError(
            f"declared {expected_edges} edges but found {seen_edges}"
        )
    edges = [(i, j, accum[(i, j)]) for (i, j) in sorted(accum)]
    return GraphInstance(
        n=header[0], edges=edges, name=name, dropped_self_loops=dropped
    )


def serialize_gset(graph):
    """Canonical text form of a graph (header plus sorted 'i j w' lines)."""
    lines = [f"{graph.n} {len(graph.edges)}"]
    for i, j, w in sorted(graph.edges):
        lines.append(f"{i} {j} {w!r}")
    return "\n".join(lines) + "\n"


def load_gset(path):
    with open(path) as fh:
        text = fh.read()
    return parse_gset(text, name=os.path.basename(os.fspath(path)))


def maxcut_cost(graph):
    """Cost matrix C = -(D - W) / 4 of the max-cut relaxation, with W the
    weighted adjacency matrix and D the diagonal of weighted degrees.  The
    rows of -4 C sum to zero."""
    n = graph.n
    degree = np.zeros(n)
    rows, cols, vals = [], [], []
    for i, j, w in graph.edges:
        a, b = i - 1, j - 1
        degree[a] += w
        degree[b] += w
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((w / 4.0, w / 4.0))
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(-degree / 4.0)
    return SparseSymMatrix.from_coo(n, rows, cols, vals)


def generate_so3(q, s, seed):
    """Synthetic block-sparse cost for rotation synchronization.

    Each off-diagonal block pair (i < j) of the q x q block grid is
    populated independently with probability s; populated 3 x 3 blocks have
    i.i.d. uniform [-1, 1] entries and are mirrored transposed (bit-equal),
    diagonal blocks stay zero.  Returns a ProblemSpec over the d = 3 block
    manifold at the default rank.  Deterministic per seed.
    """
    if q < 2:
        raise ValueError(f"need q >= 2 blocks, got {q}")
    if not 0.0 < s <= 1.0:
        if s == 0.0:
            # explicit zero matrix; downstream penalty selection rejects it
            C = SparseSymMatrix.zeros(3 * q)
            return ProblemSpec(C, ManifoldSpec.stiefel(q, 3))
        raise ValueError(f"sparsity must lie in (0, 1], got {s}")
    d = 3
    rng = np.random.default_rng(seed)
    pair_i, pair_j = np.triu_indices(q, k=1)
    mask = rng.random(pair_i.size) < s
    pick_i = pair_i[mask]
    pick_j = pair_j[mask]
    blocks = rng.uniform(-1.0, 1.0, size=(pick_i.size, d, d))
    offsets_a, offsets_b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    rows, cols, vals = [], [], []
    for t in range(pick_i.size):
        base_i = pick_i[t] * d
        base_j = pick_j[t] * d
        rows.append((base_i + offsets_a).ravel())
        cols.append((base_j + offsets_b).ravel())
        vals.append(blocks[t].ravel())
        # mirrored block: the transpose with bit-identical values
        rows.append((base_j + offsets_b).ravel())
        cols.append((base_i + offsets_a).ravel())
        vals.append(blocks[t].ravel())
    n = q * d
    if rows:
        C = SparseSymMatrix.from_coo(
            n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
        )
    else:
        C = SparseSymMatrix.zeros(n)
    return ProblemSpec(C, ManifoldSpec.stiefel(q, d))


def write_problem(path, C, d=1):
    """Write a cost matrix to the binary container (atomic replace)."""
    parts = (
        np.array([C.n, C.nnz, d], dtype="<u8"),
        C.row_ptr.astype("<i8"),
        C.col_idx.astype("<i8"),
        C.values.astype("<f8"),
    )
    atomic_write(path, b"".join(a.tobytes() for a in parts))


def read_problem(path):
    """Read a binary problem container; returns (SparseSymMatrix, d)."""
    with open(path, "rb") as fh:
        header = np.fromfile(fh, dtype="<u8", count=3)
        if header.size != 3:
            raise ValueError(f"{path}: truncated header")
        n, nnz, d = (int(v) for v in header)
        if d < 1:
            raise ValueError(f"{path}: block size d={d} in the header must be >= 1")
        size = 8 * (3 + n + 1 + 2 * nnz)
        if os.fstat(fh.fileno()).st_size != size:
            raise ValueError(f"{path}: header n={n}, nnz={nnz} needs a {size}-byte file")
        row_ptr = np.fromfile(fh, dtype="<i8", count=n + 1)
        col_idx = np.fromfile(fh, dtype="<i8", count=nnz)
        values = np.fromfile(fh, dtype="<f8", count=nnz)
    return SparseSymMatrix(n, row_ptr, col_idx, values), d
