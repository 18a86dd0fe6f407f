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

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GsetFormatError
from .manifold import ProblemSpec
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
    lines, out-of-range indices, non-finite weights, duplicate edges whose
    summed weight overflows, or more edges than declared; empty input
    carries line 1, and fewer edges than declared no line number.
    """
    lines = enumerate(text.splitlines(), start=1)

    def bad(what):
        return GsetFormatError(f"line {line_no}: {what}", line_no=line_no)

    for line_no, raw in lines:
        tokens = raw.split()
        if tokens:
            break
    else:
        raise GsetFormatError("empty input: missing 'n m' header", line_no=1)
    if len(tokens) != 2:
        raise bad(f"header must be 'n m', got {raw!r}")
    try:
        n, expected_edges = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise bad(f"header must hold two integers, got {raw!r}") from None
    if n < 1 or expected_edges < 0:
        raise bad(f"invalid header values n={n}, m={expected_edges}")
    accum = {}
    dropped = 0
    seen_edges = 0
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise bad(f"edge lines must be 'i j w', got {raw!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise bad(f"could not parse edge {raw!r}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise bad(f"vertex index out of range 1..{n} in {raw!r}")
        if not math.isfinite(w):
            raise bad(f"edge weight must be finite, got {raw!r}")
        seen_edges += 1
        if seen_edges > expected_edges:
            raise bad(f"more than the declared {expected_edges} edges")
        if i == j:
            dropped += 1
            continue
        key = (i, j) if i < j else (j, i)
        accum[key] = total = accum.get(key, 0.0) + w
        if not math.isfinite(total):
            raise bad(f"summed weight of edge {key[0]} {key[1]} overflows")
    if seen_edges != expected_edges:
        raise GsetFormatError(
            f"declared {expected_edges} edges but found {seen_edges}"
        )
    edges = [(i, j, accum[(i, j)]) for (i, j) in sorted(accum)]
    return GraphInstance(n=n, edges=edges, name=name, dropped_self_loops=dropped)


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
    rows of -4 C sum to zero.

    Raises GsetFormatError if an edge endpoint is not an integer in 1..n
    or a weighted degree overflows.
    """
    n = graph.n
    edges = np.array(graph.edges, dtype=np.float64).reshape(len(graph.edges), 3)
    ends = edges[:, :2]
    ok = ((ends >= 1) & (ends <= n) & (ends == np.round(ends))).all(axis=1)
    if not ok.all():
        bad = graph.edges[np.argmin(ok)]
        raise GsetFormatError(f"edge {bad}: endpoints must be integers in 1..{n}")
    # (a, b) then (b, a) for each edge in edge order, then the diagonal:
    # from_coo sums repeated edges and self-loops in this order
    ends = ends.astype(np.int64) - 1
    w = np.repeat(edges[:, 2], 2)
    degree = np.zeros(n)
    with np.errstate(over="ignore"):
        np.add.at(degree, ends.ravel(), w)
    finite = np.isfinite(degree)
    if not finite.all():
        raise GsetFormatError(f"vertex {np.argmin(finite) + 1}: weighted degree overflows")
    diag = np.arange(n)
    return SparseSymMatrix.from_coo(
        n,
        np.concatenate((ends.ravel(), diag)),
        np.concatenate((ends[:, ::-1].ravel(), diag)),
        np.concatenate((w / 4.0, -degree / 4.0)),
    )


def generate_so3(q, s, seed):
    """Synthetic block-sparse cost for rotation synchronization.

    Each off-diagonal block pair (i < j) of the q x q block grid (q >= 2)
    is populated independently with probability s in [0, 1]; populated
    3 x 3 blocks have i.i.d. uniform [-1, 1] entries and are mirrored
    transposed (bit-equal), diagonal blocks stay zero.  s = 0 gives the
    zero matrix, which ``solve`` certifies at its start for every q.
    Returns a ProblemSpec over the d = 3 block manifold at the default
    rank.
    Deterministic per seed.
    """
    if q < 2:
        raise ValueError(f"need q >= 2 blocks, got {q}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"sparsity must lie in [0, 1], got {s}")
    rng = np.random.default_rng(seed)
    pair_i, pair_j = np.triu_indices(q, k=1)
    mask = rng.random(pair_i.size) < s
    blocks = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(mask), 3, 3))
    # rows[t, a, b] = 3 i_t + a and cols[t, a, b] = 3 j_t + b address block t
    rows, cols = np.broadcast_arrays(
        (3 * pair_i[mask])[:, None, None] + np.arange(3)[:, None],
        (3 * pair_j[mask])[:, None, None] + np.arange(3),
    )
    # each block followed by its mirror: the transpose with the same values
    C = SparseSymMatrix.from_coo(
        3 * q,
        np.stack((rows, cols), axis=1).ravel(),
        np.stack((cols, rows), axis=1).ravel(),
        np.stack((blocks, blocks), axis=1).ravel(),
    )
    return ProblemSpec.stiefel(C, 3)


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
