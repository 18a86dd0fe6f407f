"""Iterate trace records and their CSV / JSON-lines serialization.

A solve records one row per accepted state, and the final state always
has a row.  The base schema has the columns

    k, objective, lagrangian, primal_res, step_tilde, step_sigma,
    min_gamma, seconds

in exactly that order; the curvature-aware solver appends

    probe_performed, lambda_H, escaped

(0, NaN, 0 off its curvature-test rows; lambda_H is 2 lambda_min(S) on a
certifying row and <u, Hess u> of the escape direction on an escape row).

Float cells are written with ``repr`` (shortest round-trip form), so traces
from identical runs are byte-identical apart from the wall-clock column.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

BASE_COLUMNS = (
    "k",
    "objective",
    "lagrangian",
    "primal_res",
    "step_tilde",
    "step_sigma",
    "min_gamma",
    "seconds",
)
CURVATURE_COLUMNS = BASE_COLUMNS + ("probe_performed", "lambda_H", "escaped")

_INT_COLUMNS = {"k", "probe_performed", "escaped"}


@dataclass
class TraceRecord:
    k: int
    objective: float
    lagrangian: float
    primal_res: float
    step_tilde: float
    step_sigma: float
    min_gamma: float
    seconds: float
    probe_performed: int = 0
    lambda_H: float = math.nan
    escaped: int = 0


class Trace:
    """Ordered collection of per-state records."""

    def __init__(self, columns=BASE_COLUMNS):
        self.columns = tuple(columns)
        self.records = []

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def column(self, name):
        """All values of one column as a list."""
        return [getattr(rec, name) for rec in self.records]

    def to_csv(self, path=None):
        lines = [",".join(self.columns)]
        for rec in self.records:
            lines.append(",".join(_csv_cell(name, getattr(rec, name)) for name in self.columns))
        text = "\n".join(lines) + "\n"
        if path is not None:
            atomic_write(path, text)
        return text

    def to_jsonl(self, path=None):
        lines = []
        for rec in self.records:
            row = {}
            for name in self.columns:
                v = getattr(rec, name)
                if name in _INT_COLUMNS:
                    row[name] = int(v)
                else:
                    v = float(v)
                    row[name] = None if math.isnan(v) else v
            lines.append(json.dumps(row))
        text = "\n".join(lines) + ("\n" if lines else "")
        if path is not None:
            atomic_write(path, text)
        return text


def _csv_cell(name, v):
    if name in _INT_COLUMNS:
        return str(int(v))
    return repr(float(v))


def atomic_write(path, data):
    """Write str or bytes via a temp file in the target directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
