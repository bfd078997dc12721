"""Dataset ingestion (LIBSVM text), CSV trace persistence, and run manifests."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .core import TraceRecord
from .problems import SvmDataset


class ParseError(ValueError):
    """Malformed dataset input; carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no
        self.detail = detail


def _parse_label(token: str, line_no: int, remap_zero_one: bool) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"unreadable label {token!r}") from None
    if remap_zero_one and value in (0.0, 1.0):
        return 1 if value == 1.0 else -1
    if value in (-1.0, 1.0):
        return int(value)
    hint = " (use the 0/1 remap flag?)" if value == 0.0 else ""
    raise ParseError(line_no, f"label {token!r} is not -1 or +1{hint}")


def parse_libsvm(lines: Iterable[str], num_features: Optional[int] = None,
                 name: str = "", remap_zero_one: bool = False) -> SvmDataset:
    """Parse LIBSVM-format lines ``<label> <idx>:<val> ...`` into a dataset.

    File indices are 1-based and strictly increasing per line; they come
    back 0-based.  Blank lines are skipped, malformed tokens and NaN or
    infinite values fail hard with the line number and column, and explicit
    zero values are dropped (the sparse representation never stores them).
    The feature count is the given override or the largest index seen.
    """
    indptr, indices, values, labels = [0], [], [], []
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_parse_label(tokens[0], line_no, remap_zero_one))
        previous = 0
        offset = raw.find(tokens[0]) + len(tokens[0])
        for token in tokens[1:]:
            offset = raw.find(token, offset)
            where = f"token {token!r} (column {offset + 1})"
            offset += len(token)
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise ParseError(line_no, f"{where}: expected <index>:<value>")
            try:
                idx = int(idx_text)
            except ValueError:
                raise ParseError(line_no, f"{where}: bad index") from None
            try:
                val = float(val_text)
            except ValueError:
                raise ParseError(line_no, f"{where}: bad value") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"{where}: value is not finite")
            if idx < 1:
                raise ParseError(line_no, f"{where}: indices are 1-based")
            if idx <= previous:
                raise ParseError(line_no, f"{where}: indices must be strictly increasing")
            previous = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        indptr.append(len(indices))
    if not labels:
        raise ParseError(line_no, "no examples in input")
    max_index = max(indices, default=-1)
    if num_features is None and max_index < 0:
        raise ParseError(0, "cannot infer feature count from all-empty examples")
    n = max_index + 1 if num_features is None else int(num_features)
    if max_index >= n:
        raise ParseError(0, f"feature index {max_index + 1} exceeds --features {n}")
    return SvmDataset(indptr, indices, values, labels, n, name)


def load_libsvm(path, num_features: Optional[int] = None, name: Optional[str] = None,
                remap_zero_one: bool = False) -> SvmDataset:
    """Read a LIBSVM file from disk; see :func:`parse_libsvm`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(0, f"{path}: not valid UTF-8 text ({exc})") from None
    return parse_libsvm(
        text.splitlines(),
        num_features=num_features,
        name=path.name if name is None else name,
        remap_zero_one=remap_zero_one,
    )


def libsvm_lines(ds: SvmDataset) -> Iterator[str]:
    """Serialize a dataset back to LIBSVM lines (1-based indices)."""
    for i in range(ds.m):
        indices, values, label = ds.example(i)
        pairs = zip(indices.tolist(), values.tolist())
        yield " ".join([f"{label:+.0f}"] + [f"{j + 1}:{v!r}" for j, v in pairs])


def write_libsvm(ds: SvmDataset, path) -> None:
    Path(path).write_text("".join(line + "\n" for line in libsvm_lines(ds)), encoding="utf-8")


def subsample(ds: SvmDataset, fraction: float, seed: int) -> SvmDataset:
    """Uniform without-replacement subset of floor(m * fraction) examples.

    Deterministic per seed; keeps the original example order and the
    feature count.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    keep = int(ds.m * fraction)
    if keep == 0:
        raise ValueError(f"fraction {fraction} of {ds.m} examples is empty")
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(ds.m, size=keep, replace=False))
    sub = ds.matrix[rows]
    return SvmDataset(sub.indptr, sub.indices, sub.data, ds.labels[rows], ds.num_features,
                      ds.name)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("k", "objective", "step_norm", "tracker_error", "elapsed_ns")


def _format_optional(value: Optional[float]) -> str:
    # repr is shortest-exact: float(repr(x)) == x bitwise.
    return "" if value is None else repr(float(value))


def write_trace(records: Iterable[TraceRecord], destination) -> None:
    """Write records as CSV with the fixed 5-column header."""
    with open(destination, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow([
                str(r.k),
                _format_optional(r.objective),
                repr(float(r.step_norm)),
                _format_optional(r.tracker_error),
                str(r.elapsed_ns),
            ])


def read_trace(source) -> list[TraceRecord]:
    """Read a trace CSV back; the exact inverse of :func:`write_trace`."""
    with open(source, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{source}: empty trace file") from None
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{source}: unexpected header {header}")
        records = []
        previous_k = None
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{source}: row {row_no} has {len(row)} fields")
            try:
                k = int(row[0])
                objective = float(row[1]) if row[1] else None
                step_norm = float(row[2])
                tracker_error = float(row[3]) if row[3] else None
                elapsed_ns = int(row[4])
            except ValueError:
                raise ValueError(f"{source}: row {row_no} is malformed: {row}") from None
            if previous_k is not None and k <= previous_k:
                raise ValueError(f"{source}: iteration counters must increase (row {row_no})")
            previous_k = k
            records.append(TraceRecord(k, objective, step_norm, tracker_error, elapsed_ns))
    return records


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

def write_manifest(entries: Mapping[str, object], path) -> None:
    """Flat key=value text file; values are str()-ed."""
    lines = []
    for key, value in entries.items():
        key = str(key)
        if "=" in key or "\n" in key:
            raise ValueError(f"bad manifest key {key!r}")
        text = str(value)
        if "\n" in text:
            raise ValueError(f"manifest value for {key!r} contains a newline")
        lines.append(f"{key}={text}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_manifest(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: line {line_no} is not key=value")
        out[key] = value
    return out


def dataset_checksum(path) -> str:
    """SHA-256 of the raw file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
