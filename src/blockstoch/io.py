"""Dataset ingestion (LIBSVM text), CSV trace persistence, and run manifests."""

from __future__ import annotations

import csv
import hashlib
import math
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Optional

import numpy as np

from .core import TraceRecord
from .problems import SvmDataset


class ParseError(ValueError):
    """Malformed dataset input; carries the 1-based line number, or None for
    a fault of the whole input, and the path of the file read, if any."""

    def __init__(self, line_no: Optional[int], detail: str, path=None):
        text = detail if line_no is None else f"line {line_no}: {detail}"
        super().__init__(text if path is None else f"{path}: {text}")
        self.line_no = line_no
        self.detail = detail
        self.path = path


# Lines per vectorized pass; bounds the token strings held at once.
CHUNK_LINES = 256
_MAX_INDEX = int(np.iinfo(np.int64).max)


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


def _locate(chunk: list[str], line_no: int, remap_zero_one: bool,
            num_features: Optional[int], features_from: str) -> NoReturn:
    """Scan a chunk that failed a vectorized rule token by token and raise the
    ParseError of its first bad token; ``line_no`` is the line before it."""
    for line_no, raw in enumerate(chunk, start=line_no + 1):
        tokens = raw.split()
        if not tokens:
            continue
        _parse_label(tokens[0], line_no, remap_zero_one)
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
            if idx > _MAX_INDEX:
                raise ParseError(line_no, f"{where}: bad index")
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
            if num_features is not None and idx > num_features and val != 0.0:
                raise ParseError(line_no, f"{where}: feature index {idx} exceeds "
                                          f"{features_from} {num_features}")
            previous = idx
    raise RuntimeError(f"lines {line_no - len(chunk) + 1}-{line_no}: a vectorized rule "
                       "failed but the token scan found no fault")


def _parse_chunk(chunk: list[str], remap_zero_one: bool,
                 num_features: Optional[int]) -> Optional[tuple]:
    """(labels, entries per row, 1-based indices, values) of one chunk's
    non-blank lines, explicit zeros included; None if any rule fails."""
    rows = list(filter(None, map(str.split, chunk)))
    counts = np.fromiter(map(len, rows), np.int64, len(rows)) - 1
    text = " ".join(chain.from_iterable(tokens[1:] for tokens in rows))
    # Exactly one colon inside each <index>:<value> token (colons and the
    # joining spaces interleave), so the fields alternate index, value.
    chars = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    colons, spaces = np.flatnonzero(chars == ord(":")), np.flatnonzero(chars == ord(" "))
    if not (colons.size == counts.sum() and (colons[:-1] < spaces).all()
            and (spaces < colons[1:]).all()):
        return None
    fields = text.replace(":", " ").split(" ") if text else []
    try:
        labels = np.array([tokens[0] for tokens in rows], dtype=np.float64)
        indices = np.array(fields[0::2], dtype=np.int64)
        values = np.array(fields[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    # Each index exceeds the one before it in its row, and a row starts from 0.
    previous = np.empty_like(indices)
    previous[1:] = indices[:-1]
    starts = np.cumsum(counts) - counts
    previous[starts[counts > 0]] = 0
    allowed = (labels == 1.0) | (labels == -1.0) | (remap_zero_one & (labels == 0.0))
    if not (allowed.all() and (indices > previous).all() and np.isfinite(values).all()):
        return None
    if num_features is not None and ((indices > num_features) & (values != 0.0)).any():
        return None
    return np.where(labels == 1.0, 1.0, -1.0), counts, indices, values


def parse_libsvm(lines: Iterable[str], num_features: Optional[int] = None,
                 name: str = "", remap_zero_one: bool = False,
                 features_from: str = "num_features") -> SvmDataset:
    """Parse LIBSVM-format lines ``<label> <idx>:<val> ...`` into a dataset.

    File indices are 1-based and strictly increasing per line; they come
    back 0-based.  Blank lines are skipped, malformed tokens, indices above
    the int64 range and NaN or infinite values fail hard with the line
    number and column, and explicit zero values are dropped (the sparse
    representation never stores them).  The feature count is the given
    override, which a stored index above it fails with its line and
    column (the message names the override's source as ``features_from``),
    or else the largest index seen.  Faults of the whole input (no
    examples, or no index to infer the feature count from) name no line.

    The lines are read ``CHUNK_LINES`` at a time.  Each chunk is split once,
    its labels, indices and values are converted with one numpy call each
    (which applies Python's ``float`` or ``int`` to every field, so the
    accepted syntax is Python's), and every rule is checked as an array
    operation.  Only a chunk that fails a rule or a conversion is rescanned
    token by token, to raise the ParseError of its first bad token.
    """
    if num_features is not None and num_features < 1:
        raise ValueError(f"num_features={num_features}: must be positive")
    lines, parts, line_no = iter(lines), [], 0
    while chunk := list(islice(lines, CHUNK_LINES)):
        part = _parse_chunk(chunk, remap_zero_one, num_features)
        if part is None:
            _locate(chunk, line_no, remap_zero_one, num_features, features_from)
        parts.append(part)
        line_no += len(chunk)
    if not sum(part[0].size for part in parts):
        raise ParseError(None, "no examples in input")
    labels, counts, indices, values = map(np.concatenate, zip(*parts))
    del parts
    keep = values != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    indptr = kept_before[np.concatenate(([0], np.cumsum(counts)))]
    indices, values = indices[keep], values[keep]
    indices -= 1
    if num_features is None:
        if not indices.size:
            raise ParseError(None, "cannot infer feature count from all-empty examples")
        num_features = int(indices.max()) + 1
    return SvmDataset(indptr, indices, values, labels, int(num_features), name)


def _read_lines(path) -> list[str]:
    r"""A UTF-8 text file's lines, a leading BOM skipped.  Text mode reads \r\n and \r
    as \n, and lines break at \n only: splitlines() would also break at \x0b, \x0c,
    \x1c-\x1e, \x85, \u2028 and \u2029, which a manifest value or a LIBSVM line may hold.
    Text that is not UTF-8 raises a ParseError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"not valid UTF-8 text ({exc})", path) from None


def load_libsvm(path, num_features: Optional[int] = None, remap_zero_one: bool = False,
                features_from: str = "num_features") -> SvmDataset:
    """Parse a LIBSVM file's lines, read by :func:`_read_lines`; see :func:`parse_libsvm`.
    The dataset takes the file's name, and a ParseError names the file."""
    path = Path(path)
    lines = _read_lines(path)
    try:
        return parse_libsvm(lines, num_features, path.name, remap_zero_one, features_from)
    except ParseError as exc:
        raise ParseError(exc.line_no, exc.detail, path) from None


def libsvm_lines(ds: SvmDataset) -> Iterator[str]:
    """Serialize a dataset back to LIBSVM lines (1-based indices)."""
    bounds = ds.indptr.tolist()
    for label, a, b in zip(ds.labels.tolist(), bounds, bounds[1:]):
        pairs = zip(ds.indices[a:b].tolist(), ds.values[a:b].tolist())
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
        if "=" in key or "\n" in key or "\r" in key:
            raise ValueError(f"bad manifest key {key!r}")
        text = str(value)
        if "\n" in text or "\r" in text:
            raise ValueError(f"manifest value for {key!r} contains a line break")
        lines.append(f"{key}={text}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_manifest(path) -> dict[str, str]:
    """The key=value entries of a file, lines read by :func:`_read_lines`."""
    out: dict[str, str] = {}
    for line_no, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or key in out:
            fault = f"duplicate key {key!r}" if sep else "not key=value"
            raise ValueError(f"{path}: line {line_no}: {fault}")
        out[key] = value
    return out


def dataset_checksum(path) -> str:
    """SHA-256 of the raw file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
