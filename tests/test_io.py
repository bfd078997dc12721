"""LIBSVM parsing, trace CSV round-trips, subsampling, manifests."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from blockstoch import SvmDataset, TraceRecord, make_separable_dataset
from blockstoch.io import (
    ParseError,
    dataset_checksum,
    libsvm_lines,
    load_libsvm,
    parse_libsvm,
    read_manifest,
    read_trace,
    subsample,
    write_libsvm,
    write_manifest,
    write_trace,
)


def datasets_equal(a: SvmDataset, b: SvmDataset) -> bool:
    return a.num_features == b.num_features and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("indptr", "indices", "values", "labels"))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class TestParseLibsvm:
    def test_basic_line_shifts_to_zero_based(self):
        ds = parse_libsvm(["+1 3:0.5 7:1.0"])
        assert ds.m == 1 and ds.num_features == 7
        ex = ds.example(0)
        assert ex.label == 1
        np.testing.assert_array_equal(ex.indices, [2, 6])
        np.testing.assert_array_equal(ex.values, [0.5, 1.0])

    def test_featureless_example(self):
        ds = parse_libsvm(["+1 2:1.0", "-1"])
        assert ds.m == 2
        assert ds.example(1).indices.size == 0
        only = parse_libsvm(["-1"], num_features=3)
        assert only.num_features == 3

    def test_bad_value_reports_line_and_token(self):
        with pytest.raises(ParseError) as info:
            parse_libsvm(["1 5:abc"])
        assert info.value.line_no == 1
        assert "5:abc" in str(info.value)

    def test_bad_index(self):
        with pytest.raises(ParseError, match="bad index"):
            parse_libsvm(["1 x:1.0"])
        with pytest.raises(ParseError, match="1-based"):
            parse_libsvm(["1 0:1.0"])

    def test_missing_separator(self):
        with pytest.raises(ParseError, match="expected"):
            parse_libsvm(["1 34"])

    def test_non_monotone_indices(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_libsvm(["1 3:1.0 2:1.0"])
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_libsvm(["1 3:1.0 3:2.0"])

    def test_repeated_token_reports_its_own_column(self):
        with pytest.raises(ParseError, match=r"\(column 8\): indices must be strictly"):
            parse_libsvm(["+1 1:1 1:1"])
        # "1:1" also occurs inside the earlier "11:1".
        with pytest.raises(ParseError, match=r"'1:1' \(column 9\)"):
            parse_libsvm(["+1 11:1 1:1"])

    @pytest.mark.parametrize("line, token, column", [
        ("+1 1:nan", "1:nan", 4),
        ("+1 1:inf 2:-inf", "1:inf", 4),
        ("+1 1:1 2:-inf", "2:-inf", 8),
        ("-1 3:NaN", "3:NaN", 4),
        ("-1 1:2 4:1e999", "4:1e999", 8),
    ])
    def test_non_finite_values_rejected_with_location(self, line, token, column):
        with pytest.raises(ParseError) as info:
            parse_libsvm(["+1 1:0.5", line])
        assert info.value.line_no == 2
        assert f"{token!r} (column {column}): value is not finite" in str(info.value)

    def test_label_rules(self):
        assert parse_libsvm(["1 1:1"]).example(0).label == 1
        assert parse_libsvm(["-1.0 1:1"]).example(0).label == -1
        with pytest.raises(ParseError, match="remap"):
            parse_libsvm(["0 1:1"])
        remapped = parse_libsvm(["0 1:1", "1 2:1"], remap_zero_one=True)
        assert remapped.labels.tolist() == [-1, 1]
        with pytest.raises(ParseError, match="label"):
            parse_libsvm(["2 1:1"])
        with pytest.raises(ParseError, match="label"):
            parse_libsvm(["spam 1:1"])

    def test_blank_lines_skipped(self):
        ds = parse_libsvm(["", "  ", "+1 1:2.0", ""])
        assert ds.m == 1

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no examples"):
            parse_libsvm([])
        with pytest.raises(ParseError, match="no examples"):
            parse_libsvm(["", "   "])

    def test_explicit_zeros_dropped(self):
        ds = parse_libsvm(["1 2:0.0 3:1.0"])
        np.testing.assert_array_equal(ds.example(0).indices, [2])

    def test_features_override(self):
        ds = parse_libsvm(["1 2:1.0"], num_features=10)
        assert ds.num_features == 10
        with pytest.raises(ParseError, match="exceeds"):
            parse_libsvm(["1 12:1.0"], num_features=10)

    def test_cannot_infer_from_empty_examples(self):
        with pytest.raises(ParseError, match="infer"):
            parse_libsvm(["-1", "+1"])

    def test_round_trip_generated_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            indptr, indices, values, labels = [0], [], [], []
            n = int(rng.integers(3, 40))
            for _ in range(40):
                size = int(rng.integers(0, n))
                indices.extend(np.sort(rng.choice(n, size=size, replace=False)))
                vals = rng.standard_normal(size)
                vals[vals == 0.0] = 1.0
                values.extend(vals)
                indptr.append(len(indices))
                labels.append(int(rng.choice([-1, 1])))
            ds = SvmDataset(indptr, indices, values, labels, n, "corpus")
            again = parse_libsvm(libsvm_lines(ds), num_features=n, name="corpus")
            assert datasets_equal(ds, again)

    def test_file_round_trip(self, tmp_path):
        ds, _ = make_separable_dataset(30, 6, seed=0)
        path = tmp_path / "data.libsvm"
        write_libsvm(ds, path)
        again = load_libsvm(path)
        assert datasets_equal(ds, again)
        assert again.name == "data.libsvm"

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(1234)
        outcomes = {"ok": 0, "err": 0}
        for _ in range(10_000):
            size = int(rng.integers(0, 60))
            blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            text = blob.decode("latin-1")
            try:
                parse_libsvm(text.splitlines())
                outcomes["ok"] += 1
            except ParseError:
                outcomes["err"] += 1
        assert sum(outcomes.values()) == 10_000

    def test_fuzz_structured_lines(self):
        # Near-valid lines: mutate one character of a valid line.
        rng = np.random.default_rng(99)
        base = "+1 2:0.25 5:-1.5 9:3.0"
        for _ in range(2000):
            pos = int(rng.integers(0, len(base)))
            char = chr(int(rng.integers(32, 127)))
            line = base[:pos] + char + base[pos + 1:]
            try:
                parse_libsvm([line])
            except ParseError:
                pass

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\xff\xfe\x00broken")
        with pytest.raises(ParseError, match="UTF-8"):
            load_libsvm(path)


# ---------------------------------------------------------------------------
# Subsampling
# ---------------------------------------------------------------------------

class TestSubsample:
    def make(self, m=10):
        ds, _ = make_separable_dataset(m, 4, seed=8)
        return ds

    def test_full_fraction_identity(self):
        ds = self.make()
        sub = subsample(ds, 1.0, seed=0)
        assert datasets_equal(ds, sub)

    def test_floor_rule(self):
        assert subsample(self.make(10), 0.5, seed=1).m == 5
        assert subsample(self.make(10), 0.55, seed=1).m == 5
        assert subsample(self.make(10), 0.19, seed=1).m == 1

    def test_deterministic(self):
        ds = self.make(50)
        a = subsample(ds, 0.3, seed=7)
        b = subsample(ds, 0.3, seed=7)
        assert datasets_equal(a, b)
        c = subsample(ds, 0.3, seed=8)
        assert not datasets_equal(a, c)

    def test_preserves_feature_count(self):
        ds = self.make(20)
        assert subsample(ds, 0.25, seed=2).num_features == ds.num_features

    def test_rows_are_gathered_whole(self):
        ds = parse_libsvm(["+1 1:1 3:2", "-1", "+1 2:5", "-1 1:-1 2:1 3:4", "+1 3:7", "-1"])
        sub = subsample(ds, 0.5, seed=3)
        rows = np.sort(np.random.default_rng(3).choice(6, size=3, replace=False))
        assert sub.m == 3 and sub.nnz == sum(ds.example(int(i)).indices.size for i in rows)
        for r, i in enumerate(rows):
            for got, want in zip(sub.example(r), ds.example(int(i))):
                np.testing.assert_array_equal(got, want)

    def test_empty_result_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            subsample(self.make(10), 0.05, seed=0)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            subsample(self.make(), 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample(self.make(), 1.2, seed=0)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

class TestTraceRoundTrip:
    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([], path)
        assert path.read_text().splitlines() == ["k,objective,step_norm,tracker_error,elapsed_ns"]
        assert read_trace(path) == []

    def test_single_record_bitwise(self, tmp_path):
        record = TraceRecord(3, 0.1 + 0.2, 1.0 / 3.0, None, 123456789)
        path = tmp_path / "t.csv"
        write_trace([record], path)
        assert read_trace(path) == [record]

    def test_large_random_trace(self, tmp_path):
        rng = np.random.default_rng(5)
        ks = np.cumsum(rng.integers(1, 10, size=10_000))
        records = []
        for k in ks:
            objective = None if rng.random() < 0.2 else float(
                rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
            tracker = None if rng.random() < 0.5 else float(rng.random())
            records.append(TraceRecord(int(k), objective, float(abs(rng.standard_normal())),
                                       tracker, int(rng.integers(0, 2 ** 60))))
        path = tmp_path / "big.csv"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(path)

    def test_non_increasing_k(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,objective,step_norm,tracker_error,elapsed_ns\n"
                        "5,,1.0,,0\n5,,1.0,,0\n")
        with pytest.raises(ValueError, match="increase"):
            read_trace(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,objective,step_norm,tracker_error,elapsed_ns\n1,,x,,0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_trace(path)


# ---------------------------------------------------------------------------
# Manifests and checksums
# ---------------------------------------------------------------------------

class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = {"seed": 7, "lambda": repr(1e-6), "command": "blockstoch run --x 1"}
        path = tmp_path / "m.txt"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert back == {"seed": "7", "lambda": "1e-06", "command": "blockstoch run --x 1"}

    def test_rejects_bad_keys(self, tmp_path):
        with pytest.raises(ValueError):
            write_manifest({"a=b": 1}, tmp_path / "m.txt")
        with pytest.raises(ValueError):
            write_manifest({"a": "x\ny"}, tmp_path / "m.txt")

    def test_read_rejects_bad_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("novalue\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_checksum(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"payload")
        assert dataset_checksum(path) == hashlib.sha256(b"payload").hexdigest()


# ---------------------------------------------------------------------------
# Reference-dataset statistics (gated on local files)
# ---------------------------------------------------------------------------

def _find_reference(name: str):
    env = os.environ.get(f"BLOCKSTOCH_{name.upper()}")
    if env and Path(env).is_file():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / f"{name}.libsvm"
    return local if local.is_file() else None


@pytest.mark.parametrize("name,expected", [("cov1", 22.22), ("rcv1", 0.16)])
def test_reference_sparsity(name, expected):
    path = _find_reference(name)
    if path is None:
        pytest.skip(f"{name} dataset not present (set BLOCKSTOCH_{name.upper()} "
                    f"or put data/{name}.libsvm in place)")
    try:
        ds = load_libsvm(path)
    except ParseError:
        ds = load_libsvm(path, remap_zero_one=True)
    assert abs(ds.sparsity_percent() - expected) <= 0.5
