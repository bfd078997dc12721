"""LIBSVM parsing, trace CSV round-trips, subsampling, manifests."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import oracles
from blockstoch import SvmDataset, TraceRecord, make_separable_dataset
from blockstoch.io import (
    CHUNK_LINES,
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


def dataset_digest(ds: SvmDataset) -> tuple:
    """Feature count, name, and the dtype and bytes of each array."""
    return (ds.num_features, ds.name) + tuple(
        (getattr(ds, a).dtype.str, getattr(ds, a).tobytes())
        for a in ("indptr", "indices", "values", "labels"))


def parse_outcome(parse, lines, **kwargs):
    """The ParseError message, or the parsed dataset's digest."""
    try:
        return dataset_digest(parse(lines, **kwargs))
    except ParseError as exc:
        return str(exc)


def assert_parses_like_reference(lines, **kwargs):
    """The parser returns the reference parser's arrays bit for bit, or raises
    a ParseError with its message; any other exception escapes."""
    lines = list(lines)
    want = parse_outcome(oracles.reference_parse_libsvm, lines, **kwargs)
    assert parse_outcome(parse_libsvm, lines, **kwargs) == want, (lines[:3], kwargs)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class TestParseLibsvm:
    def test_basic_line_shifts_to_zero_based(self):
        ds = parse_libsvm(["+1 3:0.5 7:1.0"])
        assert ds.m == 1 and ds.num_features == 7
        indices, values, label = oracles.svm_row(ds, 0)
        assert label == 1
        np.testing.assert_array_equal(indices, [2, 6])
        np.testing.assert_array_equal(values, [0.5, 1.0])

    def test_featureless_example(self):
        ds = parse_libsvm(["+1 2:1.0", "-1"])
        assert ds.m == 2
        assert oracles.svm_row(ds, 1)[0].size == 0
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
        assert oracles.svm_row(parse_libsvm(["1 1:1"]), 0)[2] == 1
        assert oracles.svm_row(parse_libsvm(["-1.0 1:1"]), 0)[2] == -1
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
        for lines in ([], ["", "  ", "\t"]):
            with pytest.raises(ParseError) as info:
                parse_libsvm(lines)
            assert (info.value.line_no, str(info.value)) == (None, "no examples in input")

    def test_explicit_zeros_dropped(self):
        ds = parse_libsvm(["1 2:0.0 3:1.0"])
        np.testing.assert_array_equal(oracles.svm_row(ds, 0)[0], [2])

    def test_features_override(self):
        ds = parse_libsvm(["1 2:1.0"], num_features=10)
        assert ds.num_features == 10
        with pytest.raises(ParseError) as info:
            parse_libsvm(["1 12:1.0"], num_features=10)
        assert str(info.value) == ("line 1: token '12:1.0' (column 3): "
                                   "feature index 12 exceeds num_features 10")
        with pytest.raises(ParseError) as info:
            parse_libsvm(["-1 1:1", "", "+1 3:1 11:0 12:2 13:1"], num_features=10,
                         features_from="--features")
        assert info.value.line_no == 3
        assert info.value.detail == "token '12:2' (column 13): feature index 12 exceeds " \
                                    "--features 10"
        # An explicit zero is dropped, so its index is not a stored feature.
        assert parse_libsvm(["1 2:1 12:0"], num_features=10).indices.tolist() == [1]

    def test_cannot_infer_from_empty_examples(self):
        with pytest.raises(ParseError) as info:
            parse_libsvm(["-1", "", "+1"])
        assert info.value.line_no is None
        assert str(info.value) == "cannot infer feature count from all-empty examples"

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
        for _ in range(10_000):
            size = int(rng.integers(0, 60))
            blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            assert_parses_like_reference(blob.decode("latin-1").splitlines())

    def test_fuzz_structured_lines(self):
        # Near-valid lines: mutate one character of a valid line.
        rng = np.random.default_rng(99)
        base = "+1 2:0.25 5:-1.5 9:3.0"
        for _ in range(2000):
            pos = int(rng.integers(0, len(base)))
            char = chr(int(rng.integers(32, 127)))
            line = base[:pos] + char + base[pos + 1:]
            assert_parses_like_reference([line])
            assert_parses_like_reference(["-1 1:1", "", line, "+1 3:2"], remap_zero_one=True)

    @pytest.mark.parametrize("index", ["99999999999999999999", "9223372036854775808"])
    def test_index_above_int64_is_located(self, index):
        with pytest.raises(ParseError) as info:
            parse_libsvm(["-1 1:1", f"+1 2:1 {index}:1"])
        assert str(info.value) == f"line 2: token '{index}:1' (column 8): bad index"

    def test_largest_int64_index_is_read(self):
        ds = parse_libsvm(["+1 9223372036854775807:2"])
        assert ds.num_features == 2 ** 63 - 1
        assert ds.indices.tolist() == [2 ** 63 - 2]

    def test_num_features_must_be_positive(self):
        for n in (0, -2):
            with pytest.raises(ValueError, match=rf"^num_features={n}: must be positive$"):
                parse_libsvm(["+1 1:1"], num_features=n)

    @pytest.mark.parametrize("text, line_no, detail", [
        ("+1 1:1\n-1 x:1\n", 2, "token 'x:1' (column 4): bad index"),
        ("\n", None, "no examples in input"),
    ], ids=["token", "whole-input"])
    def test_file_faults_name_the_file(self, tmp_path, text, line_no, detail):
        path = tmp_path / "data.libsvm"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_libsvm(path)
        assert (info.value.path, info.value.line_no, info.value.detail) == (path, line_no, detail)
        where = "" if line_no is None else f"line {line_no}: "
        assert str(info.value) == f"{path}: {where}{detail}"

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\xff\xfe\x00broken")
        with pytest.raises(ParseError, match="UTF-8") as info:
            load_libsvm(path)
        assert info.value.line_no is None
        assert str(info.value).startswith(f"{path}: not valid UTF-8 text (")

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\u2028"])
    def test_file_lines_break_at_newline_only(self, tmp_path, char):
        # str.splitlines would break the first line in two at char.
        path = tmp_path / "data.libsvm"
        text = f"+1 1:0.5{char}2:0.3\n-1 1:1\n"
        path.write_text(text, encoding="utf-8")
        want = parse_libsvm(text.split("\n"), name=path.name)
        assert want.m == 2 and dataset_digest(load_libsvm(path)) == dataset_digest(want)
        path.write_text(f"+1 1:0.5{char}2:0.3\n-1 1:x\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_libsvm(path)
        assert (info.value.line_no, info.value.detail) == (2, "token '1:x' (column 4): bad value")

    def test_file_with_leading_bom(self, tmp_path):
        path = tmp_path / "data.libsvm"
        path.write_bytes("\ufeff+1 1:0.5\n-1 2:1\n".encode("utf-8"))
        want = parse_libsvm(["+1 1:0.5", "-1 2:1"], name=path.name)
        assert dataset_digest(load_libsvm(path)) == dataset_digest(want)


STRUCTURAL_LINES = [
    "+1 1:2:3 45", "1:2:3 45", "+1 1:1 2", "+1 2 1:1", "1:1 2:2", "+1 5:", "+1 :5",
    "+1 :", "+1 1::2", "+1 1:1:", "+1 1_0:2", "+1 1__0:2", "+1 _1:2", "+1 1:1_5",
    "+1 １:1", "+1 1：1", "+1 ٣:1", "+1 1:0x1", "+1 0x1:1", "+1 1:-0", "+1 1:+0.0",
    "+1 +5:1", "+1 -0:1", "+1 007:1", "+1 1:1e-400", "+1 1:1e999", "+1 1:-1e999",
    "+1 1:nan", "+1 1:infinity", "+1 1.0:1", "+1 1e1:1", "+1\xa01:1\xa02:3",
    "+1\x1c1:1\x1c\x1c2:2", "+1\t1:1\t 2:2 ", "+1 1:1\r", "\r", "", "   ", "\t",
    "+1 99999999999999999999:1", "+1 -99999999999999999999:1",
    "+1 9223372036854775807:1", "+1 9223372036854775808:1", "+1 3:1 3:2",
    "+1 3:1 2:1", "+1 0:1", "+1 -3:1", "+1 2:0 1:1", "0 1:1", "-0 1:1", "1 1:1",
    "+1", "-1.0", "2 1:1", "nan 1:1", "inf", "1_0 1:1", "+１ 1:1", "spam",
    "+1 1:1 \u2028 2:2", "+1 1:\ud800", "+1 \ud800:1", "+1 1:0", "-1 3:0 4:0",
]


class TestParserMatchesReference:
    """The vectorized parser against the per-token reference parser of
    tests/oracles.py, which the fuzz tests above also compare with."""

    @pytest.mark.parametrize("remap", [False, True])
    @pytest.mark.parametrize("features", [None, 5])
    def test_structural_lines(self, features, remap):
        kwargs = {"num_features": features, "remap_zero_one": remap}
        for line in STRUCTURAL_LINES:
            assert_parses_like_reference([line], **kwargs)
            assert_parses_like_reference(["+1 2:0.5", line, "-1 1:2"], **kwargs)

    def test_structural_corpus_in_one_input(self):
        for remap in (False, True):
            assert_parses_like_reference(STRUCTURAL_LINES, remap_zero_one=remap)
            assert_parses_like_reference(STRUCTURAL_LINES[::-1], remap_zero_one=remap)

    @staticmethod
    def long_input(rows):
        rng = np.random.default_rng(rows)
        lines = []
        for row in range(rows):
            cols = np.sort(rng.choice(40, size=int(rng.integers(0, 7)), replace=False)) + 1
            vals = np.round(rng.standard_normal(cols.size), int(rng.integers(0, 17)))
            tokens = [f"{c}:{float(v)!r}" for c, v in zip(cols, vals)]
            lines.append(" ".join([str(rng.choice(["+1", "-1", "1", "-1.0"]))] + tokens))
            if row % 97 == 0:
                lines.append("  " if row % 2 else "")
        return lines

    def test_multi_chunk_input(self):
        lines = self.long_input(3 * CHUNK_LINES)
        assert len(lines) > 3 * CHUNK_LINES
        assert parse_libsvm(lines).m == 3 * CHUNK_LINES
        assert_parses_like_reference(lines)
        assert_parses_like_reference(lines, num_features=40, name="long")

    @pytest.mark.parametrize("bad", ["+1 1:2:3 45", "+1 4:1 2:1", "+1 1:nan", "2 1:1",
                                     "+1 99999999999999999999:1", "+1 5:"])
    def test_first_fault_in_a_later_chunk(self, bad):
        for position in (CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, CHUNK_LINES + 100,
                         2 * CHUNK_LINES - 1):
            lines = self.long_input(2 * CHUNK_LINES + 50)
            lines[position] = bad
            lines[position + 40] = "+1 x:1"
            assert_parses_like_reference(lines)
            with pytest.raises(ParseError) as info:
                parse_libsvm(lines)
            assert info.value.line_no == position + 1

    def test_feature_range_fault_in_a_later_chunk(self):
        for position in (CHUNK_LINES - 1, CHUNK_LINES, 2 * CHUNK_LINES - 1):
            lines = self.long_input(2 * CHUNK_LINES + 50)
            lines[position] = "+1 3:1 41:0.5"
            lines[position + 40] = "+1 x:1"
            assert_parses_like_reference(lines, num_features=40)
            with pytest.raises(ParseError) as info:
                parse_libsvm(lines, num_features=40)
            assert info.value.line_no == position + 1

    def test_file_with_crlf_and_blank_lines(self, tmp_path):
        lines = self.long_input(CHUNK_LINES + 200)
        path = tmp_path / "crlf.libsvm"
        path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("utf-8"))
        text = path.read_text(encoding="utf-8")
        want = oracles.reference_parse_libsvm(text.splitlines(), name=path.name)
        got = load_libsvm(path)
        assert got.m == CHUNK_LINES + 200 and dataset_digest(got) == dataset_digest(want)


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
        assert sub.m == 3 and sub.nnz == sum(oracles.svm_row(ds, i)[0].size for i in rows)
        for r, i in enumerate(rows):
            for got, want in zip(oracles.svm_row(sub, r), oracles.svm_row(ds, i)):
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

    @pytest.mark.parametrize("value", ["a\x0bb", "a\x0cb", "a\x1cb", "a\x1db", "a\x1eb",
                                       "a\x85b", "a\u2028b", "a\u2029b"])
    def test_round_trip_keeps_characters_that_splitlines_breaks_at(self, tmp_path, value):
        path = tmp_path / "m.txt"
        write_manifest({"command": value, "dataset_path": value + ".libsvm", "seed": 1}, path)
        assert read_manifest(path) == {"command": value, "dataset_path": value + ".libsvm",
                                       "seed": "1"}

    @pytest.mark.parametrize("entries", [{"a": "x\ry"}, {"a\rb": 1}])
    def test_rejects_carriage_returns(self, tmp_path, entries):
        # Text mode reads a lone \r as a line break.
        with pytest.raises(ValueError):
            write_manifest(entries, tmp_path / "m.txt")

    def test_read_skips_a_leading_bom(self, tmp_path):
        path = tmp_path / "p.prob"
        path.write_bytes("\ufeffkind=quadratic\ndim=4\n".encode("utf-8"))
        assert read_manifest(path) == {"kind": "quadratic", "dim": "4"}

    def test_read_names_a_non_utf8_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"seed=1\nmethod=adam\xff\n")
        with pytest.raises(ParseError) as info:
            read_manifest(path)
        assert info.value.line_no is None
        assert str(info.value).startswith(f"{path}: not valid UTF-8 text (")

    def test_read_rejects_bad_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("novalue\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    # Keeping the last value would silently read another entry than the first.
    @pytest.mark.parametrize("text, fault", [
        ("kind=quadratic\ndim=3\nsigma=1.0\ndim=5\n", "line 4: duplicate key 'dim'"),
        ("seed=1\n\nseed=1\n", "line 3: duplicate key 'seed'"),
    ])
    def test_read_rejects_a_repeated_key(self, tmp_path, text, fault):
        path = tmp_path / "p.prob"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_manifest(path)
        assert str(err.value) == f"{path}: {fault}"

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
