"""Tests of the benchmark's own helpers: the tail rule, self time over
nested spans, and the COV1-shaped generator."""

import json
from pathlib import Path

import numpy as np
import pytest

import covgen
import harness
import measure
import run
from blockstoch.io import parse_libsvm
from workloads import WORKLOADS


class TestTail:
    def test_ten_samples_beyond(self):
        value, pct = harness.tail(range(1, 101))
        assert value == 90
        assert pct == 90.0
        assert sum(1 for s in range(1, 101) if s > value) == 10

    def test_percentile_rises_with_samples(self):
        value, pct = harness.tail(range(1000))
        assert (value, pct) == (989, 99.0)

    def test_needs_more_than_ten(self):
        with pytest.raises(ValueError):
            harness.tail(range(10))
        assert harness.tail(range(11)) == (0, 100.0 / 11)


def span(id, parent, start, end, name="x"):
    return harness.Span(id, parent, 0, name, start, end)


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [span(0, None, 0, 100), span(1, 0, 10, 40), span(2, 1, 20, 30),
                 span(3, 0, 50, 60)]
        own = harness.self_times(spans)
        assert own == {0: 60, 1: 20, 2: 10, 3: 10}

    def test_overlapping_children_count_as_their_union(self):
        # Two pool threads working for one parent at the same time.
        spans = [span(0, None, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 70)]
        assert harness.self_times(spans)[0] == 40

    def test_recorder_links_parents_and_summarizes(self):
        rec = harness.Recorder()
        inner = rec.wrap("inner", lambda v: v + 1)
        outer = rec.wrap("outer", lambda v: inner(inner(v)))
        assert outer(1) == 3
        by_name = {s.name: s for s in rec.spans}
        assert by_name["inner"].parent == by_name["outer"].id
        summary = harness.summarize(rec.spans)
        assert summary["inner"]["calls"] == 2
        assert summary["outer"]["self_s"] <= summary["outer"]["s"]
        assert harness.count_under(rec.spans, "outer", "inner") == 2


class TestCovGenerator:
    def test_deterministic_per_seed(self):
        assert covgen.make_split(3, 50, 20)[:2] == covgen.make_split(3, 50, 20)[:2]
        assert covgen.make_split(3, 50, 20)[0] != covgen.make_split(4, 50, 20)[0]

    def test_density_matches_cov1(self):
        train, _, _ = covgen.make_split(5, 2000, 10)
        ds = parse_libsvm(train.splitlines(), num_features=covgen.NUM_FEATURES)
        assert abs(ds.sparsity_percent() - 22.2) <= 1.0

    def test_train_and_test_share_the_separator(self):
        train, test, w_star = covgen.make_split(7, 500, 200)
        for text in (train, test):
            ds = parse_libsvm(text.splitlines(), num_features=covgen.NUM_FEATURES)
            scores = ds.matrix @ w_star
            assert np.all(np.where(scores >= 0.0, 1, -1) == ds.labels)
            assert 0.2 < np.mean(ds.labels > 0) < 0.8


def test_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in measure.LAYER_MAP.items()}
