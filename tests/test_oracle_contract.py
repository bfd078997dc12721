"""The SVM oracle contract that a wrapping tracer relies on.

A tracer such as ``perfbench/harness.traced`` hands out SVM instances
rebuilt with ``dataclasses.replace(instance, batch_grad=wrapper)``, and its
wrapper reads ``block_ranges[l]`` and the batch's rows on every
``batch_grad(batch, x, l)`` call.  These tests wrap the oracle the same way,
without importing the tracer, and check that the library methods and
``blockstoch compare`` call it once per block per iteration, with ``l`` a
Python int that names a block.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from blockstoch import RunConfig, SvmProblem, cli, run, run_adam, run_averaged_sca
from blockstoch.io import load_libsvm

ITERS = 40


def wrapping_class(calls: Counter) -> type:
    """SvmProblem subclass whose instances count their ``batch_grad`` calls
    per block and check each call's block index and batch."""
    class WrappedSvmProblem(SvmProblem):
        def instance(self):
            inst = super().instance()
            ranges = self.block_ranges

            def batch_grad(batch, x, l):
                assert type(l) is int and 0 <= l < len(ranges), l
                start, stop = ranges[l]
                rows = np.asarray(batch)  # the tracer's byte count indexes rows by it
                assert rows.ndim == 1 and rows.dtype.kind == "i", batch
                calls[l] += 1
                g = inst.batch_grad(batch, x, l)
                assert g.shape == (stop - start,)
                return g

            return dataclasses.replace(inst, batch_grad=batch_grad)
    return WrappedSvmProblem


@pytest.fixture
def sparse_file(tmp_path):
    """A LIBSVM file of 60 rows over 12 features, 0-4 entries per row, so
    most (row, block) pairs at 12 blocks are empty."""
    rng = np.random.default_rng(0)
    lines = []
    for row in range(60):
        cols = np.sort(rng.choice(12, size=int(rng.integers(0, 5)), replace=False)) + 1
        if row == 0:
            cols = np.array([1, 12])  # the file spans all 12 features
        lines.append(" ".join([str(rng.choice(["+1", "-1"]))]
                              + [f"{c}:{float(rng.standard_normal())!r}" for c in cols]))
    path = tmp_path / "train.libsvm"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("n_blocks", [1, 4, 12])
@pytest.mark.parametrize("method", [run, run_adam, run_averaged_sca],
                         ids=["proposed", "adam", "avg-sca"])
def test_library_methods_call_each_block_once_per_iteration(sparse_file, method, n_blocks):
    calls = Counter()
    problem = wrapping_class(calls).with_blocks(load_libsvm(sparse_file), 1e-2, n_blocks)
    config = RunConfig(batch_size=3, max_iters=ITERS, eval_every=10, seed=2)
    _, trace = method(problem.instance(), config)
    assert trace[-1].k == ITERS
    assert calls == {l: ITERS for l in range(n_blocks)}


def test_cli_compare_calls_each_block_once_per_iteration(sparse_file, tmp_path, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(cli, "SvmProblem", wrapping_class(calls))
    assert cli.main(["compare", "--data", str(sparse_file), "--blocks", "4", "--batch", "3",
                     "--iters", str(ITERS), "--eval-every", "10",
                     "--outdir", str(tmp_path / "cmp")]) == 0
    # proposed, adam and avg-sca read the oracle; pegasos reads its batch's rows
    # through problems.hinge_pass, not through batch_grad.
    assert calls == {l: 3 * ITERS for l in range(4)}
