"""The benchmark's traced path, run end to end on tiny workloads.

``perfbench/measure.traced_run`` wraps every layer of the library through
``perfbench/harness.traced``: problem callables are swapped with
``dataclasses.replace``, feasible sets become ``TracedSet`` proxies, and the
CLI builds its problems through traced subclasses.  Library code that only
works on the untraced objects (a problem class that reads its sets from its
own ``instance()``, for one) passes every other test and fails here, as a
CLI that exits 1.  These tests import the benchmark's own ``harness``,
``measure`` and ``workloads`` modules rather than copying them, so a change
to the benchmark that alters ``measure.traced_run`` or ``workloads.State``
must update this file too.  ``tests/test_oracle_contract.py`` checks the
SVM oracle contract alone, without the benchmark.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from blockstoch import Box, L2Ball, Schedule, SvmProblem  # noqa: E402
from blockstoch import io as dataio  # noqa: E402
from blockstoch.problems import make_quadratic, make_separable_dataset  # noqa: E402


def svm_loop_state(work: Path) -> workloads.State:
    """A planted 80 x 8 SVM in 4 blocks; the CLI compares on its LIBSVM file."""
    ds, _ = make_separable_dataset(80, 8, seed=1, name="tiny-svm")
    data = work / "tiny.libsvm"
    dataio.write_libsvm(ds, data)
    argv = ["compare", "--data", str(data), "--lambda", "1e-2", "--blocks", "4",
            "--iters", "40", "--eval-every", "20", "--seed", "1",
            "--rho-omega", "0.51", "--rho-alpha", "0.75", "--alpha-scale", "5.0",
            "--rho-avg", "0.8", "--outdir", "{out}"]
    return workloads.State(SvmProblem.with_blocks(ds, 1e-2, 4), Schedule(0.51, 0.75, 5.0),
                           chunk=20, rho_avg=0.8, cli_argvs=[argv])


def quad_wide_state(work: Path) -> workloads.State:
    """An 8-D quadratic in a Box and an L2Ball block; the CLI runs the
    built-in ``quad-d8`` once per method that takes a synthetic problem."""
    problem = make_quadratic(8, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 8),
                             n_blocks=2, feasible_sets=[Box(-np.ones(4), np.ones(4)),
                                                        L2Ball(np.full(4, 0.05), 1.0)])
    argvs = [["run", "--method", method, "--synthetic", "quad-d8", "--blocks", "2",
              "--iters", "30", "--eval-every", "10", "--seed", "1", "--outdir", "{out}"]
             for method in ("proposed", "adam", "avg-sca")]
    return workloads.State(problem, Schedule(), chunk=5, rho_avg=1.0, cli_argvs=argvs,
                           target_gap=5.0)


@pytest.mark.parametrize("name, build", [("svm-loop", svm_loop_state),
                                         ("quad-wide", quad_wide_state)],
                         ids=["svm-loop", "quad-wide"])
def test_traced_run_has_no_failed_operation(tmp_path, name, build):
    state = build(tmp_path)
    state.reference = harness.Reference("small-array")
    ops = workloads.Ops()
    metrics, _ = measure.traced_run(ops, state, name, 1, 0.0, tmp_path, tmp_path / "spans", 0)
    assert ops.failed == 0, ops.failures
    assert metrics["problems.grad.calls"]["value"] > 0
