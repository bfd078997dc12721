"""Compare every method's final iterate and trace between two source trees.

    python scripts/bitwise_check.py OLD_SRC NEW_SRC

Each tree (a directory holding the ``blockstoch`` package) is imported in
its own subprocess, which runs all methods on fixed seeds with ``MaxIters``
and prints the raw bytes of the final iterates and the trace records
``(k, objective, step_norm, tracker_error)``.  The script reports, per
configuration and method, whether the two trees agree bit for bit, and
exits 1 if any differ.  The configurations are the benchmark's svm-loop
shape (planted 1000 x 20 SVM, 4 blocks, B = 1, schedule (0.51, 0.75,
5.0)), a Box/L2Ball quadratic at batch 4, a quadratic at batch 4 with
one Unconstrained, one Box and one L2Ball block (so Adam's projected path
runs with an unconstrained block in it), and a parsed-sparse SVM at
batch 4 in 2 blocks: a fixed 2600-row LIBSVM corpus with CRLF line ends,
blank lines, rows of varying length, empty rows and explicit ``k:0``
tokens, which the worker writes, reads back with ``load_libsvm`` and
halves with ``subsample``, so the parser's output across its chunk
boundaries (``blockstoch.io.CHUNK_LINES`` lines each) and the
subsampler's output are compared too.  ``parsed-sparse-7`` runs the same
corpus at batch 4 over 7 uneven blocks, so block boundaries fall inside
rows and some rows have no entry in some blocks.  ``quad-refill`` is a
4096-wide quadratic at batch 4 in a Box and an Unconstrained block: one
batch is an eighth of ``blockstoch.core.DRAW_BYTES``, so the run's 2000
iterations take their batches from 250 prefetched draws of 8 and cross
a refill every 8 iterations (every other entry fits in one draw).  The
``cli-compare`` entries run
``blockstoch compare --batch 3 --test-data --log-sample-indices`` on that
corpus and compare each method's trace, sample log and manifest, and the
summary table; manifests leave out ``command`` and the two timings, the
summary its ``cpu_seconds`` column.
"""

import json
import os
import subprocess
import sys

WORKER = r'''
import contextlib, csv, io, json, os, sys, tempfile
from pathlib import Path
import numpy as np
from blockstoch import cli
from blockstoch.io import read_manifest
from blockstoch import (Box, L2Ball, RunConfig, Schedule, SvmProblem, Unconstrained,
                        make_quadratic, make_separable_dataset, run, run_adam,
                        run_averaged_sca, run_pegasos)
from blockstoch.io import load_libsvm, subsample

def digest(x, trace):
    rows = [(r.k, r.objective, r.step_norm, r.tracker_error) for r in trace]
    return {"x": np.asarray(x).tobytes().hex(), "trace": repr(rows)}

out = {}
ds, _ = make_separable_dataset(1000, 20, seed=3)
svm = SvmProblem.with_blocks(ds, 1e-2, 4)
quad = make_quadratic(6, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 6), n_blocks=2,
                      feasible_sets=[Box(-np.ones(3), np.ones(3)),
                                     L2Ball(np.array([0.05, -0.02, 0.0]), 0.8)])
mixed = make_quadratic(9, noise_stddev=1.0, target=np.linspace(-3.0, 3.0, 9), n_blocks=3,
                       feasible_sets=[Unconstrained(3), Box(-np.ones(3), np.full(3, 0.5)),
                                      L2Ball(np.array([0.1, 0.0, -0.1]), 1.2)])
refill = make_quadratic(4096, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 4096),
                        n_blocks=2, feasible_sets=[Box(-np.ones(2048), np.ones(2048)),
                                                   Unconstrained(2048)])
rng = np.random.default_rng(11)
lines = []
for row in range(2600):
    cols = np.sort(rng.choice(30, size=int(rng.integers(0, 9)), replace=False)) + 1
    vals = rng.standard_normal(cols.size)
    if row % 5 == 0 and cols.size:
        vals[0] = 0.0  # a k:0 token, which the parser drops
    lines.append(" ".join(["+1" if rng.random() < 0.5 else "-1"]
                          + [f"{c}:{float(v)!r}" for c, v in zip(cols, vals)]))
    if row % 150 == 0:
        lines.append("")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.libsvm"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    corpus = subsample(load_libsvm(path), 0.5, 4)
    parsed = SvmProblem.with_blocks(corpus, 1e-2, 2)
    cuts = (0, 1, 3, 8, 9, 17, 26, corpus.num_features)
    parsed7 = SvmProblem(corpus, 1e-2, tuple(zip(cuts[:-1], cuts[1:])))
    # Relative paths keep the manifests free of the temporary directory's name.
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compare", "--data", "corpus.libsvm", "--test-data", "corpus.libsvm",
                             "--batch", "3", "--iters", "2000", "--eval-every", "100",
                             "--seed", "5", "--log-sample-indices", "--outdir", "cmp"])
        if code != 0:
            raise SystemExit(f"compare exited {code}")
        timings = ("command", "cpu_seconds", "wall_seconds")
        for method in cli.METHODS:
            prefix = f"cli-compare/{method}"
            out[f"{prefix}/trace"] = Path(f"cmp/{method}.trace.csv").read_text()
            out[f"{prefix}/samples"] = Path(f"cmp/{method}.samples.txt").read_text()
            manifest = read_manifest(f"cmp/{method}.manifest.txt")
            out[f"{prefix}/manifest"] = {k: v for k, v in manifest.items() if k not in timings}
        with open("cmp/summary.csv", newline="", encoding="utf-8") as fh:
            out["cli-compare/summary"] = [{k: v for k, v in row.items() if k != "cpu_seconds"}
                                          for row in csv.DictReader(fh)]
    finally:
        os.chdir(cwd)
for name, problem, schedule, batch in (
        ("svm-loop", svm, Schedule(0.51, 0.75, 5.0), 1),
        ("quad-box-ball", quad, Schedule(), 4),
        ("quad-mixed", mixed, Schedule(), 4),
        ("parsed-sparse", parsed, Schedule(), 4),
        ("parsed-sparse-7", parsed7, Schedule(), 4),
        ("quad-refill", refill, Schedule(), 4)):
    inst = problem.instance()
    config = RunConfig(schedule=schedule, batch_size=batch, max_iters=2000, eval_every=100,
                       seed=5)
    out[f"{name}/proposed"] = digest(*run(inst, config))
    out[f"{name}/adam"] = digest(*run_adam(inst, config))
    out[f"{name}/avg-sca"] = digest(*run_averaged_sca(inst, config, 0.8))
    out[f"{name}/avg-sca-pinned"] = digest(*run_averaged_sca(inst, config, 0.0))
    if isinstance(problem, SvmProblem):
        out[f"{name}/pegasos"] = digest(*run_pegasos(problem, config))
json.dump(out, sys.stdout)
'''


def results(src: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", WORKER], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(proc.stdout)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (results(src) for src in argv)
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        same = old.get(key) == new.get(key)
        differ += not same
        print(f"{key}: {'bitwise equal' if same else 'DIFFERS'}")
    print(f"{len(old.keys() | new.keys()) - differ} equal, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
