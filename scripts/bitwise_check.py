"""Compare every method's final iterate and trace between two source trees.

    python scripts/bitwise_check.py OLD_SRC NEW_SRC

Each tree (a directory holding the ``blockstoch`` package) is imported in
its own subprocess, which runs all methods on fixed seeds and prints the raw bytes of the final iterates and the trace records
``(k, objective, step_norm, tracker_error)``.  The script reports, per
configuration and method, whether the two trees agree bit for bit, and
exits 1 if any differ.  A differing entry also shows the largest
relative difference over the numbers it holds (iterate entries, trace
values, numbers in the CLI's files), or says that one tree lacks the
entry or that the two hold different counts of numbers.  The
configurations are the benchmark's svm-loop shape (planted 1000 x 20
SVM, 4 blocks, B = 1, schedule (0.51, 0.75, 5.0)), the same at B = 64
(``svm-loop-b64``, where a mini-batch's rows meet each block), the same
at B = 1 for 300 iterations with a record at every one
(``svm-eval-every-1``, so every record's objective and tracker error
come through the SVM instance's shared margins), a Box/L2Ball
quadratic at batch 4, a quadratic at batch 4 with one Unconstrained,
one Box and one L2Ball block (so Adam's projected path runs with an
unconstrained block in it), and a parsed-sparse SVM at
batch 4 in 2 blocks: a fixed 2600-row LIBSVM corpus with CRLF line ends,
blank lines, rows of varying length, empty rows and explicit ``k:0``
tokens, which the worker writes, reads back with ``load_libsvm`` and
halves with ``subsample``, so the parser's output across its chunk
boundaries (``blockstoch.io.CHUNK_LINES`` lines each) and the
subsampler's output are compared too.  ``parsed-sparse-7`` runs the same
corpus at batch 4 over 7 uneven blocks, so block boundaries fall inside
rows and some rows have no entry in some blocks.
``parsed-sparse-per-feature-b1`` and ``-b4`` run it with one block per
feature, at batch 1 and 4: a row has 0-8 entries over 30 features, so
most (row, block) pairs are empty.  ``cov-per-feature-b8`` is the
COV1 shape at one block per feature: a 2000-row train file from
``perfbench/covgen.make_split`` (imported from the ``perfbench`` directory
beside this script, so both trees read the same file), read back with
``load_libsvm`` and run over 54 blocks at batch 8.
``quad-per-coordinate-b8`` and ``-b64`` run a 9-wide unconstrained
quadratic in 9 one-coordinate blocks for 500 iterations at batch 8 and
64: numpy sums a one-column slice of a batch in a different order from
the whole batch's ``mean(axis=0)`` once the batch has 8 or more rows, so
these entries tell a per-block batch mean from a joint one (at batch 4
and below, and for 2- and 3-wide blocks, the two agreed wherever
probed).  ``quad-refill`` is a
4096-wide quadratic at batch 4 in a Box and an Unconstrained block: one
batch is an eighth of ``blockstoch.core.DRAW_BYTES``, so the run's 2000
iterations take their batches from 250 prefetched draws of 8 and cross
a refill every 8 iterations (every other entry fits in one draw).
``quad-wide-20k`` is a 20000-wide quadratic at batch 1 in a Box and an
L2Ball block, run for 300 iterations: the first entry whose vectors are
longer than the 10^4 entries above which OpenBLAS splits a dot product
over its threads.  Its norms are sums taken by ``blockstoch.core._dot``
on one thread; in a tree that still sums through BLAS (``np.vdot``,
``np.linalg.norm``) they depend on the BLAS thread count, so the entry
compares equal only between trees that both have ``_dot``.
``svm-long-rows`` is an SVM on 24 dense rows of 12000 stored entries,
drawn without a BLAS call, in 3 blocks at batch 2 for 200 iterations, so
its row margins are longer than ``blockstoch.core.ROW_BLAS_MAX`` and take
``_dot`` where a shorter row takes BLAS ddot.  ``svm-long-rows-b1`` runs
the same at batch 1, the batch size at which mini-batch Pegasos takes
exactly ``pegasos_step``'s single-row step, so Pegasos's long-row margins
are compared there too.  ``quad-draw-sized`` (a Box/L2Ball quadratic
of ``DRAW_BYTES // 8 + 1`` entries at batch 1, 40 iterations) and
``svm-draw-sized`` (the svm-loop SVM at a batch of ``DRAW_BYTES // 16 + 1``
row indices, 10 iterations) are the entries whose batch fills a draw and
whose runs are at least ``blockstoch.core.PREFETCH_MIN_ITERS`` long: on a
machine with more than one usable CPU, a tree that draws each batch on a
worker thread while the step runs is compared there with one that draws
it on the calling thread, or with itself.  The
``cli-compare`` entries run
``blockstoch compare --batch 3 --test-data --log-sample-indices`` on that
corpus and compare each method's trace, sample log and manifest, and the
summary table; manifests leave out ``command`` and the two timings, the
summary its ``cpu_seconds`` column.  Every other entry runs to its
iteration count; the ``cli-term-eps`` entries run the same corpus through
``blockstoch compare --lambda 0.1 --term-eps 0.35``, whose stop rule ends
each method before ``--iters`` (proposed at iteration 90, pegasos at 657,
adam at 1 and avg-sca at 2), and compare each method's trace and manifest.
The ``cli-gen`` entries hold the bytes that ``blockstoch gen separable-svm``
writes with fixed flags and ``--seed 4``: ``cli-gen/separable-svm`` a 40 x 7
planted file, ``cli-gen/separable-svm-wide`` a 30 x 500 one, so the
generator's CSR arrays are compared on rows of 500 entries, not only 7.
The ``cli-synthetic`` entries run ``blockstoch run --synthetic`` on the
specs ``quad-d12-s0.5`` and ``noncvx`` at batch 2 for proposed, adam and
avg-sca, and compare each run's trace and manifest (without ``command``
and the two timings): the problem a spec string names is compared from
the string to the files the run writes.
``io-write/parsed-sparse`` holds the bytes that ``write_libsvm`` writes for
the subsampled parsed-sparse corpus, whose empty rows, dropped ``k:0``
tokens and rows of varying length the dense ``cli-gen`` rows never have.
Each ``avg-sca`` entry averages with exponent 0.8 under the schedule
(0.51, 0.75, 5.0) and 1.0, the CLI's default, under ``Schedule()``:
``run_averaged_sca`` refuses an exponent at or below the schedule's alpha
exponent (0.9 there), as the CLI does.  ``avg-sca-pinned`` runs exponent 0.
"""

import json
import math
import os
import re
import struct
import subprocess
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")

WORKER = r'''
import contextlib, csv, io, json, os, sys, tempfile
from pathlib import Path
import numpy as np
from blockstoch import cli
from blockstoch.io import read_manifest
from blockstoch import (Box, L2Ball, RunConfig, Schedule, SvmDataset, SvmProblem, Unconstrained,
                        make_quadratic, make_separable_dataset, run, run_adam,
                        run_averaged_sca, run_pegasos)
from blockstoch.core import DRAW_BYTES
from blockstoch.io import load_libsvm, subsample, write_libsvm
import covgen

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
per_coordinate = make_quadratic(9, noise_stddev=1.0, target=np.linspace(-3.0, 3.0, 9),
                                n_blocks=9)
dim = DRAW_BYTES // 8 + 1  # one batch of 1 fills a draw
draw_sized = make_quadratic(dim, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, dim),
                            n_blocks=2,
                            feasible_sets=[Box(-np.ones(dim // 2), np.ones(dim // 2)),
                                           L2Ball(np.full(dim - dim // 2, 0.01), 50.0)])
wide = make_quadratic(20000, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 20000),
                      n_blocks=2, feasible_sets=[Box(-np.ones(10000), np.ones(10000)),
                                                 L2Ball(np.full(10000, 0.01), 30.0)])
rng = np.random.default_rng(13)  # dense rows of 12000 entries, drawn without a BLAS call
long_rows = SvmProblem.with_blocks(
    SvmDataset(np.arange(0, 24 * 12000 + 1, 12000), np.tile(np.arange(12000), 24),
               rng.standard_normal(24 * 12000), np.where(rng.random(24) < 0.5, -1, 1), 12000),
    1e-2, 3)
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
    write_libsvm(corpus, Path(tmp) / "written.libsvm")
    out["io-write/parsed-sparse"] = (Path(tmp) / "written.libsvm").read_bytes().decode("utf-8")
    parsed = SvmProblem.with_blocks(corpus, 1e-2, 2)
    cuts = (0, 1, 3, 8, 9, 17, 26, corpus.num_features)
    parsed7 = SvmProblem(corpus, 1e-2, tuple(zip(cuts[:-1], cuts[1:])))
    per_feature = SvmProblem.with_blocks(corpus, 1e-2, corpus.num_features)
    cov_path = Path(tmp) / "cov.libsvm"
    cov_path.write_text(covgen.make_split(3, 2000, 1)[0], encoding="utf-8")
    cov = load_libsvm(cov_path)
    cov_per_feature = SvmProblem.with_blocks(cov, 1e-4, cov.num_features)
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
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compare", "--data", "corpus.libsvm", "--lambda", "0.1",
                             "--batch", "3", "--iters", "2000", "--eval-every", "100",
                             "--seed", "5", "--term-eps", "0.35", "--outdir", "stop"])
        if code != 0:
            raise SystemExit(f"compare --term-eps exited {code}")
        for method in cli.METHODS:
            trace = Path(f"stop/{method}.trace.csv").read_text()
            if int(trace.splitlines()[-1].split(",")[0]) >= 2000:
                raise SystemExit(f"--term-eps did not stop {method} before --iters")
            manifest = read_manifest(f"stop/{method}.manifest.txt")
            out[f"cli-term-eps/{method}"] = {
                "trace": trace, "manifest": {k: v for k, v in manifest.items() if k not in timings}}
        for name, spec, flags in (
                ("separable-svm", "separable-svm",
                 ("--m", "40", "--n", "7", "--margin", "0.3")),
                ("separable-svm-wide", "separable-svm",
                 ("--m", "30", "--n", "500", "--margin", "0.3"))):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["gen", spec, *flags, "--seed", "4", "--out", f"gen/{name}"])
            if code != 0:
                raise SystemExit(f"gen {name} exited {code}")
            out[f"cli-gen/{name}"] = Path(f"gen/{name}").read_bytes().decode("utf-8")
        for spec in ("quad-d12-s0.5", "noncvx"):
            for method in ("proposed", "adam", "avg-sca"):
                outdir = f"syn/{spec}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--method", method, "--synthetic", spec,
                                     "--batch", "2", "--iters", "1000", "--eval-every", "100",
                                     "--seed", "5", "--outdir", outdir])
                if code != 0:
                    raise SystemExit(f"run --synthetic {spec} --method {method} exited {code}")
                manifest = read_manifest(f"{outdir}/{method}.manifest.txt")
                out[f"cli-synthetic/{spec}/{method}"] = {
                    "trace": Path(f"{outdir}/{method}.trace.csv").read_text(),
                    "manifest": {k: v for k, v in manifest.items() if k not in timings}}
    finally:
        os.chdir(cwd)
for name, problem, schedule, batch, iters in (
        ("svm-loop", svm, Schedule(0.51, 0.75, 5.0), 1, 2000),
        ("svm-loop-b64", svm, Schedule(0.51, 0.75, 5.0), 64, 2000),
        ("svm-eval-every-1", svm, Schedule(0.51, 0.75, 5.0), 1, 300),
        ("quad-box-ball", quad, Schedule(), 4, 2000),
        ("quad-mixed", mixed, Schedule(), 4, 2000),
        ("parsed-sparse", parsed, Schedule(), 4, 2000),
        ("parsed-sparse-7", parsed7, Schedule(), 4, 2000),
        ("parsed-sparse-per-feature-b1", per_feature, Schedule(), 1, 2000),
        ("parsed-sparse-per-feature-b4", per_feature, Schedule(), 4, 2000),
        ("quad-refill", refill, Schedule(), 4, 2000),
        ("quad-wide-20k", wide, Schedule(), 1, 300),
        ("svm-long-rows", long_rows, Schedule(), 2, 200),
        ("svm-long-rows-b1", long_rows, Schedule(), 1, 200),
        ("cov-per-feature-b8", cov_per_feature, Schedule(0.51, 0.75, 5.0), 8, 2000),
        ("quad-per-coordinate-b8", per_coordinate, Schedule(), 8, 500),
        ("quad-per-coordinate-b64", per_coordinate, Schedule(), 64, 500),
        ("quad-draw-sized", draw_sized, Schedule(), 1, 40),
        ("svm-draw-sized", svm, Schedule(0.51, 0.75, 5.0), DRAW_BYTES // 16 + 1, 10)):
    inst = problem.instance()
    config = RunConfig(schedule=schedule, batch_size=batch, max_iters=iters,
                       eval_every={"svm-eval-every-1": 1, "quad-draw-sized": 10,
                                   "svm-draw-sized": 2}.get(name, 100), seed=5)
    out[f"{name}/proposed"] = digest(*run(inst, config))
    out[f"{name}/adam"] = digest(*run_adam(inst, config))
    rho_avg = 0.8 if schedule.alpha_exponent < 0.8 else 1.0
    out[f"{name}/avg-sca"] = digest(*run_averaged_sca(inst, config, rho_avg))
    out[f"{name}/avg-sca-pinned"] = digest(*run_averaged_sca(inst, config, 0.0))
    if isinstance(problem, SvmProblem):
        out[f"{name}/pegasos"] = digest(*run_pegasos(problem, config))
json.dump(out, sys.stdout)
'''


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def results(src: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", WORKER], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src + os.pathsep + PERFBENCH},
                          check=True)
    return json.loads(proc.stdout)


def numbers(value, key: str = "") -> list[float]:
    """The numbers an entry holds, in order: a final iterate ``x`` decoded
    from its bytes, anything else read off its text."""
    if isinstance(value, dict):
        return [n for k in sorted(value) for n in numbers(value[k], k)]
    if isinstance(value, list):
        return [n for item in value for n in numbers(item)]
    if key == "x":
        return [f for (f,) in struct.iter_unpack("<d", bytes.fromhex(value))]
    return [float(token) for token in NUMBER.findall(str(value))]


def difference(old, new, key: str = "") -> str:
    """How far a differing entry moved: its largest relative difference,
    per differing field when the entry is a dict (``x``, ``trace``, ...)."""
    if old is None or new is None:
        return "absent in the " + ("old" if old is None else "new") + " tree"
    if isinstance(old, dict) and isinstance(new, dict):
        return "; ".join(f"{k}: {difference(old.get(k), new.get(k), k)}"
                         for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k))
    a, b = numbers(old, key), numbers(new, key)
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    worst = 0.0
    for u, v in zip(a, b):
        if u != v and not (math.isnan(u) and math.isnan(v)):
            worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    return f"largest relative difference {worst:.2g}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (results(src) for src in argv)
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        same = old.get(key) == new.get(key)
        differ += not same
        print(f"{key}: bitwise equal" if same
              else f"{key}: DIFFERS ({difference(old.get(key), new.get(key))})")
    print(f"{len(old.keys() | new.keys()) - differ} equal, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
