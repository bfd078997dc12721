"""Race the four methods on COV1-shaped data: final objective against
samples consumed and against wall seconds.

    python scripts/race.py [--out race.csv]

Data: the train split of ``perfbench/covgen.make_split(1, 10000, 2500)``
(imported from the ``perfbench`` directory beside this script), all 10^4
rows, in 4 blocks.  The grid, fixed before the first run:

- lambda 1e-4 and 1e-6;
- the CLI default schedule (0.6, 0.9, 1.0) and the tuned (0.51, 0.75, 5.0);
- B = 1 for 10^4 iterations and B = 16 for 2000 iterations;
- the proposed method, mini-batch Pegasos, Adam (lr 1e-3) and the averaged
  variant (``rho_avg`` 1.0), each with the CLI's default settings;
- run seeds 1, 2 and 3.

Pegasos and Adam take no schedule, so their two schedule rows are the
same runs.  Every run records its objective 10 times; a record's samples
consumed are k * B, and its wall seconds are the run's elapsed time,
record evaluations included.  ``--out`` writes every record as CSV
(``lam, schedule, batch, iters, method, seed, k, samples, wall_s,
objective``).  Standard output is a Markdown table of the median final
objective and the median wall seconds over the three seeds, one row per
(lambda, schedule, B) and one column pair per method.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import covgen  # noqa: E402

from blockstoch import (  # noqa: E402
    AdamParams,
    RunConfig,
    Schedule,
    SvmProblem,
    run,
    run_adam,
    run_averaged_sca,
    run_pegasos,
)
from blockstoch.io import parse_libsvm  # noqa: E402

LAMBDAS = (1e-4, 1e-6)
SCHEDULES = {"default": Schedule(0.6, 0.9, 1.0), "tuned": Schedule(0.51, 0.75, 5.0)}
SIZES = ((1, 10_000), (16, 2_000))
SEEDS = (1, 2, 3)
METHODS = {
    "proposed": lambda problem, config: run(problem.instance(), config),
    "pegasos": run_pegasos,
    "adam": lambda problem, config: run_adam(problem.instance(), config, AdamParams(lr=1e-3)),
    "avg-sca": lambda problem, config: run_averaged_sca(problem.instance(), config, rho_avg=1.0),
}
FIELDS = ("lam", "schedule", "batch", "iters", "method", "seed", "k", "samples", "wall_s",
          "objective")


def settings():
    """The grid's rows, in table order: (lambda, schedule name, B, iterations)."""
    return [(lam, name, batch, iters) for lam in LAMBDAS for name in SCHEDULES
            for batch, iters in SIZES]


def race() -> list[dict]:
    train = parse_libsvm(covgen.make_split(1, 10_000, 2_500)[0].splitlines())
    problems = {lam: SvmProblem.with_blocks(train, lam, 4) for lam in LAMBDAS}
    rows = []
    for (lam, schedule, batch, iters), method, seed in itertools.product(settings(), METHODS,
                                                                         SEEDS):
        config = RunConfig(schedule=SCHEDULES[schedule], batch_size=batch, max_iters=iters,
                           eval_every=iters // 10, seed=seed)
        for record in METHODS[method](problems[lam], config)[1]:
            rows.append({"lam": lam, "schedule": schedule, "batch": batch, "iters": iters,
                         "method": method, "seed": seed, "k": record.k,
                         "samples": record.k * batch, "wall_s": record.elapsed_ns / 1e9,
                         "objective": record.objective})
    return rows


def table(rows: list[dict]) -> str:
    """Median final objective and wall seconds over the seeds, as Markdown."""
    finals = {}
    for r in rows:
        if r["k"] == r["iters"]:
            key = (r["lam"], r["schedule"], r["batch"], r["method"])
            finals.setdefault(key, []).append(r)
    lines = ["| lambda | schedule | B, iters | " + " | ".join(METHODS) + " |",
             "|" + "---|" * (3 + len(METHODS))]
    for lam, schedule, batch, iters in settings():
        cells = []
        for method in METHODS:
            mine = finals[lam, schedule, batch, method]
            objective = statistics.median(r["objective"] for r in mine)
            wall = statistics.median(r["wall_s"] for r in mine)
            cells.append(f"{objective:.4g} ({wall:.2f} s)")
        lines.append(f"| {lam:g} | {schedule} | {batch}, {iters} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every trace record to this CSV file")
    args = parser.parse_args(argv)
    rows = race()
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
