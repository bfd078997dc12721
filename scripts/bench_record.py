"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

    python scripts/bench_record.py --out BENCH_13.json [--runs 4]

For every workload in the repository's ``BENCHMARK.json`` the script runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once per
seed 1..runs, one process at a time, with T the file's ``run_seconds``, so
every point of the trajectory is measured at the benchmark's run length.  The runs alternate over the
workloads (seed 1 of each workload, then seed 2 of each, ...), so a slow
phase of the machine falls on every workload alike.  From each run it
reads the last line of standard output, the JSON object ``{"correct",
"attempted", "failed", "metrics": {name: {"value", "unit"}}}``, and the
text line ``<workload> as measured, before scaling to reference speed:
name=value, ...``.  It writes, per workload, the median and the
interquartile range of every gated (scaled) metric, the medians of the
unscaled values, and the attempted and failed operation counts summed
over the runs.

The file also records the machine (cpu model, nproc), the Python, numpy
and scipy versions, the commit (``git rev-parse HEAD``, and ``dirty``
when the tree has uncommitted changes), the git tree hashes of ``src`` and
``perfbench`` as they stand in the working tree (a point recorded on a
dirty tree names the measured code this way: the hashes equal
``git rev-parse <commit>:src`` of any commit that holds the same files),
``wc -l src/blockstoch/*.py``, and
the wall time and summary line of the tier-1 tests
(``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

REPO = Path(__file__).resolve().parent.parent
UNSCALED = re.compile(r"^\S+ as measured, before scaling to reference speed: (.*)$")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git(*args: str, env: dict | None = None) -> str | None:
    proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True,
                          env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def worktree_trees(*dirs: str) -> dict[str, str | None]:
    """The git tree hash of each directory's files as they stand in the
    working tree, tracked or not (ignored files left out), built in a
    throwaway index so the repository's own index is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        if git("add", "-A", "--", *dirs, env=env) is None:
            return dict.fromkeys(dirs)
        tree = git("write-tree", env=env)
    return {d: git("rev-parse", f"{tree}:{d}") if tree else None for d in dirs}


def line_counts() -> dict[str, int]:
    counts = {p.name: len(p.read_bytes().splitlines())
              for p in sorted((REPO / "src" / "blockstoch").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def tier1() -> dict:
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else ""}


def bench_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(the run's result object, its unscaled values) for one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=REPO, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    unscaled = {}
    for line in lines:
        match = UNSCALED.match(line)
        if match:
            for item in match.group(1).split(", "):
                name, value = item.split("=")
                unscaled[name] = float(value)
    return json.loads(lines[-1]), unscaled


def summarize(results: list[tuple[dict, dict]]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result, _ in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    metrics = {}
    for name, vals in values.items():
        q1, median, q3 = np.percentile(vals, [25, 50, 75])
        metrics[name] = {"unit": units[name], "median": float(median),
                         "iqr": float(q3 - q1), "n": len(vals)}
    unscaled: dict[str, list[float]] = {}
    for _, raw in results:
        for name, value in raw.items():
            unscaled.setdefault(name, []).append(value)
    return {
        "runs": len(results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "correct": all(r["correct"] for r, _ in results),
        "metrics": metrics,
        "unscaled_median": {name: float(np.median(v)) for name, v in unscaled.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--runs", type=int, default=4, help="seeds 1..runs per workload")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]

    record = {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"cpu": cpu_model(), "arch": platform.machine(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "trees": worktree_trees("src", "perfbench"),
        "wc_l": line_counts(),
        "tier1": tier1(),
        "protocol": {"seeds": list(range(1, args.runs + 1)), "seconds": seconds, "trace": 0,
                     "order": "alternating over workloads, one seed at a time"},
    }
    results: dict[str, list] = {w: [] for w in workloads}
    for seed in record["protocol"]["seeds"]:
        for workload in workloads:
            results[workload].append(bench_run(workload, seed, seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    record["workloads"] = {w: summarize(r) for w, r in results.items()}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
