"""Benchmark for blockstoch: one workload per invocation.

    python3 perfbench/run.py --workload svm-loop --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout with ``src/blockstoch``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run and the tracing overhead.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The workloads are described in
``workloads.py`` and ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("svm-loop", "svm-cov-cli", "quad-wide")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def provenance(seed: int) -> list[str]:
    """Machine and source facts printed above the results; not gated."""
    import numpy
    import scipy

    from workloads import NPROC, QUAD_DIM

    def read(path: Path, default="unknown") -> str:
        try:
            return path.read_text(encoding="utf-8").strip()
        except OSError:
            return default

    model = next((line.split(":", 1)[1].strip()
                  for line in read(Path("/proc/cpuinfo"), "").splitlines()
                  if line.startswith("model name")), "unknown")
    llc = read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size"))
    head = read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        head = read(ROOT / ".git" / head[5:])
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((SRC / "blockstoch").glob("*.py"))}
    return [
        f"nproc={NPROC} cpu={model!r} llc={llc}",
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} commit={head} seed={seed}",
        f"quad-wide array bytes={QUAD_DIM * 8} per vector (llc {llc}); "
        "grad bytes are computed from array sizes, not measured",
        "wc -l src/blockstoch/*.py: " + " ".join(f"{n}={c}" for n, c in lines.items())
        + f" total={sum(lines.values())}",
    ]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "blockstoch" / "__init__.py").is_file():
        print(f"error: no blockstoch sources at {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import blockstoch
    import measure
    import_s = time.perf_counter() - t0
    if not Path(blockstoch.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported blockstoch from {blockstoch.__file__}", file=sys.stderr)
        return 2

    for line in provenance(args.seed):
        print(line)
    work = WORK / f"{args.workload}-{args.seed}-{int(time.time() * 1e3)}"
    work.mkdir(parents=True)
    try:
        result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             work, import_s, SPANS)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops, metrics, lines = result
    for line in lines:
        print(line)
    print(f"failed_frac={ops.failed}/{ops.attempted} "
          "(timed runs, CLI invocations and output checks)")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
