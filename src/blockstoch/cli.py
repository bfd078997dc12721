"""Command-line benchmark driver.

Three subcommands: ``compare`` executes all four optimizers on one problem
and the identical sample stream, writing a trace CSV and a run manifest per
method plus a summary table; ``run`` is the same path for one optimizer;
``gen`` writes a planted separable SVM dataset in LIBSVM format.  Exit
codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import platform
import re
import shlex
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import io as dataio
from .baselines import AdamParams, check_rho_avg, run_adam, run_averaged_sca, run_pegasos
from .core import ProblemInstance, RunConfig, run
from .problems import (
    SvmProblem,
    make_nonconvex_toy,
    make_quadratic,
    make_separable_dataset,
    svm_accuracy,
)
from .schedules import Schedule

METHODS = ("proposed", "pegasos", "adam", "avg-sca")

DEFAULT_LAMBDA = 1e-4
# Conventional regularizers for the two reference datasets.
DATASET_LAMBDA = {"cov1": 1e-6, "covtype": 1e-6, "rcv1": 1e-4}


class UsageError(Exception):
    """Bad flag combination or missing input file; exit code 2."""


# ---------------------------------------------------------------------------
# Problem resolution
# ---------------------------------------------------------------------------

def _resolve_lambda(args, dataset_name: str) -> float:
    if args.lam is not None:
        return args.lam
    lowered = dataset_name.lower()
    for key, lam in DATASET_LAMBDA.items():
        if key in lowered:
            return lam
    return DEFAULT_LAMBDA


# The string holds every number of the problem (sigma defaults to 1.0), so the
# manifest's command= names the whole problem.
_SYNTHETIC_SPEC = re.compile(r"(?:quad-d(\d+)|noncvx)(?:-s(.+))?")


def _parse_synthetic(args) -> tuple[ProblemInstance, dict]:
    spec = args.synthetic
    match = _SYNTHETIC_SPEC.fullmatch(spec)
    if match is None:
        raise UsageError(
            f"--synthetic: {spec!r} is not quad-d<dim>[-s<sigma>] or noncvx[-s<sigma>]")
    extras = {"synthetic": spec}
    try:
        sigma = float(match[2] or "1.0")
        if match[1] is None:
            return make_nonconvex_toy(sigma), extras
        dim = int(match[1])
        # All-ones target: the centroid start (zeros) is genuinely away from it.
        quad = make_quadratic(dim, noise_stddev=sigma, target=np.ones(dim),
                              n_blocks=min(args.blocks, dim))
    except ValueError as exc:
        raise UsageError(f"--synthetic: {spec}: {exc}") from None
    extras["analytic_objective"] = repr(quad.optimal_value())
    return quad.instance(), extras


def _load_problem(args):
    """Returns (svm, instance, extras): the SvmProblem (None for a synthetic
    problem) and the one ProblemInstance every method of the invocation runs."""
    if (args.data is None) == (args.synthetic is None):
        raise UsageError("exactly one of --data and --synthetic is required")
    if args.blocks < 1:
        raise UsageError(f"--blocks: need at least 1 block, got {args.blocks}")
    if args.data is None:
        for flag, value in (("--test-data", args.test_data), ("--subsample", args.subsample),
                            ("--subsample-seed", args.subsample_seed),
                            ("--features", args.features), ("--lambda", args.lam),
                            ("--remap-labels", args.remap_labels)):
            if value is not None and value is not False:
                raise UsageError(f"{flag} applies to --data only, not to --synthetic")
        instance, extras = _parse_synthetic(args)
        return None, instance, extras
    if args.subsample is None and args.subsample_seed is not None:
        raise UsageError("--subsample-seed applies to --subsample only")
    if args.subsample_seed is not None and args.subsample_seed < 0:
        raise UsageError(f"--subsample-seed: need a seed >= 0, got {args.subsample_seed}")
    if args.features is not None and args.features < 1:
        raise UsageError(f"--features: need at least 1 feature, got {args.features}")
    path = Path(args.data)
    if not path.is_file():
        raise UsageError(f"--data: no such file: {path}")
    ds = dataio.load_libsvm(path, num_features=args.features,
                            remap_zero_one=args.remap_labels, features_from="--features")
    lam = _resolve_lambda(args, ds.name)
    with _flag_errors():
        if args.subsample is not None:
            ds = dataio.subsample(ds, args.subsample, args.subsample_seed or 0)
        problem = SvmProblem.with_blocks(ds, lam, min(args.blocks, ds.num_features))
    extras = {
        "dataset_path": str(path),
        "dataset_checksum": dataio.dataset_checksum(path),
        "dataset_name": ds.name,
        "m": ds.m,
        "num_features": ds.num_features,
        "lambda": repr(lam),
    }
    return problem, problem.instance(), extras


def _load_test_set(args, svm: SvmProblem):
    """The --test-data set, parsed once per invocation, or None."""
    if args.test_data is None:
        return None
    path = Path(args.test_data)
    if not path.is_file():
        raise UsageError(f"--test-data: no such file: {path}")
    return dataio.load_libsvm(path, num_features=svm.dataset.num_features,
                              remap_zero_one=args.remap_labels,
                              features_from="the training data's feature count")


# The flag behind each library field a flag sets; the library's ValueError
# messages start with the field name.
_FLAGS = {"batch_size": "--batch", "max_iters": "--iters", "seed": "--seed",
          "eval_every": "--eval-every", "term_eps": "--term-eps",
          "omega_exponent": "--rho-omega", "alpha_exponent": "--rho-alpha",
          "alpha_scale": "--alpha-scale", "rho_avg": "--rho-avg", "lr": "--adam-lr",
          "lam": "--lambda", "fraction": "--subsample", "margin": "--margin",
          "m": "--m", "n": "--n"}


@contextmanager
def _flag_errors():
    """Report a ValueError about a field in _FLAGS as a usage error naming its flag."""
    try:
        yield
    except ValueError as exc:
        flag = _FLAGS.get(re.match(r"\w*", str(exc))[0])
        if flag is None:
            raise
        raise UsageError(f"{flag}: {exc}") from None


def _build_config(args, methods) -> RunConfig:
    """The run's settings, and the parameters of ``methods``, all checked
    before any method starts."""
    with _flag_errors():
        schedule = Schedule(args.rho_omega, args.rho_alpha, args.alpha_scale)
        if "avg-sca" in methods:
            check_rho_avg(args.rho_avg, schedule)
        if "adam" in methods:
            AdamParams(lr=args.adam_lr)
        return RunConfig(
            schedule=schedule,
            batch_size=args.batch,
            max_iters=args.iters,
            seed=args.seed,
            eval_every=args.eval_every,
            term_eps=args.term_eps,
        )


# ---------------------------------------------------------------------------
# Method execution
# ---------------------------------------------------------------------------

def _run_method(method: str, svm, instance: ProblemInstance, config: RunConfig, args,
                sample_log):
    # Each runner is called by its name here, which the benchmark's tracer patches.
    if method == "proposed":
        return run(instance, config, sample_log=sample_log)
    if method == "pegasos":
        return run_pegasos(svm, config, sample_log=sample_log, inst=instance)
    if method == "adam":
        return run_adam(instance, config, AdamParams(lr=args.adam_lr), sample_log=sample_log)
    return run_averaged_sca(instance, config, args.rho_avg, sample_log=sample_log)


def _run_methods(args, methods) -> tuple[list[dict], list]:
    """Run ``methods`` one after another on one problem and sample stream,
    writing each one's trace, manifest and sample log to ``--outdir``.

    Every flag and problem check runs before the first method starts.
    Returns the manifests and each method's sample-log lines (no logs
    without ``--log-sample-indices``).
    """
    svm, instance, extras = _load_problem(args)
    if svm is None and "pegasos" in methods:
        raise UsageError("pegasos needs an SVM problem (--data), not --synthetic")
    config = _build_config(args, methods)
    test_set = _load_test_set(args, svm)
    if test_set is not None:
        extras["test_dataset_checksum"] = dataio.dataset_checksum(args.test_data)
    # numpy's Generator streams may change between numpy releases (NEP 19), so
    # command= replays a trace byte for byte only on the install named here.
    extras.update(blockstoch_version=__version__, numpy_version=np.__version__,
                  python_version=platform.python_version())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    manifests, logs = [], []
    for method in methods:
        sample_log = [] if args.log_sample_indices else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        x, trace = _run_method(method, svm, instance, config, args, sample_log)
        cpu_seconds = time.process_time() - cpu0
        wall_seconds = time.perf_counter() - wall0

        if not args.trace_timing:
            trace = [replace(r, elapsed_ns=0) for r in trace]
        trace_path = outdir / f"{method}.trace.csv"
        dataio.write_trace(trace, trace_path)

        manifest = {
            "command": args.raw_command,
            "method": method,
            "seed": config.seed,
            "iters": config.max_iters,
            "batch": config.batch_size,
            "eval_every": config.eval_every,
            "blocks": len(instance.blocks),
            "rho_omega": args.rho_omega,
            "rho_alpha": args.rho_alpha,
            "alpha_scale": args.alpha_scale,
            "rho_avg": args.rho_avg,
            "adam_lr": args.adam_lr,
            "term_eps": "" if args.term_eps is None else args.term_eps,
            "trace": trace_path.name,
            "final_objective": ("" if instance.true_objective is None
                                else repr(float(instance.true_objective(x)))),
            "train_accuracy": "" if svm is None else repr(svm_accuracy(x, svm.dataset)),
            # Only an SVM run has a test set.
            "test_accuracy": "" if test_set is None else repr(svm_accuracy(x, test_set)),
            "cpu_seconds": f"{cpu_seconds:.6f}",
            "wall_seconds": f"{wall_seconds:.6f}",
        }
        manifest.update(extras)
        dataio.write_manifest(manifest, outdir / f"{method}.manifest.txt")
        manifests.append(manifest)

        if sample_log is not None:
            lines = [" ".join(str(v) for v in np.ravel(batch)) for batch in sample_log]
            (outdir / f"{method}.samples.txt").write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8")
            logs.append(lines)

        print(f"{method}: final_objective={manifest['final_objective'] or 'n/a'} "
              f"train_accuracy={manifest['train_accuracy'] or 'n/a'} "
              f"test_accuracy={manifest['test_accuracy'] or 'n/a'} cpu_seconds={cpu_seconds:.3f}")
    return manifests, logs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    _run_methods(args, (args.method,))
    return 0


def cmd_compare(args) -> int:
    manifests, logs = _run_methods(args, METHODS)
    columns = ("method", "final_objective", "train_accuracy", "test_accuracy", "cpu_seconds")
    with open(Path(args.outdir) / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(manifests)
    width = max(len(m) for m in METHODS)
    print(f"{'method':<{width}}  objective      train_acc  test_acc  cpu_s")
    for m in manifests:
        print(f"{m['method']:<{width}}  {m['final_objective'] or 'n/a':<13.13}  "
              f"{m['train_accuracy'] or 'n/a':<9.9}  {m['test_accuracy'] or 'n/a':<8.8}  "
              f"{m['cpu_seconds']}")

    if logs:
        if all(log == logs[0] for log in logs[1:]):
            print(f"sample streams identical across methods "
                  f"(first {len(logs[0])} batches)")
        else:
            print("warning: sample streams differ across methods", file=sys.stderr)
            return 1
    return 0


def cmd_gen(args) -> int:
    with _flag_errors():
        ds, _ = make_separable_dataset(args.m, args.n, margin=args.margin, seed=args.seed)
    out = Path(args.out)
    # Like run's --outdir, the directory is made only once every check passed.
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_libsvm(ds, out)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    config, adam = RunConfig(), AdamParams()
    g = p.add_argument_group("problem")
    g.add_argument("--data", metavar="PATH", help="LIBSVM training file")
    g.add_argument("--synthetic", metavar="SPEC",
                   help="quad-d<dim>[-s<sigma>] or noncvx[-s<sigma>] (sigma: noise "
                        "level, default 1)")
    g.add_argument("--test-data", metavar="PATH", help="LIBSVM test file")
    g.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="SVM regularizer (default: per-dataset convention)")
    g.add_argument("--features", type=int, default=None,
                   help="feature-count override for the parser")
    g.add_argument("--remap-labels", action="store_true",
                   help="accept 0/1 labels, remapped to -1/+1")
    g.add_argument("--subsample", type=float, default=None, metavar="FRAC",
                   help="train on a uniform fraction of the dataset")
    g.add_argument("--subsample-seed", type=int, default=None,
                   help="seed of the --subsample draw (default 0)")
    g.add_argument("--blocks", type=int, default=4,
                   help="number of contiguous variable blocks")

    r = p.add_argument_group("run")
    r.add_argument("--iters", type=int, default=10_000)
    r.add_argument("--batch", type=int, default=config.batch_size)
    r.add_argument("--seed", type=int, default=config.seed)
    r.add_argument("--eval-every", type=int, default=config.eval_every)
    r.add_argument("--term-eps", type=float, default=config.term_eps,
                   help="stop any method once step_norm/alpha_k is at most this")

    s = p.add_argument_group("method parameters")
    s.add_argument("--rho-omega", type=float, default=config.schedule.omega_exponent)
    s.add_argument("--rho-alpha", type=float, default=config.schedule.alpha_exponent)
    s.add_argument("--alpha-scale", type=float, default=config.schedule.alpha_scale)
    s.add_argument("--rho-avg", type=float, default=1.0,
                   help="avg-sca averaging exponent: above --rho-alpha, or 0")
    s.add_argument("--adam-lr", type=float, default=adam.lr)

    o = p.add_argument_group("output")
    o.add_argument("--outdir", default="runs")
    o.add_argument("--trace-timing", action="store_true",
                   help="record real elapsed_ns in the trace CSV "
                        "(default zeroes it so traces are bitwise reproducible)")
    o.add_argument("--log-sample-indices", action="store_true",
                   help="dump the first 100 drawn batches per method")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockstoch",
        description="Block-parallel stochastic optimization benchmark driver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimizer on one problem")
    _add_common(p_run)
    p_run.add_argument("--method", required=True, choices=METHODS)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run all four optimizers, sample-matched")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen", help="write a planted separable SVM dataset (LIBSVM)")
    p_gen.add_argument("spec", choices=("separable-svm",))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--m", type=int, default=1000)
    p_gen.add_argument("--n", type=int, default=20)
    p_gen.add_argument("--margin", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_command = shlex.join(["blockstoch"] + argv)
    try:
        # The manifest's command= line holds argv and cannot hold a line break.
        for arg in argv:
            if "\n" in arg or "\r" in arg:
                raise UsageError(f"argument {arg!r} holds a line break")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
