"""Measurement helpers for the blockstoch benchmark.

Four parts: the tail statistic for timing samples, reference kernels that
track the host's core speed, an in-memory span recorder with self-time
accounting, and ``traced()``, which wraps the public entry points of each
blockstoch layer so that calls into it are recorded as spans.  Spans are taken from outside the library: module
functions are swapped for recording wrappers, problem callables are
replaced with ``dataclasses.replace``, and feasible sets and schedules
are wrapped in recording proxies.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from blockstoch import baselines, cli, core
from blockstoch import io as dataio
from blockstoch.core import BlockSpec
from blockstoch.problems import QuadraticProblem, SvmDataset, SvmProblem

# ---------------------------------------------------------------------------
# Timing statistics
# ---------------------------------------------------------------------------

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the order statistic with exactly ten larger ones.

    With n samples that is the (n - 10)-th smallest, at percentile
    100 (n - 10) / n.  Needs more than ten samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

class Reference:
    """A fixed kernel of the same kind of work as a workload, timed next to
    each sample to tell how fast the host is running right then.

    On a shared virtual machine the cores change speed as neighbours load
    the physical cores; on a 2-vCPU Intel Xeon KVM guest they switch
    between two speeds 1.2-1.5x apart, every fraction of a second to a few
    seconds.  Samples are scaled to the speed at which the kernel takes its
    nominal time, its median on that guest, so that a run's median does
    not depend on how its time split between the speeds.  The kernel is the benchmark's own code, so a change to
    blockstoch cannot move it.

    Like ``core.run``, the kernel updates blocks of a vector; with
    ``workers > 1`` it hands each iteration's block updates to a fresh
    thread pool, so it also tracks how fast the pool's threads get the
    other cores.  ``small-array`` does per-example Python work on 5-element
    blocks (the SVM loops, parsing); ``wide-array`` draws, clips and
    reduces 2e5-element vectors in two blocks (the wide quadratic).
    """

    NOMINAL_US = {("small-array", False): 1700.0, ("small-array", True): 8800.0,
                  ("wide-array", False): 7700.0, ("wide-array", True): 9000.0}

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "small-array":
            self._examples = [(np.arange(20), rng.standard_normal(20), 1 - 2 * (i % 2))
                              for i in range(32)]
            self._blocks = (slice(0, 5), slice(5, 10), slice(10, 15), slice(15, 20))
        else:
            self._center = np.linspace(-2.0, 2.0, 200_000)
            self._rng = rng
            self._blocks = (slice(0, 100_000), slice(100_000, 200_000))

    def _kernel(self, for_blocks: Callable[[Callable], None]) -> None:
        if self.kind == "small-array":
            x = np.ones(20)
            for idx, val, y in self._examples:
                x_prev = x.copy()

                def update(sl):
                    g = 0.01 * x_prev[sl]
                    if y * float(val @ x_prev[idx]) <= 1.0:
                        inside = (idx >= sl.start) & (idx < sl.stop)
                        g[idx[inside] - sl.start] -= y * val[inside]
                    x[sl] = x_prev[sl] - 0.001 * g
                for_blocks(update)
        else:
            z = self._center + self._rng.standard_normal(self._center.size)
            out = np.empty_like(z)

            def update(sl):
                out[sl] = np.clip(self._center[sl] - 0.1 * z[sl], -1.0, 1.0)
            for_blocks(update)
            float(np.linalg.norm(out - self._center))

    def time_us(self, workers: int = 1) -> float:
        """Wall microseconds of one kernel run on ``workers`` threads."""
        t0 = time.perf_counter_ns()
        if workers == 1:
            self._kernel(lambda update: [update(sl) for sl in self._blocks])
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                self._kernel(lambda update: list(pool.map(update, self._blocks)))
        return (time.perf_counter_ns() - t0) / 1e3

    def scale(self, value: float, measured_us: float, workers: int = 1) -> float:
        """``value``, timed while the kernel on ``workers`` threads took
        ``measured_us``, at the nominal speed."""
        return value * self.NOMINAL_US[self.kind, workers > 1] / measured_us


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span(NamedTuple):
    id: int
    parent: Optional[int]
    run_id: int
    name: str
    start_ns: int
    end_ns: int


class Recorder:
    """Collects spans in memory.

    Each thread keeps its own stack of open span ids.  A span opened on a
    worker thread with nothing open on that thread takes the innermost
    span open on the main thread as parent: the main thread waits inside
    ``core.run`` while the pool executes block updates for it.  Closed
    spans are kept as plain tuples, which the garbage collector stops
    tracking, so a long traced run does not slow collections down.
    """

    def __init__(self):
        self._closed: list[tuple] = []
        self.run_id = 0
        self.totals: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def spans(self) -> list[Span]:
        return [Span(*t) for t in self._closed]

    def new_run(self) -> None:
        """Spans opened from here on belong to the next top-level operation."""
        self.run_id += 1

    def _open(self) -> tuple[int, Optional[int], list[int]]:
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
            parent = stack[-1] if stack else None
        else:
            stack = self._local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def add(self, key: str, amount: float) -> None:
        """Accumulate a counter measured at a span boundary."""
        with self._lock:
            self.totals[key] += amount

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn recorded as a span; ``after(result, *args, **kwargs)`` runs
        outside the span to read counters off the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, stack = self._open()
            run_id, start = self.run_id, time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self._closed.append((span_id, parent, run_id, name, start, end))
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "parent", "run_id", "name", "start_ns", "end_ns"))
            for s in self._closed:
                writer.writerow(s)


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover.

    Children on pool threads may overlap each other; the union is taken,
    clipped to the parent's interval.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start_ns, p.start_ns), min(s.end_ns, p.end_ns)))
    return {s.id: (s.end_ns - s.start_ns) - union_length(children.get(s.id, ()))
            for s in spans}


def count_under(spans: list[Span], ancestor: str, name: str) -> int:
    """Number of spans called ``name`` with an ancestor called ``ancestor``."""
    by_id = {s.id: s for s in spans}

    def inside(span_id: Optional[int]) -> bool:
        while span_id is not None:
            if by_id[span_id].name == ancestor:
                return True
            span_id = by_id[span_id].parent
        return False

    return sum(1 for s in spans if s.name == name and inside(s.parent))


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        entry = out[s.name]
        entry["calls"] += 1
        entry["s"] += (s.end_ns - s.start_ns) / 1e9
        entry["self_s"] += own[s.id] / 1e9
    return out


# ---------------------------------------------------------------------------
# Recording proxies and patches
# ---------------------------------------------------------------------------

class TracedSet:
    """A feasible set whose ``project`` is recorded as ``core.project``."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self.project = recorder.wrap("core.project", inner.project)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedSchedule:
    """A schedule whose ``omega``/``alpha`` are recorded as ``schedules``."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self.omega = recorder.wrap("schedules", inner.omega)
        self.alpha = recorder.wrap("schedules", inner.alpha)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def svm_grad_bytes(problem: SvmProblem) -> Callable:
    """Bytes one ``batch_grad`` call reads, computed from array sizes: the
    block of x, and per token the example's indices and values (8 bytes
    each per stored entry) and the entries of x they gather (8 more)."""
    per_example = 24 * np.diff(problem.dataset.matrix.indptr)
    ranges = problem.block_ranges

    def count(batch, x, l):
        start, stop = ranges[l]
        return 8 * (stop - start) + int(per_example[np.asarray(batch)].sum())
    return count


def quad_grad_bytes(problem: QuadraticProblem) -> Callable:
    """Bytes one quadratic ``batch_grad`` call reads: curvature, x and the
    batch of draws over the block."""
    dims = [b.dim for b in problem.blocks]

    def count(batch, x, l):
        return 8 * dims[l] * (2 + len(batch))
    return count


def traced_instance(instance, recorder: Recorder, grad_bytes: Callable):
    """The ProblemInstance with its callables and block sets recorded."""
    def after_grad(result, batch, x, l):
        recorder.add("grad.bytes", grad_bytes(batch, x, l))

    return dataclasses.replace(
        instance,
        blocks=tuple(BlockSpec(b.dim, TracedSet(b.feasible_set, recorder))
                     for b in instance.blocks),
        sample_batch=recorder.wrap("problems.draw", instance.sample_batch),
        batch_grad=recorder.wrap("problems.grad", instance.batch_grad, after_grad),
        true_objective=recorder.wrap("problems.eval", instance.true_objective),
        true_gradient=recorder.wrap("problems.eval", instance.true_gradient),
    )


def traced_svm_class(recorder: Recorder) -> type:
    """SvmProblem subclass whose instances hand out recorded instances.

    ``run_pegasos`` and the CLI build the ProblemInstance themselves, so
    the hook has to sit on the problem object.
    """
    class TracedSvmProblem(SvmProblem):
        def instance(self):
            return traced_instance(super().instance(), recorder, svm_grad_bytes(self))
    return TracedSvmProblem


def traced_quadratic(problem: QuadraticProblem, recorder: Recorder) -> QuadraticProblem:
    class TracedQuadratic(QuadraticProblem):
        def instance(self):
            return traced_instance(super().instance(), recorder, quad_grad_bytes(self))
    return TracedQuadratic(problem.target, problem.curvature, problem.noise_stddev,
                           problem.blocks)


@contextmanager
def traced(recorder: Recorder):
    """Route calls into every layer through the recorder; undo on exit.

    Yields the SvmProblem subclass to build traced SVM problems with.
    """
    svm_class = traced_svm_class(recorder)
    make_quadratic, schedule = cli.make_quadratic, cli.Schedule

    def after_parse(ds, path, *args, **kwargs):
        recorder.add("parse.rows", ds.m)
        recorder.add("parse.bytes", os.path.getsize(path))

    def after_write(result, data, path):
        recorder.add("write.bytes", os.path.getsize(path))

    traced_run = recorder.wrap("core.run", core.run)
    patches = [
        (cli, "main", recorder.wrap("cli.main", cli.main)),
        (core, "run", traced_run),
        (cli, "run", traced_run),
        (cli, "SvmProblem", svm_class),
        (cli, "make_quadratic",
         lambda *a, **k: traced_quadratic(make_quadratic(*a, **k), recorder)),
        (cli, "Schedule", lambda *a: TracedSchedule(schedule(*a), recorder)),
        (dataio, "load_libsvm", recorder.wrap("io.parse", dataio.load_libsvm, after_parse)),
        (dataio, "dataset_checksum", recorder.wrap("io.checksum", dataio.dataset_checksum)),
        (dataio, "write_trace",
         recorder.wrap("io.write_trace", dataio.write_trace, after_write)),
        (dataio, "write_manifest",
         recorder.wrap("io.write_manifest", dataio.write_manifest, after_write)),
    ]
    for name in ("pegasos_step", "adam_step", "averaging_weight"):
        patches.append((baselines, name,
                        recorder.wrap("baselines.step", getattr(baselines, name))))
    for name in ("run_pegasos", "run_adam", "run_averaged_sca"):
        wrapped = recorder.wrap("baselines.run", getattr(baselines, name))
        patches += [(baselines, name, wrapped), (cli, name, wrapped)]

    matrix_prop = SvmDataset.__dict__["matrix"]
    csr = functools.cached_property(recorder.wrap("problems.csr_build", matrix_prop.func))
    csr.__set_name__(SvmDataset, "matrix")

    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        SvmDataset.matrix = csr
        yield svm_class
    finally:
        SvmDataset.matrix = matrix_prop
        for mod, name, old in saved:
            setattr(mod, name, old)
