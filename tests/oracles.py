"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own code paths: brute
force, finite differences, and naive accumulation, so the tests check two
independent routes to the same numbers.
"""

import math

import numpy as np

from blockstoch import Box, L2Ball, SvmDataset
from blockstoch.io import ParseError


def surrogate_value(q, x_prev, h, alpha):
    d = q - x_prev
    return float(d @ d) / (2.0 * alpha) + float(h @ d)


def _axis_samples(lo, hi, resolution):
    # Uniform samples plus the exact endpoints (clamped optima sit there).
    count = int(np.floor((hi - lo) / resolution))
    return np.append(lo + resolution * np.arange(count + 1), hi)


def grid_surrogate_argmin(x_prev, h, alpha, feasible_set, resolution=1e-3):
    """Brute-force minimizer of the proximal surrogate over a 2-D set.

    Boxes get a uniform cartesian grid including the exact faces.  Balls
    additionally get exact boundary-arc samples at the same resolution:
    a masked cartesian grid alone cannot localize boundary minimizers,
    because the surrogate varies only quadratically along the arc while
    the radial discretization error enters linearly.
    """
    if isinstance(feasible_set, Box):
        xs = _axis_samples(feasible_set.lower[0], feasible_set.upper[0], resolution)
        ys = _axis_samples(feasible_set.lower[1], feasible_set.upper[1], resolution)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
    elif isinstance(feasible_set, L2Ball):
        center, radius = feasible_set.center, feasible_set.radius
        xs = _axis_samples(center[0] - radius, center[0] + radius, resolution)
        ys = _axis_samples(center[1] - radius, center[1] + radius, resolution)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        inside = ((gx - center[0]) ** 2 + (gy - center[1]) ** 2) <= radius ** 2
        interior = np.column_stack([gx[inside], gy[inside]])
        angles = np.linspace(0.0, 2.0 * np.pi,
                             int(np.ceil(2.0 * np.pi * radius / resolution)),
                             endpoint=False)
        rim = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        points = np.vstack([interior, rim])
    else:
        raise ValueError("grid oracle covers Box and L2Ball only")
    d = points - np.asarray(x_prev)
    values = (d * d).sum(axis=1) / (2.0 * alpha) + d @ np.asarray(h)
    return points[int(np.argmin(values))]


def central_difference(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for j in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[j] += step
        backward[j] -= step
        out[j] = (fn(forward) - fn(backward)) / (2.0 * step)
    return out


def naive_svm_objective(w, dataset, lam):
    """Per-row Python accumulation of the regularized hinge objective, walking
    the CSR arrays by ``indptr`` (independent of ``dataset.matrix``)."""
    total = 0.0
    for i in range(dataset.m):
        score = 0.0
        for p in range(dataset.indptr[i], dataset.indptr[i + 1]):
            score += dataset.values[p] * w[dataset.indices[p]]
        total += max(0.0, 1.0 - dataset.labels[i] * score)
    reg = 0.0
    for wj in w:
        reg += wj * wj
    return 0.5 * lam * reg + total / dataset.m


def searched_svm_batch_grad(problem, batch, x, l):
    """Block l of the SVM batch-mean gradient, the way the oracle computed it
    before ``SvmProblem.block_cuts``: per token the full-row margin, then a
    ``searchsorted`` of the row's indices for the block's run of entries."""
    ds, lam = problem.dataset, problem.lam
    start, stop = problem.block_ranges[l]
    x = np.asarray(x, dtype=np.float64)
    g = lam * x[start:stop]
    tokens = [int(i) for i in np.atleast_1d(batch)]
    for i in tokens:
        a, b, y = int(ds.indptr[i]), int(ds.indptr[i + 1]), float(ds.labels[i])
        indices, values = ds.indices[a:b], ds.values[a:b]
        if y * float(values @ x[indices]) <= 1.0:
            lo, hi = indices.searchsorted((start, stop)).tolist()
            g[indices[lo:hi] - start] -= (y / len(tokens)) * values[lo:hi]
    return g


def tracker_by_recursion(omegas, grads):
    """Reference tracker: fold the recursion step by step."""
    h = np.zeros_like(grads[0])
    for omega, g in zip(omegas, grads):
        h = (1.0 - omega) * h + omega * g
    return h


def _reference_label(token, line_no, remap_zero_one):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"unreadable label {token!r}") from None
    if remap_zero_one and value in (0.0, 1.0):
        return 1 if value == 1.0 else -1
    if value in (-1.0, 1.0):
        return int(value)
    hint = " (use the 0/1 remap flag?)" if value == 0.0 else ""
    raise ParseError(line_no, f"label {token!r} is not -1 or +1{hint}")


def reference_parse_libsvm(lines, num_features=None, name="", remap_zero_one=False,
                           features_from="num_features"):
    """The per-token LIBSVM parser: one Python ``int``/``float`` per field,
    checked as it goes, into flat lists.  It defines the accepted language
    and the messages that ``blockstoch.io.parse_libsvm`` must reproduce; an
    index above the int64 range is a bad index."""
    indptr, indices, values, labels = [0], [], [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_reference_label(tokens[0], line_no, remap_zero_one))
        previous = 0
        offset = raw.find(tokens[0]) + len(tokens[0])
        for token in tokens[1:]:
            offset = raw.find(token, offset)
            where = f"token {token!r} (column {offset + 1})"
            offset += len(token)
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise ParseError(line_no, f"{where}: expected <index>:<value>")
            try:
                idx = int(idx_text)
            except ValueError:
                raise ParseError(line_no, f"{where}: bad index") from None
            if idx >= 2 ** 63:
                raise ParseError(line_no, f"{where}: bad index")
            try:
                val = float(val_text)
            except ValueError:
                raise ParseError(line_no, f"{where}: bad value") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"{where}: value is not finite")
            if idx < 1:
                raise ParseError(line_no, f"{where}: indices are 1-based")
            if idx <= previous:
                raise ParseError(line_no, f"{where}: indices must be strictly increasing")
            if num_features is not None and idx > num_features and val != 0.0:
                raise ParseError(line_no, f"{where}: feature index {idx} exceeds "
                                          f"{features_from} {num_features}")
            previous = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        indptr.append(len(indices))
    if not labels:
        raise ParseError(None, "no examples in input")
    if num_features is None and not indices:
        raise ParseError(None, "cannot infer feature count from all-empty examples")
    n = max(indices) + 1 if num_features is None else int(num_features)
    return SvmDataset(indptr, indices, values, labels, n, name)
