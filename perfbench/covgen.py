"""COV1-shaped synthetic LIBSVM data.

The real COV1 (covtype, binary) file has 54 features per row: 10
continuous ones scaled into (0, 1], a one-hot "wilderness area" group of
4 and a one-hot "soil type" group of 40.  Every row therefore stores
exactly 12 non-zeros, a density of 12/54 = 22.2%.  This module draws rows
of that shape and labels them with one planted separator, so a train file
and a held-out test file can be scored against each other.
"""

from __future__ import annotations

import numpy as np

NUM_FEATURES = 54
N_CONTINUOUS = 10
GROUPS = ((10, 4), (14, 40))  # (first column, width) of each one-hot group


def mean_row() -> np.ndarray:
    """Expected feature vector of a generated row."""
    mean = np.empty(NUM_FEATURES)
    mean[:N_CONTINUOUS] = 0.5
    for start, width in GROUPS:
        mean[start:start + width] = 1.0 / width
    return mean


def planted_separator(seed: int) -> np.ndarray:
    """Unit normal w* with E[<x, w*>] = 0, so both labels are common."""
    w = np.random.default_rng(seed).standard_normal(NUM_FEATURES)
    mean = mean_row()
    w -= (mean @ w) / (mean @ mean) * mean
    return w / np.linalg.norm(w)


def draw_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """Dense (m, 54) matrix with the COV1 column layout."""
    x = np.zeros((m, NUM_FEATURES))
    # Four decimals, as in the scaled COV1 file; 1e-4 keeps values non-zero.
    x[:, :N_CONTINUOUS] = np.maximum(np.round(rng.random((m, N_CONTINUOUS)), 4), 1e-4)
    rows = np.arange(m)
    for start, width in GROUPS:
        x[rows, start + rng.integers(0, width, size=m)] = 1.0
    return x


def labels_for(x: np.ndarray, w_star: np.ndarray) -> np.ndarray:
    """+1 where <x, w*> >= 0, else -1."""
    return np.where(x @ w_star >= 0.0, 1, -1)


def libsvm_text(x: np.ndarray, labels: np.ndarray) -> str:
    """LIBSVM lines with 1-based indices; zeros are not written."""
    lines = []
    for row, label in zip(x, labels):
        (cols,) = np.nonzero(row)
        tokens = " ".join(f"{c + 1}:{row[c]:g}" for c in cols)
        lines.append(f"{label:+d} {tokens}\n")
    return "".join(lines)


def make_split(seed: int, m_train: int, m_test: int):
    """(train_text, test_text, w_star): both files labelled by one separator.

    Deterministic per seed.
    """
    w_star = planted_separator(seed)
    rng = np.random.default_rng([seed, 1])
    texts = []
    for m in (m_train, m_test):
        x = draw_rows(rng, m)
        texts.append(libsvm_text(x, labels_for(x, w_star)))
    return texts[0], texts[1], w_star
