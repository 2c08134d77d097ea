"""Longitudinal bit-stream datasets, suffix histograms, and synthetic stores.

Rounds are 1-indexed throughout. Suffix keys are bit strings written oldest
bit first and ordered lexicographically with '0' < '1', so a key's bin index
is simply the string read as a binary number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LongitudinalDataset",
    "RoundUpdate",
    "SuffixHistogram",
    "SyntheticStore",
    "all_suffixes",
    "suffix_index",
    "suffix_string",
    "true_cumulative_counts",
    "true_suffix_histogram",
]


def suffix_index(s: str) -> int:
    """Bin index of a suffix key (the key read as a binary number)."""
    if not s:
        raise ValueError("suffix key must be non-empty")
    if any(c not in "01" for c in s):
        raise ValueError(f"suffix key must be over {{0,1}}, got {s!r}")
    return int(s, 2)


def suffix_string(code: int, k: int) -> str:
    """Inverse of :func:`suffix_index` for length-k keys."""
    if not 0 <= code < (1 << k):
        raise ValueError(f"code {code} out of range for k={k}")
    return format(code, f"0{k}b")


def all_suffixes(k: int) -> list[str]:
    """All 2**k suffix keys of length k in lexicographic order."""
    return [suffix_string(code, k) for code in range(1 << k)]


def _bit_copy(col: np.ndarray, what: str) -> np.ndarray:
    """A new uint8 copy of col; ValueError unless every value is 0 or 1."""
    # NaN and out-of-range floats cast to arbitrary bytes; the equality test rejects them
    with np.errstate(invalid="ignore"):
        bits = col.astype(np.uint8)
    if bits.max(initial=0) > 1 or not np.array_equal(bits, col):
        raise ValueError(f"{what} must be 0 or 1")
    return bits


@dataclass
class RoundUpdate:
    """One round of reports: ``bits[i]`` is individual i's bit for round t."""

    t: int
    bits: np.ndarray


class LongitudinalDataset:
    """Bit reports for a fixed population of n individuals over rounds 1..t_max.

    Rows grow in lockstep: ingesting round t appends exactly one bit to every
    individual's sequence. The dataset is a build-then-freeze store; ingestion
    is single-writer.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("population size must be at least 1")
        self.n = int(n)
        self._cols: list[np.ndarray] = []

    @classmethod
    def from_matrix(cls, bits) -> "LongitudinalDataset":
        """Build a dataset from an (n x T) array of 0/1 values."""
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array of bits (individuals x rounds)")
        ds = cls(arr.shape[0])
        for t in range(arr.shape[1]):
            ds.ingest_round(RoundUpdate(t + 1, arr[:, t]))
        return ds

    @property
    def t_max(self) -> int:
        return len(self._cols)

    @property
    def population(self) -> int:
        return self.n

    def ingest_round(self, update: RoundUpdate) -> "LongitudinalDataset":
        """Append one round of reports; rounds must arrive in order."""
        if update.t != self.t_max + 1:
            raise ValueError(
                f"out-of-order round index: expected {self.t_max + 1}, got {update.t}"
            )
        col = np.asarray(update.bits)
        if col.shape != (self.n,):
            raise ValueError(
                f"round {update.t}: expected {self.n} bits, got shape {col.shape}"
            )
        self._cols.append(_bit_copy(col, f"round {update.t}: values"))
        return self

    def column(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.t_max:
            raise ValueError(f"round {t} not ingested (t_max={self.t_max})")
        return self._cols[t - 1]

    def matrix(self) -> np.ndarray:
        """The (n x t_max) bit matrix."""
        if not self._cols:
            return np.zeros((self.n, 0), dtype=np.uint8)
        return np.column_stack(self._cols)

    def suffix_histogram(self, k: int, t: int) -> "SuffixHistogram":
        return true_suffix_histogram(self, k, t)

    def cumulative_counts(self, t: int) -> np.ndarray:
        return true_cumulative_counts(self, t)


@dataclass
class SuffixHistogram:
    """Counts over all 2**k suffix bins, indexable by key string or bin code.

    Zero counts are stored explicitly: ``counts`` always has 2**k entries.
    """

    k: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (1 << self.k,):
            raise ValueError(f"expected {1 << self.k} bins, got shape {self.counts.shape}")

    def __getitem__(self, key) -> int:
        code = suffix_index(key) if isinstance(key, str) else int(key)
        return int(self.counts[code])

    def total(self) -> int:
        return int(self.counts.sum())

    def as_dict(self) -> dict[str, int]:
        return {suffix_string(c, self.k): int(v) for c, v in enumerate(self.counts)}


def _suffix_codes(cols: list[np.ndarray], k: int, t: int) -> np.ndarray:
    """Per-row bin codes of the window (rounds t-k+1 .. t), oldest bit first."""
    codes = np.zeros(cols[0].shape[0], dtype=np.int64)
    for j in range(t - k, t):
        codes = (codes << 1) | cols[j]
    return codes


def _window_histogram(cols: list[np.ndarray], k: int, t: int) -> np.ndarray:
    return np.bincount(_suffix_codes(cols, k, t), minlength=1 << k).astype(np.int64)


def _threshold_counts(cols: list[np.ndarray], t: int) -> np.ndarray:
    """S[b] = number of rows with at least b ones among rounds 1..t, b = 0..t."""
    weights = np.zeros(cols[0].shape[0], dtype=np.int64)
    for j in range(t):
        weights += cols[j]
    exact = np.bincount(weights, minlength=t + 1)
    return np.cumsum(exact[::-1])[::-1].astype(np.int64)


def true_suffix_histogram(dataset: LongitudinalDataset, k: int, t: int) -> SuffixHistogram:
    """Histogram of length-k suffixes at round t; counts sum to n."""
    if k < 1:
        raise ValueError("window length k must be at least 1")
    if t < k:
        raise ValueError(f"suffix histograms need t >= k (got t={t}, k={k})")
    if t > dataset.t_max:
        raise ValueError(f"round {t} not ingested (t_max={dataset.t_max})")
    return SuffixHistogram(k, _window_histogram(dataset._cols, k, t))


def true_cumulative_counts(dataset: LongitudinalDataset, t: int) -> np.ndarray:
    """Vector S with S[b] = #rows of Hamming weight >= b up to round t, b = 0..t.

    S[0] = n always; S is non-increasing in b. Thresholds above t are zero
    and not materialized.
    """
    if not 1 <= t <= dataset.t_max:
        raise ValueError(f"round {t} not ingested (t_max={dataset.t_max})")
    return _threshold_counts(dataset._cols, t)


class SyntheticStore:
    """Append-only synthetic release: one bit column per published round.

    Once a round's column is appended it never changes; all m synthetic
    individuals persist for the whole run.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("synthetic population size must be at least 1")
        self.m = int(m)
        self._cols: list[np.ndarray] = []

    @property
    def t_max(self) -> int:
        return len(self._cols)

    @property
    def population(self) -> int:
        return self.m

    def append_column(self, bits) -> None:
        col = np.asarray(bits)
        if col.shape != (self.m,):
            raise ValueError(f"expected {self.m} bits, got shape {col.shape}")
        self._cols.append(_bit_copy(col, "synthetic bits"))

    def column(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.t_max:
            raise ValueError(f"round {t} not released (t_max={self.t_max})")
        return self._cols[t - 1]

    def matrix(self) -> np.ndarray:
        if not self._cols:
            return np.zeros((self.m, 0), dtype=np.uint8)
        return np.column_stack(self._cols)

    def suffix_histogram(self, k: int, t: int) -> SuffixHistogram:
        if k < 1:
            raise ValueError("window length k must be at least 1")
        if t < k:
            raise ValueError(f"suffix histograms need t >= k (got t={t}, k={k})")
        if t > self.t_max:
            raise ValueError(f"round {t} not released (t_max={self.t_max})")
        return SuffixHistogram(k, _window_histogram(self._cols, k, t))

    def cumulative_counts(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.t_max:
            raise ValueError(f"round {t} not released (t_max={self.t_max})")
        return _threshold_counts(self._cols, t)
