"""Append-only longitudinal bit panels and their suffix histograms.

Rounds are 1-indexed throughout. Suffix keys are bit strings written oldest
bit first and ordered lexicographically with '0' < '1', so a key's bin index
is simply the string read as a binary number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "LongitudinalDataset",
    "RowGroups",
    "SuffixHistogram",
    "SyntheticStore",
    "check_next_round",
    "mark_random_subset",
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


def _bit_copy(col: np.ndarray, what: str) -> np.ndarray:
    """A new uint8 copy of col; ValueError unless every value is 0 or 1."""
    # NaN and out-of-range floats cast to arbitrary bytes; the equality test rejects them
    with np.errstate(invalid="ignore"):
        bits = col.astype(np.uint8)
    exact_cast = col.dtype == np.uint8 or col.dtype == np.bool_
    if bits.max(initial=0) > 1 or not (exact_cast or np.array_equal(bits, col)):
        raise ValueError(f"{what} must be 0 or 1")
    return bits


def _row_slabs(n: int, width: int):
    """Row slices of about 256 KB of a ``width``-byte-wide panel: no temporary grows with n."""
    rows = max(1, (1 << 18) // max(width, 1))
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


@cache
def _bit_reversal(k: int) -> np.ndarray:
    """rev[c] = c with its k bits in reverse order."""
    return np.array([int(suffix_string(c, k)[::-1], 2) for c in range(1 << k)])


@dataclass(frozen=True)
class SuffixHistogram:
    """Counts over all 2**k suffix bins, indexable by key string or bin code.

    Zero counts are stored explicitly: ``counts`` always has 2**k entries.
    """

    k: int
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.counts.shape != (1 << self.k,):
            raise ValueError(f"expected {1 << self.k} bins, got shape {self.counts.shape}")

    def __getitem__(self, key) -> int:
        code = suffix_index(key) if isinstance(key, str) else int(key)
        return int(self.counts[code])

    def total(self) -> int:
        return int(self.counts.sum())


class LongitudinalDataset:
    """Append-only bit panel: n rows that gain one bit per round, 1..t_max.

    Real reports and synthetic releases are both panels (``SyntheticStore``
    is this class), stored as ceil(t_max / 8) byte planes: plane g is one
    ``uint8[n]`` holding rounds 8g+1..8g+8, round 8g+j+1 at bit j. Rounds
    never change once appended, so a histogram over rounds up to t_max is
    final: each is computed once, memoized, and returned read-only.
    Appending is single-writer.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("population size must be at least 1")
        self.n = int(n)
        self.t_max = 0
        self._planes: list[np.ndarray] = []
        self._hists: dict[tuple[int, int], SuffixHistogram] = {}
        self._cum: dict[int, np.ndarray] = {}

    @classmethod
    def from_matrix(cls, bits) -> "LongitudinalDataset":
        """Build a panel from an (n x T) array of 0/1 values."""
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array of bits (individuals x rounds)")
        n, T = arr.shape
        ds = cls(n)
        planes = np.empty((-(-T // 8), n), dtype=np.uint8)
        for rows in _row_slabs(n, T):
            try:
                slab = _bit_copy(arr[rows], "values")
            except ValueError:
                for t in range(T):  # name the first bad round
                    _bit_copy(arr[:, t], f"round {t + 1}: values")
                raise
            planes[:, rows] = np.packbits(slab, axis=1, bitorder="little").T
        ds._planes, ds.t_max = list(planes), T
        return ds

    def __getstate__(self):
        # the memos stay behind: numpy unpickles arrays writeable
        return {**self.__dict__, "_hists": {}, "_cum": {}}

    @property
    def m(self) -> int:
        """The row count n, under the name used for synthetic panels."""
        return self.n

    def append_column(self, bits) -> None:
        """Append round t_max + 1: one bit for every row."""
        col = np.asarray(bits)
        t = self.t_max + 1
        if col.shape != (self.n,):
            raise ValueError(f"round {t}: expected {self.n} bits, got shape {col.shape}")
        bits = _bit_copy(col, f"round {t}: values")
        if self.t_max % 8 == 0:
            self._planes.append(bits)
        else:  # times 2**j: numpy's uint8 left shift is about ten times slower
            self._planes[-1] |= np.multiply(bits, 1 << self.t_max % 8, out=bits)
        self.t_max = t

    def _check_round(self, t: int) -> None:
        if not 1 <= t <= self.t_max:
            raise ValueError(f"round {t} not appended (t_max={self.t_max})")

    def column(self, t: int) -> np.ndarray:
        """A read-only uint8 copy of round t."""
        self._check_round(t)
        col = (self._planes[(t - 1) // 8] >> (t - 1) % 8) & 1
        col.flags.writeable = False
        return col

    def matrix(self) -> np.ndarray:
        """A read-only (n x t_max) uint8 copy of the panel."""
        out = np.empty((self.n, self.t_max), dtype=np.uint8)
        for rows in _row_slabs(self.n, self.t_max) if self.t_max else ():
            packed = np.stack([plane[rows] for plane in self._planes], axis=1)
            out[rows] = np.unpackbits(packed, axis=1, count=self.t_max, bitorder="little")
        out.flags.writeable = False
        return out

    def suffix_histogram(self, k: int, t: int) -> SuffixHistogram:
        """Histogram of length-k suffixes at round t; counts sum to n."""
        hist = self._hists.get((k, t))
        if hist is None:
            if k < 1:
                raise ValueError("window length k must be at least 1")
            if t < k:
                raise ValueError(f"suffix histograms need t >= k (got t={t}, k={k})")
            self._check_round(t)
            # one word per row from the planes rounds t-k+1..t touch, shifted and
            # masked; the oldest round is bit 0, so the bins come out bit-reversed
            lo, hi = (t - k) // 8, (t - 1) // 8
            word = self._planes[lo].astype(np.min_scalar_type((1 << 8 * (hi - lo + 1)) - 1))
            for g in range(lo + 1, hi + 1):
                word |= np.left_shift(self._planes[g], 8 * (g - lo), dtype=word.dtype)
            word >>= t - k - 8 * lo
            word &= (1 << k) - 1
            counts = np.bincount(word, minlength=1 << k)[_bit_reversal(k)]
            hist = self._hists[k, t] = SuffixHistogram(k, counts)
            hist.counts.flags.writeable = False
        return hist

    def cumulative_counts(self, t: int) -> np.ndarray:
        """Vector S with S[b] = #rows of Hamming weight >= b up to round t, b = 0..t.

        S[0] = n always; S is non-increasing in b. Thresholds above t are zero
        and not materialized.
        """
        counts = self._cum.get(t)
        if counts is None:
            self._check_round(t)
            weights = np.zeros(self.n, dtype=np.min_scalar_type(t))
            for g in range(0, t, 8):  # the last plane's rounds past t are masked off
                plane = self._planes[g // 8]
                weights += np.bitwise_count(plane if t - g >= 8 else plane & (1 << t - g) - 1)
            exact = np.bincount(weights, minlength=t + 1)
            counts = self._cum[t] = np.cumsum(exact[::-1])[::-1].astype(np.int64)
            counts.flags.writeable = False
        return counts


SyntheticStore = LongitudinalDataset


def check_next_round(current: int, t: int, T: int, dataset: LongitudinalDataset) -> None:
    """ValueError unless round t follows round ``current``, lies within T and is ingested."""
    if t != current + 1:
        raise ValueError(f"out-of-order round: expected {current + 1}, got {t}")
    if t > T:
        raise ValueError(f"round {t} is beyond the horizon T={T}")
    if t > dataset.t_max:
        raise ValueError(f"round {t} not ingested (t_max={dataset.t_max})")


# Pools up to numpy's own ``Generator.choice`` cutoff keep the whole-pool
# permutation: below it ``choice`` runs a hash-set Floyd's algorithm that is
# slower than a permutation of the pool.
_PERMUTATION_MAX_POOL = 10_000


def mark_random_subset(column: np.ndarray, pool: np.ndarray, count: int, rng) -> None:
    """Set ``column`` to 1 on a uniformly random ``count``-subset of the rows ``pool``.

    ``column`` must be 0 on ``pool``; no entry outside it changes. A count of 0
    or of the whole pool has one outcome, so it reads no randomness: nothing
    or every row of ``pool`` is set. Any other count draws. A pool of at most
    10,000 rows takes the first ``count`` entries of
    ``rng.permutation(pool.size)``, an O(size) draw. A larger pool draws only
    the smaller side, ``min(count, size - count)`` rows, with
    ``rng.choice(..., replace=False, shuffle=False)``; when that side is the
    complement, the whole pool is set and the drawn rows cleared. Both draws
    index into ``pool`` in the order given and pick every subset equally
    likely.
    """
    size = pool.size
    if not 0 <= count <= size:
        raise ValueError(f"cannot mark {count} rows of a pool of {size}")
    if count == size:
        column[pool] = 1
    elif count == 0:
        return
    elif size <= _PERMUTATION_MAX_POOL:
        column[pool[rng.permutation(size)[:count]]] = 1
    elif 2 * count <= size:
        column[pool[rng.choice(size, count, replace=False, shuffle=False)]] = 1
    else:
        column[pool] = 1
        column[pool[rng.choice(size, size - count, replace=False, shuffle=False)]] = 0


class RowGroups:
    """Synthetic rows grouped by a small unsigned key, to realize released counts.

    Each synthesizer round releases its counts first and then extends the
    rows so that they realize those counts exactly. The rows are grouped by
    a key fixed at the previous round (the overlap code in window mode, the
    synthetic weight in cumulative mode); group z must hold exactly the
    ``sizes[z]`` rows that round released, and it gets its released number
    of new 1 bits.

    Pool order: the rows are grouped once, by one stable argsort of the key;
    keys of at most 16 bits take numpy's O(rows) radix path. Within a group
    the rows are taken in ascending row index, and the groups call
    :func:`mark_random_subset` once each, in key order, indexing into that
    order, so a seed fixes every published column. A group marked nowhere or
    everywhere reads no randomness; only a group with 0 < ones < size draws,
    at O(group) for groups of at most 10,000 rows and
    O(min(ones, group - ones)) above.
    """

    def __init__(self, keys: np.ndarray, sizes: np.ndarray, what: str):
        """RuntimeError naming ``what`` unless key z holds ``sizes[z]`` rows for every z."""
        self._order = np.argsort(keys, kind="stable")
        self._stops = np.cumsum(sizes)
        self._starts = self._stops - sizes
        # The sorted keys never decrease, so when the sizes sum to the row
        # count and the first and last row of every non-empty group z hold z,
        # group z is exactly order[start:stop]: an O(groups) check that the
        # key groups realize the released sizes.
        filled = np.flatnonzero(sizes)
        if (
            self._stops[-1] != keys.size
            or (keys[self._order[self._starts[filled]]] != filled).any()
            or (keys[self._order[self._stops[filled] - 1]] != filled).any()
        ):
            raise RuntimeError(f"{what} sizes differ from the released counts")

    def new_column(self, ones, rng) -> np.ndarray:
        """A new bit column with ``ones[z]`` uniformly random 1s in each group z.

        An empty group asked for no 1s is skipped; it would read no
        randomness either.
        """
        column = np.zeros(self._order.size, dtype=np.uint8)
        ones = np.asarray(ones)
        visit = np.flatnonzero((self._stops > self._starts) | (ones != 0))
        for start, stop, count in zip(self._starts[visit].tolist(), self._stops[visit].tolist(),
                                      ones[visit].tolist()):
            mark_random_subset(column, self._order[start:stop], count, rng)
        return column


def true_suffix_histogram(dataset: LongitudinalDataset, k: int, t: int) -> SuffixHistogram:
    """The dataset's memoized length-k suffix histogram at round t."""
    return dataset.suffix_histogram(k, t)


def true_cumulative_counts(dataset: LongitudinalDataset, t: int) -> np.ndarray:
    """The dataset's memoized threshold counts at round t."""
    return dataset.cumulative_counts(t)
