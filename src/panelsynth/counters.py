"""Tree-based private stream counting and cross-threshold monotonization."""

from __future__ import annotations

import numpy as np

from .dp import ceil_log2

__all__ = ["MonotoneBank", "TreeCounter"]


class TreeCounter:
    """Noisy prefix sums over a bounded stream via binary-tree aggregation.

    Register j holds the running sum of a dyadic block of 2**j stream values.
    On round t, the lowest set bit of t names the register that absorbs all
    lower registers plus the new value; that register alone is re-noised,
    with the noise the caller passes to :meth:`feed` (0 gives an exact
    counter), and the released prefix sum adds the noisy registers picked
    out by t's binary expansion. Those are the only nonzero registers, so
    the release sums them all: register j is written on a round whose lowest
    set bit is j, and only lower registers change until the round that
    clears bit j, whose fold zeroes register j. Register folds are exact
    integer arithmetic, so all outputs are integers.
    """

    def __init__(self, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = int(horizon)
        self.registers = ceil_log2(self.horizon) + 1
        self.t = 0
        self.alpha = [0] * self.registers
        self.alpha_noisy = [0] * self.registers

    def feed(self, z, noise):
        """Absorb the next stream value and return the noisy prefix sum.

        ``noise`` is added to the one register this feed writes. Scalars give a Python int;
        arrays broadcast to one independent stream per element and give an int64 array.
        """
        if self.t >= self.horizon:
            raise ValueError(f"counter horizon {self.horizon} exhausted")
        z = np.asarray(z, dtype=np.int64) if np.ndim(z) else int(z)
        noise = np.asarray(noise, dtype=np.int64) if np.ndim(noise) else int(noise)
        if z < 0 if isinstance(z, int) else (z < 0).any():
            raise ValueError("stream values must be non-negative")
        t = self.t + 1
        i = (t & -t).bit_length() - 1
        acc = z + sum(self.alpha[:i])
        self.alpha[:i] = self.alpha_noisy[:i] = [0] * i
        self.alpha[i] = acc
        self.alpha_noisy[i] = acc + noise
        self.t = t
        return sum(self.alpha_noisy)


class MonotoneBank:
    """Monotonized cumulative-count estimates hat_S[b, t].

    Row b = 0 is pinned to the public population size (no noise, no budget
    spent); column t = 0 and the region b > t are structurally zero. Cells
    with 1 <= b <= t are filled column by column: :meth:`clamp` takes a whole
    round's noisy counts at once, as both bounds of a cell lie in column t-1,
    and :meth:`monotonize` is the same clamp on one cell, with its checks.
    """

    def __init__(self, T: int, m: int):
        if T < 1:
            raise ValueError("horizon must be at least 1")
        if m < 0:
            raise ValueError("population size must be non-negative")
        self.T = int(T)
        self.hat = np.zeros((T + 1, T + 1), dtype=np.int64)
        self.hat[0, :] = m
        # cell (b, t) is set iff t <= _last[b]: row 0 and the cells t < b from the start
        self._last = np.array([self.T, *range(self.T)])

    def value(self, b: int, t: int) -> int:
        if t > self._last[b]:
            raise RuntimeError(f"hat_S[b={b}, t={t}] has not been set yet")
        return int(self.hat[b, t])

    def clamp(self, t: int, s_tilde, b: int = 1) -> np.ndarray:
        """Clamp and store round t's counts of b, b+1, ... in [hat_S[b, t-1], hat_S[b-1, t-1]]."""
        rows = slice(b, b + len(s_tilde))
        lo, hi = self.hat[rows, t - 1], self.hat[b - 1 : rows.stop - 1, t - 1]
        self.hat[rows, t] = np.minimum(np.maximum(s_tilde, lo), hi)
        self._last[rows] = np.maximum(self._last[rows], t)
        return self.hat[rows, t]

    def monotonize(self, b: int, t: int, s_tilde: int) -> int:
        """Clamp one noisy count into [hat_S[b, t-1], hat_S[b-1, t-1]] and store it."""
        if not (1 <= b <= t <= self.T):
            raise ValueError(f"monotonize needs 1 <= b <= t <= T, got b={b}, t={t}")
        if t - 1 > self._last[b] or t - 1 > self._last[b - 1]:
            raise RuntimeError(f"predecessors of (b={b}, t={t}) are not filled yet")
        return int(self.clamp(t, [s_tilde], b)[0])

    def validate(self) -> None:
        """Assert the two-sided monotonicity invariants on all filled cells."""
        cur, lo, hi = self.hat[1:, 1:], self.hat[1:, :-1], self.hat[:-1, :-1]
        bad = (np.arange(1, self.T + 1) <= self._last[1:, None]) & ((cur < lo) | (cur > hi))
        if bad.any():  # name the first violation in t-major order, as the cells are filled
            t, b = np.argwhere(bad.T)[0] + 1
            raise AssertionError(
                f"monotonicity violated at b={b}, t={t}: "
                f"{self.hat[b, t - 1]} <= {self.hat[b, t]} <= {self.hat[b - 1, t - 1]} fails"
            )
