"""Continual synthetic data preserving every width-k suffix histogram.

Each round the synthesizer privatizes the current window histogram with
per-bin integer Gaussian noise on top of n_pad padding records per bin, then
extends the existing synthetic rows so the released columns realize counts
that are exactly consistent with the previous release: for every overlap
string z, the rows ending in z at round t-1 are exactly the rows ending in
z0 or z1 at round t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dp import MAX_NOISE_SIGMA2, BitSource, DiscreteGaussianSampler, ZCDPAccountant
from .model import (
    LongitudinalDataset,
    RowGroups,
    SuffixHistogram,
    SyntheticStore,
    check_next_round,
    suffix_string,
    true_suffix_histogram,
)

__all__ = [
    "PaddingExhaustedError",
    "WindowSynthConfig",
    "WindowSynthesizer",
    "split_consistent",
]


class PaddingExhaustedError(RuntimeError):
    """A synthetic bin count went negative: the padding reserve ran out.

    The run aborts rather than clamping, because clamping would silently
    break the consistency of already-released columns. ``suffix`` is None
    when the whole synthetic population collapsed at initialization.
    """

    def __init__(self, t: int, suffix, value: int):
        self.t = t
        self.suffix = suffix
        self.value = value
        super().__init__(
            f"synthetic count for suffix {suffix!r} at round {t} went negative ({value})"
        )


def split_consistent(masses: np.ndarray, c_hat: np.ndarray, bits: BitSource) -> np.ndarray:
    """Counts p for every overlap group z, bins z0 and z1 interleaved as in c_hat.

    Moves both noisy counts of group z by the same correction so that
    p[2z] + p[2z+1] == masses[z] exactly. Where the correction is a
    half-integer, one rounding bit per such group, all read in one call in
    ascending z, decides which side absorbs the extra half (a set bit: z0).
    """
    c0 = c_hat[0::2]
    d = masses - c0 - c_hat[1::2]
    odd = np.flatnonzero(d & 1)
    r = np.zeros_like(d)
    word = bits.getbits(odd.size).to_bytes((odd.size + 7) // 8, "little")
    r[odd] = np.unpackbits(np.frombuffer(word, dtype=np.uint8), count=odd.size, bitorder="little")
    p = np.empty_like(c_hat)
    p[0::2] = c0 + (d >> 1) + r
    p[1::2] = masses - p[0::2]
    return p


@dataclass(frozen=True)
class WindowSynthConfig:
    """Run parameters for the window-histogram synthesizer.

    n_pad overrides the derived padding when set. With noiseless=True the
    per-bin noise is 0 and the default padding is 0 (exact test mode).
    """

    T: int
    k: int
    rho: float = 0.0
    beta_target: float = 0.01
    n_pad: int | None = None
    noiseless: bool = False

    def __post_init__(self):
        if not 1 <= self.k <= self.T:
            raise ValueError(f"need 1 <= k <= T, got k={self.k}, T={self.T}")
        if not 0 < self.beta_target < 1:
            raise ValueError("beta_target must lie in (0, 1)")
        if self.n_pad is not None and self.n_pad < 0:
            raise ValueError("n_pad must be non-negative")
        if not self.noiseless and not self.rho > 0:  # NaN included
            raise ValueError("rho must be positive for a noisy run")
        if not self.noiseless and self.rho == math.inf:
            raise ValueError("rho must be finite for a noisy run")
        if self.sigma2 > MAX_NOISE_SIGMA2:
            raise ValueError(f"rho {self.rho!r} is too small for noise that fits in int64")
        n_pad = self.resolved_n_pad()  # refuses a beta_target too small for a finite padding
        if n_pad << self.k > MAX_NOISE_SIGMA2:
            raise ValueError(f"n_pad {n_pad} is too large for counts that fit in int64")

    @property
    def update_steps(self) -> int:
        return self.T - self.k + 1

    @property
    def sigma2(self) -> Fraction:
        """Exact per-bin noise variance (T - k + 1) / (2 rho); 0 when noiseless."""
        if self.noiseless:
            return Fraction(0)
        return Fraction(self.update_steps) / (2 * Fraction(self.rho))

    def _log_term(self, beta: float, name: str) -> float:
        """ln(2**k (T - k + 1) / beta), the log factor of the padding and the bound."""
        value = math.log((1 << self.k) * self.update_steps / beta)
        if not math.isfinite(value):
            raise ValueError(f"{name} {beta!r} is too small for a finite bound")
        return value

    def per_step_rho(self) -> float:
        return 0.0 if self.noiseless else self.rho / self.update_steps

    def resolved_n_pad(self) -> int:
        """n_pad if set, else padding per bin keeping all noisy counts >= 0 w.p. 1 - beta_target."""
        if self.n_pad is not None:
            return int(self.n_pad)
        if self.noiseless:
            return 0
        r = self.update_steps
        return math.ceil(math.sqrt(r / self.rho * self._log_term(self.beta_target, "beta_target")))

    def public(self) -> dict:
        """The release's public engine parameters, as a bundle's metadata records them."""
        return {"mode": "window", "T": self.T, "k": self.k, "rho": self.rho,
                "beta_target": self.beta_target, "n_pad": self.resolved_n_pad(),
                "noiseless": self.noiseless, "schedule": None, "counter_kind": None,
                "predicted_failure_rate": self.beta_target}

    def guarantee(self, n: int, beta: float) -> dict:
        """Bound on max over (s, t) of |p - (C + n_pad)| in a run, with probability 1 - beta."""
        if not 0 < beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.noiseless:
            return {"error_bound": 0.0, "alpha_star": None}
        bound = (math.sqrt(self.update_steps / self.rho) + 1.0 / math.sqrt(2.0)) * math.sqrt(
            self._log_term(beta, "beta")
        )
        return {"error_bound": bound, "alpha_star": None}

    def relative_error_bound(self, n: int, beta: float, c_frac: float) -> float:
        """Bound on max |p/m - C/n| for bins holding a c_frac fraction of the data."""
        if n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= c_frac <= 1:
            raise ValueError("c_frac must lie in [0, 1]")
        lam = self.guarantee(n, beta)["error_bound"]
        return (2.0 * lam + (1 << (self.k + 1)) * lam * c_frac) / n

    def synthesizer(self, n: int, rng=None) -> "WindowSynthesizer":
        """A fresh engine for this config; the window engine sizes its own population."""
        return WindowSynthesizer(self, rng)


class WindowSynthesizer:
    """Engine for one run: noisy window histograms drive record extension.

    All noise and index selection comes from the generator passed at
    construction, so a run is reproducible from its seed. A round draws 2**k
    noise values in lexicographic bin order, then one rounding bit per overlap
    group with an odd correction (ascending z, in one call), then the row-subset
    draws (:class:`~panelsynth.model.RowGroups`, keyed by overlap code).
    ``released`` holds the published counts p of every round k..t.
    """

    def __init__(self, cfg: WindowSynthConfig, rng=None):
        self.cfg = cfg
        noise_rng, self._select = np.random.default_rng(rng).spawn(2)
        self._bits = BitSource(noise_rng)
        self.n_pad = cfg.resolved_n_pad()
        self._sampler = DiscreteGaussianSampler(cfg.sigma2)
        self.accountant = ZCDPAccountant()
        self.store: SyntheticStore | None = None
        self.m: int | None = None
        self.t = 0
        self.released: list[np.ndarray] = []  # synthetic counts per k-bit bin code
        # per-row code of the trailing k-1 bits, in the smallest unsigned dtype
        # that holds it: keys of at most 16 bits take numpy's radix argsort
        self._state: np.ndarray | None = None

    def _noisy_counts(self, true: np.ndarray, t: int) -> np.ndarray:
        noise = [self._sampler.sample(self._bits) for _ in range(true.size)]
        if not self.cfg.noiseless:
            self.accountant.charge(f"histogram@t={t}", self.cfg.per_step_rho())
        return true + self.n_pad + np.array(noise, dtype=np.int64)

    def _refuse_negative(self, t: int, counts: np.ndarray) -> None:
        """Raise PaddingExhaustedError for the first negative bin of round t's counts."""
        negative = np.flatnonzero(counts < 0)
        if negative.size:
            code = int(negative[0])
            raise PaddingExhaustedError(t, suffix_string(code, self.cfg.k), int(counts[code]))

    def init(self, dataset: LongitudinalDataset) -> SyntheticStore:
        """Consume rounds 1..k and publish the first k synthetic columns.

        The starting records realize the noisy counts exactly, assigned in
        lexicographic suffix blocks (row 0 up) for reproducibility.
        """
        if self.t != 0:
            raise RuntimeError("synthesizer already initialized")
        k = self.cfg.k
        if dataset.t_max < k:
            raise ValueError(f"dataset must have at least k={k} ingested rounds")
        c_hat = self._noisy_counts(true_suffix_histogram(dataset, k, k).counts, k)
        self._refuse_negative(k, c_hat)
        m = int(c_hat.sum())
        if m < 1:
            raise PaddingExhaustedError(k, None, m)
        self.m = m
        self.store = SyntheticStore(m)
        codes = np.repeat(np.arange(1 << k, dtype=np.int64), c_hat)
        for j in range(1, k + 1):
            self.store.append_column((codes >> (k - j)) & 1)
        overlap = (1 << (k - 1)) - 1
        self._state = (codes & overlap).astype(np.min_scalar_type(overlap))
        self.released.append(c_hat)
        self.t = k
        return self.store

    def step(self, dataset: LongitudinalDataset, t: int) -> np.ndarray:
        """Publish the synthetic column for round t = current round + 1."""
        cfg = self.cfg
        k = cfg.k
        if self.t == 0:
            raise RuntimeError("call init() before step()")
        check_next_round(self.t, t, cfg.T, dataset)

        # the true histogram is built first, so its int64 temporaries are
        # freed before the grouping's row order is allocated
        true = true_suffix_histogram(dataset, k, t).counts
        half = 1 << (k - 1)
        # rows ending in overlap z entered round t-1 with suffix 0z or 1z; the
        # groups are checked before any budget is charged or noise is drawn
        masses = self.released[-1][:half] + self.released[-1][half:]
        groups = RowGroups(self._state, masses, f"round {t}: overlap group")
        p_new = split_consistent(masses, self._noisy_counts(true, t), self._bits)
        self._refuse_negative(t, p_new)

        column = groups.new_column(p_new[1::2], self._select)
        self._state <<= 1
        self._state |= column
        self._state &= half - 1
        self.released.append(p_new)
        self.store.append_column(column)
        self.t = t
        return column

    def run(self, dataset: LongitudinalDataset) -> SyntheticStore:
        """Initialize then step through rounds k+1..min(T, t_max)."""
        self.init(dataset)
        for t in range(self.cfg.k + 1, min(self.cfg.T, dataset.t_max) + 1):
            self.step(dataset, t)
        return self.store

    def histogram(self) -> SuffixHistogram:
        """Synthetic suffix counts p at the last published round."""
        if not self.released:
            raise RuntimeError("synthesizer has not published any round yet")
        return SuffixHistogram(self.cfg.k, self.released[-1].copy())

    def max_error(self, dataset: LongitudinalDataset) -> int:
        """Worst |p - (C + n_pad)| over every bin of every released round k..t."""
        if not self.released:
            raise RuntimeError("synthesizer has not published any round yet")
        k = self.cfg.k
        return max(int(np.abs(p - (true_suffix_histogram(dataset, k, t).counts + self.n_pad)).max())
                   for t, p in enumerate(self.released, start=k))

    def metadata(self) -> dict:
        """Public release parameters. n_pad is published so analysts can debias."""
        return {**self.cfg.public(), "m": self.m, "rho_spent": self.accountant.total}
