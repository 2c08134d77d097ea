"""Continual synthetic data preserving cumulative weight-threshold counts.

One stream counter per threshold b feeds a monotonized bank of estimates;
after every round the synthetic rows realize the bank exactly, so released
threshold answers can never decrease over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counters import MonotoneBank, TreeCounter
from .dp import MAX_NOISE_SIGMA2, DiscreteGaussianBatch, ZCDPAccountant, ceil_log2
from .model import LongitudinalDataset, RowGroups, SyntheticStore, check_next_round

__all__ = ["CumulativeSynthConfig", "CumulativeSynthesizer"]


def _tree_variance(horizon: int, rho_b: float) -> Fraction:
    """ln(max(horizon, 2)) / (2 rho_b) exactly, each float taken as the rational it is."""
    ln_num, ln_den = math.log(max(horizon, 2)).as_integer_ratio()
    rho_num, rho_den = rho_b.as_integer_ratio()
    return Fraction(ln_num * rho_den, 2 * ln_den * rho_num)


@dataclass(frozen=True)
class CumulativeSynthConfig:
    """Run parameters for the cumulative synthesizer.

    The budget rho is split over thresholds b = 1..T by the error-equalizing
    tree-counter split (:meth:`resolved_schedule`), worked out once per
    config with the split weights and the counter variances. A noisy config
    refuses a rho that gives some counter a register variance above
    :data:`~panelsynth.dp.MAX_NOISE_SIGMA2`, so s_tilde and the bank fit in int64.
    """

    T: int
    rho: float = 0.0
    noiseless: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("horizon must be at least 1")
        weights = np.array(
            [max(ceil_log2(self.T - b + 1), 1) ** 3 for b in range(1, self.T + 1)], dtype=np.int64
        )
        weights.flags.writeable = False
        schedule = ((0.0,) * self.T if self.noiseless
                    else tuple((self.rho * (weights / weights.sum())).tolist()))
        if not self.noiseless and not min(schedule) > 0:  # NaN and zero shares too
            raise ValueError("rho must be positive for a noisy run")
        if not self.noiseless and self.rho == math.inf:
            raise ValueError("rho must be finite for a noisy run")
        sigma2 = ((Fraction(0),) * self.T if self.noiseless
                  else tuple(_tree_variance(self.T - b + 1, rho_b)
                             for b, rho_b in enumerate(schedule, start=1)))
        if max(sigma2) > MAX_NOISE_SIGMA2:
            raise ValueError(f"rho {self.rho!r} is too small for counter noise that fits in int64")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_schedule", schedule)
        object.__setattr__(self, "_sigma2", sigma2)

    def split_weights(self) -> np.ndarray:
        """Integer weights max(ceil(log2(T-b+1)), 1)**3 for thresholds b = 1..T (read-only)."""
        return self._weights

    def resolved_schedule(self) -> tuple[float, ...]:
        """Budgets rho * w / w.sum(); low thresholds watch deeper trees and get more of rho."""
        return self._schedule

    def counter_sigma2(self) -> tuple[Fraction, ...]:
        """Register variance ln(max(T - b + 1, 2)) / (2 rho_b) of counter b; 0 when noiseless."""
        return self._sigma2

    def public(self) -> dict:
        """Public engine parameters for metadata.json; no window, padding or padding failure."""
        return {"mode": "cumulative", "T": self.T, "k": None, "rho": self.rho,
                "beta_target": None, "n_pad": None, "noiseless": self.noiseless,
                "schedule": list(self.resolved_schedule()), "counter_kind": "tree",
                "predicted_failure_rate": 0.0}

    def guarantee(self, n: int, beta: float) -> dict:
        """Fraction-scale alpha_star and its count-scale error bound alpha_star * n.

        alpha_star bounds every released threshold fraction's error with
        probability 1 - T * beta.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        if not 0 < beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.noiseless:
            return {"error_bound": 0.0, "alpha_star": 0.0}
        log_term = math.log(1.0 / beta)
        if not math.isfinite(log_term):
            raise ValueError(f"beta {beta!r} is too small for a finite bound")
        weights = self.split_weights()
        alpha_star = math.sqrt(float(weights.sum()) / self.rho * log_term) / n
        return {"error_bound": alpha_star * n, "alpha_star": alpha_star}

    def synthesizer(self, n: int, rng=None) -> "CumulativeSynthesizer":
        """A fresh engine for this config over a population of n rows."""
        return CumulativeSynthesizer(n, self, rng)


def _draw_noise_map(T: int, batch: DiscreteGaussianBatch, rng) -> np.ndarray:
    """Draw a run's register noises; N[b, t] is counter b's release at round t >= b on zeros."""
    t, b = np.tril_indices(T)  # draw k is counter b's at round t (both from 0), its feed t - b
    draws = np.zeros((T, T), dtype=np.int64)  # [feed, b]; 0 past counter b's horizon T - b
    draws[t - b, b] = batch.sample(rng, b)
    counter = TreeCounter(T)  # runs the T counters as its streams
    releases = np.array([counter.feed(0, row) for row in draws])
    N = np.zeros((T + 1, T + 1), dtype=np.int64)
    N[b + 1, t + 1] = releases[t - b, b]
    return N


class CumulativeSynthesizer:
    """Engine for one run over a population of n true and n synthetic rows.

    Per round t, for all thresholds b = 1..t at once: counter b, linear with
    S_{b-1}[b] = 0, releases s_tilde[b, t] = S_t[b] + N[b, t]; the bank clamps
    it into hat_S[b, t]; and hat_S[b, t] - hat_S[b, t-1] rows of weight b-1 in
    the store's ``weights(t - 1)`` get a 1 (:class:`~panelsynth.model.RowGroups`).

    The noise does not depend on the data: a run needs one draw per counter
    feed, T(T+1)/2 in all, at the variances ``sigma2`` (public: counter b's
    config variance rounded up within a relative 2**-20 by
    :class:`~panelsynth.dp.DiscreteGaussianBatch`). Round 1 draws them all
    in one batch, after its checks, from child 0 of ``spawn(2)`` (child 1
    selects rows) in the order the counters consume them, rounds t ascending
    and within a round b = 1..t, then builds N with T counter feeds. The
    columns of N not yet released are secret state.
    """

    def __init__(self, n: int, cfg: CumulativeSynthConfig, rng=None):
        self.cfg = cfg
        self.n = int(n)
        self.store = SyntheticStore(self.n)  # refuses n < 1
        self._noise_rng, self._select = np.random.default_rng(rng).spawn(2)
        self._noise_batch = DiscreteGaussianBatch(cfg.counter_sigma2())
        self.sigma2 = self._noise_batch.sigma2
        self._noise_map: np.ndarray | None = None
        self.bank = MonotoneBank(cfg.T, m=self.n)
        # raw (pre-monotonization) counter outputs, for diagnostics
        self.s_tilde = np.zeros((cfg.T + 1, cfg.T + 1), dtype=np.int64)
        self.accountant = ZCDPAccountant()
        if not cfg.noiseless:
            for b, rho_b in enumerate(cfg.resolved_schedule(), start=1):
                self.accountant.charge(f"counter b={b}", rho_b)
        self.t = 0

    def step(self, dataset: LongitudinalDataset, t: int) -> np.ndarray:
        """Publish the synthetic column for round t = current round + 1."""
        check_next_round(self.t, t, self.cfg.T, dataset)
        if dataset.n != self.n:
            raise ValueError("dataset population differs from synthesizer population")
        true_counts = dataset.cumulative_counts(t)  # first: its temporaries go before the pools

        # Synthetic weights before round t lie in 0..t-1, and each weight pool
        # must hold the rows the bank released at that weight for round t-1.
        # This is checked before any noise is read, so a failure leaves the
        # engine at round t-1; given it, the bank's clamp keeps every draw
        # z_hat within 0..pool.size.
        hat = self.bank.hat
        pools = RowGroups(self.store.weights(t - 1), hat[:t, t - 1] - hat[1 : t + 1, t - 1],
                          f"round {t}: weight pool")
        if self._noise_map is None:
            self._noise_map = _draw_noise_map(self.cfg.T, self._noise_batch, self._noise_rng)
        s_tilde = true_counts[1:] + self._noise_map[1 : t + 1, t]
        self.s_tilde[1 : t + 1, t] = s_tilde
        self.bank.clamp(t, s_tilde)
        column = pools.new_column(hat[1 : t + 1, t] - hat[1 : t + 1, t - 1], self._select)
        self.store.append_column(column)
        self.t = t
        return column

    def run(self, dataset: LongitudinalDataset) -> SyntheticStore:
        """Step through rounds 1..min(T, t_max)."""
        if dataset.t_max < 1:
            raise ValueError("dataset must have at least one ingested round")
        for t in range(1, min(self.cfg.T, dataset.t_max) + 1):
            self.step(dataset, t)
        return self.store

    def max_error(self, dataset: LongitudinalDataset) -> int:
        """Worst |hat_S[b, t] - S_t[b]| over every threshold of every released round 1..t."""
        if self.t == 0:
            raise RuntimeError("synthesizer has not published any round yet")
        return max(int(np.abs(self.bank.hat[: t + 1, t] - dataset.cumulative_counts(t)).max())
                   for t in range(1, self.t + 1))

    def metadata(self) -> dict:
        return {**self.cfg.public(), "n": self.n, "rho_spent": self.accountant.total}
