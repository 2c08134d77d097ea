"""zCDP budget arithmetic and exact discrete Gaussian sampling.

Noise is drawn exactly from the integer-supported Gaussian pmf using only
integer arithmetic over unbiased random bits. Rounding a floating-point
continuous Gaussian would sample a slightly different distribution and void
the privacy guarantee, so no floating-point randomness enters any draw. The
variance parameter itself is held as an exact rational; a float input is
interpreted as the exact rational value it represents.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "BitSource",
    "DiscreteGaussianSampler",
    "ZCDPAccountant",
    "ceil_log2",
    "zcdp_to_approx_dp",
]


# --------------------------------------------------------------------------
# Budget arithmetic


def zcdp_to_approx_dp(rho: float, delta: float) -> float:
    """Epsilon such that rho-zCDP implies (epsilon, delta)-DP."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def ceil_log2(x: int) -> int:
    """Exact ceil(log2(x)) for a positive integer."""
    if x < 1:
        raise ValueError("x must be positive")
    return (x - 1).bit_length()


class ZCDPAccountant:
    """Running ledger of zCDP spends under sequential composition."""

    def __init__(self):
        self.entries: list[tuple[str, float]] = []

    def charge(self, label: str, rho: float) -> None:
        if rho < 0:
            raise ValueError("zCDP parameters must be non-negative")
        self.entries.append((label, float(rho)))

    @property
    def total(self) -> float:
        """Sequential composition: the charged parameters add."""
        total = 0.0
        for _, rho in self.entries:
            total += rho
        return total


# --------------------------------------------------------------------------
# Exact sampling primitives


_WORD_BUFFER = 512


class BitSource:
    """Unbiased random bits served in bulk from a numpy Generator.

    The exact samplers consume randomness exclusively through this class, so
    every draw is a deterministic function of the generator's seed.
    """

    __slots__ = ("_rng", "_words", "_next", "_acc", "_nbits")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._words: list[int] = []
        self._next = 0
        self._acc = 0
        self._nbits = 0

    def getbits(self, k: int) -> int:
        """k unbiased bits as an integer in [0, 2**k)."""
        acc = self._acc
        nbits = self._nbits
        while nbits < k:
            if self._next >= len(self._words):
                self._words = self._rng.integers(
                    0, 1 << 64, size=_WORD_BUFFER, dtype=np.uint64
                ).tolist()
                self._next = 0
            acc |= self._words[self._next] << nbits
            self._next += 1
            nbits += 64
        self._acc = acc >> k
        self._nbits = nbits - k
        return acc & ((1 << k) - 1)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on getbits."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        u = self.getbits(k)
        while u >= n:
            u = self.getbits(k)
        return u

    def bernoulli(self, num: int, den: int) -> bool:
        """Exact Bernoulli(num/den) trial."""
        if num <= 0:
            return False
        if num >= den:
            return True
        return self.randbelow(den) < num

    def bernoulli_exp(self, num: int, den: int) -> bool:
        """Exact Bernoulli(exp(-num/den)) trial for num, den >= 0."""
        while num > den:
            if not self._bernoulli_exp1(1, 1):
                return False
            num -= den
        return self._bernoulli_exp1(num, den)

    def _bernoulli_exp1(self, num: int, den: int) -> bool:
        # Bernoulli(exp(-gamma)) for gamma = num/den in [0, 1]: run the
        # alternating-series counter and accept iff it stops at an odd count.
        k = 1
        while self.bernoulli(num, den * k):
            k += 1
        return (k & 1) == 1

    def geometric_exp(self, num: int, den: int) -> int:
        """Geometric sample with success rate 1 - exp(-num/den)."""
        while True:
            u = self.randbelow(den)
            if self.bernoulli_exp(u, den):
                break
        v = 0
        while self._bernoulli_exp1(1, 1):
            v += 1
        return (v * den + u) // num

    def dlaplace(self, t: int) -> int:
        """Discrete Laplace with scale t: Pr[x] proportional to exp(-|x|/t)."""
        while True:
            mag = self.geometric_exp(1, t)
            sign = self.getbits(1)
            if sign and mag == 0:
                continue
            return -mag if sign else mag


class DiscreteGaussianSampler:
    """Exact sampler for the integer Gaussian with fixed variance parameter.

    Candidates come from a discrete Laplace envelope with integer scale
    floor(sigma) + 1 and are accepted by an exact Bernoulli(exp(.)) trial, so
    the output pmf is proportional to exp(-x**2 / (2 sigma2)) with sigma2
    taken as an exact rational.
    """

    __slots__ = ("sigma2", "_num", "_den", "_t", "_gden")

    def __init__(self, sigma2):
        sigma2 = Fraction(sigma2)
        if sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")
        self.sigma2 = sigma2
        self._num = sigma2.numerator
        self._den = sigma2.denominator
        if self._num:
            # isqrt(floor(x)) is floor(sqrt(x)) for a rational x >= 0
            self._t = math.isqrt(self._num // self._den) + 1
            self._gden = 2 * self._num * self._den * self._t * self._t

    def sample(self, bits: BitSource) -> int:
        if self._num == 0:
            return 0
        num = self._num
        t = self._t
        gden = self._gden
        dent = self._den * t
        while True:
            y = bits.dlaplace(t)
            d = abs(y) * dent - num
            if bits.bernoulli_exp(d * d, gden):
                return y
