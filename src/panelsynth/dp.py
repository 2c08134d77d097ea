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
    "DiscreteGaussianBatch",
    "DiscreteGaussianSampler",
    "ZCDPAccountant",
    "ceil_log2",
    "zcdp_to_approx_dp",
]


# --------------------------------------------------------------------------
# Budget arithmetic


# Bound on every noise variance an engine holds: at sigma <= 2**31, an int64 count (a sum
# of at most 64 tree registers, or one draw over padded counts below 2**62) can overflow
# only through a draw past 2**26 sigma.
MAX_NOISE_SIGMA2 = 2**62


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

    def bernoulli_exp(self, num: int, den: int) -> bool:
        """Exact Bernoulli(exp(-num/den)) trial for num, den >= 0."""
        while num > den:
            if not self._bernoulli_exp1(1, 1):
                return False
            num -= den
        return self._bernoulli_exp1(num, den)

    def _bernoulli_exp1(self, num: int, den: int) -> bool:
        # Bernoulli(exp(-gamma)) for gamma = num/den in [0, 1]: run the
        # alternating-series counter, whose step k passes with probability
        # num / (den k), and accept iff it stops at an odd count.
        k = 1
        while num > 0 and (num >= den * k or self.randbelow(den * k) < num):
            k += 1
        return (k & 1) == 1


class DiscreteGaussianSampler:
    """Exact sampler for the integer Gaussian with fixed variance parameter.

    :meth:`sample` runs Canonne-Kamath-Steinke rejection over
    :class:`BitSource` bits: a discrete Laplace candidate of integer scale
    t = floor(sigma) + 1 is accepted by an exact Bernoulli(exp(.)) trial, so
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
            # discrete Laplace candidate: U on [0, t) kept w.p. exp(-U/t),
            # plus t per exp(-1) success in a row, and a sign; -0 is redrawn
            x = bits.randbelow(t)
            if not bits.bernoulli_exp(x, t):
                continue
            while bits.bernoulli_exp(1, 1):
                x += t
            negative = bits.getbits(1)
            if negative and x == 0:
                continue
            d = x * dent - num
            if bits.bernoulli_exp(d * d, gden):
                return -x if negative else x


# --------------------------------------------------------------------------
# Exact sampling in batches


_LIMIT = 1 << 62  # every int64 intermediate of the batch stays below this
_D_MAX = math.isqrt(_LIMIT - 1)  # |d| <= _D_MAX keeps d * d below _LIMIT
_PRECISION = 20  # sigma2 is rounded up by a relative excess of at most 2**-20
_K_MAX = 64  # alternating-series ranges g * K stay below 2**62 up to this step
_BLOCK = np.arange(4, dtype=np.int64)  # series steps per call (the first call draws two)
_FACT20 = math.factorial(20)
# 20! // K! for K = 20..2, ascending: an exp(-1) series passes its steps 2..K iff W < 20! // K!
_EXP1_STOPS = np.array([_FACT20 // math.factorial(k) for k in range(20, 1, -1)], dtype=np.int64)
_RUN = 4  # exp(-1) trials drawn per element and call
_FAR = 32  # a level's int64 acceptance test must cover every |Y| <= _FAR * t
_SPAN = 768  # attempts per round of the batch, by repeating scarce elements


def _batch_params(sigma2: Fraction) -> tuple[int, int, int, int, int] | None:
    """(num, den, t, gden, y_cap) of the batch sampler for sigma2 > 0, or None.

    num / den is sigma2 rounded up to the power-of-two denominator den = 2**k
    with the smallest k >= 0 for which sigma2 * den >= 2**20, so the relative
    excess is below 1 / (sigma2 * den) <= 2**-20. None means that some int64
    intermediate could reach 2**62 even at that k, or that |Y| <= 32 t could
    leave the int64 acceptance test.
    """
    p, q = sigma2.numerator, sigma2.denominator
    k = max(0, q.bit_length() - p.bit_length() + _PRECISION)
    if p << k < q << _PRECISION:
        k += 1
    num = -(-(p << k) // q)
    den = 1 << k
    t = math.isqrt(num // den) + 1
    gden = 2 * num * den * t * t
    y_cap = (num + _D_MAX) // (den * t)
    if num > _D_MAX or gden * _K_MAX >= _LIMIT or y_cap < _FAR * t:
        return None
    return num, den, t, gden, y_cap


def _bernoulli_exp(rng, a, g, k=1) -> np.ndarray:
    """Exact Bernoulli(exp(-a / g)) per element, for int64 arrays 0 <= a <= g.

    The alternating series, from step k: K* is the first K >= k with U_K >= a,
    U_K uniform on [0, g K), and the trial succeeds iff K* is odd. Steps 1-2
    come in one call and later steps four at a time. Past step _K_MAX a step
    is drawn as Bernoulli(a / g) and Bernoulli(1 / K), so no range reaches
    2**62.
    """
    steps = k + (_BLOCK[:2] if k == 1 else _BLOCK)
    if steps[-1] > _K_MAX:
        steps = steps[:1]
        stop = (rng.integers(0, g) >= a) | (rng.integers(0, k, size=a.size) != 0)
        stop = stop[:, None]
    else:
        stop = rng.integers(0, g[:, None] * steps) >= a[:, None]
    out = (stop.argmax(axis=1) & 1) != (k & 1)  # K* = k + index is odd
    live = np.flatnonzero(~stop.any(axis=1))
    if live.size:
        out[live] = _bernoulli_exp(rng, a[live], g[live], k + steps.size)
    return out


def _exp1(rng, shape) -> np.ndarray:
    """Exact Bernoulli(exp(-1)) trials, one draw W on [0, 20!) each.

    At a = g = 1 the alternating series passes step K >= 2 with probability
    1/K. The mixed-radix digits of W, most significant first, are
    independent and uniform on [0, 2), [0, 3), ..., [0, 20), so steps 2..K
    all pass exactly when W < 20! / K!, and W = 0 runs on past step 20.
    """
    w = rng.integers(0, _FACT20, size=shape)
    stopped = np.searchsorted(_EXP1_STOPS, w, side="right")  # 19 - steps passed
    ok = (stopped & 1) == 0  # the series stops at K* = 21 - stopped
    if not stopped.all():
        deep = np.flatnonzero(stopped == 0)
        one = np.ones(deep.size, dtype=np.int64)
        ok.reshape(-1)[deep] = _bernoulli_exp(rng, one, one, _EXP1_STOPS.size + 2)
    return ok


def _exp1_lead(rng, n) -> np.ndarray:
    """Per row, how many of _RUN Bernoulli(exp(-1)) trials succeed before the first failure."""
    ok = _exp1(rng, (n, _RUN))
    return np.where(ok.all(axis=1), _RUN, ok.argmin(axis=1))


def _geometric_exp1(rng, n) -> np.ndarray:
    """n draws of how many Bernoulli(exp(-1)) trials in a row succeed."""
    v = _exp1_lead(rng, n)
    more = np.flatnonzero(v == _RUN)
    if more.size:
        v[more] += _geometric_exp1(rng, more.size)
    return v


def _exp1_all(rng, q) -> np.ndarray:
    """Per element, whether q Bernoulli(exp(-1)) trials in a row all succeed."""
    out = q == 0
    todo = np.flatnonzero(~out)
    if todo.size:
        need, lead = q[todo], _exp1_lead(rng, todo.size)
        out[todo] = lead >= need
        more = np.flatnonzero((lead == _RUN) & (need > _RUN))
        if more.size:
            out[todo[more]] = _exp1_all(rng, need[more] - _RUN)
    return out


def _cks_batch(rng, params) -> np.ndarray:
    """One discrete Gaussian draw per row (t, dent, num, gden, gt, y_cap) of params.

    An attempt is one pass of Canonne-Kamath-Steinke rejection, its tests
    merged into one conjunction of independent trials: U uniform on [0, t)
    and a sign bit, V the number of exp(-1) successes in a row, X = U + t V
    with a negative zero rejected, and one Bernoulli(exp(-A / gden)) trial
    for A = U gt + d**2, d = X dent - num. Since gt = gden / t, that trial
    is the discrete Laplace's exp(-U/t) test times the Gaussian acceptance
    exp(-d**2 / gden). A round repeats each pending element so that about
    _SPAN attempts run at once, and an element takes the value of its first
    accepted attempt.
    """
    out = np.empty(len(params), dtype=np.int64)
    pending = np.arange(len(params))
    bits = None
    while pending.size:
        reps = max(1, _SPAN // pending.size)
        t, dent, num, g, gt, y_cap = params[np.repeat(pending, reps)].T
        z = rng.integers(0, 2 * t)  # U and the sign bit from one draw on [0, 2t)
        u, negative = z >> 1, (z & 1) == 1
        x = u + t * _geometric_exp1(rng, z.size)
        far = x > y_cap  # |Y| past y_cap: the same trial in Python ints below
        d = np.where(far, 0, x) * dent - num
        q, r = np.divmod(d * d + u * gt, g)
        keep = ((x > 0) | ~negative) & ((_bernoulli_exp(rng, r, g) & _exp1_all(rng, q)) | far)
        if far.any():
            bits = bits or BitSource(rng)
            for i in np.flatnonzero(far & keep).tolist():
                d_far = int(x[i]) * int(dent[i]) - int(num[i])
                keep[i] = bits.bernoulli_exp(d_far * d_far + int(u[i]) * int(gt[i]), int(g[i]))
        keep = keep.reshape(-1, reps)
        hit = keep.any(axis=1)
        y = np.where(negative, -x, x).reshape(-1, reps)
        out[pending[hit]] = y[hit, keep[hit].argmax(axis=1)]
        pending = pending[~hit]
    return out


class DiscreteGaussianBatch:
    """Exact discrete Gaussian draws over numpy int64 arrays, one variance per level.

    Level j samples the variance parameter ``sigma2[j]``: ``sigma2s[j]``
    rounded up to the power-of-two denominator 2**k with the smallest k >= 0
    for which sigma2s[j] * 2**k >= 2**20, a relative excess below 2**-20
    (more noise keeps any privacy guarantee). :meth:`sample` runs
    Canonne-Kamath-Steinke rejection over int64 arrays whose every
    intermediate stays below 2**62, taking its randomness only from
    ``rng.integers`` on bounded ranges, so no floating-point randomness
    enters any draw. A level of variance 0 draws 0 and reads nothing. A
    level whose test could reach 2**62 keeps its exact sigma2 and takes the
    scalar :class:`DiscreteGaussianSampler` in Python ints, on a
    :class:`BitSource` over ``rng``, after every batch element.
    """

    __slots__ = ("sigma2", "_params", "_batch", "_exact")

    def __init__(self, sigma2s):
        sigma2s = [Fraction(s) for s in sigma2s]
        if any(s < 0 for s in sigma2s):
            raise ValueError("sigma2 must be non-negative")
        params = [_batch_params(s) if s else None for s in sigma2s]
        self.sigma2 = tuple(s if p is None else Fraction(p[0], p[1])
                            for s, p in zip(sigma2s, params))
        self._params = np.array([(t, den * t, num, gden, gden // t, y_cap)
                                 for num, den, t, gden, y_cap in
                                 (p or (1, 1, 1, 1, 1) for p in params)],
                                dtype=np.int64).reshape(-1, 6)
        self._batch = np.array([p is not None for p in params], dtype=bool)
        self._exact = {j: DiscreteGaussianSampler(s)
                       for j, (s, p) in enumerate(zip(sigma2s, params)) if s and p is None}

    def sample(self, rng: np.random.Generator, index=None) -> np.ndarray:
        """One draw per entry of ``index`` (default: one per level) at that level's variance."""
        index = np.arange(len(self.sigma2)) if index is None else np.asarray(index, dtype=np.intp)
        out = np.zeros(index.size, dtype=np.int64)
        batch = self._batch[index]
        if batch.any():
            out[batch] = _cks_batch(rng, self._params[index[batch]])
        if self._exact:
            bits = BitSource(rng)
            for i, j in enumerate(index.tolist()):
                if j in self._exact:
                    out[i] = self._exact[j].sample(bits)
        return out
