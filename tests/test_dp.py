import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gof_pvalue, sign_symmetry_pvalue
from panelsynth import dp
from panelsynth.cumulative import CumulativeSynthConfig
from panelsynth.dp import (
    BitSource,
    DiscreteGaussianBatch,
    DiscreteGaussianSampler,
    ZCDPAccountant,
    ceil_log2,
    zcdp_to_approx_dp,
)
from panelsynth.window import WindowSynthConfig


def _ledger(*rhos: float) -> ZCDPAccountant:
    ledger = ZCDPAccountant()
    for i, rho in enumerate(rhos):
        ledger.charge(f"step {i}", rho)
    return ledger


class TestCompose:
    def test_adds(self):
        assert _ledger(0.003, 0.002).total == pytest.approx(0.005)

    def test_identity(self):
        assert _ledger(0.0, 0.7).total == 0.7

    def test_fold_of_equal_shares(self):
        rho = 0.005
        assert abs(_ledger(*([rho / 10] * 10)).total - rho) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _ledger(0.1, -0.1)


class TestZcdpConversion:
    def test_reference_value(self):
        assert zcdp_to_approx_dp(0.005, 1e-6) == pytest.approx(0.5306521769756932, rel=1e-12)

    def test_zero_budget(self):
        assert zcdp_to_approx_dp(0.0, 0.3) == 0.0

    def test_unit_log(self):
        assert zcdp_to_approx_dp(1.0, math.exp(-1)) == pytest.approx(3.0)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(0.1, 0.0)
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(0.1, 1.0)


class TestSchedules:
    # the window engine splits rho uniformly over its T - k + 1 updates
    def test_uniform_shares(self):
        cfg = WindowSynthConfig(T=12, k=3, rho=0.005)
        assert cfg.update_steps == 10
        assert cfg.per_step_rho() == pytest.approx(0.0005)

    def test_uniform_single_step(self):
        assert WindowSynthConfig(T=4, k=4, rho=0.7).per_step_rho() == 0.7

    def test_uniform_sum(self):
        cfg = WindowSynthConfig(T=14, k=3, rho=0.007)
        total = _ledger(*[cfg.per_step_rho()] * cfg.update_steps).total
        assert abs(total - 0.007) <= 1e-9 * 0.007

    def test_uniform_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            WindowSynthConfig(T=3, k=4, rho=0.1)

    def test_cumulative_t1(self):
        assert list(CumulativeSynthConfig(T=1, rho=0.4).resolved_schedule()) == [0.4]

    def test_cumulative_t4_weights(self):
        # depths ceil(log2(4,3,2,1)) -> (2,2,1,1), cubed -> (8,8,1,1)
        cfg = CumulativeSynthConfig(T=4, rho=0.9)
        assert cfg.split_weights().tolist() == [8, 8, 1, 1]
        sched = cfg.resolved_schedule()
        assert sched[0] == pytest.approx(0.9 * 8 / 18)
        assert sched[2] == pytest.approx(0.9 / 18)

    @settings(deadline=None)
    @given(st.floats(1e-6, 10.0), st.integers(1, 64))
    def test_cumulative_sums_to_rho(self, rho, T):
        sched = np.array(CumulativeSynthConfig(T=T, rho=rho).resolved_schedule())
        assert abs(sched.sum() - rho) <= 1e-9 * rho
        assert (sched >= 0).all()

    def test_ceil_log2(self):
        assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


class TestAccountant:
    def test_totals_and_conversion(self):
        ledger = ZCDPAccountant()
        ledger.charge("histogram", 0.003)
        ledger.charge("counter", 0.002)
        assert ledger.total == pytest.approx(0.005)
        assert zcdp_to_approx_dp(ledger.total, 1e-6) == pytest.approx(
            zcdp_to_approx_dp(0.005, 1e-6))

    def test_empty(self):
        assert ZCDPAccountant().total == 0.0


class TestBitSource:
    def test_deterministic_for_seed(self):
        a = BitSource(np.random.default_rng(33))
        b = BitSource(np.random.default_rng(33))
        assert [a.getbits(7) for _ in range(100)] == [b.getbits(7) for _ in range(100)]

    def test_one_read_of_n_bits_is_n_reads_of_one_bit(self):
        # the window round reads all of its rounding bits in one call
        whole = BitSource(np.random.default_rng(77))
        single = BitSource(np.random.default_rng(77))
        for n in range(1001):
            assert whole.getbits(n) == sum(single.getbits(1) << i for i in range(n))
            assert whole.getbits(64) == single.getbits(64)

    def test_randbelow_range_and_rough_uniformity(self):
        bits = BitSource(np.random.default_rng(0))
        draws = np.array([bits.randbelow(5) for _ in range(20_000)])
        assert draws.min() == 0 and draws.max() == 4
        counts = np.bincount(draws, minlength=5)
        assert (abs(counts - 4000) < 400).all()

    def test_bernoulli_edge_probabilities(self):
        # exp(0) = 1: the trial passes without reading a bit
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert BitSource(rng).bernoulli_exp(0, 5)
        assert rng.bit_generator.state == state


class TestDiscreteGaussian:
    def test_zero_scale_is_deterministic_zero(self):
        bits = BitSource(np.random.default_rng(4))
        assert all(DiscreteGaussianSampler(0).sample(bits) == 0 for _ in range(10))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            DiscreteGaussianSampler(-1)

    def test_returns_python_ints(self):
        bits = BitSource(np.random.default_rng(5))
        sampler = DiscreteGaussianSampler(Fraction(3, 2))
        xs = [sampler.sample(bits) for _ in range(100)]
        assert all(isinstance(x, int) for x in xs)

    def test_deterministic_for_seed(self):
        sampler = DiscreteGaussianSampler(4)
        xs = [sampler.sample(BitSource(np.random.default_rng(9))) for _ in range(3)]
        assert xs[0] == xs[1] == xs[2]

    def test_moments_smoke(self):
        bits = BitSource(np.random.default_rng(2718))
        sampler = DiscreteGaussianSampler(1)
        xs = np.fromiter((sampler.sample(bits) for _ in range(100_000)), dtype=np.int64)
        assert abs(xs.mean()) < 0.02
        assert xs.var() <= 1.05

    def test_gof_small_scale(self):
        bits = BitSource(np.random.default_rng(31415))
        sampler = DiscreteGaussianSampler(Fraction(1, 2))
        xs = np.fromiter((sampler.sample(bits) for _ in range(50_000)), dtype=np.int64)
        assert gof_pvalue(xs, 0.5, -10, 10) > 0.001

    def test_sign_symmetry_smoke(self):
        bits = BitSource(np.random.default_rng(99))
        sampler = DiscreteGaussianSampler(4)
        xs = np.fromiter((sampler.sample(bits) for _ in range(100_000)), dtype=np.int64)
        assert sign_symmetry_pvalue(xs) > 0.001

    def test_exact_rational_scale(self):
        # small-denominator rationals must not lose exactness through floats
        sampler = DiscreteGaussianSampler(Fraction(9, 4))
        assert sampler.sigma2 == Fraction(9, 4)
        bits = BitSource(np.random.default_rng(6))
        xs = np.fromiter((sampler.sample(bits) for _ in range(50_000)), dtype=np.int64)
        assert abs(xs.mean()) < 0.05
        assert xs.var() <= 2.25 * 1.1


@pytest.mark.slow
class TestSamplerSymmetryFull:
    def test_million_sample_symmetry(self, dg_samples):
        xs = dg_samples(4)
        assert sign_symmetry_pvalue(xs) > 0.001


@st.composite
def _ratios(draw):
    """(num, den) with num >= 1 and den >= 1, often a square times den or one off it."""
    den = draw(st.integers(1, 2**64), label="den")
    if draw(st.booleans()):
        a = draw(st.integers(0, 2**64), label="a")
        num = a * a * den + draw(st.sampled_from([-1, 0, 1]), label="offset")
        return max(num, 1), den
    return draw(st.integers(1, 2**130), label="num"), den


class TestEnvelopeScale:
    @settings(max_examples=500, deadline=None)
    @given(_ratios())
    @example((2 * 2 * 3 - 1, 3))
    @example((2 * 2 * 3, 3))
    @example((2 * 2 * 3 + 1, 3))
    @example((1, 2**64))
    def test_isqrt_of_the_floor_is_the_floor_of_the_root(self, ratio):
        num, den = ratio
        a = math.isqrt(num // den)
        assert a * a * den <= num < (a + 1) * (a + 1) * den
        assert DiscreteGaussianSampler(Fraction(num, den))._t == a + 1


def _batch_draws(sigma2s, index, seed) -> np.ndarray:
    return DiscreteGaussianBatch(sigma2s).sample(np.random.default_rng(seed),
                                                 np.asarray(index, dtype=np.intp))


def _reach(sigma2) -> int:
    # at least 8 and at least 6.3 sigma, like criterion 8's 8 at sigma2 = 1 and 280 at 2000
    return int(math.ceil(max(6.3, 8 / math.sqrt(float(sigma2))) * math.sqrt(float(sigma2))))


class TestDiscreteGaussianBatch:
    # criterion 8's tolerances: goodness of fit p > 0.001 and variance at most
    # 1.05 sigma2; its 0.01 bound on the mean is below one standard error past
    # sigma2 = 100 at these sample sizes, so the mean may be off by 4 of them
    @pytest.mark.parametrize("sigma2", [Fraction(1, 2), Fraction(9, 4), 4, 2000, 5100])
    def test_pmf_fits(self, sigma2):
        count = 400_000
        xs = _batch_draws([sigma2], np.zeros(count), seed=int(4 * sigma2))
        assert abs(xs.mean()) <= max(0.01, 4 * math.sqrt(float(sigma2) / count))
        assert xs.var() <= 1.05 * float(sigma2)
        reach = _reach(sigma2)
        assert gof_pvalue(xs, float(sigma2), -reach, reach) > 0.001

    def test_each_level_of_a_mix_fits_its_own_pmf(self):
        sigma2s = [Fraction(1, 2), Fraction(9, 4), 4, 2000]
        index = np.random.default_rng(1).permutation(np.repeat(np.arange(4), 100_000))
        xs = _batch_draws(sigma2s, index, seed=2)
        for level, sigma2 in enumerate(sigma2s):
            reach = _reach(sigma2)
            assert gof_pvalue(xs[index == level], float(sigma2), -reach, reach) > 0.001

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10**6), max_value=10**12),
           st.integers(1, 300), st.floats(1e-6, 1e6))
    def test_sampled_sigma2_is_rounded_up_within_2_to_the_minus_20(self, sigma2, T, rho):
        for exact in (sigma2, max(CumulativeSynthConfig(T=T, rho=rho).counter_sigma2())):
            params = dp._batch_params(exact)
            (sampled,) = DiscreteGaussianBatch([exact]).sigma2
            if params is None:
                assert sampled == exact
                continue
            num, den, t, gden, y_cap = params
            assert sampled == Fraction(num, den) and den & (den - 1) == 0
            assert exact <= sampled <= exact * (1 + Fraction(1, 2**20))
            # every int64 intermediate stays below 2**62
            assert gden * dp._K_MAX < 2**62 and num < 2**31 and y_cap >= 32 * t
            assert (y_cap * den * t - num) ** 2 < 2**62

    def test_zero_variance_draws_zero_and_reads_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert DiscreteGaussianBatch([0, 0]).sample(rng, [0, 1, 1]).tolist() == [0, 0, 0]
        assert rng.bit_generator.state == state

    def test_negative_variance_is_refused(self):
        with pytest.raises(ValueError, match="^sigma2 must be non-negative$"):
            DiscreteGaussianBatch([1, -1])

    def test_out_of_domain_level_takes_the_exact_path_after_the_batch(self):
        # sigma2 = 2**40 would take the int64 test past 2**62: the scalar
        # sampler draws it at its exact sigma2, after the batch elements
        huge = Fraction(2**40)
        batch = DiscreteGaussianBatch([4, huge])
        assert batch.sigma2 == (4, huge)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        xs = batch.sample(rng, [0, 1, 0, 1])
        head = DiscreteGaussianBatch([4]).sample(ref, [0, 0])
        bits = BitSource(ref)
        tail = [DiscreteGaussianSampler(huge).sample(bits) for _ in range(2)]
        assert xs.tolist() == [head[0], tail[0], head[1], tail[1]]

    def test_far_candidates_take_the_exact_test(self):
        # y_cap = 0 sends every candidate with |Y| > 0 to the Python-int
        # acceptance test; the draws must still fit the pmf
        num, den, t, gden, _ = dp._batch_params(Fraction(4))
        row = (t, den * t, num, gden, gden // t, 0)
        xs = dp._cks_batch(np.random.default_rng(8), np.array([row] * 20_000, dtype=np.int64))
        assert gof_pvalue(xs, 4.0, -20, 20) > 0.001

    def test_exp1_trials_past_step_20_finish_the_series(self):
        # W = 0 passes steps 2..20; the series then stops at an odd step with
        # probability sum over odd k >= 21 of P(stop at k | reach 21)
        real = np.random.default_rng(13)

        class FirstDrawZero:
            first = True

            def integers(self, low, high, size=None):
                if self.first:
                    self.first = False
                    return np.zeros(size, dtype=np.int64)
                return real.integers(low, high, size=size)

        ok = dp._exp1(FirstDrawZero(), (20_000,))
        p, reach = 0.0, 1.0
        for k in range(21, 60):
            p += reach * (1 - 1 / k) * (k % 2)
            reach /= k
        assert abs(ok.mean() - p) < 5 * math.sqrt(p * (1 - p) / ok.size)

    @pytest.mark.parametrize("a, g", [(0, 7), (1, 3), (5, 7), (7, 7), (123456, 1 << 40)])
    def test_bernoulli_exp_rate(self, a, g):
        count = 200_000
        ok = dp._bernoulli_exp(np.random.default_rng(a + 1), np.full(count, a), np.full(count, g))
        p = math.exp(-a / g)
        assert abs(ok.mean() - p) < 5 * math.sqrt(p * (1 - p) / count) + 1e-12

    def test_bernoulli_exp_past_the_product_ranges(self):
        # from step k > _K_MAX each step draws Bernoulli(a / g) and Bernoulli(1 / k)
        k, count = dp._K_MAX + 1, 100_000
        a, g = np.full(count, 3), np.full(count, 4)
        ok = dp._bernoulli_exp(np.random.default_rng(21), a, g, k)
        # P(stop at k) + P(stop at k + 2) + ..., each step passing with probability 3 / (4 K)
        p, reach = 0.0, 1.0
        for step in range(k, k + 40):
            stop = 1 - 3 / (4 * step)
            p += reach * stop * (step % 2)
            reach *= 1 - stop
        assert abs(ok.mean() - p) < 5 * math.sqrt(p * (1 - p) / count)
