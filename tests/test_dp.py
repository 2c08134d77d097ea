import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gof_pvalue, sign_symmetry_pvalue
from panelsynth.cumulative import CumulativeSynthConfig
from panelsynth.dp import (
    BitSource,
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
        bits = BitSource(np.random.default_rng(0))
        assert not bits.bernoulli(0, 5)
        assert bits.bernoulli(5, 5)


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
