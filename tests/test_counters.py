import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MonotoneBankReference
from panelsynth.counters import MonotoneBank, TreeCounter
from panelsynth.cumulative import CumulativeSynthConfig
from panelsynth.dp import DiscreteGaussianBatch, ceil_log2

# ln(T) / (2 rho) at T = 8, rho = 0.5
LN8 = Fraction(math.log(8))


def _renoised_registers(counter: TreeCounter, stream) -> list[int]:
    """Feed a counter with zero noise; per round, the one register that is re-noised."""
    out = []
    for z in stream:
        counter.feed(int(z), 0)
        t = counter.t
        out.append(counter.alpha[(t & -t).bit_length() - 1])
    return out


class TestTreeNoiseScale:
    def test_reference_value(self):
        # counter b = 1 of T = 8 watches 8 rounds and gets 27/126 of rho, here 0.5
        sigma2 = CumulativeSynthConfig(T=8, rho=0.5 * 126 / 27).counter_sigma2()[0]
        assert float(sigma2) == pytest.approx(math.log(8), rel=1e-12)

    def test_one_step_counter_still_noisy(self):
        # ln(1) = 0 would release an exact count; the guard substitutes ln(2)
        (sigma2,) = CumulativeSynthConfig(T=1, rho=0.5).counter_sigma2()
        assert float(sigma2) == pytest.approx(math.log(2), rel=1e-12)

    def test_noiseless_sentinel(self):
        # noiseless is sigma2 = 0: the batch draws 0 for every feed and reads no randomness
        assert CumulativeSynthConfig(T=8, noiseless=True).counter_sigma2() == (0,) * 8
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        noise = DiscreteGaussianBatch([0]).sample(rng, np.zeros(8, dtype=np.intp))
        assert rng.bit_generator.state == state
        counter = TreeCounter(8)
        assert [counter.feed(1, v) for v in noise] == list(range(1, 9))

    def test_rejects_zero_rho(self):
        for rho in (0.0, math.inf, math.nan):  # infinity is not a noiseless sentinel
            with pytest.raises(ValueError):
                CumulativeSynthConfig(T=8, rho=rho)


class TestTreeCounterExact:
    def test_noiseless_prefix_sums(self):
        counter = TreeCounter(8)
        assert [counter.feed(z, 0) for z in (1, 2, 3)] == [1, 3, 6]

    def test_register_count(self):
        for T, want in ((1, 1), (2, 2), (5, 4), (8, 4), (9, 5)):
            assert TreeCounter(T).registers == ceil_log2(T) + 1

    def test_t3_sums_two_registers(self):
        counter = TreeCounter(8)
        counter.feed(5, 0)
        counter.feed(7, 0)
        counter.feed(11, 0)
        # t = 3 = 0b11: registers 0 and 1 are both live
        assert counter.alpha[0] == 11 and counter.alpha[1] == 12

    def test_t4_folds_into_single_register(self):
        counter = TreeCounter(8)
        assert _renoised_registers(counter, (1, 2, 3, 4)) == [1, 3, 3, 10]
        # t = 4 = 0b100: registers 0 and 1 were folded and zeroed
        assert counter.alpha[2] == 10
        assert counter.alpha[0] == 0 and counter.alpha[1] == 0

    def test_feed_past_horizon(self):
        counter = TreeCounter(2)
        counter.feed(0, 0)
        counter.feed(0, 0)
        with pytest.raises(ValueError, match="horizon"):
            counter.feed(0, 0)

    def test_rejects_negative_values(self):
        for z in (-1, np.array([0, -1])):
            with pytest.raises(ValueError):
                TreeCounter(4).feed(z, 0)

    def test_noisy_outputs_are_integers(self):
        # the batch hands out numpy int64 noise; the releases are Python ints
        noise = DiscreteGaussianBatch([LN8]).sample(np.random.default_rng(3), np.zeros(8, dtype=np.intp))
        counter = TreeCounter(8)
        outs = [counter.feed(z, v) for z, v in zip(range(1, 9), noise)]
        assert all(isinstance(v, int) for v in outs)


class TestTreeCounterNeighborSensitivity:
    def test_one_entry_change_touches_log_many_nodes(self):
        # noised node values are one per round; changing one stream entry by 1
        # must change at most ceil(log2 T) + 1 of them
        T = 16
        rng = np.random.default_rng(12)
        stream = rng.integers(0, 5, size=T)
        for t0 in range(T):
            neighbor = stream.copy()
            neighbor[t0] += 1
            a = _renoised_registers(TreeCounter(T), stream)
            b = _renoised_registers(TreeCounter(T), neighbor)
            differing = sum(x != y for x, y in zip(a, b))
            assert differing <= ceil_log2(T) + 1


class TestTreeCounterAccuracyShape:
    def test_error_tail_monte_carlo(self):
        # |noisy - true| should exceed 6 * sqrt(sigma2 * max(ceil(log2 t), 1))
        # in far less than 0.1% of (run, t) pairs
        T = 8
        runs = 10_000
        sigma2 = float(LN8)
        noise = DiscreteGaussianBatch([LN8]).sample(np.random.default_rng(2024),
                                                    np.zeros(runs * T, dtype=np.intp))
        exceed = 0
        total = 0
        for draws in noise.reshape(runs, T).tolist():
            counter = TreeCounter(T)
            truth = 0
            for t in range(1, T + 1):
                z = t % 3
                truth += z
                noisy = counter.feed(z, draws[t - 1])
                bound = 6 * math.sqrt(sigma2 * max(ceil_log2(t), 1))
                exceed += abs(noisy - truth) > bound
                total += 1
        assert exceed / total < 0.001


def _outcome(call):
    """A call's return value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - every exception is part of the contract
        return type(exc), str(exc)


@st.composite
def bank_sessions(draw):
    """A horizon, a population and a sequence of bank calls, some with corrupted cells."""
    T = draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, T), st.integers(0, T))
    ops = st.one_of(
        st.tuples(st.just("monotonize"), st.integers(0, T + 1), st.integers(0, T + 1),
                  st.integers(-40, 40)),
        st.tuples(st.just("round"), st.integers(1, T), st.integers(-40, 40)),
        st.tuples(st.just("value"), cell),
        st.tuples(st.just("validate")),
        st.tuples(st.just("corrupt"), cell, st.integers(-40, 40)),
    )
    return T, draw(st.integers(0, 30)), draw(st.lists(ops, max_size=60))


class TestMonotoneBank:
    def test_lower_clamp(self):
        bank = MonotoneBank(2, m=20)
        bank.monotonize(1, 1, 6)
        assert bank.monotonize(1, 2, 5) == 6

    def test_upper_clamp(self):
        bank = MonotoneBank(2, m=10)
        bank.monotonize(1, 1, 10)
        bank.monotonize(2, 2, 12)
        assert bank.value(2, 2) == 10

    def test_pass_through(self):
        bank = MonotoneBank(2, m=10)
        bank.monotonize(1, 1, 6)
        assert bank.monotonize(1, 2, 7) == 7

    def test_population_row_and_zero_column(self):
        bank = MonotoneBank(3, m=9)
        assert all(bank.value(0, t) == 9 for t in range(4))
        assert all(bank.value(b, 0) == 0 for b in range(1, 4))
        assert bank.value(3, 2) == 0  # b > t region

    def test_missing_predecessor_is_error(self):
        bank = MonotoneBank(3, m=5)
        with pytest.raises(RuntimeError):
            bank.monotonize(1, 2, 3)  # (1, 1) not filled yet

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(0, 30),
    )
    def test_clamp_always_lands_between_predecessors(self, s1, s2, s3, m):
        bank = MonotoneBank(2, m=m)
        v1 = bank.monotonize(1, 1, s1)
        assert 0 <= v1 <= m
        v2 = bank.monotonize(1, 2, s2)
        assert v1 <= v2 <= m
        v3 = bank.monotonize(2, 2, s3)
        assert 0 <= v3 <= v1
        bank.validate()

    @settings(deadline=None, max_examples=300)
    @given(bank_sessions())
    def test_matches_reference_bank(self, session):
        # same values, exception types and messages as the boolean-shadow bank it replaced
        T, m, ops = session
        banks = MonotoneBank(T, m), MonotoneBankReference(T, m)
        for op in ops:
            if op[0] == "corrupt":
                for bank in banks:
                    bank.hat[op[1]] = op[2]
                continue
            if op[0] == "round":  # every threshold of round t, as the engine calls them
                calls = [lambda bank, b=b: bank.monotonize(b, op[1], op[2] - b)
                         for b in range(1, op[1] + 1)]
            elif op[0] == "monotonize":
                calls = [lambda bank: bank.monotonize(*op[1:])]
            elif op[0] == "value":
                calls = [lambda bank: bank.value(*op[1])]
            else:
                calls = [lambda bank: bank.validate()]
            for call in calls:
                outcomes = [_outcome(lambda: call(bank)) for bank in banks]
                assert outcomes[0] == outcomes[1], op
        assert np.array_equal(banks[0].hat, banks[1].hat)


class TestTreeCounterRegisterSupport:
    # the release is the sum of all noisy registers because of this invariant
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_registers_off_the_bits_of_t_hold_zero(self, data):
        horizon = data.draw(st.integers(1, 130), label="horizon")
        stream = data.draw(st.lists(st.integers(0, 50), min_size=horizon, max_size=horizon),
                           label="stream")
        sigma2 = data.draw(st.sampled_from([Fraction(1, 3), Fraction(4), Fraction(250)]))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        noise = DiscreteGaussianBatch([sigma2]).sample(np.random.default_rng(seed),
                                                       np.zeros(horizon, dtype=np.intp))
        counter = TreeCounter(horizon)
        for z, v in zip(stream, noise):
            counter.feed(z, v)
            clear = [j for j in range(counter.registers) if not (counter.t >> j) & 1]
            assert [counter.alpha[j] for j in clear] == [0] * len(clear)
            assert [counter.alpha_noisy[j] for j in clear] == [0] * len(clear)


class TestTreeCounterLinearity:
    # the cumulative engine feeds its counters zeros and adds the true count
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_release_is_prefix_sum_plus_noise_only_release(self, data):
        horizon = data.draw(st.integers(1, 130), label="horizon")
        stream = data.draw(st.lists(st.integers(0, 2**40), min_size=horizon, max_size=horizon),
                           label="stream")
        noise = data.draw(st.lists(st.integers(-2**40, 2**40), min_size=horizon,
                                   max_size=horizon), label="noise")
        fed, noise_only = TreeCounter(horizon), TreeCounter(horizon)
        prefix = 0
        for z, v in zip(stream, noise):
            prefix += z
            assert fed.feed(z, v) == prefix + noise_only.feed(0, v)


class TestTreeCounterStreams:
    # the cumulative engine runs all its threshold counters as one counter's streams
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_vector_feed_matches_scalar_counters(self, data):
        horizon = data.draw(st.integers(1, 70), label="horizon")
        streams = data.draw(st.integers(1, 6), label="streams")
        rows = st.lists(st.tuples(st.integers(0, 2**40), st.integers(-2**40, 2**40)),
                        min_size=streams, max_size=streams)
        feeds = data.draw(st.lists(rows, min_size=horizon, max_size=horizon), label="feeds")
        vector = TreeCounter(horizon)
        scalars = [TreeCounter(horizon) for _ in range(streams)]
        for row in feeds:
            z, noise = np.array(row, dtype=np.int64).T
            out = vector.feed(z, noise)
            assert out.tolist() == [c.feed(a, v) for c, (a, v) in zip(scalars, row)]
            for j in range(vector.registers):
                assert np.broadcast_to(vector.alpha_noisy[j], streams).tolist() == [
                    c.alpha_noisy[j] for c in scalars]


@pytest.mark.parametrize("call, message", [
    (lambda: CumulativeSynthConfig(T=0), "horizon must be at least 1"),
    (lambda: TreeCounter(0), "horizon must be at least 1"),
    (lambda: MonotoneBank(0, 1), "horizon must be at least 1"),
    (lambda: MonotoneBank(3, -1), "population size must be non-negative"),
], ids=["config-T-0", "counter-horizon-0", "bank-T-0", "bank-negative-population"])
def test_cumulative_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_noiseless_config_has_no_budget_and_no_error():
    cfg = CumulativeSynthConfig(T=5, noiseless=True)
    assert cfg.resolved_schedule() == (0.0,) * 5
    assert cfg.guarantee(100, 0.05) == {"error_bound": 0.0, "alpha_star": 0.0}
