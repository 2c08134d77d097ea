import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset, window_reference
from panelsynth.dp import BitSource, DiscreteGaussianSampler
from panelsynth.model import LongitudinalDataset, true_suffix_histogram
from panelsynth.window import (
    PaddingExhaustedError,
    WindowSynthConfig,
    WindowSynthesizer,
    split_consistent,
)


def _n_pad(T, k, rho, beta_target):
    return WindowSynthConfig(T=T, k=k, rho=rho, beta_target=beta_target).resolved_n_pad()


def _error_bound(T, k, rho, beta):
    return WindowSynthConfig(T=T, k=k, rho=rho).guarantee(1, beta)["error_bound"]


class TestComputeNPad:
    def test_reference_configuration(self):
        # ceil(sqrt(2000 * ln 8000)) for T=12, k=3, rho=0.005, beta=0.01
        assert _n_pad(12, 3, 0.005, 0.01) == 135

    def test_tiny_for_huge_budget(self):
        assert _n_pad(3, 3, 1e9, 0.5) == 1

    def test_monotone_in_horizon(self):
        values = [_n_pad(T, 3, 0.01, 0.05) for T in range(3, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_zero_rho(self):
        with pytest.raises(ValueError):
            _n_pad(12, 3, 0.0, 0.01)


class TestErrorBounds:
    def test_reference_value(self):
        want = (math.sqrt(2000) + 1 / math.sqrt(2)) * math.sqrt(math.log(1600))
        got = _error_bound(12, 3, 0.005, 0.05)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(123.3929, abs=5e-4)

    def test_decreasing_in_beta(self):
        bounds = [_error_bound(12, 3, 0.005, b) for b in (0.01, 0.05, 0.2, 0.5)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_huge_budget_limit_is_rounding_term(self):
        limit = (1 / math.sqrt(2)) * math.sqrt(math.log((2**3) * 10 / 0.05))
        assert _error_bound(12, 3, 1e18, 0.05) == pytest.approx(limit, rel=1e-6)

    def test_relative_small_bin(self):
        lam = _error_bound(12, 3, 0.005, 0.05)
        cfg = WindowSynthConfig(T=12, k=3, rho=0.005)
        assert cfg.relative_error_bound(1000, 0.05, 0.0) == pytest.approx(
            2 * lam / 1000
        )

    def test_relative_full_bin_k1(self):
        lam = _error_bound(12, 1, 0.005, 0.05)
        cfg = WindowSynthConfig(T=12, k=1, rho=0.005)
        assert cfg.relative_error_bound(500, 0.05, 1.0) == pytest.approx(
            6 * lam / 500
        )

    def test_relative_monotone_in_c_frac(self):
        cfg = WindowSynthConfig(T=12, k=3, rho=0.005)
        vals = [cfg.relative_error_bound(1000, 0.05, c) for c in (0.0, 0.25, 0.5, 1.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class _FixedBits:
    """A bit source serving the given bits, LSB first."""

    def __init__(self, *bits):
        self.bits = list(bits)

    def getbits(self, n):
        served, self.bits = self.bits[:n], self.bits[n:]
        return sum(bit << i for i, bit in enumerate(served))


class TestSplitConsistent:
    def test_worked_half_integer_example(self):
        # previous counts {00:3, 01:2, 10:4, 11:1}; z=0 mass is 3+4=7,
        # noisy counts 4 and 2 sum to 6, so the correction is 1/2
        bits = _FixedBits(1, 0)
        assert split_consistent(np.array([7]), np.array([4, 2]), bits).tolist() == [5, 2]
        assert split_consistent(np.array([7]), np.array([4, 2]), bits).tolist() == [4, 3]

    def test_integer_case_ignores_bit(self):
        bits = _FixedBits(1)
        assert split_consistent(np.array([8]), np.array([4, 2]), bits).tolist() == [5, 3]
        assert bits.bits == [1]  # no bit read

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(-500, 500),
                              st.integers(-500, 500)), min_size=1, max_size=16),
           st.integers(0, 2**32 - 1))
    def test_mass_preserved_and_integral(self, groups, seed):
        masses = np.array([prev for prev, _, _ in groups])
        c_hat = np.array([c for _, c0, c1 in groups for c in (c0, c1)])
        p = split_consistent(masses, c_hat, BitSource(np.random.default_rng(seed)))
        assert (p[0::2] + p[1::2] == masses).all()
        assert p.dtype == np.int64
        # the two sides never differ from their noisy targets by more than 1/2 + |delta|
        d2 = masses - c_hat[0::2] - c_hat[1::2]
        assert (abs(2 * (p[0::2] - c_hat[0::2]) - d2) <= 1).all()
        assert (abs(2 * (p[1::2] - c_hat[1::2]) - d2) <= 1).all()


class TestConfig:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            WindowSynthConfig(T=3, k=4, rho=0.1)
        with pytest.raises(ValueError):
            WindowSynthConfig(T=3, k=2, rho=0.0)

    def test_noiseless_defaults(self):
        cfg = WindowSynthConfig(T=5, k=2, noiseless=True)
        assert cfg.resolved_n_pad() == 0
        assert cfg.per_step_rho() == 0.0

    def test_n_pad_override(self):
        cfg = WindowSynthConfig(T=5, k=2, rho=0.1, n_pad=7)
        assert cfg.resolved_n_pad() == 7


def _run_noiseless(bits, k, seed=0):
    ds = LongitudinalDataset.from_matrix(bits)
    cfg = WindowSynthConfig(T=ds.t_max, k=k, noiseless=True)
    synth = WindowSynthesizer(cfg, np.random.default_rng(seed))
    store = synth.run(ds)
    return ds, synth, store


class TestNoiselessOracle:
    def test_exact_equality_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(1, 4))
            T = int(rng.integers(k, 11))
            ds = random_dataset(rng, n, T)
            cfg = WindowSynthConfig(T=T, k=k, noiseless=True)
            store = WindowSynthesizer(cfg, rng).run(ds)
            assert store.m == n
            for t in range(k, T + 1):
                assert (
                    store.suffix_histogram(k, t).counts
                    == true_suffix_histogram(ds, k, t).counts
                ).all()

    def test_padding_arithmetic_noiseless(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((20, 4)) < 0.5).astype(np.uint8)
        ds = LongitudinalDataset.from_matrix(bits)
        cfg = WindowSynthConfig(T=4, k=2, noiseless=True, n_pad=2)
        synth = WindowSynthesizer(cfg, np.random.default_rng(0))
        synth.init(ds)
        true = true_suffix_histogram(ds, 2, 2).counts
        assert (synth.histogram().counts == true + 2).all()
        assert synth.m == 20 + 8


class TestInitialization:
    def test_lexicographic_block_assignment(self):
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 1]], dtype=np.uint8)
        ds = LongitudinalDataset.from_matrix(bits)
        cfg = WindowSynthConfig(T=2, k=2, noiseless=True)
        synth = WindowSynthesizer(cfg, np.random.default_rng(0))
        synth.init(ds)
        # rows sorted by suffix: 00, 01, 10, 11, 11
        assert synth.store.matrix().tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 1]]

    def test_requires_enough_rounds(self):
        ds = LongitudinalDataset.from_matrix(np.zeros((4, 1), dtype=int))
        cfg = WindowSynthConfig(T=3, k=2, noiseless=True)
        with pytest.raises(ValueError, match="at least k"):
            WindowSynthesizer(cfg, np.random.default_rng(0)).init(ds)

    def test_double_init_rejected(self):
        ds = LongitudinalDataset.from_matrix(np.zeros((4, 2), dtype=int))
        cfg = WindowSynthConfig(T=2, k=2, noiseless=True)
        synth = WindowSynthesizer(cfg, np.random.default_rng(0))
        synth.init(ds)
        with pytest.raises(RuntimeError):
            synth.init(ds)


class TestNoisyRunInvariants:
    def _noisy_run(self, seed, n=80, T=8, k=2, rho=0.05):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, T, p=0.4)
        cfg = WindowSynthConfig(T=T, k=k, rho=rho, beta_target=0.01)
        synth = WindowSynthesizer(cfg, rng)
        store = synth.run(ds)
        return ds, synth, store

    def test_population_conserved_across_rounds(self):
        for seed in range(5):
            _, synth, store = self._noisy_run(seed)
            k = synth.cfg.k
            totals = {store.suffix_histogram(k, t).total() for t in range(k, store.t_max + 1)}
            assert totals == {store.m}

    def test_consistency_between_consecutive_rounds(self):
        for seed in range(5):
            _, synth, store = self._noisy_run(seed)
            k = synth.cfg.k
            half = 1 << (k - 1)
            for t in range(k + 1, store.t_max + 1):
                prev = store.suffix_histogram(k, t - 1).counts
                cur = store.suffix_histogram(k, t).counts
                for z in range(half):
                    assert prev[z] + prev[half + z] == cur[2 * z] + cur[2 * z + 1]

    def test_internal_histogram_matches_store(self):
        _, synth, store = self._noisy_run(11)
        k = synth.cfg.k
        assert (synth.histogram().counts == store.suffix_histogram(k, store.t_max).counts).all()

    def test_released_prefix_never_changes(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 50, 7, p=0.3)
        cfg = WindowSynthConfig(T=7, k=2, rho=0.05)
        synth = WindowSynthesizer(cfg, rng)
        synth.init(ds)
        snapshots = [synth.store.matrix().copy()]
        for t in range(3, 8):
            synth.step(ds, t)
            snapshots.append(synth.store.matrix().copy())
        final = synth.store.matrix()
        for idx, snap in enumerate(snapshots):
            assert (final[:, : snap.shape[1]] == snap).all(), f"prefix changed after step {idx}"

    def test_reproducible_for_seed(self):
        _, _, a = self._noisy_run(123)
        _, _, b = self._noisy_run(123)
        assert (a.matrix() == b.matrix()).all()

    def test_metadata_is_complete(self):
        _, synth, _ = self._noisy_run(2)
        meta = synth.metadata()
        for key in ("T", "k", "rho", "beta_target", "n_pad", "m", "rho_spent"):
            assert key in meta
        assert meta["rho_spent"] == pytest.approx(synth.cfg.rho)


class TestReleaseInvariant:
    # overlap groups 0 and 1 hold bins {0, 4} and {1, 5}: the first tampering
    # changes the total mass, the second moves mass between groups
    @pytest.mark.parametrize("d0, d1", [(2, 0), (2, -2)], ids=["added", "moved"])
    def test_group_size_mismatch_raises(self, d0, d1):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 40, 5, p=0.5)
        synth = WindowSynthesizer(WindowSynthConfig(T=5, k=3, noiseless=True), rng)
        synth.init(ds)
        synth.released[-1][0] += d0
        synth.released[-1][1] += d1
        with pytest.raises(RuntimeError, match="group sizes"):
            synth.step(ds, 4)
        assert synth.store.t_max == 3

    def test_refused_noisy_step_spends_nothing(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 40, 5, p=0.5)
        synth = WindowSynthesizer(WindowSynthConfig(T=5, k=3, rho=1.0), rng)
        synth.init(ds)
        entries = list(synth.accountant.entries)
        spent = synth.metadata()["rho_spent"]
        synth.released[-1][0] += 2
        with pytest.raises(RuntimeError, match="round 4: .*group sizes"):
            synth.step(ds, 4)
        assert synth.accountant.entries == entries
        assert synth.metadata()["rho_spent"] == spent
        assert synth.t == 3


class TestPaddingExhaustion:
    def test_negative_count_aborts_with_location(self):
        # no padding and heavy noise on a tiny population: failure is certain
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 5, 12, p=0.5)
        cfg = WindowSynthConfig(T=12, k=2, rho=1e-4, n_pad=0)
        with pytest.raises(PaddingExhaustedError) as info:
            WindowSynthesizer(cfg, rng).run(ds)
        err = info.value
        assert 2 <= err.t <= 12
        assert err.value < 0 or err.suffix is None

    def test_store_keeps_released_prefix_on_failure(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 5, 12, p=0.5)
        cfg = WindowSynthConfig(T=12, k=2, rho=1e-4, n_pad=0)
        synth = WindowSynthesizer(cfg, rng)
        with pytest.raises(PaddingExhaustedError) as info:
            synth.run(ds)
        if synth.store is not None:
            assert synth.store.t_max < info.value.t


def _tapped_run(cfg, ds, seed):
    """Run the engine, recording its noise draws and the bits read outside a draw."""
    noise, rounding, depth = [], [], [0]
    sample, getbits = DiscreteGaussianSampler.sample, BitSource.getbits

    def tapped_sample(self, bits):
        depth[0] += 1
        try:
            value = sample(self, bits)
        finally:
            depth[0] -= 1
        noise.append(value)
        return value

    def tapped_getbits(self, k):
        value = getbits(self, k)
        if not depth[0]:
            rounding.extend((value >> i) & 1 for i in range(k))  # served LSB first
        return value

    synth = WindowSynthesizer(cfg, np.random.default_rng(seed))
    exhausted = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DiscreteGaussianSampler, "sample", tapped_sample)
        patch.setattr(BitSource, "getbits", tapped_getbits)
        try:
            synth.run(ds)
        except PaddingExhaustedError as exc:
            exhausted = (exc.t, exc.suffix)
    return synth, noise, rounding, exhausted


class TestWindowReference:
    # a large rho keeps the noise within a few units, so odd corrections and,
    # with little padding, exhausted bins are both common
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_released_matches_reference(self, data):
        T = data.draw(st.integers(1, 10), label="T")
        k = data.draw(st.integers(1, min(4, T)), label="k")
        panel = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=T, max_size=T),
                                   min_size=1, max_size=12), label="panel")
        cfg = WindowSynthConfig(T=T, k=k, rho=data.draw(st.sampled_from([0.5, 4.0, 50.0])),
                                n_pad=data.draw(st.integers(0, 2), label="n_pad"))
        ds = LongitudinalDataset.from_matrix(np.array(panel, dtype=np.uint8))
        synth, noise, rounding, exhausted = _tapped_run(
            cfg, ds, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        noise, rounding = iter(noise), iter(rounding)
        released, ref_exhausted = window_reference(panel, cfg, noise, rounding)
        assert exhausted == ref_exhausted
        assert [p.tolist() for p in synth.released] == released
        assert next(noise, None) is None  # every round draws all 2**k values first
        if exhausted is None:
            assert next(rounding, None) is None


class TestBoundMonteCarloSmall:
    def test_bound_holds_on_most_runs(self):
        # scaled-down version of the full Monte Carlo acceptance check
        T, k, rho, beta = 6, 2, 0.05, 0.05
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 400, T, p=0.35)
        cfg = WindowSynthConfig(T=T, k=k, rho=rho, beta_target=0.05)
        bound = cfg.guarantee(400, beta)["error_bound"]
        within = 0
        runs = 200
        failures = 0
        for ss in np.random.SeedSequence(99).spawn(runs):
            synth = WindowSynthesizer(cfg, np.random.default_rng(ss))
            try:
                store = synth.run(ds)
            except PaddingExhaustedError:
                failures += 1
                continue
            worst = max(
                int(
                    np.abs(
                        store.suffix_histogram(k, t).counts
                        - (true_suffix_histogram(ds, k, t).counts + synth.n_pad)
                    ).max()
                )
                for t in range(k, T + 1)
            )
            within += worst <= bound
        assert within / (runs - failures) >= 0.95
        assert failures / runs <= 0.10


def _step_before_init():
    # round 3 is also out of order, so this pins the init check before the round check
    ds = random_dataset(np.random.default_rng(0), 5, 4)
    WindowSynthesizer(WindowSynthConfig(T=4, k=2, noiseless=True), 0).step(ds, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: WindowSynthConfig(T=4, k=2, rho=1.0, beta_target=0.0), ValueError,
     "beta_target must lie in (0, 1)"),
    (lambda: WindowSynthConfig(T=4, k=2, rho=1.0, beta_target=1.0), ValueError,
     "beta_target must lie in (0, 1)"),
    (lambda: WindowSynthConfig(T=4, k=2, rho=1.0, n_pad=-1), ValueError,
     "n_pad must be non-negative"),
    # n_pad * 2**k past 2**62 would wrap the int64 sum of the 2**k noisy counts
    (lambda: WindowSynthConfig(T=4, k=2, rho=1.0, n_pad=2**61), ValueError,
     f"n_pad {2**61} is too large for counts that fit in int64"),
    (lambda: WindowSynthConfig(T=4, k=2, rho=1.0, n_pad=2**63), ValueError,
     f"n_pad {2**63} is too large for counts that fit in int64"),
    (_step_before_init, RuntimeError, "call init() before step()"),
    (lambda: WindowSynthesizer(WindowSynthConfig(T=4, k=2, noiseless=True), 0).histogram(),
     RuntimeError, "synthesizer has not published any round yet"),
    (lambda: WindowSynthesizer(WindowSynthConfig(T=4, k=2, noiseless=True), 0).max_error(
        random_dataset(np.random.default_rng(0), 5, 4)),
     RuntimeError, "synthesizer has not published any round yet"),
], ids=["beta-target-zero", "beta-target-one", "negative-n-pad", "n-pad-past-int64",
        "n-pad-past-2-63", "step-before-init", "histogram-before-a-round",
        "max-error-before-a-round"])
def test_window_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
