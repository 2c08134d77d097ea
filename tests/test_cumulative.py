import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cumulative_reference, random_dataset
from panelsynth.cli import main
from panelsynth.counters import MonotoneBank, TreeCounter
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from panelsynth.dp import DiscreteGaussianBatch
from panelsynth.harness import simulate_dataset
from panelsynth.model import LongitudinalDataset, true_cumulative_counts


class TestConfig:
    def test_default_schedule_is_weighted_split(self):
        cfg = CumulativeSynthConfig(T=4, rho=0.9)
        sched = cfg.resolved_schedule()
        weights = cfg.split_weights()
        assert np.allclose(sched, 0.9 * weights / weights.sum())

    def test_requires_positive_rho_when_noisy(self):
        with pytest.raises(ValueError):
            CumulativeSynthConfig(T=3, rho=0.0)


def _bound(capsys, T, rho, n, beta) -> dict:
    argv = ["bound", "--mode", "cumulative", "--T", str(T), "--rho", str(rho),
            "--n", str(n), "--beta", str(beta)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestAccuracyOf:
    def test_t1_closed_form(self, capsys):
        cfg = CumulativeSynthConfig(T=1, rho=0.2)
        alpha = cfg.guarantee(50, 0.1)["alpha_star"]
        assert alpha == pytest.approx(math.sqrt(math.log(10) / 0.2) / 50)
        assert _bound(capsys, 1, 0.2, 50, 0.1)["beta_star"] == pytest.approx(0.1)

    def test_beta_star_scales_with_horizon(self, capsys):
        assert _bound(capsys, 12, 0.005, 100, 0.01)["beta_star"] == pytest.approx(0.12)

    def test_decreasing_in_n_and_rho(self):
        cfg_lo = CumulativeSynthConfig(T=6, rho=0.01)
        cfg_hi = CumulativeSynthConfig(T=6, rho=0.1)
        a_small_n = cfg_lo.guarantee(100, 0.05)["alpha_star"]
        a_big_n = cfg_lo.guarantee(1000, 0.05)["alpha_star"]
        a_big_rho = cfg_hi.guarantee(100, 0.05)["alpha_star"]
        assert a_big_n < a_small_n
        assert a_big_rho < a_small_n


class TestNoiselessOracle:
    def test_spec_small_instance(self):
        ds = LongitudinalDataset.from_matrix([(1, 1, 0), (0, 1, 1), (0, 0, 0)])
        synth = CumulativeSynthesizer(3, CumulativeSynthConfig(T=3, noiseless=True),
                                      np.random.default_rng(0))
        store = synth.run(ds)
        weights = store.matrix().sum(axis=1)
        assert sorted(weights.tolist()) == [0, 2, 2]
        assert (store.cumulative_counts(3) == [3, 2, 2, 0]).all()

    def test_all_zero_input_stays_zero(self):
        ds = LongitudinalDataset.from_matrix(np.zeros((6, 5), dtype=int))
        synth = CumulativeSynthesizer(6, CumulativeSynthConfig(T=5, noiseless=True),
                                      np.random.default_rng(1))
        store = synth.run(ds)
        assert store.matrix().sum() == 0

    def test_exact_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 31))
            T = int(rng.integers(1, 9))
            ds = random_dataset(rng, n, T)
            synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, noiseless=True), rng)
            store = synth.run(ds)
            for t in range(1, T + 1):
                assert (store.cumulative_counts(t) == true_cumulative_counts(ds, t)).all()


class TestInitialState:
    def test_bank_seeded_with_population(self):
        synth = CumulativeSynthesizer(5, CumulativeSynthConfig(T=3, noiseless=True),
                                      np.random.default_rng(0))
        # one counter variance per threshold, and no noise drawn before round 1
        assert len(synth.sigma2) == 3 and synth._noise_map is None
        assert all(synth.bank.value(0, t) == 5 for t in range(4))
        assert all(synth.bank.value(b, 0) == 0 for b in range(1, 4))
        assert synth._synth_weights.sum() == 0

    def test_counter_horizons_shrink_with_threshold(self):
        synth = CumulativeSynthesizer(5, CumulativeSynthConfig(T=8, rho=0.4),
                                      np.random.default_rng(0))
        synth.step(random_dataset(np.random.default_rng(1), 5, 8), 1)
        N = synth._noise_map
        # counter b releases from round b on: rounds b..T, T - b + 1 of them
        assert all(not N[b, :b].any() for b in range(1, 9))
        assert [N[b, b:].size for b in range(1, 9)] == [8, 7, 6, 5, 4, 3, 2, 1]

    def test_schedule_charged_to_accountant(self):
        cfg = CumulativeSynthConfig(T=6, rho=0.24)
        synth = CumulativeSynthesizer(10, cfg, np.random.default_rng(0))
        assert synth.accountant.total == pytest.approx(0.24)


class TestNoisyRunInvariants:
    def _run(self, seed, n=150, T=10, rho=0.05):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, T, p=0.3)
        synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, rho=rho), rng)
        store = synth.run(ds)
        return ds, synth, store

    def test_bank_monotonicity(self):
        for seed in range(5):
            _, synth, _ = self._run(seed)
            synth.bank.validate()

    def test_store_realizes_bank_exactly(self):
        for seed in range(5):
            _, synth, store = self._run(seed)
            for t in range(1, store.t_max + 1):
                counts = store.cumulative_counts(t)
                for b in range(1, t + 1):
                    assert counts[b] == synth.bank.value(b, t)

    def test_released_answers_monotone_in_t(self):
        _, synth, store = self._run(3)
        for b in range(1, store.t_max + 1):
            series = [synth.bank.value(b, t) for t in range(b, store.t_max + 1)]
            assert all(x <= y for x, y in zip(series, series[1:]))

    def test_monotonization_never_expands_error(self):
        # pathwise guarantee: the clamped bank is never worse than the raw counters
        for seed in range(10):
            ds, synth, _ = self._run(seed, n=40, T=8)
            worst_hat = 0
            worst_tilde = 0
            for t in range(1, 9):
                s_true = true_cumulative_counts(ds, t)
                for b in range(1, t + 1):
                    worst_hat = max(worst_hat, abs(synth.bank.value(b, t) - int(s_true[b])))
                    worst_tilde = max(worst_tilde, abs(int(synth.s_tilde[b, t]) - int(s_true[b])))
            assert worst_hat <= worst_tilde

    def test_prefix_stability(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 60, 8, p=0.4)
        synth = CumulativeSynthesizer(60, CumulativeSynthConfig(T=8, rho=0.1), rng)
        snapshots = []
        for t in range(1, 9):
            synth.step(ds, t)
            snapshots.append(synth.store.matrix().copy())
        final = synth.store.matrix()
        for snap in snapshots:
            assert (final[:, : snap.shape[1]] == snap).all()

    def test_validate_names_the_first_violated_cell(self):
        # two corrupted cells; the scan is t-major, so (4, 5) is named before (2, 6)
        _, synth, _ = self._run(4)
        hat = synth.bank.hat
        hat[2, 6] = hat[1, 5] + 1
        hat[4, 5] = hat[4, 4] - 1
        message = (f"monotonicity violated at b=4, t=5: "
                   f"{hat[4, 4]} <= {hat[4, 5]} <= {hat[3, 4]} fails")
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            synth.bank.validate()

    def test_reproducible_for_seed(self):
        _, _, a = self._run(77)
        _, _, b = self._run(77)
        assert (a.matrix() == b.matrix()).all()

    def test_population_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 10, 4)
        synth = CumulativeSynthesizer(12, CumulativeSynthConfig(T=4, noiseless=True), rng)
        with pytest.raises(ValueError, match="population"):
            synth.step(ds, 1)

    def test_run_refuses_a_panel_without_rounds(self):
        synth = CumulativeSynthesizer(3, CumulativeSynthConfig(T=4, noiseless=True),
                                      np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one ingested round"):
            synth.run(LongitudinalDataset(3))

    def test_max_error_before_a_round_is_refused(self):
        synth = CumulativeSynthesizer(3, CumulativeSynthConfig(T=4, noiseless=True),
                                      np.random.default_rng(0))
        ds = random_dataset(np.random.default_rng(1), 3, 4)
        with pytest.raises(RuntimeError, match="^synthesizer has not published any round yet$"):
            synth.max_error(ds)

    def test_metadata(self):
        _, synth, _ = self._run(1)
        meta = synth.metadata()
        assert meta["counter_kind"] == "tree"
        assert len(meta["schedule"]) == meta["T"]
        assert meta["rho_spent"] == pytest.approx(meta["rho"])


class TestReleaseInvariant:
    def test_pool_too_small_raises(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 40, 4, p=0.5)
        synth = CumulativeSynthesizer(40, CumulativeSynthConfig(T=4, noiseless=True), rng)
        synth.step(ds, 1)
        synth._synth_weights[:] = 1
        with pytest.raises(RuntimeError, match="pool"):
            synth.step(ds, 2)
        # refused before any noise was read: the engine is still at round 1
        assert synth.store.t_max == 1
        assert synth.t == 1
        assert not synth.s_tilde[:, 2].any()
        with pytest.raises(RuntimeError, match="not been set"):
            synth.bank.value(1, 2)



def _tapped_run(cfg, ds, seed):
    """Run the engine, recording the noise draws it consumed, in draw order."""
    noise = []
    sample = DiscreteGaussianBatch.sample

    def tapped_sample(self, rng, index=None):
        values = sample(self, rng, index)
        noise.extend(values.tolist())
        return values

    synth = CumulativeSynthesizer(ds.n, cfg, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DiscreteGaussianBatch, "sample", tapped_sample)
        synth.run(ds)
    # the batch holds all T(T+1)/2 draws; a run of t rounds consumes the first t(t+1)/2
    return synth, noise[: synth.t * (synth.t + 1) // 2]


class TestCumulativeReference:
    # a large rho keeps the noise within a few units of the arrivals, so the
    # bank clamps from both sides
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_counts_match_reference(self, data):
        T = data.draw(st.integers(1, 10), label="T")
        width = data.draw(st.integers(1, 10), label="width")
        panel = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                                   min_size=1, max_size=12), label="panel")
        cfg = CumulativeSynthConfig(T=T, rho=data.draw(st.sampled_from([0.5, 4.0, 50.0])))
        ds = LongitudinalDataset.from_matrix(np.array(panel, dtype=np.uint8))
        synth, noise = _tapped_run(cfg, ds, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        noise = iter(noise)
        s_tilde, hat = cumulative_reference(panel, cfg, noise)
        # both matrices hold every round's column, [b][t]
        assert synth.s_tilde.tolist() == s_tilde
        assert synth.bank.hat.tolist() == hat
        assert next(noise, None) is None  # every tapped draw was consumed


class TestNoiseMap:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([0.005, 0.05, 1.0, 50.0]),
           st.integers(0, 2**32 - 1))
    def test_rows_are_scalar_counters_fed_zeros(self, T, rho, seed):
        # N[b, t] is what a scalar counter of horizon T - b + 1 releases when fed zeros
        # and counter b's draws, taken in the order the engine consumes them
        ds = random_dataset(np.random.default_rng(seed), 4, T)
        synth, noise = _tapped_run(CumulativeSynthConfig(T=T, rho=rho), ds, seed)
        noise = iter(noise)
        counters = {b: TreeCounter(T - b + 1) for b in range(1, T + 1)}
        want = np.zeros((T + 1, T + 1), dtype=np.int64)
        for t in range(1, T + 1):
            for b in range(1, t + 1):
                want[b, t] = counters[b].feed(0, next(noise))
        assert next(noise, None) is None
        assert np.array_equal(synth._noise_map, want)


def test_selection_is_read_only_in_rounds_with_a_choice():
    # a weight pool asked for none or all of its rows has one outcome and
    # reads no randomness, so a round whose pools are all like that leaves the
    # selection generator as it was, and any other round reads it
    n, T = 200, 30
    ds = simulate_dataset("markov", n, T, np.random.default_rng(3))
    synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, rho=0.05), np.random.default_rng(3))
    read, choice = [], []
    for t in range(1, T + 1):
        before = synth._select.bit_generator.state
        synth.step(ds, t)
        read.append(synth._select.bit_generator.state != before)
        hat = synth.bank.hat
        sizes = hat[:t, t - 1] - hat[1 : t + 1, t - 1]
        ones = hat[1 : t + 1, t] - hat[1 : t + 1, t - 1]
        choice.append(bool(((ones > 0) & (ones < sizes)).any()))
    assert read == choice
    assert 0 < sum(choice) < T  # the run has rounds of both kinds


def test_a_run_feeds_one_counter_T_times_and_never_monotonizes(monkeypatch):
    calls = {"feed": 0, "monotonize": 0}
    for cls, name in ((TreeCounter, "feed"), (MonotoneBank, "monotonize")):
        def counted(*args, _orig=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(cls, name, counted)
    T = 30
    ds = random_dataset(np.random.default_rng(5), 80, T, p=0.3)
    synth = CumulativeSynthesizer(80, CumulativeSynthConfig(T=T, rho=0.5), np.random.default_rng(6))
    synth.run(ds)
    synth.bank.validate()
    assert calls == {"feed": T, "monotonize": 0}
