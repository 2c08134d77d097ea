import numpy as np
import pytest

from conftest import cumulative_from_window_oracle, random_dataset
from panelsynth.model import LongitudinalDataset, SyntheticStore
from panelsynth.queries import (
    QuerySpec,
    UnsupportedWindowError,
    debias_fraction,
    debiased_answer,
    eval_query,
    is_supported,
    parse_queries,
)
from panelsynth.window import WindowSynthConfig, WindowSynthesizer


class TestQuerySpec:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            QuerySpec.window("", 3)
        with pytest.raises(ValueError):
            QuerySpec.window("101", 2)  # t before the window is full

    def test_linear_requires_uniform_length(self):
        with pytest.raises(ValueError):
            QuerySpec.linear({"10": 1.0, "011": 1.0}, 5)

    def test_ids(self):
        assert QuerySpec.window("101", 7).query_id == "window:101"
        assert QuerySpec.cumulative(3, 12).query_id == "cum:3"
        assert QuerySpec.linear({"11": 1}, 4, name="pair").query_id == "pair"

    def test_parse_json_formats(self):
        qs = parse_queries(
            '[{"kind":"window","s":"101","t":7},'
            ' {"kind":"cum","b":3,"t":12},'
            ' {"kind":"linear","t":7,"weights":{"110":1,"011":1}}]'
        )
        assert [q.kind for q in qs] == ["window", "cumulative", "linear"]

    def test_parse_expands_round_lists(self):
        qs = parse_queries('[{"kind":"window","s":"11","t":[2,4,6]}]')
        assert [q.t for q in qs] == [2, 4, 6]

    def test_roundtrips_to_dict(self):
        for q in (QuerySpec.window("01", 5), QuerySpec.cumulative(2, 4),
                  QuerySpec.linear({"11": 2.0}, 3)):
            assert parse_queries([q.to_dict()])[0] == q


class TestEvalQuery:
    def test_all_ones_window(self):
        ds = LongitudinalDataset.from_matrix(np.ones((4, 3), dtype=int))
        assert eval_query(ds, QuerySpec.window("111", 3)) == 1.0

    def test_cumulative_brute_force(self):
        ds = LongitudinalDataset.from_matrix([(1, 1, 0), (0, 1, 1), (0, 0, 0)])
        assert eval_query(ds, QuerySpec.cumulative(2, 3)) == pytest.approx(2 / 3)

    def test_cumulative_edges(self):
        ds = LongitudinalDataset.from_matrix([(1, 0), (0, 0)])
        assert eval_query(ds, QuerySpec.cumulative(0, 2)) == 1.0
        assert eval_query(ds, QuerySpec.cumulative(5, 2)) == 0.0

    def test_linear_indicator_matches_direct_count(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 30, 5, p=0.5)
        heavy = {s: 1.0 for s in ("011", "101", "110", "111")}
        q = QuerySpec.linear(heavy, 5)
        direct = sum(
            1 for w in ds.matrix()[:, 2:5].sum(axis=1) if w >= 2
        ) / ds.n
        assert eval_query(ds, q) == pytest.approx(direct)

    def test_linearity_against_per_bin_sums(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 40, 6, p=0.4)
        weights = {"00": 2.0, "11": -1.0, "10": 0.5}
        q = QuerySpec.linear(weights, 4)
        per_bin = sum(w * eval_query(ds, QuerySpec.window(s, 4)) for s, w in weights.items())
        assert eval_query(ds, q) == pytest.approx(per_bin, rel=1e-12)

    def test_round_beyond_data_rejected(self):
        ds = LongitudinalDataset.from_matrix([(1, 0)])
        with pytest.raises(ValueError, match="exceeds"):
            eval_query(ds, QuerySpec.cumulative(1, 5))


class TestUnsupportedWindow:
    def test_refusal_and_force(self):
        store = SyntheticStore(4)
        for _ in range(4):
            store.append_column([1, 0, 1, 0])
        q = QuerySpec.window("1111", 4)
        with pytest.raises(UnsupportedWindowError):
            eval_query(store, q, supported_k=3)
        assert eval_query(store, q, supported_k=3, force=True) == 0.5

    def test_supported_width_passes(self):
        store = SyntheticStore(2)
        store.append_column([1, 1])
        store.append_column([1, 0])
        assert eval_query(store, QuerySpec.window("1", 2), supported_k=3) == 0.5

    def test_support_predicate(self):
        window3 = QuerySpec.window("101", 5)
        linear2 = QuerySpec.linear({"01": 1, "10": -1}, 5)
        cum = QuerySpec.cumulative(2, 5)
        # window synthesizer of length k: window and linear queries up to k rounds wide
        assert [is_supported(q, 3) for q in (window3, linear2, cum)] == [True, True, False]
        assert [is_supported(q, 2) for q in (window3, linear2, cum)] == [False, True, False]
        # cumulative synthesizer: cumulative queries only
        assert [is_supported(q, None) for q in (window3, linear2, cum)] == [False, False, True]

    def test_cumulative_query_passes_a_window_check(self):
        store = SyntheticStore(2)
        store.append_column([1, 0])
        assert eval_query(store, QuerySpec.cumulative(1, 1), supported_k=1) == 0.5


class TestDebias:
    def test_reference_values(self):
        assert debias_fraction(140, 135, 1000) == pytest.approx(0.005)
        assert debias_fraction(135, 135, 123) == 0.0

    def test_may_go_negative(self):
        assert debias_fraction(100, 135, 1000) < 0

    def test_noiseless_run_debiases_exactly(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 25, 5, p=0.4)
        cfg = WindowSynthConfig(T=5, k=2, noiseless=True, n_pad=3)
        synth = WindowSynthesizer(cfg, rng)
        store = synth.run(ds)
        for t in range(2, 6):
            truth = ds.suffix_histogram(2, t)
            for s in ("00", "01", "10", "11"):
                got = debiased_answer(store, QuerySpec.window(s, t), 3, ds.n, k=2)
                assert got == pytest.approx(truth[s] / ds.n)

    def test_shorter_window_scales_padding(self):
        # every width-k bin carries n_pad, so a width-1 bin carries 2**(k-1) of them
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 25, 5, p=0.4)
        cfg = WindowSynthConfig(T=5, k=3, noiseless=True, n_pad=2)
        synth = WindowSynthesizer(cfg, rng)
        store = synth.run(ds)
        truth = eval_query(ds, QuerySpec.window("1", 4))
        got = debiased_answer(store, QuerySpec.window("1", 4), 2, ds.n, k=3)
        assert got == pytest.approx(truth)


class TestReductionOracle:
    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            T = int(rng.integers(1, 9))
            ds = random_dataset(rng, n, T)
            t = int(rng.integers(1, T + 1))
            b = int(rng.integers(0, t + 2))
            direct = eval_query(ds, QuerySpec.cumulative(b, t))
            assert cumulative_from_window_oracle(ds, b, t) == direct

    def test_b_zero_is_one(self):
        ds = LongitudinalDataset.from_matrix([(0, 0), (1, 0)])
        assert cumulative_from_window_oracle(ds, 0, 2) == 1.0

    def test_full_weight_on_all_ones(self):
        ds = LongitudinalDataset.from_matrix(np.ones((3, 4), dtype=int))
        assert cumulative_from_window_oracle(ds, 4, 4) == 1.0

    def test_enumeration_guard(self):
        ds = LongitudinalDataset.from_matrix(np.ones((2, 14), dtype=int))
        with pytest.raises(ValueError, match="capped"):
            cumulative_from_window_oracle(ds, 1, 14)
