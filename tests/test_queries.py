import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cumulative_from_window_oracle, random_dataset
from panelsynth.model import LongitudinalDataset, SyntheticStore
from panelsynth.queries import (
    QuerySpec,
    UnsupportedWindowError,
    debiased_answer,
    eval_query,
    is_supported,
    parse_queries,
)
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
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

    @pytest.mark.parametrize("entry", [
        '{"kind":"window","s":"01","t":3.7}',
        '{"kind":"window","s":"01","t":3.0}',
        '{"kind":"window","s":"01","t":"2"}',
        '{"kind":"window","s":"01","t":true}',
        '{"kind":"window","s":"01","t":[2,3.5]}',
        '{"kind":"cum","b":true,"t":3}',
        '{"kind":"cum","b":1.5,"t":3}',
        '{"kind":"cum","b":"1","t":3}',
        '{"kind":"linear","t":4.2,"weights":{"11":1}}',
    ])
    def test_rounds_and_thresholds_must_be_integers(self, entry):
        with pytest.raises(ValueError, match="bad query entry .*expected an integer"):
            parse_queries(entry)

    def test_integer_rounds_and_thresholds_parse_as_given(self):
        qs = parse_queries('[{"kind":"cum","b":0,"t":[1,3]},{"kind":"window","s":"1","t":2}]')
        assert [(q.kind, q.b, q.t) for q in qs] == [
            ("cumulative", 0, 1), ("cumulative", 0, 3), ("window", None, 2)
        ]


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


def _one_round(ones: int, zeros: int) -> LongitudinalDataset:
    return LongitudinalDataset.from_matrix([[1]] * ones + [[0]] * zeros)


class TestDebias:
    def test_reference_values(self):
        q = QuerySpec.window("1", 1)
        assert debiased_answer(_one_round(140, 60), q, 135, 1000, k=1) == pytest.approx(0.005)
        assert debiased_answer(_one_round(135, 60), q, 135, 123, k=1) == 0.0

    def test_may_go_negative(self):
        # the estimate is reported unclamped: 100 rows against 135 padding records
        q = QuerySpec.window("1", 1)
        assert debiased_answer(_one_round(100, 300), q, 135, 1000, k=1) == -35 / 1000
        linear = QuerySpec.linear({"0": 1.0, "1": 2.0}, 1)
        assert debiased_answer(_one_round(100, 130), linear, 135, 1000, k=1) == -75 / 1000

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


@st.composite
def _panel_and_query(draw):
    """A random panel and a window, cumulative or linear query, possibly past its rounds."""
    n, T = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    data = LongitudinalDataset.from_matrix(np.random.default_rng(seed).integers(0, 2, (n, T)))
    t = draw(st.integers(1, T + 1))
    kind = draw(st.sampled_from(["window", "cumulative", "linear"]))
    if kind == "cumulative":
        return data, QuerySpec.cumulative(draw(st.integers(0, t + 1)), t)
    length = draw(st.integers(1, min(t, 4)))
    keys = st.text("01", min_size=length, max_size=length)
    if kind == "window":
        return data, QuerySpec.window(draw(keys), t)
    weights = st.dictionaries(keys, st.floats(-4, 4), min_size=1, max_size=4)
    return data, QuerySpec.linear(draw(weights), t)


def _row_count_answer(data, q) -> float:
    """The query's answer counted row by row from the panel's bit matrix."""
    bits = data.matrix()[:, : q.t].astype(int)
    if q.kind == "cumulative":
        return float((bits.sum(axis=1) >= q.b).mean())
    length = q.window_length
    codes = bits[:, q.t - length:] @ (1 << np.arange(length)[::-1])
    weights = ((q.s, 1.0),) if q.kind == "window" else q.weights
    return sum(w * int((codes == int(s, 2)).sum()) for s, w in weights) / data.n


class TestOneEvaluator:
    """eval_query is debiased_answer with no padding, on every query kind."""

    @settings(deadline=None, max_examples=300)
    @given(_panel_and_query(), st.sampled_from([None, 1, 2, 3]), st.booleans())
    def test_eval_query_is_unpadded_debiased_answer(self, panel_and_query, k, force):
        data, q = panel_and_query
        try:
            got = eval_query(data, q, k, force)
        except ValueError as exc:
            with pytest.raises(ValueError) as other:
                debiased_answer(data, q, 0, data.n, k, force)
            assert type(other.value) is type(exc)
            assert q.t > data.t_max or isinstance(exc, UnsupportedWindowError)
            return
        assert got == debiased_answer(data, q, 0, data.n, k, force)
        assert type(got) is type(debiased_answer(data, q, 0, data.n, k, force))
        assert got == pytest.approx(_row_count_answer(data, q), abs=1e-12)

    def test_forced_cumulative_on_window_store_divides_by_m(self):
        data = random_dataset(np.random.default_rng(4), 200, 6, p=0.3)
        synth = WindowSynthesizer(WindowSynthConfig(T=6, k=3, rho=0.5), np.random.default_rng(5))
        store = synth.run(data)
        assert store.m != data.n
        q = QuerySpec.cumulative(2, 6)
        expected = int(store.cumulative_counts(6)[2]) / store.m
        assert debiased_answer(store, q, synth.n_pad, data.n, k=3, force=True) == expected
        assert eval_query(store, q, force=True) == expected

    def test_forced_window_and_linear_on_cumulative_store(self):
        data = random_dataset(np.random.default_rng(6), 120, 5, p=0.4)
        synth = CumulativeSynthesizer(data.n, CumulativeSynthConfig(T=5, rho=1.0),
                                      np.random.default_rng(7))
        store = synth.run(data)
        hist = store.suffix_histogram(2, 4)
        window = QuerySpec.window("10", 4)
        linear = QuerySpec.linear({"01": 1.0, "11": -0.5}, 4)
        expected = {window: hist["10"] / data.n,
                    linear: (1.0 * hist["01"] + -0.5 * hist["11"]) / data.n}
        for q, value in expected.items():
            with pytest.raises(UnsupportedWindowError):
                debiased_answer(store, q, 0, data.n, k=1)
            assert debiased_answer(store, q, 0, data.n, force=True) == value
            assert debiased_answer(store, q, 0, data.n, k=1, force=True) == value
            assert eval_query(store, q, force=True) == value


@pytest.mark.parametrize("call, message", [
    (lambda: QuerySpec.window("1", 0), "query round t must be at least 1"),
    (lambda: QuerySpec.cumulative(-1, 3), "cumulative query needs a threshold b >= 0"),
    (lambda: QuerySpec(kind="linear", t=3, weights=()), "linear query needs non-empty weights"),
    (lambda: QuerySpec.linear({"10": math.inf}, 3), "linear query weights must be finite"),
    (lambda: QuerySpec.linear({"101": 1}, 2), "linear query undefined before its window length"),
    (lambda: QuerySpec(kind="median", t=3), "unknown query kind 'median'"),
    (lambda: parse_queries("3"), "a query list must be a JSON list or object"),
    (lambda: parse_queries('[{"kind": "window", "s": "1"}]'),
     "query entry missing 't': {'kind': 'window', 's': '1'}"),
    (lambda: parse_queries('[{"kind": "median", "t": 3}]'), "unknown query kind 'median'"),
], ids=["round-0", "negative-threshold", "empty-weights", "infinite-weight",
        "linear-before-its-window", "unknown-kind", "json-scalar", "entry-without-t",
        "entry-of-unknown-kind"])
def test_query_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
