import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelsynth.dp import BitSource, ceil_log2, zcdp_to_approx_dp
from panelsynth.model import (
    LongitudinalDataset,
    RowGroups,
    SuffixHistogram,
    SyntheticStore,
    mark_random_subset,
    suffix_index,
    suffix_string,
    true_cumulative_counts,
    true_suffix_histogram,
)


# values a bit column must refuse, including ones that cast to 0 or 1 as uint8
NON_BITS = [2, 0.5, -1, float("nan"), 256.0, -256]


class TestSuffixKeys:
    def test_roundtrip(self):
        for k in (1, 2, 3, 5):
            for code in range(1 << k):
                assert suffix_index(suffix_string(code, k)) == code

    def test_lexicographic_order_matches_codes(self):
        keys = [suffix_string(code, 3) for code in range(8)]
        assert keys == sorted(keys)
        assert keys[0] == "000" and keys[-1] == "111"

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            suffix_index("10a")
        with pytest.raises(ValueError):
            suffix_index("")
        with pytest.raises(ValueError):
            suffix_string(8, 3)


class TestIngest:
    def test_first_round(self):
        ds = LongitudinalDataset(3)
        ds.append_column([1, 0, 1])
        assert ds.t_max == 1
        assert ds.matrix().tolist() == [[1], [0], [1]]

    def test_length_mismatch(self):
        ds = LongitudinalDataset(3)
        ds.append_column([0, 0, 0])
        with pytest.raises(ValueError, match="round 2: expected 3 bits"):
            ds.append_column([0, 1])
        assert ds.t_max == 1

    @pytest.mark.parametrize("bad", NON_BITS, ids=repr)
    def test_non_binary_value(self, bad):
        with pytest.raises(ValueError, match="round 2: values must be 0 or 1"):
            LongitudinalDataset.from_matrix(np.array([[0, 0], [1, bad]]))

    def test_first_bad_round_is_named_across_planes_and_slabs(self):
        # round 12 is bad in the first rows and round 10 far below them, in
        # a later slab: the earlier round is the one named
        bits = np.zeros((50_000, 12), dtype=np.int64)
        bits[0, 11] = 2
        bits[45_000, 9] = -1
        with pytest.raises(ValueError, match="round 10: values must be 0 or 1"):
            LongitudinalDataset.from_matrix(bits)


class TestTrueSuffixHistogram:
    def test_hand_enumerated(self):
        ds = LongitudinalDataset.from_matrix([[1, 1], [1, 0], [0, 0]])
        hist = true_suffix_histogram(ds, 2, 2)
        assert [hist[s] for s in ("00", "01", "10", "11")] == [1, 0, 1, 1]

    def test_k1_is_column_histogram(self):
        ds = LongitudinalDataset.from_matrix([[1], [0], [1], [1]])
        hist = true_suffix_histogram(ds, 1, 1)
        assert hist["1"] == 3 and hist["0"] == 1

    def test_all_ones_degenerate(self):
        ds = LongitudinalDataset.from_matrix(np.ones((5, 3), dtype=int))
        hist = true_suffix_histogram(ds, 3, 3)
        assert hist["111"] == 5
        assert hist.total() == 5

    def test_requires_t_at_least_k(self):
        ds = LongitudinalDataset.from_matrix(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            true_suffix_histogram(ds, 3, 2)

    @settings(deadline=None)
    @given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 10_000))
    def test_counts_sum_to_n(self, n, T, seed):
        rng = np.random.default_rng(seed)
        ds = LongitudinalDataset.from_matrix((rng.random((n, T)) < 0.5).astype(np.uint8))
        for k in range(1, min(T, 3) + 1):
            for t in range(k, T + 1):
                assert true_suffix_histogram(ds, k, t).total() == n


class TestTrueCumulativeCounts:
    def test_brute_force_instance(self):
        ds = LongitudinalDataset.from_matrix([(1, 1, 0), (0, 1, 1), (0, 0, 0)])
        s = true_cumulative_counts(ds, 3)
        assert s.tolist() == [3, 2, 2, 0]

    def test_threshold_zero_is_population(self):
        rng = np.random.default_rng(0)
        ds = LongitudinalDataset.from_matrix((rng.random((7, 4)) < 0.3).astype(np.uint8))
        for t in range(1, 5):
            assert true_cumulative_counts(ds, t)[0] == 7

    def test_all_zero_rows(self):
        ds = LongitudinalDataset.from_matrix(np.zeros((4, 5), dtype=int))
        s = true_cumulative_counts(ds, 5)
        assert s[0] == 4 and (s[1:] == 0).all()

    @settings(deadline=None)
    @given(st.integers(1, 25), st.integers(1, 8), st.integers(0, 10_000))
    def test_differences_are_exact_weight_counts(self, n, T, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random((n, T)) < 0.4).astype(np.uint8)
        ds = LongitudinalDataset.from_matrix(bits)
        for t in range(1, T + 1):
            s = true_cumulative_counts(ds, t)
            weights = bits[:, :t].sum(axis=1)
            for b in range(t):
                assert s[b] - s[b + 1] == (weights == b).sum()
            assert s[t] == (weights == t).sum()
            assert (np.diff(s) <= 0).all()


class TestSuffixHistogramType:
    def test_explicit_zero_bins(self):
        hist = SuffixHistogram(2, [5, 0, 0, 1])
        assert len(hist.counts) == 4
        assert hist["01"] == 0
        assert hist[3] == 1

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError):
            SuffixHistogram(2, [1, 2, 3])


class TestSyntheticStore:
    def test_append_and_read_back(self):
        store = SyntheticStore(3)
        store.append_column([1, 0, 1])
        store.append_column([0, 0, 1])
        assert store.t_max == 2
        assert store.matrix().tolist() == [[1, 0], [0, 0], [1, 1]]

    def test_released_columns_are_snapshots(self):
        store = SyntheticStore(2)
        col = np.array([1, 0], dtype=np.uint8)
        store.append_column(col)
        col[0] = 0
        assert store.column(1).tolist() == [1, 0]

    def test_rejects_wrong_population(self):
        store = SyntheticStore(2)
        with pytest.raises(ValueError):
            store.append_column([1, 0, 1])

    @pytest.mark.parametrize("bad", NON_BITS, ids=repr)
    def test_rejects_non_binary_value(self, bad):
        store = SyntheticStore(2)
        with pytest.raises(ValueError, match="0 or 1"):
            store.append_column(np.array([0, bad]))
        assert store.t_max == 0

    def test_accepts_bool_and_float_bits(self):
        store = SyntheticStore(2)
        store.append_column(np.array([True, False]))
        store.append_column(np.array([0.0, 1.0]))
        assert store.matrix().tolist() == [[1, 0], [0, 1]]
        assert store.column(1).dtype == np.uint8

    def test_histograms_match_dataset_semantics(self):
        rng = np.random.default_rng(1)
        bits = (rng.random((10, 6)) < 0.5).astype(np.uint8)
        ds = LongitudinalDataset.from_matrix(bits)
        store = SyntheticStore(10)
        for t in range(6):
            store.append_column(bits[:, t])
        for t in range(2, 7):
            assert (
                store.suffix_histogram(2, t).counts
                == true_suffix_histogram(ds, 2, t).counts
            ).all()
        for t in range(1, 7):
            assert (store.cumulative_counts(t) == true_cumulative_counts(ds, t)).all()


class TestOnePanelType:
    def test_store_is_the_dataset_type(self):
        assert SyntheticStore is LongitudinalDataset
        assert SyntheticStore(4).m == 4

    def test_histograms_are_computed_once_and_read_only(self):
        ds = LongitudinalDataset.from_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        hist = ds.suffix_histogram(2, 3)
        assert true_suffix_histogram(ds, 2, 3) is hist
        counts = ds.cumulative_counts(3)
        assert true_cumulative_counts(ds, 3) is counts
        for arr in (hist.counts, counts, ds.column(1)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 9
        with pytest.raises(AttributeError):
            hist.counts = np.zeros(4)

    def test_memoized_answers_stay_exact_after_appends(self):
        rng = np.random.default_rng(5)
        bits = (rng.random((20, 6)) < 0.5).astype(np.uint8)
        grown = LongitudinalDataset(20)
        early = []
        for t in range(6):
            grown.append_column(bits[:, t])
            early.append((grown.suffix_histogram(1, t + 1), grown.cumulative_counts(t + 1)))
        fresh = LongitudinalDataset.from_matrix(bits)
        for t, (hist, counts) in enumerate(early, start=1):
            assert (hist.counts == fresh.suffix_histogram(1, t).counts).all()
            assert (counts == fresh.cumulative_counts(t)).all()

    def test_rounds_past_t_max_are_refused(self):
        ds = LongitudinalDataset.from_matrix(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="not appended"):
            ds.suffix_histogram(2, 4)
        with pytest.raises(ValueError, match="not appended"):
            ds.cumulative_counts(4)
        ds.append_column([1, 1])
        assert ds.suffix_histogram(1, 4)["1"] == 2


class TestBytePlanes:
    """The packed panel against a naive uint8 reference of the same bits."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 50), st.integers(1, 140), st.integers(0, 140),
           st.floats(0, 1), st.integers(0, 10_000))
    # weights past 255 need a wider weight dtype than uint8
    @example(n=7, T=300, split=131, p=0.95, seed=3)
    def test_matches_naive_reference(self, n, T, split, p, seed):
        bits = (np.random.default_rng(seed).random((n, T)) < p).astype(np.uint8)
        # rounds up to split are packed by from_matrix, the rest appended
        split = min(split, T)
        ds = LongitudinalDataset.from_matrix(bits[:, :split])
        for t in range(split, T):
            ds.append_column(bits[:, t])
        assert ds.t_max == T
        np.testing.assert_array_equal(ds.matrix(), bits)
        for t in range(1, T + 1):
            np.testing.assert_array_equal(ds.column(t), bits[:, t - 1])
            weights = bits[:, :t].sum(axis=1)
            expected = [(weights >= b).sum() for b in range(t + 1)]
            np.testing.assert_array_equal(ds.cumulative_counts(t), expected)
        for k in range(1, min(T, 12) + 1):
            place = 1 << np.arange(k - 1, -1, -1)
            for t in range(k, T + 1):
                codes = bits[:, t - k : t].astype(np.int64) @ place
                np.testing.assert_array_equal(
                    ds.suffix_histogram(k, t).counts, np.bincount(codes, minlength=1 << k)
                )

    def test_copies_out_are_fresh_and_read_only(self):
        ds = LongitudinalDataset.from_matrix([[1, 0], [0, 1]])
        for arr in (ds.column(2), ds.matrix()):
            assert arr.dtype == np.uint8
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert ds.column(1) is not ds.column(1)
        assert LongitudinalDataset(3).matrix().shape == (3, 0)

    def test_pickles_packed_and_recomputes_memos(self):
        bits = (np.random.default_rng(2).random((1_000, 16)) < 0.5).astype(np.uint8)
        ds = LongitudinalDataset.from_matrix(bits)
        hist = ds.suffix_histogram(3, 12)
        blob = pickle.dumps(ds)
        assert len(blob) < bits.nbytes // 8 + 1_000
        copy = pickle.loads(blob)
        np.testing.assert_array_equal(copy.matrix(), bits)
        again = copy.suffix_histogram(3, 12)
        np.testing.assert_array_equal(again.counts, hist.counts)
        with pytest.raises(ValueError, match="read-only"):
            again.counts[0] = 9

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_no_temporary_of_the_whole_panel(self):
        # 200,000 rows x 16 rounds pack into two 200,000-byte planes
        n, T = 200_000, 16
        packed = n * T // 8
        bits = (np.random.default_rng(0).random((n, T)) < 0.3).astype(np.uint8)
        ds, peak = self._peak_bytes(lambda: LongitudinalDataset.from_matrix(bits))
        assert peak <= 4 * packed
        out, peak = self._peak_bytes(ds.matrix)
        assert peak <= out.nbytes + 2 * packed


class TestMarkRandomSubset:
    """Counts of 0 and of the whole pool draw nothing. Otherwise pools up to
    10,000 rows keep the permutation draw; larger ones draw the smaller side."""

    @pytest.mark.parametrize("size", [1, 777, 10_000, 10_001, 25_000])
    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.7, 1.0])
    def test_marks_exactly_count_rows_inside_pool(self, size, frac):
        rng = np.random.default_rng(size)
        n = size + 500
        pool = rng.permutation(n)[:size]
        outside = np.setdiff1d(np.arange(n), pool)
        column = np.zeros(n, dtype=np.uint8)
        column[outside] = rng.integers(0, 2, outside.size)
        before = column.copy()
        count = round(frac * size)
        mark_random_subset(column, pool, count, np.random.default_rng(1))
        assert int(column[pool].sum()) == count
        assert column[pool].max(initial=0) <= 1
        np.testing.assert_array_equal(column[outside], before[outside])

    @pytest.mark.parametrize("size, count", [(500, 123), (10_000, 6_000)])
    def test_small_pool_is_the_permutation_draw(self, size, count):
        pool = np.random.default_rng(5).permutation(size + 100)[:size]
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        column = np.zeros(size + 100, dtype=np.uint8)
        mark_random_subset(column, pool, count, rng)
        expected = np.zeros_like(column)
        expected[pool[ref.permutation(size)[:count]]] = 1
        np.testing.assert_array_equal(column, expected)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size, count", [(size, count) for size in (1, 500, 10_000, 20_000)
                                             for count in (0, size)])
    def test_degenerate_count_reads_no_randomness(self, size, count):
        # marking none or all of a pool has one outcome, so the generator is not read
        rng = np.random.default_rng(size)
        n = size + 100
        pool = rng.permutation(n)[:size]
        outside = np.setdiff1d(np.arange(n), pool)
        column = np.zeros(n, dtype=np.uint8)
        column[outside] = rng.integers(0, 2, outside.size)
        expected = column.copy()
        expected[pool] = 1 if count else 0
        state = rng.bit_generator.state
        mark_random_subset(column, pool, count, rng)
        np.testing.assert_array_equal(column, expected)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("size", [100, 20_000])
    def test_rejects_count_outside_pool(self, size):
        column = np.zeros(size, dtype=np.uint8)
        for count in (-1, size + 1):
            with pytest.raises(ValueError, match="cannot mark"):
                mark_random_subset(column, np.arange(size), count, np.random.default_rng(0))
        assert not column.any()

    @pytest.mark.parametrize("count", [3_000, 7_000], ids=["direct", "complement"])
    def test_large_pool_inclusion_is_uniform(self, count):
        size, draws = 10_001, 3_000
        rng = np.random.default_rng(count)
        pool = rng.permutation(size)
        hits = np.zeros(size, dtype=np.int64)
        for _ in range(draws):
            column = np.zeros(size, dtype=np.uint8)
            mark_random_subset(column, pool, count, rng)
            # the sampled count is never off
            assert int(column.sum()) == count
            hits += column
        p = count / size
        z = (hits - draws * p) / math.sqrt(draws * p * (1 - p))
        # per-row inclusion: chi-square on size - 1 degrees of freedom, within
        # six standard deviations, and no single row more than 5.5 sigma out
        df = size - 1
        assert abs(float((z**2).sum()) - df) < 6 * math.sqrt(2 * df)
        assert float(np.abs(z).max()) < 5.5


class TestRowGroups:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_new_column_matches_a_draw_for_every_group(self, data):
        # skipping empty groups reads the same randomness as visiting them all
        sizes = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=1, max_size=12))
        ones = [data.draw(st.integers(0, size)) for size in sizes]
        keys = np.random.default_rng(len(sizes)).permutation(np.repeat(np.arange(len(sizes)), sizes))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        column = RowGroups(keys.astype(np.uint8), np.array(sizes), "pool").new_column(
            np.array(ones), rng)
        expected = np.zeros(keys.size, dtype=np.uint8)
        order = np.argsort(keys, kind="stable")
        for stop, size, count in zip(np.cumsum(sizes).tolist(), sizes, ones):
            mark_random_subset(expected, order[stop - size:stop], count, ref)
        np.testing.assert_array_equal(column, expected)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_inclusion_is_uniform_with_full_empty_and_partial_groups(self):
        # groups asked for all, none or some of their rows: the first two kinds
        # are fixed, and each row of a partial group is in with chance ones/size
        sizes = np.array([40, 0, 300, 25, 700, 60, 1_000])
        ones = np.array([40, 0, 90, 0, 350, 60, 800])
        keys = np.random.default_rng(3).permutation(np.repeat(np.arange(sizes.size), sizes))
        groups = RowGroups(keys.astype(np.uint8), sizes, "pool")
        rng, draws = np.random.default_rng(4), 3_000
        hits = np.zeros(keys.size, dtype=np.int64)
        for _ in range(draws):
            column = groups.new_column(ones, rng)
            np.testing.assert_array_equal(np.bincount(keys, column, sizes.size), ones)
            hits += column
        p = (ones / np.maximum(sizes, 1))[keys]
        fixed = (p == 0) | (p == 1)
        np.testing.assert_array_equal(hits[fixed], draws * p[fixed])
        p = p[~fixed]
        z = (hits[~fixed] - draws * p) / np.sqrt(draws * p * (1 - p))
        # each partial row's hits are binomial: chi-square on one degree of
        # freedom per row, within six standard deviations, no row past 5.5 sigma
        df = z.size
        assert abs(float((z**2).sum()) - df) < 6 * math.sqrt(2 * df)
        assert float(np.abs(z).max()) < 5.5

    def test_empty_group_asked_for_ones_is_refused(self):
        groups = RowGroups(np.array([0, 0, 2], dtype=np.uint8), np.array([2, 0, 1]), "pool")
        with pytest.raises(ValueError, match="^cannot mark 1 rows of a pool of 0$"):
            groups.new_column(np.array([1, 1, 0]), np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: zcdp_to_approx_dp(-1, 0.1), "rho must be non-negative"),
    (lambda: ceil_log2(0), "x must be positive"),
    (lambda: BitSource(np.random.default_rng(0)).randbelow(0), "n must be positive"),
    (lambda: LongitudinalDataset(0), "population size must be at least 1"),
    (lambda: LongitudinalDataset.from_matrix([0, 1, 1]),
     "expected a 2-d array of bits (individuals x rounds)"),
    (lambda: LongitudinalDataset.from_matrix([[0, 1], [1, 1]]).suffix_histogram(0, 2),
     "window length k must be at least 1"),
], ids=["negative-rho", "ceil-log2-of-0", "randbelow-0", "empty-population", "1-d-matrix",
        "window-length-0"])
def test_dp_and_panel_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
