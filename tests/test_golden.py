"""Pinned output digests for seeded runs of both engines.

Each digest is the SHA-256 of every published column, in round order. The
selection RNG's ``mark_random_subset`` draws index into each group's rows
taken in ascending row index, so any regrouping of rows inside ``step`` must
keep these digests exactly. A group marked nowhere or everywhere reads no
randomness, so only groups with 0 < ones < size consume the selection
stream. Such groups of at most 10,000 rows draw a whole-pool permutation,
O(group); larger ones draw only the smaller of the marked rows and their
complement, O(picked). The large-pool cases assert that they reach both
sides of that draw. The cumulative release pins hash ``s_tilde`` and the
bank apart from the rows, so they hold whichever rows realize the counts.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_dataset
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from panelsynth.harness import simulate_dataset
from panelsynth.model import LongitudinalDataset, SyntheticStore
from panelsynth.window import PaddingExhaustedError, WindowSynthConfig, WindowSynthesizer


def _panel(seed: int, n: int, T: int) -> LongitudinalDataset:
    return random_dataset(np.random.default_rng(seed), n, T, p=0.3)


def _sticky_panel(seed: int, n: int, T: int) -> LongitudinalDataset:
    # half the rows report 1 and nine in ten keep their bit each round, so
    # pools of about n/2 rows get about 10% or about 90% new ones
    rng = np.random.default_rng(seed)
    return simulate_dataset("markov", n, T, rng, p0=0.5, stay=0.9, enter=0.1)


def _large_pool_sides(store: SyntheticStore, first: int, pool_key) -> set[str]:
    """Which side of the large-pool draw each pool over 10,000 rows took.

    ``pool_key(t)`` gives each row's pool at round t; the marked rows are the
    pool's ones in column t.
    """
    sides = set()
    for t in range(first, store.t_max + 1):
        keys, column = pool_key(t), store.column(t)
        for key in np.unique(keys):
            in_pool = keys == key
            size, ones = int(in_pool.sum()), int(column[in_pool].sum())
            if size > 10_000:
                sides.add("direct" if 2 * ones <= size else "complement")
    return sides


def _digest(store: SyntheticStore) -> str:
    h = hashlib.sha256()
    for t in range(1, store.t_max + 1):
        h.update(store.column(t).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "k, n, T, rho, seed, m, digest",
    [
        (1, 500, 8, 0.5, 101, 521,
         "1e6576b99ab22354d77c7ccb641ceb80d57b7f44f6ee02f28d3167132ca30196"),
        (3, 3000, 12, 0.05, 103, 3345,
         "73cb442ac021dc15800857f89075e3f3181dbefd9dfb1a9b355d3dc84b2ab7d6"),
        (10, 2000, 14, 1.0, 110, 11203,
         "7020f48495b54522376f11c88b630f8189fe64ad5375055a052e9e12bc1e9628"),
    ],
    ids=["k1", "k3", "k10"],
)
def test_window_columns_are_pinned(k, n, T, rho, seed, m, digest):
    synth = WindowSynthesizer(WindowSynthConfig(T=T, k=k, rho=rho), np.random.default_rng(seed))
    store = synth.run(_panel(seed, n, T))
    assert (store.m, store.t_max) == (m, T)
    assert _digest(store) == digest


def test_window_large_pools_are_pinned():
    synth = WindowSynthesizer(WindowSynthConfig(T=8, k=2, rho=1.0), np.random.default_rng(130))
    store = synth.run(_sticky_panel(130, 30_000, 8))
    assert (store.m, store.t_max) == (30034, 8)
    # k=2: a row's overlap group at round t is its bit at round t-1
    assert _large_pool_sides(store, 3, lambda t: store.column(t - 1)) == {"direct", "complement"}
    assert _digest(store) == (
        "5d0d52cd6b1a648e3f909016b97cd96f48fe82cbb8531c9847b7fd4853ca128c"
    )


def test_window_padding_failure_is_pinned():
    cfg = WindowSynthConfig(T=12, k=3, rho=0.005, n_pad=30)
    synth = WindowSynthesizer(cfg, np.random.default_rng(118))
    with pytest.raises(PaddingExhaustedError) as info:
        synth.run(_panel(118, 300, 12))
    err = info.value
    assert (err.t, err.suffix, err.value) == (12, "110", -13)
    assert (synth.m, synth.store.t_max) == (585, 11)
    assert _digest(synth.store) == (
        "4da8040cb983439196c95aa31f8d9a5aafbe8dd3a2ad4b4ffb22c40693dfffec"
    )


@pytest.mark.parametrize(
    "T, n, rho, seed, digest",
    [
        (12, 3000, 0.05, 112,
         "26b6a4a4255c36524f0816d9d75184d05fb446f7c619bbc5d663d99700bf358d"),
        (40, 1000, 0.5, 140,
         "1712352775b19ce308769f145bfd3c9bb4a889b0c2dc9f3f580280defafea1f5"),
    ],
    ids=["T12", "T40"],
)
def test_cumulative_columns_are_pinned(T, n, rho, seed, digest):
    cfg = CumulativeSynthConfig(T=T, rho=rho)
    synth = CumulativeSynthesizer(n, cfg, np.random.default_rng(seed))
    store = synth.run(_panel(seed, n, T))
    assert store.t_max == T
    assert _digest(store) == digest


@pytest.mark.parametrize(
    "T, n, rho, seed, panel, s_tilde, hat",
    [
        (12, 3000, 0.05, 112, _panel,
         "4cba8dd77d8eeb983822a8b60d35c54d4efad8bb97d45d51b9d87eb2cd0d8157",
         "0385afcbbceb0e5350d1f65a31484e80dade209549a0bb60e9fa1e4d815338b9"),
        (40, 1000, 0.5, 140, _panel,
         "ffc03f184ee6d62e6279b9abeef89b7bb894b2140a7d3434ff362b5936a2fae2",
         "e75f6654f2ae3ea2762dac76e5b443c31baededc026298bf919cf89af0192257"),
        (8, 30_000, 1.0, 131, _sticky_panel,
         "1896de1ac5c13a7d8c7a305a5fdd6fe3bcc66e8c5dd5e0f270b700282c8fc7c3",
         "0f3bd1302ae99f26306a8472d7346aa6c1890b45a769fa1153e31c490bf08cc5"),
    ],
    ids=["T12", "T40", "large-pools"],
)
def test_cumulative_release_is_pinned(T, n, rho, seed, panel, s_tilde, hat):
    # the released counts of the panel digests' runs: they do not depend on
    # which rows realize them, so a change to row selection alone keeps them
    synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, rho=rho), np.random.default_rng(seed))
    synth.run(panel(seed, n, T))
    assert hashlib.sha256(synth.s_tilde.tobytes()).hexdigest() == s_tilde
    assert hashlib.sha256(synth.bank.hat.tobytes()).hexdigest() == hat


def test_cumulative_large_pools_are_pinned():
    cfg = CumulativeSynthConfig(T=8, rho=1.0)
    synth = CumulativeSynthesizer(30_000, cfg, np.random.default_rng(131))
    store = synth.run(_sticky_panel(131, 30_000, 8))
    assert store.t_max == 8
    matrix = store.matrix().astype(np.int64)
    # a row's weight pool at round t is its synthetic weight over rounds 1..t-1
    sides = _large_pool_sides(store, 1, lambda t: matrix[:, : t - 1].sum(axis=1))
    assert sides == {"direct", "complement"}
    assert _digest(store) == (
        "a3b81b65a3b657cf968a42f5ea6d998866e75fdff944e0602ac30e7c7d41bc7b"
    )


def test_cumulative_past_round_255_is_pinned():
    # nearly every row reports 1, so synthetic weights pass 255 and a round's
    # weight pools are keyed by uint16 weights from round 257 on
    T, n, seed = 260, 200, 260
    synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, rho=1.0), np.random.default_rng(seed))
    store = synth.run(random_dataset(np.random.default_rng(seed), n, T, p=0.99))
    assert store.t_max == T and store.weights(T).max() > 255
    assert _digest(store) == (
        "65cf893321435569993557425f4f25bbb88803854502b9c00e1c81ef15732575"
    )
    assert hashlib.sha256(synth.s_tilde.tobytes()).hexdigest() == (
        "36b055a699f382b8bb6e0b15b320baf92cb58297496f16f9aaf3cf205bbf0793"
    )
    assert hashlib.sha256(synth.bank.hat.tobytes()).hexdigest() == (
        "db6276e016c0d1b650e2c647f8805aec622d8fee252315fbcf08532145d5ea89"
    )


def test_packed_planes_are_pinned():
    # 70,001 rows cross the 4,096-row packing slab 17 times and end in a
    # partial one; 61 rounds leave the last of the 8 planes 5 bits deep
    ds = simulate_dataset("markov", 70_001, 61, np.random.default_rng(35))
    digest = hashlib.sha256()
    for plane in ds._planes:
        assert plane.dtype == np.uint8 and plane.shape == (70_001,)
        digest.update(plane.tobytes())
    assert len(ds._planes) == 8 and digest.hexdigest() == (
        "613aaca2cd94801a4f8f260a1709b6358c22c7376d169a7d80571ddb857c25ac"
    )
