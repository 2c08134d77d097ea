"""The engine configs' budget arithmetic and the values it accepts.

The oracles in conftest are the free functions the config methods replaced,
verbatim, the tree counters' noise formula among them. Every value must
match with exact ``==``: bundles and ``bound`` print these floats with repr,
so a reordered float expression would change their bytes. The rounds each
engine refuses to step close the file.
"""

import contextlib
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    accuracy_of,
    compute_error_bound,
    compute_n_pad,
    compute_relative_error_bound,
    cumulative_split_weights,
    random_dataset,
    split_cumulative,
    tree_noise_sigma2,
)
from panelsynth.cli import main
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from panelsynth.dp import MAX_NOISE_SIGMA2
from panelsynth.window import WindowSynthConfig, WindowSynthesizer

RHOS = st.floats(1e-6, 1e6)
PROBABILITIES = st.floats(1e-12, 1.0, exclude_max=True)
POPULATIONS = st.integers(1, 10**7)


@st.composite
def window_shapes(draw):
    T = draw(st.integers(1, 200))
    return T, draw(st.integers(1, min(T, 20)))


def bound_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bound", *argv]) == 0
    return json.loads(out.getvalue())


class TestWindowConfig:
    @settings(deadline=None, max_examples=300)
    @given(window_shapes(), RHOS, PROBABILITIES, PROBABILITIES, POPULATIONS, st.floats(0.0, 1.0))
    def test_matches_free_functions(self, shape, rho, beta_target, beta, n, c_frac):
        T, k = shape
        cfg = WindowSynthConfig(T=T, k=k, rho=rho, beta_target=beta_target)
        n_pad = compute_n_pad(T, k, rho, beta_target)
        bound = compute_error_bound(T, k, rho, beta)
        relative = compute_relative_error_bound(T, k, rho, beta, n, c_frac)
        assert cfg.resolved_n_pad() == n_pad
        assert cfg.guarantee(n, beta) == {"error_bound": bound, "alpha_star": None}
        assert cfg.relative_error_bound(n, beta, c_frac) == relative
        printed = bound_json("--T", str(T), "--k", str(k), "--rho", repr(rho),
                             "--beta-target", repr(beta_target), "--beta", repr(beta),
                             "--n", str(n), "--c-frac", repr(c_frac))
        assert printed["n_pad"] == n_pad
        assert printed["max_additive_error_bound"] == bound
        assert printed["max_relative_error_bound"] == relative


class TestCumulativeConfig:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 300), RHOS, PROBABILITIES, POPULATIONS)
    def test_matches_free_functions(self, T, rho, beta, n):
        cfg = CumulativeSynthConfig(T=T, rho=rho)
        schedule = split_cumulative(rho, T).tolist()
        alpha_star, beta_star = accuracy_of(cfg, n, beta)
        assert cfg.split_weights().tolist() == cumulative_split_weights(T).tolist()
        assert list(cfg.resolved_schedule()) == schedule
        assert cfg.guarantee(n, beta) == {"error_bound": alpha_star * n, "alpha_star": alpha_star}
        printed = bound_json("--mode", "cumulative", "--T", str(T), "--rho", repr(rho),
                             "--beta", repr(beta), "--n", str(n))
        assert printed["schedule"] == schedule
        assert printed["alpha_star"] == alpha_star
        assert printed["beta_star"] == beta_star

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 300), RHOS)
    def test_counter_sigma2_matches_tree_noise_sigma2(self, T, rho):
        cfg = CumulativeSynthConfig(T=T, rho=rho)
        schedule = cfg.resolved_schedule()
        want = tuple(tree_noise_sigma2(T - b + 1, schedule[b - 1]) for b in range(1, T + 1))
        assert cfg.counter_sigma2() == want


@pytest.mark.parametrize("noiseless", [False, True], ids=["noisy", "noiseless"])
def test_each_engine_samples_with_its_config_variance(noiseless):
    window = WindowSynthConfig(T=6, k=2, rho=0.3, noiseless=noiseless)
    assert WindowSynthesizer(window, 1)._sampler.sigma2 == window.sigma2
    # the cumulative engine samples each counter's variance rounded up within 2**-20
    cumulative = CumulativeSynthConfig(T=6, rho=0.3, noiseless=noiseless)
    synth = CumulativeSynthesizer(20, cumulative, 1)
    synth.step(random_dataset(np.random.default_rng(0), 20, 6), 1)
    # round 1 builds one noise row per threshold b = 1..6 beside the unused row 0
    assert synth._noise_map.shape == (7, 7) and not synth._noise_map[0].any()
    assert len(synth.sigma2) == 6
    for sampled, exact in zip(synth.sigma2, cumulative.counter_sigma2()):
        assert exact <= sampled <= exact * (1 + Fraction(1, 2**20))
    assert all(sigma2 == 0 for sigma2 in cumulative.counter_sigma2()) == noiseless


NOISY_CONFIGS = [
    lambda rho: WindowSynthConfig(T=12, k=3, rho=rho),
    lambda rho: CumulativeSynthConfig(T=12, rho=rho),
]


@pytest.mark.parametrize("make", NOISY_CONFIGS, ids=["window", "cumulative"])
@pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_noisy_config_refuses_rho_that_is_not_positive_and_finite(make, rho):
    with pytest.raises(ValueError, match="rho must be"):
        make(rho)


def test_cumulative_config_refuses_a_rho_whose_split_underflows():
    # a zero share would make its counter's variance ln(H) / 0; at 1e-300 every
    # share is positive, and the int64 bound on the counter noise refuses it instead
    with pytest.raises(ValueError, match="^rho 1e-300 is too small for counter noise that fits in int64$"):
        CumulativeSynthConfig(T=120, rho=1e-300)
    with pytest.raises(ValueError, match="rho must be positive for a noisy run"):
        CumulativeSynthConfig(T=120, rho=1e-320)


@pytest.mark.parametrize("T", [1, 12, 120])
def test_cumulative_config_bounds_the_counter_variance(T):
    # the largest variance is ln(2) / (2 rho_b) at the weight-1 shares; rho =
    # edge puts it at 2**63 and rho = 4 edge at 2**61, on either side of 2**62
    weights = cumulative_split_weights(T)
    edge = math.log(2) * int(weights.sum()) / 2**64
    assert max(CumulativeSynthConfig(T=T, rho=4 * edge).counter_sigma2()) <= MAX_NOISE_SIGMA2
    with pytest.raises(ValueError, match="too small for counter noise that fits in int64"):
        CumulativeSynthConfig(T=T, rho=edge)


@pytest.mark.parametrize("T, k", [(1, 1), (12, 3), (120, 10)])
def test_window_config_bounds_the_noise_variance(T, k):
    # the per-bin variance is (T - k + 1) / (2 rho); rho = edge puts it at
    # 2**63 and rho = 4 edge at 2**61, on either side of 2**62
    edge = (T - k + 1) / 2**64
    assert WindowSynthConfig(T=T, k=k, rho=4 * edge).sigma2 <= MAX_NOISE_SIGMA2
    with pytest.raises(ValueError, match=f"^rho {edge!r} is too small for noise that fits in int64$"):
        WindowSynthConfig(T=T, k=k, rho=edge)


@pytest.mark.parametrize("make", NOISY_CONFIGS, ids=["window", "cumulative"])
@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_guarantee_refuses_beta_outside_the_unit_interval(make, beta):
    with pytest.raises(ValueError, match="beta must lie in"):
        make(0.1).guarantee(100, beta)


@pytest.mark.parametrize("make", NOISY_CONFIGS, ids=["window", "cumulative"])
def test_guarantee_refuses_beta_too_small_for_a_finite_bound(make):
    assert math.isfinite(make(0.1).guarantee(100, 1e-300)["error_bound"])
    with pytest.raises(ValueError, match="beta 1e-320 is too small for a finite bound"):
        make(0.1).guarantee(100, 1e-320)


def test_window_config_refuses_beta_target_too_small_for_a_finite_padding():
    with pytest.raises(ValueError, match="beta_target 1e-310 is too small for a finite bound"):
        WindowSynthConfig(T=12, k=3, rho=0.1, beta_target=1e-310)
    # the padding is not derived from beta_target when it is given or when noiseless
    assert WindowSynthConfig(T=12, k=3, rho=0.1, beta_target=1e-310, n_pad=4).n_pad == 4
    assert WindowSynthConfig(T=12, k=3, beta_target=1e-310, noiseless=True).resolved_n_pad() == 0


@pytest.mark.parametrize("n, c_frac, message", [
    (0, 0.5, "n must be at least 1"),
    (-5, 0.5, "n must be at least 1"),
    (100, 2.0, "c_frac must lie in"),
    (100, -0.1, "c_frac must lie in"),
])
def test_relative_error_bound_refuses_bad_arguments(n, c_frac, message):
    with pytest.raises(ValueError, match=message):
        WindowSynthConfig(T=12, k=3, rho=0.1).relative_error_bound(n, 0.05, c_frac)


def _window_at_round_2(T, ds):
    synth = WindowSynthesizer(WindowSynthConfig(T=T, k=2, noiseless=True), 0)
    synth.init(ds)
    return synth


def _cumulative_at_round_2(T, ds):
    synth = CumulativeSynthesizer(ds.n, CumulativeSynthConfig(T=T, noiseless=True), 0)
    synth.step(ds, 1)
    synth.step(ds, 2)
    return synth


@pytest.mark.parametrize("at_round_2", [_window_at_round_2, _cumulative_at_round_2],
                         ids=["window", "cumulative"])
@pytest.mark.parametrize("T, t_max, t, message", [
    (6, 6, 4, "out-of-order round: expected 3, got 4"),
    (2, 6, 3, "round 3 is beyond the horizon T=2"),
    (6, 2, 3, "round 3 not ingested (t_max=2)"),
], ids=["out-of-order", "beyond-horizon", "not-ingested"])
def test_step_refuses_a_round(at_round_2, T, t_max, t, message):
    ds = random_dataset(np.random.default_rng(8), 30, t_max, p=0.5)
    synth = at_round_2(T, ds)
    with pytest.raises(ValueError, match=re.escape(message)):
        synth.step(ds, t)
    assert synth.t == 2 and synth.store.t_max == 2

