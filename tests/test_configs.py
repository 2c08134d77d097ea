"""The engine configs' budget arithmetic and the values it accepts.

The oracles in conftest are the free functions the config methods replaced,
verbatim. Every value must match with exact ``==``: bundles and ``bound``
print these floats with repr, so a reordered float expression would change
their bytes.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    accuracy_of,
    compute_error_bound,
    compute_n_pad,
    compute_relative_error_bound,
    cumulative_split_weights,
    split_cumulative,
)
from panelsynth.cli import main
from panelsynth.cumulative import CumulativeSynthConfig
from panelsynth.window import WindowSynthConfig

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


NOISY_CONFIGS = [
    lambda rho: WindowSynthConfig(T=12, k=3, rho=rho),
    lambda rho: CumulativeSynthConfig(T=12, rho=rho),
]


@pytest.mark.parametrize("make", NOISY_CONFIGS, ids=["window", "cumulative"])
@pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_noisy_config_refuses_rho_that_is_not_positive_and_finite(make, rho):
    with pytest.raises(ValueError, match="rho must be"):
        make(rho)


@pytest.mark.parametrize("make", NOISY_CONFIGS, ids=["window", "cumulative"])
@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_guarantee_refuses_beta_outside_the_unit_interval(make, beta):
    with pytest.raises(ValueError, match="beta must lie in"):
        make(0.1).guarantee(100, beta)


@pytest.mark.parametrize("n, c_frac, message", [
    (0, 0.5, "n must be at least 1"),
    (-5, 0.5, "n must be at least 1"),
    (100, 2.0, "c_frac must lie in"),
    (100, -0.1, "c_frac must lie in"),
])
def test_relative_error_bound_refuses_bad_arguments(n, c_frac, message):
    with pytest.raises(ValueError, match=message):
        WindowSynthConfig(T=12, k=3, rho=0.1).relative_error_bound(n, 0.05, c_frac)
