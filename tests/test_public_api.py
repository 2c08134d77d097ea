"""The package's exported names resolve, and removed names stay removed.

A dangling re-export breaks ``import panelsynth``, and with it the
collection of every test module, so the exports are checked on their own.
"""

import importlib
import pkgutil

import pytest

import panelsynth

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(panelsynth.__path__))

# (module, name) pairs that were removed from the public API
REMOVED = [
    ("model", "all_suffixes"),
    ("queries", "debias_fraction"),
    ("queries", "_check_supported"),
    ("window", "compute_n_pad"),
    ("window", "compute_error_bound"),
    ("window", "compute_relative_error_bound"),
    ("cumulative", "accuracy_of"),
    ("dp", "split_cumulative"),
    ("dp", "cumulative_split_weights"),
    ("counters", "tree_noise_sigma2"),
    ("harness", "_max_error"),
    ("dp", "_floor_sqrt_ratio"),
    ("cumulative", "MAX_COUNTER_SIGMA2"),
]
REMOVED_ATTRIBUTES = [
    ("model", "SuffixHistogram", "as_dict"),
    ("dp", "ZCDPAccountant", "to_approx_dp"),
    ("cumulative", "CumulativeSynthesizer", "released_count"),
    ("window", "WindowSynthesizer", "_noise"),
    ("window", "WindowSynthesizer", "sigma2"),
    ("dp", "BitSource", "bernoulli"),
    ("dp", "BitSource", "geometric_exp"),
    ("dp", "BitSource", "dlaplace"),
]


def test_submodules_found():
    assert {"counters", "cumulative", "dp", "harness", "model", "queries", "window"} <= set(
        SUBMODULES
    )


@pytest.mark.parametrize("module", [""] + SUBMODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"panelsynth.{module}" if module else "panelsynth")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from panelsynth import *", namespace)
    assert set(panelsynth.__all__) <= set(namespace)


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_are_gone(module, name):
    mod = importlib.import_module(f"panelsynth.{module}")
    assert not hasattr(mod, name)
    assert name not in getattr(mod, "__all__", [])
    assert not hasattr(panelsynth, name)


@pytest.mark.parametrize("module, owner, name", REMOVED_ATTRIBUTES)
def test_removed_methods_are_gone(module, owner, name):
    cls = getattr(importlib.import_module(f"panelsynth.{module}"), owner)
    assert not hasattr(cls, name)
