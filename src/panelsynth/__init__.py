"""Continually released differentially private synthetic data for longitudinal panels."""

__version__ = "0.1.0"

from .counters import MonotoneBank, TreeCounter
from .cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from .dp import (
    BitSource,
    DiscreteGaussianBatch,
    DiscreteGaussianSampler,
    ZCDPAccountant,
    zcdp_to_approx_dp,
)
from .model import (
    LongitudinalDataset,
    SuffixHistogram,
    SyntheticStore,
    suffix_index,
    suffix_string,
    true_cumulative_counts,
    true_suffix_histogram,
)
from .queries import (
    QuerySpec,
    UnsupportedWindowError,
    debiased_answer,
    eval_query,
    parse_queries,
)
from .window import (
    PaddingExhaustedError,
    WindowSynthConfig,
    WindowSynthesizer,
    split_consistent,
)

__all__ = [
    "BitSource",
    "CumulativeSynthConfig",
    "CumulativeSynthesizer",
    "DiscreteGaussianBatch",
    "DiscreteGaussianSampler",
    "LongitudinalDataset",
    "MonotoneBank",
    "PaddingExhaustedError",
    "QuerySpec",
    "SuffixHistogram",
    "SyntheticStore",
    "TreeCounter",
    "UnsupportedWindowError",
    "WindowSynthConfig",
    "WindowSynthesizer",
    "ZCDPAccountant",
    "debiased_answer",
    "eval_query",
    "parse_queries",
    "split_consistent",
    "suffix_index",
    "suffix_string",
    "true_cumulative_counts",
    "true_suffix_histogram",
    "zcdp_to_approx_dp",
]
