"""Continually released differentially private synthetic data for longitudinal panels."""

__version__ = "0.1.0"

from .counters import MonotoneBank, TreeCounter, tree_noise_sigma2
from .cumulative import CumulativeSynthConfig, CumulativeSynthesizer, accuracy_of
from .dp import (
    BitSource,
    DiscreteGaussianSampler,
    ZCDPAccountant,
    cumulative_split_weights,
    split_cumulative,
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
    compute_error_bound,
    compute_n_pad,
    compute_relative_error_bound,
    split_consistent,
)

__all__ = [
    "BitSource",
    "CumulativeSynthConfig",
    "CumulativeSynthesizer",
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
    "accuracy_of",
    "compute_error_bound",
    "compute_n_pad",
    "compute_relative_error_bound",
    "cumulative_split_weights",
    "debiased_answer",
    "eval_query",
    "parse_queries",
    "split_consistent",
    "split_cumulative",
    "suffix_index",
    "suffix_string",
    "tree_noise_sigma2",
    "true_cumulative_counts",
    "true_suffix_histogram",
    "zcdp_to_approx_dp",
]
