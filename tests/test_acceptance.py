"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria use
frozen seeds, so outcomes are deterministic. Expected runtime is a few
minutes, dominated by the Monte Carlo sweeps and the million-sample batches.
"""

import json
import math

import numpy as np
import pytest

from conftest import cumulative_from_window_oracle, gof_pvalue, random_dataset
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from panelsynth.harness import RunManifest, run_experiment
from panelsynth.model import (
    LongitudinalDataset,
    true_cumulative_counts,
    true_suffix_histogram,
)
from panelsynth.queries import QuerySpec, eval_query, parse_queries
from panelsynth.window import PaddingExhaustedError, WindowSynthConfig, WindowSynthesizer


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared heavyweight sweeps


@pytest.fixture(scope="module")
def allones_monte_carlo(tmp_path_factory):
    """1000 window repetitions at (n=25000, T=12, k=3, rho=0.005) on all-ones data."""
    manifest = RunManifest(
        synth=WindowSynthConfig(T=12, k=3, rho=0.005, beta_target=0.05),
        beta=0.05,
        reps=1000,
        seed=90210,
        out_dir=str(tmp_path_factory.mktemp("mc_allones")),
        queries=[],
        sim_kind="all_ones",
        n=25000,
    )
    return run_experiment(manifest)


_QUARTERS = [3, 6, 9, 12]
_QUARTER_LINEAR = {
    "poverty_any_month": {s: 1.0 for s in ("001", "010", "011", "100", "101", "110", "111")},
    "poverty_2plus_months": {s: 1.0 for s in ("011", "101", "110", "111")},
    "poverty_2_consecutive": {s: 1.0 for s in ("011", "110", "111")},
    "poverty_all_3_months": {"111": 1.0},
}


@pytest.fixture(scope="module")
def sipp_shaped_window(tmp_path_factory):
    """1000 window repetitions on a persistent SIPP-shaped panel (n=23374, T=12, k=3)."""
    queries = [QuerySpec.window(format(code, "03b"), t) for t in _QUARTERS for code in range(8)]
    queries += [
        QuerySpec.linear(weights, t, name=f"{name}@q")
        for name, weights in _QUARTER_LINEAR.items()
        for t in _QUARTERS
    ]
    manifest = RunManifest(
        synth=WindowSynthConfig(T=12, k=3, rho=0.005, beta_target=0.05),
        reps=1000,
        seed=6021,
        out_dir=str(tmp_path_factory.mktemp("sipp_window")),
        queries=queries,
        sim_kind="markov",
        n=23374,
        sim_params={"p0": 0.12, "stay": 0.9, "enter": 0.02},
    )
    return run_experiment(manifest)


@pytest.fixture(scope="module")
def sipp_shaped_cumulative(tmp_path_factory):
    """1000 cumulative repetitions on the same SIPP-shaped panel, b=3 monthly."""
    manifest = RunManifest(
        synth=CumulativeSynthConfig(T=12, rho=0.005),
        reps=1000,
        seed=6022,
        out_dir=str(tmp_path_factory.mktemp("sipp_cumulative")),
        queries=[QuerySpec.cumulative(3, t) for t in range(1, 13)],
        sim_kind="markov",
        n=23374,
        sim_params={"p0": 0.12, "stay": 0.9, "enter": 0.02},
    )
    return run_experiment(manifest)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_noiseless_oracle_equivalence():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 4))
        T = int(rng.integers(k, 11))
        ds = random_dataset(rng, n, T)
        store = WindowSynthesizer(WindowSynthConfig(T=T, k=k, noiseless=True), rng).run(ds)
        assert store.m == n
        for t in range(k, T + 1):
            p = store.suffix_histogram(k, t).counts
            c = true_suffix_histogram(ds, k, t).counts
            assert (p == c).all(), f"window mismatch at n={n}, T={T}, k={k}, t={t}"
        checked += 1
    for _ in range(200):
        n = int(rng.integers(1, 31))
        T = int(rng.integers(1, 9))
        ds = random_dataset(rng, n, T)
        synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, noiseless=True), rng)
        store = synth.run(ds)
        for t in range(1, T + 1):
            assert (
                store.cumulative_counts(t) == true_cumulative_counts(ds, t)
            ).all(), f"cumulative mismatch at n={n}, T={T}, t={t}"
        checked += 1
    _report(1, "noiseless oracle equivalence", checked == 400, f"{checked}/400 instances exact")


def test_criterion_2_consistency_invariant():
    T, k, rho = 12, 3, 0.005
    half = 1 << (k - 1)
    runs = aborted = 0
    for seed_seq in np.random.SeedSequence(202).spawn(100):
        rng = np.random.default_rng(seed_seq)
        ds = random_dataset(rng, 120, T, p=0.35)
        synth = WindowSynthesizer(WindowSynthConfig(T=T, k=k, rho=rho, beta_target=0.01), rng)
        try:
            synth.run(ds)
        except PaddingExhaustedError:
            aborted += 1  # released prefix must still be consistent
        store = synth.store
        runs += 1
        if store is None:
            continue
        totals = {store.suffix_histogram(k, t).total() for t in range(k, store.t_max + 1)}
        assert totals == {store.m}, "population not conserved"
        for t in range(k + 1, store.t_max + 1):
            prev = store.suffix_histogram(k, t - 1).counts
            cur = store.suffix_histogram(k, t).counts
            for z in range(half):
                assert prev[z] + prev[half + z] == cur[2 * z] + cur[2 * z + 1], (
                    f"consistency broken at t={t}, z={z}"
                )
    _report(2, "exact release consistency", runs == 100,
            f"100 noisy runs, {aborted} padding aborts (prefixes checked)")


def test_criterion_3_monotonicity_invariant():
    T, rho = 12, 0.005
    for seed_seq in np.random.SeedSequence(303).spawn(100):
        rng = np.random.default_rng(seed_seq)
        ds = random_dataset(rng, 150, T, p=0.3)
        synth = CumulativeSynthesizer(150, CumulativeSynthConfig(T=T, rho=rho), rng)
        store = synth.run(ds)
        synth.bank.validate()
        for t in range(1, T + 1):
            counts = store.cumulative_counts(t)
            for b in range(1, t + 1):
                assert counts[b] == synth.bank.value(b, t), (
                    f"store does not realize the bank at b={b}, t={t}"
                )
    _report(3, "monotone bank realized exactly", True, "100 noisy runs, zero violations")


def test_criterion_4_error_bound_monte_carlo(allones_monte_carlo):
    result = allones_monte_carlo
    ok_runs = [o for o in result.outcomes if o.ok]
    within = sum(o.max_error <= result.error_bound for o in ok_runs)
    rate = within / len(ok_runs)
    _report(
        4,
        "worst-case additive error bound",
        rate >= 0.95,
        f"{within}/{len(ok_runs)} runs within bound {result.error_bound:.2f} ({rate:.1%})",
    )


def test_criterion_5_unbiasedness(sipp_shaped_window, sipp_shaped_cumulative):
    worst = 0.0
    for result in (sipp_shaped_window, sipp_shaped_cumulative):
        answers = result.answers
        reps = answers.shape[0]
        for idx, truth in enumerate(result.truth):
            values = answers[:, idx]
            deviation = abs(values.mean() - truth)
            se = values.std(ddof=1) / math.sqrt(reps)
            if se == 0.0:
                assert deviation == 0.0, "degenerate query drifted from truth"
                continue
            worst = max(worst, deviation / se)
            assert deviation <= 4.0 * se, (
                f"query #{idx}: mean {values.mean():.6f} vs truth {truth:.6f} "
                f"({deviation / se:.2f} standard errors)"
            )
    _report(5, "debiased answers are unbiased", True,
            f"worst deviation {worst:.2f} standard errors over "
            f"{len(sipp_shaped_window.truth) + len(sipp_shaped_cumulative.truth)} queries")


def test_criterion_6_monotonization_non_expansion():
    rng = np.random.default_rng(606)
    held = 0
    for _ in range(500):
        n = int(rng.integers(1, 21))
        T = int(rng.integers(1, 9))
        rho = float(rng.uniform(0.05, 2.0))
        ds = random_dataset(rng, n, T)
        synth = CumulativeSynthesizer(n, CumulativeSynthConfig(T=T, rho=rho), rng)
        synth.run(ds)
        worst_hat = worst_tilde = 0
        for t in range(1, T + 1):
            s_true = true_cumulative_counts(ds, t)
            for b in range(1, t + 1):
                worst_hat = max(worst_hat, abs(synth.bank.value(b, t) - int(s_true[b])))
                worst_tilde = max(worst_tilde, abs(int(synth.s_tilde[b, t]) - int(s_true[b])))
        assert worst_hat <= worst_tilde, f"monotonization expanded error ({worst_hat} > {worst_tilde})"
        held += 1
    _report(6, "monotonization never expands error", held == 500, "500/500 runs")


def test_criterion_7_reduction_identity():
    rng = np.random.default_rng(707)
    for _ in range(500):
        n = int(rng.integers(1, 21))
        T = int(rng.integers(1, 9))
        ds = random_dataset(rng, n, T)
        t = int(rng.integers(1, T + 1))
        b = int(rng.integers(0, t + 2))
        direct = eval_query(ds, QuerySpec.cumulative(b, t))
        via_windows = cumulative_from_window_oracle(ds, b, t)
        assert via_windows == direct, f"reduction mismatch at n={n}, T={T}, b={b}, t={t}"
    _report(7, "cumulative-from-window reduction", True, "500/500 instances exact")


def test_criterion_8_discrete_gaussian_sampler(dg_samples):
    ranges = {1: 8, 4: 20, 2000: 280}
    details = []
    for sigma2 in (1, 4, 2000):
        xs = dg_samples(sigma2)
        mean = xs.mean()
        var = xs.var()
        reach = ranges[sigma2]
        p = gof_pvalue(xs, sigma2, -reach, reach)
        details.append(f"s2={sigma2}: mean={mean:+.4f} var={var:.1f} gof_p={p:.3f}")
        assert abs(mean) <= 0.01, f"sigma2={sigma2}: mean {mean} out of tolerance"
        assert var <= 1.05 * sigma2, f"sigma2={sigma2}: variance {var} above 1.05 * sigma2"
        assert p > 0.001, f"sigma2={sigma2}: goodness of fit rejected (p={p})"
    _report(8, "exact sampler moments and fit", True, "; ".join(details))


def test_criterion_9_padding_failure_rate(allones_monte_carlo):
    result = allones_monte_carlo
    reps = len(result.outcomes)
    observed = len(result.failures) / reps
    slack = 2.576 * math.sqrt(0.05 * 0.95 / reps)
    _report(
        9,
        "padding failure rate",
        observed <= 0.05 + slack,
        f"{len(result.failures)}/{reps} failed ({observed:.3%} vs {0.05 + slack:.3%} allowed)",
    )


def test_criterion_10_reproducibility(tmp_path):
    window_queries = parse_queries('[{"kind":"window","s":"11","t":[2,5,8]}]')
    manifests = []
    for mode, synth, queries in (
        ("window", WindowSynthConfig(T=8, k=2, rho=0.05, beta_target=0.05), window_queries),
        ("cumulative", CumulativeSynthConfig(T=8, rho=0.05), [QuerySpec.cumulative(2, 8)]),
    ):
        for run_id in ("a", "b"):
            manifests.append(RunManifest(
                synth=synth,
                queries=queries,
                reps=25,
                seed=1010,
                out_dir=str(tmp_path / f"{mode}_{run_id}"),
                sim_kind="bernoulli",
                n=400,
                sim_params={"p": 0.3},
            ))
    results = [run_experiment(m) for m in manifests]
    compared = 0
    for first, second in ((results[0], results[1]), (results[2], results[3])):
        for name in ("answers.csv", "summary.csv", "errors.csv", "failures.csv"):
            assert (first.out_dir / name).read_bytes() == (second.out_dir / name).read_bytes(), (
                f"{name} differs between identical runs"
            )
            compared += 1
        meta_a = json.loads((first.out_dir / "metadata.json").read_text())
        meta_b = json.loads((second.out_dir / "metadata.json").read_text())
        meta_a.pop("wall_time_s"), meta_b.pop("wall_time_s")
        assert meta_a == meta_b, "metadata differs beyond wall time"
        compared += 1
    _report(10, "byte-identical reruns", True,
            f"{compared} artifacts identical across window and cumulative reruns")


def test_criterion_11_cumulative_error_bound(sipp_shaped_cumulative):
    result = sipp_shaped_cumulative
    T, beta = 12, 0.01 / 12
    bound = CumulativeSynthConfig(T=T, rho=0.005).guarantee(result.n, beta)["error_bound"]
    errors = np.array([o.max_error for o in result.outcomes if o.ok])
    within = int((errors <= bound).sum())
    allowed = 1 - T * beta - 2.576 * math.sqrt(T * beta * (1 - T * beta) / errors.size)
    _report(
        11,
        "cumulative error bound",
        within / errors.size >= allowed,
        f"{within}/{errors.size} runs within bound {bound:.1f} ({allowed:.3%} needed), "
        f"q99/bound {np.quantile(errors, 0.99) / bound:.3f}, max {errors.max()}",
    )
