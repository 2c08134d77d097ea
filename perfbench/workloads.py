"""The benchmark's workloads: generated inputs, timed loops and outside checks.

Every workload is a closed loop with one caller: a sweep starts repetition
r+1 when r ends, and a release starts round t+1 when ``step(t)`` returns.
Inputs come only from the workload seed. The correctness checks run between
operations, outside the timed regions, and a failed check counts the
operation as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import panelsynth.cli
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from panelsynth.harness import ingest_csv
from panelsynth.model import LongitudinalDataset
from panelsynth.window import PaddingExhaustedError, WindowSynthConfig, WindowSynthesizer

RHO = 0.005
SWEEP_REPS = 20  # repetitions per sweep call, per mode
SIPP_N, SIPP_T, SIPP_K = 23374, 12, 3
QUARTERS = [3, 6, 9, 12]
# the acceptance suite's SIPP-shaped linear queries
QUARTER_LINEAR = {
    "poverty_any_month": ["001", "010", "011", "100", "101", "110", "111"],
    "poverty_2plus_months": ["011", "101", "110", "111"],
    "poverty_2_consecutive": ["011", "110", "111"],
    "poverty_all_3_months": ["111"],
}


def markov_panel(rng: np.random.Generator, n: int, T: int,
                 p0: float = 0.12, stay: float = 0.9, enter: float = 0.02) -> np.ndarray:
    """SIPP-shaped persistent two-state panel (the `simulate --kind markov` defaults)."""
    bits = np.empty((n, T), dtype=np.uint8)
    current = rng.random(n) < p0
    bits[:, 0] = current
    for t in range(1, T):
        draw = rng.random(n)
        current = np.where(current, draw < stay, draw < enter)
        bits[:, t] = current
    return bits


@dataclass
class Result:
    """What one run measured. ``op_ms`` holds one sample per operation."""

    op: str
    setup_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    padding_exhausted: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    timed_s: float = 0.0  # sum of the timed regions (set-up and operations)
    window_m: list[int] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)


def _timed(fn, *args):
    """(seconds, exception or None) of one call; the call's errors are data."""
    start = time.perf_counter()
    try:
        fn(*args)
    except Exception as exc:  # counted as a failed operation by the caller
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, None


# ---------------------------------------------------------------------------
# Outside checks on the release engines


class ColumnLedger:
    """CRC of every published column, re-checked after each round."""

    def __init__(self):
        self.crcs: list[int] = []

    def update(self, store) -> list[str]:
        problems = [
            f"published column {j} changed"
            for j, crc in enumerate(self.crcs, start=1)
            if zlib.crc32(store.column(j)) != crc
        ]
        for j in range(len(self.crcs) + 1, store.t_max + 1):
            self.crcs.append(zlib.crc32(store.column(j)))
        return problems


class WindowCheck:
    """Window release invariants, checked after every published round."""

    def __init__(self):
        self.ledger = ColumnLedger()
        self.prev_hist: np.ndarray | None = None
        self.prev_codes: np.ndarray | None = None

    def after_round(self, synth: WindowSynthesizer, t: int) -> list[str]:
        store, k = synth.store, synth.cfg.k
        problems = self.ledger.update(store)
        hist = synth.histogram().counts
        if not np.array_equal(hist, store.suffix_histogram(k, t).counts):
            problems.append(f"window t={t}: histogram() differs from the store's suffix histogram")
        codes = np.zeros(store.m, dtype=np.uint16)
        for j in range(t - k + 1, t + 1):
            codes = (codes << 1) | store.column(j)
        if self.prev_codes is not None:
            half = 1 << (k - 1)
            # rows ending in overlap z at t-1 are the rows ending in z0 or z1 at t
            if not np.array_equal(self.prev_codes & (half - 1), codes >> 1):
                problems.append(f"window t={t}: rows left their overlap group")
            prev = self.prev_hist
            if not np.array_equal(prev[:half] + prev[half:], hist[0::2] + hist[1::2]):
                problems.append(f"window t={t}: overlap masses differ from round t-1")
        self.prev_hist, self.prev_codes = hist, codes
        return problems


class CumulativeCheck:
    """Cumulative release invariants: store counts equal the monotone bank."""

    def __init__(self):
        self.ledger = ColumnLedger()

    def after_round(self, synth: CumulativeSynthesizer, t: int) -> list[str]:
        problems = self.ledger.update(synth.store)
        counts = synth.store.cumulative_counts(t)
        for b in range(1, t + 1):
            if int(counts[b]) != synth.bank.value(b, t):
                problems.append(f"cumulative t={t}: store count at b={b} differs from the bank")
                break
        return problems

    @staticmethod
    def after_pass(synth: CumulativeSynthesizer) -> list[str]:
        try:
            synth.bank.validate()
        except AssertionError as exc:
            return [f"cumulative bank: {exc}"]
        return []


# ---------------------------------------------------------------------------
# Release workloads: census_release, wide_window, long_horizon


@dataclass(frozen=True)
class ReleaseSpec:
    n: int
    T: int
    k: int | None          # window length, or None for no window engine
    cumulative: bool
    traced_passes: int     # fixed work of the traced run


class Release:
    """One workload that steps engines round by round over a generated panel."""

    op = "round (the engine steps that publish round t)"

    def __init__(self, spec: ReleaseSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.bits = markov_panel(np.random.default_rng(seed), spec.n, spec.T)

    def _setup(self, index: int, tracer):
        spec = self.spec
        w_seed, c_seed = np.random.SeedSequence([self.seed, index]).spawn(2)
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            dataset = LongitudinalDataset.from_matrix(self.bits)
            win = cum = None
            if spec.k is not None:
                win = WindowSynthesizer(
                    WindowSynthConfig(T=spec.T, k=spec.k, rho=RHO), np.random.default_rng(w_seed)
                )
            if spec.cumulative:
                cum = CumulativeSynthesizer(
                    dataset.n, CumulativeSynthConfig(T=spec.T, rho=RHO), np.random.default_rng(c_seed)
                )
        return time.perf_counter() - start, dataset, win, cum

    def one_pass(self, index: int, res: Result, tracer, digest=None) -> None:
        """Set up, then publish rounds 1..T; index picks the engine seeds."""
        setup_s, dataset, win, cum = self._setup(index, tracer)
        res.setup_s.append(setup_s)
        res.timed_s += setup_s
        k = self.spec.k
        wcheck = WindowCheck() if win is not None else None
        ccheck = CumulativeCheck() if cum is not None else None
        for t in range(1, self.spec.T + 1):
            tracer.op += 1
            parts = []
            with tracer.span("bench.round"):
                if cum is not None:
                    parts.append(("cumulative", cum, *_timed(cum.step, dataset, t)))
                if win is not None and t == k:
                    parts.append(("window_init", win, *_timed(win.init, dataset)))
                elif win is not None and t > k:
                    parts.append(("window", win, *_timed(win.step, dataset, t)))
            if not parts:
                continue
            res.attempted += 1
            failed = False
            with tracer.paused():
                for engine, synth, seconds, exc in parts:
                    res.timed_s += seconds
                    if exc is not None:
                        failed = True
                        if isinstance(exc, PaddingExhaustedError):
                            res.padding_exhausted += 1
                        else:
                            res.problems.append(f"{engine} t={t}: {type(exc).__name__}: {exc}")
                        if engine == "cumulative":
                            cum = None
                        else:
                            win = None
                        continue
                    res.sample(f"{engine}_round_ms", seconds * 1e3)
                    check = ccheck if engine == "cumulative" else wcheck
                    problems = check.after_round(synth, t)
                    if problems:
                        failed = True
                        res.problems.extend(problems)
            if failed:
                res.failed += 1
            else:
                res.op_ms.append(sum(p[2] for p in parts) * 1e3)
        if win is not None and win.m is not None:
            res.window_m.append(win.m)
        if digest is not None:
            # round order, cumulative column before window column: after the
            # pass, so hashing does not evict the engines' data mid-pass
            for t in range(1, self.spec.T + 1):
                for synth in (cum, win):
                    if synth is not None and t <= synth.store.t_max:
                        digest.update(synth.store.column(t).tobytes())
        if cum is not None:
            problems = CumulativeCheck.after_pass(cum)
            if problems:
                res.failed += 1
                res.problems.extend(problems)

    def measure(self, seconds: float, tracer) -> Result:
        """Whole passes until the time is up; at least three set-ups."""
        res = Result(self.op)
        digest = hashlib.sha256()
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            self.one_pass(index, res, tracer, digest if index == 0 else None)
            index += 1
        while len(res.setup_s) < 3:
            res.setup_s.append(self._setup(index, tracer)[0])
            index += 1
        res.digest = digest.hexdigest()
        return res

    def fixed(self, tracer) -> Result:
        """The traced run's fixed work: the first passes of the measured run."""
        res = Result(self.op)
        digest = hashlib.sha256()
        for index in range(self.spec.traced_passes):
            self.one_pass(index, res, tracer, digest if index == 0 else None)
        res.digest = digest.hexdigest()
        return res

    @property
    def window_k(self) -> int | None:
        return self.spec.k


# ---------------------------------------------------------------------------
# sipp_sweep


def sweep_queries() -> list[dict]:
    """The acceptance suite's 48 SIPP queries: 8 window bins and 4 linear, quarterly."""
    queries: list[dict] = [
        {"kind": "window", "s": format(code, "03b"), "t": QUARTERS} for code in range(8)
    ]
    queries += [
        {"kind": "linear", "name": f"{name}@q", "t": QUARTERS, "weights": {s: 1 for s in keys}}
        for name, keys in QUARTER_LINEAR.items()
    ]
    return queries


CUMULATIVE_QUERIES = [{"kind": "cum", "b": 3, "t": list(range(1, SIPP_T + 1))}]
BUNDLE_CSVS = ("answers.csv", "errors.csv", "failures.csv", "summary.csv")


class Sweep:
    """In-process CLI sweeps of both modes over a SIPP-shaped CSV."""

    op = f"repetition (one window and one cumulative sweep call of {SWEEP_REPS} reps each)"
    window_k = SIPP_K

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.csv = workdir / "sipp.csv"
        bits = markov_panel(np.random.default_rng(seed), SIPP_N, SIPP_T)
        np.savetxt(self.csv, bits, fmt="%d", delimiter=",")
        # passed as files: inline JSON over 255 bytes breaks `--queries`
        self.window_queries = workdir / "window_queries.json"
        self.window_queries.write_text(json.dumps(sweep_queries()))
        self.cumulative_queries = workdir / "cumulative_queries.json"
        self.cumulative_queries.write_text(json.dumps(CUMULATIVE_QUERIES))
        self.n_queries = {
            mode: sum(len(q["t"]) for q in queries)
            for mode, queries in (("window", sweep_queries()), ("cumulative", CUMULATIVE_QUERIES))
        }

    def _argv(self, mode: str, seed: int) -> list[str]:
        common = ["--data", str(self.csv), "--T", str(SIPP_T), "--rho", str(RHO),
                  "--reps", str(SWEEP_REPS), "--seed", str(seed), "--workers", "1",
                  "--out", str(self.workdir / mode)]
        if mode == "window":
            return ["synth-window", *common, "--k", str(SIPP_K),
                    "--queries", str(self.window_queries)]
        return ["synth-cumulative", *common, "--queries", str(self.cumulative_queries)]

    def _call(self, mode: str, seed: int, tracer):
        argv = self._argv(mode, seed)
        sink = io.StringIO()
        start = time.perf_counter()
        with tracer.span("bench.sweep"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = panelsynth.cli.main(argv)
            except Exception as exc:  # counted as failed repetitions
                code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code

    def _check_bundle(self, mode: str, code, res: Result, digest) -> None:
        out = self.workdir / mode
        res.attempted += SWEEP_REPS
        if code != 0:
            res.failed += SWEEP_REPS
            res.problems.append(f"{mode} sweep exited with {code}")
            return
        with open(out / "errors.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if [int(r["repetition"]) for r in rows] != list(range(SWEEP_REPS)):
            res.failed += SWEEP_REPS
            res.problems.append(f"{mode} sweep: errors.csv needs one row per repetition")
            return
        ok = {int(r["repetition"]) for r in rows if r["status"] == "ok"}
        padding = SWEEP_REPS - len(ok)
        res.padding_exhausted += padding
        res.window_m.extend(int(r["m"]) for r in rows if mode == "window" and r["status"] == "ok")
        answers = {rep: 0 for rep in ok}
        bad = set()
        with open(out / "answers.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                rep = int(row["repetition"])
                answers[rep] = answers.get(rep, 0) + 1
                if not math.isfinite(float(row["value"])):
                    bad.add(rep)
        bad |= {rep for rep, count in answers.items() if count != self.n_queries[mode]}
        if bad:
            res.problems.append(f"{mode} sweep: missing or non-finite answers for reps {sorted(bad)}")
        res.failed += padding + len(bad & ok)
        if digest is not None:
            for name in BUNDLE_CSVS:
                digest.update((out / name).read_bytes())

    def one_pair(self, index: int, res: Result, tracer, digest=None) -> None:
        seed = self.seed * 1000 + index
        times = {}
        for mode in ("window", "cumulative"):
            seconds, code = self._call(mode, seed, tracer)
            times[mode] = seconds
            res.timed_s += seconds
            with tracer.paused():
                failed_before = res.failed
                self._check_bundle(mode, code, res, digest)
            res.sample(f"{mode}_reps_per_s", SWEEP_REPS / seconds)
            if res.failed != failed_before:
                times = None
                break
        if times is not None:
            res.op_ms.append((times["window"] + times["cumulative"]) / (2 * SWEEP_REPS) * 1e3)

    def setup_once(self) -> float:
        start = time.perf_counter()
        ingest_csv(self.csv)
        return time.perf_counter() - start

    def measure(self, seconds: float, tracer) -> Result:
        res = Result(self.op)
        res.setup_s = [self.setup_once() for _ in range(5)]
        digest = hashlib.sha256()
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            self.one_pair(index, res, tracer, digest if index == 0 else None)
            index += 1
        res.digest = digest.hexdigest()
        return res

    def fixed(self, tracer) -> Result:
        res = Result(self.op)
        digest = hashlib.sha256()
        self.one_pair(0, res, tracer, digest)
        res.digest = digest.hexdigest()
        return res


# ---------------------------------------------------------------------------

RELEASES = {
    "census_release": ReleaseSpec(n=1_000_000, T=60, k=3, cumulative=True, traced_passes=1),
    "wide_window": ReleaseSpec(n=SIPP_N, T=60, k=10, cumulative=False, traced_passes=1),
    "long_horizon": ReleaseSpec(n=2000, T=120, k=None, cumulative=True, traced_passes=3),
}


def make(name: str, seed: int, workdir: Path):
    """Generate the named workload's inputs from the seed."""
    if name == "sipp_sweep":
        return Sweep(seed, workdir)
    return Release(RELEASES[name], seed)
