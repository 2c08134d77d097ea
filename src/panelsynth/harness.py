"""Experiment orchestration: ingestion, simulation, repetition sweeps, outputs.

A sweep is described by a RunManifest and produces four plot-ready files in
the output directory:

  answers.csv   long format: query, t, repetition, value (debiased answers)
  summary.csv   per query/round: truth, mean, std, 2.5/50/97.5 percentiles
  errors.csv    per repetition: status, worst-case error, theoretical bound
  failures.csv  padding-exhaustion events (repetition, round, bin)

plus metadata.json carrying every public parameter needed for debiasing, and
synth_rep{r}.csv, the synthetic panel of each successful repetition
r < save_synth.
Outputs are byte-identical for the same manifest and seed, except for the
wall_time_s field of the metadata.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .cumulative import CumulativeSynthConfig
# true_cumulative_counts is unused here: perfbench/tracer.py patches the name in this module
from .model import LongitudinalDataset, true_cumulative_counts
from .queries import QuerySpec, debiased_answer, eval_query, is_supported
from .window import PaddingExhaustedError, WindowSynthConfig

__all__ = [
    "ExperimentResult",
    "InputError",
    "RepOutcome",
    "RunManifest",
    "SCHEMA_VERSION",
    "ingest_csv",
    "run_experiment",
    "simulate_dataset",
]

SCHEMA_VERSION = 1

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "."}


class InputError(ValueError):
    """Unusable input data or manifest; the CLI maps this to exit code 2."""


_CHUNK_RECORDS = 2048  # records converted per bulk call; no cell string outlives its chunk


def _cell_value(cell: str) -> float:
    """A cell's number, NaN for a missing token; ValueError for anything else."""
    try:
        return float(cell)
    except ValueError:
        token = cell.strip()
        if token.lower() in _MISSING_TOKENS:
            return math.nan
        return float(token)  # str.strip also removes \x1c-\x1f, which float() keeps


def _chunk_values(path, linenos, records, width: int) -> np.ndarray:
    """A chunk's cells as one flat float64 array, NaN for missing tokens.

    Raises the InputError of the chunk's first ragged record or non-numeric cell.
    """
    if set(map(len, records)) == {width}:
        for convert in (float, _cell_value):  # plain float() is the fast common case
            try:
                return np.fromiter(map(convert, chain.from_iterable(records)), float,
                                   len(records) * width)
            except ValueError:
                pass
    for lineno, record in zip(linenos, records):
        if len(record) != width:
            raise InputError(f"{path}: line {lineno} has {len(record)} columns, expected {width}")
        for cell in record:
            try:
                _cell_value(cell)
            except ValueError:
                raise InputError(f"{path}: line {lineno}: non-numeric cell {cell!r}") from None


def _kept_records(handle, header: bool):
    """Numbered records, header and blank records skipped; numbers count records from 1."""
    numbered = enumerate(csv.reader(handle), start=1)
    return (
        (lineno, record) for lineno, record in numbered
        if not (header and lineno == 1) and record and (len(record) > 1 or record[0].strip())
    )


def _read_blocks(path, header: bool):
    """The kept rows as float64 blocks, one per chunk, and the dropped-row count."""
    blocks, dropped, width = [], 0, None
    try:
        with open(path, newline="") as handle:
            kept = _kept_records(handle, header)
            while chunk := list(islice(kept, _CHUNK_RECORDS)):
                linenos, records = zip(*chunk)
                width = width or len(records[0])
                flat = _chunk_values(path, linenos, records, width)
                missing = np.zeros(len(records), dtype=bool)
                for i in np.flatnonzero(np.isnan(flat)).tolist():  # "-nan" is a value
                    row, col = divmod(i, width)
                    missing[row] |= records[row][col].strip().lower() in _MISSING_TOKENS
                dropped += int(missing.sum())
                blocks.append(flat.reshape(-1, width)[~missing])
                del chunk, linenos, records  # free this chunk's strings before reading the next
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid {exc.encoding} text") from None
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    return blocks, dropped


def _first_non_binary(path, header: bool, arr: np.ndarray):
    """Line number and text of the first kept cell that is not 0/1; re-reads the file."""
    row, col = divmod(int(np.argmin(np.isin(arr, (0.0, 1.0)))), arr.shape[1])
    with open(path, newline="") as handle:
        complete = (
            (lineno, record) for lineno, record in _kept_records(handle, header)
            if not any(cell.strip().lower() in _MISSING_TOKENS for cell in record)
        )
        lineno, record = next(islice(complete, row, None))
    return lineno, record[col]


def ingest_csv(path, header: bool = False, threshold: float | None = None):
    """Load a rows-by-rounds numeric CSV into a dataset.

    With a threshold, a cell value v becomes 1 when v < threshold, else 0
    (poverty-style indicator coding). Without one, cells must already be 0/1.
    Rows containing any missing cell are dropped. Returns
    (dataset, dropped_row_count).
    """
    if threshold is not None and math.isnan(threshold):
        raise InputError("threshold must be a number, got nan")
    blocks, dropped = _read_blocks(path, header)
    if not sum(map(len, blocks)):
        raise InputError(f"{path}: no usable rows")
    arr = np.concatenate(blocks)
    if threshold is not None:
        bits = (arr < threshold).astype(np.uint8)
    else:
        if not np.isin(arr, (0.0, 1.0)).all():
            lineno, cell = _first_non_binary(path, header, arr)
            raise InputError(f"{path}: line {lineno}: cell {cell!r} is not 0/1; values must "
                             "be 0/1 unless a binarization threshold is given")
        bits = arr.astype(np.uint8)
    return LongitudinalDataset.from_matrix(bits), dropped


def simulate_dataset(kind: str, n: int, T: int, rng=None, *, p: float = 0.5,
                     p0: float = 0.12, stay: float = 0.9, enter: float = 0.02):
    """Seed-deterministic simulated input datasets.

    Kinds: "all_ones" (every update is 1, the stress input), "bernoulli"
    (iid bits at rate p), "markov" (persistent two-state chain shaped like
    program-participation panels: initial rate p0, per-round stay
    probability, per-round entry probability), and "from_seed" (uniform
    random bits, fully determined by the seed).
    """
    if n < 1 or T < 1:
        raise InputError("n and T must be at least 1")
    rng = np.random.default_rng(rng)
    if kind == "all_ones":
        bits = np.ones((n, T), dtype=np.uint8)
    elif kind == "from_seed":
        bits = rng.integers(0, 2, size=(n, T), dtype=np.uint8)
    elif kind == "bernoulli":
        if not 0 <= p <= 1:
            raise InputError("p must lie in [0, 1]")
        bits = (rng.random((n, T)) < p).astype(np.uint8)
    elif kind == "markov":
        for name, value in (("p0", p0), ("stay", stay), ("enter", enter)):
            if not 0 <= value <= 1:
                raise InputError(f"{name} must lie in [0, 1]")
        current = rng.random(n) < p0
        columns = [current]
        for _ in range(T - 1):
            draw = rng.random(n)
            current = np.where(current, draw < stay, draw < enter)
            columns.append(current)
        bits = np.column_stack(columns).astype(np.uint8)
    else:
        raise InputError(f"unknown simulation kind {kind!r}")
    return LongitudinalDataset.from_matrix(bits)


@dataclass
class RunManifest:
    """Everything needed to reproduce a sweep; echoed into metadata.json.

    synth is the engine config, which also fixes the mode and the horizon T.
    Seeds for repetition r derive deterministically from the base seed:
    SeedSequence(seed).spawn(reps + 1) yields the simulated-data stream
    (child 0) followed by one stream per repetition.
    """

    synth: WindowSynthConfig | CumulativeSynthConfig
    reps: int = 1
    seed: int = 0
    out_dir: str = "out"
    queries: list[QuerySpec] = field(default_factory=list)
    force_window: bool = False
    beta: float = 0.05              # failure probability for the reported bound
    workers: int = 1
    save_synth: int = 0
    # data source: exactly one of data_path / sim_kind
    data_path: str | None = None
    header: bool = False
    threshold: float | None = None
    sim_kind: str | None = None
    n: int | None = None
    sim_params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if (self.data_path is None) == (self.sim_kind is None):
            raise InputError("specify exactly one data source (a CSV path or a simulation kind)")
        if self.sim_kind is not None and self.n is None:
            raise InputError("simulated data needs a population size n")
        if self.reps < 1:
            raise InputError("reps must be at least 1")
        if self.workers < 1:
            raise InputError("workers must be at least 1")
        try:  # the config's checks of beta, outside (0, 1) or too small for a finite bound
            self.synth.guarantee(1, self.beta)
        except ValueError as exc:
            raise InputError(str(exc)) from None


@dataclass
class RepOutcome:
    """What one repetition produced."""

    rep: int
    ok: bool
    answers: list[float] | None
    max_error: int | None
    m: int | None = None
    fail_t: int | None = None
    fail_bin: str | None = None


@dataclass
class ExperimentResult:
    out_dir: Path
    n: int
    n_pad: int | None
    error_bound: float | None
    truth: list[float]
    outcomes: list[RepOutcome]
    summary_rows: list[dict]
    unsupported: list[str]

    @property
    def answers(self) -> np.ndarray:
        """(successful reps) x (queries) debiased answers."""
        good = [o.answers for o in self.outcomes if o.ok]
        return np.array(good, dtype=float) if good else np.zeros((0, len(self.truth)))

    @property
    def failures(self) -> list[RepOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def all_failed(self) -> bool:
        return all(not o.ok for o in self.outcomes)


def _materialize_dataset(manifest: RunManifest, data_seed: np.random.SeedSequence):
    if manifest.data_path is not None:
        dataset, dropped = ingest_csv(
            manifest.data_path, header=manifest.header, threshold=manifest.threshold
        )
        source = str(manifest.data_path)
    else:
        dataset = simulate_dataset(
            manifest.sim_kind,
            manifest.n,
            manifest.synth.T,
            np.random.default_rng(data_seed),
            **manifest.sim_params,
        )
        dropped = 0
        source = f"simulate:{manifest.sim_kind}"
    if dataset.t_max < manifest.synth.T:
        raise InputError(
            f"data has {dataset.t_max} rounds but the manifest horizon is T={manifest.synth.T}"
        )
    return dataset, dropped, source


def _run_one_rep(manifest: RunManifest, dataset, queries, public: dict, rep: int,
                 seed: np.random.SeedSequence) -> RepOutcome:
    synth = manifest.synth.synthesizer(dataset.n, np.random.default_rng(seed))
    try:
        store = synth.run(dataset)
    except PaddingExhaustedError as exc:
        return RepOutcome(rep, False, None, None, fail_t=exc.t, fail_bin=exc.suffix)
    # n_pad is None in cumulative mode, where this is the plain row average
    answers = [debiased_answer(store, q, public["n_pad"] or 0, dataset.n, public["k"], force=True)
               for q in queries]
    if rep < manifest.save_synth:
        path = Path(manifest.out_dir) / f"synth_rep{rep}.csv"
        np.savetxt(path, store.matrix(), fmt="%d", delimiter=",")
    return RepOutcome(rep, True, answers, synth.max_error(dataset), m=store.n)


_POOL_STATE: dict = {}


def _pool_init(manifest, dataset, queries, public):
    _POOL_STATE["args"] = (manifest, dataset, queries, public)


def _pool_run(task):
    rep, seed = task
    return _run_one_rep(*_POOL_STATE["args"], rep, seed)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)  # writes a float as its repr
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(manifest: RunManifest) -> ExperimentResult:
    """Run the sweep described by the manifest and write its output bundle.

    Synthesizer failures (padding exhaustion) are recorded per repetition and
    do not abort the sweep.
    """
    manifest.validate()
    started = time.perf_counter()
    root = np.random.SeedSequence(manifest.seed)
    seeds = root.spawn(manifest.reps + 1)
    dataset, dropped, source = _materialize_dataset(manifest, seeds[0])

    cfg = manifest.synth
    public = cfg.public()
    queries = list(manifest.queries)
    for q in queries:
        if q.t > cfg.T:
            raise InputError(f"query {q.query_id} at t={q.t} is beyond the horizon T={cfg.T}")
    supported = [is_supported(q, public["k"]) for q in queries]
    unsupported = [q.query_id for q, s in zip(queries, supported) if not s]
    if unsupported and not manifest.force_window:
        raise InputError(
            "queries not preserved by this synthesizer: "
            + ", ".join(sorted(set(unsupported)))
            + " (pass force_window to evaluate them anyway, tagged as unsupported)"
        )

    guarantee = cfg.guarantee(dataset.n, manifest.beta)
    error_bound = guarantee["error_bound"]
    truth = [eval_query(dataset, q, force=True) for q in queries]
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [(rep, seeds[rep + 1]) for rep in range(manifest.reps)]
    workers = min(manifest.workers, manifest.reps)  # a fork pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(manifest, dataset, queries, public),
        ) as pool:
            outcomes = list(pool.map(_pool_run, tasks, chunksize=8))
    else:
        outcomes = [
            _run_one_rep(manifest, dataset, queries, public, rep, seed) for rep, seed in tasks
        ]
    result = ExperimentResult(
        out_dir=out_dir,
        n=dataset.n,
        n_pad=public["n_pad"],
        error_bound=error_bound,
        truth=truth,
        outcomes=outcomes,
        summary_rows=[],
        unsupported=sorted(set(unsupported)),
    )

    answer_rows = []
    for outcome in outcomes:
        if not outcome.ok:
            continue
        for q, value in zip(queries, outcome.answers):
            answer_rows.append((q.query_id, q.t, outcome.rep, value))
    _write_csv(out_dir / "answers.csv", ["query", "t", "repetition", "value"], answer_rows)

    summary_header = ["query", "t", "reps", "truth", "mean", "std", "p2_5", "median", "p97_5",
                      "supported"]
    answers = result.answers
    for idx, q in enumerate(queries):
        column = answers[:, idx]
        values = (
            q.query_id,
            q.t,
            int(column.size),
            truth[idx],
            float(column.mean()) if column.size else math.nan,
            float(column.std(ddof=1)) if column.size > 1 else math.nan,
            float(np.percentile(column, 2.5)) if column.size else math.nan,
            float(np.percentile(column, 50)) if column.size else math.nan,
            float(np.percentile(column, 97.5)) if column.size else math.nan,
            int(supported[idx]),
        )
        result.summary_rows.append(dict(zip(summary_header, values)))
    _write_csv(out_dir / "summary.csv", summary_header,
               [list(r.values()) for r in result.summary_rows])

    _write_csv(
        out_dir / "errors.csv",
        ["repetition", "status", "m", "max_error", "error_bound", "within_bound"],
        [
            (
                o.rep,
                "ok" if o.ok else "padding_exhausted",
                o.m if o.m is not None else "",
                o.max_error if o.ok else "",
                error_bound,
                int(o.ok and o.max_error <= error_bound) if o.ok else "",
            )
            for o in outcomes
        ],
    )

    _write_csv(
        out_dir / "failures.csv",
        ["repetition", "round", "bin"],
        [(o.rep, o.fail_t, o.fail_bin if o.fail_bin is not None else "") for o in result.failures],
    )

    metadata = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        **public,
        **guarantee,
        "beta": manifest.beta,
        "reps": manifest.reps,
        "seed": manifest.seed,
        "rep_seed_scheme": "SeedSequence(seed).spawn(reps + 1); child 0 simulates data, child r+1 drives repetition r",
        "workers": manifest.workers,
        "force_window": manifest.force_window,
        "data": {
            "source": source,
            "n": dataset.n,
            "t_max": dataset.t_max,
            "dropped_rows": dropped,
            "sim_params": manifest.sim_params,
            "header": manifest.header,
            "threshold": manifest.threshold,
        },
        "queries": [q.to_dict() for q in queries],
        "unsupported_queries": result.unsupported,
        "observed_failures": len(result.failures),
        "observed_failure_rate": len(result.failures) / manifest.reps,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(out_dir / "metadata.json", "w") as handle:
        json.dump(metadata, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return result
