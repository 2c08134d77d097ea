import csv
import json
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ingest_csv_reference, random_dataset
from panelsynth import harness
from panelsynth.cli import build_parser, main
from panelsynth.cumulative import CumulativeSynthConfig, CumulativeSynthesizer
from panelsynth.harness import (
    _CHUNK_RECORDS,
    InputError,
    RunManifest,
    ingest_csv,
    run_experiment,
    simulate_dataset,
)
from panelsynth.queries import QuerySpec, parse_queries
from panelsynth.window import WindowSynthConfig, WindowSynthesizer


class TestIngestCsv:
    def test_plain_binary_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n1,1\n0,0\n")
        ds, dropped = ingest_csv(path)
        assert (ds.n, ds.t_max, dropped) == (3, 2, 0)

    def test_threshold_binarization(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.8,1.2\n2.0,0.5\n")
        ds, _ = ingest_csv(path, threshold=1.0)
        assert ds.matrix().tolist() == [[1, 0], [0, 1]]

    def test_missing_cell_drops_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n1,\n0,1\n")
        ds, dropped = ingest_csv(path)
        assert ds.n == 2 and dropped == 1

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("m1,m2\n1,0\n0,1\n")
        ds, _ = ingest_csv(path, header=True)
        assert ds.n == 2

    def test_non_rectangular_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n1,0,1\n")
        with pytest.raises(InputError, match="columns"):
            ingest_csv(path)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",\n")
        with pytest.raises(InputError, match="no usable rows"):
            ingest_csv(path)

    def test_non_binary_without_threshold_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n0,1\n")
        with pytest.raises(InputError, match="0/1"):
            ingest_csv(path)

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"0,1\n\x81\xff,1\n")
        with pytest.raises(InputError, match="d.csv: not valid utf-8 text"):
            ingest_csv(path)

    def test_oversized_field_names_the_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n0," + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(InputError, match="d.csv: field larger than field limit"):
            ingest_csv(path)


def _outcome(ingest, path, **kwargs):
    """(shape, matrix bytes, dropped rows) of an ingest, or its InputError text."""
    try:
        ds, dropped = ingest(path, **kwargs)
    except InputError as exc:
        return str(exc)
    matrix = ds.matrix()
    return matrix.shape, matrix.tobytes(), dropped


_TOKENS = ["0", "1"] * 8 + ["", " NA ", "nan", "NaN", "-nan", "null", "None", ".", "x", "2",
                            "0.5", "1e0", "+1", "1_0", "inf", "1,0"]
_PADS = ["", "", "", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f"]


@st.composite
def _cells(draw):
    pad = st.sampled_from(_PADS)
    text = draw(pad) + draw(st.sampled_from(_TOKENS)) + draw(pad)
    if "," in text or draw(st.booleans()):
        text = '"' + text + '"'
    return text


@st.composite
def _csv_texts(draw):
    """CSV text with blank, whitespace-only and ragged lines mixed into rows of one width."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", '""'])))
            continue
        count = width if kind == "row" else draw(st.sampled_from([max(width - 1, 1), width + 1]))
        lines.append(",".join(draw(_cells()) for _ in range(count)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestIngestMatchesReference:
    """The chunked ingest against the row-by-row loop it replaced (conftest)."""

    @settings(deadline=None, max_examples=300)
    @given(_csv_texts(), st.booleans(), st.sampled_from([None, 0.5, 1.0, 2.0]),
           st.sampled_from([1, 2, 3, _CHUNK_RECORDS]))
    def test_same_matrix_dropped_count_or_error(self, tmp_path_factory, text, header,
                                                 threshold, chunk):
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(harness, "_CHUNK_RECORDS", chunk):
            got = _outcome(ingest_csv, path, header=header, threshold=threshold)
        assert got == _outcome(ingest_csv_reference, path, header=header, threshold=threshold)

    @staticmethod
    def _both(path, lines, **kwargs):
        path.write_text("\n".join(lines) + "\n")
        got = _outcome(ingest_csv, path, **kwargs)
        assert got == _outcome(ingest_csv_reference, path, **kwargs)
        return got

    def test_first_width_holds_in_later_chunks(self, tmp_path):
        got = self._both(tmp_path / "d.csv", ["0,1,0"] * _CHUNK_RECORDS + ["1,1"] * 5)
        assert got.endswith(f"line {_CHUNK_RECORDS + 1} has 2 columns, expected 3")

    @pytest.mark.parametrize("header", [False, True])
    def test_later_chunk_fault_names_its_record(self, tmp_path, header):
        lines = ["0,1"] * (2 * _CHUNK_RECORDS + 5) + ["", "1, x ", "1,0"]
        got = self._both(tmp_path / "d.csv", lines, header=header)
        assert got.endswith(f"line {2 * _CHUNK_RECORDS + 7}: non-numeric cell ' x '")

    @pytest.mark.parametrize("first", ["", " ", "1,NA", "nan,0"])
    def test_first_chunk_blank_or_dropped(self, tmp_path, first):
        lines = [first] * (_CHUNK_RECORDS + 3) + ["0,1", "1,1", "-nan,1"]
        shape, _, dropped = self._both(tmp_path / "d.csv", lines, threshold=0.5)
        assert shape == (3, 2) and dropped == (0 if first.strip() == "" else _CHUNK_RECORDS + 3)

    @pytest.mark.parametrize("bad, ragged, reported", [
        (3, 8, "bad"),        # both in the second chunk
        (8, 3, "ragged"),
        (0, 1, "bad"),        # last record of the first chunk, first of the second
        (1, 0, "ragged"),
        (5, 5, "ragged"),     # one record: the width is checked before the cells
    ])
    def test_first_fault_in_record_order(self, tmp_path, bad, ragged, reported):
        lines = ["0,1"] * (_CHUNK_RECORDS + 10)
        lines[_CHUNK_RECORDS - 1 + bad] = "x,1"
        lines[_CHUNK_RECORDS - 1 + ragged] = lines[_CHUNK_RECORDS - 1 + ragged] + ",1"
        got = self._both(tmp_path / "d.csv", lines)
        line = _CHUNK_RECORDS + (bad if reported == "bad" else ragged)
        assert got.endswith(f"line {line}: non-numeric cell 'x'" if reported == "bad"
                            else f"line {line} has 3 columns, expected 2")

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("bad", [" 2 ", "0.5", "-nan", "inf"])
    def test_non_binary_cell_names_its_line(self, tmp_path, header, bad):
        # dropped and blank records before it must not shift the line found
        lines = ["0,1", "1,NA"] * _CHUNK_RECORDS + ["", "0,1", f"1,{bad}", "2,0"]
        got = self._both(tmp_path / "d.csv", lines, header=header)
        assert got.endswith(f"line {2 * _CHUNK_RECORDS + 3}: cell {bad!r} is not 0/1; values "
                            "must be 0/1 unless a binarization threshold is given")

    def test_peak_memory_is_a_few_matrices(self, tmp_path):
        # SIPP-sized numeric input; a list of every cell of the file peaks near 13x
        n, width = 23_374, 12
        path = tmp_path / "d.csv"
        values = np.random.default_rng(0).gamma(2.0, 1.0, (n, width))
        np.savetxt(path, values, fmt="%.2f", delimiter=",")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds, _ = ingest_csv(path, threshold=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ds.n == n
        assert peak <= 3 * n * width * 8


class TestSimulate:
    def test_all_ones(self):
        ds = simulate_dataset("all_ones", 5, 3)
        assert ds.matrix().sum() == 15

    def test_bernoulli_zero_rate(self):
        ds = simulate_dataset("bernoulli", 6, 4, np.random.default_rng(0), p=0.0)
        assert ds.matrix().sum() == 0

    def test_deterministic_for_seed(self):
        a = simulate_dataset("markov", 40, 6, np.random.default_rng(5))
        b = simulate_dataset("markov", 40, 6, np.random.default_rng(5))
        assert (a.matrix() == b.matrix()).all()

    def test_markov_persistence(self):
        ds = simulate_dataset("markov", 4000, 2, np.random.default_rng(1),
                              p0=0.5, stay=1.0, enter=0.0)
        bits = ds.matrix()
        assert (bits[:, 0] == bits[:, 1]).all()

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            simulate_dataset("weather", 5, 3)


WINDOW_SYNTH = WindowSynthConfig(T=6, k=2, rho=0.05, beta_target=0.05)


def _window_manifest(out_dir, synth=None, **overrides):
    """The test sweep; synth maps WindowSynthConfig fields to override."""
    base = dict(
        synth=replace(WINDOW_SYNTH, **(synth or {})),
        reps=6,
        seed=424,
        out_dir=str(out_dir),
        queries=parse_queries('[{"kind":"window","s":"11","t":[2,4,6]},{"kind":"cum","b":1,"t":6}]'),
        force_window=True,
        sim_kind="bernoulli",
        n=120,
        sim_params={"p": 0.3},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunExperiment:
    def test_noiseless_answers_equal_truth(self, tmp_path):
        man = _window_manifest(
            tmp_path, synth={"noiseless": True, "rho": 0.0},
            queries=parse_queries('[{"kind":"window","s":"11","t":[2,4,6]}]'),
            force_window=False,
        )
        result = run_experiment(man)
        assert not result.failures
        for row in result.answers:
            assert np.allclose(row, result.truth)

    def test_unsupported_queries_need_force(self, tmp_path):
        man = _window_manifest(tmp_path, force_window=False)
        with pytest.raises(InputError, match="not preserved"):
            run_experiment(man)

    def test_output_bundle_written(self, tmp_path):
        result = run_experiment(_window_manifest(tmp_path))
        for name in ("answers.csv", "summary.csv", "errors.csv", "failures.csv", "metadata.json"):
            assert (result.out_dir / name).exists()
        meta = json.loads((result.out_dir / "metadata.json").read_text())
        assert meta["schema"] == 1
        for key in ("n_pad", "k", "T", "rho", "beta_target", "seed"):
            assert meta[key] is not None
        assert meta["unsupported_queries"] == ["cum:1"]
        assert meta["data"]["n"] == 120

    def test_summary_has_percentiles(self, tmp_path):
        result = run_experiment(_window_manifest(tmp_path))
        row = result.summary_rows[0]
        for key in ("truth", "mean", "std", "p2_5", "median", "p97_5", "supported"):
            assert key in row

    def test_cumulative_mode(self, tmp_path):
        man = RunManifest(
            synth=CumulativeSynthConfig(T=5, rho=0.2), reps=4, seed=7, out_dir=str(tmp_path),
            queries=parse_queries('[{"kind":"cum","b":2,"t":[3,5]}]'),
            sim_kind="bernoulli", n=80, sim_params={"p": 0.4},
        )
        result = run_experiment(man)
        assert result.answers.shape == (4, 2)
        meta = json.loads((result.out_dir / "metadata.json").read_text())
        assert len(meta["schedule"]) == 5
        assert meta["counter_kind"] == "tree"

    def test_byte_identical_reruns(self, tmp_path):
        res_a = run_experiment(_window_manifest(tmp_path / "a"))
        res_b = run_experiment(_window_manifest(tmp_path / "b"))
        for name in ("answers.csv", "summary.csv", "errors.csv", "failures.csv"):
            assert (res_a.out_dir / name).read_bytes() == (res_b.out_dir / name).read_bytes()
        meta_a = json.loads((res_a.out_dir / "metadata.json").read_text())
        meta_b = json.loads((res_b.out_dir / "metadata.json").read_text())
        meta_a.pop("wall_time_s"), meta_b.pop("wall_time_s")
        assert meta_a == meta_b

    def test_workers_do_not_change_results(self, tmp_path):
        serial = run_experiment(_window_manifest(tmp_path / "s", workers=1))
        parallel = run_experiment(_window_manifest(tmp_path / "p", workers=2))
        assert (serial.out_dir / "answers.csv").read_bytes() == (
            parallel.out_dir / "answers.csv"
        ).read_bytes()

    @pytest.mark.parametrize("workers, reps, started", [(64, 3, 3), (2, 3, 2), (4, 1, None)])
    def test_pool_starts_at_most_one_worker_per_rep(self, tmp_path, monkeypatch, workers, reps,
                                                    started):
        seen = []

        class FakePool:
            """Records the requested pool size and runs the tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        result = run_experiment(_window_manifest(tmp_path, workers=workers, reps=reps))
        assert seen == ([] if started is None else [started])
        assert len(result.outcomes) == reps
        assert json.loads((tmp_path / "metadata.json").read_text())["workers"] == workers

    def test_manifest_holds_one_engine_config(self):
        names = {f.name for f in fields(RunManifest)}
        assert "synth" in names
        assert not names & {"mode", "T", "k", "rho", "beta_target", "n_pad", "noiseless"}

    def test_failures_logged_not_fatal(self, tmp_path):
        man = _window_manifest(tmp_path, synth={"n_pad": 0, "rho": 1e-4}, reps=5, n=10,
                               queries=parse_queries('[{"kind":"window","s":"11","t":6}]'),
                               force_window=False)
        result = run_experiment(man)
        assert result.failures
        lines = (result.out_dir / "failures.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.failures)

    def test_save_synth_writes_matrix(self, tmp_path):
        result = run_experiment(_window_manifest(tmp_path, save_synth=1))
        saved = np.loadtxt(result.out_dir / "synth_rep0.csv", delimiter=",", dtype=int)
        assert saved.shape[1] == 6
        assert set(np.unique(saved)) <= {0, 1}

    def test_data_shorter_than_horizon_rejected(self, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("1,0\n0,1\n")
        man = _window_manifest(tmp_path, sim_kind=None, n=None, sim_params={},
                               data_path=str(data))
        with pytest.raises(InputError, match="horizon"):
            run_experiment(man)


class TestMaxError:
    """The released-count error equals a scan of the synthetic store."""

    def test_window_matches_store_scan(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 50, 6, p=0.4)
        synth = WindowSynthesizer(WindowSynthConfig(T=6, k=2, rho=0.2, beta_target=0.05), rng)
        store = synth.run(ds)
        worst = max(
            int(np.abs(store.suffix_histogram(2, t).counts
                       - (ds.suffix_histogram(2, t).counts + synth.n_pad)).max())
            for t in range(2, 7)
        )
        assert worst > 0
        assert synth.max_error(ds) == worst

    def test_cumulative_matches_store_scan(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 50, 6, p=0.4)
        synth = CumulativeSynthesizer(50, CumulativeSynthConfig(T=6, rho=0.2), rng)
        store = synth.run(ds)
        worst = max(
            int(np.abs(store.cumulative_counts(t) - ds.cumulative_counts(t)).max())
            for t in range(1, 7)
        )
        assert worst > 0
        assert synth.max_error(ds) == worst

    @pytest.mark.parametrize("mode", ["window", "cumulative"])
    def test_noiseless_run_has_zero_error(self, mode):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 30, 6, p=0.5)
        if mode == "window":
            synth = WindowSynthesizer(WindowSynthConfig(T=6, k=2, noiseless=True), rng)
        else:
            synth = CumulativeSynthesizer(30, CumulativeSynthConfig(T=6, noiseless=True), rng)
        synth.run(ds)
        assert synth.max_error(ds) == 0


AGREEMENT_CONFIGS = [
    ("window", WindowSynthConfig(T=8, k=3, rho=0.05, beta_target=0.02),
     ["--k", "3", "--beta-target", "0.02"]),
    ("cumulative", CumulativeSynthConfig(T=8, rho=0.05), []),
]


class TestOneEngineConfig:
    """A config's public() and guarantee() are what the engine, a bundle and bound report."""

    @pytest.mark.parametrize("mode, cfg, flags", AGREEMENT_CONFIGS)
    def test_bound_agrees_with_the_bundle(self, tmp_path, capsys, mode, cfg, flags):
        common = ["--T", "8", "--rho", "0.05", "--beta", "0.1", *flags]
        rc = main([f"synth-{mode}", "--sim-kind", "bernoulli", "--n", "70", "--p", "0.3",
                   "--reps", "2", "--out", str(tmp_path), *common])
        assert rc == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        capsys.readouterr()
        assert main(["bound", "--mode", mode, "--n", "70", *common]) == 0
        bound = json.loads(capsys.readouterr().out)
        assert meta["schedule"] == bound.get("schedule")
        if mode == "window":
            assert meta["n_pad"] == bound["n_pad"] == cfg.resolved_n_pad()
            assert meta["error_bound"] == bound["max_additive_error_bound"]
            assert meta["alpha_star"] is None
        else:
            assert meta["alpha_star"] == bound["alpha_star"]
            assert meta["error_bound"] == bound["alpha_star"] * 70
            assert meta["k"] is meta["n_pad"] is meta["beta_target"] is None
        assert {key: meta[key] for key in cfg.public()} == cfg.public()

    @pytest.mark.parametrize("mode, cfg, flags", AGREEMENT_CONFIGS)
    def test_engine_metadata_contains_public(self, mode, cfg, flags):
        ds = random_dataset(np.random.default_rng(8), 40, 8, p=0.4)
        synth = cfg.synthesizer(ds.n, np.random.default_rng(9))
        assert isinstance(synth, WindowSynthesizer if mode == "window" else CumulativeSynthesizer)
        synth.run(ds)
        meta = synth.metadata()
        assert {key: meta[key] for key in cfg.public()} == cfg.public()
        assert meta["rho_spent"] == pytest.approx(cfg.rho)
        assert meta["m" if mode == "window" else "n"] == synth.store.n


class TestCli:
    def test_simulate_then_synth_and_eval(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rc = main(["simulate", "--kind", "bernoulli", "--n", "60", "--T", "6",
                   "--p", "0.4", "--seed", "3", "--out", str(data)])
        assert rc == 0
        queries = tmp_path / "q.json"
        queries.write_text('[{"kind":"window","s":"11","t":[2,4,6]}]')
        out = tmp_path / "run"
        rc = main(["synth-window", "--data", str(data), "--T", "6", "--k", "2",
                   "--rho", "0.1", "--beta-target", "0.05", "--reps", "3",
                   "--seed", "11", "--out", str(out), "--queries", str(queries)])
        assert rc == 0
        assert (out / "metadata.json").exists()
        rc = main(["eval", "--data", str(data), "--queries", str(queries)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-4] == "query,t,value" or "query,t,value" in lines

    def test_synth_cumulative_subcommand(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["synth-cumulative", "--sim-kind", "bernoulli", "--n", "50",
                   "--p", "0.3", "--T", "4", "--rho", "0.2", "--reps", "2",
                   "--seed", "5", "--out", str(out),
                   "--queries", '[{"kind":"cum","b":1,"t":4}]'])
        assert rc == 0

    def test_bound_subcommand(self, capsys):
        rc = main(["bound", "--mode", "window", "--T", "12", "--k", "3",
                   "--rho", "0.005", "--beta", "0.05", "--beta-target", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_pad"] == 122
        assert payload["max_additive_error_bound"] == pytest.approx(123.3929, abs=5e-4)

    def test_bound_cumulative(self, capsys):
        rc = main(["bound", "--mode", "cumulative", "--T", "12", "--rho", "0.005",
                   "--beta", "0.05", "--n", "23374"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["schedule"]) == 12
        assert payload["beta_star"] == pytest.approx(0.6)

    def test_bound_window_needs_k(self, capsys):
        rc = main(["bound", "--mode", "window", "--T", "12", "--rho", "0.005"])
        assert rc == 2
        assert capsys.readouterr().err == "error: bound --mode window needs --k\n"

    def test_simulate_takes_the_data_source_parameters(self, tmp_path):
        parser = build_parser()
        base = ["--n", "3", "--T", "2"]
        sim = parser.parse_args(["simulate", "--kind", "markov", *base, "--out", "x"])
        source = parser.parse_args(["synth-cumulative", "--sim-kind", "markov", *base,
                                    "--out", "x"])
        names = ("sim_kind", "p", "p0", "stay", "enter")
        assert [getattr(sim, a) for a in names] == [getattr(source, a) for a in names]
        assert [getattr(sim, a) for a in names] == ["markov", 0.5, 0.12, 0.9, 0.02]
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--kind", "bernoulli", "--p", "1", *base, "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "1,1\n1,1\n1,1\n"

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n")
        rc = main(["eval", "--data", str(bad), "--queries", '[{"kind":"cum","b":1,"t":1}]'])
        assert rc == 2

    def test_undecodable_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,1\n\xff,1\n")
        rc = main(["eval", "--data", str(bad), "--queries", '[{"kind":"cum","b":1,"t":1}]'])
        assert rc == 2
        assert f"error: {bad}: not valid utf-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eval", "--queries", '[{"kind":"cum","b":1,"t":1}]'],
        ["synth-window", "--k", "1", "--T", "2", "--rho", "1"],
        ["synth-cumulative", "--T", "2", "--rho", "1"],
    ], ids=["eval", "synth-window", "synth-cumulative"])
    def test_nan_threshold_exit_code(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("0.5,2\n3,0.1\n")
        out = [] if command[0] == "eval" else ["--out", str(tmp_path / "run")]
        rc = main([*command, "--data", str(data), "--threshold", "nan", *out])
        assert rc == 2
        assert capsys.readouterr().err == "error: threshold must be a number, got nan\n"

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["eval", "--data", str(tmp_path / "nope.csv"),
                   "--queries", '[{"kind":"cum","b":1,"t":1}]'])
        assert rc == 2

    def test_all_failed_exit_code(self, tmp_path):
        rc = main(["synth-window", "--sim-kind", "bernoulli", "--n", "10", "--T", "8",
                   "--k", "2", "--rho", "0.0001", "--n-pad", "0", "--reps", "3",
                   "--seed", "1", "--out", str(tmp_path / "run")])
        assert rc == 3

    def test_inline_queries_longer_than_a_file_name(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,0,1,1\n0,1,1,0\n1,1,1,1\n0,0,0,0\n")
        spec = json.dumps([{"kind": "window", "s": format(c, "03b"), "t": 4} for c in range(8)])
        assert len(spec) > 255
        rc = main(["eval", "--data", str(data), "--queries", spec])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(r.rsplit(",", 1)[1]) for r in rows] == [0.25, 0, 0, 0.25, 0, 0, 0.25, 0.25]

    def test_unsupported_window_eval_guard(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,1,1,1\n0,0,0,0\n")
        rc = main(["eval", "--data", str(data), "--window-limit", "2",
                   "--queries", '[{"kind":"window","s":"111","t":4}]'])
        assert rc == 2
        rc = main(["eval", "--data", str(data), "--window-limit", "2", "--force-window",
                   "--queries", '[{"kind":"window","s":"111","t":4}]'])
        assert rc == 0

    @pytest.mark.parametrize("argv, message", [
        (["synth-window", "--k", "2", "--rho", "0"], "rho must be positive for a noisy run"),
        (["synth-window", "--k", "13", "--rho", "0.1"], "need 1 <= k <= T, got k=13, T=12"),
        (["synth-cumulative", "--rho", "-1"], "rho must be positive for a noisy run"),
        (["synth-window", "--k", "3", "--rho", "1e-320", "--n-pad", "5"],
         "rho 1e-320 is too small for noise that fits in int64"),
        (["synth-window", "--k", "2", "--rho", "1e-300"],
         "rho 1e-300 is too small for noise that fits in int64"),
        (["synth-window", "--k", "2", "--rho", "1", "--n-pad", str(2**61)],
         f"n_pad {2**61} is too large for counts that fit in int64"),
        (["synth-cumulative", "--rho", "1e-300"],
         "rho 1e-300 is too small for counter noise that fits in int64"),
    ], ids=["window-rho-0", "k-past-T", "cumulative-rho-negative", "window-rho-tiny",
            "window-rho-1e-300", "window-n-pad-past-int64", "cumulative-rho-tiny"])
    def test_refused_config_exit_code(self, tmp_path, capsys, argv, message):
        rc = main([*argv, "--sim-kind", "bernoulli", "--n", "10", "--T", "12",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (["synth-window", "--k", "1", "--rho", "1", "--threshold", "nan"],
         "threshold must be a number, got nan"),
        (["synth-cumulative", "--rho", "1", "--queries", '[{"kind":"cum","b":1,"t":13}]'],
         "query cum:1 at t=13 is beyond the horizon T=12"),
        (["synth-window", "--k", "2", "--rho", "1",
          "--queries", '[{"kind":"window","s":"111","t":4}]'],
         "queries not preserved by this synthesizer: window:111 "
         "(pass force_window to evaluate them anyway, tagged as unsupported)"),
    ], ids=["threshold-nan", "query-past-T", "unsupported-query"])
    def test_refused_sweep_leaves_no_output(self, tmp_path, capsys, argv, message):
        data = tmp_path / "d.csv"
        data.write_text("1,0,1,1,0,0,1,0,1,1,0,1\n" * 4)
        rc = main([*argv, "--data", str(data), "--T", "12", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_refused_bound_config_exit_code(self, capsys):
        rc = main(["bound", "--mode", "window", "--T", "12", "--k", "3", "--rho", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: rho must be positive for a noisy run\n"

    @pytest.mark.parametrize("argv, message", [
        (["--beta", "1.5"], "beta must lie in (0, 1)"),
        (["--mode", "cumulative", "--n", "-5"], "n must be at least 1"),
        (["--mode", "cumulative", "--n", "0"], "n must be at least 1"),
        (["--n", "0"], "n must be at least 1"),
        (["--n", "100", "--c-frac", "2"], "c_frac must lie in [0, 1]"),
        (["--rho", "nan"], "rho must be positive for a noisy run"),
        (["--rho", "inf"], "rho must be finite for a noisy run"),
        # the per-bin variance (T - k + 1) / (2 rho) passes 2**62, so the noisy
        # counts might not fit in int64
        (["--rho", "1e-320"], "rho 1e-320 is too small for noise that fits in int64"),
        (["--rho", "1e-30"], "rho 1e-30 is too small for noise that fits in int64"),
        (["--mode", "cumulative", "--rho", "1e-300"],
         "rho 1e-300 is too small for counter noise that fits in int64"),
    ], ids=["beta-past-1", "cumulative-n-negative", "cumulative-n-0", "window-n-0",
            "c-frac-past-1", "rho-nan", "rho-inf", "rho-tiny", "rho-1e-30", "cumulative-rho-tiny"])
    def test_out_of_range_bound_exit_code(self, capsys, argv, message):
        rc = main(["bound", "--T", "12", "--k", "3", "--rho", "0.005", *argv])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--T", "12", "--k", "3", "--beta", "1e-320", "--n", "100", "--c-frac", "0"],
         "beta 1e-320 is too small for a finite bound"),
        (["--mode", "cumulative", "--T", "12", "--beta", "1e-320", "--n", "100"],
         "beta 1e-320 is too small for a finite bound"),
        (["--T", "12", "--k", "3", "--beta-target", "1e-310"],
         "beta_target 1e-310 is too small for a finite bound"),
    ], ids=["window-beta", "cumulative-beta", "beta-target"])
    def test_tiny_probability_bound_exit_code(self, capsys, argv, message):
        # the log term would overflow and print Infinity or NaN, which is not JSON
        rc = main(["bound", "--rho", "0.005", *argv])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_tiny_beta_sweep_exit_code(self, tmp_path, capsys):
        rc = main(["synth-cumulative", "--sim-kind", "bernoulli", "--n", "100", "--T", "12",
                   "--rho", "0.005", "--beta", "1e-320", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == "error: beta 1e-320 is too small for a finite bound\n"
        assert not (tmp_path / "run" / "metadata.json").exists()

    @pytest.mark.parametrize("command", [["synth-window", "--k", "2"], ["synth-cumulative"]],
                             ids=["window", "cumulative"])
    @pytest.mark.parametrize("rho, message", [
        ("inf", "rho must be finite for a noisy run"),
        ("nan", "rho must be positive for a noisy run"),
    ], ids=["inf", "nan"])
    def test_non_finite_rho_exit_code(self, tmp_path, capsys, command, rho, message):
        rc = main([*command, "--rho", rho, "--sim-kind", "bernoulli", "--n", "10",
                   "--T", "4", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_fractional_query_round_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,1,1,0\n")
        rc = main(["eval", "--data", str(data), "--queries", '{"kind":"window","s":"01","t":3.7}'])
        assert rc == 2
        assert "TypeError: expected an integer, got 3.7" in capsys.readouterr().err

    def test_query_past_the_data_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,1,1,0,0,1,1,0,0,1,1,0\n")
        rc = main(["eval", "--data", str(data), "--queries", '{"kind":"cum","b":1,"t":13}'])
        assert rc == 2
        assert capsys.readouterr().err == "error: query round 13 exceeds available rounds (12)\n"

    @pytest.mark.parametrize("spec, detail", [
        ("queries.jsn", "Expecting value: line 1 column 1 (char 0)"),
        ('{"kind":"cum","b":[1],"t":3}',
         "bad query entry {'kind': 'cum', 'b': [1], 't': 3} (TypeError: int() argument "
         "must be a string, a bytes-like object or a real number, not 'list')"),
    ], ids=["neither-file-nor-json", "list-valued-b"])
    def test_unusable_queries_exit_code(self, tmp_path, capsys, spec, detail):
        data = tmp_path / "d.csv"
        data.write_text("0,1,1\n")
        rc = main(["eval", "--data", str(data), "--queries", spec])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: --queries is neither a file nor a valid query list: {detail}\n"


@pytest.mark.parametrize("call, message", [
    (lambda tmp: simulate_dataset("bernoulli", 0, 3), "n and T must be at least 1"),
    (lambda tmp: simulate_dataset("bernoulli", 3, 0), "n and T must be at least 1"),
    (lambda tmp: simulate_dataset("bernoulli", 3, 2, p=1.5), "p must lie in [0, 1]"),
    (lambda tmp: simulate_dataset("markov", 3, 2, stay=-0.1), "stay must lie in [0, 1]"),
    (lambda tmp: _window_manifest(tmp, data_path="d.csv").validate(),
     "specify exactly one data source (a CSV path or a simulation kind)"),
    (lambda tmp: _window_manifest(tmp, sim_kind=None).validate(),
     "specify exactly one data source (a CSV path or a simulation kind)"),
    (lambda tmp: _window_manifest(tmp, n=None).validate(),
     "simulated data needs a population size n"),
    (lambda tmp: _window_manifest(tmp, reps=0).validate(), "reps must be at least 1"),
    (lambda tmp: _window_manifest(tmp, workers=0).validate(), "workers must be at least 1"),
    (lambda tmp: run_experiment(_window_manifest(tmp, queries=[QuerySpec.window("1", 7)])),
     "query window:1 at t=7 is beyond the horizon T=6"),
    # every v < nan is False, so a NaN threshold would code every cell 0
    (lambda tmp: ingest_csv(tmp / "unread.csv", threshold=float("nan")),
     "threshold must be a number, got nan"),
    (lambda tmp: ingest_csv_reference(tmp / "unread.csv", threshold=float("nan")),
     "threshold must be a number, got nan"),
], ids=["n-0", "T-0", "p-outside", "markov-outside", "two-sources", "no-source",
        "simulation-without-n", "reps-0", "workers-0", "query-past-the-horizon",
        "threshold-nan", "reference-threshold-nan"])
def test_harness_refusals(tmp_path, call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


def test_from_seed_simulation_is_uniform_bits_fixed_by_the_seed():
    a = simulate_dataset("from_seed", 400, 5, np.random.default_rng(3)).matrix()
    b = simulate_dataset("from_seed", 400, 5, np.random.default_rng(3)).matrix()
    assert a.shape == (400, 5)
    assert (a == b).all()
    assert set(np.unique(a).tolist()) == {0, 1}
    assert 0.4 < a.mean() < 0.6


class TestCliBranches:
    def test_eval_refuses_an_empty_query_list(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,1\n1,1\n")
        assert main(["eval", "--data", str(data), "--queries", "[]"]) == 2
        assert capsys.readouterr().err == "error: eval needs a non-empty --queries list\n"

    def test_eval_writes_its_table_to_out_and_reports_dropped_rows(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,1\n1,\n1,1\n")
        out = tmp_path / "answers.csv"
        rc = main(["eval", "--data", str(data), "--queries", '{"kind":"cum","b":1,"t":2}',
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr() == ("", "dropped 1 rows with missing values\n")
        assert out.read_text() == "query,t,value\ncum:1,2,1.0\n"

    def test_synth_window_simulates_a_markov_panel(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["synth-window", "--sim-kind", "markov", "--n", "40", "--T", "4", "--k", "2",
                   "--p0", "0.3", "--stay", "0.8", "--enter", "0.1", "--noiseless",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "metadata.json").read_text())["data"]
        assert data["source"] == "simulate:markov"
        assert data["sim_params"] == {"p0": 0.3, "stay": 0.8, "enter": 0.1}
