"""Command-line front end.

Exit codes: 0 success, 2 unusable input, 3 all repetitions failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cumulative import CumulativeSynthConfig
from .harness import (
    InputError,
    RunManifest,
    check_seed,
    ingest_csv,
    run_experiment,
    simulate_dataset,
)
from .queries import eval_query, parse_queries
from .window import WindowSynthConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ALL_FAILED = 3


def _add_data_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="input CSV (rows = individuals, columns = rounds)")
    parser.add_argument("--header", action="store_true", help="skip the first CSV line")
    parser.add_argument(
        "--threshold",
        type=float,
        help="binarize: values below the threshold become 1, others 0",
    )
    parser.add_argument("--sim-kind", choices=["all_ones", "bernoulli", "markov", "from_seed"],
                        help="simulate the input instead of reading a CSV")
    parser.add_argument("--n", type=int, help="population size for simulated input")
    _add_sim_params(parser)


def _add_sim_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=0.5, help="bernoulli rate")
    parser.add_argument("--p0", type=float, default=0.12, help="markov initial rate")
    parser.add_argument("--stay", type=float, default=0.9, help="markov stay probability")
    parser.add_argument("--enter", type=float, default=0.02, help="markov entry probability")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--T", type=int, required=True, help="time horizon")
    parser.add_argument("--rho", type=float, default=0.0, help="total zCDP budget")
    parser.add_argument("--reps", type=int, default=1, help="number of repetitions")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--queries", help="query list: JSON file path or inline JSON")
    parser.add_argument("--noiseless", action="store_true", help="exact mode (no noise, no padding)")
    parser.add_argument("--force-window", action="store_true",
                        help="evaluate queries the synthesizer does not preserve (tagged unsupported)")
    parser.add_argument("--beta", type=float, default=RunManifest.beta,
                        help="failure probability for the reported error bound")
    parser.add_argument("--workers", type=int, default=1, help="parallel repetition workers")
    parser.add_argument("--save-synth", type=int, default=0,
                        help="write the synthetic datasets of the first N repetitions")


def _sim_params(args) -> dict:
    if args.sim_kind == "bernoulli":
        return {"p": args.p}
    if args.sim_kind == "markov":
        return {"p0": args.p0, "stay": args.stay, "enter": args.enter}
    return {}


def _load_queries(spec: str | None):
    if not spec:
        return []
    path = Path(spec)
    try:
        is_file = path.exists()
    except OSError:  # e.g. inline JSON longer than the file-name limit
        is_file = False
    try:
        return parse_queries(path.read_text() if is_file else spec)
    except ValueError as exc:  # JSONDecodeError included
        raise InputError(f"--queries is neither a file nor a valid query list: {exc}") from None


def _engine_config(args, mode: str) -> WindowSynthConfig | CumulativeSynthConfig:
    """The engine config the flags describe; one the engine refuses is unusable input."""
    try:
        if mode == "window":
            return WindowSynthConfig(T=args.T, k=args.k, rho=args.rho, beta_target=args.beta_target,
                                     n_pad=args.n_pad, noiseless=args.noiseless)
        return CumulativeSynthConfig(T=args.T, rho=args.rho, noiseless=args.noiseless)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _manifest_from_args(args, mode: str) -> RunManifest:
    return RunManifest(
        synth=_engine_config(args, mode),
        reps=args.reps,
        seed=args.seed,
        out_dir=args.out,
        queries=_load_queries(args.queries),
        force_window=args.force_window,
        beta=args.beta,
        workers=args.workers,
        save_synth=args.save_synth,
        data_path=args.data,
        header=args.header,
        threshold=args.threshold,
        sim_kind=args.sim_kind,
        n=args.n,
        sim_params=_sim_params(args),
    )


def _cmd_synth(args, mode: str) -> int:
    result = run_experiment(_manifest_from_args(args, mode))
    ok = sum(o.ok for o in result.outcomes)
    print(f"{ok}/{len(result.outcomes)} repetitions succeeded; outputs in {result.out_dir}")
    if result.all_failed:
        print("all repetitions failed (padding exhausted)", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    dataset = simulate_dataset(args.sim_kind or "bernoulli", args.n, args.T, rng,
                               **_sim_params(args))
    np.savetxt(args.out, dataset.matrix(), fmt="%d", delimiter=",")
    print(f"wrote {dataset.n} x {dataset.t_max} dataset to {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset, dropped = ingest_csv(args.data, header=args.header, threshold=args.threshold)
    if dropped:
        print(f"dropped {dropped} rows with missing values", file=sys.stderr)
    queries = _load_queries(args.queries)
    if not queries:
        raise InputError("eval needs a non-empty --queries list")
    try:
        rows = [(q.query_id, q.t, eval_query(dataset, q, args.window_limit, args.force_window))
                for q in queries]
    except ValueError as exc:  # a round past the data, or a refused window
        raise InputError(str(exc)) from None
    lines = ["query,t,value"] + [f"{qid},{t},{v!r}" for qid, t, v in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bound(args) -> int:
    """The guarantees a sweep's metadata.json would record, from the same config methods."""
    if args.mode == "window" and args.k is None:
        raise InputError("bound --mode window needs --k")
    cfg = _engine_config(args, args.mode)
    public, n = cfg.public(), 1 if args.n is None else args.n
    # the parameters this mode defines; the others are None in public()
    keys = ("mode", "T", "k", "rho", "beta_target", "n_pad", "schedule")
    out = {key: public[key] for key in keys if public[key] is not None}
    out["beta"] = args.beta
    try:
        guarantee = cfg.guarantee(n, args.beta)
        if args.mode == "window":
            out["max_additive_error_bound"] = guarantee["error_bound"]
            if args.n is not None:
                out["max_relative_error_bound"] = cfg.relative_error_bound(n, args.beta, args.c_frac)
        else:
            out.update(n=n, alpha_star=guarantee["alpha_star"], beta_star=cfg.T * args.beta)
    except ValueError as exc:  # an out-of-range --n, --beta or --c-frac
        raise InputError(str(exc)) from None
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelsynth",
        description="Continually released differentially private synthetic data "
        "for longitudinal bit-stream panels",
    )
    parser.add_argument("--version", action="version", version=f"panelsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-window", help="run the fixed-window synthesizer")
    _add_data_source(p)
    _add_run_options(p)
    p.add_argument("--k", type=int, required=True, help="window length")
    p.add_argument("--beta-target", type=float, default=WindowSynthConfig.beta_target,
                   help="padding failure probability target")
    p.add_argument("--n-pad", type=int, help="override the derived padding per bin")
    p.set_defaults(func=lambda a: _cmd_synth(a, "window"))

    p = sub.add_parser("synth-cumulative", help="run the cumulative-threshold synthesizer")
    _add_data_source(p)
    _add_run_options(p)
    p.set_defaults(func=lambda a: _cmd_synth(a, "cumulative"))

    p = sub.add_parser("simulate", help="write a simulated dataset CSV")
    p.add_argument("--sim-kind", "--kind", dest="sim_kind",
                   choices=["all_ones", "bernoulli", "markov", "from_seed"], default="bernoulli")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    _add_sim_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="evaluate queries on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--threshold", type=float)
    p.add_argument("--queries", required=True)
    p.add_argument("--window-limit", type=int,
                   help="refuse window queries wider than this (synthesizer k)")
    p.add_argument("--force-window", action="store_true")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bound", help="print theoretical guarantees for a configuration")
    p.add_argument("--mode", choices=["window", "cumulative"], default="window")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, help="window length (window mode)")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--beta", type=float, default=RunManifest.beta)
    p.add_argument("--beta-target", type=float, default=WindowSynthConfig.beta_target)
    p.add_argument("--n", type=int)
    p.add_argument("--c-frac", type=float, default=1.0)
    p.set_defaults(func=_cmd_bound, n_pad=None, noiseless=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:  # unusable input, or a path missing or of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
