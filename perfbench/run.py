"""panelsynth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics. ``--workload all`` runs every
workload in its own process (peak RSS is a per-process high-water mark) and
prints one table. Inputs, sweep bundles and span files go to ``.perfbench/``
at the repository root. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("sipp_sweep", "census_release", "wide_window", "long_horizon")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(res) -> dict:
    """The gated metrics, the ones BENCHMARK.json lists."""
    return {
        "setup_s": (float(np.median(res.setup_s)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_ms_p80": (_pct(res.op_ms, 80), "ms"),
    }


def named_metrics(res) -> dict:
    """Printed, not gated: the median and the workload-specific metrics.

    The median latency is left out of the gate because on a shared 2-core
    host its run-to-run spread is about twice that of the p80 (see README).
    """
    out = {"op_ms_p50": (_pct(res.op_ms, 50), "ms", len(res.op_ms))}
    for engine in ("window", "cumulative"):
        if f"{engine}_reps_per_s" in res.series:
            samples = res.series[f"{engine}_reps_per_s"]
            out[f"{engine}_reps_per_s"] = (_pct(samples, 50), "1/s", len(samples))
        if f"{engine}_round_ms" in res.series:
            samples = res.series[f"{engine}_round_ms"]
            out[f"{engine}_round_ms_p50"] = (_pct(samples, 50), "ms", len(samples))
            out[f"{engine}_round_ms_p80"] = (_pct(samples, 80), "ms", len(samples))
    out["failed_frac"] = (res.failed / max(res.attempted, 1), "frac", res.attempted)
    return out


def per_layer(tracer, traced, untraced, window_k) -> dict:
    """Per-layer metrics of the traced run, from span totals and counts."""
    tot = tracer.totals()

    def calls(*names):
        return sum(tot[n]["calls"] for n in names if n in tot)

    def ms(*names, key="total_ns"):
        return sum(tot[n][key] for n in names if n in tot) / 1e6

    def per(num, den):
        return num / den if den else 0.0

    roots = [s for s in tracer.spans if s[2] == -1]
    wall_ms = sum(s[5] - s[4] for s in roots) / 1e6
    root_self_ms = sum(s[5] - s[4] - s[6] for s in roots) / 1e6
    draws = calls("dp.sample")
    feeds = calls("counters.feed")
    monos = calls("counters.monotonize")
    window_ops = {s[3] for s in tracer.spans if s[1] == "window.run"}
    rescans = sum(1 for s in tracer.spans if s[1] == "model.synth_hist" and s[3] in window_ops)
    exhausted = sum(tot[n]["errors"]["PaddingExhaustedError"]
                    for n in ("window.init", "window.step") if n in tot)
    rows = {
        "dp.draws": (draws, "count"),
        "dp.us_per_draw": (per(ms("dp.sample") * 1e3, draws), "us"),
        "dp.bits_per_draw": (per(tracer.counts["dp.bits"], draws), "bits"),
        "dp.share": (per(ms("dp.sample", key="self_ns"), wall_ms), "frac"),
        "counters.feed_calls": (feeds, "count"),
        "counters.feed_self_us": (per(ms("counters.feed", key="self_ns") * 1e3, feeds), "us"),
        "counters.monotonize_calls": (monos, "count"),
        "counters.monotonize_us": (per(ms("counters.monotonize") * 1e3, monos), "us"),
        "counters.clamp_frac": (per(tracer.counts["counters.clamped"], monos), "frac"),
        "window.init_ms": (ms("window.init"), "ms"),
        "window.step_self_ms": (ms("window.step", key="self_ns"), "ms"),
        "window.groups_per_round": (1 << (window_k - 1) if window_k else 0, "count"),
        "window.m": (float(np.mean(traced.window_m)) if traced.window_m else 0.0, "rows"),
        "window.padding_exhausted": (exhausted, "count"),
        "cumulative.step_self_ms": (ms("cumulative.step", key="self_ns"), "ms"),
        "cumulative.thresholds_per_round": (per(feeds, calls("cumulative.step")), "count"),
        "model.append_calls": (calls("model.append"), "count"),
        "model.append_ms": (ms("model.append"), "ms"),
        "model.bytes_appended": (tracer.counts["model.bytes_appended"], "B"),
        "model.synth_hist_calls": (calls("model.synth_hist"), "count"),
        "model.synth_hist_ms": (ms("model.synth_hist"), "ms"),
        "model.true_hist_calls": (calls("model.true_hist"), "count"),
        "model.true_hist_ms": (ms("model.true_hist"), "ms"),
        "model.cum_counts_calls": (calls("model.cum_counts"), "count"),
        "model.cum_counts_ms": (ms("model.cum_counts"), "ms"),
        "model.from_matrix_ms": (ms("model.from_matrix"), "ms"),
        "queries.answers": (calls("queries.debiased_answer", "queries.eval_query"), "count"),
        "queries.self_ms": (ms("queries.debiased_answer", "queries.eval_query", key="self_ns"), "ms"),
        "queries.hist_rescans_per_rep": (per(rescans, len(window_ops)), "count"),
        "harness.ingest_ms": (ms("harness.ingest_csv", key="self_ns"), "ms"),
        "harness.engine_run_ms": (ms("window.run", "cumulative.run"), "ms"),
        "harness.self_ms": (ms("harness.run_experiment", key="self_ns"), "ms"),
        "harness.failed_reps": (traced.padding_exhausted if calls("harness.run_experiment")
                                else 0, "count"),
        "cli.self_ms": (ms("cli.main", key="self_ns"), "ms"),
        "trace.overhead_frac": (per(traced.timed_s, untraced.timed_s) - 1.0, "frac"),
        "trace.unattributed_share": (per(root_self_ms, wall_ms), "frac"),
    }
    return rows


def layer_breakdown(tracer) -> list[tuple[str, float]]:
    """Self time per layer (span-name prefix), in ms; 'bench' is unattributed."""
    layers: dict[str, float] = {}
    for name, row in tracer.totals().items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_ns"] / 1e6
    return sorted(layers.items(), key=lambda kv: -kv[1])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(args) -> int:
    if not (SRC / "panelsynth" / "__init__.py").is_file():
        print(f"error: panelsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, workdir)
    print(f"workload {args.workload}, seed {args.seed}, op = {workload.op}")

    if not args.trace:
        res = workload.measure(args.seconds, Tracer())
        if not res.op_ms:
            print("error: no operation succeeded: " + "; ".join(res.problems[:5]), file=sys.stderr)
            return 1
        metrics = end_to_end(res)
        print(f"  {len(res.op_ms)} op samples, {len(res.setup_s)} set-ups, "
              f"{res.attempted} operations attempted, {res.failed} failed")
        for key, (value, unit) in metrics.items():
            print(f"  {key:28s} {_fmt(value):>12s} {unit}")
        for key, (value, unit, count) in named_metrics(res).items():
            print(f"  {key:28s} {_fmt(value):>12s} {unit}  (n={count})")
        print(f"  output sha256 (first pass)   {res.digest}")
    else:
        untraced = workload.fixed(Tracer())
        tracer = Tracer()
        with tracer.installed():
            res = workload.fixed(tracer)
        with tracer.counting_bits():
            replay = workload.fixed(Tracer())
        if not res.digest == untraced.digest == replay.digest:
            res.problems.append("traced and untraced runs published different outputs")
        metrics = per_layer(tracer, res, untraced, workload.window_k)
        wall = sum(s[5] - s[4] for s in tracer.spans if s[2] == -1) / 1e6
        print(f"  traced wall {wall:.1f} ms over {len(tracer.spans)} spans; self time per layer:")
        for layer, self_ms in layer_breakdown(tracer):
            label = "unattributed (benchmark loop)" if layer == "bench" else layer
            print(f"    {label:30s} {self_ms:10.1f} ms  {self_ms / wall:6.1%}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:32s} {_fmt(value):>12s} {unit}")
        print(f"  output sha256 (traced = untraced) {res.digest}")
        tracer.write(workdir / "trace.jsonl")
    for problem in res.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = {"setup_s": res.setup_s, "op_ms": res.op_ms, **res.series}
    (workdir / f"result-trace{int(args.trace)}.json").write_text(json.dumps(
        {**result, "digest": res.digest, "problems": res.problems, "samples": samples}, indent=1
    ) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="panelsynth benchmark")
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    code = run_all(args) if args.workload == "all" else run_one(args)
    print(f"total {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
