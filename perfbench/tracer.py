"""In-memory span tracer that instruments panelsynth from outside.

Modules import each other's functions by name (``from .model import
true_suffix_histogram``), so a function is patched in the module that calls
it, not only where it is defined. Methods are patched on their class, which
every instance and caller sees. Nothing under ``src/`` is edited: the
patches are installed for the traced part of a run and removed afterwards.

A span records its name, start and end (``perf_counter_ns``), its parent and
the id of the operation (repetition or round) it belongs to. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

import panelsynth.cli
import panelsynth.harness
import panelsynth.model
import panelsynth.window
from panelsynth.counters import MonotoneBank, TreeCounter
from panelsynth.cumulative import CumulativeSynthesizer
from panelsynth.dp import BitSource, DiscreteGaussianSampler
from panelsynth.model import LongitudinalDataset, SyntheticStore
from panelsynth.window import WindowSynthesizer

# (owner, attribute, span name). Functions are listed once per calling module.
FUNCTION_PATCHES = [
    (panelsynth.window, "true_suffix_histogram", "model.true_hist"),
    (panelsynth.model, "true_suffix_histogram", "model.true_hist"),
    (panelsynth.model, "true_cumulative_counts", "model.cum_counts"),
    (panelsynth.harness, "true_cumulative_counts", "model.cum_counts"),
    (panelsynth.harness, "debiased_answer", "queries.debiased_answer"),
    (panelsynth.harness, "eval_query", "queries.eval_query"),
    (panelsynth.harness, "ingest_csv", "harness.ingest_csv"),
    (panelsynth.cli, "run_experiment", "harness.run_experiment"),
    (panelsynth.cli, "main", "cli.main"),
]
METHOD_PATCHES = [
    (DiscreteGaussianSampler, "sample", "dp.sample"),
    (TreeCounter, "feed", "counters.feed"),
    (MonotoneBank, "monotonize", "counters.monotonize"),
    (SyntheticStore, "append_column", "model.append"),
    (SyntheticStore, "suffix_histogram", "model.synth_hist"),
    (SyntheticStore, "cumulative_counts", "model.cum_counts"),
    (WindowSynthesizer, "init", "window.init"),
    (WindowSynthesizer, "step", "window.step"),
    (WindowSynthesizer, "run", "window.run"),
    (CumulativeSynthesizer, "step", "cumulative.step"),
    (CumulativeSynthesizer, "run", "cumulative.run"),
]
# a call to one of these starts a new operation id (one sweep repetition)
OP_STARTERS = {"window.run", "cumulative.run"}


class Tracer:
    """Collects spans while active; wrappers call straight through otherwise."""

    def __init__(self):
        self.active = False
        self.op = 0
        # finished spans: (id, name, parent id, op, start ns, end ns, child ns, error)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, parent, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, error: str | None) -> None:
        end = time.perf_counter_ns()
        sid, name, parent, start, child = self._stack.pop()
        if self._stack:
            self._stack[-1][4] += end - start
        self.spans.append((sid, name, parent, self.op, start, end, child, error))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a round, a sweep call)."""
        if not self.active:
            yield
            return
        self._open(name)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(error)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's correctness checks without recording them."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn):
        tracer = self
        new_op = name in OP_STARTERS

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if new_op:
                tracer.op += 1
            tracer._open(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._close(error)
            tracer._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _after(self, name: str, args: tuple, result) -> None:
        # counts taken at the boundary, outside the span's own timing
        if name == "counters.monotonize":
            if int(result) != int(args[3]):
                self.counts["counters.clamped"] += 1
        elif name == "model.append":
            self.counts["model.bytes_appended"] += len(args[1])

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in FUNCTION_PATCHES:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))
        for cls, attr, name in METHOD_PATCHES:
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig))
        orig = LongitudinalDataset.__dict__["from_matrix"]
        self._saved.append((LongitudinalDataset, "from_matrix", orig))
        LongitudinalDataset.from_matrix = classmethod(
            self.wrap("model.from_matrix", orig.__func__)
        )

    @contextlib.contextmanager
    def counting_bits(self):
        """Count into ``counts["dp.bits"]`` the bits that draws take through
        ``BitSource.getbits``. A wrapper on getbits, which runs dozens of times
        per draw, would double the sampler's time, so this runs on a separate
        replay of the traced work and records no spans."""
        orig_sample = DiscreteGaussianSampler.__dict__["sample"]
        orig_getbits = BitSource.__dict__["getbits"]
        depth = [0]
        counts = self.counts

        def sample(sampler, bits):
            depth[0] += 1
            try:
                return orig_sample(sampler, bits)
            finally:
                depth[0] -= 1

        def getbits(bits, k):
            if depth[0]:
                counts["dp.bits"] += k
            return orig_getbits(bits, k)

        DiscreteGaussianSampler.sample = sample
        BitSource.getbits = getbits
        try:
            yield
        finally:
            DiscreteGaussianSampler.sample = orig_sample
            BitSource.getbits = orig_getbits

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # -- reading the spans ---------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total ns, self ns and failed calls."""
        out: dict[str, dict] = {}
        for _sid, name, _parent, _op, start, end, child, error in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "errors": Counter()})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child
            if error:
                row["errors"][error] += 1
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, times in ns from the first span."""
        base = min((s[4] for s in self.spans), default=0)
        with open(path, "w") as handle:
            for sid, name, parent, op, start, end, child, error in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "op": op,
                    "start_ns": start - base, "end_ns": end - base,
                    "self_ns": end - start - child, "error": error,
                }) + "\n")
