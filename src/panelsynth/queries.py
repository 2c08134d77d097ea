"""Query evaluation on real or synthetic longitudinal data, with debiasing.

All counting is exact integer arithmetic; the single division by the
population size happens last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import suffix_index

__all__ = [
    "QuerySpec",
    "UnsupportedWindowError",
    "debiased_answer",
    "eval_query",
    "is_supported",
    "parse_queries",
]

class UnsupportedWindowError(ValueError):
    """The query looks past what the synthesizer was configured to preserve.

    Answers to such queries carry no accuracy guarantee and degrade badly in
    practice, so evaluation refuses unless explicitly forced; forced answers
    must be tagged as unsupported downstream.
    """


@dataclass(frozen=True)
class QuerySpec:
    """One counting query: fixed window, cumulative threshold, or linear.

    kind "window" asks for the fraction of rows whose last len(s) bits equal
    s at round t. kind "cumulative" asks for the fraction with Hamming
    weight >= b up to round t. kind "linear" is a weighted sum of window
    queries sharing one window length.
    """

    kind: str
    t: int
    s: str | None = None
    b: int | None = None
    weights: tuple[tuple[str, float], ...] | None = None
    name: str | None = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("query round t must be at least 1")
        if self.kind == "window":
            if not self.s:
                raise ValueError("window query needs a suffix string s")
            suffix_index(self.s)  # validates alphabet
            if self.t < len(self.s):
                raise ValueError(f"window query {self.s!r} undefined before round {len(self.s)}")
        elif self.kind == "cumulative":
            if self.b is None or self.b < 0:
                raise ValueError("cumulative query needs a threshold b >= 0")
        elif self.kind == "linear":
            if not self.weights:
                raise ValueError("linear query needs non-empty weights")
            lengths = {len(s) for s, _ in self.weights}
            if len(lengths) != 1:
                raise ValueError("linear query weights must share one window length")
            for s, w in self.weights:
                suffix_index(s)
                if not np.isfinite(w):
                    raise ValueError("linear query weights must be finite")
            if self.t < lengths.pop():
                raise ValueError("linear query undefined before its window length")
        else:
            raise ValueError(f"unknown query kind {self.kind!r}")

    @classmethod
    def window(cls, s: str, t: int) -> "QuerySpec":
        return cls(kind="window", t=t, s=s)

    @classmethod
    def cumulative(cls, b: int, t: int) -> "QuerySpec":
        return cls(kind="cumulative", t=t, b=b)

    @classmethod
    def linear(cls, weights: dict[str, float], t: int, name: str | None = None) -> "QuerySpec":
        items = tuple(sorted((s, float(w)) for s, w in weights.items()))
        return cls(kind="linear", t=t, weights=items, name=name)

    @property
    def window_length(self) -> int | None:
        """Window width the query looks at; None for cumulative queries."""
        if self.kind == "window":
            return len(self.s)
        if self.kind == "linear":
            return len(self.weights[0][0])
        return None

    @property
    def query_id(self) -> str:
        if self.kind == "window":
            return f"window:{self.s}"
        if self.kind == "cumulative":
            return f"cum:{self.b}"
        return self.name or "linear:" + "+".join(s for s, _ in self.weights)

    def to_dict(self) -> dict:
        if self.kind == "window":
            return {"kind": "window", "s": self.s, "t": self.t}
        if self.kind == "cumulative":
            return {"kind": "cum", "b": self.b, "t": self.t}
        out = {"kind": "linear", "t": self.t, "weights": dict(self.weights)}
        if self.name:
            out["name"] = self.name
        return out


def parse_queries(spec) -> list[QuerySpec]:
    """Parse the JSON query list format.

    Accepts a JSON string, a parsed list, or a single dict. Each entry is
    {"kind": "window", "s": "101", "t": 7}, {"kind": "cum", "b": 3, "t": 12},
    or {"kind": "linear", "t": 7, "weights": {"110": 1, "011": 1}}; "t" may
    be a list of rounds, which expands to one query per round. Any malformed
    input raises ValueError.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if isinstance(spec, dict):
        spec = [spec]
    if not isinstance(spec, list):
        raise ValueError("a query list must be a JSON list or object")
    queries: list[QuerySpec] = []
    for entry in spec:
        try:
            queries.extend(_entry_queries(entry))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"bad query entry {entry!r} ({type(exc).__name__}: {exc})") from None
    return queries


def _entry_queries(entry: dict) -> list[QuerySpec]:
    kind = entry.get("kind")
    ts = entry.get("t")
    if ts is None:
        raise ValueError(f"query entry missing 't': {entry!r}")
    ts = [_integer(t) for t in (ts if isinstance(ts, list) else [ts])]
    if kind == "window":
        return [QuerySpec.window(entry["s"], t) for t in ts]
    if kind in ("cum", "cumulative"):
        return [QuerySpec.cumulative(_integer(entry["b"]), t) for t in ts]
    if kind == "linear":
        return [QuerySpec.linear(entry["weights"], t, name=entry.get("name")) for t in ts]
    raise ValueError(f"unknown query kind {kind!r}")


def _integer(value) -> int:
    """A round or threshold; a float, string or bool is refused rather than truncated.

    JSON's other values (a list, an object or null) fail in int() itself.
    """
    if isinstance(value, (bool, float, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def is_supported(q: QuerySpec, k: int | None) -> bool:
    """Whether a synthesizer preserves q, so its answer carries a guarantee.

    A window synthesizer of length k preserves window and linear queries at
    most k rounds wide; the cumulative synthesizer (k=None) preserves
    cumulative queries only.
    """
    if k is None:
        return q.kind == "cumulative"
    length = q.window_length
    return length is not None and length <= k


def eval_query(data, q: QuerySpec, supported_k: int | None = None, force: bool = False) -> float:
    """Evaluate a query by exact averaging over rows: :func:`debiased_answer` with no padding.

    data is a real or synthetic LongitudinalDataset. supported_k, when given,
    refuses window/linear queries wider than the synthesizer's window unless
    force is set.
    """
    return debiased_answer(data, q, 0, data.n, supported_k, force)


def debiased_answer(
    store,
    q: QuerySpec,
    n_pad: int,
    n: int,
    k: int | None = None,
    force: bool = False,
) -> float:
    """Padding-corrected answer on a panel; a raw panel is the case n_pad = 0.

    Each width-k bin of a window-synthesized store carries n_pad padding
    records, so a width-L window bin (L <= k) aggregates 2**(k-L) of them, and
    window and linear answers divide by the public population size n. The
    estimate may be negative: clamping to [0, 1] would reintroduce bias.
    Cumulative answers carry no padding and divide by the store's own row
    count. k, when given, refuses window/linear queries wider than k unless
    force is set.
    """
    if q.t > store.t_max:
        raise ValueError(f"query round {q.t} exceeds available rounds ({store.t_max})")
    length = q.window_length
    if length is not None and k is not None and not force and not is_supported(q, k):
        raise UnsupportedWindowError(
            f"query {q.query_id} looks at a window of {length} rounds but the "
            f"synthesizer preserves windows up to k={k}; pass force=True "
            "to evaluate anyway (the answer carries no accuracy guarantee)"
        )
    if q.kind == "cumulative":
        if q.b == 0:
            return 1.0
        if q.b > q.t:
            return 0.0
        return int(store.cumulative_counts(q.t)[q.b]) / store.n
    pad = n_pad * (2.0 ** ((k if k is not None else length) - length))
    hist = store.suffix_histogram(length, q.t)
    if q.kind == "window":
        return (hist[q.s] - pad) / n
    numerator = 0.0
    for s, w in q.weights:
        numerator += w * (hist[s] - pad)
    return numerator / n
