"""Pinned output bundles for seeded sweeps of both modes.

Each bundle file is hashed with SHA-256: the four CSVs, every
``synth_rep*.csv`` and ``metadata.json`` without ``wall_time_s``. The CSV
digests do not depend on the worker count; the metadata records it, so its
digest is pinned per worker count.

The window sweep forces a query wider than k, saves the first two
repetitions, and its repetition 1 exhausts its padding, so only
``synth_rep0.csv`` is written. A saved file is the synthetic panel whose
answers are in ``answers.csv``.
"""

import hashlib
import json

import pytest

from panelsynth.cumulative import CumulativeSynthConfig
from panelsynth.harness import RunManifest, run_experiment
from panelsynth.queries import parse_queries
from panelsynth.window import WindowSynthConfig

WINDOW_QUERIES = (
    '[{"kind":"window","s":"11","t":[2,4,6]},{"kind":"window","s":"101","t":5},'
    '{"kind":"linear","t":6,"weights":{"01":1,"10":-0.5}},{"kind":"cum","b":2,"t":6}]'
)
CUMULATIVE_QUERIES = (
    '[{"kind":"cum","b":2,"t":[3,5]},{"kind":"cum","b":0,"t":1},'
    '{"kind":"window","s":"10","t":4}]'
)

WINDOW_CSVS = {
    "answers.csv": "7c8181fa98d2c7b97b30240b3993342397ddfcebfc2180d3d8c7f5879fbfa37f",
    "errors.csv": "3bc17f4bf88213d8b9ba67e1659ed92135c7b29a1bbf678fe053b9ea18743e17",
    "failures.csv": "debd0a71a5054057e153ef79e21ef6706f03d1645945e6c6b6a208e0e40abd47",
    "summary.csv": "4cbbe6692d01d33406b20f832c5f56fdd40e2e59ed430969a77f0298b5c5f193",
    "synth_rep0.csv": "5853770f4b8c0e81c62f5b5e94398f263a25e14796e16e2cda0edfefd965a1bf",
}
CUMULATIVE_CSVS = {
    "answers.csv": "3cb60f61316a11ee147edc092f702e7500df2782df9273911f18689122ed7596",
    "errors.csv": "a7d824dba87a659ee4c9021adb31f178434a2cc377e5db509af50bb4916f32c5",
    "failures.csv": "5a279ed38c7dc84e3d220c329f10a802bd273d54c0588f6e569d9e84ae53d33b",
    "summary.csv": "d126876bda5d6a2c0d526d0c1ad6a04bfa00c77b59b2d675ca142b4f02a33772",
    "synth_rep0.csv": "a1d76ab2bf9471610fde21d26a84440a1b97fbe69fdd1b1c8fdb814b796eea3a",
    "synth_rep1.csv": "fab3b8dfdf8653ae2da35eb638be7a57197ecdf0e354538649b1bf81144b7909",
}
METADATA = {
    ("window", 1): "821bde9aa4e9316095cfc66397fe852897eaf9e2c2b3024ab5201780bb2fbc00",
    ("window", 2): "02f48e6f73b22faa8afb10f8cc84fdbb0627a1093ee9efbd3a343b2764dbc0b0",
    ("cumulative", 1): "4e512f832174c11120e35d986610d2637671ed4d36ebf79a729fafb6d1aca2e7",
    ("cumulative", 2): "acdf882cc4a9753d9bc653c7767ead5b20cd82590d3f09ddc2e494e38c4ea9d8",
}


def _manifest(mode: str, workers: int, out_dir) -> RunManifest:
    if mode == "window":
        return RunManifest(
            synth=WindowSynthConfig(T=6, k=2, rho=0.05, n_pad=6), reps=5, seed=59,
            out_dir=str(out_dir), queries=parse_queries(WINDOW_QUERIES),
            force_window=True, save_synth=2, workers=workers,
            sim_kind="bernoulli", n=40, sim_params={"p": 0.3},
        )
    return RunManifest(
        synth=CumulativeSynthConfig(T=5, rho=0.2), reps=3, seed=7,
        out_dir=str(out_dir), queries=parse_queries(CUMULATIVE_QUERIES),
        force_window=True, save_synth=2, workers=workers,
        sim_kind="bernoulli", n=60, sim_params={"p": 0.4},
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
@pytest.mark.parametrize("mode", ["window", "cumulative"])
def test_bundle_is_pinned(mode, workers, tmp_path):
    result = run_experiment(_manifest(mode, workers, tmp_path))
    out = result.out_dir
    if mode == "window":
        assert [o.ok for o in result.outcomes] == [True, False, True, True, True]
    csvs = sorted(p.name for p in out.glob("*.csv"))
    digests = {name: _sha((out / name).read_bytes()) for name in csvs}
    assert digests == (WINDOW_CSVS if mode == "window" else CUMULATIVE_CSVS)
    meta = json.loads((out / "metadata.json").read_text())
    meta.pop("wall_time_s")
    assert _sha(json.dumps(meta, sort_keys=True).encode()) == METADATA[mode, workers]
