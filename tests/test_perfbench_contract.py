"""The benchmark's hold on the package: every name it patches or reads resolves.

``perfbench/`` instruments panelsynth from outside, by patching functions
and methods by name, and its outside checks read engine and panel
attributes. A rename inside ``src/`` that the benchmark does not follow
breaks the traced benchmark, so these tests load the benchmark's own
modules unchanged and run one small traced release and one traced sweep
pair through them.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer_mod = _load("tracer")
workloads = _load("workloads")


def _targets():
    owners = [(o, a) for o, a, _ in tracer_mod.FUNCTION_PATCHES + tracer_mod.METHOD_PATCHES]
    return {(id(o), a): vars(o)[a] for o, a in owners}


def test_every_patch_target_resolves_and_is_restored():
    before = _targets()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not before[id(o), a]
                   for o, a, _ in tracer_mod.METHOD_PATCHES)
    finally:
        tracer.uninstall()
    after = _targets()
    assert all(after[key] is before[key] for key in before)


def test_traced_release_pass_is_clean():
    spec = workloads.ReleaseSpec(n=300, T=8, k=3, cumulative=True, traced_passes=1)
    release = workloads.Release(spec, seed=3)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        res = release.fixed(tracer)
    assert (res.attempted, res.failed, res.padding_exhausted) == (8, 0, 0)
    assert res.problems == []
    names = {span[1] for span in tracer.spans}
    assert {"window.init", "window.step", "cumulative.step", "model.from_matrix",
            "model.append", "model.true_hist", "counters.feed"} <= names
    assert not any(span[7] for span in tracer.spans)


def test_traced_sweep_pair_is_clean(tmp_path):
    # the CLI path of a sweep: main -> run_experiment -> one run per repetition
    sweep = workloads.Sweep(1, tmp_path)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        res = sweep.fixed(tracer)
    assert (res.attempted, res.failed, res.padding_exhausted) == (40, 0, 0)
    assert res.problems == []
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "harness.run_experiment", "harness.ingest_csv", "window.run",
            "cumulative.run", "queries.debiased_answer"} <= names
    assert not any(span[7] for span in tracer.spans)
