"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run each workload's real batch (about a minute in all) and check the
generator, the tracer's coverage and restore, the counts a later change
may cite, and that each workload stresses the layers it is named for.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import COUNTS, GRID_FUNCTIONS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEED = 7
UNSEEN_SEED = 90210  # used by no other run of the benchmark


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Per workload: the runner and the tracers of two traced passes."""
    out = {}
    for workload in WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        runner = run.BatchRunner(
            generate(workload, SEED, run.DATA, base / "manifests"), base / "out")
        runner.reference_pass()
        passes = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                seconds = sum(runner.run(i)[0] for i in range(len(runner.batch)))
            finally:
                tracer.restore()
            passes.append((tracer, seconds))
        out[workload] = runner, passes
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = generate(workload, SEED, run.DATA, tmp_path / "a")
    second = generate(workload, SEED, run.DATA, tmp_path / "b")
    other = generate(workload, SEED + 1, run.DATA, tmp_path / "c")
    assert [k for k, _ in first] == [k for k, _ in second]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unseen_seed_passes_every_check(tmp_path, workload):
    runner = run.BatchRunner(
        generate(workload, UNSEEN_SEED, run.DATA, tmp_path / "m"), tmp_path / "o")
    runner.reference_pass()
    assert runner.failures == []


def test_tracing_keeps_reports_identical(traced_passes):
    for runner, _ in traced_passes.values():
        assert runner.failures == []


def test_each_function_runs_on_its_workload(traced_passes):
    for module, functions in LAYERS.items():
        for function, workload in functions.items():
            tracer = traced_passes[workload][1][0][0]
            assert tracer.stats[f"{module}.{function}"][0] >= 1, (module, function)


def test_grid_is_bypassed_off_converge(traced_passes):
    for workload in ("valuations", "skeleta"):
        metrics = traced_passes[workload][1][0][0].metrics(1)
        for name in GRID_FUNCTIONS:
            assert metrics[f"{name}.calls"][0] == 0, (workload, name)
        for name in COUNTS:
            assert metrics[name][0] == 0, (workload, name)


def test_counts_repeat_exactly(traced_passes):
    for workload, (_, passes) in traced_passes.items():
        first, second = (tracer.metrics(1) for tracer, _ in passes)
        counted = [n for n in first if n.endswith(".calls") or n in COUNTS]
        assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    converge = traced_passes["converge"][1][0][0].metrics(1)
    assert all(converge[name][0] > 0 for name in COUNTS)


@pytest.mark.parametrize("workload,layers,share", [
    ("converge", ("mongeampere", "pafunc"), 0.8),
    ("valuations", ("valuation",), 0.5),
    ("skeleta", ("exactnum", "mztree", "models", "hybrid", "tropical",
                 "pafunc"), 0.5),
])
def test_workload_stresses_its_layers(traced_passes, workload, layers, share):
    tracer, seconds = traced_passes[workload][1][0]
    self_s = tracer.layer_self_s()
    assert sum(self_s[layer] for layer in layers) >= share * seconds
    grid = sum(tracer.stats[name][1] for name in GRID_FUNCTIONS)
    assert workload == "converge" or grid < 0.01 * seconds


def test_install_patches_every_binding_and_restore_undoes_it():
    import berkhyb.cli
    from berkhyb import harness, mongeampere
    from berkhyb.exactnum import LogRVal

    def bindings():
        mods = [m for n, m in sys.modules.items() if n.startswith("berkhyb.")]
        snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        snapshot.update({("LogRVal", k): v for k, v in vars(LogRVal).items()})
        snapshot.update({("ExperimentManifest", k): v for k, v in
                         vars(harness.ExperimentManifest).items()})
        return snapshot

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # from-imported names are patched where callers look them up
        assert berkhyb.cli.run is not before[("berkhyb.harness", "run")]
        assert berkhyb.cli.run.__wrapped__ is before[("berkhyb.harness", "run")]
        assert harness.weak_convergence_experiment is \
            mongeampere.weak_convergence_experiment
        assert harness.weak_convergence_experiment is not \
            before[("berkhyb.mongeampere", "weak_convergence_experiment")]
        assert LogRVal.sign is not before[("LogRVal", "sign")]
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
