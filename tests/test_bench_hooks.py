"""The benchmark's tracing hooks still name functions the library has, and a
traced run of each driver passes through every one of them."""

import os
import random
import sys

import pytest

from idleclimb.coordination import MemBackend
from idleclimb.objective import PhaseMaskObjective
from idleclimb.optimizer import OptimizerMode

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")

sys.path.insert(0, BENCH)
try:
    import tracing
    import workloads
finally:
    sys.path.remove(BENCH)


def test_every_traced_name_exists():
    assert tracing.missing_hooks() == [], (
        "bench/tracing.py patches these names, so a traced benchmark run would exit 2; "
        "keep them until the benchmark measures seams that survive the change "
        "(ROADMAP item 2)"
    )


@pytest.fixture
def tracer(monkeypatch):
    """A tracer installed for this test only: every patched name is put back
    afterwards."""
    for module, path in tracing.HOOKS:
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def test_a_traced_simulation_reaches_every_hook(tracer):
    objective = tracing.TracingObjective(
        PhaseMaskObjective(length=workloads.SIM_N, level_count=workloads.SIM_LEVELS,
                           target_order=3),
        tracer,
    )
    fleet, setup, sim = workloads._sim_inputs(1, 200, objective)
    report = workloads.simharness.run_sim(
        fleet[:5], setup, sim, backend=tracing.TracingBackend(MemBackend("sim"), tracer)
    )
    assert report.evaluations_total >= 200
    agg = tracing.merge_summaries([tracer.summary()])
    assert tracing.unrecorded(agg, sim=True) == []


def test_a_traced_worker_loop_reaches_every_hook(tracer, tmp_path):
    path = str(tmp_path / "job")
    workloads.prepare_job(path, "hooks", n=64, levels=4, budget=200, seed=1)
    cfg = workloads._daemon_config([path], "steady", OptimizerMode.REPLACE_IF_BETTER)
    job = workloads._pick_job(cfg, tracer)
    report = workloads._run_loop(job, "steady", cfg.mode, random.Random(1), tracer)
    assert report.exit_reason == "stop_condition"
    agg = tracing.merge_summaries([tracer.summary()])
    assert tracing.unrecorded(agg, sim=False) == []


@pytest.mark.parametrize("name", ["worker_steady", "sim_p50"])
def test_an_untraced_workload_runs_clean(name, tmp_path):
    """The benchmark's plain pass reads report attributes the traced tests
    above do not; a renamed one fails here before a benchmark run does."""
    work = str(tmp_path)
    p = workloads.WORKLOADS[name](1, 0.0, False, work, work)
    assert p.failed == 0
    assert p.errors == []
