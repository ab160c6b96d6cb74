"""Hill climbing on a single machine, against an in-memory job directory.

The optimizer only ever makes single-element changes: read the best record,
change one element at random, evaluate, and commit if strictly better.  The
stagnation stop proves termination: after a run of fruitless proposals it
sweeps every neighbor once and stops only when none improves, so the final
configuration is a certified local optimum.
"""

import random

from idleclimb.clock import VirtualClock
from idleclimb.coordination import JobDirectory, MemBackend, read_best, signal_set
from idleclimb.objective import PhaseMaskObjective
from idleclimb.optimizer import OptimizerMode, StopCondition, initialize, work_loop
from support import brute_force_optimum

obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
_, global_best = brute_force_optimum(obj)
print(f"global optimum (exhaustive): {global_best:.6f}\n")

for seed in range(5):
    job = JobDirectory(backend=MemBackend(), clock=VirtualClock(), job_id=f"climb{seed}")
    rng = random.Random(seed)
    start = tuple(rng.randrange(2) for _ in range(8))
    initialize(job, start, obj)
    signal_set(job)  # a worker only runs while the signal is up

    report = work_loop(
        job,
        worker_id="desk",
        objective=obj,
        mode=OptimizerMode.REPLACE_IF_BETTER,
        stop=StopCondition(stagnation_proposals=16),
        rng=random.Random(100 + seed),
    )
    final = read_best(job)
    hit = "  <- global" if abs(final.performance - global_best) < 1e-12 else ""
    print(
        f"start {start} -> {final.config}  "
        f"efficiency {final.performance:.6f}  "
        f"({report.evaluations} evaluations, {report.counts.commits} commits, "
        f"exit: {report.exit_reason}){hit}"
    )
