"""One desk machine's day, replayed through the worker daemon.

The daemon emulates a desktop task scheduler: wake every 10 minutes, start
only after 60 minutes of user idleness and inside the daily window, run the
optimization loop while the signal file exists, and abandon everything the
moment the user touches the machine.  Here the whole day runs on a virtual
clock with a scripted activity trace, so the timeline is exact and
repeatable.
"""

import random

from idleclimb.clock import VirtualClock
from idleclimb.coordination import (
    JobDirectory,
    MemBackend,
    read_manifest,
    signal_set,
    write_manifest,
)
from idleclimb.objective import PhaseMaskObjective
from idleclimb.optimizer import initialize, job_from_manifest
from idleclimb.simharness import ClockedObjective
from idleclimb.worker import TraceProbe, WorkerConfig, run_daemon


def hhmm(seconds):
    return f"{int(seconds // 3600) % 24:02d}:{int(seconds % 3600) // 60:02d}"


NINE = 9 * 3600.0
clock = VirtualClock(NINE)  # the daemon comes up at 09:00

obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
job = JobDirectory(backend=MemBackend(), clock=clock, job_id="office")
initialize(job, (0,) * 8, obj)
write_manifest(job, obj.manifest_params())  # no stop keys: it runs until stopped
signal_set(job)

# The user types until 09:00, pops back for lunch email at 14:00, and leaves
# for the day at 17:30 (activity resets the idle timer each time).
trace = TraceProbe(idle_since=NINE, activity_times=(14 * 3600.0, 17.5 * 3600.0))


def job_for(job):
    """The job as its manifest describes it, as the daemon reads it by
    default, except that one evaluation takes 30 virtual seconds, checked
    for cancellation every virtual second: that is why kills land within a
    second of the activity."""
    objective, stop = job_from_manifest(read_manifest(job))
    return ClockedObjective(objective, clock, duration=30.0, checkpoint_fraction=1 / 30), stop


report = run_daemon(
    WorkerConfig(jobs=(job,), worker_id="desk07"),
    trace,
    clock,
    cancel=lambda: clock.now() >= NINE + 15 * 3600.0,  # stop replay at midnight
    job_for=job_for,
    rng=random.Random(7),
)

print("decision timeline (one line per scheduler tick):")
last_reason = None
for t, decision in report.decisions:
    if decision.start:
        print(f"  {hhmm(t)}  START")
        last_reason = None
    elif decision.reason is not last_reason:
        print(f"  {hhmm(t)}  skip: {decision.reason.value} (repeats suppressed)")
        last_reason = decision.reason

print(f"\nticks {report.ticks}, starts {report.starts}, "
      f"kills by user activity {report.kills}")
for i, loop in enumerate(report.loop_reports):
    print(f"  loop {i}: {loop.evaluations} evaluations, {loop.counts.commits} commits, "
          f"{loop.aborted} abandoned mid-flight, exit: {loop.exit_reason}")
