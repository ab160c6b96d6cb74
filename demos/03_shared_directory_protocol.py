"""The shared-directory protocol, step by step, on a real temp directory.

Everything a fleet needs lives in five files: go.dat (the run/stop signal),
best.dat (the versioned, checksummed best record), lock, manifest.dat, and
changes.log.  Two simulated workers here read the same base record and merge
concurrent improvements; at the end, the one unsafe update style shows why
the protocol re-reads the best record before every commit.
"""

import tempfile

from idleclimb.coordination import JobDirectory, read_best, read_commit_log, signal_set
from idleclimb.objective import PhaseMaskObjective
from idleclimb.optimizer import OptimizerMode, Outcome, evaluate_and_merge, initialize
from support import naive_replace

obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
workdir = tempfile.mkdtemp(prefix="idleclimb-demo-")
job = JobDirectory.create(f"{workdir}/job", "demo")

initialize(job, (0,) * 8, obj)
signal_set(job)
base = read_best(job)
print(f"initialized {job.path}")
print(f"v{base.version}: config {base.config}  performance {base.performance:.6f}\n")

# Two workers picked up the same base record (version 0) and evaluate
# different elements concurrently.
a_change, b_change = (4, 1), (7, 1)

a = evaluate_and_merge(job, base, a_change, obj, OptimizerMode.CHANGE_MERGE, proposer="deskA")
print(f"deskA commits element 4: {a.outcome.value}, recorded v{a.committed_version} "
      f"at {a.recorded_performance:.6f}")

# deskB still holds version 0.  Its second read notices deskA's commit and,
# since the changes touch different elements, re-applies its own change on
# top and estimates the combined performance additively.
b = evaluate_and_merge(job, base, b_change, obj, OptimizerMode.CHANGE_MERGE, proposer="deskB")
merged = read_best(job)
print(f"deskB merges element 7: {b.outcome.value}, recorded v{merged.version} "
      f"at {merged.performance:.6f} (estimated={merged.estimated})")
print(f"exact value of the merged mask: {obj.evaluate(merged.config):.6f}\n")

# A third worker tries to replay a change to an element that moved under it.
c = evaluate_and_merge(job, base, (4, 1), obj, OptimizerMode.CHANGE_MERGE, proposer="deskC")
assert c.outcome is Outcome.REJECTED_CONFLICT
print(f"deskC re-proposes element 4 from the stale base: {c.outcome.value} (no write)\n")

print("audit trail (changes.log):")
for version, index, value, delta, proposer in read_commit_log(job):
    print(f"  v{version}: element {index} -> {value}  delta {delta:+.6f}  by {proposer}")

# The failure mode the double read exists to prevent: blind overwrites.
job2 = JobDirectory.create(f"{workdir}/naive", "naive")
initialize(job2, (0,) * 8, obj)
signal_set(job2)
stale = read_best(job2)
naive_replace(job2, stale, a_change, obj, proposer="deskA")
naive_replace(job2, stale, b_change, obj, proposer="deskB")
after = read_best(job2)
print(f"\nwithout the second read: config {after.config}")
print("deskA's committed element-4 improvement was silently overwritten:",
      after.config[4] == 0)
