"""Throughput studies with the deterministic fleet simulator.

The simulator runs the real worker loop and the real directory protocol
against an in-memory directory, with a virtual clock: an evaluation costs
t_eval / speed_factor seconds, every directory operation costs t_io.  Speedup
is measured against the fastest machine doing the same completed evaluations
back to back, so efficiency = speedup / ideal_speedup can never exceed 1.

Three studies below: a fleet-size sweep with cheap coordination, the
mixed-speed office fleet, and a pathological regime where coordination costs
as much as evaluation.
"""

import logging

from idleclimb.optimizer import StopCondition
from idleclimb.simharness import (
    SimConfig,
    SimWorker,
    default_setup,
    ideal_speedup,
    run_sim,
    sweep_fleet_size,
    write_sweep_csv,
)

# The pathological study below provokes lots of expected give-up-on-commit
# warnings; keep the narrative readable.
logging.getLogger("idleclimb").setLevel(logging.ERROR)

setup = default_setup(n=16, levels=4, target_order=3, init_seed=1)

# --- Study 1: near-ideal scaling while coordination stays cheap ------------
sim = SimConfig(t_eval=1.0, t_io=0.001, seed=1,
                stop=StopCondition(max_total_evaluations=1000))
print("fleet-size sweep, t_io/t_eval = 0.001, 1000 evaluations:")
rows = sweep_fleet_size(10, sim, setup)
for p, report in rows:
    bar = "#" * round(report.efficiency * 40)
    print(f"  p={p:2d}  speedup {report.speedup:6.3f}  "
          f"efficiency {report.efficiency:.4f} {bar}")

# --- Study 2: a mixed fleet of real-world desk machines --------------------
speeds = [0.4] * 4 + [0.5] * 4 + [1.0, 0.85]
fleet = tuple(SimWorker(id=f"desk{i:02d}", speed_factor=s)
              for i, s in enumerate(speeds))
report = run_sim(fleet, setup, sim)
print(f"\nmixed fleet: ideal speedup {ideal_speedup(fleet):.2f} "
      f"(reference: the fastest machine)")
print(f"  measured speedup {report.speedup:.3f}, efficiency {report.efficiency:.4f}")
print(f"  waste: {report.wasted_duplicate} duplicate analyses, "
      f"{report.wasted_outdated} against outdated bases, "
      f"{report.rejected_not_better} simply not better")

# --- Study 3: what happens when coordination is NOT cheap ------------------
print("\npathological regime, t_io = t_eval:")
bad = SimConfig(t_eval=1.0, t_io=1.0, seed=3,
                stop=StopCondition(max_total_evaluations=120))
for p, r in sweep_fleet_size(6, bad, default_setup(init_seed=3)):
    print(f"  p={p}  efficiency {r.efficiency:.4f}  "
          f"outdated analyses {r.wasted_outdated}")
print("efficiency now *falls* as machines are added: they queue on the "
      "shared directory instead of computing.")

# Machine-readable output for plotting.
try:
    write_sweep_csv("sweep.csv", rows)
    print("\nwrote sweep.csv")
except OSError as exc:
    print("skipping CSV:", exc)
