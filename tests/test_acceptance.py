"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  Every tolerance and runtime budget is pinned here, not configured.
"""

import contextlib
import io
import multiprocessing
import random
import time
import traceback

from idleclimb import coordination
from idleclimb.clock import VirtualClock, WallClock
from idleclimb.coordination import (
    BestState,
    ChangeProposal,
    Committed,
    FsBackend,
    JobDirectory,
    commit_update,
    parse_best,
    publish_initial,
    read_best,
    read_commit_log,
    serialize_best,
    signal_set,
)
from idleclimb.objective import PhaseMaskObjective, neighbors
from idleclimb.optimizer import (
    OptimizerMode,
    Outcome,
    StopCondition,
    evaluate_and_merge,
    initialize,
    work_loop,
)
from idleclimb.simharness import (
    CHECKPOINT_FRACTION,
    ClockedObjective,
    JobSetup,
    SimConfig,
    SimWorker,
    default_setup,
    homogeneous_fleet,
    run_sim,
)
from idleclimb.worker import SkipReason, TraceProbe, WorkerConfig, run_daemon

from conftest import CrashInjected, CrashInjectionBackend
from support import naive_replace, spectrum

N8_L2_K1_OPTIMUM = 0.4267766952966369  # exhaustive-enumeration constant


def report_line(number: int, name: str, ok: bool, elapsed: float, budget: float,
                detail: str = "") -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} "
          f"(elapsed {elapsed:.2f}s, budget {budget:.0f}s){extra}")


def finish(number, name, ok, started, budget, detail=""):
    elapsed = time.monotonic() - started
    report_line(number, name, ok, elapsed, budget, detail)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def test_01_near_ideal_speedup_sweep():
    """sim sweep --max-p 10, t_io/t_eval = 0.001, 1000 evaluations, seed 1:
    efficiency >= 0.90 for every fleet size."""
    from idleclimb import simharness

    started = time.monotonic()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = simharness.main(["sweep", "--max-p", "10", "--t-eval", "1.0",
                                "--t-io", "0.001", "--max-evals", "1000",
                                "--seed", "1"])
    rows = {}
    for line in stdout.getvalue().splitlines():
        if line.startswith("p="):
            fields = dict(tok.split("=", 1) for tok in line.split())
            rows[int(fields["p"])] = float(fields["efficiency"])
    ok = code == 0 and sorted(rows) == list(range(1, 11)) and all(
        eff >= 0.90 for eff in rows.values()
    )
    finish(1, "near-ideal speedup for 1..10 workers", ok, started, 10.0,
           f"min efficiency {min(rows.values()):.4f}")


def test_02_heterogeneous_fleet():
    """Clock-normalized mixed fleet reaches >= 0.90 of its ideal speedup
    (fastest machine as reference; ideal = 5.45)."""
    started = time.monotonic()
    speeds = [0.4] * 4 + [0.5] * 4 + [1.0, 0.85]
    fleet = tuple(SimWorker(id=f"m{i:02d}", speed_factor=s)
                  for i, s in enumerate(speeds))
    sim = SimConfig(t_eval=1.0, t_io=0.001, seed=1,
                    stop=StopCondition(max_total_evaluations=1000))
    report = run_sim(fleet, default_setup(init_seed=1), sim)
    ok = (abs(report.ideal_speedup - 5.45) < 1e-9
          and report.efficiency >= 0.90 and not report.incomplete)
    finish(2, "heterogeneous fleet efficiency", ok, started, 5.0,
           f"efficiency {report.efficiency:.4f} of ideal {report.ideal_speedup:.2f}")


def test_03_double_read_necessity(mem_job):
    """With the second read disabled a scripted interleaving loses a committed
    update; with it enabled the same interleaving loses none."""
    started = time.monotonic()
    obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
    change_a, change_b = (4, 1), (7, 1)

    def scripted(merge):
        job = mem_job()
        initialize(job, (0,) * 8, obj)
        signal_set(job)
        base = read_best(job)
        merge(job, base, change_a, "a")
        merge(job, base, change_b, "b")
        return read_best(job)

    lost = scripted(lambda job, base, ch, who:
                    naive_replace(job, base, ch, obj, proposer=who))
    kept = scripted(lambda job, base, ch, who:
                    evaluate_and_merge(job, base, ch, obj,
                                       OptimizerMode.CHANGE_MERGE, proposer=who))
    lost_updates_naive = int(lost.config[4] == 0)  # a's commit overwritten
    lost_updates_proper = int(kept.config[4] == 0) + int(kept.config[7] == 0)
    ok = lost_updates_naive >= 1 and lost_updates_proper == 0
    finish(3, "double read prevents lost updates", ok, started, 1.0,
           f"naive lost {lost_updates_naive}, double-read lost {lost_updates_proper}")


def test_04_crash_safety_fuzz(tmp_path):
    """1000 random kill points across commit_update: best.dat always parses,
    checksums clean, and equals a previously committed record."""
    started = time.monotonic()
    path = str(tmp_path / "crashjob")
    clock = VirtualClock()
    plain = JobDirectory.create(path, "crash", clock=clock)
    state = BestState(version=0, config=(0, 0, 0, 0), performance=0.0,
                      estimated=False, updated_by="init", updated_at=0.0)
    publish_initial(plain, state)
    committed = {serialize_best(state)}
    rng = random.Random(20240817)
    current = state
    failures = 0

    for trial in range(1000):
        clock.sleep(120.0)  # age any leftover lock well past stale_after
        index = rng.randrange(4)
        value = rng.randrange(2)
        candidate = BestState(
            version=current.version + 1,
            config=current.config[:index] + (value,) + current.config[index + 1 :],
            performance=current.performance + rng.random(),
            estimated=False,
            updated_by=f"t{trial}",
            updated_at=clock.now(),
        )
        wrapped = JobDirectory(
            backend=CrashInjectionBackend(FsBackend(path), rng.randrange(0, 12)),
            clock=clock, job_id="crash",
        )
        try:
            change = ChangeProposal(index, value, candidate.performance - current.performance,
                                    candidate.updated_by)
            result = commit_update(wrapped, candidate, change=change)
            if isinstance(result, Committed):
                committed.add(serialize_best(candidate))
        except CrashInjected:
            committed.add(serialize_best(candidate))  # rename may have landed

        raw = plain.backend.read_text("best.dat")
        try:
            stored = parse_best(raw)
        except Exception:  # noqa: BLE001
            failures += 1
            break
        if serialize_best(stored) not in committed:
            failures += 1
            break
        current = stored

    ok = failures == 0 and current.version > 0
    finish(4, "crash-safe commits (1000 kill points)", ok, started, 30.0,
           f"final version {current.version}")


def _cas_contender(path, slot, rounds, barrier, queue):
    """Race ``rounds`` commits and put this slot's outcomes on ``queue``, or
    the error that ended it, after breaking the barrier for the others."""
    try:
        job = JobDirectory(backend=FsBackend(path), clock=WallClock(), job_id="cas")
        outcomes = []
        for r in range(rounds):
            barrier.wait()
            result = commit_update(
                job,
                BestState(version=r + 1, config=(r + 1,), performance=float(r + 1),
                          estimated=False, updated_by=f"p{slot}", updated_at=0.0),
                change=ChangeProposal(0, r + 1, 1.0, f"p{slot}"),
            )
            outcomes.append(isinstance(result, Committed))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the test
        barrier.abort()
        outcomes = f"contender {slot} failed:\n{traceback.format_exc()}"
    queue.put((slot, outcomes))


def test_05_cas_soundness_across_processes(tmp_path, monkeypatch):
    """8 real processes race commit_update on a shared directory for 200
    rounds; every round has exactly one winner."""
    started = time.monotonic()
    # Set before forking, so the contenders inherit it.
    monkeypatch.setattr(coordination, "LOCK_BACKOFF", 0.002)
    path = str(tmp_path / "casjob")
    job = JobDirectory.create(path, "cas")
    publish_initial(job, BestState(version=0, config=(0,), performance=0.0,
                                   estimated=False, updated_by="init", updated_at=0.0))
    rounds, procs = 200, 8
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(procs)
    queue = ctx.Queue()
    children = [ctx.Process(target=_cas_contender, args=(path, i, rounds, barrier, queue))
                for i in range(procs)]
    for child in children:
        child.start()
    results = {}
    for _ in range(procs):
        slot, outcomes = queue.get(timeout=120)
        results[slot] = outcomes
    for child in children:
        child.join(timeout=30)
    failed = [outcomes for outcomes in results.values() if not isinstance(outcomes, list)]
    assert not failed, failed

    violations = 0
    for r in range(rounds):
        winners = sum(results[slot][r] for slot in range(procs))
        if winners != 1:
            violations += 1
    final = read_best(job)
    versions = [line[0] for line in read_commit_log(job)]
    ok = violations == 0 and final.version == rounds and versions == list(range(1, rounds + 1))
    finish(5, "CAS soundness, 8 processes x 200 rounds", ok, started, 60.0,
           f"{violations} violations, final version {final.version}")


def test_06_hill_climb_reaches_brute_force_optimum(mem_job):
    """50 random restarts on n=8, L=2, order 1: every restart ends at a
    verified local optimum and at least one finds the global optimum."""
    started = time.monotonic()
    obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
    reached_global = 0
    all_local = True
    for seed in range(50):
        job = mem_job(job_id=f"restart{seed}")
        rng = random.Random(seed)
        config = tuple(rng.randrange(2) for _ in range(8))
        initialize(job, config, obj)
        signal_set(job)
        report = work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(stagnation_proposals=16),
                           rng=random.Random(1000 + seed))
        final = read_best(job)
        if report.exit_reason != "stagnation":
            all_local = False
        for index, value in neighbors(obj, final.config):
            neighbor = final.config[:index] + (value,) + final.config[index + 1 :]
            if obj.evaluate(neighbor) > final.performance:
                all_local = False
        if abs(final.performance - N8_L2_K1_OPTIMUM) <= 1e-12:
            reached_global += 1
    ok = all_local and reached_global >= 1
    finish(6, "restarts reach the exhaustive optimum", ok, started, 5.0,
           f"{reached_global}/50 restarts found {N8_L2_K1_OPTIMUM:.6f}")


def test_07_spectrum_normalization():
    """1000 random masks (n <= 64, L <= 8): efficiencies over all orders sum
    to 1 within 1e-12."""
    started = time.monotonic()
    rng = random.Random(7)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 65)
        level_count = rng.randrange(2, 9)
        mask = tuple(rng.randrange(level_count) for _ in range(n))
        worst = max(worst, abs(float(spectrum(mask, level_count).sum()) - 1.0))
    ok = worst <= 1e-12
    finish(7, "spectrum sums to one", ok, started, 2.0, f"worst deviation {worst:.2e}")


def test_08_scheduler_contract():
    """Scripted traces reproduce Start/Skip/kill decisions exactly at the
    stock settings; kill latency <= 1 virtual second; no double starts."""
    started = time.monotonic()
    nine, ten, two_pm = 9 * 3600.0, 10 * 3600.0, 14 * 3600.0
    obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)

    clock = VirtualClock(nine)
    from idleclimb.coordination import MemBackend

    job = JobDirectory(backend=MemBackend(), clock=clock, job_id="trace")
    initialize(job, (0,) * 8, obj)
    signal_set(job)
    probe = TraceProbe(idle_since=nine, activity_times=(two_pm,))
    timed = ClockedObjective(obj, clock, duration=30.0, checkpoint_fraction=1.0 / 30.0)

    begins = []

    class Recording:
        length, level_count, cost_hint = obj.length, obj.level_count, obj.cost_hint

        def evaluate(self, config, checkpoint=None):
            begins.append(clock.now())
            return timed.evaluate(config, checkpoint)

    commits = []
    report = run_daemon(
        WorkerConfig(jobs=(job,), worker_id="pc"),
        probe, clock,
        cancel=lambda: clock.now() >= nine + 7 * 3600.0,
        job_for=lambda j: (Recording(), StopCondition()),
        rng=random.Random(2),
        observer=lambda rec: commits.append(rec.time)
        if rec.outcome is Outcome.COMMITTED else None,
    )

    expected_skips = [(nine + 600.0 * i, SkipReason.NOT_IDLE) for i in range(6)]
    actual_head = [(t, d.reason) for t, d in report.decisions[:6]]
    starts = [t for t, d in report.decisions if d.start]

    checks = [
        actual_head == expected_skips,          # idle gate to the second
        starts[0] == ten,                       # first Start at 10:00 sharp
        report.kills == 1,                      # 14:00 activity killed the loop
        starts[1] == two_pm + 3600.0,           # restart after 60 idle minutes
        all(not (two_pm + 1.0 < b < two_pm + 3600.0) for b in begins),
        all(not (two_pm + 1.0 < c < two_pm + 3600.0) for c in commits),
        all(b - a >= 600.0 for a, b in zip(starts, starts[1:])),  # no double start
        report.starts == len(report.loop_reports),
    ]
    ok = all(checks)
    finish(8, "scheduler contract traces", ok, started, 1.0,
           f"checks {''.join('1' if c else '0' for c in checks)}")


def test_09_stop_latency():
    """Deleting the signal quiesces a 10-worker fleet within one
    evaluation-checkpoint interval; no commits after clear + interval."""
    started = time.monotonic()
    sim = SimConfig(t_eval=1.0, t_io=0.001, seed=4, stop=StopCondition())
    report = run_sim(homogeneous_fleet(10), default_setup(init_seed=4), sim,
                     clear_signal_at=7.3)
    interval = sim.t_eval * CHECKPOINT_FRACTION
    slack = 20 * sim.t_io  # a handful of directory operations on the way out
    quiesce_ok = all(
        s.quiesce_time is not None
        and s.quiesce_time - report.clear_time <= interval + slack
        for s in report.worker_stats
    )
    commit_ok = all(rec.time <= report.clear_time + interval
                    for rec in report.records if rec.outcome is Outcome.COMMITTED)
    worst = max(s.quiesce_time - report.clear_time for s in report.worker_stats)
    ok = quiesce_ok and commit_ok
    finish(9, "fleet-wide stop latency", ok, started, 5.0,
           f"worst quiesce lag {worst:.3f}s vs interval {interval:.3f}s")


def test_10_serial_mode_equivalence():
    """One worker, same seed: both merge modes produce identical
    version-by-version trajectories."""
    started = time.monotonic()
    trajectories = {}
    for mode in OptimizerMode:
        setup = JobSetup(
            objective=PhaseMaskObjective(length=8, level_count=2, target_order=1),
            mode=mode, init_config="random", init_seed=6,
        )
        report = run_sim(homogeneous_fleet(1), setup,
                         SimConfig(t_eval=1.0, t_io=0.001, seed=8,
                                   stop=StopCondition(max_total_evaluations=80)))
        trajectories[mode] = [
            (r.base_version, r.index, r.new_value, r.measured, r.outcome,
             r.committed_version, r.recorded_performance)
            for r in report.records
        ]
    ok = (trajectories[OptimizerMode.REPLACE_IF_BETTER]
          == trajectories[OptimizerMode.CHANGE_MERGE])
    finish(10, "serial mode equivalence", ok, started, 1.0,
           f"{len(trajectories[OptimizerMode.CHANGE_MERGE])} proposals compared")
