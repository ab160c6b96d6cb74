"""The benchmark's three workloads.

Each workload function makes its inputs from the seed, runs the program,
checks the results and returns a :class:`Pass` with what it measured.  The
program only receives the generated inputs: job directories prepared with
``idleclimb master init``/``start``, a worker configuration, and simulator
scenarios.  Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import logging
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
import traceback
import zlib
from dataclasses import dataclass, field

import numpy as np

from idleclimb import coordination as coord
from idleclimb import master, optimizer, simharness, worker
from idleclimb import objective as objmod
from idleclimb.clock import VirtualClock
from idleclimb.optimizer import OptimizerMode, StopCondition

import tracing


@dataclass
class Pass:
    """What one pass over a workload measured."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    work_ns: int = 0
    speed: float = 1.0
    speeds: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    report_ms: list[float] = field(default_factory=list)
    final_exact: list[float] = field(default_factory=list)
    final_drift: list[float] = field(default_factory=list)
    changes_log_bytes: list[int] = field(default_factory=list)
    peak_rss_kb: int = 0
    lock_breaks: int = 0
    jobs: int = 0
    sim_lines: dict[int, list[str]] = field(default_factory=dict)
    sim_efficiency: list[float] = field(default_factory=list)
    sim_quiesce: list[float] = field(default_factory=list)
    trace_parts: list[dict] = field(default_factory=list)

    def measure_speed(self, workdir: str) -> None:
        """Run the reference loop: before each cycle's set-up, and once more
        after the last cycle.  The set-up samples that follow are scaled by
        the machine speed it finds, each cycle of work by the mean of the
        speeds found before and after it."""
        self.speed = reference_speed(workdir)
        self.speeds.append(self.speed)

    def add_setup(self, seconds: float) -> None:
        self.raw_setup_s.append(seconds)
        self.setup_s.append(seconds * self.speed)

    def add_work(self, evaluations: int, ns: int) -> None:
        """One cycle's completed evaluations and the wall time they took."""
        self.work_ns += ns
        self.raw_rates.append(evaluations / (ns / 1e9))

    @property
    def evals_per_s(self) -> float:
        """Median over cycles of the scaled rate: a burst of machine noise
        spoils one cycle, not the run."""
        after = self.speeds[1:] + self.speeds[-1:]
        scaled = [rate * 2 / (before + later)
                  for rate, before, later in zip(self.raw_rates, self.speeds, after)]
        return statistics.median(scaled) if scaled else 0.0


class WarningCounter(logging.Handler):
    """Counts the protocol's failure warnings without printing them.

    Attaching it leaves every idleclimb logger at its default level, so
    ``work_loop``'s per-proposal ``log.info`` stays as cheap as in production.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.gave_up = 0
        self.lock_breaks = 0

    def emit(self, record):
        if "giving up on commit" in str(record.msg):
            self.gave_up += 1
        elif "breaking stale lock" in str(record.msg):
            self.lock_breaks += 1


@contextlib.contextmanager
def counting_warnings():
    handler = WarningCounter()
    logger = logging.getLogger("idleclimb")
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)


# Machine speed.  The CPU speed of the 2-vCPU VM this benchmark was written
# on drifts by tens of percent over minutes, and a run's figures follow it.
# A fixed reference loop of the benchmark's own runs before each cycle and
# after the last; the cycle's figures are scaled to a machine on which it
# runs REF_RATE iterations per second (README.md, "Scaling to machine speed").

REF_ITERS, REF_RATE = 3000, 10_000.0


def reference_speed(workdir: str) -> float:
    """Iterations per second of the reference loop, divided by REF_RATE.

    One iteration is the kind of work one worker_steady proposal does: three
    ``stat`` calls, a small file read and parsed, a tail read, an appended
    line, and a 64-element numpy sum.  It calls nothing of idleclimb, so a
    change to the program cannot move it.
    """
    path = os.path.join(workdir, "reference")
    os.makedirs(path)
    record, log = os.path.join(path, "record"), os.path.join(path, "log")
    rng = random.Random(0)
    with open(record, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{k} {rng.random()!r}" for k in range(12)))
    open(log, "w", encoding="utf-8").close()
    config = np.arange(64, dtype=np.float64)
    offset = 0
    start = time.perf_counter_ns()
    for i in range(REF_ITERS):
        for name in ("a", "b", "c"):
            os.path.exists(os.path.join(path, name))
        with open(record, encoding="utf-8") as fh:
            text = fh.read()
        values = [float(line.split()[1]) for line in text.splitlines()]
        zlib.crc32(text.encode())
        with open(log, "rb") as fh:
            fh.seek(offset)
            offset += len(fh.read())
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{i} {values[i % 12]!r} {' '.join(map(str, range(16)))}\n")
        amplitudes = np.exp(2j * np.pi * config / 4)
        float(abs(np.dot(amplitudes, amplitudes)))
    seconds = (time.perf_counter_ns() - start) / 1e9
    shutil.rmtree(path)
    return REF_ITERS / seconds / REF_RATE


def _now_ns() -> int:
    # CLOCK_MONOTONIC on Linux: comparable across the fleet's processes.
    return time.perf_counter_ns()


def _master(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = master.main(argv)
    if code != master.EXIT_OK:
        raise RuntimeError(f"idleclimb master {' '.join(argv)} exited {code}")
    return out.getvalue()


def prepare_job(path: str, job_id: str, *, n: int, levels: int, budget: int, seed: int) -> float:
    """``idleclimb master init`` + ``start``: the operator's set-up of one
    job, up to the moment a worker can start its first proposal."""
    start = time.perf_counter()
    _master(["init", path, "--n", str(n), "--levels", str(levels), "--target-order", "3",
             "--init-config", "random", "--seed", str(seed), "--stop-max-evals", str(budget),
             "--job-id", job_id])
    _master(["start", path])
    return time.perf_counter() - start


def time_reports(path: str, reps: int) -> list[float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        _master(["report", path])
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def check_job(job: coord.JobDirectory, objective, budget: int, p: Pass, label: str) -> None:
    """The correctness gate for one finished job."""
    try:
        state = coord.read_best(job)  # parses and verifies the checksum
    except coord.CoordinationError as exc:
        p.errors.append(f"{label}: best.dat unreadable: {exc}")
        return
    versions = [entry[0] for entry in coord.read_commit_log(job)]
    if versions != list(range(1, state.version + 1)):
        p.errors.append(f"{label}: commit lines {versions[:5]}... do not run 1..{state.version}")
    exact = objective.evaluate(state.config)
    if not state.estimated and exact != state.performance:
        p.errors.append(f"{label}: exact record {state.performance!r} re-evaluates to {exact!r}")
    tally = sum(t.evaluations for t in coord.read_fleet_tally(job).values())
    if tally < budget:
        p.errors.append(f"{label}: fleet tally {tally} below the budget {budget}")
    p.final_exact.append(exact)
    p.final_drift.append(abs(state.performance - exact))


def _daemon_config(path_list, worker_id: str, mode: OptimizerMode) -> worker.WorkerConfig:
    # Always idle, always inside the daily window: every tick may start work.
    return worker.WorkerConfig(
        jobs=tuple(path_list), worker_id=worker_id, mode=mode, poll_interval=1.0,
        idle_threshold=0.0, daily_start=0.0, daily_duration=86400.0,
    )


_PROBE = worker.TraceProbe(idle_since=0.0)


def _pick_job(cfg, tracer):
    """One scheduler tick, as the daemon makes it; returns the job to work on
    (wrapped for tracing when traced) or None when no signal is up."""
    tick = worker.scheduler_tick
    if tracer is not None:
        tracer.enter("worker.scheduler_tick")
        try:
            decision = tick(cfg, _PROBE, time.time())
        finally:
            tracer.exit("worker.scheduler_tick")
    else:
        decision = tick(cfg, _PROBE, time.time())
    if not decision.start:
        if decision.reason is not worker.SkipReason.NO_SIGNAL:
            raise RuntimeError(f"scheduler tick skipped: {decision.reason.value}")
        return None
    return decision.job if tracer is None else tracing.traced_job(decision.job, tracer)


def _run_loop(job, worker_id, mode, rng, tracer):
    """What the daemon does with a started job: objective and stop condition
    from the manifest, then the work loop."""
    manifest = coord.read_manifest(job)
    objective = objmod.from_manifest(manifest)
    stop = StopCondition.from_manifest(manifest)
    loop = optimizer.work_loop
    if tracer is not None:
        objective = tracing.TracingObjective(objective, tracer)
        loop = tracing.traced_work_loop(tracer, loop)
    return loop(job, worker_id, objective, mode, stop, rng=rng)


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def finish_job(job, objective, budget: int, p: Pass, label: str, reports: int) -> None:
    """Check a finished job, note its audit-trail size and time ``reports``
    runs of the operator's ``report`` command on it."""
    check_job(job, objective, budget, p, label)
    p.changes_log_bytes.append(len(job.backend.read_text(coord.CHANGES_FILE).encode()))
    if reports:
        p.report_ms.extend(time_reports(job.path, reports))


# Set-up samples are taken in every cycle of a run, between its chunks of
# work, so that their median spans the whole run: this machine's speed drifts
# by tens of percent within seconds.

# ---------------------------------------------------------------------------
# worker_steady


STEADY_N, STEADY_LEVELS, STEADY_BUDGET = 64, 4, 20_000
STEADY_SETUPS, STEADY_REPORTS = 4, 3


def worker_steady(seed: int, seconds: float, trace: bool, workdir: str, outdir: str) -> Pass:
    """One daemon-style worker on one local job at a time, replace_if_better,
    one fixed evaluation budget per cycle, until ``seconds`` of work."""
    p = Pass()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    with counting_warnings() as warnings:
        while p.jobs == 0 or p.work_ns < seconds * 1e9:
            # Spare set-ups of the same job only add set-up samples.
            paths = [os.path.join(workdir, f"steady{p.jobs:03d}-{k}")
                     for k in range(1 if trace else STEADY_SETUPS)]
            p.measure_speed(workdir)
            for path in paths:
                p.add_setup(prepare_job(path, f"steady{p.jobs}", n=STEADY_N,
                                        levels=STEADY_LEVELS, budget=STEADY_BUDGET,
                                        seed=seed * 1000 + p.jobs))
            cfg = _daemon_config(paths[:1], "steady", OptimizerMode.REPLACE_IF_BETTER)
            rng = random.Random(f"{seed}:steady:{p.jobs}")
            start = _now_ns()
            try:
                job = _pick_job(cfg, tracer)
                report = _run_loop(job, "steady", cfg.mode, rng, tracer)
            except Exception:
                p.failed += 1
                p.attempted += 1
                p.errors.append(traceback.format_exc())
                break
            p.add_work(report.evaluations, _now_ns() - start)
            p.attempted += report.evaluations + report.aborted
            p.jobs += 1
            job = coord.JobDirectory.open(paths[0])
            finish_job(job, objmod.from_manifest(coord.read_manifest(job)), STEADY_BUDGET, p,
                       paths[0], STEADY_REPORTS if trace else 0)
        p.measure_speed(workdir)
        p.failed += warnings.gave_up
        p.lock_breaks += warnings.lock_breaks
    p.peak_rss_kb = _rss_kb()
    if tracer is not None:
        p.trace_parts.append(tracer.summary())
        tracer.write_spans(os.path.join(outdir, "spans-worker_steady.jsonl"))
    return p


# ---------------------------------------------------------------------------
# fleet_climb


FLEET_N, FLEET_LEVELS, FLEET_BUDGET = 64, 8, 4 * 64
FLEET_WORKERS = 2
FLEET_BATCH = 10
START_TIMEOUT = 60.0
BATCH_TIMEOUT = 120.0


def _recv(conn, timeout: float):
    if not conn.poll(timeout):
        raise RuntimeError(f"no message from the other side within {timeout:.0f}s")
    return conn.recv()


def fleet_worker(worker_id, seed, trace, outdir, conn) -> None:
    """Body of one fleet worker process.  For each batch of job paths it
    receives: wait for the common start, then tick, work the job whose
    signal is up, and repeat until no signal is left in the batch.

    Talks to the parent over one pipe only, so no semaphore (and no
    multiprocessing resource-tracker process) is created."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    rng = random.Random(f"{seed}:{worker_id}")
    conn.send("ready")
    with counting_warnings() as warnings:
        while (paths := _recv(conn, START_TIMEOUT)) is not None:
            cfg = _daemon_config(paths, worker_id, OptimizerMode.CHANGE_MERGE)
            out = {"evaluations": 0, "attempted": 0, "failed": 0, "errors": []}
            conn.send("armed")
            _recv(conn, START_TIMEOUT)  # "go": both workers start the batch together
            out["start_ns"] = _now_ns()
            while True:
                try:
                    job = _pick_job(cfg, tracer)
                    if job is None:
                        break
                    report = _run_loop(job, worker_id, cfg.mode, rng, tracer)
                except Exception:
                    out["failed"] += 1
                    out["attempted"] += 1
                    out["errors"].append(traceback.format_exc())
                    break
                out["evaluations"] += report.evaluations
                out["attempted"] += report.evaluations + report.aborted
            out["end_ns"] = _now_ns()
            conn.send(out)
    final = {"rss_kb": _rss_kb(), "gave_up": warnings.gave_up,
             "lock_breaks": warnings.lock_breaks}
    if tracer is not None:
        final["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(outdir, f"spans-fleet_climb-{worker_id}.jsonl"))
    conn.send(final)


def fleet_climb(seed: int, seconds: float, trace: bool, workdir: str, outdir: str) -> Pass:
    """Two worker processes climb batches of fresh change_merge jobs, one
    job after another, until ``seconds`` of work."""
    p = Pass()
    objective = objmod.PhaseMaskObjective(length=FLEET_N, level_count=FLEET_LEVELS,
                                          target_order=3)
    ctx = multiprocessing.get_context("spawn")
    conns, procs = [], []
    for i in range(FLEET_WORKERS):
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(target=fleet_worker, args=(f"w{i}", seed, trace, outdir, child_end))
        proc.start()
        child_end.close()
        conns.append(parent_end)
        procs.append(proc)
    try:
        for conn in conns:
            _recv(conn, START_TIMEOUT)
        while p.jobs == 0 or p.work_ns < seconds * 1e9:
            paths = []
            p.measure_speed(workdir)
            for _ in range(FLEET_BATCH):
                path = os.path.join(workdir, f"fleet{p.jobs:04d}")
                p.add_setup(prepare_job(path, f"fleet{p.jobs}", n=FLEET_N,
                                        levels=FLEET_LEVELS, budget=FLEET_BUDGET,
                                        seed=seed * 1000 + p.jobs))
                paths.append(path)
                p.jobs += 1
            for conn in conns:
                conn.send(paths)
            for conn in conns:
                _recv(conn, START_TIMEOUT)
            for conn in conns:
                conn.send("go")
            outs = [_recv(conn, BATCH_TIMEOUT) for conn in conns]
            p.add_work(sum(o["evaluations"] for o in outs),
                       max(o["end_ns"] for o in outs) - min(o["start_ns"] for o in outs))
            for o in outs:
                p.attempted += o["attempted"]
                p.failed += o["failed"]
                p.errors.extend(o["errors"])
            for path in paths:
                finish_job(coord.JobDirectory.open(path), objective, FLEET_BUDGET, p, path,
                           1 if trace else 0)
            if p.errors:
                break
        p.measure_speed(workdir)
        for conn in conns:
            conn.send(None)
        for conn in conns:  # drain before join
            final = _recv(conn, START_TIMEOUT)
            p.failed += final["gave_up"]
            p.lock_breaks += final["lock_breaks"]
            p.peak_rss_kb = max(p.peak_rss_kb, final["rss_kb"])
            if "trace" in final:
                p.trace_parts.append(final["trace"])
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
                p.errors.append(f"fleet worker {proc.name} had to be terminated")
    return p


# ---------------------------------------------------------------------------
# sim_p50


SIM_WORKERS, SIM_N, SIM_LEVELS, SIM_BUDGET = 50, 16, 4, 2000
SIM_SETUPS, SIM_REPORTS = 2, 3


def _sim_inputs(sub_seed: int, budget: int, objective):
    setup = simharness.JobSetup(objective=objective, mode=OptimizerMode.CHANGE_MERGE,
                                init_config="random", init_seed=sub_seed)
    sim = simharness.SimConfig(t_eval=1.0, t_io=0.001, seed=sub_seed,
                               stop=StopCondition(max_total_evaluations=budget))
    return simharness.homogeneous_fleet(SIM_WORKERS), setup, sim


def _export_sim_job(store, path: str) -> coord.JobDirectory:
    """Write a finished simulated job out as a job directory, so the
    operator's ``report`` command can run on it."""
    job = coord.JobDirectory.create(path, "sim")
    coord.write_manifest(job, {
        "objective": "phase_mask", "n": str(SIM_N), "levels": str(SIM_LEVELS),
        "target_order": "3", "stop_max_evals": str(SIM_BUDGET),
    })
    for name in (coord.BEST_FILE, coord.CHANGES_FILE):
        job.backend.write_atomic(name, store.read_text(name))
    return job


def sim_p50(seed: int, seconds: float, trace: bool, workdir: str, outdir: str) -> Pass:
    """The deterministic simulator with 50 homogeneous workers, one sub-seed
    derived from the seed per cycle, until ``seconds`` of work; the first
    sub-seed then runs once more and must give the same report."""
    p = Pass()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    objective = objmod.PhaseMaskObjective(length=SIM_N, level_count=SIM_LEVELS, target_order=3)
    run_objective = objective if tracer is None else tracing.TracingObjective(objective, tracer)
    with counting_warnings() as warnings:
        while True:
            rerun = p.jobs > 0 and p.work_ns >= seconds * 1e9
            sub = seed * 1000 if rerun else seed * 1000 + p.jobs
            p.measure_speed(workdir)
            if not trace:
                # Set-up: a run with no evaluation budget creates the job,
                # starts every simulated worker and stops each at its first
                # loop top.
                for _ in range(SIM_SETUPS):
                    start = time.perf_counter()
                    simharness.run_sim(*_sim_inputs(sub, 0, objective))
                    p.add_setup(time.perf_counter() - start)
            store = coord.MemBackend("sim")
            backend = store if tracer is None else tracing.TracingBackend(store, tracer)
            if tracer is not None:
                tracer.current_job = f"sim{p.jobs}"
            start = _now_ns()
            try:
                report = simharness.run_sim(*_sim_inputs(sub, SIM_BUDGET, run_objective),
                                            backend=backend)
            except Exception:
                p.failed += 1
                p.attempted += 1
                p.errors.append(traceback.format_exc())
                break
            p.add_work(report.evaluations_total, _now_ns() - start)
            p.attempted += report.evaluations_total + report.aborted
            p.jobs += 1
            if rerun:
                if report.lines() != p.sim_lines[sub]:
                    p.errors.append(f"sim sub-seed {sub}: a second run gave another report")
                break
            p.sim_lines[sub] = report.lines()
            label = f"sim sub-seed {sub}"
            if report.incomplete or report.clear_time is None:
                p.errors.append(f"{label}: the fleet never stopped")
                continue
            p.sim_efficiency.append(report.efficiency)
            p.sim_quiesce.append(
                max(s.quiesce_time for s in report.worker_stats) - report.clear_time)
            job = coord.JobDirectory(backend=store, clock=VirtualClock(), job_id="sim")
            if report.final_version != coord.read_best(job).version:
                p.errors.append(f"{label}: report and best.dat disagree on the version")
            if trace:
                job = _export_sim_job(store, os.path.join(workdir, f"sim{p.jobs:03d}"))
                finish_job(job, objective, SIM_BUDGET, p, label, SIM_REPORTS)
            else:
                finish_job(job, objective, SIM_BUDGET, p, label, 0)
        p.measure_speed(workdir)
        p.failed += warnings.gave_up
        p.lock_breaks += warnings.lock_breaks
    p.peak_rss_kb = _rss_kb()
    if tracer is not None:
        tracer.current_job = None
        p.trace_parts.append(tracer.summary())
        tracer.write_spans(os.path.join(outdir, "spans-sim_p50.jsonl"))
    return p


WORKLOADS = {
    "worker_steady": worker_steady,
    "fleet_climb": fleet_climb,
    "sim_p50": sim_p50,
}
