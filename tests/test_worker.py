"""Scheduler contract: idle gating, daily window, kills, single instance."""

import gc
import hashlib
import math
import os
import random
import socket
import subprocess
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idleclimb.clock import VirtualClock
from idleclimb.coordination import (
    BEST_FILE,
    CHANGES_FILE,
    MANIFEST_FILE,
    FormatError,
    JobDirectory,
    MemBackend,
    FsBackend,
    WorkerTally,
    read_best,
    signal_clear,
    signal_set,
    write_manifest,
)
from idleclimb.objective import PhaseMaskObjective, initial_config
from idleclimb.optimizer import OptimizerMode, Outcome, StopCondition, initialize
from idleclimb.simharness import ClockedObjective
from idleclimb.worker import (
    RECENT_TICKS,
    SkipReason,
    TraceProbe,
    WorkerConfig,
    in_daily_window,
    main as worker_main,
    parse_time_of_day,
    parse_worker_config,
    run_daemon,
    scheduler_tick,
)

OBJ = PhaseMaskObjective(length=8, level_count=2, target_order=1)

NINE_AM = 9 * 3600.0
TEN_AM = 10 * 3600.0
NOON = 12 * 3600.0
TWO_PM = 14 * 3600.0


def make_job(clock, job_id="job", with_signal=True):
    job = JobDirectory(backend=MemBackend(), clock=clock, job_id=job_id)
    initialize(job, (0,) * 8, OBJ)
    if with_signal:
        signal_set(job)
    return job


def config_for(job, **overrides):
    defaults = dict(jobs=(job,), worker_id="pc1")
    defaults.update(overrides)
    return WorkerConfig(**defaults)


class TestSchedulerTick:
    def test_idle_long_enough_starts(self):
        clock = VirtualClock(TWO_PM)
        job = make_job(clock)
        decision = scheduler_tick(config_for(job), TraceProbe(idle_since=NOON), TWO_PM)
        assert decision.start and decision.job is job

    def test_ten_minutes_idle_is_not_enough(self):
        clock = VirtualClock(TWO_PM)
        job = make_job(clock)
        probe = TraceProbe(idle_since=TWO_PM - 600.0)
        decision = scheduler_tick(config_for(job), probe, TWO_PM)
        assert not decision.start and decision.reason is SkipReason.NOT_IDLE

    def test_outside_daily_window(self):
        # Default window is 12:00 for 23h50m: only [11:50, 12:00) is excluded.
        clock = VirtualClock(0.0)
        job = make_job(clock)
        eleven_fifty_five = 11 * 3600.0 + 55 * 60.0
        decision = scheduler_tick(config_for(job), TraceProbe(idle_since=0.0),
                                  eleven_fifty_five)
        assert decision.reason is SkipReason.OUTSIDE_WINDOW

    def test_second_job_scanned_when_first_has_no_signal(self):
        clock = VirtualClock(TWO_PM)
        first = make_job(clock, "first", with_signal=False)
        second = make_job(clock, "second", with_signal=True)
        config = config_for(first, jobs=(first, second))
        decision = scheduler_tick(config, TraceProbe(idle_since=NOON), TWO_PM)
        assert decision.start and decision.job is second

    def test_no_signal_anywhere(self):
        clock = VirtualClock(TWO_PM)
        job = make_job(clock, with_signal=False)
        decision = scheduler_tick(config_for(job), TraceProbe(idle_since=NOON), TWO_PM)
        assert decision.reason is SkipReason.NO_SIGNAL

    def test_share_error_maps_to_skip(self):
        clock = VirtualClock(TWO_PM)
        bad = JobDirectory(backend=FsBackend("/nonexistent/share/job"),
                           clock=clock, job_id="gone")
        decision = scheduler_tick(config_for(bad), TraceProbe(idle_since=NOON), TWO_PM)
        assert decision.reason is SkipReason.SHARE_ERROR


class TestDailyWindow:
    def test_wraparound_window(self):
        config = WorkerConfig(jobs=("x",), worker_id="w")
        assert in_daily_window(config, NOON)  # window opens at noon
        assert in_daily_window(config, 2 * 3600.0)  # 02:00 next morning
        assert not in_daily_window(config, 11 * 3600.0 + 51 * 60.0)  # 11:51

    @given(st.floats(min_value=0, max_value=86399.999))
    @settings(max_examples=80)
    def test_excluded_gap_is_exactly_the_complement(self, tod):
        config = WorkerConfig(jobs=("x",), worker_id="w")
        gap_start = 11 * 3600.0 + 50 * 60.0  # 42600
        in_gap = gap_start <= tod < gap_start + 600.0
        assert in_daily_window(config, tod) == (not in_gap)

    def test_full_day_window_always_open(self):
        config = WorkerConfig(jobs=("x",), worker_id="w", daily_start=0.0,
                              daily_duration=86400.0)
        for tod in (0.0, 43200.0, 86399.0):
            assert in_daily_window(config, tod)


class _BeginLog:
    """Objective wrapper noting when each evaluation begins."""

    def __init__(self, inner, clock):
        self._inner = inner
        self._clock = clock
        self.begins = []
        self.length = inner.length
        self.level_count = inner.level_count
        self.cost_hint = inner.cost_hint

    def evaluate(self, config, checkpoint=None):
        self.begins.append(self._clock.now())
        return self._inner.evaluate(config, checkpoint)


def run_trace_daemon(activity_times=(), idle_since=NINE_AM, start=NINE_AM,
                     horizon=NINE_AM + 12 * 3600.0, signal=True, eval_seconds=30.0,
                     stop=StopCondition(), poll_interval=600.0):
    clock = VirtualClock(start)
    job = make_job(clock, with_signal=signal)
    probe = TraceProbe(idle_since=idle_since, activity_times=tuple(activity_times))
    timed = ClockedObjective(OBJ, clock, duration=eval_seconds,
                             checkpoint_fraction=1.0 / eval_seconds)  # 1 s slices
    begins = _BeginLog(timed, clock)
    committed = []

    report = run_daemon(
        config_for(job, poll_interval=poll_interval),
        probe,
        clock,
        cancel=lambda: clock.now() >= horizon,
        job_for=lambda j: (begins, stop),
        rng=random.Random(11),
        observer=lambda rec: committed.append(rec) if rec.outcome is Outcome.COMMITTED else None,
    )
    return report, begins, committed, job, clock


class TestDaemonTraces:
    def test_first_start_when_idle_threshold_crosses(self):
        """Idle since 09:00, signal present: the 10:00 tick is the first with
        idle >= 60 min, so the first Start lands at exactly 10:00."""
        report, _, _, _, _ = run_trace_daemon(horizon=NINE_AM + 2 * 3600.0)
        starts = [t for t, d in report.decisions if d.start]
        assert starts and starts[0] == TEN_AM
        skipped = [d.reason for _, d in report.decisions if not d.start]
        assert set(skipped[:6]) == {SkipReason.NOT_IDLE}

    def test_activity_kills_loop_within_one_granule(self):
        report, begins, committed, job, _ = run_trace_daemon(
            activity_times=(TWO_PM,), horizon=NINE_AM + 14 * 3600.0
        )
        assert report.kills == 1
        # No evaluation begins and no commit lands in (14:00 + 1s, restart).
        starts = [t for t, d in report.decisions if d.start]
        restart = next(t for t in starts if t > TWO_PM)
        assert restart == TWO_PM + 3600.0  # idle again for 60 min at 15:00
        for begin in begins.begins:
            assert not (TWO_PM + 1.0 < begin < restart)
        for rec in committed:
            assert not (TWO_PM + 1.0 < rec.time < restart)

    def test_in_flight_evaluation_discarded_on_kill(self):
        report, _, committed, job, _ = run_trace_daemon(
            activity_times=(TEN_AM + 15.0,),  # mid-first-evaluation
            horizon=TEN_AM + 120.0,
        )
        assert report.kills == 1
        aborted = sum(lr.aborted for lr in report.loop_reports)
        assert aborted >= 1
        last_commit_before = [rec for rec in committed if rec.time <= TEN_AM + 16.0]
        assert read_best(job).version == len(last_commit_before)

    def test_signal_never_set_means_zero_starts(self):
        span = 4 * 3600.0
        report, _, _, _, _ = run_trace_daemon(signal=False, horizon=NINE_AM + span)
        assert report.starts == 0
        assert report.ticks == int(span // 600)
        # Idle threshold crosses at 10:00; the 11:50 tick falls in the daily
        # window gap; every other tick sees no signal.
        gap_start = 11 * 3600.0 + 50 * 60.0
        for t, d in report.decisions:
            if t < TEN_AM:
                expected = SkipReason.NOT_IDLE
            elif gap_start <= t % 86400.0 < gap_start + 600.0:
                expected = SkipReason.OUTSIDE_WINDOW
            else:
                expected = SkipReason.NO_SIGNAL
            assert d.reason is expected

    def test_no_double_starts_and_loops_match(self):
        report, _, _, _, _ = run_trace_daemon(
            activity_times=(TEN_AM + 95.0, TWO_PM, TWO_PM + 7200.0),
            horizon=NINE_AM + 11 * 3600.0,
        )
        assert report.starts == len(report.loop_reports)
        assert report.kills + report.completed_loops == len(report.loop_reports)
        # Ticks never fire while a loop runs, so consecutive Start decisions
        # must be separated by at least one full poll interval.
        starts = [t for t, d in report.decisions if d.start]
        assert all(b - a >= 600.0 for a, b in zip(starts, starts[1:]))

    def test_stop_condition_clears_signal_and_completes(self):
        report, _, _, job, _ = run_trace_daemon(
            stop=StopCondition(max_total_evaluations=3),
            horizon=NINE_AM + 6 * 3600.0,
        )
        assert report.completed_loops == 1
        assert report.loop_reports[0].exit_reason == "stop_condition"
        from idleclimb.coordination import signal_exists

        assert not signal_exists(job)

    def test_bad_manifest_skips_the_job(self, caplog):
        clock = VirtualClock(TWO_PM)
        job = make_job(clock)
        write_manifest(job, {"objective": "nope"})
        with caplog.at_level("WARNING"):
            report = run_daemon(config_for(job), TraceProbe(idle_since=NOON), clock,
                                cancel=lambda: clock.now() >= TWO_PM + 1800.0)
        assert report.starts == 3 and report.loop_reports == []
        assert report.starts == report.completed_loops + report.kills + report.failed_loops
        assert (report.completed_loops, report.kills, report.failed_loops) == (0, 0, 3)
        assert read_best(job).version == 0
        assert "unknown objective" in caplog.text


def test_a_manifest_that_disagrees_with_best_dat_fails_the_loop(caplog):
    clock = VirtualClock(TWO_PM)
    job = make_job(clock)  # best.dat holds 8 elements
    write_manifest(job, {"objective": "phase_mask", "n": "16", "levels": "2",
                         "target_order": "1"})
    with caplog.at_level("WARNING"):
        report = run_daemon(config_for(job), TraceProbe(idle_since=NOON), clock,
                            cancel=lambda: clock.now() >= TWO_PM + 1800.0)
    assert report.failed_loops >= 1 and report.loop_reports == []
    assert read_best(job).version == 0
    assert "config has 8 elements, expected 16" in caplog.text


def test_a_reinit_during_an_evaluation_fails_the_loop_not_the_daemon(caplog):
    """The operator stops a 16-element job, re-initializes it with 8
    elements and starts it again while a proposal made at version 1
    evaluates.  That proposal is stale; the loop's next one fails on the
    new record, and the next tick's loop runs the new job to its stop."""
    clock = VirtualClock(TWO_PM)
    obj16 = PhaseMaskObjective(length=16, level_count=4, target_order=3)
    obj8 = PhaseMaskObjective(length=8, level_count=4, target_order=3)
    job = JobDirectory(backend=MemBackend(), clock=clock, job_id="job")
    initialize(job, (0,) * 16, obj16)
    signal_set(job)
    records = []

    class Reinit:
        """obj16, except that the first change to elements 8-15 evaluated
        against a committed version re-initializes the job and measures
        better than any record."""

        length, level_count, cost_hint = obj16.length, obj16.level_count, obj16.cost_hint

        def evaluate(self, config, checkpoint=None):
            value = obj16.evaluate(config, checkpoint)
            best = read_best(job)
            if best.version >= 1 and len(best.config) == 16 and config[8:] != best.config[8:]:
                signal_clear(job)
                initialize(job, (0,) * 8, obj8, force=True)
                signal_set(job)
                return 2.0
            return value

    jobs = iter([(Reinit(), StopCondition()), (obj8, StopCondition(max_total_evaluations=50))])
    with caplog.at_level("WARNING"):
        report = run_daemon(config_for(job), TraceProbe(idle_since=NOON), clock,
                            cancel=lambda: clock.now() >= TWO_PM + 1800.0,
                            job_for=lambda j: next(jobs), rng=random.Random(3),
                            observer=records.append)
    assert (report.failed_loops, report.completed_loops, report.kills) == (1, 1, 0)
    assert report.loop_reports[0].exit_reason == "stop_condition"
    assert report.loop_reports[0].evaluations == 50
    assert "config has 8 elements, expected 16" in caplog.text
    stale = [r for r in records if r.measured == 2.0]
    assert len(stale) == 1 and stale[0].outcome is Outcome.REJECTED_STALE
    assert len(read_best(job).config) == 8


# The daemon, bit for bit: sha256 over each decision's time, start and skip
# reason; each loop report's counts, aborted and exit reason; the report's
# counters; the proposal records; best.dat and changes.log.
DAEMON_PINS = {
    "kill_trace": "6a45ae80678cd12ae885824a6f8547d422431341739bf2d1581c846eaf5499ef",
    "path_job": "f2e8489abd15ab1ffdcf326893fb6a8bbbb9a53e26ac92962a2ab43e640ab328",
    "bad_manifest": "e93c3ebf5237c154acddecda0f71613b7e320986faf9820e293fd4965032f210",
}


def daemon_digest(report, records, backend):
    decisions = [(t, d.start, d.reason and d.reason.value) for t, d in report.decisions]
    loops = [(tuple(loop.counts), loop.aborted, loop.exit_reason)
             for loop in report.loop_reports]
    counters = (report.ticks, report.starts, report.kills, report.completed_loops,
                report.failed_loops)
    digest = hashlib.sha256()
    for part in (repr(decisions), repr(loops), repr(counters), repr(records),
                 backend.read_text(BEST_FILE), backend.read_tail(CHANGES_FILE, 0)[0]):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def path_job(tmp_path, clock, budget):
    """A 16-element job in a real directory, with its stop in the manifest."""
    job = JobDirectory.create(str(tmp_path / "job"), "pin", clock=clock)
    obj = PhaseMaskObjective(length=16, level_count=4, target_order=3)
    initialize(job, initial_config(obj, "random", 3), obj)
    stop = StopCondition(max_total_evaluations=budget)
    write_manifest(job, {**obj.manifest_params(), **stop.manifest_params()})
    signal_set(job)
    return job


class TestDaemonPins:
    def test_a_kill_trace_through_the_hook(self):
        """Two kills by user activity, then a loop that ends by its stop."""
        clock = VirtualClock(NINE_AM)
        job = make_job(clock)
        probe = TraceProbe(idle_since=NINE_AM, activity_times=(TEN_AM + 95.0, TWO_PM))
        timed = ClockedObjective(OBJ, clock, duration=30.0, checkpoint_fraction=1.0 / 30.0)
        records = []
        report = run_daemon(config_for(job), probe, clock,
                            cancel=lambda: clock.now() >= NINE_AM + 12 * 3600.0,
                            job_for=lambda j: (timed, StopCondition(max_total_evaluations=400)),
                            rng=random.Random(11), observer=records.append)
        assert report.kills == 2 and report.completed_loops == 1
        assert report.loop_reports[-1].exit_reason == "stop_condition"
        assert daemon_digest(report, records, job.backend) == DAEMON_PINS["kill_trace"]

    def test_a_path_job_through_the_manifest(self, tmp_path):
        clock = VirtualClock(TWO_PM)
        job = path_job(tmp_path, clock, 300)
        records = []
        report = run_daemon(config_for(job, jobs=(job.path,)), TraceProbe(idle_since=NOON),
                            clock, cancel=lambda: clock.now() >= TWO_PM + 1800.0,
                            rng=random.Random(7), observer=records.append)
        assert report.completed_loops == 1 and report.loop_reports[0].evaluations == 300
        assert daemon_digest(report, records, job.backend) == DAEMON_PINS["path_job"]

    def test_a_bad_manifest(self):
        clock = VirtualClock(TWO_PM)
        job = make_job(clock)
        write_manifest(job, {"objective": "nope"})
        records = []
        report = run_daemon(config_for(job), TraceProbe(idle_since=NOON), clock,
                            cancel=lambda: clock.now() >= TWO_PM + 12 * 3600.0,
                            rng=random.Random(7), observer=records.append)
        assert (report.ticks, report.failed_loops) == (72, 72) and records == []
        assert daemon_digest(report, records, job.backend) == DAEMON_PINS["bad_manifest"]


def test_a_month_of_ticks_keeps_what_a_day_of_ticks_keeps(tmp_path):
    """30 days at the stock poll interval on a path job whose signal is up
    at every tick: the user comes back 1 s into every loop.  The memory the
    daemon holds on day 30 is what it held on day 2; a report holding every
    decision, each with the job handle its tick opened, grew 5.5 MB."""
    days = 30
    clock = VirtualClock(0.0)
    job = path_job(tmp_path, clock, 10**9)
    obj = PhaseMaskObjective(length=16, level_count=4, target_order=3)
    timed = ClockedObjective(obj, clock, duration=2.0, checkpoint_fraction=0.5)
    probe = TraceProbe(activity_times=tuple(600.0 * i + 1.0 for i in range(days * 144)))
    held = {}

    def cancel():
        now = clock.now()
        for day in (2, days):
            if now >= day * 86400.0 and day not in held:
                gc.collect()
                held[day] = tracemalloc.get_traced_memory()[0]
        return now >= days * 86400.0

    tracemalloc.start()
    try:
        report = run_daemon(config_for(job, jobs=(job.path,), idle_threshold=0.0), probe,
                            clock, cancel, job_for=lambda j: (timed, StopCondition()),
                            rng=random.Random(3))
    finally:
        tracemalloc.stop()
    # One tick a day falls in the daily window's 10-minute gap.
    assert (report.ticks, report.starts, report.kills) == (4320, 4290, 4290)
    assert report.aborted == 4290 and report.counts == WorkerTally()
    assert len(report.decisions) == len(report.loop_reports) == RECENT_TICKS
    assert report.decisions[-1][0] == (4320 - 1) * 600.0
    assert held[days] - held[2] < 16 * 1024


def test_a_loop_start_on_a_path_job_reads_the_manifest_twice(tmp_path, monkeypatch):
    """Once when the tick opens the job, once for its objective and stop."""
    clock = VirtualClock(TWO_PM)
    job = path_job(tmp_path, clock, 20)
    reads = []
    read_text = FsBackend.read_text

    def counting_read_text(self, name):
        reads.append(name)
        return read_text(self, name)

    monkeypatch.setattr(FsBackend, "read_text", counting_read_text)
    report = run_daemon(config_for(job, jobs=(job.path,)), TraceProbe(idle_since=NOON),
                        clock, cancel=lambda: clock.now() > TWO_PM)
    assert (report.ticks, report.starts, report.completed_loops) == (1, 1, 1)
    assert reads.count(MANIFEST_FILE) == 2


class CountingProbe:
    """A scripted probe that counts its calls."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def idle_duration(self, now):
        self.calls += 1
        return self._inner.idle_duration(now)


class TestIdleProbeCalls:
    def test_a_job_reads_the_probe_twice_per_evaluation(self):
        """One read per scheduler tick, then per evaluation one at its loop
        top and one after it, plus the final loop top that stops the job."""
        clock = VirtualClock(TWO_PM)
        job = make_job(clock)
        probe = CountingProbe(TraceProbe(idle_since=NOON))
        n = 40
        report = run_daemon(config_for(job), probe, clock,
                            cancel=lambda: clock.now() >= TWO_PM + 1800.0,
                            job_for=lambda j: (OBJ, StopCondition(max_total_evaluations=n)),
                            rng=random.Random(5))
        assert report.completed_loops == 1
        assert report.loop_reports[0].evaluations == n
        assert probe.calls == report.ticks + 2 * n + 1

    def test_a_missing_xprintidle_is_looked_for_once(self, monkeypatch, caplog):
        from idleclimb import worker

        spawns = []

        def run(argv, **kwargs):
            spawns.append(argv)
            raise FileNotFoundError(argv[0])

        monkeypatch.setattr(worker.subprocess, "run", run)
        probe = worker.SystemIdleProbe()
        origin = probe._origin
        with caplog.at_level("WARNING"):
            idle = [probe.idle_duration(origin + k) for k in range(50)]
        assert len(spawns) <= 1
        assert idle == [float(k) for k in range(50)]
        assert caplog.text.count("no system idle source") == 1

    def test_an_xprintidle_reading_serves_the_next_second(self, monkeypatch):
        from idleclimb import worker

        spawns = []

        def run(argv, **kwargs):
            spawns.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout="2500\n", stderr="")

        monkeypatch.setattr(worker.subprocess, "run", run)
        probe = worker.SystemIdleProbe()
        t0 = 1000.0
        times = [t0 + k / 10 for k in range(10)]
        assert [probe.idle_duration(t) for t in times] == [2.5 + (t - t0) for t in times]
        assert len(spawns) == 1
        assert probe.idle_duration(t0 + 1.0) == 2.5
        assert len(spawns) == 2
        assert probe.idle_duration(t0) == 2.5  # a clock stepped back reads again
        assert len(spawns) == 3

    def test_a_failing_xprintidle_is_retried_after_a_second(self, monkeypatch, caplog):
        from idleclimb import worker

        spawns = []

        def run(argv, **kwargs):
            spawns.append(argv)
            return subprocess.CompletedProcess(argv, 1, stdout="", stderr="no display")

        monkeypatch.setattr(worker.subprocess, "run", run)
        probe = worker.SystemIdleProbe()
        origin = probe._origin
        with caplog.at_level("WARNING"):
            idle = [probe.idle_duration(origin + k / 10) for k in range(10)]
        assert len(spawns) == 1
        assert idle == [origin + k / 10 - origin for k in range(10)]
        assert caplog.text.count("no system idle source") == 1
        probe.idle_duration(origin + 1.0)
        assert len(spawns) == 2

    def test_an_xprintidle_reading_that_is_not_a_number_falls_back(self, monkeypatch, caplog):
        from idleclimb import worker

        def run(argv, **kwargs):
            return subprocess.CompletedProcess(argv, 0, stdout="idle\n", stderr="")

        monkeypatch.setattr(worker.subprocess, "run", run)
        probe = worker.SystemIdleProbe()
        origin = probe._origin
        with caplog.at_level("WARNING"):
            idle = [probe.idle_duration(origin + k) for k in range(3)]
        assert idle == [0.0, 1.0, 2.0]
        assert caplog.text.count("no system idle source") == 1


class TestConfigParsing:
    def test_round_trip_with_defaults(self):
        config = parse_worker_config(
            "job=/tmp/a\njob=/tmp/b\nworker_id=pc9\nmode=change_merge\n"
        )
        assert config.jobs == ("/tmp/a", "/tmp/b")
        assert config.worker_id == "pc9"
        assert config.mode is OptimizerMode.CHANGE_MERGE
        assert config.poll_interval == 600.0
        assert config.idle_threshold == 3600.0
        assert config.daily_start == 43200.0
        assert config.daily_duration == 85800.0

    def test_daily_start_clock_format(self):
        assert parse_time_of_day("12:00") == 43200.0
        assert parse_time_of_day("09:30") == 34200.0
        assert parse_time_of_day("3600") == 3600.0
        assert parse_time_of_day("23:59") == 86340.0
        for text in ("24:00", "9:5", "+9:05", "09:05:00"):
            with pytest.raises(ValueError, match="HH:MM"):
                parse_time_of_day(text)

    def test_the_default_worker_id_needs_no_os_uname(self, monkeypatch):
        # As on Windows.  Deleted only here, since importing numpy calls it.
        monkeypatch.delattr(os, "uname", raising=False)
        config = parse_worker_config("job=/tmp/a\n")
        assert config.worker_id == f"{socket.gethostname()}:{os.getpid()}"

    def test_missing_jobs_rejected(self):
        with pytest.raises(ValueError):
            parse_worker_config("worker_id=x\n")

    @pytest.mark.parametrize("key", ["poll_intervall", "retry_window", "probe_granule"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(FormatError, match=f"unknown key '{key}'"):
            parse_worker_config(f"job=/x\n{key}=5\n")

    @pytest.mark.parametrize("command", [["run"], ["tick", "--now", "50400", "--idle", "7200"]])
    @pytest.mark.parametrize("line, named", [
        ("poll_intervall=5", "'poll_intervall'"),
        # Tally and commit lines are split at whitespace: nothing would parse
        # the lines this id writes, so the fleet tally would never see it.
        ("worker_id=desk 07", "'desk 07'"),
        # NaN fails every comparison: a NaN poll interval ticked without
        # sleeping, and a NaN window never opened, with no error either way.
        ("poll_interval=nan", "poll_interval"),
        ("idle_threshold=nan", "idle_threshold"),
        ("daily_start=nan", "daily_start"),
        # Read as 13:15, 11:55 and 00:30 before clock times were range-checked.
        ("daily_start=12:75", "daily_start"),
        ("daily_start=12:-5", "daily_start"),
        ("daily_start=-0:30", "daily_start"),
    ])
    def test_cli_config_error_exits_2(self, tmp_path, capsys, monkeypatch, command, line, named):
        from idleclimb import worker

        def no_daemon(*args, **kwargs):
            pytest.fail(f"the daemon started on a configuration with {line!r}")

        monkeypatch.setattr(worker, "run_daemon", no_daemon)
        config = tmp_path / "worker.conf"
        config.write_text(f"job=/x\n{line}\n")
        assert worker_main([command[0], "--config", str(config), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error=config ") and len(captured.err.splitlines()) == 1
        assert named in captured.err

    @pytest.mark.parametrize("worker_id", ["desk 07", "desk\t07", "desk07\n", "", " "])
    def test_worker_id_must_be_one_word(self, worker_id):
        with pytest.raises(ValueError, match="whitespace"):
            WorkerConfig(jobs=("x",), worker_id=worker_id)

    @pytest.mark.parametrize("kwargs", [
        {"idle_since": math.nan}, {"activity_times": (math.nan,)},
        {"activity_times": (1.0, math.nan)}, {"activity_times": (math.nan, 1.0)},
    ])
    def test_a_nan_trace_time_is_rejected(self, kwargs):
        with pytest.raises(ValueError, match="NaN"):
            TraceProbe(**kwargs)

    def test_decreasing_activity_times_are_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceProbe(activity_times=(2.0, 1.0))

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_worker_config("nonsense\n")

    @pytest.mark.parametrize("field, value", [
        ("poll_interval", math.nan), ("poll_interval", math.inf), ("poll_interval", -1.0),
        ("idle_threshold", math.nan), ("idle_threshold", math.inf), ("idle_threshold", -1.0),
        ("daily_start", math.nan), ("daily_start", -1.0), ("daily_start", 86400.0),
        ("daily_duration", math.nan), ("daily_duration", 0.0),
    ])
    def test_a_number_out_of_range_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkerConfig(jobs=("x",), worker_id="w", **{field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerConfig(jobs=("x",), worker_id="w", poll_interval=0)
        with pytest.raises(ValueError):
            WorkerConfig(jobs=("x",), worker_id="w", daily_duration=90000)
        with pytest.raises(ValueError):
            WorkerConfig(jobs=(), worker_id="w")


class TestCli:
    def test_tick_dry_run(self, tmp_path, capsys):
        from idleclimb import master, worker

        jobdir = tmp_path / "job"
        assert master.main(["init", str(jobdir), "--n", "8"]) == 0
        assert master.main(["start", str(jobdir)]) == 0
        config = tmp_path / "worker.conf"
        config.write_text(f"job={jobdir}\nworker_id=pc1\n")
        capsys.readouterr()
        assert worker.main(["tick", "--config", str(config), "--now", "50400",
                            "--idle", "7200"]) == 0
        out = capsys.readouterr().out
        assert "decision=start" in out

    def test_tick_not_idle(self, tmp_path, capsys):
        from idleclimb import master, worker

        jobdir = tmp_path / "job"
        master.main(["init", str(jobdir)])
        master.main(["start", str(jobdir)])
        config = tmp_path / "worker.conf"
        config.write_text(f"job={jobdir}\n")
        capsys.readouterr()
        assert worker.main(["tick", "--config", str(config), "--now", "50400",
                            "--idle", "60"]) == 0
        assert "reason=not_idle" in capsys.readouterr().out

    def test_tick_reads_the_time_of_day_in_local_time(self, tmp_path, capsys, monkeypatch):
        """03:00 UTC is noon in Tokyo (UTC+9 all year): inside a 09:00-17:00
        window there, as the daemon's wall clock reads it, but not in UTC."""
        from idleclimb import master, worker

        jobdir = tmp_path / "job"
        master.main(["init", str(jobdir)])
        master.main(["start", str(jobdir)])
        config = tmp_path / "worker.conf"
        config.write_text(f"job={jobdir}\ndaily_start=09:00\ndaily_duration=28800\n")
        capsys.readouterr()
        monkeypatch.setenv("TZ", "JST-9")
        try:
            time.tzset()
            assert worker.main(["tick", "--config", str(config), "--now", "10800",
                                "--idle", "7200"]) == 0
        finally:
            monkeypatch.undo()
            time.tzset()
        assert capsys.readouterr().out.startswith("decision=start")

    @pytest.mark.parametrize("times, named", [
        # time.localtime raised on these, and the tick crashed.
        (["--now", "nan"], "--now nan"),
        (["--now", "inf"], "--now inf"),
        (["--now", "1e300"], "--now 1e+300"),
        # A NaN idle time read as "not idle", and a negative one as 0.
        (["--now", "50400", "--idle", "nan"], "--idle nan"),
        (["--now", "50400", "--idle", "-5"], "--idle -5.0"),
        (["--now", "50400", "--idle", "inf"], "--idle inf"),
    ])
    def test_tick_rejects_a_time_it_cannot_use(self, tmp_path, capsys, times, named):
        from idleclimb import worker

        config = tmp_path / "worker.conf"
        config.write_text("job=/x\n")
        assert worker.main(["tick", "--config", str(config), *times]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error=tick ") and len(captured.err.splitlines()) == 1
        assert named in captured.err

    def test_config_error_exit_code(self, tmp_path):
        from idleclimb import worker

        missing = tmp_path / "nope.conf"
        assert worker.main(["tick", "--config", str(missing), "--now", "0"]) == 2
