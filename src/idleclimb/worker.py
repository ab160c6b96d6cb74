"""Portable idle-time worker daemon.

Emulates the scheduling contract of a desktop task scheduler: wake every
``poll_interval`` seconds, start the optimization loop only when the machine
has been user-idle past a threshold and the current time falls inside the
configured daily window, and cancel the loop as soon as the user comes back.
A daemon never runs two loops at once because it runs them one at a time:
a tick that starts a loop returns only when the loop ends.  Cancellation is
cooperative: the loop checks between protocol steps and at evaluation
checkpoints, and the file protocol tolerates genuinely hard kills anyway.

The configuration file is ``key=value`` lines with repeated ``job=`` lines,
read by :func:`idleclimb.coordination.parse_fields`; an unknown key is an
error, so a misspelt one cannot fall back to a default unnoticed.
"""

from __future__ import annotations

import argparse
import bisect
import logging
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol, Sequence

from .cli import parse_command
from .clock import Clock, SECONDS_PER_DAY, WallClock
from .coordination import (
    CoordinationError,
    JobDirectory,
    WorkerTally,
    convert_fields,
    parse_fields,
    read_manifest,
    reject_unknown,
    signal_exists,
)
from .objective import Objective
from .optimizer import LoopReport, OptimizerMode, StopCondition, job_from_manifest, work_loop

log = logging.getLogger(__name__)


class SkipReason(Enum):
    OUTSIDE_WINDOW = "outside_window"
    NOT_IDLE = "not_idle"
    NO_SIGNAL = "no_signal"
    SHARE_ERROR = "share_error"


@dataclass(frozen=True)
class TickDecision:
    """A tick's decision: Start the loop on ``job``, or Skip for ``reason``."""

    job: JobDirectory | None = None
    reason: SkipReason | None = None

    @property
    def start(self) -> bool:
        return self.job is not None


class IdleProbe(Protocol):
    def idle_duration(self, now: float) -> float:
        """Seconds since the last user activity, as of ``now``."""
        ...


@dataclass(frozen=True)
class TraceProbe:
    """Scripted activity trace for tests and simulation.

    The machine counts as idle from ``idle_since`` onward, interrupted by
    each timestamp in ``activity_times`` (sorted, non-decreasing).
    """

    activity_times: tuple[float, ...] = ()
    idle_since: float = 0.0

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        if not all(-math.inf <= t <= math.inf for t in (self.idle_since, *self.activity_times)):
            raise ValueError("idle_since and activity timestamps must not be NaN")
        if any(b < a for a, b in zip(self.activity_times, self.activity_times[1:])):
            raise ValueError("activity timestamps must be non-decreasing")

    def idle_duration(self, now: float) -> float:
        i = bisect.bisect_right(self.activity_times, now)
        last = self.activity_times[i - 1] if i > 0 else self.idle_since
        return max(0.0, now - last)


# Seconds of ``now`` for which one xprintidle run answers every idle check
# (its reading plus the time since); a failed run also holds this long.
IDLE_READING_REUSE = 1.0


class SystemIdleProbe:
    """Best-effort real idle time.  Uses xprintidle when present; otherwise
    reports time since this probe was created, which effectively treats the
    machine as always idle.  A missing xprintidle is not looked for again.

    One run serves the checks of the next ``IDLE_READING_REUSE`` seconds: a
    successful reading is returned plus the time elapsed since it was taken,
    and after a failed run the fallback answers until then.  A ``now`` earlier
    than the last run runs xprintidle again.  Correctness-critical paths never
    rely on this; tests and the simulator use scripted traces."""

    def __init__(self):
        self._origin = time.time()
        self._warned = False
        self._missing = False
        self._read_at = -math.inf  # ``now`` of the last xprintidle run
        self._reading: float | None = None  # its idle seconds; None if it failed

    def idle_duration(self, now: float) -> float:
        if not self._missing and not 0.0 <= now - self._read_at < IDLE_READING_REUSE:
            self._read_at, self._reading = now, self._xprintidle()
        if self._reading is not None:
            return self._reading + (now - self._read_at)
        if not self._warned:
            log.warning("no system idle source available; assuming idle since startup")
            self._warned = True
        return now - self._origin

    def _xprintidle(self) -> float | None:
        try:
            out = subprocess.run(["xprintidle"], capture_output=True, text=True, timeout=2.0)
            if out.returncode == 0:
                return float(out.stdout.strip()) / 1000.0
        except FileNotFoundError:
            self._missing = True
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        return None


@dataclass(frozen=True)
class WorkerConfig:
    jobs: tuple  # JobDirectory handles or directory paths, in scan order
    worker_id: str
    mode: OptimizerMode = OptimizerMode.REPLACE_IF_BETTER
    poll_interval: float = 600.0
    idle_threshold: float = 3600.0
    daily_start: float = 43200.0  # seconds after midnight (12:00)
    daily_duration: float = 85800.0  # 23 h 50 min

    def __post_init__(self):
        if self.worker_id.split() != [self.worker_id]:  # as tally and commit lines split it
            raise ValueError(f"worker_id {self.worker_id!r} must be one word with no whitespace")
        # Each test is written so that NaN fails it: a NaN poll interval
        # would tick without sleeping, and a NaN window would never open.
        if not 0 < self.poll_interval < math.inf:
            raise ValueError("poll_interval must be positive and finite")
        if not 0 <= self.idle_threshold < math.inf:
            raise ValueError("idle_threshold must be non-negative and finite")
        if not 0 <= self.daily_start < SECONDS_PER_DAY:
            raise ValueError("daily_start must be in [0, 86400)")
        if not 0 < self.daily_duration <= SECONDS_PER_DAY:
            raise ValueError("daily_duration must be in (0, 86400]")
        if not self.jobs:
            raise ValueError("at least one job directory is required")


def in_daily_window(config: WorkerConfig, time_of_day: float) -> bool:
    start = config.daily_start
    end = start + config.daily_duration
    if end <= SECONDS_PER_DAY:
        return start <= time_of_day < end
    return time_of_day >= start or time_of_day < end - SECONDS_PER_DAY


def scheduler_tick(
    config: WorkerConfig,
    probe: IdleProbe,
    now: float,
    *,
    clock: Clock | None = None,
) -> TickDecision:
    """One scheduling decision.

    Starts the first job in scan order whose signal is present, provided the
    time is inside the daily window and the machine has been idle long
    enough, by ``clock``'s time of day (UTC days without one).  Share errors
    are a Skip, not a failure, mirroring a launcher script that silently
    exits when the network share is gone.
    """
    tod = clock.time_of_day(now) if clock is not None else now % SECONDS_PER_DAY
    if not in_daily_window(config, tod):
        return TickDecision(reason=SkipReason.OUTSIDE_WINDOW)
    if probe.idle_duration(now) < config.idle_threshold:
        return TickDecision(reason=SkipReason.NOT_IDLE)
    any_error = False
    for entry in config.jobs:
        try:
            job = entry if isinstance(entry, JobDirectory) else JobDirectory.open(entry, clock)
            if signal_exists(job):
                return TickDecision(job)
        except CoordinationError:
            any_error = True
    return TickDecision(reason=SkipReason.SHARE_ERROR if any_error else SkipReason.NO_SIGNAL)


# The tick decisions and loop reports a DaemonReport keeps: the latest day's
# at the stock poll interval.  A daemon runs for months, and a Start decision
# holds the job handle its tick opened.
RECENT_TICKS = 144


@dataclass
class DaemonReport:
    """A daemon's ticks, how each start ended, the outcome counts and
    aborted evaluations summed over every returned loop, and the latest
    :data:`RECENT_TICKS` tick decisions and loop reports.  Every start ends
    as one kill, completed loop or failed loop (with no loop report)."""

    ticks: int = 0
    kills: int = 0
    completed_loops: int = 0
    failed_loops: int = 0
    counts: WorkerTally = WorkerTally()
    aborted: int = 0
    decisions: list[tuple[float, TickDecision]] = field(default_factory=list)
    loop_reports: list[LoopReport] = field(default_factory=list)

    @property
    def starts(self) -> int:
        return self.completed_loops + self.kills + self.failed_loops


def run_daemon(
    config: WorkerConfig,
    probe: IdleProbe,
    clock: Clock,
    cancel: Callable[[], bool],
    *,
    job_for: Callable[[JobDirectory], tuple[Objective, StopCondition]] | None = None,
    rng: random.Random | None = None,
    observer=None,
) -> DaemonReport:
    """Tick until cancelled, launching the work loop on Start decisions and
    cancelling it the moment the activity probe reports the user is back.

    ``job_for`` gives each started loop its objective and stop condition;
    by default it reads the job's manifest once, by :func:`job_from_manifest`.
    A loop that fails with a protocol error (a malformed manifest, or a job
    re-initialized under it) is logged and counted as failed.
    """
    job_for = job_for or (lambda job: job_from_manifest(read_manifest(job)))
    rng = rng or random.Random()
    report = DaemonReport()
    next_tick = clock.now()

    while not cancel():
        now = clock.now()
        if now < next_tick:
            clock.sleep(next_tick - now)
            continue
        decision = scheduler_tick(config, probe, now, clock=clock)
        report.ticks += 1
        report.decisions.append((now, decision))
        del report.decisions[:-RECENT_TICKS]
        if (job := decision.job) is not None:
            loop_start, killed = clock.now(), False

            def loop_cancel() -> bool:
                nonlocal killed
                if cancel():
                    return True
                now = clock.now()
                killed = probe.idle_duration(now) < (now - loop_start) - 1e-9 or killed
                return killed

            try:
                objective, stop = job_for(job)
                loop = work_loop(job, config.worker_id, objective, config.mode, stop,
                                 loop_cancel, rng=rng, observer=observer)
            except CoordinationError as exc:
                log.warning("%s: loop on %s failed: %s", config.worker_id, job.path, exc)
                report.failed_loops += 1
            else:
                report.counts = WorkerTally.total((report.counts, loop.counts))
                report.aborted += loop.aborted
                report.loop_reports.append(loop)
                del report.loop_reports[:-RECENT_TICKS]
                if loop.exit_reason == "cancelled" and killed:
                    report.kills += 1
                    log.info("%s: killed by user activity on %s", config.worker_id, job.path)
                else:
                    report.completed_loops += 1
        next_tick += config.poll_interval
        while next_tick <= clock.now():
            next_tick += config.poll_interval
    return report


# ---------------------------------------------------------------------------
# Configuration file and command line


_CLOCK_TIME = re.compile(r"([0-9]{1,2}):([0-9]{2})")


def parse_time_of_day(text: str) -> float:
    """Seconds after midnight, from ``HH:MM`` (hours 0-23, minutes 0-59,
    digits only) or from a plain number of seconds."""
    text = text.strip()
    if ":" in text:
        clock = _CLOCK_TIME.fullmatch(text)
        if clock is None or int(clock[1]) > 23 or int(clock[2]) > 59:
            raise ValueError("expected HH:MM with hours 0-23 and minutes 0-59")
        return int(clock[1]) * 3600.0 + int(clock[2]) * 60.0
    return float(text)


_CONFIG_KEYS = {
    "mode": ("mode", OptimizerMode.parse),
    "poll_interval": ("poll_interval", float),
    "idle_threshold": ("idle_threshold", float),
    "daily_start": ("daily_start", parse_time_of_day),
    "daily_duration": ("daily_duration", float),
}


def parse_worker_config(text: str) -> WorkerConfig:
    """Parse the key=value daemon configuration (repeated job= lines).  A key
    left out takes the :class:`WorkerConfig` default; an unknown key is a
    :class:`FormatError`."""
    values = parse_fields(text, "config", repeated=frozenset({"job"}))
    reject_unknown(values, {"job", "worker_id", *_CONFIG_KEYS}, "config")
    worker_id = values.get("worker_id") or f"{socket.gethostname()}:{os.getpid()}"
    return WorkerConfig(
        jobs=tuple(values["job"]), worker_id=worker_id, **convert_fields(values, _CONFIG_KEYS)
    )


def _tick_time_error(now: float, idle: float | None) -> str | None:
    """What is wrong with ``worker tick``'s ``--now`` and ``--idle``, or None.
    Each test is written so that NaN fails it."""
    try:
        time.localtime(now)  # as WallClock.time_of_day will
    except (OverflowError, OSError, ValueError):
        return f"--now {now!r} is not a Unix time this platform can read"
    if idle is not None and not 0 <= idle < math.inf:
        return f"--idle {idle!r} must be non-negative and finite"
    return None


def _run_parser(make) -> argparse.ArgumentParser:
    p_run = make(help="run the daemon until interrupted")
    p_run.add_argument("--config", required=True)
    return p_run


def _tick_parser(make) -> argparse.ArgumentParser:
    p_tick = make(help="print a single dry-run scheduling decision")
    p_tick.add_argument("--config", required=True)
    p_tick.add_argument("--now", type=float, required=True,
                        help="Unix time; its time of day is read in local time")
    p_tick.add_argument("--idle", type=float, default=None,
                        help="scripted idle seconds (defaults to the system probe)")
    return p_tick


_COMMANDS = {
    "run": _run_parser,
    "probe": lambda make: make(help="print the current idle-time estimate"),
    "tick": _tick_parser,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_command("idleclimb worker", __doc__, _COMMANDS, argv)

    if args.command == "probe":
        probe = SystemIdleProbe()
        print(f"idle={probe.idle_duration(time.time()):.1f}")
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_worker_config(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error=config {exc}", file=sys.stderr)
        return 2

    if args.command == "tick":
        problem = _tick_time_error(args.now, args.idle)
        if problem is not None:
            print(f"error=tick {problem}", file=sys.stderr)
            return 2
        if args.idle is not None:
            probe: IdleProbe = TraceProbe(idle_since=args.now - args.idle)
        else:
            probe = SystemIdleProbe()
        decision = scheduler_tick(config, probe, args.now, clock=WallClock())
        if decision.start:
            print(f"decision=start job={decision.job.path}")
        else:
            print(f"decision=skip reason={decision.reason.value}")
        return 0

    # run
    stop_event = threading.Event()
    clock = WallClock(stop_event)

    def _on_signal(signum, frame):
        del signum, frame
        stop_event.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    # From here on SIGINT/SIGTERM end the daemon cleanly; say so, so that a
    # supervisor knows when stopping it is safe.
    print(f"ready={config.worker_id}", flush=True)
    report = run_daemon(config, SystemIdleProbe(), clock, stop_event.is_set)
    print(
        f"ticks={report.ticks} starts={report.starts} kills={report.kills} "
        f"completed_loops={report.completed_loops} failed_loops={report.failed_loops} "
        f"{report.counts.text()} aborted={report.aborted}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
