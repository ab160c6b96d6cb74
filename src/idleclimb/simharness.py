"""Deterministic fleet simulator over a virtual clock.

The simulator runs each logical worker's *real* work loop (the same
optimizer and coordination code used against a real shared directory)
against an in-memory job directory.  Virtual time advances only at explicit
cost points: every primitive directory operation takes ``t_io`` seconds and
an evaluation takes ``t_eval * cost_hint / speed_factor`` seconds, consumed
in checkpoint-sized slices so mid-evaluation aborts land where they would in
real life.

Concurrency is event interleaving only.  Every worker runs on its own
thread, but exactly one thread is ever runnable: a thread whose directory
operation is not the earliest pending event parks itself in the event queue
and hands the baton directly to whoever is due next, without a relay
through the main thread.  Each task thread runs under ``SCHED_BATCH``
(sched(7)) where the platform grants it: under the default policy the
thread a baton wakes preempts the waker, which still holds the GIL, so one
handoff cost several context switches instead of one (``BENCH_17.json``).
Task threads keep the caller's CPU set: pinning them all to one CPU
measured no faster under ``SCHED_BATCH`` on a 2-core VM
(``BENCH_20.json``).  Events run in (time, worker id)
order, and a task has at most one queued event, so a run is a pure
function of (fleet, job setup, sim config, seed) and reports compare
bit-for-bit across runs and across directory backends.

A run has one :class:`TimedBackend`, which charges every directory
operation to the task holding the baton, and one job handle on it for the
whole fleet.  The simulated workers' tally readers therefore share the
handle's fold of changes.log
(:class:`~idleclimb.coordination.TallyReader`) and read the log on from
where the fold ends, rather than each from its own offset.  At p = 50 that
made the simulator about 1.4 times faster, with the same reports
(``BENCH_18.json``).  A reader takes the fold's end before its tail read
parks it, so readers that park together read the same tail
(``BENCH_20.json``).

A sleep (an evaluation slice, a poll interval, a lock backoff) is not a
scheduling point: the sleeping task's clock runs ahead of the queue, and
its next directory operation parks it if any queued event comes first.
Between a sleep and that operation a task touches nothing another task
reads, so every directory operation keeps its place in the global order
(temporal decoupling, as in a SystemC TLM-2.0 quantum keeper).  Proposal
records, though, are appended in run order, so the report sorts them by
(time, worker), which is the event order.

Nor, mostly, is a signal read between the slices of an evaluation.  During
a run the signal file only goes from present to absent: it is created
before the fleet starts, and only a removal changes it.  So until it is
first removed, the reads at an evaluation's checkpoints 1 to 8 are read
ahead: each finds the signal present, moves the task's clock on by
``t_io`` and keeps its key (time, worker id), without parking.  The task
parks only at its last checkpoint's read, which waits for every earlier
event and so validates the reads before it; they reach the store then.  A
removal at a key before a kept read re-queues the parked reader at that
read, where it finds the signal gone and aborts, as a read in order would
have.  This is optimistic execution (Jefferson, "Virtual Time", 1985)
narrowed to side-effect-free reads of a flag that only clears: rolling
back means waking the reader earlier.  A kill or window end that cancels a
task holding such reads first parks it at the cancel time, so that an
earlier removal can still void them, and a read is made in order when it,
or the slice after it, would end past the horizon.  At p = 50
this cut the baton handoffs per evaluation from 12.5 to 4.0 and made the
simulator about 1.4 times faster, with the same reports (``BENCH_19.json``).

Speedup accounting: ``speedup`` is the virtual time the fastest fleet member
would need to perform the run's completed evaluations back to back, divided
by the fleet's makespan.  Coordination costs, lock waits, scheduling gaps
and aborted work all shrink it, and ``efficiency = speedup / ideal_speedup``
is provably at most 1: completed evaluation work cannot exceed the fleet's
combined evaluation rate times the makespan.
"""

from __future__ import annotations

import argparse
import heapq
import math
import os
import random
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .cli import parse_command
from .clock import SECONDS_PER_DAY
from .coordination import (
    Backend,
    FormatError,
    JobDirectory,
    MemBackend,
    SIGNAL_FILE,
    WorkerTally,
    convert_fields,
    parse_fields,
    read_best,
    reject_unknown,
    signal_clear,
    signal_set,
)
from .objective import (
    Config,
    EvaluationAborted,
    Objective,
    PhaseMaskObjective,
    initial_config,
)
from .optimizer import (
    STOP_KEYS,
    Outcome,
    OptimizerMode,
    ProposalRecord,
    StopCondition,
    initialize,
    job_from_manifest,
    work_loop,
)

EFFICIENCY_TOLERANCE = 1e-9
# Share of one evaluation between two mid-evaluation stop checks.
CHECKPOINT_FRACTION = 0.1


class SimHorizon(Exception):
    """Raised inside a simulated worker when the horizon cuts the run off."""


class _Task:
    __slots__ = ("name", "thread", "baton", "done", "error", "last", "follow", "ahead", "voided")

    def __init__(self, name: str):
        self.name = name
        self.thread: threading.Thread | None = None
        self.baton = threading.Lock()
        self.done = False
        self.error: BaseException | None = None
        self.last = 0.0  # its time when it last parked or finished
        self.follow: float | None = None  # the slice after a read, while it may read ahead
        self.ahead: list[float] = []  # the times of its read-aheads not yet validated
        self.voided: int | None = None  # the index of the first one a removal voided


# The policy of every task thread, where the platform has it.
_SCHED_BATCH = getattr(os, "SCHED_BATCH", None) if hasattr(os, "sched_setscheduler") else None


class VirtualKernel:
    """Sequential-thread discrete-event scheduler.

    Tasks call :meth:`advance` before each directory operation and
    :meth:`sleep` to let time pass.  ``now`` is the running task's time.  A
    sleep moves it forward without parking, so a task may run ahead of the
    queued events; its next :meth:`advance` parks it unless its event comes
    before every queued one.  A signal read at a mid-evaluation checkpoint
    is not a scheduling point either while the signal is up: it is read
    ahead (:meth:`read_ahead`), and the task's next park validates it
    (:meth:`validate`) unless a removal at an earlier key re-queues the
    task at that read (:meth:`void`).  This relies on the signal going only
    from present to absent during a run.  A task that parks pushes its
    event and hands the baton straight to the task owning the earliest
    event (:meth:`_dispatch`); the main thread only starts the run, waits
    for its end and unwinds.  ``reached`` is the latest time any task has
    reached, and ``current`` the task last granted the baton: the one
    running, for whom a shared :class:`TimedBackend` and :class:`SimClock`
    act.  Exactly one thread runs at any instant, which is what makes runs
    deterministic.  Each task thread switches itself to ``SCHED_BATCH``
    where that is granted, so that the thread a baton wakes waits for the
    waker to block instead of preempting it while it holds the GIL; a
    refusal keeps the default policy and changes no result.  Task threads
    run on the caller's CPU set, and the caller's thread keeps its policy.
    """

    def __init__(self, horizon: float = math.inf):
        self.now = 0.0
        self.horizon = horizon
        self.current: _Task | None = None  # the task last granted the baton
        self._heap: list[tuple[float, str, int]] = []
        self._seq = 0
        self._tasks: dict[str, _Task] = {}
        self._main_baton = threading.Lock()
        self._main_baton.acquire()
        self._stopping = False

    def spawn(self, name: str, fn: Callable[[], None]) -> None:
        if name in self._tasks:
            raise ValueError(f"duplicate task name {name!r}")
        task = _Task(name)
        task.baton.acquire()  # the task starts parked
        self._tasks[name] = task

        def body():
            if _SCHED_BATCH is not None:
                try:
                    os.sched_setscheduler(0, _SCHED_BATCH, os.sched_param(0))
                except OSError:
                    pass
            task.baton.acquire()
            try:
                if not self._stopping:
                    fn()
            except SimHorizon:
                pass
            except BaseException as exc:  # surfaced after the event loop stops
                task.error = exc
            finally:
                task.done = True
                self._dispatch()

        task.thread = threading.Thread(target=body, name=f"sim-{name}", daemon=True)
        task.thread.start()
        self._push(self.now, name)

    def _push(self, at: float, name: str) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, name, self._seq))

    def sleep(self, duration: float) -> None:
        """Let the running task sleep without parking: its time runs ahead
        of the queued events until its next :meth:`advance` puts it back in
        order.  A wake-up past the horizon, or during the unwind, parks (or
        raises :class:`SimHorizon`) as :meth:`advance` does."""
        at = self.now + (duration if duration > 0.0 else 0.0)
        if at <= self.horizon and not self._stopping:
            self.now = at
        else:
            self.advance(self.current.name, duration, "sleep")

    def advance(self, name: str, duration: float, kind: str) -> None:
        """Consume virtual time on behalf of task ``name``, parking it first
        if any queued event comes before it.  ``kind`` is for tracing only: a
        task has at most one queued event, so (time, name) orders them."""
        at = self.now + (duration if duration > 0.0 else 0.0)
        if self._stopping:
            raise SimHorizon
        # Fast path: if no other event precedes ours, just move the clock.
        if at <= self.horizon:
            if not self._heap:
                self.now = at
                return
            head = self._heap[0]
            if at < head[0] or (at == head[0] and name < head[1]):
                self.now = at
                return
        self._park(name, at)

    def _park(self, name: str, at: float) -> None:
        task = self._tasks[name]
        self._push(at, name)
        self._dispatch()
        task.baton.acquire()
        if self._stopping:
            raise SimHorizon

    @property
    def reached(self) -> float:
        """The latest virtual time any task has reached: the greatest of the
        tasks' times when they last parked or finished.  A task re-queued by
        :meth:`void` parks again later, so its abandoned read-aheads do not
        count."""
        return max((task.last for task in self._tasks.values()), default=0.0)

    def _dispatch(self) -> None:
        """Hand the baton to the task owning the earliest due event, or to
        the main thread when none is due before the horizon (or the run is
        unwinding)."""
        if self.current is not None and not self._stopping:
            self.current.last = self.now
        heap = self._heap
        while heap and not self._stopping and heap[0][0] <= self.horizon:
            at, name, _seq = heapq.heappop(heap)
            task = self._tasks[name]
            if not task.done:
                self.now = at
                self._grant(task)
                return
        self._main_baton.release()

    def read_ahead(self, duration: float) -> bool:
        """Take the running task's signal read ``duration`` from now without
        parking, if the read and the slice after it end within the horizon.
        The task may read ahead: its ``follow``, that slice, is set
        (:meth:`SimClock.allow_read_ahead`).  Its time moves on as
        :meth:`advance` would move it; the read's time is kept until
        :meth:`validate` passes it or :meth:`void` re-queues the task."""
        task = self.current
        at = self.now + (duration if duration > 0.0 else 0.0)
        if self._stopping or at + task.follow > self.horizon:
            return False
        self.now = at
        task.ahead.append(at)
        return True

    def settle(self) -> None:
        """Park the running task at its own time if it holds read-aheads, so
        that every event before it runs first and a removal among them can
        still void one.  This is not a directory operation, so it makes no
        :meth:`advance` call."""
        if self.current.ahead:
            self._park(self.current.name, self.now)

    def validate(self) -> tuple[int, bool]:
        """For the running task, once every event before it has run: the
        number of its read-aheads that stand, in order, and whether a
        removal voided the rest.  Forgets them."""
        task = self.current
        ahead = task.ahead
        if not ahead:
            return 0, False
        voided, task.ahead, task.voided = task.voided, [], None
        return (len(ahead), False) if voided is None else (voided, True)

    def void(self, at: float, name: str) -> None:
        """The signal was removed at key (``at``, ``name``).  Each parked
        task holding a read-ahead at a later key is re-queued at the first
        such key, where it wakes to find that read voided."""
        first = {}
        for task in self._tasks.values():
            for index, t in enumerate(task.ahead):
                if (t, task.name) > (at, name):
                    task.voided = index
                    first[task.name] = t
                    break
        if first:
            self._heap = [entry for entry in self._heap if entry[1] not in first]
            heapq.heapify(self._heap)
            for task_name, t in first.items():
                self._push(t, task_name)

    def run(self) -> None:
        """Drive events until all tasks finish or the horizon passes."""
        try:
            self._dispatch()
            self._main_baton.acquire()
        finally:
            self._unwind()
        for task in self._tasks.values():
            if task.error is not None:
                raise RuntimeError(f"simulated task {task.name} failed") from task.error

    def _grant(self, task: _Task) -> None:
        self.current = task
        task.baton.release()

    def _unwind(self) -> None:
        self._stopping = True
        for task in self._tasks.values():
            if not task.done:
                self._grant(task)
                self._main_baton.acquire()
        for task in self._tasks.values():
            assert task.thread is not None
            task.thread.join(timeout=10.0)
            if task.thread.is_alive():
                raise RuntimeError(f"simulated task {task.name} failed to stop")


class SimClock:
    """A run's clock face over the kernel, acting for the running task."""

    def __init__(self, kernel: VirtualKernel):
        self._kernel = kernel

    def now(self) -> float:
        return self._kernel.now

    def sleep(self, duration: float) -> None:
        self._kernel.sleep(duration)

    def allow_read_ahead(self, follow: float | None) -> None:
        """Let the running task's signal reads be read ahead
        (:meth:`VirtualKernel.read_ahead`), each followed by a slice of
        ``follow`` seconds, or stop that (None)."""
        self._kernel.current.follow = follow

    def time_of_day(self, timestamp: float) -> float:
        return timestamp % SECONDS_PER_DAY


class TimedBackend:
    """Charges t_io of virtual time for every primitive directory operation,
    to the task holding the baton, and notes when the signal file is first
    removed.  Until then it answers a signal read ahead where the task's
    evaluation allows it, and passes the reads that stand to the store when
    the task validates them.  One serves a whole run, under the one
    :class:`~idleclimb.coordination.JobDirectory` handle of the fleet and
    the operator."""

    def __init__(self, inner: Backend, kernel: VirtualKernel, t_io: float, events: _Events):
        self._inner = inner
        self._kernel = kernel
        self._t_io = t_io
        self._events = events

    def _charge(self):
        kernel = self._kernel
        kernel.advance(kernel.current.name, self._t_io, "io")

    def _pass_validated(self) -> bool:
        """Pass the running task's read-aheads that stand to the store, each
        with the one :meth:`VirtualKernel.advance` call of a directory
        operation (its time was taken when it was read ahead), and say
        whether a removal voided the rest."""
        kernel = self._kernel
        stand, voided = kernel.validate()
        for _ in range(stand):
            kernel.advance(kernel.current.name, 0.0, "io")
            self._inner.exists(SIGNAL_FILE)
        return voided

    def settle(self) -> bool:
        """Wait until every event before the running task's time has run,
        if it holds read-aheads, and pass them to the store.  True if a
        removal voided one: that read is then made, and finds the signal
        gone."""
        self._kernel.settle()
        if not self._pass_validated():
            return False
        self._kernel.advance(self._kernel.current.name, 0.0, "io")
        self._inner.exists(SIGNAL_FILE)
        return True

    def exists(self, name):
        kernel = self._kernel
        task = kernel.current
        # The signal only goes from present to absent during a run, so until
        # it is first removed a read ahead finds it present.
        if (name == SIGNAL_FILE and task.follow is not None
                and self._events.clear_time is None and kernel.read_ahead(self._t_io)):
            return True
        # A read past the horizon is never made; the read-aheads before it
        # are settled first.
        if task.ahead and kernel.now + self._t_io > kernel.horizon and self.settle():
            return False
        self._charge()
        if task.ahead:
            # After a voided read-ahead this is that read, and finds the
            # signal gone.
            self._pass_validated()
        return self._inner.exists(name)

    def read_text(self, name):
        self._charge()
        return self._inner.read_text(name)

    def read_tail(self, name, offset):
        self._charge()
        return self._inner.read_tail(name, offset)

    def write_atomic(self, name, data):
        self._charge()
        self._inner.write_atomic(name, data)

    def create_exclusive(self, name, data):
        self._charge()
        return self._inner.create_exclusive(name, data)

    def append_line(self, name, line):
        self._charge()
        self._inner.append_line(name, line)

    def remove(self, name):
        self._charge()
        self._inner.remove(name)
        if name == SIGNAL_FILE and self._events.clear_time is None:
            kernel = self._kernel
            self._events.clear_time = kernel.now
            kernel.void(kernel.now, kernel.current.name)

    def describe(self):
        return self._inner.describe()


def _no_read_ahead(follow: float | None) -> None:
    pass


class ClockedObjective:
    """Wraps an objective so one evaluation consumes clock time, in
    checkpoint-sized slices with an intermittent stop check between them.

    Works over any clock: a :class:`SimClock` inside the kernel, or a plain
    :class:`idleclimb.clock.VirtualClock` when driving a single daemon."""

    def __init__(
        self,
        inner: Objective,
        clock,
        duration: float,
        checkpoint_fraction: float = CHECKPOINT_FRACTION,
    ):
        self._inner = inner
        self._clock = clock
        self._duration = duration
        self._slices = max(1, round(1.0 / checkpoint_fraction))
        # A SimClock may read the signal ahead at a checkpoint; any other
        # clock reads it in order.
        self._allow_read_ahead = getattr(clock, "allow_read_ahead", _no_read_ahead)
        self.length = inner.length
        self.level_count = inner.level_count
        self.cost_hint = inner.cost_hint

    def evaluate(self, config: Config, checkpoint=None) -> float:
        dt = self._duration / self._slices
        last = self._slices - 2  # the index of the last checkpoint
        self._allow_read_ahead(dt)
        try:
            for i in range(self._slices):
                self._clock.sleep(dt)
                if i == last:
                    # This read waits its turn, and so validates the ones
                    # read ahead before it.
                    self._allow_read_ahead(None)
                if checkpoint is not None and i <= last and not checkpoint():
                    raise EvaluationAborted("evaluation interrupted")
        finally:
            self._allow_read_ahead(None)
        return self._inner.evaluate(config)


# ---------------------------------------------------------------------------
# Scenario model


@dataclass(frozen=True)
class SimWorker:
    """One logical machine: a relative speed and the intervals during which
    it is idle enough to contribute.  Interval ends model the user coming
    back, which kills in-flight work."""

    id: str
    speed_factor: float = 1.0
    availability: tuple[tuple[float, float], ...] = ((0.0, math.inf),)
    poll_interval: float = 600.0

    def __post_init__(self):
        if self.id.split() != [self.id]:  # as tally and commit lines split it
            raise ValueError(f"id {self.id!r} must be one word with no whitespace")
        # Each test is written so that NaN fails it.
        if not 0 < self.speed_factor < math.inf:
            raise ValueError("speed_factor must be positive and finite")
        if not 0 < self.poll_interval < math.inf:
            raise ValueError("poll_interval must be positive and finite")
        last = -math.inf
        for start, end in self.availability:
            if not last <= start < end:
                raise ValueError("availability intervals must be disjoint and ordered")
            last = end


@dataclass(frozen=True)
class SimConfig:
    t_eval: float = 1.0
    t_io: float = 0.001
    seed: int = 0
    horizon: float = 1e9
    stop: StopCondition = StopCondition(max_total_evaluations=1000)

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        if not 0 < self.t_eval < math.inf:
            raise ValueError("t_eval must be positive and finite")
        if not 0 <= self.t_io < math.inf:
            raise ValueError("t_io must be non-negative and finite")
        if not self.horizon >= 0:
            raise ValueError("horizon must be a non-negative number")


@dataclass(frozen=True)
class JobSetup:
    objective: PhaseMaskObjective
    mode: OptimizerMode = OptimizerMode.CHANGE_MERGE
    init_config: str = "random"  # "zero" or "random"
    init_seed: int = 0
    job_id: str = "sim"


@dataclass(frozen=True)
class WorkerStats:
    id: str
    evaluations: int
    commits: int
    kills: int
    quiesce_time: float | None


@dataclass(frozen=True)
class SpeedupReport:
    makespan: float
    evaluations_total: int
    commits: int
    wasted_duplicate: int
    wasted_outdated: int
    rejected_not_better: int
    aborted: int
    speedup: float
    ideal_speedup: float
    efficiency: float
    incomplete: bool
    clear_time: float | None
    final_version: int
    final_performance: float
    worker_stats: tuple[WorkerStats, ...]
    records: tuple[ProposalRecord, ...]

    def lines(self) -> list[str]:
        out = [
            f"makespan={self.makespan:.6f}",
            f"evaluations_total={self.evaluations_total}",
            f"commits={self.commits}",
            f"wasted_duplicate={self.wasted_duplicate}",
            f"wasted_outdated={self.wasted_outdated}",
            f"rejected_not_better={self.rejected_not_better}",
            f"aborted={self.aborted}",
            f"speedup={self.speedup:.6f}",
            f"ideal_speedup={self.ideal_speedup:.6f}",
            f"efficiency={self.efficiency:.6f}",
            f"incomplete={int(self.incomplete)}",
            f"final_version={self.final_version}",
            f"final_performance={self.final_performance:.17g}",
        ]
        return out


def ideal_speedup(fleet: Sequence[SimWorker], reference: str) -> float:
    """Sum of relative speeds over the reference machine's speed."""
    by_id = {w.id: w for w in fleet}
    if reference not in by_id:
        raise ValueError(f"reference worker {reference!r} not in fleet")
    ref_speed = by_id[reference].speed_factor
    return sum(w.speed_factor for w in fleet) / ref_speed


@dataclass
class _Events:
    stop_time: float | None = None
    clear_time: float | None = None  # the first removal of the signal file

    def note_stop(self, at: float) -> None:
        if self.stop_time is None or at < self.stop_time:
            self.stop_time = at


def run_sim(
    fleet: Sequence[SimWorker],
    setup: JobSetup,
    sim: SimConfig,
    *,
    kill_schedule: Sequence[tuple[str, float]] = (),
    clear_signal_at: float | None = None,
    backend: Backend | None = None,
) -> SpeedupReport:
    """Run the fleet against one job until a stop condition or the horizon.

    ``kill_schedule`` entries (worker id, time) inject user-activity events
    that cancel that worker's in-flight work at its next checkpoint.
    ``clear_signal_at`` schedules an operator deleting the signal file.
    ``backend`` swaps the in-memory directory for another implementation
    (used to check protocol equivalence against a real directory).
    """
    if not fleet:
        raise ValueError("fleet must not be empty")
    ids = [w.id for w in fleet]
    if len(set(ids)) != len(ids):
        raise ValueError("worker ids must be unique")
    for wid, at in kill_schedule:
        if wid not in set(ids):
            raise ValueError(f"kill schedule names unknown worker {wid!r}")
        if not at >= 0:
            raise ValueError(f"kill time {at!r} of {wid!r} must be a non-negative number")
    if clear_signal_at is not None and not clear_signal_at >= 0:
        raise ValueError("clear_signal_at must be a non-negative number")

    kernel = VirtualKernel(horizon=sim.horizon)
    events = _Events()
    store = backend if backend is not None else MemBackend("sim")
    timed = TimedBackend(store, kernel, sim.t_io, events)
    # One handle for every task, so the fleet's tally readers share its fold.
    job = JobDirectory(backend=timed, clock=SimClock(kernel), job_id=setup.job_id)

    # Initialization happens before the fleet exists, off the virtual clock.
    store_job = JobDirectory(backend=store, clock=job.clock, job_id=setup.job_id)
    config = initial_config(setup.objective, setup.init_config, setup.init_seed)
    initialize(store_job, config, setup.objective)
    signal_set(store_job)

    records: list[ProposalRecord] = []
    stats: dict[str, dict] = {
        w.id: {"counts": WorkerTally(), "aborted": 0, "kills": 0, "quiesce": None} for w in fleet
    }

    for w in fleet:
        kill_times = [at for wid, at in kill_schedule if wid == w.id]
        kernel.spawn(w.id, _worker_body(w, kernel, job, setup, sim, records, events,
                                        kill_times, stats))
    if clear_signal_at is not None:
        # Ids hold no whitespace, so no worker has this name; it sorts right
        # after "<operator>", which takes the same turn against other ids.
        kernel.spawn("<operator> task", _operator_body(kernel, job, clear_signal_at, events))

    kernel.run()

    return _build_report(fleet, setup, sim, kernel, store_job, records, events, stats)


def _worker_body(w, kernel, job, setup, sim, records, events, kill_times, stats):
    def body():
        duration = sim.t_eval * setup.objective.cost_hint / w.speed_factor
        objective = ClockedObjective(setup.objective, job.clock, duration)
        rng = random.Random(f"{sim.seed}:{w.id}")
        my = stats[w.id]

        for win_start, win_end in w.availability:
            if kernel.now < win_start:
                job.clock.sleep(win_start - kernel.now)
            while kernel.now < win_end:
                # The window's end or the first kill after the loop starts,
                # whichever comes first, cancels the loop.  Checked at every
                # checkpoint, so it is one comparison.
                cancel_at = min([win_end, *(k for k in kill_times if k > kernel.now)])

                def cancelled(_at=cancel_at):
                    if kernel.now < _at:
                        return False
                    # A removal before now that voids a read-ahead turns
                    # this cancel into the signal's abort at that read.
                    job.backend.settle()
                    return True

                report = work_loop(
                    job, w.id, objective, setup.mode, sim.stop,
                    cancelled, rng=rng, observer=records.append,
                )
                my["counts"] = WorkerTally.total((my["counts"], report.counts))
                my["aborted"] += report.aborted
                if report.exit_reason in ("stop_condition", "stagnation"):
                    events.note_stop(kernel.now)
                    my["quiesce"] = kernel.now
                    return
                if report.exit_reason == "signal_cleared":
                    my["quiesce"] = kernel.now
                    return
                # cancelled: user came back (window end) or an injected kill
                my["kills"] += 1
                if kernel.now >= win_end:
                    break
                job.clock.sleep(w.poll_interval)
        my["quiesce"] = kernel.now

    return body


def _operator_body(kernel, job, clear_at, events):
    def body():
        job.clock.sleep(clear_at)
        signal_clear(job)
        events.note_stop(kernel.now)

    return body


def _build_report(fleet, setup, sim, kernel, store_job, records, events, stats) -> SpeedupReport:
    # A task appends its records as it runs, and sleeps run ahead of other
    # tasks' events, so the list is in event order only after this sort.
    records.sort(key=lambda rec: (rec.time, rec.worker))
    commits = wasted_duplicate = wasted_outdated = rejected_not_better = 0
    seen: set[tuple[int, int, int]] = set()
    last_record_time = 0.0
    for rec in records:
        last_record_time = max(last_record_time, rec.time)
        key = (rec.base_version, rec.index, rec.new_value)
        if rec.outcome is Outcome.COMMITTED:
            commits += 1
        elif key in seen:
            wasted_duplicate += 1
        elif rec.outcome in (Outcome.REJECTED_CONFLICT, Outcome.REJECTED_STALE):
            wasted_outdated += 1
        else:
            rejected_not_better += 1
        seen.add(key)

    incomplete = events.stop_time is None
    if incomplete:
        makespan = min(sim.horizon, kernel.reached) if kernel.reached > 0 else sim.horizon
    else:
        makespan = max(events.stop_time, last_record_time)

    evaluations_total = len(records)
    aborted = sum(s["aborted"] for s in stats.values())
    ref_speed = max(w.speed_factor for w in fleet)
    reference = min(w.id for w in fleet if w.speed_factor == ref_speed)
    ideal = ideal_speedup(fleet, reference)
    ref_time = evaluations_total * sim.t_eval * setup.objective.cost_hint / ref_speed
    speedup = ref_time / makespan if makespan > 0 else 0.0
    efficiency = speedup / ideal if ideal > 0 else 0.0
    if efficiency > 1.0 + EFFICIENCY_TOLERANCE:
        raise AssertionError(
            f"efficiency {efficiency} exceeds 1: completed work cannot beat "
            f"the fleet's combined rate"
        )

    final = read_best(store_job)
    worker_stats = tuple(
        WorkerStats(wid, s["counts"].evaluations, s["counts"].commits, s["kills"], s["quiesce"])
        for wid, s in sorted(stats.items())
    )
    return SpeedupReport(
        makespan=makespan,
        evaluations_total=evaluations_total,
        commits=commits,
        wasted_duplicate=wasted_duplicate,
        wasted_outdated=wasted_outdated,
        rejected_not_better=rejected_not_better,
        aborted=aborted,
        speedup=speedup,
        ideal_speedup=ideal,
        efficiency=efficiency,
        incomplete=incomplete,
        clear_time=events.clear_time,
        final_version=final.version,
        final_performance=final.performance,
        worker_stats=worker_stats,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Canned studies


def homogeneous_fleet(count: int) -> tuple[SimWorker, ...]:
    return tuple(SimWorker(id=f"w{i:03d}") for i in range(count))


def sweep_fleet_size(
    max_p: int, sim: SimConfig, setup: JobSetup
) -> list[tuple[int, SpeedupReport]]:
    """Efficiency as the fleet grows from 1 to max_p identical machines."""
    if max_p < 1:
        raise ValueError("max_p must be at least 1")
    rows = []
    for p in range(1, max_p + 1):
        rows.append((p, run_sim(homogeneous_fleet(p), setup, sim)))
    return rows


def default_setup(n: int = 16, levels: int = 4, target_order: int = 3, **job) -> JobSetup:
    """The studies' objective; other keyword arguments go to :class:`JobSetup`."""
    return JobSetup(
        objective=PhaseMaskObjective(length=n, level_count=levels, target_order=target_order),
        **job,
    )


# ---------------------------------------------------------------------------
# Scenario files and command line


@dataclass(frozen=True)
class Scenario:
    fleet: tuple[SimWorker, ...]
    setup: JobSetup
    sim: SimConfig
    kill_schedule: tuple[tuple[str, float], ...] = ()
    clear_signal_at: float | None = None


def _parse_interval(token: str) -> tuple[float, float]:
    lo, hi = token.split(":", 1)
    return (float(lo), math.inf if hi in ("inf", "") else float(hi))


_WORKER_KEYS = {
    "id": ("id", str), "speed": ("speed_factor", float), "poll": ("poll_interval", float),
    "avail": ("availability", lambda text: tuple(map(_parse_interval, text.split(",")))),
}
_SETUP_KEYS = {"mode": ("mode", OptimizerMode.parse), "init_config": ("init_config", str),
               "init_seed": ("init_seed", int), "job_id": ("job_id", str)}
_SIM_KEYS = {"t_eval": ("t_eval", float), "t_io": ("t_io", float), "seed": ("seed", int),
             "horizon": ("horizon", float)}
# Every top-level key of a scenario: the job's (objective, stop, set-up and
# simulation keys), the repeated stanzas and the operator's stop time.
_SCENARIO_KEYS = frozenset({*default_setup().objective.manifest_params(), *STOP_KEYS,
                            *_SETUP_KEYS, *_SIM_KEYS, "worker", "kill", "clear_signal_at"})


def _parse_worker(value: str) -> SimWorker:
    """One ``worker=`` stanza; its tokens are read as key=value lines."""
    source = f"worker={value!r}"
    fields = parse_fields("\n".join(value.split()), source)
    reject_unknown(fields, _WORKER_KEYS, source)
    if "id" not in fields:
        raise FormatError(f"{source} has no id=")
    return SimWorker(**convert_fields(fields, _WORKER_KEYS))


def _parse_kill(value: str) -> tuple[str, float]:
    """One ``kill=worker@time`` line."""
    worker_id, sep, at = value.rpartition("@")
    if sep:
        try:
            return worker_id.strip(), float(at)
        except ValueError:
            pass
    raise FormatError(f"kill={value!r} is not worker@time")


def _read_job(values: Mapping[str, Any]) -> tuple[JobSetup, SimConfig]:
    """The job keys of a scenario, or of ``sim sweep``'s options.  The
    objective and stop keys are a manifest's; a key left out takes the
    :func:`default_setup` or dataclass default."""
    objective, stop = job_from_manifest({**default_setup().objective.manifest_params(), **values})
    setup = JobSetup(objective=objective, **convert_fields(values, _SETUP_KEYS))
    sim = SimConfig(stop=stop, **convert_fields(values, _SIM_KEYS))
    return setup, sim


def parse_scenario(text: str) -> Scenario:
    """Parse the key=value scenario format: job keys, repeated worker= and
    kill= lines, and clear_signal_at.  Any other key is a
    :class:`FormatError`."""
    values = parse_fields(text, "scenario", repeated=frozenset({"worker", "kill"}))
    reject_unknown(values, _SCENARIO_KEYS, "scenario")
    fleet = tuple(_parse_worker(value) for value in values["worker"])
    if not fleet:
        raise FormatError("scenario defines no worker= lines")
    setup, sim = _read_job(values)
    return Scenario(
        fleet=fleet,
        setup=setup,
        sim=sim,
        kill_schedule=tuple(_parse_kill(value) for value in values["kill"]),
        **convert_fields(values, {"clear_signal_at": ("clear_signal_at", float)}),
    )


def write_sweep_csv(path: str, rows: list[tuple[int, SpeedupReport]]) -> None:
    """One row per fleet size, numbers as ``sim sweep`` prints them."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "speedup", "efficiency", "wasted_duplicate", "wasted_outdated"])
        for p, report in rows:
            writer.writerow(
                [p, f"{report.speedup:.6f}", f"{report.efficiency:.6f}",
                 report.wasted_duplicate, report.wasted_outdated]
            )


def _run_parser(make) -> argparse.ArgumentParser:
    p_run = make(help="run one scenario file")
    p_run.add_argument("--scenario", required=True)
    return p_run


def _sweep_parser(make) -> argparse.ArgumentParser:
    # The sweep's options are scenario keys, read as a scenario's are; one
    # left out is left out of the namespace too, and takes the default.
    p_sweep = make(help="efficiency sweep over fleet sizes 1..max-p",
                   argument_default=argparse.SUPPRESS)
    p_sweep.add_argument("--max-p", type=int, required=True)
    p_sweep.add_argument("--t-eval")
    p_sweep.add_argument("--t-io")
    p_sweep.add_argument("--max-evals", dest="stop_max_evals",
                         default=str(SimConfig.stop.max_total_evaluations))
    p_sweep.add_argument("--seed", default="1")  # the simulation's and the initial config's
    p_sweep.add_argument("--n")
    p_sweep.add_argument("--levels")
    p_sweep.add_argument("--target-order")
    p_sweep.add_argument("--mode")
    p_sweep.add_argument("--csv", default=None)
    return p_sweep


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_command("idleclimb sim", __doc__, {"run": _run_parser, "sweep": _sweep_parser},
                         argv)

    if args.command == "run":
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
            # run_sim rejects what parses but cannot run: a duplicate worker
            # id, a kill naming no worker, an unknown init_config.
            report = run_sim(
                scenario.fleet,
                scenario.setup,
                scenario.sim,
                kill_schedule=scenario.kill_schedule,
                clear_signal_at=scenario.clear_signal_at,
            )
        except (OSError, ValueError) as exc:
            print(f"error=scenario {exc}", file=sys.stderr)
            return 2
        for line in report.lines():
            print(line)
        return 0

    try:
        setup, sim = _read_job({**vars(args), "init_seed": args.seed})
        rows = sweep_fleet_size(args.max_p, sim, setup)
    except ValueError as exc:
        print(f"error=sweep {exc}", file=sys.stderr)
        return 2
    for p, report in rows:
        print(
            f"p={p} speedup={report.speedup:.6f} efficiency={report.efficiency:.6f} "
            f"evaluations={report.evaluations_total} commits={report.commits} "
            f"wasted_duplicate={report.wasted_duplicate} "
            f"wasted_outdated={report.wasted_outdated}"
        )
    if args.csv:
        write_sweep_csv(args.csv, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
