"""Distributed single-change hill climbing over the shared best record.

Each worker repeats: read the global best, pick one random element change,
evaluate the changed configuration, read the global best *again*, and merge.
The second read is what keeps concurrent workers from silently overwriting
each other's committed improvements.

Two merge modes exist for the concurrent case (other workers committed on
other elements while we were evaluating):

* ``REPLACE_IF_BETTER`` compares raw performance and, when it wins, replaces
  the whole configuration with our base-plus-change, dropping the concurrent
  improvements.
* ``CHANGE_MERGE`` re-applies our single change on top of the latest
  configuration and records the sum of the latest performance and our
  measured delta, flagged ``estimated`` because deltas are only additive if
  the changes do not interact.

A change to an element that *itself* moved concurrently is rejected in both
modes: replaying it over a different base value is meaningless.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, NamedTuple

from .coordination import (
    BestState,
    ChangeProposal,
    Committed,
    CoordinationError,
    JobDirectory,
    LockContentionError,
    ShareUnreachableError,
    TallyReader,
    WorkerTally,
    append_tally,
    build_record,
    commit_update,
    publish_initial,
    read_best,
    signal_clear,
    signal_exists,
)
from .objective import Config, EvaluationAborted, Objective, neighbors, validate_config
from .objective import from_manifest as objective_from_manifest

log = logging.getLogger(__name__)

MERGE_MAX_RETRIES = 8
IO_RETRY_DEADLINE = 5.0
IO_RETRY_BACKOFF = 0.2
# Seconds of the job's clock between a worker's tally syncs (write its own
# tally, read the fleet's).  Evaluations longer than this sync once each.
TALLY_SYNC_INTERVAL = 1.0


class OptimizerMode(Enum):
    REPLACE_IF_BETTER = "replace_if_better"
    CHANGE_MERGE = "change_merge"

    @staticmethod
    def parse(text: str) -> "OptimizerMode":
        try:
            return OptimizerMode(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown optimizer mode {text!r}") from None


class Outcome(Enum):
    COMMITTED = "committed"
    REJECTED_NOT_BETTER = "not_better"
    REJECTED_CONFLICT = "conflict"
    REJECTED_STALE = "stale"


for _slot, _kind in enumerate(Outcome, 1):  # tally-line order, after the evaluations
    _kind.slot = _slot  # its count's index in a WorkerTally; reading it hashes nothing


# The manifest keys of a StopCondition: key -> (field, conversion).
STOP_KEYS = {"stop_max_evals": ("max_total_evaluations", int),
             "stop_target": ("target_performance", float),
             "stop_stagnation": ("stagnation_proposals", int)}


@dataclass(frozen=True)
class StopCondition:
    """Any-of end conditions; all None means manual stop only.

    ``max_total_evaluations`` counts completed evaluations fleet-wide: each
    worker adds its own live count to the other workers' tally lines as it
    last read them.  Between commits a worker syncs its tally only at the
    first loop top after ``TALLY_SYNC_INTERVAL`` has passed, so the fleet
    may overshoot the budget by up to its evaluation rate times
    (``TALLY_SYNC_INTERVAL`` + one evaluation), plus one in-flight
    evaluation per worker, plus the unflushed count of any worker that was
    killed.  A lone worker stops at exactly the budget.
    ``stagnation_proposals``: once a worker has completed that many
    proposals against one version of the best record (0: at once), its next
    changes sweep every single-element change of that version; the job stops
    only if the whole sweep finds none better while the version stays put.
    """

    max_total_evaluations: int | None = None
    target_performance: float | None = None
    stagnation_proposals: int | None = None

    def __post_init__(self):
        # Each test is written so that NaN fails it: a NaN target never
        # fires.  A budget of 0 stops at the first loop top.
        if self.max_total_evaluations is not None and not self.max_total_evaluations >= 0:
            raise ValueError("max_total_evaluations must be non-negative")
        if self.target_performance is not None and not (
                -math.inf <= self.target_performance <= math.inf):
            raise ValueError("target_performance must be a number, not NaN")
        if self.stagnation_proposals is not None and not self.stagnation_proposals >= 0:
            raise ValueError("stagnation_proposals must be non-negative")

    def satisfied(self, best_performance: float, fleet_evaluations: int) -> bool:
        if self.max_total_evaluations is not None and fleet_evaluations >= self.max_total_evaluations:
            return True
        if self.target_performance is not None and best_performance >= self.target_performance:
            return True
        return False

    def manifest_params(self) -> dict[str, str]:
        """The stop keys of the conditions set, as :meth:`from_manifest` reads them."""
        values = {key: getattr(self, name) for key, (name, _kind) in STOP_KEYS.items()}
        return {key: str(value) for key, value in values.items() if value is not None}

    @staticmethod
    def from_manifest(params: Mapping[str, str]) -> "StopCondition":
        """The stop keys of a manifest; a malformed or out-of-range value is a
        :class:`FormatError`."""
        return build_record(StopCondition, params, STOP_KEYS, "stop condition", required=False)


def job_from_manifest(params: Mapping[str, str]) -> tuple[Objective, StopCondition]:
    """The objective and stop condition a manifest describes, or a FormatError."""
    return objective_from_manifest(params), StopCondition.from_manifest(params)


class ProposalRecord(NamedTuple):
    """One completed proposal: what :func:`evaluate_and_merge` returns and
    a run-log observer receives.

    ``worker`` proposed the change ``index`` -> ``new_value`` against the
    record of version ``base_version`` and measured ``measured``; ``time``
    is the job's clock when the merge returned.  ``committed_version`` and
    ``recorded_performance`` describe the record that ``outcome``
    COMMITTED wrote, and are None for every other outcome.
    """

    worker: str
    time: float
    base_version: int
    index: int
    new_value: int
    measured: float
    outcome: Outcome
    committed_version: int | None = None
    # The performance actually stored on commit; differs from ``measured``
    # for estimated (additively merged) records.
    recorded_performance: float | None = None


@dataclass(frozen=True)
class LoopReport:
    counts: WorkerTally  # this loop's completed proposals, by outcome
    aborted: int
    exit_reason: str

    @property
    def evaluations(self) -> int:
        return self.counts.evaluations


CancelCheck = Callable[[], bool]
Observer = Callable[[ProposalRecord], None]


def initialize(
    job: JobDirectory,
    initial_config: Config,
    objective: Objective,
    *,
    force: bool = False,
) -> BestState:
    """Evaluate the starting configuration and publish it as version 0.

    Initialization happens exactly once per job; a second call fails unless
    forced.
    """
    config = tuple(initial_config)
    validate_config(config, objective.length, objective.level_count)
    performance = objective.evaluate(config)
    state = BestState(
        version=0,
        config=config,
        performance=performance,
        estimated=False,
        updated_by="master",
        updated_at=job.clock.now(),
    )
    publish_initial(job, state, force=force)
    return state


def propose(base: BestState, objective: Objective, rng: random.Random) -> tuple[int, int]:
    """Pick a uniformly random single-element change.

    The index is uniform over the configuration; the new value is uniform
    over the other ``L - 1`` levels.  Deterministic given the stream state.
    """
    if objective.level_count < 2:
        raise ValueError("cannot propose changes with fewer than two levels")
    n = len(base.config)
    index = rng.randrange(n)
    offset = rng.randrange(1, objective.level_count)
    new_value = (base.config[index] + offset) % objective.level_count
    return index, new_value


def check_stop_during_evaluation(job: JobDirectory) -> bool:
    """Intermittent mid-evaluation check: keep going only while the signal is
    up.  An unreachable share reads as 'stop' so a dead link cannot strand a
    worker in a long computation."""
    try:
        return signal_exists(job)
    except CoordinationError:
        return False


def evaluate_and_merge(
    job: JobDirectory,
    base: BestState,
    change: tuple[int, int],
    objective: Objective,
    mode: OptimizerMode,
    *,
    proposer: str = "worker",
    cancel: CancelCheck | None = None,
) -> ProposalRecord:
    """Evaluate one change against the base the caller read, then merge it
    against the freshly re-read global best, and return the proposal's
    record.

    Raises :class:`EvaluationAborted` when a checkpoint (signal gone, or the
    caller's cancel check) interrupts the evaluation; nothing is written.
    The signal is read only where it can change the outcome: at checkpoints
    between slices of the evaluation, and once before a merge.  A not-better
    result writes nothing, so after the evaluation only ``cancel`` can void
    it.  A re-read record of another length than the base's comes from a
    re-init, and ends the merge REJECTED_STALE; a same-length one does not.
    """
    index, new_value = change
    candidate = base.config[:index] + (new_value,) + base.config[index + 1 :]

    def cancelled() -> bool:
        return cancel is not None and cancel()

    def checkpoint() -> bool:
        return not cancelled() and check_stop_during_evaluation(job)

    measured = objective.evaluate(candidate, checkpoint)
    if cancelled():
        raise EvaluationAborted("cancelled after evaluation")
    committed_version = recorded_performance = None  # set only by a commit
    if measured <= base.performance:
        outcome = Outcome.REJECTED_NOT_BETTER
    # The evaluation may be long; re-check before touching the shared state
    # so a stop between evaluate and merge discards the result.
    elif not check_stop_during_evaluation(job):
        raise EvaluationAborted("stop requested after evaluation")
    else:
        delta = measured - base.performance
        proposal = ChangeProposal(index=index, new_value=new_value, delta=delta, proposer=proposer)
        outcome = Outcome.REJECTED_STALE  # unless a commit lands within the retries
        latest = _io_retry(job, read_best, job)
        for _ in range(MERGE_MAX_RETRIES + 1):
            if len(latest.config) != len(base.config):  # the job was re-initialized
                break
            if latest.version == base.version:
                config, performance, estimated = candidate, measured, False
            elif latest.config[index] != base.config[index]:
                # Someone changed the very element we modified; our measurement
                # no longer describes any reachable configuration.
                outcome = Outcome.REJECTED_CONFLICT
                break
            elif mode is OptimizerMode.CHANGE_MERGE:
                config = latest.config[:index] + (new_value,) + latest.config[index + 1 :]
                performance, estimated = latest.performance + delta, True
            elif measured <= latest.performance:  # REPLACE_IF_BETTER: stale
                break
            else:
                config, performance, estimated = candidate, measured, False
            new_state = BestState(
                version=latest.version + 1,
                config=config,
                performance=performance,
                estimated=estimated,
                updated_by=proposer,
                updated_at=job.clock.now(),
            )
            try:
                result = commit_update(job, new_state, change=proposal)
            except LockContentionError as exc:
                # Under extreme coordination load the commit may never get its
                # turn; the measured result is then just another wasted analysis.
                log.warning("%s: giving up on commit: %s", proposer, exc)
                break
            if isinstance(result, Committed):
                outcome, stored = Outcome.COMMITTED, result.state
                committed_version, recorded_performance = stored.version, stored.performance
                break
            latest = result.current
    return ProposalRecord(proposer, job.clock.now(), base.version, index, new_value, measured,
                          outcome, committed_version, recorded_performance)


def _io_retry(job: JobDirectory, fn: Callable[..., object], *args):
    """``fn(*args)``, called again every ``IO_RETRY_BACKOFF`` seconds of the
    job's clock while it raises :class:`ShareUnreachableError`.  The error
    is raised once ``IO_RETRY_DEADLINE`` has passed since the first failure.
    The clock is read only after a failure, so a call that succeeds at once
    reads it not at all."""
    first_failure = None
    while True:
        try:
            return fn(*args)
        except ShareUnreachableError:
            now = job.clock.now()
            if first_failure is None:
                first_failure = now
            elif now - first_failure >= IO_RETRY_DEADLINE:
                raise
            job.clock.sleep(IO_RETRY_BACKOFF)


def work_loop(
    job: JobDirectory,
    worker_id: str,
    objective: Objective,
    mode: OptimizerMode,
    stop: StopCondition,
    cancel: CancelCheck | None = None,
    *,
    rng: random.Random | None = None,
    observer: Observer | None = None,
) -> LoopReport:
    """One worker's whole contribution to a job.

    Repeats check-signal / read-best / propose / evaluate / merge until the
    signal clears, a stop condition fires (in which case this worker clears
    the signal itself), or ``cancel`` reports true.  Transient share errors
    are retried briefly; a missing best.dat aborts with
    :class:`NotInitializedError`.

    Every proposal passes the same loop top.  The loop counts the completed
    proposals made against the version it last read; once that count
    reaches ``stop.stagnation_proposals``, changes come from an exhaustive
    sweep of the neighbors of that version instead of :func:`propose`.  An
    abort, any outcome other than not-better, or a new version at the loop
    top drops the sweep; while the version is unchanged, the next sweep
    starts again from the first neighbor.  A sweep that runs out has found
    every neighbor not better against a version that never moved: the job
    is at a local optimum, and this worker clears the signal.

    The loop counts its outcomes in memory and folds them into the worker's
    tally only when a sync needs one.  It syncs (writes its own tally if it
    changed, then re-reads the fleet's) at the first loop top, at the loop
    top after a commit, and otherwise at most once per
    ``TALLY_SYNC_INTERVAL``; it writes the tally once more on every normal
    exit.  The stop check counts every evaluation, folded or not.  The tally
    is cumulative per worker id: a loop that rejoins a job starts from the
    tally its earlier loops left there.
    """
    cancel = cancel or (lambda: False)
    rng = rng or random.Random()
    counts = list(WorkerTally())  # this loop's completed proposals, laid out as a tally
    aborted = 0
    joined = WorkerTally()  # the tally this worker id's earlier loops left
    flushed = joined  # the tally last written; an empty one is never written
    tallies = TallyReader(job)
    last_sync = -math.inf  # job-clock time of the last sync; -inf makes one due
    counted_version: int | None = None  # the version ``proposals`` count against
    proposals = 0
    sweep: Iterator[tuple[int, int]] | None = None  # neighbors left to try

    def flush() -> None:
        nonlocal flushed
        tally = WorkerTally.total((joined, counts))
        if tally != flushed:  # something was counted since the last write
            _io_retry(job, append_tally, job, worker_id, tally)
            flushed = tally

    def stop_now(best: BestState) -> bool:
        nonlocal last_sync, joined, flushed
        now = job.clock.now()
        # A wall clock stepped back also forces a sync, rather than none.
        if not 0.0 <= now - last_sync < TALLY_SYNC_INTERVAL:
            flush()
            _io_retry(job, tallies.refresh)
            if not flushed.evaluations:
                # Nothing counted yet: a worker re-entering the job under its
                # id counts on from its earlier loops' tally.
                joined = flushed = tallies.per_worker.get(worker_id, joined)
            last_sync = now
        fleet = tallies.evaluations_excluding(worker_id) + joined.evaluations + counts[0]
        return stop.satisfied(best.performance, fleet)

    while True:
        if cancel():
            exit_reason = "cancelled"
            break
        if not _io_retry(job, signal_exists, job):
            exit_reason = "signal_cleared"
            break
        base = _io_retry(job, read_best, job)
        if base.version != counted_version:
            counted_version, proposals, sweep = base.version, 0, None
        if stop_now(base):
            _io_retry(job, signal_clear, job)
            exit_reason = "stop_condition"
            break

        if stop.stagnation_proposals is None or proposals < stop.stagnation_proposals:
            change = propose(base, objective, rng)
        else:
            if sweep is None:
                sweep = neighbors(objective, base.config)
            change = next(sweep, None)
            if change is None:
                _io_retry(job, signal_clear, job)
                exit_reason = "stagnation"
                break

        try:
            record = evaluate_and_merge(
                job, base, change, objective, mode, proposer=worker_id, cancel=cancel
            )
        except EvaluationAborted:
            aborted += 1
            sweep = None
            continue
        proposals += 1
        kind = record.outcome
        counts[0] += 1
        counts[kind.slot] += 1
        if kind is Outcome.COMMITTED:
            last_sync = -math.inf
        elif kind is not Outcome.REJECTED_NOT_BETTER:
            sweep = None
        if log.isEnabledFor(logging.INFO):
            log.info("t=%.3f %s: base v%d change (%d -> %d) %s", record.time, worker_id,
                     record.base_version, record.index, record.new_value, kind.value)
        if observer is not None:
            observer(record)

    flush()
    return LoopReport(WorkerTally(*counts), aborted, exit_reason)
