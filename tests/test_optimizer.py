"""Hill-climbing protocol: init-once, proposals, the double-read merge."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingBackend
from support import brute_force_optimum, naive_replace
from idleclimb.coordination import (
    AlreadyInitializedError,
    BEST_FILE,
    ChangeProposal,
    FormatError,
    FsBackend,
    JobDirectory,
    LOCK_FILE,
    MemBackend,
    NotInitializedError,
    ShareUnreachableError,
    TALLY_KEYS,
    WorkerTally,
    commit_update,
    parse_best,
    read_best,
    read_commit_log,
    read_fleet_tally,
    serialize_best,
    signal_clear,
    signal_exists,
    signal_set,
)
from idleclimb import optimizer
from idleclimb.clock import VirtualClock
from idleclimb.objective import (
    EvaluationAborted,
    PhaseMaskObjective,
    neighbors,
)
from idleclimb.optimizer import (
    IO_RETRY_BACKOFF,
    IO_RETRY_DEADLINE,
    MERGE_MAX_RETRIES,
    TALLY_SYNC_INTERVAL,
    OptimizerMode,
    Outcome,
    StopCondition,
    check_stop_during_evaluation,
    evaluate_and_merge,
    initialize,
    propose,
    _io_retry,
    work_loop,
)
from idleclimb.simharness import ClockedObjective

OBJ8 = PhaseMaskObjective(length=8, level_count=2, target_order=1)


def apply_change(config, change):
    index, value = change
    return config[:index] + (value,) + config[index + 1 :]


class TestInitialize:
    def test_uniform_mask_order_zero_scores_one(self, mem_job):
        job = mem_job()
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        state = initialize(job, (0, 0, 0, 0), obj)
        assert state.version == 0
        assert state.performance == pytest.approx(1.0, abs=1e-15)
        assert not state.estimated

    def test_init_once_contract(self, mem_job):
        job = mem_job()
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        initialize(job, (0, 0, 0, 0), obj)
        before = job.backend.read_text(BEST_FILE)
        with pytest.raises(AlreadyInitializedError):
            initialize(job, (1, 1, 1, 1), obj)
        assert job.backend.read_text(BEST_FILE) == before

    def test_random_config_matches_direct_reevaluation(self, mem_job):
        job = mem_job()
        rng = random.Random(42)
        config = tuple(rng.randrange(2) for _ in range(8))
        state = initialize(job, config, OBJ8)
        assert state.performance == OBJ8.evaluate(config)


class TestPropose:
    def test_single_element_binary_change_is_forced(self):
        obj = PhaseMaskObjective(length=1, level_count=2, target_order=0)
        base = initialize_state(config=(0,))
        assert propose(base, obj, random.Random(0)) == (0, 1)

    def test_deterministic_given_stream(self):
        base = initialize_state(config=(0,) * 8)
        first = [propose(base, OBJ8, random.Random(99)) for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = random.Random(7)
            runs.append([propose(base, OBJ8, rng) for _ in range(50)])
        assert runs[0] == runs[1]
        del first

    def test_index_distribution_uniform_within_three_sigma(self):
        # n=4: sigma = sqrt(1e5 * 1/4 * 3/4) = 136.93, 3*sigma = 410.79
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        base = initialize_state(config=(0, 0, 0, 0))
        rng = random.Random(123)
        counts = [0, 0, 0, 0]
        draws = 100_000
        for _ in range(draws):
            index, _ = propose(base, obj, rng)
            counts[index] += 1
        for c in counts:
            assert abs(c - draws / 4) <= 410.8

    def test_new_value_never_equals_current(self):
        obj = PhaseMaskObjective(length=6, level_count=4, target_order=1)
        base = initialize_state(config=(0, 1, 2, 3, 0, 1))
        rng = random.Random(5)
        for _ in range(500):
            index, value = propose(base, obj, rng)
            assert value != base.config[index]
            assert 0 <= value < 4


def initialize_state(config, performance=0.0, version=0):
    from idleclimb.coordination import BestState

    return BestState(version=version, config=tuple(config), performance=performance,
                     estimated=False, updated_by="t", updated_at=0.0)


def fresh_job(mem_job, config=(0,) * 8, obj=OBJ8):
    job = mem_job()
    initialize(job, config, obj)
    signal_set(job)
    return job


class TestEvaluateAndMerge:
    def test_serial_improvement_commits_exact(self, mem_job):
        job = fresh_job(mem_job)
        base = read_best(job)
        change = (4, 1)  # toward the 00001111 optimum; strictly improving
        measured = OBJ8.evaluate(apply_change(base.config, change))
        assert measured > base.performance
        outcome = evaluate_and_merge(job, base, change, OBJ8,
                                     OptimizerMode.REPLACE_IF_BETTER, proposer="w")
        assert outcome.outcome is Outcome.COMMITTED
        now = read_best(job)
        assert now.version == 1
        assert now.performance == measured
        assert not now.estimated

    def test_not_better_rejected_without_write(self, mem_job):
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        job = mem_job()
        initialize(job, (0, 0, 0, 0), obj)  # already the global optimum for k=0
        signal_set(job)
        base = read_best(job)
        outcome = evaluate_and_merge(job, base, (0, 1), obj,
                                     OptimizerMode.REPLACE_IF_BETTER)
        assert outcome.outcome is Outcome.REJECTED_NOT_BETTER
        assert read_best(job).version == 0

    def test_same_index_conflict_rejected(self, mem_job):
        job = fresh_job(mem_job)
        stale_base = read_best(job)
        # A commits a change to index 4 while B holds the old record.
        a = evaluate_and_merge(job, stale_base, (4, 1), OBJ8,
                               OptimizerMode.CHANGE_MERGE, proposer="a")
        assert a.outcome is Outcome.COMMITTED
        b = evaluate_and_merge(job, stale_base, (4, 1), OBJ8,
                               OptimizerMode.CHANGE_MERGE, proposer="b")
        assert b.outcome is Outcome.REJECTED_CONFLICT
        now = read_best(job)
        assert now.version == 1
        assert now.config == apply_change(stale_base.config, (4, 1))

    def test_change_merge_combines_disjoint_changes_additively(self, mem_job):
        job = fresh_job(mem_job)
        base = read_best(job)
        change_a, change_b = (4, 1), (7, 1)
        delta_b = OBJ8.evaluate(apply_change(base.config, change_b)) - base.performance
        assert delta_b > 0
        a = evaluate_and_merge(job, base, change_a, OBJ8,
                               OptimizerMode.CHANGE_MERGE, proposer="a")
        b = evaluate_and_merge(job, base, change_b, OBJ8,
                               OptimizerMode.CHANGE_MERGE, proposer="b")
        assert b.outcome is Outcome.COMMITTED
        merged = read_best(job)
        assert merged.version == 2
        assert merged.config == apply_change(apply_change(base.config, change_a), change_b)
        assert merged.performance == a.recorded_performance + delta_b
        assert merged.estimated

    def test_only_a_commit_sets_the_committed_fields(self, mem_job):
        job = fresh_job(mem_job)
        base = read_best(job)
        a = evaluate_and_merge(job, base, (4, 1), OBJ8, OptimizerMode.CHANGE_MERGE)
        b = evaluate_and_merge(job, base, (7, 1), OBJ8, OptimizerMode.CHANGE_MERGE)
        conflict = evaluate_and_merge(job, base, (4, 1), OBJ8, OptimizerMode.CHANGE_MERGE)
        worse = evaluate_and_merge(job, read_best(job), (4, 0), OBJ8, OptimizerMode.CHANGE_MERGE)
        stored = read_best(job)
        assert (a.outcome, a.committed_version, a.recorded_performance) == (
            Outcome.COMMITTED, 1, a.measured)
        # b's record is an additive estimate: what was stored, not what b measured.
        assert (b.outcome, b.committed_version, b.recorded_performance) == (
            Outcome.COMMITTED, stored.version, stored.performance)
        assert stored.estimated and b.recorded_performance != b.measured
        stale_job = fresh_job(mem_job, config=(0, 0, 0, 0, 0, 0, 0, 1))
        stale_base = read_best(stale_job)
        evaluate_and_merge(stale_job, stale_base, (0, 1), OBJ8, OptimizerMode.REPLACE_IF_BETTER)
        stale = evaluate_and_merge(stale_job, stale_base, (1, 1), OBJ8,
                                   OptimizerMode.REPLACE_IF_BETTER)
        for rec, outcome in ((conflict, Outcome.REJECTED_CONFLICT),
                             (worse, Outcome.REJECTED_NOT_BETTER),
                             (stale, Outcome.REJECTED_STALE)):
            assert (rec.outcome, rec.committed_version, rec.recorded_performance) == (
                outcome, None, None)

    def test_replace_if_better_drops_concurrent_change_when_winning(self, mem_job):
        # From (0,0,0,0,0,0,0,1): flipping index 1 improves a little,
        # flipping index 0 improves a lot.
        job = fresh_job(mem_job, config=(0, 0, 0, 0, 0, 0, 0, 1))
        base = read_best(job)
        small, big = (1, 1), (0, 1)
        perf_small = OBJ8.evaluate(apply_change(base.config, small))
        perf_big = OBJ8.evaluate(apply_change(base.config, big))
        assert base.performance < perf_small < perf_big
        a = evaluate_and_merge(job, base, small, OBJ8,
                               OptimizerMode.REPLACE_IF_BETTER, proposer="a")
        assert a.outcome is Outcome.COMMITTED
        b = evaluate_and_merge(job, base, big, OBJ8,
                               OptimizerMode.REPLACE_IF_BETTER, proposer="b")
        assert b.outcome is Outcome.COMMITTED
        now = read_best(job)
        # b's whole-configuration replace wins on raw performance and loses
        # a's concurrent index-1 improvement: the documented trade-off.
        assert now.config == apply_change(base.config, big)
        assert now.performance == perf_big

    def test_replace_if_better_stale_when_latest_is_better(self, mem_job):
        job = fresh_job(mem_job, config=(0, 0, 0, 0, 0, 0, 0, 1))
        base = read_best(job)
        small, big = (1, 1), (0, 1)
        assert base.performance < OBJ8.evaluate(
            apply_change(base.config, small)
        ) < OBJ8.evaluate(apply_change(base.config, big))
        a = evaluate_and_merge(job, base, big, OBJ8,
                               OptimizerMode.REPLACE_IF_BETTER, proposer="a")
        assert a.outcome is Outcome.COMMITTED
        b = evaluate_and_merge(job, base, small, OBJ8,
                               OptimizerMode.REPLACE_IF_BETTER, proposer="b")
        assert b.outcome is Outcome.REJECTED_STALE
        assert read_best(job).config == apply_change(base.config, big)

    def test_cancel_between_evaluate_and_merge_discards(self, mem_job):
        job = fresh_job(mem_job)
        base = read_best(job)
        calls = {"n": 0}
        # Two slices of one second: one checkpoint between them.
        obj = ClockedObjective(OBJ8, job.clock, duration=2.0, checkpoint_fraction=0.5)

        def cancel_after_evaluation():
            # The first check is the checkpoint between the two slices; the
            # second is the pre-merge check.  Cancel only at the second.
            calls["n"] += 1
            return calls["n"] >= 2

        with pytest.raises(EvaluationAborted):
            evaluate_and_merge(job, base, (4, 1), obj,
                               OptimizerMode.REPLACE_IF_BETTER,
                               cancel=cancel_after_evaluation)
        assert calls["n"] == 2
        assert job.clock.now() == 2.0  # the whole evaluation ran
        assert read_best(job).version == 0


class RivalAtEveryLock(MemBackend):
    """Before each lock is taken, a rival commits the same configuration
    one version on, so every commit attempt is a version conflict."""

    def __init__(self):
        super().__init__()
        self.rivals = 0

    def create_exclusive(self, name, data):
        if name == LOCK_FILE:
            current = parse_best(self.read_text(BEST_FILE))
            self.write_atomic(BEST_FILE, serialize_best(
                replace(current, version=current.version + 1, updated_by="rival")))
            self.rivals += 1
        return super().create_exclusive(name, data)


@pytest.mark.parametrize("mode", list(OptimizerMode))
def test_stale_once_every_merge_retry_conflicts(mode):
    backend = RivalAtEveryLock()
    job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
    initialize(job, (0,) * 8, OBJ8)
    signal_set(job)
    base = read_best(job)
    outcome = evaluate_and_merge(job, base, (4, 1), OBJ8, mode, proposer="w")
    assert outcome.outcome is Outcome.REJECTED_STALE
    assert backend.rivals == MERGE_MAX_RETRIES + 1
    assert read_best(job).version == MERGE_MAX_RETRIES + 1
    assert read_best(job).updated_by == "rival"
    assert read_commit_log(job) == [] and not backend.exists(LOCK_FILE)


@pytest.mark.parametrize("base_version", [0, 1])
@pytest.mark.parametrize("mode", list(OptimizerMode))
def test_a_proposal_in_flight_across_a_reinit_is_stale(mem_job, mode, base_version):
    """During the evaluation of a change at element 12 of a 16-element job,
    the operator stops the job, re-initializes it with 8 elements and starts
    it again.  The merge must not index the new record by the old change
    (an IndexError at base version 1) nor commit the 16-element candidate
    into the new job (at base version 0, which the new job reuses)."""
    job = mem_job()
    obj16 = PhaseMaskObjective(length=16, level_count=4, target_order=3)
    obj8 = PhaseMaskObjective(length=8, level_count=4, target_order=3)
    base = initialize(job, (0,) * 16, obj16)
    signal_set(job)
    if base_version:
        base = replace(base, version=1, updated_by="other")
        commit_update(job, base, change=ChangeProposal(0, 0, 0.0, "other"))

    class Reinit:
        """obj16, with the operator's stop, re-init and start during it."""

        length, level_count, cost_hint = obj16.length, obj16.level_count, obj16.cost_hint

        def evaluate(self, config, checkpoint=None):
            signal_clear(job)
            initialize(job, (0,) * 8, obj8, force=True)
            signal_set(job)
            return obj16.evaluate(config, checkpoint)

    record = evaluate_and_merge(job, base, (12, 1), Reinit(), mode, proposer="w")
    assert record.measured > base.performance
    assert record.outcome is Outcome.REJECTED_STALE
    best = read_best(job)
    assert (best.version, best.config) == (0, (0,) * 8)
    assert read_commit_log(job) == []


@pytest.mark.parametrize("key", ["stop_max_evals", "stop_target", "stop_stagnation"])
def test_malformed_stop_value_is_a_format_error(key):
    with pytest.raises(FormatError, match=key):
        StopCondition.from_manifest({key: "soon"})


@pytest.mark.parametrize("key, value, named", [
    ("stop_max_evals", "-5", "max_total_evaluations"),
    # NaN fails every comparison: a NaN target never fired.
    ("stop_target", "nan", "target_performance"),
    ("stop_stagnation", "-1", "stagnation_proposals"),
])
def test_an_out_of_range_stop_value_is_a_format_error(key, value, named):
    with pytest.raises(FormatError, match=named):
        StopCondition.from_manifest({key: value})


def test_a_zero_budget_and_an_infinite_target_are_stop_conditions():
    stop = StopCondition(max_total_evaluations=0, target_performance=math.inf,
                         stagnation_proposals=0)
    assert stop.satisfied(0.5, 0) and not replace(stop, max_total_evaluations=1).satisfied(0.5, 0)


@settings(max_examples=100, deadline=None)
@given(st.builds(StopCondition,
                 max_total_evaluations=st.none() | st.integers(0, 10**12),
                 target_performance=st.none() | st.floats(allow_nan=False),
                 stagnation_proposals=st.none() | st.integers(0, 10**6)))
def test_stop_condition_manifest_round_trip(stop):
    assert StopCondition.from_manifest(stop.manifest_params()) == stop


class TestCheckStop:
    def test_signal_present_continue(self, mem_job):
        job = fresh_job(mem_job)
        assert check_stop_during_evaluation(job) is True

    def test_signal_cleared_stop(self, mem_job):
        job = mem_job()
        assert check_stop_during_evaluation(job) is False

    def test_unreachable_share_is_conservative_stop(self):
        job = JobDirectory(backend=FsBackend("/nonexistent/share"),
                           clock=VirtualClock(), job_id="x")
        assert check_stop_during_evaluation(job) is False


class CountingClock(VirtualClock):
    """A virtual clock that counts its reads and sleeps."""

    def __init__(self, start=0.0):
        super().__init__(start)
        self.reads = self.sleeps = 0

    def now(self):
        self.reads += 1
        return super().now()

    def sleep(self, duration):
        self.sleeps += 1
        super().sleep(duration)


class TestIoRetry:
    def job(self, clock):
        return JobDirectory(backend=MemBackend(), clock=clock, job_id="retry")

    def test_a_share_down_for_three_seconds_recovers(self):
        clock = CountingClock()

        def read(value):
            if clock.now() < 3.0:
                raise ShareUnreachableError("down")
            return value

        assert _io_retry(self.job(clock), read, "best") == "best"
        assert clock.sleeps == round(3.0 / IO_RETRY_BACKOFF)
        assert 3.0 <= clock.now() < 3.0 + IO_RETRY_BACKOFF

    def test_a_share_down_for_good_fails_a_deadline_after_the_first_failure(self):
        clock = CountingClock()
        failures = []

        def read():
            if not failures:
                clock.sleep(2.0)  # the first call hangs for 2 s, then fails
            failures.append(clock.now())
            raise ShareUnreachableError("down")

        with pytest.raises(ShareUnreachableError):
            _io_retry(self.job(clock), read)
        # The deadline runs from the first failure at 2 s, not from the call:
        # one backoff before each retry, until a failure comes a deadline on.
        backoffs = math.ceil(IO_RETRY_DEADLINE / IO_RETRY_BACKOFF)
        assert clock.sleeps == 1 + backoffs
        assert len(failures) == 1 + backoffs
        assert failures[0] == 2.0
        assert failures[-2] - 2.0 < IO_RETRY_DEADLINE <= failures[-1] - 2.0

    def test_a_first_time_success_reads_no_clock(self):
        clock = CountingClock()
        assert _io_retry(self.job(clock), divmod, 7, 2) == (3, 1)
        assert clock.reads == clock.sleeps == 0


class TestWorkLoop:
    def test_signal_absent_at_entry_returns_immediately(self, mem_job):
        job = mem_job()
        initialize(job, (0,) * 8, OBJ8)
        report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(), rng=random.Random(0))
        assert report.evaluations == 0
        assert report.exit_reason == "signal_cleared"

    def test_max_evaluations_one_then_self_stop(self, mem_job):
        job = fresh_job(mem_job)
        report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=1), rng=random.Random(0))
        assert report.evaluations == 1
        assert report.exit_reason == "stop_condition"
        assert not signal_exists(job)

    def test_not_initialized_aborts_distinctly(self, mem_job):
        job = mem_job()
        signal_set(job)
        with pytest.raises(NotInitializedError):
            work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                      StopCondition(max_total_evaluations=5), rng=random.Random(0))

    def test_cancellation_discards_in_flight_work(self, mem_job):
        job = fresh_job(mem_job)
        seen = {"checks": 0}
        # Ten slices of one second, with a checkpoint between each two.
        obj = ClockedObjective(OBJ8, job.clock, duration=10.0)

        def cancel():
            # Let the loop pass its entry check, then cancel at the first
            # evaluation's first checkpoint.
            seen["checks"] += 1
            return seen["checks"] > 1

        report = work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(), cancel, rng=random.Random(0))
        assert report.exit_reason == "cancelled"
        assert (report.aborted, report.evaluations) == (1, 0)
        assert job.clock.now() == 1.0  # one slice ran, then the abort
        assert read_best(job).version == 0  # nothing written

    @pytest.mark.parametrize("stagnation", [10, 0])
    def test_stagnation_exits_at_verified_local_optimum(self, mem_job, stagnation):
        obj = PhaseMaskObjective(length=6, level_count=2, target_order=1)
        job = mem_job()
        initialize(job, (0,) * 6, obj)
        signal_set(job)
        report = work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(stagnation_proposals=stagnation),
                           rng=random.Random(3))
        assert report.exit_reason == "stagnation"
        assert not signal_exists(job)
        final = read_best(job)
        for change in neighbors(obj, final.config):
            assert obj.evaluate(apply_change(final.config, change)) <= final.performance

    def test_a_new_version_drops_the_sweep(self, mem_job):
        job = mem_job()
        optimum = initialize(job, brute_force_optimum(OBJ8)[0], OBJ8)
        signal_set(job)

        class OtherWriter:
            """OBJ8, except that another worker commits a new version of
            the same record during the 6th evaluation."""

            length, level_count, cost_hint = OBJ8.length, OBJ8.level_count, OBJ8.cost_hint
            calls = 0

            def evaluate(self, config, checkpoint=None):
                self.calls += 1
                if self.calls == 6:
                    commit_update(job, replace(optimum, version=1, updated_by="other"),
                                  change=ChangeProposal(0, optimum.config[0], 0.0, "other"))
                return OBJ8.evaluate(config, checkpoint)

        seen = []
        report = work_loop(job, "w", OtherWriter(), OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(stagnation_proposals=2), rng=random.Random(0),
                           observer=seen.append)
        assert report.exit_reason == "stagnation"
        # 2 random proposals, 4 sweep steps, then no evaluation against the
        # old version: 2 random proposals and a full sweep of 8 at version 1.
        assert [r.base_version for r in seen] == [0] * 6 + [1] * 10
        assert report.evaluations == 16

    @pytest.mark.parametrize("nth", [2, 4])  # the merge re-read; the next loop top
    def test_one_failed_best_read_is_retried(self, mem_job, nth):
        inner = fresh_job(mem_job)

        class FailsOneBestRead:
            """The job's backend, except that its ``nth`` best.dat read fails."""

            reads = 0

            def read_text(self, name):
                if name == BEST_FILE:
                    self.reads += 1
                    if self.reads == nth:
                        raise ShareUnreachableError("share gone for one read")
                return inner.backend.read_text(name)

            def __getattr__(self, name):
                return getattr(inner.backend, name)

        backend = FailsOneBestRead()
        job = JobDirectory(backend=backend, clock=inner.clock, job_id=inner.job_id)
        seen = []
        report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=5), rng=random.Random(1),
                           observer=seen.append)
        assert seen[0].outcome is Outcome.COMMITTED  # so read 2 is the merge re-read
        assert backend.reads > nth
        assert report.exit_reason == "stop_condition"
        assert report.evaluations == 5

    def test_commit_tallies_match_version(self, mem_job):
        job = fresh_job(mem_job)
        report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=40), rng=random.Random(1))
        assert read_best(job).version == report.counts.commits
        assert report.evaluations == sum(report.counts[1:])

    def test_the_observer_receives_the_record_the_merge_returned(self, mem_job, monkeypatch):
        returned = []

        def spy(*args, **kwargs):
            returned.append(evaluate_and_merge(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(optimizer, "evaluate_and_merge", spy)
        seen = []
        work_loop(fresh_job(mem_job), "w", OBJ8, OptimizerMode.CHANGE_MERGE,
                  StopCondition(max_total_evaluations=30), rng=random.Random(3),
                  observer=seen.append)
        assert len(seen) == len(returned) == 30
        assert {rec.outcome for rec in seen} >= {Outcome.COMMITTED, Outcome.REJECTED_NOT_BETTER}
        assert all(rec is ret for rec, ret in zip(seen, returned))


class SleepingObjective:
    """Spends ``duration`` of virtual time per evaluation, then scores with
    the wrapped objective."""

    def __init__(self, inner, clock, duration):
        self._inner = inner
        self._clock = clock
        self._duration = duration
        self.length = inner.length
        self.level_count = inner.level_count
        self.cost_hint = inner.cost_hint

    def evaluate(self, config, checkpoint=None):
        self._clock.sleep(self._duration)
        return self._inner.evaluate(config, checkpoint)


def counted_job_at_optimum():
    """A counting job initialised at OBJ8's global optimum, so every
    proposal is not_better: the late phase of a job."""
    backend = CountingBackend(MemBackend())
    job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="late")
    initialize(job, brute_force_optimum(OBJ8)[0], OBJ8)
    signal_set(job)
    backend.ops.clear()
    return job, backend.ops


class TestProposalCost:
    def test_late_phase_costs_about_two_directory_operations(self):
        # 10 ms per evaluation: 10 s of job clock, so the interval sync
        # runs about ten times.
        job, ops = counted_job_at_optimum()
        budget = 1000
        report = work_loop(job, "w", SleepingObjective(OBJ8, job.clock, 0.01),
                           OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=budget),
                           rng=random.Random(2))
        assert report.evaluations == report.counts.rejects_not_better == budget
        assert sum(ops.values()) / budget <= 2.1
        assert ops["exists"] == budget + 1  # one signal read per loop top
        assert ops["read_text"] == budget + 1  # one best.dat read per loop top
        # One tally sync per second of job clock, plus the flush on exit.
        assert max(ops["read_tail"], ops["append_line"]) <= 10 + 1

    def test_tallies_sync_once_per_interval(self):
        job, ops = counted_job_at_optimum()
        duration = TALLY_SYNC_INTERVAL / 4
        work_loop(job, "w", SleepingObjective(OBJ8, job.clock, duration),
                  OptimizerMode.REPLACE_IF_BETTER, StopCondition(max_total_evaluations=40),
                  rng=random.Random(2))
        # Loop tops at t = 0, 0.25, ..., 10 sync at each whole second.  The
        # t = 0 sync has no evaluation to write, and the t = 10 sync precedes
        # the stop, so the exit has nothing new to write either.
        assert ops["read_tail"] == 11
        assert ops["append_line"] == 10

    def test_commit_syncs_at_the_next_loop_top(self, mem_job):
        inner = fresh_job(mem_job)
        job = JobDirectory(backend=CountingBackend(inner.backend), clock=inner.clock,
                           job_id=inner.job_id)
        report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=40), rng=random.Random(1))
        # The clock never moves, so only the first loop top and commits sync.
        assert report.counts.commits > 0
        assert job.backend.ops["read_tail"] == 1 + report.counts.commits


def _exit_via(reason, mem_job):
    """Run one loop on a fresh job until it exits for ``reason``."""
    if reason == "stagnation":
        obj = PhaseMaskObjective(length=6, level_count=2, target_order=1)
        job = fresh_job(mem_job, config=(0,) * 6, obj=obj)
        return job, work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER,
                              StopCondition(stagnation_proposals=10), rng=random.Random(3))
    job = fresh_job(mem_job)
    seen = []

    def observe(rec):
        seen.append(rec)
        if reason == "signal_cleared" and len(seen) == 7:
            signal_clear(job)  # an operator stop, seen at the next loop top

    stop = StopCondition(max_total_evaluations=23 if reason == "stop_condition" else None)
    report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER, stop,
                       (lambda: len(seen) >= 5) if reason == "cancelled" else None,
                       rng=random.Random(4), observer=observe)
    return job, report


def test_each_outcome_counts_into_its_tally_slot():
    assert [TALLY_KEYS[kind.slot] for kind in Outcome] == [
        "commits", "not_better", "conflict", "stale"]
    assert [WorkerTally._fields[kind.slot] for kind in Outcome] == [
        "commits", "rejects_not_better", "rejects_conflict", "rejects_stale"]


class TestTallySync:
    @pytest.mark.parametrize(
        "reason", ["signal_cleared", "stop_condition", "cancelled", "stagnation"]
    )
    def test_every_exit_flushes_the_tally(self, mem_job, reason):
        job, report = _exit_via(reason, mem_job)
        assert report.exit_reason == reason
        assert report.evaluations > 0
        assert read_fleet_tally(job)["w"] == report.counts

    def test_lone_worker_stops_at_exactly_the_budget(self, mem_job):
        budget = 37
        job = fresh_job(mem_job)
        report = work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=budget),
                           rng=random.Random(budget))
        assert report.exit_reason == "stop_condition"
        assert report.evaluations == budget
        assert read_fleet_tally(job)["w"].evaluations == budget

    def test_a_rejoining_worker_counts_on_from_its_earlier_loops(self, mem_job):
        job = fresh_job(mem_job)

        def loop(evaluations, seed):
            seen = []
            return work_loop(job, "w", OBJ8, OptimizerMode.REPLACE_IF_BETTER, StopCondition(),
                             lambda: len(seen) >= evaluations, rng=random.Random(seed),
                             observer=seen.append)

        first, second = loop(7, 1), loop(5, 2)
        assert (first.evaluations, second.evaluations) == (7, 5)
        assert read_fleet_tally(job)["w"] == WorkerTally.total((first.counts, second.counts))

    def test_not_better_result_after_a_stop_is_kept_without_touching_the_share(self, mem_job):
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        job = mem_job()
        initialize(job, (0, 0, 0, 0), obj)  # the global optimum for k=0
        base = read_best(job)  # the signal is already gone: a stop mid-evaluation
        counted = JobDirectory(backend=CountingBackend(job.backend), clock=job.clock,
                               job_id=job.job_id)
        outcome = evaluate_and_merge(counted, base, (0, 1), obj, OptimizerMode.REPLACE_IF_BETTER)
        assert outcome.outcome is Outcome.REJECTED_NOT_BETTER
        assert not counted.backend.ops


class TestInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_recorded_performance_strictly_increases(self, seed):
        for mode in OptimizerMode:
            job = _job_for_seed(seed)
            initial = read_best(job).performance
            committed = []
            work_loop(job, "w", OBJ8, mode,
                      StopCondition(max_total_evaluations=50),
                      rng=random.Random(seed),
                      observer=lambda rec: committed.append(rec)
                      if rec.outcome is Outcome.COMMITTED else None)
            versions = [rec.committed_version for rec in committed]
            assert versions == list(range(1, len(versions) + 1))
            recorded = [initial] + [rec.recorded_performance for rec in committed]
            assert all(b > a for a, b in zip(recorded, recorded[1:]))
            assert read_best(job).performance == recorded[-1]

    def test_serial_equivalence_of_modes(self):
        trajectories = {}
        for mode in OptimizerMode:
            job = _job_for_seed(1234)
            states = []
            work_loop(job, "w", OBJ8, mode,
                      StopCondition(max_total_evaluations=60),
                      rng=random.Random(77),
                      observer=lambda rec: states.append(rec))
            trajectories[mode] = [
                (r.base_version, r.index, r.new_value, r.measured, r.outcome,
                 r.committed_version)
                for r in states
            ]
        assert trajectories[OptimizerMode.REPLACE_IF_BETTER] == trajectories[
            OptimizerMode.CHANGE_MERGE
        ]

    def test_double_read_prevents_lost_update(self, mem_job):
        """The no-second-read style loses a committed concurrent improvement;
        the double-read merge keeps it."""
        change_a, change_b = (4, 1), (7, 1)

        # Naive: B overwrites with its stale base, losing A's index-4 change.
        job = fresh_job(mem_job)
        base = read_best(job)
        assert naive_replace(job, base, change_a, OBJ8, proposer="a") is not None
        assert read_best(job).config[4] == 1
        assert naive_replace(job, base, change_b, OBJ8, proposer="b") is not None
        lost = read_best(job)
        assert lost.config[4] == 0  # A's committed improvement vanished

        # Double read: the same interleaving preserves both changes.
        job2 = fresh_job(mem_job)
        base2 = read_best(job2)
        a = evaluate_and_merge(job2, base2, change_a, OBJ8,
                               OptimizerMode.CHANGE_MERGE, proposer="a")
        b = evaluate_and_merge(job2, base2, change_b, OBJ8,
                               OptimizerMode.CHANGE_MERGE, proposer="b")
        assert a.outcome is Outcome.COMMITTED and b.outcome is Outcome.COMMITTED
        kept = read_best(job2)
        assert kept.config[4] == 1 and kept.config[7] == 1


def _job_for_seed(seed):
    from idleclimb.coordination import MemBackend

    job = JobDirectory(backend=MemBackend(), clock=VirtualClock(), job_id=f"s{seed}")
    rng = random.Random(seed)
    config = tuple(rng.randrange(2) for _ in range(8))
    initialize(job, config, OBJ8)
    signal_set(job)
    return job


# The real worker's path over a real directory, bit for bit: sha256 over
# best.dat, changes.log, the loop report's values (evaluations, commits, the
# three reject counts, aborted and exit reason), the proposal records and the
# backend operation counts.  The clock advances 13 ms at every loop top, so
# timestamps move and the tally syncs on its interval.  A second worker
# proposes against a base it read 20 loop tops earlier at every 40th, so the
# two modes part ways.
WORKER_PINS = {
    "change_merge": "eb6d7018451a866f2ff939ed23fd2f111fe032e359bfeac10aaf1cd4b048a996",
    "replace_if_better": "0167c2d172cbccad74c942a7f218949c8de7211722c8288751b639f1324e450a",
}


@pytest.mark.parametrize("mode", sorted(WORKER_PINS))
def test_real_worker_path_is_pinned(fs_job, mode):
    import hashlib

    from idleclimb.coordination import CHANGES_FILE
    from idleclimb.objective import initial_config

    job = fs_job("pin")
    obj = PhaseMaskObjective(length=64, level_count=4, target_order=3)
    mode = OptimizerMode.parse(mode)
    initialize(job, initial_config(obj, "random", 5), obj)
    signal_set(job)
    backend = CountingBackend(job.backend)
    job = replace(job, backend=backend)
    other_rng, other_base, tops = random.Random(6), None, 0

    def tick():
        nonlocal other_base, tops
        tops += 1
        job.clock.sleep(0.013)
        if tops % 40 == 20:
            other_base = read_best(job)
        elif tops % 40 == 0:
            change = propose(other_base, obj, other_rng)
            evaluate_and_merge(job, other_base, change, obj, mode, proposer="x")
        return False

    records = []
    report = work_loop(job, "w", obj, mode, StopCondition(max_total_evaluations=2000), tick,
                       rng=random.Random(5), observer=records.append)
    assert report.evaluations == 2000
    values = (*report.counts, report.aborted, report.exit_reason)
    digest = hashlib.sha256()
    for part in (
        backend.read_text(BEST_FILE),
        backend.read_text(CHANGES_FILE),
        repr(values),
        repr(records),
        repr(sorted(backend.ops.items())),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    assert digest.hexdigest() == WORKER_PINS[mode.value]
