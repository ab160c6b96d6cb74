"""Shared-directory protocol: atomicity, CAS, locks, crash and race behavior."""

import contextlib
import errno
import multiprocessing
import os
import random
import re
import sys
import tempfile
import threading
import time
import types
from dataclasses import replace

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import CrashInjected, CrashInjectionBackend
from idleclimb import coordination
from idleclimb.clock import VirtualClock, WallClock
from idleclimb.coordination import (
    BEST_FILE,
    CHANGES_FILE,
    LOCK_FILE,
    MANIFEST_FILE,
    PROTOCOL_FILES,
    AlreadyInitializedError,
    BestState,
    ChangeProposal,
    Committed,
    FormatError,
    FsBackend,
    JobDirectory,
    LockContentionError,
    MemBackend,
    NotInitializedError,
    ShareUnreachableError,
    TallyReader,
    VersionConflict,
    WorkerTally,
    _parse_lock,
    acquire_lock,
    append_tally,
    commit_update,
    parse_best,
    parse_fields,
    publish_initial,
    read_best,
    read_commit_log,
    read_fleet_tally,
    read_manifest,
    release_lock,
    serialize_best,
    signal_clear,
    signal_exists,
    signal_set,
    write_manifest,
)
from idleclimb.objective import PhaseMaskObjective, from_manifest
from idleclimb.optimizer import OptimizerMode, StopCondition, initialize, work_loop
from idleclimb.simharness import parse_scenario
from idleclimb.worker import parse_worker_config


def state(version=0, config=(0, 0, 0, 0), performance=1.0, estimated=False,
          updated_by="t", updated_at=0.0):
    return BestState(version=version, config=tuple(config), performance=performance,
                     estimated=estimated, updated_by=updated_by, updated_at=updated_at)


def proposal(index=0, new_value=1, delta=0.5, proposer="w"):
    return ChangeProposal(index=index, new_value=new_value, delta=delta, proposer=proposer)


class TestSignal:
    def test_set_then_exists(self, mem_job):
        job = mem_job()
        assert not signal_exists(job)
        signal_set(job)
        assert signal_exists(job)

    def test_set_is_idempotent(self, mem_job):
        job = mem_job()
        signal_set(job)
        signal_set(job)
        assert signal_exists(job)

    def test_clear_and_idempotence(self, mem_job):
        job = mem_job()
        signal_set(job)
        signal_clear(job)
        assert not signal_exists(job)
        signal_clear(job)  # no error
        assert not signal_exists(job)

    def test_unreachable_share_is_an_error_not_false(self):
        job = JobDirectory(backend=FsBackend("/nonexistent/share/job"),
                           clock=VirtualClock(), job_id="gone")
        with pytest.raises(ShareUnreachableError):
            signal_exists(job)

    def test_unwritable_directory_raises_with_path_context(self, tmp_path):
        # A path whose parent is a regular file fails even when running as
        # root (unlike permission bits).
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("plain file")
        job = JobDirectory(backend=FsBackend(str(blocker / "job")),
                           clock=VirtualClock(), job_id="bad")
        with pytest.raises(ShareUnreachableError, match="job"):
            signal_set(job)

    def test_concurrent_clears_both_succeed(self, fs_job):
        job = fs_job()
        for _ in range(50):
            signal_set(job)
            errors = []

            def clear():
                try:
                    signal_clear(job)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=clear) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert not signal_exists(job)


class TestBestRecord:
    def test_round_trip_exact(self):
        original = state(version=12, config=(3, 1, 2, 0, 1), performance=0.1 + 0.2,
                         estimated=True, updated_by="pc-7:991", updated_at=123.456789012345)
        parsed = parse_best(serialize_best(original))
        assert parsed == original  # bit-exact, including the float fields

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    @settings(max_examples=200)
    def test_performance_serialization_value_exact(self, value):
        record = state(version=1, performance=value, estimated=True)
        assert parse_best(serialize_best(record)).performance == value

    def test_serialized_bytes_are_pinned(self):
        record = state(version=12, config=(3, 1, 2, 0, 1), performance=0.1 + 0.2,
                       estimated=True, updated_by="pc-7:991", updated_at=1760000000.25)
        assert serialize_best(record) == (
            "version=12\nperformance=0.30000000000000004\nestimated=1\n"
            "updated_by=pc-7:991\nupdated_at=1760000000.25\nn=5\nconfig=3 1 2 0 1\n"
            "checksum=2ddcf1925783b03c\n")

    @given(record=st.builds(
        BestState,
        version=st.integers(1, 10**9),
        config=st.lists(st.integers(0, 300), min_size=1, max_size=12).map(tuple),
        performance=st.floats(allow_nan=False, allow_infinity=False),
        estimated=st.booleans(),
        updated_by=st.from_regex(r"[A-Za-z0-9:._-]{1,12}", fullmatch=True),
        updated_at=st.floats(0, 1e10),
    ), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_single_character_edit_is_rejected(self, record, data):
        text = serialize_best(record)
        # Any position before the final newline: text after the checksum
        # line is not read, and the newline ending it is optional.
        at = data.draw(st.integers(0, len(text) - 2), label="at")
        edit = data.draw(st.sampled_from(["substitute", "insert", "delete"]), label="edit")
        char = data.draw(st.sampled_from(" \t\r\n#=-.0123456789abcdef") | st.characters(),
                         label="char")
        if edit == "substitute":
            assume(char != text[at])
            edited = text[:at] + char + text[at + 1:]
        elif edit == "insert":
            edited = text[:at] + char + text[at:]
        else:
            edited = text[:at] + text[at + 1:]
        with pytest.raises(FormatError):
            parse_best(edited)

    def test_read_missing_is_not_initialized(self, mem_job):
        with pytest.raises(NotInitializedError):
            read_best(mem_job())

    def test_publish_initial_then_read(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=0.25))
        got = read_best(job)
        assert got.version == 0 and got.performance == 0.25 and not got.estimated

    def test_double_initialize_rejected(self, mem_job):
        job = mem_job()
        publish_initial(job, state())
        with pytest.raises(AlreadyInitializedError):
            publish_initial(job, state())
        publish_initial(job, state(performance=2.0), force=True)
        assert read_best(job).performance == 2.0

    def test_corrupt_checksum_rejected_naming_line(self, mem_job):
        job = mem_job()
        publish_initial(job, state())
        text = job.backend.read_text(BEST_FILE).replace("performance=1", "performance=2")
        job.backend.write_atomic(BEST_FILE, text)
        with pytest.raises(FormatError, match="checksum"):
            read_best(job)

    def test_corrupted_rewrite_of_a_cached_record_still_rejected(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        good = job.backend.read_text(BEST_FILE)
        first = read_best(job)
        assert read_best(job) == first  # the unchanged text is served from the memo
        corrupt = good.replace("performance=1", "performance=2")
        assert len(corrupt) == len(good) and corrupt != good
        job.backend.write_atomic(BEST_FILE, corrupt)
        for _ in range(2):  # a rejected text is not memoised either
            with pytest.raises(FormatError, match="checksum"):
                read_best(job)
        job.backend.write_atomic(BEST_FILE, good)
        assert read_best(job) == first

    def test_malformed_line_named(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_best("garbage without equals\n")

    def test_missing_checksum_line(self):
        with pytest.raises(FormatError, match="checksum"):
            parse_best("version=0\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda body: body.replace("estimated=0\n", ""), "missing estimated= line"),
        (lambda body: body.replace("version=0", "version=zero"),
         "best.dat: version='zero': invalid literal"),
        (lambda body: body.replace("n=4", "n=5"), "expected 5 values, got 4"),
        (lambda body: body.replace("version=0", "version=-1"),
         "best.dat: version must be non-negative"),
    ], ids=["missing_key", "non_numeric", "n_mismatch", "negative_version"])
    def test_a_record_with_a_valid_checksum_is_still_checked(self, edit, message):
        body = edit(serialize_best(state()).rsplit("checksum=", 1)[0])
        with pytest.raises(FormatError, match=message):
            parse_best(body + f"checksum={coordination._checksum(body)}\n")

    def test_version_zero_cannot_be_estimated(self):
        with pytest.raises(ValueError):
            state(version=0, estimated=True)

    def test_non_finite_performance_rejected(self):
        with pytest.raises(ValueError):
            state(performance=float("nan"))
        with pytest.raises(ValueError):
            state(performance=float("inf"))


class TestCommit:
    def test_cas_success(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        result = commit_update(job, state(version=1, performance=1.5, updated_by="w"),
                               change=proposal())
        assert isinstance(result, Committed)
        assert read_best(job).version == 1
        assert len(read_commit_log(job)) == 1

    def test_cas_conflict_leaves_file_unchanged(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        for v in range(5):
            commit_update(job, state(version=v + 1, performance=1.0 + v + 1), change=proposal())
        before = job.backend.read_text(BEST_FILE)
        result = commit_update(job, state(version=4, performance=9.0), change=proposal())
        assert isinstance(result, VersionConflict)
        assert result.current.version == 5
        assert job.backend.read_text(BEST_FILE) == before

    def test_version_precondition(self, mem_job):
        """A record that does not follow the stored version is a conflict,
        and nothing is written."""
        job = mem_job()
        publish_initial(job, state())
        before = job.backend.read_text(BEST_FILE)
        for version in (0, 2):
            result = commit_update(job, state(version=version, performance=2.0),
                                   change=proposal())
            assert isinstance(result, VersionConflict)
            assert result.current.version == 0
        assert job.backend.read_text(BEST_FILE) == before
        assert read_commit_log(job) == []
        assert not job.backend.exists(LOCK_FILE)

    def test_commit_log_format(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        commit_update(job, state(version=1, performance=1.5),
                      change=proposal(index=2, new_value=1, delta=0.5, proposer="pc1"))
        log = read_commit_log(job)
        assert log == [(1, 2, 1, 0.5, "pc1")]

    def test_lines_of_another_field_count_are_skipped(self, mem_job):
        job = mem_job()
        for line in ("1 2 3", "1 2 1 0.5 w1", "2 0 1 0.25 w1 extra"):
            job.backend.append_line(CHANGES_FILE, line)
        assert read_commit_log(job) == [(1, 2, 1, 0.5, "w1")]

    def test_a_torn_final_commit_line_is_not_a_commit(self, mem_job):
        job = mem_job()
        # The last append was cut inside the proposer id "desk07".
        job.backend.write_atomic(CHANGES_FILE, "1 2 1 0.5 w1\n2 4 0 0.5 des")
        assert read_commit_log(job) == [(1, 2, 1, 0.5, "w1")]
        job.backend.write_atomic(CHANGES_FILE, "1 2 1 0.5 w1\n2 4 0 0.5 desk07\n")
        assert read_commit_log(job) == [(1, 2, 1, 0.5, "w1"), (2, 4, 0, 0.5, "desk07")]

    def test_only_the_lines_after_the_last_init_line_count(self, mem_job):
        job = mem_job()
        for line in ("1 2 x 0.5 w1", "#tally w1 evals=5 commits=1 not_better=4 conflict=0 stale=0",
                     "#init", "1 2 1 0.5 w1", "#init", "1 3 1 0.5 w2", " #init", "#init ",
                     "#tally w2 evals=2 commits=2 not_better=0 conflict=0 stale=0",
                     "2 1 0 0.5 #init"):  # a proposer id is not an init line
            job.backend.append_line(CHANGES_FILE, line)
        assert read_commit_log(job) == [(1, 3, 1, 0.5, "w2"), (2, 1, 0, 0.5, "#init")]
        assert read_fleet_tally(job) == {"w2": WorkerTally(evaluations=2, commits=2)}
        job.backend.append_line(CHANGES_FILE, "3 1 x 0.5 w2")
        with pytest.raises(FormatError, match="line 11 "):  # numbered from the file's start
            read_commit_log(job)

    def test_a_malformed_commit_line_is_a_format_error(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        commit_update(job, state(version=1, performance=1.5), change=proposal())
        job.backend.append_line(CHANGES_FILE, "1 2 x 0.5 w1")
        number = len(job.backend.read_text(CHANGES_FILE).splitlines())
        with pytest.raises(FormatError, match=f"line {number} "):
            read_commit_log(job)

    def test_reader_never_sees_torn_record(self, fs_job):
        """One writer committing, two readers hammering read_best: every read
        parses cleanly and versions never go backwards (1000+ reads)."""
        job = fs_job()
        publish_initial(job, state(performance=0.0))
        stop = threading.Event()
        failures = []
        read_counts = [0, 0]

        def reader(slot):
            last = -1
            while not stop.is_set() or read_counts[slot] < 1000:
                try:
                    got = read_best(job)
                except FormatError as exc:
                    failures.append(exc)
                    break
                if got.version < last:
                    failures.append(AssertionError("version went backwards"))
                    break
                last = got.version
                read_counts[slot] += 1
                if read_counts[slot] >= 2000:
                    break

        def writer():
            for v in range(300):
                commit_update(job, state(version=v + 1, performance=float(v + 1),
                                         updated_by="writer", updated_at=float(v)),
                              change=proposal(proposer="writer"))
            stop.set()

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
        wt = threading.Thread(target=writer)
        for t in threads:
            t.start()
        wt.start()
        wt.join()
        for t in threads:
            t.join()
        assert failures == []
        assert sum(read_counts) >= 1000
        assert read_best(job).version == 300


class TestLock:
    def test_acquire_creates_lock_file(self, mem_job):
        job = mem_job()
        handle = acquire_lock(job, "a")
        assert job.backend.exists(LOCK_FILE)
        release_lock(job, handle)
        assert not job.backend.exists(LOCK_FILE)

    def test_fresh_lock_excludes_until_deadline(self, mem_job, monkeypatch):
        monkeypatch.setattr(coordination, "STALE_AFTER", 1000.0)
        job = mem_job()
        acquire_lock(job, "b")
        start = job.clock.now()
        with pytest.raises(LockContentionError, match="held by b"):
            acquire_lock(job, "a")
        assert job.clock.now() - start >= coordination.LOCK_DEADLINE

    def test_stale_lock_broken_and_logged(self, mem_job, caplog):
        job = mem_job()
        job.clock.sleep(500.0)  # now = 500
        stale = acquire_lock(job, "dead")
        del stale
        job.clock.sleep(300.0)  # 10x older than STALE_AFTER
        with caplog.at_level("WARNING"):
            handle = acquire_lock(job, "alive")
        assert handle.owner == "alive"
        assert any("breaking stale lock" in r.message for r in caplog.records)

    @pytest.mark.parametrize("declared", ["stale_after=1000\n", ""])
    def test_stale_lock_judged_by_protocol_constant(self, mem_job, declared):
        """The breaker ignores the holder's declared stale_after, and a lock
        without one parses: either is broken once older than STALE_AFTER."""
        job = mem_job()
        job.backend.create_exclusive(LOCK_FILE, f"owner=old\nacquired_at=0\n{declared}")
        assert _parse_lock(job.backend.read_text(LOCK_FILE)).owner == "old"
        job.clock.sleep(coordination.STALE_AFTER + 1.0)
        start = job.clock.now()
        handle = acquire_lock(job, "new")
        assert handle.owner == "new" and job.clock.now() == start
        assert _parse_lock(job.backend.read_text(LOCK_FILE)) == handle

    @pytest.mark.parametrize("text", ["", "owner=w1\nacquired_at=soon\n", "garbled"])
    def test_an_unparsable_lock_is_broken_at_once(self, mem_job, caplog, text):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        job.backend.write_atomic(LOCK_FILE, text)  # left by a crash or a hand edit
        with caplog.at_level("WARNING"):
            result = commit_update(job, state(version=1, performance=2.0), change=proposal())
        assert isinstance(result, Committed) and read_best(job).version == 1
        assert job.clock.now() < coordination.LOCK_DEADLINE
        assert not job.backend.exists(LOCK_FILE)
        assert any("breaking stale lock held by <unknown>" in r.message for r in caplog.records)

    def test_lock_file_keeps_its_format(self, mem_job):
        job = mem_job()
        acquire_lock(job, "a")
        fields = parse_fields(job.backend.read_text(LOCK_FILE), LOCK_FILE)
        assert fields == {"owner": "a", "acquired_at": "0",
                          "stale_after": f"{coordination.STALE_AFTER:.17g}"}

    def test_release_after_break_is_noop(self, mem_job, caplog):
        job = mem_job()
        handle = acquire_lock(job, "a")
        job.clock.sleep(100.0)
        other = acquire_lock(job, "b")  # breaks a's stale lock
        with caplog.at_level("WARNING"):
            release_lock(job, handle)  # must not remove b's lock
        assert job.backend.exists(LOCK_FILE)
        release_lock(job, other)
        assert not job.backend.exists(LOCK_FILE)

    def test_double_release_is_noop(self, mem_job):
        job = mem_job()
        handle = acquire_lock(job, "a")
        release_lock(job, handle)
        release_lock(job, handle)  # second call: warning only

    def test_kill_between_acquire_and_write_recovers(self, tmp_path, monkeypatch):
        """A worker killed while holding the lock must not wedge the fleet:
        the next committer breaks the stale lock and proceeds, and the best
        record still holds the pre-crash value."""
        monkeypatch.setattr(coordination, "STALE_AFTER", 0.5)
        path = str(tmp_path / "job")
        job = JobDirectory.create(path, "kill")
        publish_initial(job, state(performance=1.0))

        ready = multiprocessing.Event()
        child = multiprocessing.Process(target=_hold_lock_forever, args=(path, ready))
        child.start()
        assert ready.wait(timeout=10.0)
        os.kill(child.pid, 9)
        child.join(timeout=10.0)

        assert read_best(job).performance == 1.0  # pre-crash record intact
        result = commit_update(job, state(version=1, performance=2.0), change=proposal())
        assert isinstance(result, Committed)
        assert read_best(job).version == 1


def _hold_lock_forever(path, ready):
    job = JobDirectory(backend=FsBackend(path), clock=WallClock(), job_id="kill")
    acquire_lock(job, "doomed")
    ready.set()
    time.sleep(60.0)


class TestCrashInjection:
    def test_crash_at_every_op_leaves_valid_committed_record(self, tmp_path):
        """Deterministic sweep over every primitive-op boundary inside
        commit_update; the stored record must always parse and equal a
        previously committed record (the big randomized fuzz lives in the
        acceptance suite)."""
        for fail_after in range(0, 9):
            path = str(tmp_path / f"j{fail_after}")
            plain = JobDirectory.create(path, "crash")
            publish_initial(plain, state(performance=1.0))
            committed = {serialize_best(state(performance=1.0))}
            next_state = state(version=1, performance=2.0)
            wrapped = JobDirectory(
                backend=CrashInjectionBackend(FsBackend(path), fail_after),
                clock=VirtualClock(), job_id="crash",
            )
            try:
                result = commit_update(wrapped, next_state, change=proposal())
                if isinstance(result, Committed):
                    committed.add(serialize_best(next_state))
            except CrashInjected:
                # The rename is the commit point; landing is also valid.
                committed.add(serialize_best(next_state))
            stored = read_best(plain)
            assert serialize_best(stored) in committed
            # Recovery: a later writer breaks any leftover lock and commits.
            follow_up = state(version=stored.version + 1, performance=9.0, updated_by="next")
            recovery_clock = VirtualClock(1000.0)
            recovered = JobDirectory(backend=FsBackend(path), clock=recovery_clock,
                                     job_id="crash")
            result = commit_update(recovered, follow_up, change=proposal(proposer="next"))
            assert isinstance(result, Committed)


class TestCasSoundness:
    def test_concurrent_threads_one_winner_per_version(self, tmp_path, monkeypatch):
        # Real clock: contention backoff and stale-age math need real sleeps
        # once several threads race the same lock.
        monkeypatch.setattr(coordination, "LOCK_BACKOFF", 0.002)
        job = JobDirectory.create(str(tmp_path / "cas"), "cas")
        publish_initial(job, state(performance=0.0))
        rounds = 25
        workers = 4
        outcomes = [[None] * workers for _ in range(rounds)]
        barrier = threading.Barrier(workers)

        def contender(slot):
            for r in range(rounds):
                barrier.wait()
                result = commit_update(
                    job, state(version=r + 1, performance=float(r + 1), updated_by=f"t{slot}"),
                    change=proposal(proposer=f"t{slot}"),
                )
                outcomes[r][slot] = result

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in range(rounds):
            wins = [o for o in outcomes[r] if isinstance(o, Committed)]
            losses = [o for o in outcomes[r] if isinstance(o, VersionConflict)]
            assert len(wins) == 1, f"round {r}: {len(wins)} winners"
            assert len(losses) == workers - 1
        assert read_best(job).version == rounds


class TestTallyAndManifest:
    def test_tally_round_trip_and_fleet_sum(self, mem_job):
        job = mem_job()
        append_tally(job, "w1", WorkerTally(evaluations=3, commits=1))
        append_tally(job, "w2", WorkerTally(evaluations=5, rejects_stale=2))
        append_tally(job, "w1", WorkerTally(evaluations=9, commits=2, rejects_conflict=1))
        tallies = read_fleet_tally(job)
        assert tallies["w1"].evaluations == 9 and tallies["w1"].commits == 2
        assert tallies["w2"].rejects_stale == 2
        assert sum(t.evaluations for t in tallies.values()) == 14

    def test_tally_line_is_exact(self, mem_job):
        job = mem_job()
        append_tally(job, "w1", WorkerTally(9, 2, 5, 1, 1))
        assert job.backend.read_text(CHANGES_FILE) == (
            "#tally w1 evals=9 commits=2 not_better=5 conflict=1 stale=1\n")

    def test_total_sums_each_count(self):
        assert WorkerTally.total([]) == WorkerTally()
        assert WorkerTally.total((WorkerTally(3, 1, 2), [4, 0, 1, 2, 1])) == (7, 1, 3, 2, 1)

    def test_tally_lines_do_not_count_as_commits(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        append_tally(job, "w1", WorkerTally(evaluations=1))
        commit_update(job, state(version=1, performance=2.0), change=proposal())
        append_tally(job, "w1", WorkerTally(evaluations=2))
        assert len(read_commit_log(job)) == 1

    def test_manifest_round_trip(self, fs_job):
        job = fs_job(job_id="jobbie")
        write_manifest(job, {"objective": "phase_mask", "n": "8", "levels": "2",
                             "target_order": "1", "stop_max_evals": "100"})
        params = read_manifest(job)
        assert params["job_id"] == "jobbie"
        assert params["n"] == "8" and params["stop_max_evals"] == "100"

    def test_a_missing_manifest_is_a_format_error(self, fs_job):
        with pytest.raises(FormatError, match="manifest.dat missing"):
            read_manifest(fs_job())

    def test_open_requires_manifest_job_id(self, tmp_path):
        path = tmp_path / "j"
        path.mkdir()
        (path / "manifest.dat").write_text("objective=phase_mask\n")
        with pytest.raises(FormatError, match="job_id"):
            JobDirectory.open(str(path))

    def test_open_reads_job_id(self, tmp_path):
        job = JobDirectory.create(str(tmp_path / "j"), "the-job")
        write_manifest(job, {})
        assert JobDirectory.open(str(tmp_path / "j")).job_id == "the-job"


def _manifest_from(text):
    job = JobDirectory(backend=MemBackend(), clock=VirtualClock(), job_id="")
    job.backend.write_atomic(MANIFEST_FILE, text)
    return read_manifest(job)


# Every key=value reader but best.dat's: (parse, the error's source name or
# None for a lenient reader, lines each text needs, a key and how to read its
# value back from the parsed result).
CODEC_READERS = {
    "manifest": (_manifest_from, "manifest.dat", "", "n", lambda r: r["n"]),
    "scenario": (parse_scenario, "scenario", "worker=id=a\n", "job_id",
                 lambda r: r.setup.job_id),
    "config": (parse_worker_config, "config", "job=/j\n", "worker_id",
               lambda r: r.worker_id),
    "lock": (_parse_lock, None, "acquired_at=1\nstale_after=30\n", "owner",
             lambda r: r.owner),
}


class _ChunkedLog(MemBackend):
    """A directory whose changes.log is visible only up to ``visible``
    characters, so a reader sees the appended lines cut at any offset.  Like
    every backend, its tail reads return the whole lines of what is visible."""

    def __init__(self):
        super().__init__()
        self.visible = 0

    def read_tail(self, name, offset):
        data = self.read_text(name)[: self.visible]
        end = data.rfind("\n", offset) + 1 or offset
        return data[offset:end], end


class _TailCounting(MemBackend):
    """A directory that counts the characters its tail reads return."""

    def __init__(self):
        super().__init__()
        self.tail_chars = 0

    def read_tail(self, name, offset):
        tail, end = super().read_tail(name, offset)
        self.tail_chars += len(tail)
        return tail, end


class _UnhashableTailCounting(_TailCounting):
    """A tail-counting directory that cannot be hashed."""

    __hash__ = None


class _Overtaken(MemBackend):
    """A directory that runs ``overtake`` once, after the next tail read
    and before the reader gets its result."""

    overtake = None

    def read_tail(self, name, offset):
        result = super().read_tail(name, offset)
        hook, self.overtake = self.overtake, None
        if hook is not None:
            hook()
        return result


worker_ids = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda s: not any(c.isspace() for c in s))
tallies = st.builds(WorkerTally, *[st.integers(0, 10**12)] * 5)


class TestTallyReader:
    @settings(max_examples=80, deadline=None)
    @given(
        writes=st.lists(st.one_of(st.tuples(worker_ids, tallies), st.just(None),
                                  st.just("init")),
                        min_size=1, max_size=25),
        cuts=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6)), max_size=12),
    )
    def test_chunked_reads_give_each_workers_last_tally(self, writes, cuts):
        # Three readers share one backend, and so one fold; each sees the log
        # cut at its own offsets, in increasing order, interleaved as drawn.
        # A reader behind the fold reads a tail that overlaps what is folded,
        # forced inits included.
        backend = _ChunkedLog()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        expected = {}
        for write in writes:
            if write is None:
                backend.append_line(CHANGES_FILE, "3 1 2 0.5 #init")  # a commit by "#init"
            elif write == "init":
                backend.append_line(CHANGES_FILE, "#init")  # as a forced init on any handle
                expected = {}
            else:
                append_tally(job, *write)
                expected[write[0]] = write[1]
        total = len(backend.read_text(CHANGES_FILE))
        readers = [TallyReader(job) for _ in range(3)]
        own = [iter(sorted(c % (total + 1) for r, c in cuts if r == i)) for i in range(3)]
        schedule = [(r, next(own[r])) for r, _ in cuts] + [(i, total) for i in range(3)]
        for i, cut in schedule:
            backend.visible = cut
            reader = readers[i]
            reader.refresh()
            log = backend.read_text(CHANGES_FILE)
            assert reader.per_worker == line_by_line_tally(log[:reader._fold.end])
            # Longer than any generated id: a worker with no tally line yet.
            tallies = reader.per_worker
            for worker_id in [*tallies, "no-line-yet"]:
                others = sum(t.evaluations for w, t in tallies.items() if w != worker_id)
                assert reader.evaluations_excluding(worker_id) == others
        for reader in readers:
            assert reader.per_worker == expected

    def test_each_reader_answers_as_of_its_own_last_refresh(self, mem_job):
        job = mem_job()
        append_tally(job, "w1", WorkerTally(evaluations=3))
        a, b = TallyReader(job), TallyReader(job)
        a.refresh()
        append_tally(job, "w2", WorkerTally(evaluations=5, commits=1))
        b.refresh()  # past a: the shared fold now holds w2
        assert b.per_worker == {"w1": WorkerTally(evaluations=3),
                                "w2": WorkerTally(evaluations=5, commits=1)}
        assert a.per_worker == {"w1": WorkerTally(evaluations=3)}
        assert a.evaluations_excluding("w1") == 0
        assert a.evaluations_excluding("w2") == 3
        a.refresh()
        assert a.per_worker == b.per_worker
        assert a.evaluations_excluding("w1") == 5
        # A fresh reader on a backend whose fold is ahead reads the whole log.
        assert TallyReader(job)._fold is a._fold
        assert read_fleet_tally(job) == b.per_worker

    def test_a_forced_publish_initial_gives_the_new_logs_tallies(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        commit_update(job, state(version=1, performance=2.0), change=proposal())
        for i in range(3):
            append_tally(job, f"w{i}", WorkerTally(evaluations=10 + i))
        assert len(read_fleet_tally(job)) == 3
        old = job.backend.read_text(CHANGES_FILE)
        publish_initial(job, state(performance=0.5), force=True)
        assert job.backend.read_text(CHANGES_FILE) == old + "#init\n"
        assert read_fleet_tally(job) == {} and read_commit_log(job) == []
        append_tally(job, "w9", WorkerTally(evaluations=2))
        reader = TallyReader(job)
        reader.refresh()
        assert reader.per_worker == {"w9": WorkerTally(evaluations=2)}
        assert reader.evaluations_excluding("w0") == 2
        append_tally(job, "w8", WorkerTally(evaluations=4))
        reader.refresh()
        assert reader.per_worker == {"w9": WorkerTally(evaluations=2),
                                     "w8": WorkerTally(evaluations=4)}

    def test_readers_on_one_backend_read_each_character_once(self):
        backend = _TailCounting()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        readers = [TallyReader(job) for _ in range(3)]
        expected = {}
        for i in range(30):
            tally = WorkerTally(evaluations=i, commits=i % 3)
            append_tally(job, f"w{i % 4}", tally)
            expected[f"w{i % 4}"] = tally
            if i % 4 == 0:
                backend.append_line(CHANGES_FILE, f"{i} 1 2 0.5 w1")  # a commit line
            readers[i % 3].refresh()
        for reader in readers:
            reader.refresh()
            assert reader.per_worker == expected
        assert backend.tail_chars == len(backend.read_text(CHANGES_FILE))
        publish_initial(job, state(), force=True)
        append_tally(job, "w9", WorkerTally(evaluations=1))
        fresh = TallyReader(job)
        fresh.refresh()
        assert fresh.per_worker == {"w9": WorkerTally(evaluations=1)}
        assert fresh.evaluations_excluding("w9") == 0

    def test_a_read_overtaken_by_a_later_refresh_keeps_the_later_tallies(self):
        # As a simulated reader parks inside its tail read: another reader
        # refreshes past it before its read is folded.
        backend = _Overtaken()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        append_tally(job, "w1", WorkerTally(evaluations=1))
        slow, fast = TallyReader(job), TallyReader(job)
        backend.overtake = lambda: (append_tally(job, "w1", WorkerTally(evaluations=2)),
                                    fast.refresh())
        slow.refresh()
        assert slow.per_worker == fast.per_worker == {"w1": WorkerTally(evaluations=2)}
        assert slow._fold.end == len(backend.read_text(CHANGES_FILE))
        assert read_fleet_tally(job) == {"w1": WorkerTally(evaluations=2)}

    def test_a_reader_behind_the_fold_takes_it_and_never_rewinds_it(self):
        backend = _ChunkedLog()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        for i in range(4):
            append_tally(job, f"w{i}", WorkerTally(evaluations=i + 1))
        total = len(backend.read_text(CHANGES_FILE))
        line = total // 4
        ahead, behind = TallyReader(job), TallyReader(job)
        backend.visible = line
        behind.refresh()
        assert behind.per_worker == {"w0": WorkerTally(evaluations=1)}
        backend.visible = total
        ahead.refresh()
        backend.visible = 2 * line  # ends before the fold's end
        behind.refresh()
        assert behind.per_worker == ahead.per_worker
        assert behind.evaluations_excluding("w3") == 6
        assert behind._fold.end == total
        backend.visible = total
        behind.refresh()
        assert behind.per_worker == ahead.per_worker
        assert behind._fold.end == total

    def test_file_readers_share_a_fold_across_byte_and_character_offsets(self, fs_job):
        job = fs_job()
        append_tally(job, "w\u00e9", WorkerTally(evaluations=4))
        append_tally(job, "w1", WorkerTally(evaluations=1))
        first, second = TallyReader(job), TallyReader(job)
        first.refresh()
        append_tally(job, "w2", WorkerTally(evaluations=2))
        second.refresh()  # from offset 0: a tail that is not ASCII
        append_tally(job, "w1", WorkerTally(evaluations=7))
        # An ASCII tail from a byte offset past the two-byte character: it
        # is sliced where the fold ends, in bytes.
        first.refresh()
        expected = {"w\u00e9": WorkerTally(evaluations=4), "w1": WorkerTally(evaluations=7),
                    "w2": WorkerTally(evaluations=2)}
        assert first.per_worker == expected
        second.refresh()
        assert second.per_worker == expected
        assert second.evaluations_excluding("w2") == 11

    @pytest.mark.parametrize("hashable", [True, False], ids=["hashable", "unhashable"])
    def test_readers_share_their_handles_fold_and_a_second_handle_folds_alone(self, hashable):
        backend = _TailCounting() if hashable else _UnhashableTailCounting()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        append_tally(job, "w1", WorkerTally(evaluations=2))
        size = len(backend.read_text(CHANGES_FILE))
        a, b = TallyReader(job), TallyReader(job)
        a.refresh()
        b.refresh()
        assert a._fold is b._fold
        assert backend.tail_chars == size
        # Equal to the first handle, on the same backend object, and alone.
        second = replace(job)
        assert second == job
        c = TallyReader(second)
        c.refresh()
        assert c._fold is not a._fold
        assert backend.tail_chars == 2 * size
        assert a.per_worker == b.per_worker == c.per_worker == {"w1": WorkerTally(evaluations=2)}

    def test_a_reader_made_before_a_forced_init_reads_the_new_log(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        for i in range(3):
            append_tally(job, f"w{i}", WorkerTally(evaluations=101))
        reader = TallyReader(job)
        reader.refresh()
        assert reader.evaluations_excluding("w9") == 303
        publish_initial(job, state(performance=0.5), force=True)
        append_tally(job, "w9", WorkerTally(evaluations=2))
        reader.refresh()
        assert reader.per_worker == {"w9": WorkerTally(evaluations=2)}
        assert reader.evaluations_excluding("w9") == 0

    @pytest.mark.parametrize("backend", ["mem", "fs"])
    def test_a_reader_on_another_handle_reads_the_new_log_after_a_forced_init(
            self, mem_job, fs_job, backend):
        job = mem_job() if backend == "mem" else fs_job()
        publish_initial(job, state(performance=1.0))
        for i in range(3):
            append_tally(job, f"w{i}", WorkerTally(evaluations=1000))
        reader = TallyReader(job)
        reader.refresh()
        assert reader.evaluations_excluding("w9") == 3000
        other = replace(job)  # a second handle on the same backend object
        publish_initial(other, state(performance=0.5), force=True)
        for n in range(1, 41):
            append_tally(other, "w9", WorkerTally(evaluations=n))
        reader.refresh()
        assert reader.per_worker == {"w9": WorkerTally(evaluations=40)}
        assert reader.evaluations_excluding("w9") == 0
        assert reader.evaluations_excluding("w0") == 40
        assert read_fleet_tally(job) == read_fleet_tally(other) == reader.per_worker

    def test_a_refresh_overlapping_a_forced_init_reports_what_its_read_saw(self):
        backend = _Overtaken()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        publish_initial(job, state(performance=1.0))
        for i in range(3):
            append_tally(job, f"w{i}", WorkerTally(evaluations=101))

        def reinit():
            publish_initial(job, state(performance=0.5), force=True)
            append_tally(job, "w9", WorkerTally(evaluations=2))

        backend.overtake = reinit
        reader = TallyReader(job)
        reader.refresh()  # its tail is the old job's, read before the init
        assert reader.per_worker == {f"w{i}": WorkerTally(evaluations=101) for i in range(3)}
        assert read_fleet_tally(job) == {"w9": WorkerTally(evaluations=2)}
        reader.refresh()
        assert reader.per_worker == {"w9": WorkerTally(evaluations=2)}
        assert reader._fold.end == len(backend.read_text(CHANGES_FILE))

    def test_readers_on_threads_sharing_one_backend_agree(self, fs_job):
        job = fs_job()
        rounds, workers = 60, 4
        results = [None] * workers

        def worker(slot):
            reader = TallyReader(job)
            for r in range(rounds):
                append_tally(job, f"w{slot}", WorkerTally(evaluations=r + 1))
                reader.refresh()
                tallies = reader.per_worker
                assert tallies[f"w{slot}"].evaluations == r + 1
                others = sum(t.evaluations for w, t in tallies.items() if w != f"w{slot}")
                assert reader.evaluations_excluding(f"w{slot}") == others
            barrier.wait()
            reader.refresh()
            results[slot] = reader.per_worker

        barrier = threading.Barrier(workers)
        errors = []

        def run(slot):
            try:
                worker(slot)
            except BaseException as exc:  # re-raised on the test's thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        # Switch threads often, so that refreshes interleave between taking
        # the fold's end and folding the tail read from it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        expected = {f"w{i}": WorkerTally(evaluations=rounds) for i in range(workers)}
        assert results == [expected] * workers

    def test_a_torn_final_line_waits_for_the_next_refresh(self, mem_job, fs_job):
        for job in (mem_job(), fs_job()):
            append_tally(job, "w1", WorkerTally(evaluations=4))
            append_tally(job, "w2", WorkerTally(evaluations=7, commits=2))
            log = job.backend.read_text(CHANGES_FILE)
            job.backend.write_atomic(CHANGES_FILE, log[:-3])  # w2's append, half written
            reader = TallyReader(job)
            reader.refresh()
            assert reader.per_worker == {"w1": WorkerTally(evaluations=4)}
            reader.refresh()
            assert "w2" not in reader.per_worker
            job.backend.write_atomic(CHANGES_FILE, log)
            reader.refresh()
            assert reader.per_worker["w2"] == WorkerTally(evaluations=7, commits=2)

    def test_a_tally_torn_inside_a_character_waits_for_the_rest(self, fs_job):
        job = fs_job()
        append_tally(job, "w\u00e9", WorkerTally(evaluations=4))
        log_path = os.path.join(job.path, CHANGES_FILE)
        with open(log_path, "ab") as fh:
            fh.write(b"#tally w\xc3")  # cut inside the two bytes of U+00E9
        reader = TallyReader(job)
        reader.refresh()
        assert reader.per_worker == {"w\u00e9": WorkerTally(evaluations=4)}
        assert read_commit_log(job) == []
        with open(log_path, "ab") as fh:
            fh.write(b"\xa9 evals=5 commits=0 not_better=0 conflict=0 stale=0\n")
        reader.refresh()
        assert reader.per_worker == {"w\u00e9": WorkerTally(evaluations=5)}

    @pytest.mark.parametrize("line", [
        "#tally w1 evals=9 commits=0 not_better=0 conflict=0",
        "#tally w1 evals=-3 commits=0 not_better=0 conflict=0 stale=0",
        "#tally w1 evals=9 commits=0 not_better=0 conflict=0 stale=0 extra=1",
        "#tally w1 commits=0 evals=9 not_better=0 conflict=0 stale=0",
        "#tally w1 evals=9 commits=0 not_better=0 conflict=0 stale=x",
    ])
    def test_a_malformed_line_neither_parses_nor_overrides(self, mem_job, line):
        job = mem_job()
        append_tally(job, "w1", WorkerTally(evaluations=5, commits=1))
        job.backend.append_line(CHANGES_FILE, line)
        job.backend.append_line(CHANGES_FILE, line.replace("w1", "w2"))
        assert read_fleet_tally(job) == {"w1": WorkerTally(evaluations=5, commits=1)}

    def test_commit_lines_are_skipped(self, mem_job):
        job = mem_job()
        publish_initial(job, state(performance=1.0))
        commit_update(job, state(version=1, performance=2.0), change=proposal())
        append_tally(job, "w", WorkerTally(evaluations=2, commits=1))
        commit_update(job, state(version=2, performance=3.0), change=proposal())
        assert len(read_commit_log(job)) == 2
        assert read_fleet_tally(job) == {"w": WorkerTally(evaluations=2, commits=1)}

    @settings(max_examples=80, deadline=None)
    @given(
        writes=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["w1", "w2", "w3", "w4"]), st.integers(0, 40)),
                st.sampled_from([
                    "3 1 2 0.5 w1",
                    "#tally w2 evals=99 commits=0",
                    "#tally w3 evals=-5 commits=0 not_better=0 conflict=0 stale=0",
                    "#tally w4 evals=77 commits=0 not_better=0 conflict=0 stale=x",
                ]),
            ),
            min_size=1, max_size=30,
        ),
        cuts=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_the_running_total_matches_the_per_worker_tallies(self, writes, cuts):
        # Counts go down as well as up, and malformed lines name real ids.
        backend = _ChunkedLog()
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
        for write in writes:
            if isinstance(write, str):
                backend.append_line(CHANGES_FILE, write)
            else:
                append_tally(job, write[0], WorkerTally(evaluations=write[1], commits=1))
        total = len(backend.read_text(CHANGES_FILE))
        reader = TallyReader(job)
        for cut in sorted(c % (total + 1) for c in cuts) + [total]:
            backend.visible = cut
            reader.refresh()
            tallies = reader.per_worker
            for worker_id in ("w1", "w2", "w3", "w4", "w5"):
                others = sum(t.evaluations for w, t in tallies.items() if w != worker_id)
                assert reader.evaluations_excluding(worker_id) == others
        last = {w: n for w, n in (x for x in writes if not isinstance(x, str))}
        assert {w: t.evaluations for w, t in reader.per_worker.items()} == last


def line_by_line_tally(text):
    """Each worker's last well-formed tally line after the last ``#init``
    line, read one line at a time with no regular expression: the reference
    for :func:`read_fleet_tally`."""
    keys = ("evals", "commits", "not_better", "conflict", "stale")
    latest = {}
    for line in text.split("\n")[:-1]:  # what follows the last newline is torn
        if line == "#init":
            latest = {}
        parts = line.split(" ")
        if (len(parts) != 2 + len(keys) or parts[0] != "#tally" or not parts[1]
                or any(c.isspace() for c in parts[1])):
            continue
        counts = []
        for key, part in zip(keys, parts[2:]):
            name, eq, digits = part.partition("=")
            if name != key or not eq or not digits or not set(digits) <= set("0123456789"):
                break
            counts.append(int(digits))
        else:
            latest[parts[1]] = WorkerTally(*counts)
    return latest


def random_log_line(rng):
    """A tally line, a commit line, now and then an ``#init`` line, or one of
    the near misses a parser must skip."""
    if rng.random() < 0.001:
        return "#init"
    worker_id = rng.choice(["w1", "w2", "w\u00e9", "a=b", "w#3", "w\r", "w\x0b", ""]) + str(
        rng.randrange(40))
    counts = [rng.choice([0, 7, 10**12, rng.randrange(1000)]) for _ in range(5)]
    tally = f"#tally {worker_id} {WorkerTally(*counts).text()}"
    return rng.choice([
        tally, tally, tally, tally,
        f"{rng.randrange(99)} 3 2 0.5 {worker_id}",
        tally.replace("evals=", "evals=-", 1),
        tally.replace("stale=", "stale=\u0663", 1),  # an Arabic-Indic digit
        tally.replace(" commits=", "  commits=", 1),
        tally.replace("#tally ", "#tally  ", 1),
        tally + " extra=1",
        tally + "\r",
        tally.rsplit(" ", 1)[0],
        tally.replace("not_better", "notbetter", 1),
        " " + tally,
        tally.replace("conflict=", "conflict=00", 1),
        f"{rng.randrange(99)} 3 2 0.5 #init",
        rng.choice(["#init ", " #init", "#init\r", "#initial", "#init" + tally]),
    ])


# Shrinking a seed finds no smaller log, so a failure is reported as drawn.
@settings(max_examples=5, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), torn=st.booleans())
def test_a_10000_line_log_reads_as_line_by_line(seed, torn):
    rng = random.Random(seed)
    text = "".join(random_log_line(rng) + "\n" for _ in range(10_000))
    if torn:
        text += random_log_line(rng)[:20]
    backend = MemBackend()
    backend.write_atomic(CHANGES_FILE, text)
    job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="t")
    expected = line_by_line_tally(text)
    assert read_fleet_tally(job) == expected
    reader = TallyReader(job)
    reader.refresh()
    for worker_id in [*expected, "no-line-yet"]:
        others = sum(t.evaluations for w, t in expected.items() if w != worker_id)
        assert reader.evaluations_excluding(worker_id) == others


backend_names = st.sampled_from(["a", "b", "c.log"])
backend_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
backend_ops = st.one_of(
    st.tuples(st.just("append_line"), backend_names, backend_text),
    st.tuples(st.just("write_atomic"), backend_names,
              st.text(st.sampled_from("ab =\n#7"), max_size=20)),
    st.tuples(st.just("create_exclusive"), backend_names, backend_text),
    st.tuples(st.just("remove"), backend_names),
    st.tuples(st.just("exists"), backend_names),
    st.tuples(st.just("read_text"), backend_names),
    st.tuples(st.just("read_tail"), backend_names, st.integers(0, 40)),
)


class TestBackendEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(backend_ops, min_size=1, max_size=30))
    def test_memory_and_filesystem_backends_give_identical_results(self, ops):
        with tempfile.TemporaryDirectory() as path:
            backends = (MemBackend(), FsBackend(path))
            for op in ops:
                results = []
                for backend in backends:
                    try:
                        results.append(getattr(backend, op[0])(*op[1:]))
                    except FileNotFoundError:
                        results.append(FileNotFoundError)
                assert results[0] == results[1], op


@pytest.mark.parametrize("reader", sorted(CODEC_READERS))
class TestKeyValueCodec:
    def parse(self, reader, body):
        parse, _, needed, key, value_of = CODEC_READERS[reader]
        return value_of(parse(needed + body.format(key=key)))

    def test_blank_and_comment_lines_are_skipped(self, reader):
        assert self.parse(reader, "\n# note\n   \n{key}=x\n  # indented\n\n") == "x"

    def test_keys_and_values_are_stripped(self, reader):
        assert self.parse(reader, "  {key} =  x  \n") == "x"

    def test_a_duplicate_key_takes_the_last_value(self, reader):
        assert self.parse(reader, "{key}=x\n{key}=y\n") == "y"

    def test_a_line_without_equals_names_source_and_line(self, reader):
        parse, source, needed, key, _ = CODEC_READERS[reader]
        text = f"{needed}{key}=x\nno equals sign\n"
        if source is None:
            assert parse(text) is None
            return
        line = len(text.splitlines())
        with pytest.raises(FormatError, match=f"{source} line {line}:") as exc:
            parse(text)
        assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("parse, text, named", [
    (parse_scenario, "worker=id=a\nn=abc\n", "n='abc'"),
    (parse_scenario, "worker=id=a\nt_io=fast\n", "t_io='fast'"),
    (parse_scenario, "worker=id=a\nstop_target=soon\n", "stop_target='soon'"),
    (parse_scenario, "worker=id=a\nclear_signal_at=soon\n", "clear_signal_at='soon'"),
    (parse_scenario, "worker=id=a speed=fast\n", "speed='fast'"),
    (parse_scenario, "worker=id=a avail=5\n", "avail='5'"),
    (parse_worker_config, "job=/j\npoll_interval=often\n", "poll_interval='often'"),
    (parse_worker_config, "job=/j\ndaily_start=ab:cd\n", "daily_start='ab:cd'"),
    (parse_worker_config, "job=/j\nmode=fast\n", "mode='fast'"),
    (lambda text: from_manifest(parse_fields(text, MANIFEST_FILE)),
     "objective=phase_mask\nn=8\nlevels=two\ntarget_order=1\n", "levels='two'"),
], ids=["scenario_objective", "scenario_sim", "scenario_stop", "scenario_clear",
        "worker_speed", "worker_avail", "config_float", "config_time", "config_mode",
        "manifest_objective"])
def test_a_malformed_value_is_a_format_error_naming_key_and_value(parse, text, named):
    with pytest.raises(FormatError, match=re.escape(named)):
        parse(text)


class TestRepeatedKeys:
    def test_repeated_keys_keep_their_order(self):
        assert parse_fields("k=2\nother=1\nk=1\n", "src", frozenset({"k"})) == {
            "k": ["2", "1"], "other": "1"}
        assert parse_fields("", "src", frozenset({"k"})) == {"k": []}

    def test_scenario_workers_and_kills_keep_their_order(self):
        scenario = parse_scenario("worker=id=b\nworker=id=a\nkill=a@2\nkill=b@1\n")
        assert [w.id for w in scenario.fleet] == ["b", "a"]
        assert scenario.kill_schedule == (("a", 2.0), ("b", 1.0))

    def test_config_jobs_keep_their_order(self):
        assert parse_worker_config("job=/b\njob = /a\n").jobs == ("/b", "/a")


class TestMemBackendSemantics:
    def test_matches_fs_for_tail_reads(self, tmp_path):
        mem = MemBackend()
        fs = FsBackend(str(tmp_path))
        for backend in (mem, fs):
            backend.append_line("log", "one")
            backend.append_line("log", "two")
        m_text, m_off = mem.read_tail("log", 0)
        f_text, f_off = fs.read_tail("log", 0)
        assert m_text == f_text and m_off == f_off
        mem.append_line("log", "three")
        fs.append_line("log", "three")
        assert mem.read_tail("log", m_off) == fs.read_tail("log", f_off)

    @pytest.mark.parametrize("kind", ["mem", "fs"])
    def test_tail_reads_return_whole_lines_only(self, tmp_path, kind):
        backend = MemBackend() if kind == "mem" else FsBackend(str(tmp_path))
        backend.write_atomic("log", "one\ntw")  # the append of "two" half written
        assert backend.read_tail("log", 0) == ("one\n", 4)
        assert backend.read_tail("log", 4) == ("", 4)
        backend.write_atomic("log", "one\ntwo\nthr")  # the rest of "two" lands
        assert backend.read_tail("log", 4) == ("two\n", 8)
        for offset in (8, 10, 11, 20):  # no newline after the offset
            assert backend.read_tail("log", offset) == ("", offset)
        assert backend.read_tail("missing", 3) == ("", 3)

    @pytest.mark.parametrize("raw", [b"a=1\r\nb=2\r\n", b"bad \xff byte\n", "cut é".encode()[:-1]])
    def test_fs_read_text_matches_a_text_mode_read(self, tmp_path, raw):
        (tmp_path / "f").write_bytes(raw)
        with open(tmp_path / "f", "r", encoding="utf-8", errors="replace", newline="") as fh:
            expected = fh.read()
        assert FsBackend(str(tmp_path)).read_text("f") == expected

    def test_fs_exists_tells_missing_from_unreachable(self, tmp_path):
        (tmp_path / "present").write_text("")
        (tmp_path / "plain").write_text("")
        assert FsBackend(str(tmp_path)).exists("present") is True
        assert FsBackend(str(tmp_path)).exists("missing") is False
        for path in (tmp_path / "gone", tmp_path / "plain"):
            with pytest.raises(ShareUnreachableError):
                FsBackend(str(path)).exists("present")

    def test_fs_remove_tells_missing_from_unreachable(self, fs_job):
        job = fs_job()
        signal_set(job)
        signal_clear(job)
        signal_clear(job)  # a missing file in a present directory: already removed
        signal_set(job)
        moved = job.path + ".away"
        os.rename(job.path, moved)
        with pytest.raises(ShareUnreachableError, match="unreachable"):
            signal_clear(job)
        os.rename(moved, job.path)
        assert signal_exists(job)

    def test_fs_append_to_a_vanished_directory_is_unreachable(self, fs_job):
        job = fs_job()
        os.rmdir(job.path)
        unreachable = f"job directory unreachable: {re.escape(job.path)}$"
        with pytest.raises(ShareUnreachableError, match=unreachable):
            append_tally(job, "w1", WorkerTally(evaluations=1))

    @pytest.mark.parametrize("operation", ["write_atomic", "create_exclusive"])
    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, operation):
        failure = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def failing_write(data):
            raise failure

        @contextlib.contextmanager
        def open_where_writes_fail(path, *args, **kwargs):
            with open(path, *args, **kwargs):  # the file is created, the write fails
                yield types.SimpleNamespace(write=failing_write)

        monkeypatch.setattr(coordination, "open", open_where_writes_fail, raising=False)
        with pytest.raises(ShareUnreachableError, match="No space left"):
            getattr(FsBackend(str(tmp_path)), operation)(BEST_FILE, "version=0\n")
        assert os.listdir(tmp_path) == []
        # Anything but an OSError propagates as it is, and takes the temp file too.
        failure = KeyboardInterrupt()
        with pytest.raises(KeyboardInterrupt):
            getattr(FsBackend(str(tmp_path)), operation)(BEST_FILE, "version=0\n")
        assert os.listdir(tmp_path) == []

    def test_create_exclusive(self):
        mem = MemBackend()
        assert mem.create_exclusive("x", "1")
        assert not mem.create_exclusive("x", "2")
        assert mem.read_text("x") == "1"


def _buffered_read_text(path):
    """FsBackend.read_text as a buffered ``open(..., "rb")`` read did it."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", "replace")


def _buffered_read_tail(path, offset):
    """FsBackend.read_tail as a buffered ``open(..., "rb")`` read does it:
    the bytes from ``offset`` through the last newline."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            raw = fh.read()
    except FileNotFoundError:
        return "", offset
    raw = raw[: raw.rfind(b"\n") + 1]
    return raw.decode("utf-8", "replace"), offset + len(raw)


class Ascending:
    """An objective whose every evaluation beats the last: every proposal
    commits."""

    def __init__(self, length, level_count):
        self.length, self.level_count, self.cost_hint = length, level_count, 1.0
        self.calls = 0

    def evaluate(self, config, checkpoint=None):
        self.calls += 1
        return float(self.calls)


# Over one 64 KiB read, the file has an "é" (two bytes) across the boundary.
RAW_FILES = {
    "empty": b"",
    "over_one_chunk": ("xy" + "line é\n" * 20_000).encode(),
    "crlf": b"a=1\r\nb=2\r\n",
    "bad_byte": b"bad \xff byte\n",
    "cut_character": "cut é".encode()[:-1],
}


class TestRawReads:
    @pytest.mark.parametrize("kind", sorted(RAW_FILES))
    def test_reads_match_a_buffered_read(self, tmp_path, kind):
        raw = RAW_FILES[kind]
        (tmp_path / "f").write_bytes(raw)
        backend = FsBackend(str(tmp_path))
        assert backend.read_text("f") == _buffered_read_text(tmp_path / "f")
        # 8 is inside the first "é" of the long file.
        for offset in {0, 1, 8, len(raw) // 2, max(len(raw) - 1, 0), len(raw), len(raw) + 5}:
            assert backend.read_tail("f", offset) == _buffered_read_tail(tmp_path / "f", offset)

    def test_a_missing_file_and_a_removed_directory(self, tmp_path):
        job_dir = tmp_path / "job"
        job_dir.mkdir()
        backend = FsBackend(str(job_dir))
        with pytest.raises(FileNotFoundError):
            backend.read_text("missing")
        assert backend.read_tail("missing", 7) == ("", 7)
        job_dir.rmdir()
        with pytest.raises(ShareUnreachableError, match="unreachable"):
            backend.read_text("missing")
        with pytest.raises(ShareUnreachableError, match="unreachable"):
            backend.read_tail("missing", 0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_leaks(self, tmp_path):
        (tmp_path / "job").mkdir()
        (tmp_path / "job" / "f").write_bytes(RAW_FILES["over_one_chunk"])
        (tmp_path / "plain").write_text("")
        present = FsBackend(str(tmp_path / "job"))
        reads = [
            lambda: present.read_text("f"),
            lambda: present.read_tail("f", 3),
            lambda: present.read_tail("missing", 0),
            lambda: present.read_text("."),  # opens, then fails to read
            lambda: present.read_text("missing"),
            lambda: FsBackend(str(tmp_path / "gone")).read_text("f"),
            lambda: FsBackend(str(tmp_path / "plain")).read_tail("f", 0),
        ]
        before = len(os.listdir("/proc/self/fd"))
        for i in range(1000):
            try:
                reads[i % len(reads)]()
            except (FileNotFoundError, ShareUnreachableError):
                pass
        assert len(os.listdir("/proc/self/fd")) == before

    def test_only_protocol_paths_are_kept(self, fs_job):
        job = fs_job()
        objective = Ascending(length=8, level_count=2)
        initialize(job, (0,) * 8, objective)
        signal_set(job)
        report = work_loop(job, "w", objective, OptimizerMode.REPLACE_IF_BETTER,
                           StopCondition(max_total_evaluations=200))
        assert report.counts.commits == 200
        assert set(job.backend._paths) == set(PROTOCOL_FILES)
        assert not any(name.endswith(".tmp") for name in job.backend._paths)
