"""Deterministic fleet simulator: determinism, accounting, speedup bounds."""

import hashlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingBackend
from idleclimb.clock import VirtualClock
from idleclimb.coordination import (
    BEST_FILE,
    CHANGES_FILE,
    FsBackend,
    JobDirectory,
    MemBackend,
    read_fleet_tally,
)
from idleclimb.optimizer import TALLY_SYNC_INTERVAL, OptimizerMode, Outcome, StopCondition
from idleclimb.simharness import (
    CHECKPOINT_FRACTION,
    EFFICIENCY_TOLERANCE,
    JobSetup,
    Scenario,
    SimConfig,
    SimWorker,
    SpeedupReport,
    VirtualKernel,
    WorkerStats,
    default_setup,
    homogeneous_fleet,
    ideal_speedup,
    parse_scenario,
    run_sim,
    sweep_fleet_size,
)

# Frozen regression constants for the flagship configuration (10 identical
# workers, t_io/t_eval = 0.001, 1000 evaluations, seed 1).  The simulator is
# bit-deterministic, so these must reproduce exactly.  They move only when
# the sequence of directory operations changes on purpose.
P10_SEED1_MAKESPAN = 101.78400000000009
P10_SEED1_EFFICIENCY = 0.9824726872592933

SIM1000 = SimConfig(t_eval=1.0, t_io=0.001, seed=1,
                    stop=StopCondition(max_total_evaluations=1000))


def small_sim(seed=0, evals=80, t_io=0.001):
    return SimConfig(t_eval=1.0, t_io=t_io, seed=seed,
                     stop=StopCondition(max_total_evaluations=evals))


class TestDeterminism:
    def test_same_seed_bit_identical_reports(self):
        fleet = homogeneous_fleet(4)
        setup = default_setup(init_seed=2)
        a = run_sim(fleet, setup, small_sim(seed=5))
        b = run_sim(fleet, setup, small_sim(seed=5))
        assert a == b

    def test_different_seeds_differ(self):
        fleet = homogeneous_fleet(4)
        setup = default_setup(init_seed=2)
        a = run_sim(fleet, setup, small_sim(seed=5))
        b = run_sim(fleet, setup, small_sim(seed=6))
        assert a != b

    def test_memory_and_filesystem_backends_agree_exactly(self, tmp_path):
        setup = default_setup(n=8, levels=2, target_order=1, init_seed=3)
        sim = small_sim(seed=7, evals=60)
        # The second fleet's ids are not ASCII: file offsets count bytes,
        # memory ones characters.
        fleets = (homogeneous_fleet(3), tuple(SimWorker(id=f"w\u00e9{i}") for i in range(3)))
        for number, fleet in enumerate(fleets):
            path = tmp_path / str(number)
            path.mkdir()
            mem = run_sim(fleet, setup, sim)
            fs = run_sim(fleet, setup, sim, backend=FsBackend(str(path)))
            assert mem == fs


class TestAccounting:
    def test_identity_and_waste_provenance(self):
        report = run_sim(homogeneous_fleet(6), default_setup(init_seed=4),
                         small_sim(seed=9, evals=300))
        assert report.evaluations_total == (
            report.commits + report.wasted_duplicate + report.wasted_outdated
            + report.rejected_not_better
        )
        assert report.evaluations_total == len(report.records)
        seen = set()
        recount = {"dup": 0, "outdated": 0}
        for rec in report.records:
            key = (rec.base_version, rec.index, rec.new_value)
            if rec.outcome is not Outcome.COMMITTED and key in seen:
                recount["dup"] += 1
            elif rec.outcome in (Outcome.REJECTED_CONFLICT, Outcome.REJECTED_STALE):
                recount["outdated"] += 1
            seen.add(key)
        assert recount["dup"] == report.wasted_duplicate
        assert recount["outdated"] == report.wasted_outdated

    def test_worker_stats_sum_to_totals(self):
        report = run_sim(homogeneous_fleet(5), default_setup(init_seed=1),
                         small_sim(seed=2, evals=150))
        assert sum(s.evaluations for s in report.worker_stats) == report.evaluations_total
        assert sum(s.commits for s in report.worker_stats) == report.commits


class TestSpeedup:
    def test_ideal_speedup_identical_workers(self):
        assert ideal_speedup(homogeneous_fleet(10), "w000") == 10.0

    def test_ideal_speedup_arithmetic(self):
        fleet = (SimWorker(id="fast", speed_factor=1.0),
                 SimWorker(id="slow", speed_factor=0.5))
        assert ideal_speedup(fleet, "fast") == 1.5

    def test_paper_like_heterogeneous_fleet_pinned(self):
        fleet = heterogeneous_fleet()
        assert ideal_speedup(fleet, "m08") == pytest.approx(5.45, abs=1e-12)

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            ideal_speedup(homogeneous_fleet(2), "nope")

    def test_single_worker_without_overhead_is_exactly_baseline(self):
        report = run_sim(homogeneous_fleet(1), default_setup(init_seed=1),
                         SimConfig(t_eval=1.0, t_io=0.0, seed=1,
                                   stop=StopCondition(max_total_evaluations=50)))
        assert report.speedup == pytest.approx(1.0, abs=1e-12)
        assert report.efficiency == pytest.approx(1.0, abs=1e-12)
        assert report.makespan == pytest.approx(50.0, abs=1e-9)

    def test_flagship_regression_pin(self):
        report = run_sim(homogeneous_fleet(10), default_setup(init_seed=1), SIM1000)
        assert report.makespan == P10_SEED1_MAKESPAN
        assert report.efficiency == P10_SEED1_EFFICIENCY
        assert report.evaluations_total == 1000

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=999),
        st.sampled_from([0.0, 0.001, 0.2]),
    )
    @settings(max_examples=10, deadline=None)
    def test_efficiency_never_exceeds_one(self, workers, seed, t_io):
        fleet = tuple(
            SimWorker(id=f"w{i}", speed_factor=1.0 - 0.17 * i) for i in range(workers)
        )
        report = run_sim(fleet, default_setup(n=8, levels=2, target_order=1,
                                              init_seed=seed),
                         SimConfig(t_eval=1.0, t_io=t_io, seed=seed,
                                   stop=StopCondition(max_total_evaluations=40)))
        assert report.efficiency <= 1.0 + EFFICIENCY_TOLERANCE

    def test_pathological_overhead_decreases_efficiency_with_fleet_size(self):
        sim = SimConfig(t_eval=1.0, t_io=1.0, seed=3,
                        stop=StopCondition(max_total_evaluations=90))
        rows = sweep_fleet_size(5, sim, default_setup(init_seed=3))
        efficiencies = [r.efficiency for _, r in rows]
        peak = efficiencies.index(max(efficiencies))
        assert peak <= 1  # overhead dominates almost immediately
        tail = efficiencies[peak:]
        assert all(b < a for a, b in zip(tail, tail[1:]))


def heterogeneous_fleet():
    speeds = [0.4] * 4 + [0.5] * 4 + [1.0, 0.85]
    return tuple(SimWorker(id=f"m{i:02d}", speed_factor=s) for i, s in enumerate(speeds))


class TestStopAndQuiesce:
    def test_operator_clear_quiesces_within_checkpoint_interval(self):
        sim = SimConfig(t_eval=1.0, t_io=0.001, seed=4, stop=StopCondition())
        report = run_sim(homogeneous_fleet(10), default_setup(init_seed=4), sim,
                         clear_signal_at=7.3)
        assert report.clear_time is not None
        interval = 1.0 * CHECKPOINT_FRACTION
        slack = 20 * sim.t_io
        for stats in report.worker_stats:
            assert stats.quiesce_time is not None
            assert stats.quiesce_time - report.clear_time <= interval + slack
        for rec in report.records:
            if rec.outcome is Outcome.COMMITTED:
                assert rec.time <= report.clear_time + interval

    def test_fast_evaluations_overshoot_the_budget_within_the_stated_bound(self):
        # Evaluations far below TALLY_SYNC_INTERVAL: each worker syncs its
        # tally only every ~20 evaluations.  StopCondition documents the
        # overshoot as rate * (interval + one evaluation) + one per worker.
        workers, t_eval, budget = 10, 0.05, 1000
        sim = SimConfig(t_eval=t_eval, t_io=0.001, seed=1,
                        stop=StopCondition(max_total_evaluations=budget))
        report = run_sim(homogeneous_fleet(workers), default_setup(init_seed=1), sim)
        rate = workers / t_eval
        bound = rate * (TALLY_SYNC_INTERVAL + t_eval) + workers
        assert not report.incomplete
        assert budget <= report.evaluations_total <= budget + bound

    def test_incomplete_runs_are_flagged(self):
        sim = SimConfig(t_eval=1.0, t_io=0.001, seed=4, stop=StopCondition(),
                        horizon=12.0)
        report = run_sim(homogeneous_fleet(2), default_setup(init_seed=4), sim)
        assert report.incomplete
        assert report.makespan <= 12.0

    def test_target_performance_stop(self):
        setup = default_setup(n=8, levels=2, target_order=1, init_seed=5)
        sim = SimConfig(t_eval=1.0, t_io=0.001, seed=5,
                        stop=StopCondition(target_performance=0.2))
        report = run_sim(homogeneous_fleet(3), setup, sim)
        assert not report.incomplete
        assert report.final_performance >= 0.2


class TestSerialModeEquivalence:
    def test_single_worker_same_seed_identical_trajectories(self):
        trajectories = {}
        for mode in OptimizerMode:
            setup = default_setup(n=8, levels=2, target_order=1, init_seed=6)
            setup = JobSetup(objective=setup.objective, mode=mode,
                             init_config="random", init_seed=6)
            report = run_sim(homogeneous_fleet(1), setup, small_sim(seed=8, evals=60))
            trajectories[mode] = [
                (r.base_version, r.index, r.new_value, r.measured, r.outcome,
                 r.committed_version, r.recorded_performance)
                for r in report.records
            ]
        assert trajectories[OptimizerMode.REPLACE_IF_BETTER] == trajectories[
            OptimizerMode.CHANGE_MERGE
        ]


@dataclass(frozen=True)
class InterruptionReport:
    baseline: SpeedupReport
    interrupted: SpeedupReport
    versions_gapless: bool
    commits_after_kill_latency: int
    survivor_rate_baseline: float
    survivor_rate_interrupted: float


def interruption_test(
    fleet: Sequence[SimWorker],
    kill_schedule: Sequence[tuple[str, float]],
    sim: SimConfig,
    setup: JobSetup,
) -> InterruptionReport:
    """Compare a run against the same run with injected user-activity kills.

    Checks that the best-record version sequence stays gapless, that no
    worker commits after a kill once the cancellation latency has passed,
    and reports the surviving workers' commit rates for comparison.
    """
    baseline = run_sim(fleet, setup, sim)
    interrupted = run_sim(fleet, setup, sim, kill_schedule=kill_schedule)

    versions = sorted(
        rec.committed_version
        for rec in interrupted.records
        if rec.outcome is Outcome.COMMITTED
    )
    gapless = versions == list(range(1, interrupted.final_version + 1))

    # After a kill, the worker must stay quiet until its next poll rejoin.
    # Cancellation itself may lag by one checkpoint interval plus a little
    # coordination time for an already-evaluated proposal racing its merge.
    killed_ids = {wid for wid, _ in kill_schedule}
    slowest = min(w.speed_factor for w in fleet)
    grace = sim.t_eval / slowest * CHECKPOINT_FRACTION + 16 * sim.t_io
    poll = {w.id: w.poll_interval for w in fleet}
    late = sum(
        1
        for rec in interrupted.records
        if rec.outcome is Outcome.COMMITTED
        for wid, at in kill_schedule
        if wid == rec.worker and at + grace < rec.time <= at + poll[wid]
    )

    def survivor_rate(report: SpeedupReport) -> float:
        evals = sum(s.evaluations for s in report.worker_stats if s.id not in killed_ids)
        comm = sum(s.commits for s in report.worker_stats if s.id not in killed_ids)
        return comm / evals if evals else 0.0

    return InterruptionReport(
        baseline=baseline,
        interrupted=interrupted,
        versions_gapless=gapless,
        commits_after_kill_latency=late,
        survivor_rate_baseline=survivor_rate(baseline),
        survivor_rate_interrupted=survivor_rate(interrupted),
    )


class TestInterruption:
    def test_kill_one_of_five(self):
        sim = small_sim(seed=2, evals=200)
        report = interruption_test(homogeneous_fleet(5), [("w002", 7.3)], sim,
                                   default_setup(init_seed=2))
        assert report.versions_gapless
        assert report.commits_after_kill_latency == 0
        assert not report.interrupted.incomplete  # others finish the job
        killed = next(s for s in report.interrupted.worker_stats if s.id == "w002")
        assert killed.kills == 1
        # Survivors keep committing at a statistically similar rate.
        drift = abs(report.survivor_rate_interrupted - report.survivor_rate_baseline)
        assert drift <= max(0.5 * report.survivor_rate_baseline, 0.05)

    def test_kill_every_worker_once_still_finishes(self):
        fleet = homogeneous_fleet(4)
        kills = [(w.id, 5.0 + 1.7 * i) for i, w in enumerate(fleet)]
        sim = SimConfig(t_eval=1.0, t_io=0.001, seed=7,
                        stop=StopCondition(max_total_evaluations=150), horizon=1e6)
        report = interruption_test(fleet, kills, sim, default_setup(init_seed=7))
        assert report.versions_gapless
        assert not report.interrupted.incomplete

    def test_a_rejoining_worker_keeps_its_tally(self):
        """w000 rejoins the job after each of five kills; its tally on the
        share counts the evaluations of all its loops, not only the last."""
        backend = MemBackend()
        fleet = tuple(SimWorker(id=f"w{i:03d}", poll_interval=5) for i in range(4))
        report = run_sim(fleet, default_setup(),
                         small_sim(seed=1, evals=200),
                         kill_schedule=[("w000", t) for t in (3.5, 10.5, 17.5, 24.5, 31.5)],
                         backend=backend)
        killed = report.worker_stats[0]
        assert killed.id == "w000" and killed.kills == 5
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="sim")
        assert read_fleet_tally(job)["w000"].evaluations == killed.evaluations

    def test_a_worker_whose_last_window_closes_first_quiesces_at_its_end(self):
        """Slices of 1.0 and free directory operations put the window ends on
        checkpoints, so the worker stops exactly there."""
        fleet = (SimWorker(id="a"), SimWorker(id="b", availability=((0.0, 50.0), (60.0, 75.0))))
        sim = SimConfig(t_eval=10.0, t_io=0.0, seed=1,
                        stop=StopCondition(max_total_evaluations=30))
        report = run_sim(fleet, default_setup(init_seed=1), sim)
        a, b = report.worker_stats
        assert not report.incomplete and a.quiesce_time > 75.0
        assert b.kills == 2 and b.quiesce_time == 75.0

    def test_empty_kill_schedule_is_identity(self):
        sim = small_sim(seed=3, evals=100)
        report = interruption_test(homogeneous_fleet(3), [], sim,
                                   default_setup(init_seed=3))
        assert report.baseline == report.interrupted

    def test_unknown_worker_in_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown worker"):
            run_sim(homogeneous_fleet(2), default_setup(), small_sim(),
                    kill_schedule=[("ghost", 1.0)])


class TestValidation:
    def test_duplicate_ids_rejected(self):
        fleet = (SimWorker(id="a"), SimWorker(id="a"))
        with pytest.raises(ValueError, match="unique"):
            run_sim(fleet, default_setup(), small_sim())

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_sim((), default_setup(), small_sim())

    def test_bad_worker_parameters(self):
        with pytest.raises(ValueError):
            SimWorker(id="w", speed_factor=0.0)
        with pytest.raises(ValueError):
            SimWorker(id="w", availability=((5.0, 3.0),))
        with pytest.raises(ValueError):
            SimWorker(id="w", availability=((0.0, 5.0), (4.0, 9.0)))

    @pytest.mark.parametrize("worker_id", ["desk 07", "w\t1", "", "w\n"])
    def test_worker_id_must_be_one_word(self, worker_id):
        with pytest.raises(ValueError, match="whitespace"):
            SimWorker(id=worker_id)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(t_eval=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_io=-1.0)

    # NaN fails every comparison: a NaN t_eval ran to "speedup=nan
    # efficiency=nan" past the efficiency bound, and a NaN speed ran the
    # whole fleet before the report failed on an empty min().
    @pytest.mark.parametrize("make, named", [
        (lambda: SimConfig(t_eval=math.nan), "t_eval"),
        (lambda: SimConfig(t_eval=math.inf), "t_eval"),
        (lambda: SimConfig(t_io=math.nan), "t_io"),
        (lambda: SimConfig(t_io=math.inf), "t_io"),
        (lambda: SimConfig(horizon=math.nan), "horizon"),
        (lambda: SimWorker(id="w", speed_factor=math.nan), "speed_factor"),
        (lambda: SimWorker(id="w", speed_factor=math.inf), "speed_factor"),
        (lambda: SimWorker(id="w", poll_interval=math.nan), "poll_interval"),
        (lambda: SimWorker(id="w", poll_interval=0.0), "poll_interval"),
        (lambda: SimWorker(id="w", availability=((math.nan, 5.0),)), "availability"),
        (lambda: SimWorker(id="w", availability=((0.0, math.nan),)), "availability"),
    ], ids=["t_eval_nan", "t_eval_inf", "t_io_nan", "t_io_inf", "horizon_nan", "speed_nan",
            "speed_inf", "poll_nan", "poll_zero", "avail_start_nan", "avail_end_nan"])
    def test_a_number_out_of_range_is_rejected(self, make, named):
        with pytest.raises(ValueError, match=named):
            make()


class TestScenarioAndCli:
    SCENARIO = """\
# two machines, one of them part-time
job_id=demo
n=8
levels=2
target_order=1
mode=change_merge
init_config=random
init_seed=5
seed=5
t_eval=1.0
t_io=0.001
stop_max_evals=120
worker=id=day speed=1.0 avail=0:inf
worker=id=night speed=0.5 avail=30:2000 poll=100
kill=day@42.5
"""

    def test_parse_scenario(self):
        scenario = parse_scenario(self.SCENARIO)
        assert isinstance(scenario, Scenario)
        assert [w.id for w in scenario.fleet] == ["day", "night"]
        assert scenario.fleet[1].availability == ((30.0, 2000.0),)
        assert scenario.fleet[1].poll_interval == 100.0
        assert scenario.kill_schedule == (("day", 42.5),)
        assert scenario.sim.stop.max_total_evaluations == 120
        assert scenario.setup.mode is OptimizerMode.CHANGE_MERGE

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="no worker"):
            parse_scenario("job_id=x\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario("what even is this\n")

    def test_cli_run_scenario(self, tmp_path, capsys):
        from idleclimb import simharness

        scenario_file = tmp_path / "scenario.txt"
        scenario_file.write_text(self.SCENARIO)
        assert simharness.main(["run", "--scenario", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        values = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        assert int(values["evaluations_total"]) >= 120
        assert values["incomplete"] == "0"

    def test_a_worker_may_be_named_like_the_operator(self, tmp_path, capsys):
        from idleclimb import simharness

        scenario_file = tmp_path / "scenario.txt"
        scenario_file.write_text("stop_max_evals=40\nclear_signal_at=5\n"
                                 "worker=id=<operator>\nworker=id=b\n")
        assert simharness.main(["run", "--scenario", str(scenario_file)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = dict(line.split("=", 1) for line in captured.out.splitlines())
        assert (values["incomplete"], values["makespan"]) == ("0", "5.001000")

    def test_cli_sweep_with_csv(self, tmp_path, capsys):
        from idleclimb import simharness

        csv_path = tmp_path / "sweep.csv"
        code = simharness.main(["sweep", "--max-p", "2", "--max-evals", "50",
                                "--seed", "2", "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert sum(line.startswith("p=") for line in out.splitlines()) == 2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "p,speedup,efficiency,wasted_duplicate,wasted_outdated"
        assert len(lines) == 3

    @pytest.mark.parametrize("text, named", [
        ("nope\n", "line 1"),
        ("worker=id=a\nkill=nobody@5\n", "'nobody'"),
        ("worker=id=a\nworker=id=a\n", "unique"),
        # A stop key, so that a parser that ignores the typo still ends.
        ("stop_max_evals=5\nworker=id=a\ninit_config=zeros\n", "'zeros'"),
        ("stop_max_evals=5\nworker=id=a sped=3\n", "'sped'"),
        ("worker=speed=3\n", "worker='speed=3' has no id="),
        ("worker=id=a\nkill=a5\n", "kill='a5'"),
        ("worker=id=a\nkill=a@soon\n", "kill='a@soon'"),
        # The stop target ends the run at once if the typo is ignored.
        ("stop_target=0\nworker=id=a\nstop_max_eval=5\n", "unknown key 'stop_max_eval'"),
        # NaN fails every comparison: before these checks, each of these ran.
        ("stop_max_evals=5\nt_eval=nan\nworker=id=a\n", "t_eval"),
        ("stop_max_evals=5\nt_io=nan\nworker=id=a\n", "t_io"),
        ("stop_max_evals=5\nworker=id=a speed=nan\n", "speed_factor"),
        ("stop_max_evals=5\nhorizon=nan\nworker=id=a\n", "horizon"),
        ("stop_max_evals=5\nclear_signal_at=nan\nworker=id=a\n", "clear_signal_at"),
        ("stop_max_evals=5\nworker=id=a\nkill=a@nan\n", "kill time"),
        ("stop_max_evals=5\nstop_target=nan\nworker=id=a\n", "target_performance"),
        ("stop_max_evals=-3\nworker=id=a\n", "max_total_evaluations"),
    ], ids=["unparsable", "unknown_kill", "duplicate_id", "init_config_typo",
            "worker_key_typo", "worker_without_id", "kill_without_at", "kill_time_not_a_number",
            "top_level_key_typo", "nan_t_eval", "nan_t_io", "nan_speed", "nan_horizon",
            "nan_clear", "nan_kill", "nan_stop_target", "negative_max_evals"])
    def test_cli_bad_scenario_exit_2(self, tmp_path, capsys, text, named):
        from idleclimb import simharness

        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert simharness.main(["run", "--scenario", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error=scenario ")
        assert named in captured.err

    @pytest.mark.parametrize("bad", [["--max-p", "0"], ["--max-p", "1", "--t-eval", "0"],
                                     ["--max-p", "1", "--mode", "nope"],
                                     ["--max-p", "1", "--t-eval", "nan"],
                                     ["--max-p", "1", "--t-io", "nan"],
                                     ["--max-p", "1", "--max-evals", "-3"]])
    def test_cli_bad_sweep_parameter_exit_2(self, capsys, bad):
        from idleclimb import simharness

        assert simharness.main(["sweep", "--max-evals", "5", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error=")


class ObjectiveCrashed(Exception):
    pass


class FailsOnCall:
    """An objective whose k-th evaluation raises (never, if k is None)."""

    def __init__(self, inner, k=None):
        self._inner = inner
        self._k = k
        self.calls = 0
        self.length = inner.length
        self.level_count = inner.level_count
        self.cost_hint = inner.cost_hint

    def evaluate(self, config, checkpoint=None):
        self.calls += 1
        if self.calls == self._k:
            raise ObjectiveCrashed(f"evaluation {self.calls}")
        return self._inner.evaluate(config)


class AffinityProbe(FailsOnCall):
    """Records the CPU set and the scheduling policy of each thread that
    evaluates."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = {}
        self.policies = {}

    def evaluate(self, config, checkpoint=None):
        name = threading.current_thread().name
        self.seen[name] = os.sched_getaffinity(0)
        self.policies[name] = os.sched_getscheduler(0)
        return super().evaluate(config)


def batch_granted() -> bool:
    """Whether a thread here may switch itself to ``SCHED_BATCH``."""
    if not hasattr(os, "SCHED_BATCH"):
        return False
    granted = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            granted.append(True)
        except OSError:
            pass

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    return bool(granted)


def sim_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("sim-")]


def failing_run(k=25):
    base = default_setup(init_seed=3)
    setup = JobSetup(objective=FailsOnCall(base.objective, k), mode=base.mode,
                     init_seed=3)
    return run_sim(homogeneous_fleet(5), setup, small_sim(seed=3, evals=200))


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                    reason="no CPU affinity on this platform")


def counted_run(fleet, setup, sim, **kwargs):
    """A run over a counting store: (report, the store's operations by kind)."""
    store = CountingBackend(MemBackend("sim"))
    report = run_sim(fleet, setup, sim, backend=store, **kwargs)
    return report, dict(store.ops)


class TestReadAhead:
    """A mid-evaluation signal read is answered ahead, without parking, and
    a removal before it re-queues the reader there.  Each expected value
    below is what the simulator gave when every such read parked."""

    def test_a_kill_after_read_aheads_waits_for_an_earlier_removal(self):
        # a reads ahead at 0.14, 0.25, 0.36 and 0.47, and the kill at 0.55
        # cancels its next check.  The operator's removal at 0.36 comes
        # first (by name) and voids a's read at 0.36: a aborts there and
        # quits at its next loop top, and is never killed.
        fleet = (SimWorker(id="a"), SimWorker(id="b", speed_factor=0.7))
        sim = SimConfig(t_eval=1.0, t_io=0.01, seed=3,
                        stop=StopCondition(max_total_evaluations=50))
        report = run_sim(fleet, default_setup(init_seed=3), sim,
                         kill_schedule=(("a", 0.55),), clear_signal_at=0.35)
        assert report.worker_stats == (
            WorkerStats("a", 0, 0, kills=0, quiesce_time=0.37),
            WorkerStats("b", 0, 0, kills=0, quiesce_time=0.4985714285714286),
        )
        assert (report.aborted, report.clear_time) == (2, 0.36)

    @pytest.mark.parametrize("worker_id, quiesce, exists", [("0", 2.5, 8), ("z", 2.0, 7)])
    def test_a_removal_at_a_read_aheads_time_goes_by_name(self, worker_id, quiesce, exists):
        # With t_io = 0 the operator's removal at 2.0 ties with the read at
        # 2.0; a worker named before "<operator>" reads first.
        report, ops = counted_run(
            (SimWorker(id=worker_id),), default_setup(init_seed=5),
            SimConfig(t_eval=5.0, t_io=0.0, seed=5, stop=StopCondition(max_total_evaluations=10)),
            clear_signal_at=2.0)
        assert report.worker_stats == (WorkerStats(worker_id, 0, 0, 0, quiesce),)
        assert (report.aborted, report.clear_time) == (1, 2.0)
        assert ops == {"create_exclusive": 2, "exists": exists, "read_text": 2,
                       "read_tail": 1, "remove": 1}

    @pytest.mark.parametrize("horizon, makespan, exists", [
        (2.25, 2.25, 7),  # on a's third read
        (5.7, 5.375, 15),  # inside a's slice after its eighth read
        (5.9, 5.875, 15),  # between a's last slice and its last read
    ])
    def test_a_horizon_among_read_aheads_cuts_where_it_did(self, horizon, makespan, exists):
        # a reads at 1.0, 1.625, ..., 5.375 and last at 6.0; b at 1.5, 2.625, ...
        report, ops = counted_run(
            (SimWorker(id="a"), SimWorker(id="b", speed_factor=0.5)), default_setup(init_seed=6),
            SimConfig(t_eval=5.0, t_io=0.125, seed=6, horizon=horizon,
                      stop=StopCondition(max_total_evaluations=10)))
        assert report.incomplete and report.makespan == makespan
        assert ops == {"create_exclusive": 2, "exists": exists, "read_text": 3, "read_tail": 2}

    def test_the_read_after_an_aborted_evaluation_is_made_in_order(self):
        # The kill at 0.25 cancels a's evaluation at a checkpoint before
        # its last.  a rejoins after its 0.25 s poll and its loop-top read
        # at 0.61 comes after the operator's removal at 0.61 (by name):
        # the signal is gone, and a quits.
        report, ops = counted_run(
            (SimWorker(id="a", poll_interval=0.25), SimWorker(id="b", speed_factor=0.7)),
            default_setup(init_seed=4),
            SimConfig(t_eval=1.0, t_io=0.01, seed=4, stop=StopCondition(max_total_evaluations=20)),
            kill_schedule=(("a", 0.25),), clear_signal_at=0.6)
        assert report.worker_stats == (
            WorkerStats("a", 0, 0, kills=1, quiesce_time=0.61),
            WorkerStats("b", 0, 0, kills=0, quiesce_time=0.6514285714285715),
        )
        assert report.aborted == 2
        assert ops == {"create_exclusive": 2, "exists": 11, "read_tail": 2, "read_text": 3,
                       "remove": 1}

    def test_a_voided_read_ahead_does_not_count_as_time_reached(self):
        # w2 removes the signal at 3.5815 and the horizon at 3.605 cuts off
        # the tally it writes next, so the makespan is the latest time any
        # worker reached.  w0 had read ahead at 3.585 and gone on to 3.6;
        # the removal voids that read, and in order w0 reached only 3.585.
        fleet = (SimWorker(id="w0"), SimWorker(id="w1"), SimWorker(id="w2", speed_factor=1.3))
        report = run_sim(fleet, default_setup(init_seed=23, mode=OptimizerMode.REPLACE_IF_BETTER),
                         SimConfig(t_eval=0.15, t_io=0.04, seed=23, horizon=3.605,
                                   stop=StopCondition(max_total_evaluations=11)))
        assert report.incomplete and report.clear_time == 3.5815384615384622
        assert report.makespan == 3.585000000000004


class TestHandoff:
    def test_a_failing_objective_fails_the_run(self):
        with pytest.raises(RuntimeError, match="simulated task w0") as info:
            failing_run()
        assert isinstance(info.value.__cause__, ObjectiveCrashed)

    @pytest.mark.parametrize("horizon", [1e9, 7.5, None])
    def test_no_task_thread_outlives_its_run(self, horizon):
        if horizon is None:
            with pytest.raises(RuntimeError):
                failing_run()
        else:
            sim = SimConfig(t_eval=1.0, t_io=0.001, seed=2, horizon=horizon,
                            stop=StopCondition(max_total_evaluations=100))
            report = run_sim(homogeneous_fleet(6), default_setup(init_seed=2), sim,
                             clear_signal_at=30.0)
            assert report.incomplete == (horizon < 30.0)
        assert sim_threads() == []

    @needs_affinity
    def test_the_callers_cpu_affinity_is_untouched(self):
        before = os.sched_getaffinity(0), os.sched_getscheduler(0), os.sched_getparam(0)
        run_sim(homogeneous_fleet(4), default_setup(), small_sim(seed=1, evals=40))
        run_sim(homogeneous_fleet(4), default_setup(),
                SimConfig(t_eval=1.0, seed=1, horizon=3.0, stop=StopCondition()))
        with pytest.raises(RuntimeError):
            failing_run()
        assert (os.sched_getaffinity(0), os.sched_getscheduler(0), os.sched_getparam(0)) == before

    @needs_affinity
    def test_every_task_thread_runs_under_sched_batch_on_the_callers_cpu_set(self):
        allowed = os.sched_getaffinity(0)
        policy = os.SCHED_BATCH if batch_granted() else os.sched_getscheduler(0)
        base = default_setup(init_seed=4)
        probe = AffinityProbe(base.objective)
        setup = JobSetup(objective=probe, mode=base.mode, init_seed=4)
        run_sim(homogeneous_fleet(4), setup, small_sim(seed=4, evals=40))
        task_sets = {name: cpus for name, cpus in probe.seen.items()
                     if name.startswith("sim-")}
        assert len(task_sets) == 4
        assert all(cpus == allowed for cpus in task_sets.values())
        assert {probe.policies[name] for name in task_sets} == {policy}

    @needs_affinity
    @pytest.mark.parametrize("case", ["fleet-change_merge-10-1", "mixed-clear-17.77"])
    def test_a_refused_scheduling_policy_changes_no_result(self, monkeypatch, case):
        def refuse(*args):
            raise PermissionError("operation not permitted")

        monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
        assert _exactness_run(case) == EXACTNESS_PINS[case]
        base = default_setup(init_seed=4)
        probe = AffinityProbe(base.objective)
        run_sim(homogeneous_fleet(4), JobSetup(objective=probe, mode=base.mode, init_seed=4),
                small_sim(seed=4, evals=40))
        task_policies = {policy for name, policy in probe.policies.items()
                         if name.startswith("sim-")}
        assert task_policies == {os.sched_getscheduler(0)}


# ---------------------------------------------------------------------------
# Exactness: every simulated event, every report field and every stored byte
# is pinned, along with the number of baton grants.  A change to how the
# kernel hands control between tasks must leave every digest unchanged; the
# grant counts move only when a change removes handoffs on purpose.

MIXED_FLEET = (
    SimWorker(id="a", speed_factor=1.0, poll_interval=0.5),
    SimWorker(id="b", speed_factor=0.55, availability=((0.0, 6.5), (8.0, math.inf)),
              poll_interval=1.5),
    SimWorker(id="c", speed_factor=1.7, availability=((1.25, 11.0), (14.0, 40.0)),
              poll_interval=0.75),
)
MIXED_KILLS = (("a", 2.2), ("c", 4.05), ("b", 9.0), ("a", 30.0))
# At horizon 17.77 the operator's clear falls exactly on the horizon.

# Tie-heavy cases.  With t_io = 0 a directory operation lands exactly on the
# wake time of the sleep before it, and at equal times the kernel's
# tie-break alone decides who goes first.
SPEED_FLEET = tuple(SimWorker(id=f"s{i}", speed_factor=speed)
                    for i, speed in enumerate((1.0, 0.5, 2.0, 0.25)))
WINDOW_FLEET = (
    SimWorker(id="a", availability=((0.0, 3.0), (3.0, math.inf)), poll_interval=0.5),
    SimWorker(id="b", speed_factor=0.5,
              availability=((0.0, 3.0), (3.0, 6.0), (6.0, math.inf)), poll_interval=0.25),
    SimWorker(id="c", speed_factor=2.0, poll_interval=1.0),
)
# Two workers killed at the same instant, twice; the second pair falls on a
# horizon.
WINDOW_KILLS = (("a", 1.5), ("c", 1.5), ("b", 4.5), ("c", 4.5))


def _exactness_inputs(case: str) -> tuple[tuple, dict]:
    """The positional and keyword arguments of ``run_sim`` for one named case."""
    kind, *params = case.split("-")
    kwargs = {}
    if kind == "fleet":
        mode, p, seed = OptimizerMode.parse(params[0]), int(params[1]), int(params[2])
        fleet = homogeneous_fleet(p)
        setup = default_setup(mode=mode, init_seed=seed)
        sim = small_sim(seed=seed, evals=300)
    elif kind == "mixed":
        clear, horizon = params[0], float(params[1])
        fleet = MIXED_FLEET
        setup = default_setup(init_seed=11)
        sim = SimConfig(t_eval=1.0, t_io=0.01, seed=11, horizon=horizon,
                        stop=StopCondition(max_total_evaluations=90))
        kwargs = {"kill_schedule": MIXED_KILLS,
                  "clear_signal_at": 17.77 if clear == "clear" else None}
    elif kind == "ties":
        mode, t_io = OptimizerMode.parse(params[0]), float(params[1])
        fleet = homogeneous_fleet(7)
        setup = default_setup(mode=mode, init_seed=7)
        sim = small_sim(seed=7, evals=200, t_io=t_io)
    elif kind == "speeds":
        fleet = SPEED_FLEET
        setup = default_setup(init_seed=8)
        sim = SimConfig(t_eval=0.5, t_io=float(params[0]), seed=8,
                        stop=StopCondition(max_total_evaluations=150))
    elif kind == "windows":
        fleet = WINDOW_FLEET
        setup = default_setup(init_seed=9)
        sim = SimConfig(t_eval=1.0, t_io=0.0, seed=9, horizon=float(params[0]),
                        stop=StopCondition(max_total_evaluations=60))
        kwargs = {"kill_schedule": WINDOW_KILLS}
    else:
        assert kind == "stagnation"
        fleet = homogeneous_fleet(3)
        setup = default_setup(n=8, levels=2, target_order=1, init_seed=12)
        sim = SimConfig(t_eval=1.0, t_io=0.001, seed=12,
                        stop=StopCondition(max_total_evaluations=2000, stagnation_proposals=12))
    return (fleet, setup, sim), kwargs


def _exactness_run(case: str) -> tuple[str, int]:
    """Run one named case; returns (sha256 digest, number of baton grants)."""
    args, kwargs = _exactness_inputs(case)
    grants = []
    grant = VirtualKernel._grant

    def counting_grant(self, task):
        grants.append(task.name)
        return grant(self, task)

    backend = MemBackend("sim")
    VirtualKernel._grant = counting_grant
    try:
        report = run_sim(*args, backend=backend, **kwargs)
    finally:
        VirtualKernel._grant = grant
    digest = hashlib.sha256()
    for part in (
        "\n".join(report.lines()),
        repr(list(report.records)),
        repr(report.worker_stats),
        repr(report.clear_time),
        backend.read_text(BEST_FILE),
        backend.read_text(CHANGES_FILE),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest(), len(grants)


EXACTNESS_PINS = {
    "fleet-change_merge-3-1": (
        "697047cf87ed26508d8765f20607448f4ba52d22585654a6c39e05a796471453",
        632,
    ),
    "fleet-change_merge-3-2": (
        "9268609b9a38edf096934658a4c43b03e8f6c84c998677943bbc9f73a3d1d0e7",
        625,
    ),
    "fleet-change_merge-10-1": (
        "a06130e4ba4c9075b79aee476e55612e47de319fdcc60ac4de05790108676cfc",
        902,
    ),
    "fleet-change_merge-10-2": (
        "98efc320d05defbb29186119434638aaebf3c8c350c34aa4343a6ffebe9cad43",
        988,
    ),
    "fleet-change_merge-50-1": (
        "a3273a2023e598e833cfa23d61447066814ba5ae211621b543010c551521323c",
        3755,
    ),
    "fleet-change_merge-50-2": (
        "733ea8f3fe41ac8aecb35aec37781c6149b3db6a3d1209b2083e348ea91cc267",
        2336,
    ),
    "fleet-replace_if_better-3-1": (
        "25e341f4333fe1f2f59a263ad136b75292ac200edd5195b7a52396bd5ffdf4d6",
        639,
    ),
    "fleet-replace_if_better-3-2": (
        "389a718299a6262323c3a35e0a73395dcad9075c27157b6569b7d2bcc829a236",
        625,
    ),
    "fleet-replace_if_better-10-1": (
        "e8d14d00e25b8e72d95ad7ee70550c0df80f35da8aa18dc57ce9bf46d64f5963",
        811,
    ),
    "fleet-replace_if_better-10-2": (
        "da7c64afc6a4a5cd63784583af71a43a147aecfbeb274162198e46a0f40de094",
        1040,
    ),
    "fleet-replace_if_better-50-1": (
        "6bb6e731c1ef9c7fed56737c1718a8a4641153a49bb6bcdf5b03dd41f3a8acf9",
        3796,
    ),
    "fleet-replace_if_better-50-2": (
        "0e2ac30a2a5f1ef068497ccefbc4aff5fe5c99e22667409ce9f661e24a46e28a",
        2287,
    ),
    "mixed-clear-1e9": (
        "6a14f2769c6a2692a944890a5bb7fbd24ec03d312164dec89db76ad5359d7394",
        94,
    ),
    "mixed-clear-5.0": (
        "98a6238dc0b9e1fbae3b11e0ae880d7b51c5c2cc516cd97b42b879d41db9153c",
        41,
    ),
    "mixed-clear-12.3456": (
        "adf6d541879c5bbe8ba6c63047d09b7a8af983e586fff77670d0af03aa6c642b",
        66,
    ),
    "mixed-clear-30.0005": (
        "6a14f2769c6a2692a944890a5bb7fbd24ec03d312164dec89db76ad5359d7394",
        94,
    ),
    "mixed-clear-17.77": (
        "ee4a8840b123826869a5e25ccc46b077c45597b6bd69bbbc22ac72c95db33956",
        92,
    ),
    "mixed-none-17.77": (
        "a34aafc426fdfa5422425f3a8714a6ec88024c6c8b4d7e028e5482a7c3e7ac89",
        90,
    ),
    "mixed-none-1e9": (
        "bcb781c24c8eb7def5844fa53db2c4bd6d4a6b12acdcd8d5c45797fd0e8b144a",
        169,
    ),
    "mixed-none-5.0": (
        "98a6238dc0b9e1fbae3b11e0ae880d7b51c5c2cc516cd97b42b879d41db9153c",
        39,
    ),
    "mixed-none-12.3456": (
        "adf6d541879c5bbe8ba6c63047d09b7a8af983e586fff77670d0af03aa6c642b",
        64,
    ),
    "mixed-none-30.0005": (
        "b036f161527113143abe05b56e0b5d9b3e395264a1abdc5b6c9581f791bae1e2",
        140,
    ),
    "stagnation": (
        "be1efd32a746b9ecd70be04665a7f422967288b88efbd62547c592d23b446908",
        182,
    ),
    "ties-change_merge-0": (
        "6916a47c0031192e489bcfea6d3b27c0d891b7a373fa2f7d210f374a45c975c3",
        416,
    ),
    "ties-change_merge-0.05": (
        "7f8e0e0d074f994cf35adaaf72e9f84b236ddf76462b52ff95b4d9a3ac8d2915",
        939,
    ),
    "ties-change_merge-0.1": (
        "e5bd50238e6a939df3e1b106061524901a2868f0a18bfdba83436d0a8bf8260e",
        1084,
    ),
    "ties-replace_if_better-0": (
        "fb0a554513b288eaa285106fbddab0e303ea3851b5d29e9a04e366f6932a18b2",
        416,
    ),
    "ties-replace_if_better-0.05": (
        "66500cabeef738f41fcff959f251487f857966426c2d21805a7be03ed1bb9abd",
        850,
    ),
    "ties-replace_if_better-0.1": (
        "ab482b2b120370518ab928861716db8c89577f436b4520affb53f03b08cefbb7",
        1046,
    ),
    "speeds-0": (
        "aa5f27c4513d7b2c55d8716cea195a3b133ff9c30826aa278097470c1b6cd222",
        232,
    ),
    "speeds-0.25": (
        "b9d32a41f3c2d77005e88b311729edf1c6dadb063a3a3c5f3d897684246f7f72",
        777,
    ),
    "windows-2.0": (
        "a04101e24fae3a8ee9578ab7f2c48c62c45524c24130f1517eb92d42dbb51186",
        13,
    ),
    "windows-4.5": (
        "cae9d149b2360a70cd632cb973ebd6559a66ebc94efc7a5a948d0c50a09c4c27",
        25,
    ),
    "windows-8.0": (
        "abead69616ba03648cf5647b4329687cb07ab4d5bad44351947471832e910637",
        40,
    ),
    "windows-1e9": (
        "03447e2c2ed71c148d62e6b1b3665a796a96437428d2ed8d022bbd556ff969d4",
        83,
    ),
}


class TestExactness:
    @pytest.mark.parametrize("case", sorted(EXACTNESS_PINS))
    def test_reports_stores_and_grants_are_pinned(self, case):
        assert _exactness_run(case) == EXACTNESS_PINS[case]


# Directory operations by kind, as the store under a run's TimedBackend sees
# them, setup and the final read included.  The digests above cannot see an
# extra or a missing ``exists``: it has no side effect.
STORE_OP_PINS = {
    "fleet-change_merge-50-1": {
        "append_line": 319, "create_exclusive": 1291, "exists": 3415, "read_tail": 350,
        "read_text": 1755, "remove": 65, "write_atomic": 15,
    },
    "fleet-replace_if_better-10-2": {
        "append_line": 324, "create_exclusive": 53, "exists": 3091, "read_tail": 310,
        "read_text": 443, "remove": 33, "write_atomic": 24,
    },
    "mixed-clear-1e9": {
        "append_line": 42, "create_exclusive": 16, "exists": 417, "read_tail": 37,
        "read_text": 84, "remove": 14, "write_atomic": 12,
    },
    "ties-change_merge-0.1": {
        "append_line": 220, "create_exclusive": 33, "exists": 2064, "read_tail": 207,
        "read_text": 284, "remove": 24, "write_atomic": 20,
    },
}


# Characters the store's tail reads return in each case: the fleet's tally
# readers share one fold.  With one fold per worker the first two read
# 878,062 and 194,982, with every pin above unchanged.
TAIL_CHAR_PINS = {
    "fleet-change_merge-50-1": 19_699,
    "fleet-replace_if_better-10-2": 26_477,
    "mixed-clear-1e9": 2_166,
    "ties-change_merge-0.1": 21_652,
}


@pytest.mark.parametrize("case", sorted(STORE_OP_PINS))
def test_the_store_sees_the_pinned_operations(case):
    args, kwargs = _exactness_inputs(case)
    store = CountingBackend(MemBackend("sim"))
    run_sim(*args, backend=store, **kwargs)
    assert dict(store.ops) == STORE_OP_PINS[case]
    assert store.tail_chars == TAIL_CHAR_PINS[case]
