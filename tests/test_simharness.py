"""Deterministic fleet simulator: determinism, accounting, speedup bounds."""

from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idleclimb.clock import VirtualClock
from idleclimb.coordination import FsBackend, JobDirectory, MemBackend, read_fleet_tally
from idleclimb.optimizer import TALLY_SYNC_INTERVAL, OptimizerMode, Outcome, StopCondition
from idleclimb.simharness import (
    CHECKPOINT_FRACTION,
    EFFICIENCY_TOLERANCE,
    JobSetup,
    Scenario,
    SimConfig,
    SimWorker,
    SpeedupReport,
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
        fleet = homogeneous_fleet(3)
        setup = default_setup(n=8, levels=2, target_order=1, init_seed=3)
        sim = small_sim(seed=7, evals=60)
        mem = run_sim(fleet, setup, sim)
        fs = run_sim(fleet, setup, sim, backend=FsBackend(str(tmp_path)))
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
        report = run_sim(homogeneous_fleet(4, poll_interval=5), default_setup(),
                         small_sim(seed=1, evals=200),
                         kill_schedule=[("w000", t) for t in (3.5, 10.5, 17.5, 24.5, 31.5)],
                         backend=backend)
        killed = report.worker_stats[0]
        assert killed.id == "w000" and killed.kills == 5
        job = JobDirectory(backend=backend, clock=VirtualClock(), job_id="sim")
        assert read_fleet_tally(job)["w000"].evaluations == killed.evaluations

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

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(t_eval=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_io=-1.0)


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

    def test_cli_bad_scenario_exit_2(self, tmp_path, capsys):
        from idleclimb import simharness

        bad = tmp_path / "bad.txt"
        bad.write_text("nope\n")
        assert simharness.main(["run", "--scenario", str(bad)]) == 2
