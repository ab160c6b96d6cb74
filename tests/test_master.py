"""Operator command set: exit codes, output format, state transitions."""

import random

import pytest

from idleclimb import master
from idleclimb.coordination import (
    BEST_FILE,
    CHANGES_FILE,
    JobDirectory,
    WorkerTally,
    append_tally,
    read_best,
    read_commit_log,
    read_fleet_tally,
)
from idleclimb.objective import MAX_LEVELS, PhaseMaskObjective
from idleclimb.optimizer import OptimizerMode, StopCondition, evaluate_and_merge, work_loop


def run(capsys, *argv):
    code = master.main(list(argv))
    out = capsys.readouterr()
    values = {}
    for line in out.out.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            values[key] = value
    return code, values, out.err


class TestInit:
    def test_fresh_init_writes_version_zero(self, tmp_path, capsys):
        code, values, _ = run(capsys, "init", str(tmp_path / "job"), "--n", "8",
                              "--levels", "2", "--target-order", "1")
        assert code == 0
        assert values["version"] == "0"
        job = JobDirectory.open(str(tmp_path / "job"))
        assert read_best(job).version == 0

    def test_reinit_without_force_exits_3(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        assert run(capsys, "init", jobdir)[0] == 0
        before = (tmp_path / "job" / BEST_FILE).read_bytes()
        code, _, err = run(capsys, "init", jobdir)
        assert code == 3
        assert "already initialized" in err
        assert (tmp_path / "job" / BEST_FILE).read_bytes() == before

    def test_a_refused_init_leaves_the_manifest_alone(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        assert run(capsys, "init", str(jobdir))[0] == 0
        before = {path.name: path.read_bytes() for path in jobdir.iterdir()}
        code, _, err = run(capsys, "init", str(jobdir), "--n", "16", "--levels", "4")
        assert code == 3 and "already initialized" in err
        assert {path.name: path.read_bytes() for path in jobdir.iterdir()} == before

    def test_force_overwrites(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir, "--init-config", "zero", "--target-order", "0")
        code, values, _ = run(capsys, "init", jobdir, "--force", "--init-config",
                              "random", "--seed", "3")
        assert code == 0

    def test_force_on_a_used_job_starts_a_fresh_log(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        assert run(capsys, "init", jobdir, "--stop-max-evals", "50")[0] == 0
        run(capsys, "start", jobdir)
        job = JobDirectory.open(jobdir)
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
        stop = StopCondition(max_total_evaluations=50)
        first = work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER, stop,
                          rng=random.Random(5))
        assert first.exit_reason == "stop_condition" and read_commit_log(job)
        old = (tmp_path / "job" / CHANGES_FILE).read_text()
        assert run(capsys, "init", jobdir, "--stop-max-evals", "50", "--force",
                   "--seed", "2")[0] == 0
        # The old job's lines stay as history, above one #init line.
        assert (tmp_path / "job" / CHANGES_FILE).read_text() == old + "#init\n"
        assert read_commit_log(job) == [] and read_best(job).version == 0
        assert run(capsys, "status", jobdir)[1]["commits"] == "0"
        run(capsys, "start", jobdir)
        # On the handle opened before the init: its fold read the old job.
        again = work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER, stop,
                          rng=random.Random(6))
        assert again.exit_reason == "stop_condition" and again.evaluations == 50
        commits = read_commit_log(job)
        assert [line[0] for line in commits] == list(range(1, read_best(job).version + 1))
        code, values, _ = run(capsys, "report", jobdir)
        assert code == 0 and values["evaluations"] == "50"
        assert values["commits"] == run(capsys, "status", jobdir)[1]["commits"] == str(
            len(commits))

    def test_an_init_over_a_lost_best_starts_a_fresh_log(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        assert run(capsys, "init", jobdir, "--stop-max-evals", "50")[0] == 0
        run(capsys, "start", jobdir)
        job = JobDirectory.open(jobdir)
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
        loop = work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER,
                         StopCondition(max_total_evaluations=50), rng=random.Random(5))
        assert loop.evaluations == 50 and read_commit_log(job)
        (tmp_path / "job" / BEST_FILE).unlink()
        assert run(capsys, "init", jobdir, "--stop-max-evals", "50")[0] == 0
        assert run(capsys, "status", jobdir)[1]["commits"] == "0"
        assert read_fleet_tally(JobDirectory.open(jobdir)) == {}
        assert run(capsys, "report", jobdir)[1]["evaluations"] == "0"

    def test_force_while_the_signal_is_present_exits_3_and_writes_nothing(self, tmp_path,
                                                                         capsys):
        jobdir = tmp_path / "job"
        run(capsys, "init", str(jobdir))
        run(capsys, "start", str(jobdir))
        append_tally(JobDirectory.open(str(jobdir)), "w", WorkerTally(evaluations=3))
        before = {path.name: path.read_bytes() for path in jobdir.iterdir()}
        code, values, err = run(capsys, "init", str(jobdir), "--force", "--n", "16")
        assert code == 3 and not values
        assert err.startswith("error=") and len(err.splitlines()) == 1
        assert {path.name: path.read_bytes() for path in jobdir.iterdir()} == before

    def test_random_init_deterministic_across_dirs(self, tmp_path, capsys):
        a = run(capsys, "init", str(tmp_path / "a"), "--init-config", "random",
                "--seed", "7")[1]
        b = run(capsys, "init", str(tmp_path / "b"), "--init-config", "random",
                "--seed", "7")[1]
        assert a["config"] == b["config"]
        assert a["performance"] == b["performance"]

    def test_unreachable_parent_exits_4(self, tmp_path, capsys):
        (tmp_path / "a_regular_file").write_text("")
        code, values, err = run(capsys, "init", str(tmp_path / "a_regular_file" / "job"))
        assert code == 4
        assert not values
        assert err.startswith("error=") and len(err.splitlines()) == 1

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "init", str(tmp_path / "job"), "--levels", "1")
        assert code == 2
        code, _, _ = run(capsys, "init", str(tmp_path / "job"), "--target-order", "99")
        assert code == 2


    @pytest.mark.parametrize("option, named", [
        (["--n", "abc"], "n='abc'"),
        (["--stop-target", "soon"], "stop_target='soon'"),
        (["--init-config", "zeros"], "'zeros'"),
        (["--n", "0"], "mask length must be >= 1"),
        # Its tables would take about 10 GB at 10**8 levels.
        (["--levels", str(MAX_LEVELS + 1)], f"phase levels must lie in [2, {MAX_LEVELS}]"),
        # Each of these used to be written to the manifest; a NaN target
        # never fires.
        (["--stop-target", "nan"], "target_performance"),
        (["--stop-max-evals", "-5"], "max_total_evaluations"),
        (["--stop-stagnation", "-1"], "stagnation_proposals"),
        # Each of these job ids was written to the manifest, which then
        # failed to read back at every start and every worker tick.
        (["--job-id", " "], "job_id=' '"),
        (["--job-id", " job"], "job_id=' job'"),
        (["--job-id", "a\nb"], "job_id='a\\nb'"),
        (["--job-id", "a\u2028b"], "job_id='a\\u2028b'"),
    ])
    def test_a_malformed_option_is_named_and_nothing_is_written(self, tmp_path, capsys,
                                                                 option, named):
        code, values, err = run(capsys, "init", str(tmp_path / "job"), *option)
        assert code == 2 and not values
        assert err.startswith("error=") and len(err.splitlines()) == 1 and named in err
        assert not (tmp_path / "job").exists()

    def test_a_default_job_id_that_would_not_read_back_exits_2(self, tmp_path, capsys):
        # The default id is the directory's name.
        code, values, err = run(capsys, "init", str(tmp_path / "job "))
        assert code == 2 and not values and "job_id='job '" in err
        assert not (tmp_path / "job ").exists()

    def test_a_job_id_with_inner_spaces_reads_back(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        assert run(capsys, "init", jobdir, "--job-id", "my job")[1]["job_id"] == "my job"
        assert run(capsys, "start", jobdir)[0] == 0
        assert run(capsys, "status", jobdir)[1]["job_id"] == "my job"

    def test_the_manifest_holds_what_init_was_given(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        run(capsys, "init", str(jobdir), "--n", "16", "--levels", "4", "--target-order", "3",
            "--stop-max-evals", "500", "--stop-target", "0.9")
        assert (jobdir / "manifest.dat").read_text() == (
            "job_id=job\nobjective=phase_mask\nn=16\nlevels=4\ntarget_order=3\n"
            "stop_max_evals=500\nstop_target=0.9\n")


class TestStartStop:
    def test_start_sets_signal(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        assert run(capsys, "start", jobdir)[0] == 0
        assert (tmp_path / "job" / "go.dat").exists()

    def test_start_uninitialized_exits_3(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        jobdir.mkdir()
        (jobdir / "manifest.dat").write_text("job_id=j\n")
        code, _, err = run(capsys, "start", str(jobdir))
        assert code == 3
        assert "not initialized" in err
        assert not (jobdir / "go.dat").exists()

    def test_start_idempotent(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        assert run(capsys, "start", jobdir)[0] == 0
        assert run(capsys, "start", jobdir)[0] == 0

    def test_stop_clears_and_is_idempotent(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        run(capsys, "start", jobdir)
        assert run(capsys, "stop", jobdir)[0] == 0
        assert not (tmp_path / "job" / "go.dat").exists()
        assert run(capsys, "stop", jobdir)[0] == 0

    def test_stop_unreachable_exits_4(self, capsys):
        code, _, _ = run(capsys, "stop", "/nonexistent/share/job")
        assert code == 4

    def test_start_stop_start_leaves_one_signal(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        run(capsys, "start", jobdir)
        run(capsys, "stop", jobdir)
        run(capsys, "start", jobdir)
        signals = [p for p in (tmp_path / "job").iterdir() if p.name == "go.dat"]
        assert len(signals) == 1


class TestStatus:
    def test_after_init_only(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        code, values, _ = run(capsys, "status", jobdir)
        assert code == 0
        assert values["version"] == "0"
        assert values["signal"] == "absent"
        assert values["commits"] == "0"

    def test_version_matches_commit_log_mid_run(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir, "--n", "8", "--levels", "2", "--target-order", "1")
        run(capsys, "start", jobdir)
        job = JobDirectory.open(jobdir)
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
        work_loop(job, "w", obj, OptimizerMode.REPLACE_IF_BETTER,
                  StopCondition(max_total_evaluations=30), rng=random.Random(5))
        code, values, _ = run(capsys, "status", jobdir)
        assert code == 0
        assert int(values["version"]) == len(read_commit_log(job))
        assert int(values["version"]) >= 1

    def test_corrupted_best_exits_4(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        run(capsys, "init", str(jobdir))
        best = jobdir / BEST_FILE
        best.write_text(best.read_text().replace("version=0", "version=9"))
        code, values, err = run(capsys, "status", str(jobdir))
        assert code == 4
        assert not values
        assert err.startswith("error=") and len(err.splitlines()) == 1
        assert "checksum" in err

    @pytest.mark.parametrize("command", ["status", "report"])
    def test_a_malformed_commit_line_exits_4_and_prints_nothing(self, tmp_path, capsys,
                                                                 command):
        jobdir = tmp_path / "job"
        run(capsys, "init", str(jobdir))
        with open(jobdir / CHANGES_FILE, "a", encoding="utf-8") as fh:
            fh.write("1 2 x 0.5 w1\n")
        code, values, err = run(capsys, command, str(jobdir))
        assert code == 4
        assert not values
        assert err.startswith("error=") and len(err.splitlines()) == 1
        assert f"{CHANGES_FILE} line 1 " in err

    def test_a_tally_torn_inside_a_character_is_read_around(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        run(capsys, "init", str(jobdir))
        with open(jobdir / CHANGES_FILE, "ab") as fh:
            fh.write("#tally w\u00e9 evals=4 commits=0 not_better=4 conflict=0 stale=0\n"
                     .encode("utf-8"))
            fh.write(b"#tally w\xc3")  # cut inside the two bytes of U+00E9
        code, values, _ = run(capsys, "status", str(jobdir))
        assert code == 0
        assert values["version"] == "0"

    def test_missing_best_exits_3(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        jobdir.mkdir()
        (jobdir / "manifest.dat").write_text("job_id=j\n")
        assert run(capsys, "status", str(jobdir))[0] == 3


class TestReport:
    def test_exact_final_record_zero_drift(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir, "--n", "8", "--levels", "2", "--target-order", "1")
        code, values, _ = run(capsys, "report", jobdir)
        assert code == 0
        assert float(values["estimate_drift"]) == 0.0
        assert values["estimated"] == "0"

    def test_estimated_final_record_reports_drift(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir, "--n", "8", "--levels", "2", "--target-order", "1")
        run(capsys, "start", jobdir)
        job = JobDirectory.open(jobdir)
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
        base = read_best(job)
        # Two workers from the same stale base; the second lands an additive
        # estimate, so the final record is estimated.
        evaluate_and_merge(job, base, (4, 1), obj, OptimizerMode.CHANGE_MERGE, proposer="a")
        evaluate_and_merge(job, base, (7, 1), obj, OptimizerMode.CHANGE_MERGE, proposer="b")
        final = read_best(job)
        assert final.estimated
        run(capsys, "stop", jobdir)
        code, values, _ = run(capsys, "report", jobdir)
        assert code == 0
        assert values["estimated"] == "1"
        expected_drift = abs(final.performance - obj.evaluate(final.config))
        assert float(values["estimate_drift"]) == expected_drift
        assert float(values["recorded_performance"]) == final.performance

    def test_counts_are_the_fleet_tallies_summed(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        job = JobDirectory.open(jobdir)
        append_tally(job, "a", WorkerTally(5, 1, 2, 1, 1))
        append_tally(job, "b", WorkerTally(3, 0, 3, 0, 0))
        append_tally(job, "a", WorkerTally(9, 1, 4, 2, 2))  # a's latest replaces its first
        code, values, _ = run(capsys, "report", jobdir)
        assert code == 0
        assert (values["evaluations"], values["rejected_not_better"],
                values["rejected_conflict"], values["rejected_stale"]) == ("12", "7", "2", "2")

    def test_running_job_refused(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        run(capsys, "start", jobdir)
        code, _, err = run(capsys, "report", jobdir)
        assert code == 3
        assert "still running" in err

    def test_unknown_objective_exits_4(self, tmp_path, capsys):
        jobdir = tmp_path / "job"
        run(capsys, "init", str(jobdir))
        manifest = jobdir / "manifest.dat"
        manifest.write_text(manifest.read_text().replace("objective=phase_mask", "objective=nope"))
        code, values, err = run(capsys, "report", str(jobdir))
        assert code == 4
        assert not values
        assert err.startswith("error=") and len(err.splitlines()) == 1
        assert "unknown objective" in err

    def test_report_never_mutates_best(self, tmp_path, capsys):
        jobdir = str(tmp_path / "job")
        run(capsys, "init", jobdir)
        before = (tmp_path / "job" / BEST_FILE).read_bytes()
        run(capsys, "report", jobdir)
        assert (tmp_path / "job" / BEST_FILE).read_bytes() == before


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        master.main(["frobnicate"])
    assert exc.value.code == 2


def test_umbrella_cli_dispatch(tmp_path, capsys):
    from idleclimb import cli

    jobdir = str(tmp_path / "job")
    assert cli.main(["master", "init", jobdir]) == 0
    assert cli.main(["master", "start", jobdir]) == 0
    capsys.readouterr()
    assert cli.main(["unknown"]) == 2
    assert cli.main([]) == 2  # bare invocation prints usage, exits non-zero
    assert cli.main(["--help"]) == 0
