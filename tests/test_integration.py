"""End to end over a real directory: master CLI, two daemon processes."""

import os
import select
import signal
import subprocess
import sys
import time

from idleclimb import master
from idleclimb.coordination import JobDirectory, read_best, read_fleet_tally

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def wait_until(predicate, deadline=30.0, poll=0.1):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(poll)
    return False


def test_two_daemons_drive_a_job_to_its_stop_condition(tmp_path, capsys):
    jobdir = tmp_path / "shared-job"
    assert master.main(["init", str(jobdir), "--n", "8", "--levels", "2",
                        "--target-order", "1", "--init-config", "random",
                        "--seed", "3", "--stop-max-evals", "40"]) == 0
    assert master.main(["start", str(jobdir)]) == 0
    capsys.readouterr()

    # The daemons run the same sources as this test, installed or not.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    daemons = []
    try:
        for i in range(2):
            conf = tmp_path / f"worker{i}.conf"
            conf.write_text(
                f"job={jobdir}\n"
                f"worker_id=it{i}\n"
                "mode=change_merge\n"
                "poll_interval=0.2\n"
                "idle_threshold=0\n"
                "daily_start=0:00\n"
                "daily_duration=86400\n"
            )
            daemons.append(subprocess.Popen(
                [sys.executable, "-m", "idleclimb.cli", "worker", "run",
                 "--config", str(conf)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            ))
        # A daemon prints its ready line once SIGTERM ends it cleanly; one
        # signalled before that (still importing) would die with -15.
        for proc in daemons:
            assert select.select([proc.stdout], [], [], 30.0)[0], "no ready line in 30 s"
            assert proc.stdout.readline().startswith("ready=")

        # The fleet reaches the evaluation budget and clears its own signal.
        assert wait_until(lambda: not (jobdir / "go.dat").exists()), \
            "signal never cleared; daemons made no progress"
    finally:
        for proc in daemons:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        outs = [proc.communicate(timeout=30) for proc in daemons]

    exits = []
    for proc, (out, err) in zip(daemons, outs):
        assert proc.returncode == 0, err
        exit_line = out.splitlines()[-1]
        assert exit_line.startswith("ticks=")
        exits.append(dict(pair.split("=", 1) for pair in exit_line.split()))

    job = JobDirectory.open(str(jobdir))
    tallies = read_fleet_tally(job)
    assert sum(t.evaluations for t in tallies.values()) >= 40
    # The exit line adds up the daemon's loops; each loop that did not fail
    # wrote its counts to the tally when it ended.
    for key in ("evals", "commits", "not_better", "conflict", "stale", "aborted"):
        assert all(key in values for values in exits)
    if all(values["failed_loops"] == "0" for values in exits):
        for key, field in (("evals", "evaluations"), ("commits", "commits")):
            assert sum(int(values[key]) for values in exits) == sum(
                getattr(t, field) for t in tallies.values())
    assert read_best(job).version >= 1

    assert master.main(["report", str(jobdir)]) == 0
    report = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    assert int(report["evaluations"]) >= 40
    assert float(report["exact_performance"]) > 0.0


def test_worker_probe_prints_idle_estimate(capsys):
    from idleclimb import worker

    assert worker.main(["probe"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("idle=")
    assert float(out.split("=", 1)[1]) >= 0.0
