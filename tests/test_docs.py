"""The README's operator commands, worker configuration and scenario are
read by the parsers and run as shown, so the documentation cannot drift
from them."""

import os
import random
import re
import shlex

from idleclimb import master, simharness
from idleclimb.coordination import CHANGES_FILE, JobDirectory, read_manifest
from idleclimb.optimizer import OptimizerMode, job_from_manifest, work_loop
from idleclimb.worker import parse_worker_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_block(pattern: str) -> str:
    with open(README, encoding="utf-8") as fh:
        match = re.search(pattern, fh.read(), re.S)
    assert match is not None, f"README has no block matching {pattern!r}"
    return match.group(1)


def test_readme_worker_conf_parses_as_written():
    config = parse_worker_config(readme_block(r"cat > worker\.conf <<'EOF'\n(.*?\n)EOF\n"))
    assert config.jobs == ("/shared/job1",)
    assert config.worker_id == "desk07"
    assert config.mode is OptimizerMode.CHANGE_MERGE
    assert config.poll_interval == 600.0
    assert config.idle_threshold == 3600.0
    assert config.daily_start == 12 * 3600.0
    assert config.daily_duration == 85800.0


def test_readme_scenario_runs(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(readme_block(r"A scenario file is.*?```\n(.*?)```"))
    assert simharness.main(["run", "--scenario", str(scenario)]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert report["incomplete"] == "0"
    assert int(report["evaluations_total"]) > 0


def test_readme_master_commands_run_as_shown(tmp_path, capsys):
    jobdir = str(tmp_path / "job1")
    block = readme_block(r"```sh\n(idleclimb master init .*?)```")
    commands = [shlex.split(line.replace("/shared/job1", jobdir), comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    assert [words[:3] for words in commands] == [
        ["idleclimb", "master", name]
        for name in ("init", "start", "status", "stop", "report", "init")]
    assert "--force" in commands[-1]
    out = {}
    for words in commands[:-1]:
        assert master.main(words[2:]) == 0, words
        out[words[2]] = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        if words[2] == "status":  # then a worker runs the job to its budget
            job = JobDirectory.open(jobdir)
            objective, stop = job_from_manifest(read_manifest(job))
            work_loop(job, "desk07", objective, OptimizerMode.CHANGE_MERGE, stop,
                      rng=random.Random(1))
    assert out["status"]["signal"] == "present"
    assert out["report"]["evaluations"] == "5000" and int(out["report"]["commits"]) > 0
    log = os.path.join(jobdir, CHANGES_FILE)
    with open(log, encoding="utf-8") as fh:
        old = fh.read()
    assert master.main(commands[-1][2:]) == 0
    # The old job's lines stay, above one #init line, and count no more.
    with open(log, encoding="utf-8") as fh:
        assert fh.read() == old + "#init\n"
    capsys.readouterr()
    assert master.main(["report", jobdir]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert report["version"] == report["commits"] == report["evaluations"] == "0"
