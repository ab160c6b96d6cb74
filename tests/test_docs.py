"""The README's worker configuration and scenario are read by the parsers
and run as shown, so the documentation cannot drift from them."""

import os
import re

from idleclimb import simharness
from idleclimb.optimizer import OptimizerMode
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
